// Property-based convergence sweeps: randomized mixed-operation workloads
// (insert / update / delete / put, random transaction sizes, contended key
// space) executed on both primary engines, replayed through every protocol,
// with per-row chain invariants and state-digest equality as the property.
// Also: replay under injected delivery faults (jitter + mid-replay stall).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <tuple>

#include "api/snapshot.h"
#include "core/protocol_factory.h"
#include "log/segment_source.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"

namespace c5 {
namespace {

using core::MakeReplica;
using core::ProtocolKind;
using core::ProtocolOptions;

// A randomized transaction: 1-8 operations over a small, contended key
// space. Operation-level existence errors (inserting a present key, updating
// an absent one) are tolerated by falling back to the complementary
// operation, so every transaction commits some writes. Deletions make the
// key space churn: rows flip between live and tombstoned.
Status RandomTxn(txn::Txn& txn, TableId table, Rng& rng,
                 std::uint64_t keyspace) {
  const int ops = 1 + static_cast<int>(rng.Uniform(8));
  for (int i = 0; i < ops; ++i) {
    const Key key = rng.Uniform(keyspace);
    const Value value = workload::EncodeIntValue(rng.Next());
    switch (rng.Uniform(4)) {
      case 0: {  // insert-or-update
        Status s = txn.Insert(table, key, value);
        if (s.code() == StatusCode::kAlreadyExists) {
          s = txn.Update(table, key, value);
        }
        if (!s.ok()) return s;
        break;
      }
      case 1: {  // update-or-insert
        Status s = txn.Update(table, key, value);
        if (s.code() == StatusCode::kNotFound) {
          s = txn.Insert(table, key, value);
        }
        if (!s.ok()) return s;
        break;
      }
      case 2: {  // delete if present
        const Status s = txn.Delete(table, key);
        if (!s.ok() && s.code() != StatusCode::kNotFound) return s;
        break;
      }
      default: {  // blind write
        const Status s = txn.Put(table, key, value);
        if (!s.ok()) return s;
        break;
      }
    }
  }
  return Status::Ok();
}

struct RandomRun {
  std::unique_ptr<test::Primary> primary;
  TableId table = 0;
  log::Log log;
};

RandomRun RunRandomPrimary(bool use_2pl, std::uint64_t seed,
                           std::uint64_t keyspace, int clients,
                           std::uint64_t txns_per_client) {
  RandomRun run;
  run.primary = use_2pl ? test::Primary::Tpl() : test::Primary::Mvtso();
  run.table = workload::SyntheticWorkload::CreateTable(&run.primary->db);
  workload::RunClosedLoop(
      clients, std::chrono::milliseconds(0), txns_per_client,
      [&](std::uint32_t, Rng& rng) {
        return run.primary->engine->ExecuteWithRetry([&](txn::Txn& txn) {
          return RandomTxn(txn, run.table, rng, keyspace);
        });
      },
      seed);
  run.log = run.primary->collector->Coalesce();
  return run;
}

void CheckChainsStrictlyOrdered(storage::Database& db) {
  const auto guard = db.epochs().Enter();
  for (TableId t = 0; t < db.NumTables(); ++t) {
    const storage::Table& table = db.table(t);
    for (RowId r = 0; r < table.NumRows(); ++r) {
      Timestamp prev = kMaxTimestamp;
      for (const storage::Version* v = table.ReadLatestCommitted(r);
           v != nullptr; v = v->Next()) {
        ASSERT_LT(v->write_ts, prev);
        prev = v->write_ts;
      }
    }
  }
}

// (protocol, use_2pl, seed)
class RandomWorkloadTest
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, bool, int>> {
};

TEST_P(RandomWorkloadTest, ConvergesOnMixedOperations) {
  const auto [kind, use_2pl, seed] = GetParam();
  auto run = RunRandomPrimary(
      use_2pl, test::TestSeed(static_cast<std::uint64_t>(seed)),
      /*keyspace=*/64, /*clients=*/4,
      /*txns_per_client=*/200);
  ASSERT_TRUE(test::LogIsWellFormed(run.log));
  ASSERT_GT(run.log.NumRecords(), 0u);

  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);
  auto replica = MakeReplica(kind, &backup, ProtocolOptions{
                                                .num_workers = 4,
                                            });
  replica->Start(&source);
  replica->WaitUntilCaughtUp();
  replica->Stop();

  EXPECT_EQ(test::StateDigest(backup, kMaxTimestamp),
            test::StateDigest(run.primary->db, kMaxTimestamp))
      << "diverged on " << core::ToString(kind)
      << (use_2pl ? " (2PL log)" : " (MVTSO log)") << " seed " << seed;
  CheckChainsStrictlyOrdered(backup);
}

const ProtocolKind kAllCorrectProtocols[] = {
    ProtocolKind::kC5,           ProtocolKind::kC5MyRocks,
    ProtocolKind::kC5Queue,      ProtocolKind::kPageGranularity,
    ProtocolKind::kTableGranularity, ProtocolKind::kKuaFu,
    ProtocolKind::kSingleThread, ProtocolKind::kQueryFresh,
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomWorkloadTest,
    ::testing::Combine(::testing::ValuesIn(kAllCorrectProtocols),
                       ::testing::Bool(), ::testing::Values(7, 1337)),
    [](const ::testing::TestParamInfo<std::tuple<ProtocolKind, bool, int>>&
           info) {
      std::string name = core::ToString(std::get<0>(info.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      name += std::get<1>(info.param) ? "_2pl" : "_mvtso";
      name += "_s" + std::to_string(std::get<2>(info.param));
      return name;
    });

// Cross-engine oracle: the same seeded workload executed SERIALLY (one
// client, so the transaction sequence — including every fallback decision —
// is a pure function of the seed) on MVTSO and on 2PL must produce the
// identical final table state, and a single-thread replay of each engine's
// log must land on that state again. Commit timestamps legitimately differ
// between the engines; StateDigest deliberately excludes them.
TEST(CrossEngineOracleTest, MvtsoTplAndSingleThreadReplayAgree) {
  const std::uint64_t seed = test::TestSeed(2024);
  auto mvtso = RunRandomPrimary(/*use_2pl=*/false, seed, /*keyspace=*/64,
                                /*clients=*/1, /*txns_per_client=*/400);
  auto tpl = RunRandomPrimary(/*use_2pl=*/true, seed, /*keyspace=*/64,
                              /*clients=*/1, /*txns_per_client=*/400);
  ASSERT_GT(mvtso.log.NumRecords(), 0u);
  ASSERT_EQ(mvtso.log.NumRecords(), tpl.log.NumRecords())
      << "serial execution must log the same write sequence on both engines";

  const std::uint64_t want =
      test::StateDigest(mvtso.primary->db, kMaxTimestamp);
  EXPECT_EQ(want, test::StateDigest(tpl.primary->db, kMaxTimestamp))
      << "MVTSO and 2PL diverged on the same serial workload, seed " << seed;

  for (log::Log* log : {&mvtso.log, &tpl.log}) {
    storage::Database backup;
    workload::SyntheticWorkload::CreateTable(&backup);
    log->ResetReplayState();
    log::OfflineSegmentSource source(log);
    auto replica =
        MakeReplica(ProtocolKind::kSingleThread, &backup, ProtocolOptions{});
    replica->Start(&source);
    replica->WaitUntilCaughtUp();
    replica->Stop();
    EXPECT_EQ(want, test::StateDigest(backup, kMaxTimestamp))
        << "single-thread replay diverged, seed " << seed;
  }
}

// Delivery-fault injection: the same convergence property must hold when
// segments arrive with jitter and a mid-replay stall, and MPC (pair
// atomicity + monotonicity) must hold for a concurrent reader throughout.
class FaultInjectionTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(FaultInjectionTest, ConvergesAndHoldsMpcUnderJitterAndStall) {
  const ProtocolKind kind = GetParam();

  // Paired-write log: every txn writes kA == kB plus a unique insert.
  auto primary = test::Primary::Mvtso();
  const TableId table =
      workload::SyntheticWorkload::CreateTable(&primary->db);
  constexpr Key kA = 100, kB = 200;
  for (std::uint64_t n = 0; n <= 800; ++n) {
    ASSERT_TRUE(primary->engine
                    ->ExecuteWithRetry([&](txn::Txn& txn) {
                      Status st = txn.Put(table, kA,
                                          workload::EncodeIntValue(n));
                      if (!st.ok()) return st;
                      st = txn.Put(table, kB, workload::EncodeIntValue(n));
                      if (!st.ok()) return st;
                      return txn.Insert(table, 1000 + n,
                                        workload::EncodeIntValue(n));
                    })
                    .ok());
  }
  log::Log log = primary->collector->Coalesce();
  ASSERT_GT(log.NumSegments(), 4u);

  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  log.ResetReplayState();

  // Stall at 2/3 of the log, opened by a watchdog after 30 ms; jitter on
  // every third segment.
  log::GatedSegmentSource gated(&log, log.NumSegments() * 2 / 3);
  log::DelayedSegmentSource jittered(&gated, [](std::size_t i) {
    return std::chrono::microseconds(i % 3 == 0 ? 300 : 0);
  });
  std::thread watchdog([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    gated.Open();
  });

  auto replica = MakeReplica(kind, &backup, {.num_workers = 4});
  auto* base = dynamic_cast<replica::ReplicaBase*>(replica.get());
  ASSERT_NE(base, nullptr);

  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  std::thread reader([&] {
    std::uint64_t last_seen = 0;
    Timestamp last_ts = 0;
    while (!stop.load(std::memory_order_acquire)) {
      // Snapshot reads work for every protocol, lazy ones included: Get
      // runs Query Fresh's deferred instantiation through the
      // PrepareRowRead hook.
      const c5::Snapshot snap = base->OpenSnapshot();
      const Timestamp ts = snap.timestamp();
      if (ts < last_ts) violation.store(true);
      last_ts = ts;
      if (ts == 0) continue;
      Value va, vb;
      const std::uint64_t a =
          snap.Get(table, kA, &va).ok() ? workload::DecodeIntValue(va) : 0;
      const std::uint64_t b =
          snap.Get(table, kB, &vb).ok() ? workload::DecodeIntValue(vb) : 0;
      if (a != b) violation.store(true);
      if (a < last_seen) violation.store(true);
      last_seen = a;
    }
  });

  replica->Start(&jittered);
  replica->WaitUntilCaughtUp();
  stop.store(true, std::memory_order_release);
  reader.join();
  watchdog.join();
  replica->Stop();

  EXPECT_FALSE(violation.load()) << "MPC violated under fault injection";
  EXPECT_EQ(test::StateDigest(backup, kMaxTimestamp),
            test::StateDigest(primary->db, kMaxTimestamp));
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, FaultInjectionTest,
    ::testing::ValuesIn(kAllCorrectProtocols),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      std::string name = core::ToString(info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace c5
