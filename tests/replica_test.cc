// Parameterized correctness suite run against EVERY cloned concurrency
// control protocol in the repository: state convergence, per-row ordering,
// visibility (monotonic prefix consistency), and read-only transaction
// behaviour, on low- and high-contention logs from both primary engines.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "api/snapshot.h"
#include "core/protocol_factory.h"
#include "log/segment_source.h"
#include "replica/lag_tracker.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"

namespace c5 {
namespace {

using core::MakeReplica;
using core::ProtocolKind;
using core::ProtocolOptions;

// kKuaFuUnconstrained is excluded: it is a diagnostic mode that
// intentionally breaks correctness (§7.3).
const ProtocolKind kAllCorrectProtocols[] = {
    ProtocolKind::kC5,           ProtocolKind::kC5MyRocks,
    ProtocolKind::kC5Queue,      ProtocolKind::kPageGranularity,
    ProtocolKind::kTableGranularity, ProtocolKind::kKuaFu,
    ProtocolKind::kSingleThread, ProtocolKind::kQueryFresh,
};

class ReplicaParamTest
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, int>> {
 protected:
  ProtocolKind kind() const { return std::get<0>(GetParam()); }
  int workers() const { return std::get<1>(GetParam()); }

  ProtocolOptions Options() const {
    ProtocolOptions o;
    o.num_workers = workers();
    o.snapshot_interval = std::chrono::microseconds(100);
    return o;
  }

  // Replays `log` into a fresh backup with the same table layout as the
  // primary and returns the backup database for inspection.
  void ReplayAndCheckConvergence(test::SyntheticRun& run) {
    storage::Database backup;
    workload::SyntheticWorkload::CreateTable(&backup);

    run.log.ResetReplayState();
    log::OfflineSegmentSource source(&run.log);
    auto replica = MakeReplica(kind(), &backup, Options());
    replica->Start(&source);
    replica->WaitUntilCaughtUp();
    replica->Stop();

    EXPECT_EQ(replica->stats().applied_writes.load(), run.log.NumRecords());
    EXPECT_EQ(replica->stats().applied_txns.load(),
              run.log.CountTransactions());
    EXPECT_EQ(replica->VisibleTimestamp(), run.log.MaxTimestamp());

    const std::uint64_t primary_digest =
        test::StateDigest(run.primary->db, kMaxTimestamp);
    const std::uint64_t backup_digest =
        test::StateDigest(backup, kMaxTimestamp);
    EXPECT_EQ(primary_digest, backup_digest)
        << "backup state diverged from primary";

    // Per-row version chains must be strictly decreasing in timestamp.
    const auto guard = backup.epochs().Enter();
    for (TableId t = 0; t < backup.NumTables(); ++t) {
      const storage::Table& table = backup.table(t);
      for (RowId r = 0; r < table.NumRows(); ++r) {
        Timestamp prev = kMaxTimestamp;
        for (const storage::Version* v = table.ReadLatestCommitted(r);
             v != nullptr; v = v->Next()) {
          ASSERT_LT(v->write_ts, prev) << "per-row order violated";
          prev = v->write_ts;
        }
      }
    }
  }
};

TEST_P(ReplicaParamTest, ConvergesOnInsertOnlyLog) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/false, /*clients=*/4,
                                       /*txns_per_client=*/300);
  ASSERT_TRUE(test::LogIsWellFormed(run.log));
  ReplayAndCheckConvergence(run);
}

TEST_P(ReplicaParamTest, ConvergesOnAdversarialLog) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/4,
                                       /*txns_per_client=*/300);
  ASSERT_TRUE(test::LogIsWellFormed(run.log));
  ReplayAndCheckConvergence(run);
}

TEST_P(ReplicaParamTest, ConvergesOnTwoPhaseLockingLog) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/4,
                                       /*txns_per_client=*/200,
                                       /*inserts_per_txn=*/4,
                                       /*use_2pl=*/true);
  ASSERT_TRUE(test::LogIsWellFormed(run.log));
  ReplayAndCheckConvergence(run);
}

TEST_P(ReplicaParamTest, ConvergesOnSingleWriteTxns) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/false, /*clients=*/2,
                                       /*txns_per_client=*/200,
                                       /*inserts_per_txn=*/1);
  ReplayAndCheckConvergence(run);
}

TEST_P(ReplicaParamTest, EmptyLogCompletes) {
  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  log::Log empty;
  log::OfflineSegmentSource source(&empty);
  auto replica = MakeReplica(kind(), &backup, Options());
  replica->Start(&source);
  replica->WaitUntilCaughtUp();
  replica->Stop();
  EXPECT_EQ(replica->stats().applied_writes.load(), 0u);
}

TEST_P(ReplicaParamTest, SnapshotGetFindsReplicatedRows) {
  auto run = test::RunSyntheticPrimary(false, 2, 100, 2);
  storage::Database backup;
  const TableId table = workload::SyntheticWorkload::CreateTable(&backup);

  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);
  auto replica = MakeReplica(kind(), &backup, Options());
  replica->Start(&source);
  replica->WaitUntilCaughtUp();

  auto* base = dynamic_cast<replica::ReplicaBase*>(replica.get());
  ASSERT_NE(base, nullptr);
  // Every key in the log must be readable at the final snapshot.
  std::uint64_t found = 0;
  for (std::size_t s = 0; s < run.log.NumSegments(); ++s) {
    for (const auto& rec : run.log.segment(s)->records()) {
      Value v;
      if (base->OpenSnapshot().Get(table, rec.key, &v).ok()) ++found;
    }
  }
  EXPECT_EQ(found, run.log.NumRecords());
  replica->Stop();
}

// Monotonic prefix consistency under concurrent readers: while the replica
// applies the log, readers repeatedly execute two-key read-only transactions
// against pair rows that every transaction writes together with equal
// values. MPC requires (a) each read-only transaction sees equal values
// (transactional atomicity) and (b) the value sequence each reader observes
// is non-decreasing (monotonicity).
TEST_P(ReplicaParamTest, MonotonicPrefixConsistencyDuringReplay) {
  // Every protocol — lazy ones included — is read through the Snapshot
  // surface, which funnels Query Fresh's deferred instantiation through
  // PrepareRowRead; MPC must therefore hold uniformly.
  // Build a paired-write log on an MVTSO primary.
  auto primary = test::Primary::Mvtso();
  const TableId table =
      workload::SyntheticWorkload::CreateTable(&primary->db);
  constexpr Key kA = 100, kB = 200;
  {
    const Status s = primary->engine->ExecuteWithRetry([&](txn::Txn& txn) {
      Status st = txn.Put(table, kA, workload::EncodeIntValue(0));
      if (!st.ok()) return st;
      return txn.Put(table, kB, workload::EncodeIntValue(0));
    });
    ASSERT_TRUE(s.ok());
  }
  for (std::uint64_t n = 1; n <= 400; ++n) {
    // Interleave unique inserts to give parallel protocols work to reorder.
    const Status s = primary->engine->ExecuteWithRetry([&](txn::Txn& txn) {
      Status st = txn.Insert(table, 1000 + n, workload::EncodeIntValue(n));
      if (!st.ok()) return st;
      st = txn.Update(table, kA, workload::EncodeIntValue(n));
      if (!st.ok()) return st;
      return txn.Update(table, kB, workload::EncodeIntValue(n));
    });
    ASSERT_TRUE(s.ok());
  }
  log::Log log = primary->collector->Coalesce();

  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  log::OfflineSegmentSource source(&log);
  auto replica = MakeReplica(kind(), &backup, Options());
  auto* base = dynamic_cast<replica::ReplicaBase*>(replica.get());
  ASSERT_NE(base, nullptr);

  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  std::thread reader([&] {
    std::uint64_t last_seen = 0;
    Timestamp last_ts = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const c5::Snapshot snap = base->OpenSnapshot();
      const Timestamp ts = snap.timestamp();
      if (ts < last_ts) violation.store(true);  // snapshot went backwards
      last_ts = ts;
      if (ts == 0) continue;
      Value va, vb;
      const std::uint64_t a =
          snap.Get(table, kA, &va).ok() ? workload::DecodeIntValue(va) : 0;
      const std::uint64_t b =
          snap.Get(table, kB, &vb).ok() ? workload::DecodeIntValue(vb) : 0;
      if (a != b) violation.store(true);        // torn transaction
      if (a < last_seen) violation.store(true);  // regression
      last_seen = a;
    }
  });

  replica->Start(&source);
  replica->WaitUntilCaughtUp();
  stop.store(true, std::memory_order_release);
  reader.join();
  replica->Stop();

  EXPECT_FALSE(violation.load()) << "MPC violated during replay";

  // Final state: both pair rows at 400.
  Value v;
  ASSERT_TRUE(base->OpenSnapshot().Get(table, kA, &v).ok());
  EXPECT_EQ(workload::DecodeIntValue(v), 400u);
}

// A snapshot the recovery window suppresses is not a snapshot: nothing was
// made readable, so no lag sample may be drained and no snapshot counted.
// The window (0, 100] is armed, a sample is recorded for ts 1, and ts 1 is
// replayed: while the gate holds ts 100 back, the snapshot stays at 0 and
// the sample stays pending. Once ts 100 is replayed the window closes, and
// that one real advance drains the sample.
TEST_P(ReplicaParamTest, RecoveryWindowHoldsLagSamples) {
  storage::Database backup;
  const TableId table = workload::SyntheticWorkload::CreateTable(&backup);
  log::Log log;
  for (const Timestamp ts : {Timestamp{1}, Timestamp{100}}) {
    auto seg = std::make_unique<log::LogSegment>(log.NumRecords());
    log::LogRecord rec;
    rec.table = table;
    rec.op = OpType::kInsert;
    rec.row = ts;
    rec.key = ts;
    rec.commit_ts = ts;
    rec.last_in_txn = true;
    rec.value = "v";
    seg->Append(rec);
    log.AppendSegment(std::move(seg));
  }
  log::GatedSegmentSource source(&log, /*gate_at=*/1);

  replica::LagTracker lag;
  auto replica = MakeReplica(kind(), &backup, Options(), &lag);
  auto* base = dynamic_cast<replica::ReplicaBase*>(replica.get());
  ASSERT_NE(base, nullptr);
  base->SetRecoveryWindow(/*resume_ts=*/0, /*inherited_max=*/100);
  lag.RecordCommit(1);
  replica->Start(&source);

  // No ASSERT until the gate opens: the scheduler blocks in the gated
  // source, so returning early would hang the replica's join.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (replica->stats().applied_txns.load() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  EXPECT_EQ(replica->stats().applied_txns.load(), 1u);
  // Many visibility periods: every protocol has had its chance to publish.
  const auto hold_until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  Timestamp visible = 0;
  std::size_t pending = 1;
  while (visible == 0 && pending == 1 &&
         std::chrono::steady_clock::now() < hold_until) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    visible = replica->VisibleTimestamp();
    pending = lag.PendingCount();
  }
  EXPECT_EQ(visible, 0u);
  EXPECT_EQ(pending, 1u) << "a suppressed snapshot drained a lag sample";
  EXPECT_EQ(replica->stats().snapshots_taken.load(), 0u);

  source.Open();
  replica->WaitUntilCaughtUp();
  replica->Stop();
  EXPECT_EQ(replica->VisibleTimestamp(), 100u);
  EXPECT_TRUE(base->RecoveryWindowClosed());
  EXPECT_EQ(lag.PendingCount(), 0u);
  EXPECT_EQ(lag.TakeHistogram().count(), 1u);
  EXPECT_GT(replica->stats().snapshots_taken.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ReplicaParamTest,
    ::testing::Combine(::testing::ValuesIn(kAllCorrectProtocols),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<ProtocolKind, int>>& info) {
      std::string name = core::ToString(std::get<0>(info.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_w" + std::to_string(std::get<1>(info.param));
    });

// The unconstrained-KuaFu diagnostic still applies every write and
// terminates; it just may not converge to the primary's state.
TEST(KuaFuUnconstrainedTest, AppliesEverythingAndTerminates) {
  auto run = test::RunSyntheticPrimary(true, 4, 200);
  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);
  auto replica = MakeReplica(ProtocolKind::kKuaFuUnconstrained, &backup,
                             ProtocolOptions{.num_workers = 4});
  replica->Start(&source);
  replica->WaitUntilCaughtUp();
  replica->Stop();
  EXPECT_EQ(replica->stats().applied_writes.load(), run.log.NumRecords());
}

}  // namespace
}  // namespace c5
