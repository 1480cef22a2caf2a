// End-to-end pipelines: live primary -> online log shipping -> replica with
// concurrent read-only clients, lag measurement, and garbage collection. The
// closest test analogue of the paper's Fig. 8/9 setup.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/protocol_factory.h"
#include "log/log_collector.h"
#include "log/segment_source.h"
#include "replica/lag_tracker.h"
#include "tests/test_util.h"
#include "txn/mvtso_engine.h"
#include "txn/two_phase_locking_engine.h"
#include "workload/runner.h"
#include "workload/synthetic.h"
#include "workload/tpcc.h"

namespace c5 {
namespace {

using core::MakeReplica;
using core::ProtocolKind;
using core::ProtocolOptions;

class OnlineReplicationTest
    : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(OnlineReplicationTest, LivePrimaryStreamsToReplicaWithReaders) {
  storage::Database primary_db, backup_db;
  const TableId table = workload::SyntheticWorkload::CreateTable(&primary_db);
  workload::SyntheticWorkload::CreateTable(&backup_db);

  TxnClock clock;
  log::OnlineLogCollector collector(/*segment_records=*/64);
  txn::MvtsoEngine engine(&primary_db, &collector, &clock);
  collector.SetReleaseHorizon([&engine] { return engine.LogHorizon(); });

  workload::SyntheticWorkload wl(table, {.inserts_per_txn = 3,
                                         .adversarial = true});
  ASSERT_TRUE(wl.LoadHotRow(engine).ok());
  collector.Flush();

  replica::LagTracker lag(/*sample_every=*/4);
  log::ChannelSegmentSource source(&collector.channel());
  auto rep = MakeReplica(GetParam(), &backup_db,
                         ProtocolOptions{.num_workers = 2,
                                         .snapshot_interval =
                                             std::chrono::microseconds(100)},
                         &lag);
  rep->Start(&source);
  auto* base = dynamic_cast<replica::ReplicaBase*>(rep.get());
  ASSERT_NE(base, nullptr);

  // Read-only clients hammering the backup during replication.
  std::atomic<bool> stop_readers{false};
  std::atomic<std::uint64_t> reads{0};
  const std::uint64_t reader_seed = test::TestSeed(5);  // main thread only
  std::thread reader([&] {
    Rng rng(reader_seed);
    while (!stop_readers.load()) {
      Value v;
      (void)base->OpenSnapshot().Get(
          table, workload::SyntheticWorkload::kHotKey, &v);
      reads.fetch_add(1);
    }
  });

  // A flusher so partial segments ship promptly.
  std::atomic<bool> stop_flusher{false};
  std::thread flusher([&] {
    while (!stop_flusher.load()) {
      collector.Flush();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // Live write load. Commit timestamps are captured inside the transaction
  // body (the MVTSO timestamp IS the commit timestamp on success).
  std::vector<std::uint64_t> seqs(4, 0);
  std::atomic<Timestamp> last_ts{0};
  const auto result = workload::RunClosedLoop(
      4, std::chrono::milliseconds(300), 0,
      [&](std::uint32_t client, Rng& rng) {
        Timestamp my_ts = 0;
        const std::uint64_t base = seqs[client];
        const Status s = engine.ExecuteWithRetry([&](txn::Txn& txn) {
          my_ts = txn.timestamp();
          for (std::uint32_t i = 0; i < 3; ++i) {
            const Key k = (std::uint64_t{1} << 63) |
                          (static_cast<std::uint64_t>(client) << 40) |
                          (base + i);
            const Status st =
                txn.Insert(table, k, workload::EncodeIntValue(base + i));
            if (!st.ok()) return st;
          }
          return txn.Update(table, workload::SyntheticWorkload::kHotKey,
                            workload::EncodeIntValue(rng.Next()));
        });
        if (s.ok()) {
          seqs[client] = base + 3;
          lag.RecordCommit(my_ts);
          last_ts.store(my_ts, std::memory_order_relaxed);
        }
        return s;
      },
      test::TestSeed(1));
  EXPECT_GT(result.committed, 100u);

  stop_flusher.store(true);
  flusher.join();
  collector.Finish();
  rep->WaitUntilCaughtUp();
  stop_readers.store(true);
  reader.join();
  rep->Stop();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(test::StateDigest(primary_db, kMaxTimestamp),
            test::StateDigest(backup_db, kMaxTimestamp));

  // Every protocol counts its snapshot advances.
  EXPECT_GT(rep->stats().snapshots_taken.load(), 0u);

  // Lag histogram was populated and is sane (everything eventually visible).
  EXPECT_EQ(lag.PendingCount(), 0u);
  const Histogram h = lag.TakeHistogram();
  EXPECT_GT(h.count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, OnlineReplicationTest,
    ::testing::Values(ProtocolKind::kC5, ProtocolKind::kC5MyRocks,
                      ProtocolKind::kKuaFu, ProtocolKind::kSingleThread,
                      ProtocolKind::kC5Queue, ProtocolKind::kQueryFresh,
                      ProtocolKind::kPageGranularity,
                      ProtocolKind::kTableGranularity),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      std::string name = core::ToString(info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(OnlineTpccTest, TwoPhaseLockingPrimaryStreamsTpccToC5) {
  storage::Database primary_db, backup_db;
  workload::tpcc::CreateTables(&primary_db);
  workload::tpcc::CreateTables(&backup_db);

  TxnClock clock;
  log::OnlineLogCollector collector(/*segment_records=*/128);
  txn::TwoPhaseLockingEngine engine(&primary_db, &collector, &clock);

  workload::tpcc::TpccConfig cfg;
  cfg.districts_per_warehouse = 2;
  cfg.customers_per_district = 20;
  cfg.items = 100;
  workload::tpcc::Load(engine, cfg);

  log::ChannelSegmentSource source(&collector.channel());
  auto rep = MakeReplica(ProtocolKind::kC5, &backup_db,
                         ProtocolOptions{.num_workers = 2});
  rep->Start(&source);

  const auto result = workload::RunClosedLoop(
      4, std::chrono::milliseconds(0), 30,
      [&](std::uint32_t client, Rng& rng) {
        (void)client;
        return rng.Uniform(2) == 0
                   ? workload::tpcc::RunNewOrder(engine, rng, cfg, 1)
                   : workload::tpcc::RunPayment(engine, rng, cfg, 1);
      },
      test::TestSeed(1));
  EXPECT_GT(result.committed, 0u);
  collector.Finish();
  rep->WaitUntilCaughtUp();
  rep->Stop();

  EXPECT_EQ(test::StateDigest(primary_db, kMaxTimestamp),
            test::StateDigest(backup_db, kMaxTimestamp));
  for (std::uint32_t d = 1; d <= cfg.districts_per_warehouse; ++d) {
    EXPECT_TRUE(workload::tpcc::CheckDistrictOrderInvariant(
        backup_db, cfg, 1, d, rep->VisibleTimestamp()));
  }
}

TEST(GcIntegrationTest, PrimaryGcDuringHotWorkload) {
  storage::Database db;
  const TableId table = workload::SyntheticWorkload::CreateTable(&db);
  TxnClock clock;
  txn::MvtsoEngine engine(&db, nullptr, &clock);
  workload::SyntheticWorkload wl(table, {.inserts_per_txn = 1,
                                         .adversarial = true});
  ASSERT_TRUE(wl.LoadHotRow(engine).ok());

  std::atomic<bool> stop{false};
  std::thread gc([&] {
    while (!stop.load()) {
      db.CollectGarbage(engine.GcHorizon());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::uint64_t> seqs(4, 0);
  const auto result = workload::RunClosedLoop(
      4, std::chrono::milliseconds(300), 0,
      [&](std::uint32_t client, Rng& rng) {
        return wl.RunTxn(engine, rng, client, &seqs[client]);
      },
      test::TestSeed(1));
  stop.store(true);
  gc.join();
  EXPECT_GT(result.committed, 100u);

  // Final GC pass: hot chain collapses to a handful of versions.
  db.CollectGarbage(engine.GcHorizon());
  db.epochs().ReclaimSome();
  const auto guard = db.epochs().Enter();
  const RowId hot = *db.index(table).Lookup(0);
  std::size_t chain = 0;
  for (const storage::Version* v = db.table(table).ReadLatestCommitted(hot);
       v != nullptr; v = v->Next()) {
    ++chain;
  }
  EXPECT_LT(chain, 100u);
}

TEST(ReplicaComparisonTest, AllProtocolsProduceIdenticalBackups) {
  auto run = test::RunSyntheticPrimary(true, 4, 300);
  std::uint64_t reference = 0;
  bool first = true;
  for (const auto kind :
       {ProtocolKind::kC5, ProtocolKind::kC5MyRocks, ProtocolKind::kC5Queue,
        ProtocolKind::kPageGranularity, ProtocolKind::kTableGranularity,
        ProtocolKind::kKuaFu, ProtocolKind::kSingleThread}) {
    storage::Database backup;
    workload::SyntheticWorkload::CreateTable(&backup);
    run.log.ResetReplayState();
    log::OfflineSegmentSource source(&run.log);
    auto rep = MakeReplica(kind, &backup, ProtocolOptions{.num_workers = 3});
    rep->Start(&source);
    rep->WaitUntilCaughtUp();
    rep->Stop();
    const std::uint64_t digest = test::StateDigest(backup, kMaxTimestamp);
    if (first) {
      reference = digest;
      first = false;
    } else {
      EXPECT_EQ(digest, reference) << core::ToString(kind);
    }
  }
  EXPECT_EQ(reference, test::StateDigest(run.primary->db, kMaxTimestamp));
}

}  // namespace
}  // namespace c5
