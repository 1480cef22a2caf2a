// C5-specific behaviour: scheduler preprocessing (prev_timestamp chains),
// worker deferral, snapshot boundary alignment, and the MyRocks variant's
// blocking snapshotter.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/spsc_queue.h"
#include "core/c5_myrocks_replica.h"
#include "core/c5_replica.h"
#include "core/protocol_factory.h"
#include "log/segment_source.h"
#include "replica/lag_tracker.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"

namespace c5::core {
namespace {

TEST(C5SchedulerTest, PrevTimestampsFormPerRowChains) {
  // After a C5 replay, every segment is preprocessed and prev_ts fields
  // form, for each row, a chain 0 -> ts1 -> ts2 ... in log order.
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/4,
                                       /*txns_per_client=*/200);
  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  log::OfflineSegmentSource source(&run.log);
  C5Replica replica(&backup, C5Replica::Options{.num_workers = 4});
  replica.Start(&source);
  replica.WaitUntilCaughtUp();
  replica.Stop();

  std::unordered_map<std::uint64_t, Timestamp> last;
  for (std::size_t s = 0; s < run.log.NumSegments(); ++s) {
    const log::LogSegment* seg = run.log.segment(s);
    EXPECT_TRUE(seg->preprocessed());
    for (const auto& rec : seg->records()) {
      const std::uint64_t row_name =
          (static_cast<std::uint64_t>(rec.table) << 56) | rec.row;
      auto it = last.find(row_name);
      const Timestamp expected =
          it == last.end() ? kInvalidTimestamp : it->second;
      ASSERT_EQ(rec.prev_ts, expected)
          << "prev_ts chain broken for row " << rec.row;
      last[row_name] = rec.commit_ts;
    }
  }
}

TEST(C5WorkerTest, AdversarialLogNeverDefersUnderRowAffinity) {
  // The scheduler partitions records by row, so every write of the hot row
  // lands on the same worker in log order: its predecessor is always
  // installed by the time the successor is attempted, and the deferred
  // queue (a defensive fallback) stays empty even on an adversarial
  // hot-row log. Convergence must hold regardless.
  auto run = test::RunSyntheticPrimary(true, 4, 500, /*inserts=*/1);
  {
    storage::Database backup;
    workload::SyntheticWorkload::CreateTable(&backup);
    run.log.ResetReplayState();
    log::OfflineSegmentSource source(&run.log);
    C5Replica replica(&backup, C5Replica::Options{.num_workers = 4});
    replica.Start(&source);
    replica.WaitUntilCaughtUp();
    replica.Stop();
    EXPECT_EQ(test::StateDigest(run.primary->db, kMaxTimestamp),
              test::StateDigest(backup, kMaxTimestamp));
    EXPECT_EQ(replica.stats().deferred_writes.load(), 0u)
        << "row-affinity partitioning should make deferral unreachable";
    // Row affinity must not degenerate into one worker doing everything:
    // with many distinct rows, at least two workers apply records.
    int active_workers = 0;
    for (const auto& load : replica.WorkerLoads()) {
      if (load.applied_records > 0) ++active_workers;
    }
    EXPECT_GE(active_workers, 2) << "hash partitioning collapsed onto one "
                                    "worker";
  }
}

TEST(C5SnapshotTest, VisibleTimestampIsAlwaysAPrefixCompleteReadPoint) {
  // Sample the snapshot during replay. §4.2's transaction-boundary
  // alignment is automatic in C5-Cicada because every write of a
  // transaction carries the transaction's commit timestamp: ANY read point
  // c exposes only whole transactions (those with commit_ts <= c). The
  // sampled value itself need not equal a commit timestamp — worker c'
  // values are (next timestamp - 1), and MVTSO leaves timestamp holes for
  // aborted transactions. The checkable invariants are: c is monotonic,
  // never exceeds the log, and every write of every transaction at or below
  // a sampled c has been applied (prefix completeness).
  auto run = test::RunSyntheticPrimary(true, 4, 400);
  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);
  C5Replica replica(&backup, C5Replica::Options{
                                 .num_workers = 4,
                                 .snapshot_interval =
                                     std::chrono::microseconds(50)});
  replica.Start(&source);
  Timestamp prev = 0;
  std::vector<Timestamp> samples;
  for (int i = 0; i < 1000; ++i) {
    const Timestamp c = replica.VisibleTimestamp();
    ASSERT_GE(c, prev) << "snapshot went backwards";
    ASSERT_LE(c, run.log.MaxTimestamp());
    samples.push_back(c);
    prev = c;
  }
  replica.WaitUntilCaughtUp();
  EXPECT_EQ(replica.VisibleTimestamp(), run.log.MaxTimestamp());
  replica.Stop();

  // Post-hoc prefix completeness for the largest mid-replay sample: every
  // record with commit_ts <= c must be in the backup (it is, trivially, now
  // that replay finished — the meaningful part ran DURING replay via the
  // monotonicity asserts — but verify the row data matches the log's last
  // write at or below c for the hot row, which changes every transaction).
  const Timestamp c = samples.back();
  const log::LogRecord* last_hot_below_c = nullptr;
  for (std::size_t s = 0; s < run.log.NumSegments(); ++s) {
    for (const auto& rec : run.log.segment(s)->records()) {
      if (rec.key == workload::SyntheticWorkload::kHotKey &&
          rec.commit_ts <= c) {
        last_hot_below_c = &rec;
      }
    }
  }
  if (last_hot_below_c != nullptr) {
    const auto guard = backup.epochs().Enter();
    const storage::Version* v =
        backup.ReadKeyAt(run.table, workload::SyntheticWorkload::kHotKey, c);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->value(), last_hot_below_c->value.view())
        << "state at sampled snapshot c=" << c
        << " does not match the log prefix";
  }
}

TEST(C5GcTest, SnapshotterGcBoundsVersionCount) {
  // With GC enabled, the hot row's chain must be trimmed during replay.
  auto run = test::RunSyntheticPrimary(true, 2, 2000, /*inserts=*/1);
  storage::Database backup;
  const TableId table = workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);
  C5Replica replica(&backup,
                    C5Replica::Options{.num_workers = 2,
                                       .snapshot_interval =
                                           std::chrono::microseconds(50),
                                       .gc_every = 2});
  replica.Start(&source);
  replica.WaitUntilCaughtUp();
  replica.Stop();
  // One final sweep at the end.
  backup.CollectGarbage(replica.VisibleTimestamp() - 1);
  backup.epochs().ReclaimSome();

  const auto guard = backup.epochs().Enter();
  const RowId hot = *backup.index(table).Lookup(
      workload::SyntheticWorkload::kHotKey);
  std::size_t chain = 0;
  for (const storage::Version* v = backup.table(table).ReadLatestCommitted(hot);
       v != nullptr; v = v->Next()) {
    ++chain;
  }
  EXPECT_LT(chain, 4000u) << "GC never trimmed the hot chain";
  // And the newest value still matches the primary.
  EXPECT_EQ(test::StateDigest(run.primary->db, kMaxTimestamp),
            test::StateDigest(backup, kMaxTimestamp));
}

TEST(C5MyRocksTest, BlockingSnapshotterStillConverges) {
  auto run = test::RunSyntheticPrimary(true, 4, 300);
  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);
  C5MyRocksReplica replica(
      &backup,
      C5MyRocksReplica::Options{
          .num_workers = 4,
          .snapshot_interval = std::chrono::microseconds(200),
          .snapshot_cost = std::chrono::microseconds(100)});
  replica.Start(&source);
  replica.WaitUntilCaughtUp();
  replica.Stop();
  EXPECT_GT(replica.stats().snapshots_taken.load(), 0u);
  EXPECT_EQ(test::StateDigest(run.primary->db, kMaxTimestamp),
            test::StateDigest(backup, kMaxTimestamp));
}

TEST(C5MyRocksTest, OneWorkerEqualsSingleThreadSemantics) {
  auto run = test::RunSyntheticPrimary(false, 2, 200);
  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);
  C5MyRocksReplica replica(&backup,
                           C5MyRocksReplica::Options{.num_workers = 1});
  replica.Start(&source);
  replica.WaitUntilCaughtUp();
  replica.Stop();
  EXPECT_EQ(test::StateDigest(run.primary->db, kMaxTimestamp),
            test::StateDigest(backup, kMaxTimestamp));
}

TEST(C5WatermarkTest, WatermarkTracksScheduledMax) {
  auto run = test::RunSyntheticPrimary(false, 2, 100);
  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);
  C5Replica replica(&backup, C5Replica::Options{.num_workers = 2});
  replica.Start(&source);
  replica.WaitUntilCaughtUp();
  EXPECT_EQ(replica.watermark(), run.log.MaxTimestamp());
  replica.Stop();
}

// Every record writes ONE row, so at most one worker has work and the
// others sit idle, parked: C5's idle workers on their EventCount,
// C5-MyRocks's in TxnDispatchQueue::Pop, KuaFu's and C5-Queue's in
// MpmcQueue::Pop. A C5 idle worker publishes the watermark as its c'; if
// it slept through a watermark move, its stale c' would pin min(c'). A
// C5-MyRocks worker that parked without resetting its in-flight floor would
// pin the snapshot boundary. A lost wake-up in any queue strands the
// segment. Segments arrive >= 1 ms apart on a live channel, well past the
// spin window, and each must become visible within 100 ms.
void ExpectParkedIdleWorkersFollowTheWatermark(ProtocolKind kind) {
  constexpr int kSegments = 40;
  constexpr int kTxnsPerSegment = 4;
  storage::Database backup;
  const TableId table = backup.CreateTable("t", 16);
  SpscQueue<log::LogSegment*> channel(64);
  log::ChannelSegmentSource source(&channel);
  const auto replica_ptr = MakeReplica(kind, &backup, {.num_workers = 4});
  replica::ReplicaBase& replica = *replica_ptr;
  replica.Start(&source);

  const std::string value = "v";
  Timestamp ts = 0;
  std::uint64_t seq = 0;
  for (int s = 0; s < kSegments; ++s) {
    auto seg = std::make_unique<log::LogSegment>(seq);
    for (int t = 0; t < kTxnsPerSegment; ++t) {
      log::LogRecord rec;
      rec.table = table;
      rec.op = ts == 0 ? OpType::kInsert : OpType::kUpdate;
      rec.row = 0;
      rec.key = 0;
      rec.commit_ts = ++ts;
      rec.last_in_txn = true;
      rec.value = value;
      seg->Append(rec);
    }
    seq += seg->size();
    const Timestamp seg_max = seg->MaxTimestamp();

    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(channel.Push(seg.release()));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
    while (replica.VisibleTimestamp() < seg_max &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    const Timestamp visible = replica.VisibleTimestamp();
    if (visible < seg_max) {
      channel.Close();
      replica.Stop();
      FAIL() << "segment " << s << " (max ts " << seg_max
             << ") not visible within 100 ms; visible = " << visible;
    }
  }
  channel.Close();
  replica.WaitUntilCaughtUp();
  replica.Stop();
  EXPECT_EQ(replica.VisibleTimestamp(), ts);
  EXPECT_EQ(replica.stats().applied_writes.load(),
            static_cast<std::uint64_t>(kSegments * kTxnsPerSegment));
}

TEST(C5WatermarkTest, ParkedIdleWorkersFollowTheWatermark) {
  for (const ProtocolKind kind :
       {ProtocolKind::kC5, ProtocolKind::kC5MyRocks, ProtocolKind::kKuaFu,
        ProtocolKind::kC5Queue}) {
    SCOPED_TRACE(ToString(kind));
    ExpectParkedIdleWorkersFollowTheWatermark(kind);
  }
}

TEST(C5WatermarkTest, WorkersPublishVisibilityWithoutSnapshotter) {
  // No GC and no checkpoints, so no background thread runs beside the
  // workers: they alone advance the visible snapshot. Every segment writes
  // 32 rows, which the scheduler spreads over all 4 workers, so each
  // segment ends with several workers finishing near-together and then
  // parking — a lost advance between them would stall visibility for good.
  // Segments arrive >= 1 ms apart, past the workers' spin window.
  constexpr int kWorkers = 4;
  constexpr int kSegments = 40;
  constexpr RowId kRowsPerSegment = 32;
  storage::Database backup;
  const TableId table = backup.CreateTable("t", 64);
  SpscQueue<log::LogSegment*> channel(64);
  log::ChannelSegmentSource source(&channel);
  C5Replica replica(&backup, C5Replica::Options{.num_workers = kWorkers,
                                                .gc_every = 0});
  replica.Start(&source);

  const std::string value = "v";
  Timestamp ts = 0;
  std::uint64_t seq = 0;
  for (int s = 0; s < kSegments; ++s) {
    auto seg = std::make_unique<log::LogSegment>(seq);
    ++ts;  // one transaction per segment, writing every row
    for (RowId row = 0; row < kRowsPerSegment; ++row) {
      log::LogRecord rec;
      rec.table = table;
      rec.op = s == 0 ? OpType::kInsert : OpType::kUpdate;
      rec.row = row;
      rec.key = row;
      rec.commit_ts = ts;
      rec.last_in_txn = row + 1 == kRowsPerSegment;
      rec.value = value;
      seg->Append(rec);
    }
    seq += seg->size();
    const Timestamp seg_max = seg->MaxTimestamp();

    std::this_thread::sleep_for(std::chrono::milliseconds(1 + s % 2));
    ASSERT_TRUE(channel.Push(seg.release()));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
    while (replica.VisibleTimestamp() < seg_max &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    const Timestamp visible = replica.VisibleTimestamp();
    if (visible < seg_max) {
      channel.Close();
      replica.Stop();
      FAIL() << "segment " << s << " (max ts " << seg_max
             << ") not visible within 100 ms; visible = " << visible;
    }
  }
  channel.Close();
  replica.WaitUntilCaughtUp();
  replica.Stop();
  EXPECT_EQ(replica.VisibleTimestamp(), replica.watermark());
  EXPECT_EQ(replica.watermark(), ts);
  EXPECT_EQ(replica.stats().applied_writes.load(),
            static_cast<std::uint64_t>(kSegments) * kRowsPerSegment);
  const auto loads = replica.WorkerLoads();
  ASSERT_EQ(loads.size(), static_cast<std::size_t>(kWorkers));
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_GT(loads[w].applied_records, 0u) << "worker " << w << " got no rows";
  }
}

TEST(C5WatermarkTest, LagSampleRecordedAfterVisibilityIsDrained) {
  // A committing thread can be descheduled between its commit and its
  // RecordCommit while the backup applies the write, advances the snapshot
  // past it and parks. No later advance comes to drain such a sample, so
  // the tracker must not leave it pending: a caught-up backup reports no
  // pending samples and zero current lag.
  storage::Database backup;
  const TableId table = backup.CreateTable("t", 16);
  SpscQueue<log::LogSegment*> channel(8);
  log::ChannelSegmentSource source(&channel);
  replica::LagTracker lag;
  C5Replica replica(&backup,
                    C5Replica::Options{.num_workers = 2, .gc_every = 0}, &lag);
  replica.Start(&source);

  for (Timestamp ts = 1; ts <= 2; ++ts) {
    auto seg = std::make_unique<log::LogSegment>(ts - 1);
    log::LogRecord rec;
    rec.table = table;
    rec.op = ts == 1 ? OpType::kInsert : OpType::kUpdate;
    rec.row = 0;
    rec.key = 0;
    rec.commit_ts = ts;
    rec.last_in_txn = true;
    rec.value = "v";
    seg->Append(rec);
    ASSERT_TRUE(channel.Push(seg.release()));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (replica.VisibleTimestamp() < ts &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ASSERT_GE(replica.VisibleTimestamp(), ts);
    lag.RecordCommit(ts);  // late: the write is already visible
    EXPECT_EQ(lag.PendingCount(), 0u) << "sample for ts " << ts;
    EXPECT_EQ(lag.CurrentLagNanos(), 0);
  }
  channel.Close();
  replica.WaitUntilCaughtUp();
  replica.Stop();
  EXPECT_EQ(lag.PendingCount(), 0u);
  EXPECT_EQ(lag.TakeHistogram().count(), 2u);
}

TEST(C5StressTest, ManyWorkersHighContention) {
  auto run = test::RunSyntheticPrimary(true, 8, 500, /*inserts=*/2);
  for (const int workers : {1, 2, 8, 16}) {
    storage::Database backup;
    workload::SyntheticWorkload::CreateTable(&backup);
    run.log.ResetReplayState();
    log::OfflineSegmentSource source(&run.log);
    C5Replica replica(&backup, C5Replica::Options{.num_workers = workers});
    replica.Start(&source);
    replica.WaitUntilCaughtUp();
    replica.Stop();
    ASSERT_EQ(test::StateDigest(run.primary->db, kMaxTimestamp),
              test::StateDigest(backup, kMaxTimestamp))
        << "diverged with " << workers << " workers";
  }
}

}  // namespace
}  // namespace c5::core
