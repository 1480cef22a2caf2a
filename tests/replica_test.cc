// Parameterized correctness suite run against EVERY cloned concurrency
// control protocol in the repository: state convergence, per-row ordering,
// visibility (monotonic prefix consistency), and read-only transaction
// behaviour, on low- and high-contention logs from both primary engines.

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <thread>

#include "api/snapshot.h"
#include "core/protocol_factory.h"
#include "log/log_collector.h"
#include "log/segment_source.h"
#include "replica/lag_tracker.h"
#include "tests/test_util.h"
#include "txn/mvtso_engine.h"
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

#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
constexpr bool kAddressSanitizer = true;
#else
constexpr bool kAddressSanitizer = false;
#endif

// Delivers private copies of a log's transactions, cut into segments of at
// least `records_per_segment` records at transaction boundaries, and takes
// the release contract literally: a released segment is overwritten with
// garbage and freed at once. A replica that reads a record after releasing
// it reads garbage, and under ASan the read is a heap-use-after-free.
// `early_txns` > 0 plants a bug: Release frees as if the mark stood that
// many transactions further on. `pace` spaces deliveries out, so the
// replica's visibility moves (and releases happen) mid-log.
class PoisoningSource : public log::SegmentSource {
 public:
  PoisoningSource(const log::Log& log, std::size_t records_per_segment,
                  int early_txns = 0,
                  std::chrono::microseconds pace = std::chrono::microseconds(0))
      : early_txns_(early_txns), pace_(pace) {
    std::uint64_t seq = 0;
    std::unique_ptr<log::LogSegment> open;
    for (std::size_t s = 0; s < log.NumSegments(); ++s) {
      for (const log::LogRecord& rec : log.segment(s)->records()) {
        if (open == nullptr) open = std::make_unique<log::LogSegment>(seq);
        log::LogRecord copy = rec;
        copy.prev_ts = kInvalidTimestamp;
        open->Append(copy);
        if (rec.last_in_txn && open->size() >= records_per_segment) {
          seq += open->size();
          pending_.push_back(std::move(open));
        }
      }
    }
    if (open != nullptr) pending_.push_back(std::move(open));
  }

  log::LogSegment* Next() override {
    if (pending_.empty()) return nullptr;
    if (pace_.count() > 0) std::this_thread::sleep_for(pace_);
    held_.push_back(std::move(pending_.front()));
    pending_.pop_front();
    return held_.back().get();
  }

  void Release(Timestamp applied_through) override {
    Timestamp mark = applied_through;
    int early = early_txns_;
    for (const auto& seg : held_) {
      for (const log::LogRecord& rec : seg->records()) {
        if (early > 0 && rec.last_in_txn && rec.commit_ts > mark) {
          mark = rec.commit_ts;
          --early;
        }
      }
    }
    while (!held_.empty() && held_.front()->MaxTimestamp() <= mark) {
      for (log::LogRecord& rec : held_.front()->records()) {
        rec.table = ~TableId{0};
        rec.row = kInvalidRowId;
        rec.key = ~Key{0};
        rec.commit_ts = kMaxTimestamp;
        rec.prev_ts = kMaxTimestamp;
        rec.value = std::string_view();
      }
      held_.pop_front();
      ++released_;
    }
  }

  std::size_t segments() const { return pending_.size() + held_.size(); }
  std::size_t released() const { return released_; }

 private:
  const int early_txns_;
  const std::chrono::microseconds pace_;
  std::deque<std::unique_ptr<log::LogSegment>> pending_;
  std::deque<std::unique_ptr<log::LogSegment>> held_;
  std::size_t released_ = 0;
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

  // Every key in the log must be readable at the final snapshot.
  std::uint64_t found = 0;
  for (std::size_t s = 0; s < run.log.NumSegments(); ++s) {
    for (const auto& rec : run.log.segment(s)->records()) {
      Value v;
      if (replica->OpenSnapshot().Get(table, rec.key, &v).ok()) ++found;
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
  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  std::thread reader([&] {
    std::uint64_t last_seen = 0;
    Timestamp last_ts = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const c5::Snapshot snap = replica->OpenSnapshot();
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
  ASSERT_TRUE(replica->OpenSnapshot().Get(table, kA, &v).ok());
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
  replica->SetRecoveryWindow(/*resume_ts=*/0, /*inherited_max=*/100);
  lag.RecordCommit(1);
  replica->Start(&source);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (replica->stats().applied_txns.load() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  ASSERT_EQ(replica->stats().applied_txns.load(), 1u);
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
  ASSERT_EQ(visible, 0u);
  ASSERT_EQ(pending, 1u) << "a suppressed snapshot drained a lag sample";
  ASSERT_EQ(replica->stats().snapshots_taken.load(), 0u);

  source.Open();
  replica->WaitUntilCaughtUp();
  replica->Stop();
  EXPECT_EQ(replica->VisibleTimestamp(), 100u);
  EXPECT_TRUE(replica->RecoveryWindowClosed());
  EXPECT_EQ(lag.PendingCount(), 0u);
  EXPECT_EQ(lag.TakeHistogram().count(), 1u);
  EXPECT_GT(replica->stats().snapshots_taken.load(), 0u);
}

// The release contract (replica.h) for every protocol: the source frees
// each segment, poisoned first, as soon as the replica releases it, and the
// replay must still converge to the primary's exact state. Under ASan any
// touch of a released record is a use-after-free report.
TEST_P(ReplicaParamTest, ReleasedSegmentsAreNeverTouched) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/4,
                                       /*txns_per_client=*/300);
  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  PoisoningSource source(run.log, /*records_per_segment=*/16,
                         /*early_txns=*/0, std::chrono::microseconds(50));
  ASSERT_GT(source.segments(), 50u);
  auto replica = MakeReplica(kind(), &backup, Options());
  replica->Start(&source);
  replica->WaitUntilCaughtUp();
  replica->Stop();

  EXPECT_EQ(replica->stats().applied_writes.load(), run.log.NumRecords());
  EXPECT_EQ(test::StateDigest(backup, kMaxTimestamp),
            test::StateDigest(run.primary->db, kMaxTimestamp));
  if (kind() == ProtocolKind::kQueryFresh) {
    EXPECT_EQ(source.released(), 0u) << "lazy redo chains need every segment";
  } else {
    EXPECT_GT(source.released(), 0u) << "nothing was released mid-log";
  }
}

// A segment naming a table the backup lacks ends the log with an error the
// replica reports; the prefix before it is applied and nothing crashes.
TEST_P(ReplicaParamTest, SegmentNamingAMissingTableEndsTheLog) {
  storage::Database backup;
  const TableId table = workload::SyntheticWorkload::CreateTable(&backup);
  log::Log log;
  for (const TableId t : {table, TableId{7}}) {
    auto seg = std::make_unique<log::LogSegment>(log.NumRecords());
    log::LogRecord rec;
    rec.table = t;
    rec.op = OpType::kInsert;
    rec.row = 1;
    rec.key = 1;
    rec.commit_ts = log.NumRecords() + 1;
    rec.last_in_txn = true;
    rec.value = "v";
    seg->Append(rec);
    log.AppendSegment(std::move(seg));
  }
  log::OfflineSegmentSource source(&log);
  auto replica = MakeReplica(kind(), &backup, Options());
  replica->Start(&source);
  replica->WaitUntilCaughtUp();
  replica->Stop();
  EXPECT_NE(replica->log_error().find("table 7"), std::string::npos)
      << replica->log_error();
  EXPECT_EQ(replica->stats().applied_txns.load(), 1u);
  EXPECT_EQ(replica->VisibleTimestamp(), 1u);
}

// Once `replica` has applied `txns` transactions (its scheduler then blocks
// in Next()), Stop() on a helper thread must return within 5 s; on a timeout
// `unblock` releases the source so the join completes and the test fails
// instead of hanging. The snapshot left must be a prefix of the primary's.
void StopMidLogAtPrefix(replica::ReplicaBase& replica, ProtocolKind kind,
                        std::uint64_t txns, storage::Database& backup,
                        storage::Database& primary,
                        const std::function<void()>& unblock) {
  using Clock = std::chrono::steady_clock;
  auto deadline = Clock::now() + std::chrono::seconds(10);
  while (replica.stats().applied_txns.load() < txns &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_EQ(replica.stats().applied_txns.load(), txns);

  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    replica.Stop();
    stopped.store(true, std::memory_order_release);
  });
  deadline = Clock::now() + std::chrono::seconds(5);
  while (!stopped.load(std::memory_order_acquire) && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool prompt = stopped.load(std::memory_order_acquire);
  if (!prompt) unblock();
  stopper.join();
  ASSERT_TRUE(prompt) << "Stop() hung on a blocked source";

  // Query Fresh keeps applied writes as redo lists until a read touches the
  // row; its WaitUntilCaughtUp instantiates them (ingest ended at the stop).
  if (kind == ProtocolKind::kQueryFresh) replica.WaitUntilCaughtUp();
  const Timestamp v = replica.VisibleTimestamp();
  EXPECT_GT(v, 0u);
  EXPECT_EQ(test::StateDigest(backup, v), test::StateDigest(primary, v));
}

// Stop() must end a backup wherever its log is, even when the scheduler is
// blocked in SegmentSource::Next() — behind a closed gate, or on a live
// channel whose primary never finishes.
TEST_P(ReplicaParamTest, StopCancelsABlockedSource) {
  {
    SCOPED_TRACE("gated source closed at half the log");
    auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/2,
                                         /*txns_per_client=*/200);
    run.log.ResetReplayState();
    const std::size_t gate_at = run.log.NumSegments() / 2;
    ASSERT_GT(gate_at, 0u);
    std::uint64_t txns_before_gate = 0;
    for (std::size_t s = 0; s < gate_at; ++s) {
      for (const auto& rec : run.log.segment(s)->records()) {
        txns_before_gate += rec.last_in_txn ? 1 : 0;
      }
    }
    storage::Database backup;
    workload::SyntheticWorkload::CreateTable(&backup);
    log::GatedSegmentSource source(&run.log, gate_at);
    auto replica = MakeReplica(kind(), &backup, Options());
    replica->Start(&source);
    StopMidLogAtPrefix(*replica, kind(), txns_before_gate, backup,
                       run.primary->db, [&] { source.Open(); });
  }
  {
    SCOPED_TRACE("live channel, primary never finished");
    storage::Database primary_db, backup;
    const TableId table = workload::SyntheticWorkload::CreateTable(&primary_db);
    workload::SyntheticWorkload::CreateTable(&backup);
    TxnClock clock;
    log::OnlineLogCollector collector(/*segment_records=*/16);
    txn::MvtsoEngine engine(&primary_db, &collector, &clock);
    collector.SetReleaseHorizon([&engine] { return engine.LogHorizon(); });
    log::ChannelSegmentSource source(&collector.channel());
    auto replica = MakeReplica(kind(), &backup, Options());
    replica->Start(&source);
    constexpr std::uint64_t kTxns = 300;
    for (std::uint64_t n = 1; n <= kTxns; ++n) {
      const Status s = engine.ExecuteWithRetry([&](txn::Txn& txn) {
        const Status st = txn.Put(table, n, workload::EncodeIntValue(n));
        return st.ok() ? txn.Put(table, 0, workload::EncodeIntValue(n)) : st;
      });
      ASSERT_TRUE(s.ok());
    }
    collector.Flush();
    StopMidLogAtPrefix(*replica, kind(), kTxns, backup, primary_db,
                       [&] { collector.Finish(); });
  }
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

// The poisoning source must be able to catch a real early release: freeing
// each segment one transaction before the replica is done with it makes a
// C5 worker read a freed record, which ASan reports. (Without ASan the read
// is undefined behaviour, not a reliable failure, so the check is skipped.)
TEST(ReplicaReleaseDeathTest, PlantedEarlyReleaseIsCaught) {
  if (!kAddressSanitizer) GTEST_SKIP() << "needs the ASan build";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/4,
                                       /*txns_per_client=*/500);
  EXPECT_DEATH(
      {
        storage::Database backup;
        workload::SyntheticWorkload::CreateTable(&backup);
        PoisoningSource source(run.log, /*records_per_segment=*/1,
                               /*early_txns=*/1);
        auto replica = MakeReplica(ProtocolKind::kC5, &backup,
                                   ProtocolOptions{.num_workers = 1});
        replica->Start(&source);
        replica->WaitUntilCaughtUp();
        replica->Stop();
      },
      "use-after-free");
}

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
