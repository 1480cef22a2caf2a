// High-availability paths: backup promotion (ha::PromoteToPrimary), replica
// restart from a checkpoint (ha::ResumeSegmentSource + idempotent apply),
// chained log shipping to surviving backups after failover, and
// at-least-once log delivery.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "api/snapshot.h"
#include "core/protocol_factory.h"
#include "ha/promotion.h"
#include "ha/recovery.h"
#include "log/segment_source.h"
#include "sim/dst_channel.h"
#include "sim/dst_plan.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"
#include "workload/tpcc.h"

namespace c5 {
namespace {

using core::MakeReplica;
using core::ProtocolKind;
using core::ProtocolOptions;

// Builds a copy of `log` delivered `times` times in sequence, with fresh
// segments and contiguous base_seq (models duplicate shipping after a
// network retry: same records, same timestamps, delivered again).
log::Log RepeatLog(const log::Log& log, int times) {
  log::Log out;
  std::uint64_t seq = 0;
  for (int n = 0; n < times; ++n) {
    for (std::size_t s = 0; s < log.NumSegments(); ++s) {
      const log::LogSegment* src = log.segment(s);
      auto seg = std::make_unique<log::LogSegment>(seq);
      for (const log::LogRecord& rec : src->records()) {
        log::LogRecord copy = rec;
        copy.prev_ts = kInvalidTimestamp;
        seg->Append(copy);
      }
      seq += seg->size();
      out.AppendSegment(std::move(seg));
    }
  }
  return out;
}

class FailoverParamTest : public ::testing::TestWithParam<ProtocolKind> {
 protected:
  ProtocolKind kind() const { return GetParam(); }
  ProtocolOptions Options() const {
    ProtocolOptions o;
    o.num_workers = 4;
    o.snapshot_interval = std::chrono::microseconds(100);
    return o;
  }
};

const ProtocolKind kAllCorrectProtocols[] = {
    ProtocolKind::kC5,           ProtocolKind::kC5MyRocks,
    ProtocolKind::kC5Queue,      ProtocolKind::kPageGranularity,
    ProtocolKind::kTableGranularity, ProtocolKind::kKuaFu,
    ProtocolKind::kSingleThread, ProtocolKind::kQueryFresh,
};

// Crash-restart: replay a prefix, "crash" (destroy the replica object,
// keeping the database), then restart a fresh replica instance on the same
// database from the dead one's visibility checkpoint. The boundary segment
// is redelivered; idempotent apply must discard the overlap and the final
// state must equal the primary's.
TEST_P(FailoverParamTest, RestartFromCheckpointConverges) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/4,
                                       /*txns_per_client=*/150);
  ASSERT_GT(run.log.NumSegments(), 2u);

  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();

  // First incarnation: applies roughly half the log, then dies.
  Timestamp checkpoint = 0;
  {
    log::PrefixSegmentSource half(&run.log, run.log.NumSegments() / 2);
    auto replica = MakeReplica(kind(), &backup, Options());
    replica->Start(&half);
    replica->WaitUntilCaughtUp();
    checkpoint = replica->VisibleTimestamp();
    replica->Stop();
  }
  ASSERT_GT(checkpoint, 0u);
  ASSERT_LT(checkpoint, run.log.MaxTimestamp());

  // Second incarnation: resume from the checkpoint on the SAME database.
  run.log.ResetReplayState();
  ha::ResumeSegmentSource resume(&run.log, checkpoint);
  auto replica = MakeReplica(kind(), &backup, Options());
  replica->Start(&resume);
  replica->WaitUntilCaughtUp();
  EXPECT_EQ(replica->VisibleTimestamp(), run.log.MaxTimestamp());
  replica->Stop();

  EXPECT_GT(resume.skipped(), 0u) << "resume should skip covered segments";
  EXPECT_EQ(test::StateDigest(backup, kMaxTimestamp),
            test::StateDigest(run.primary->db, kMaxTimestamp));
}

// At-least-once delivery: the entire log arrives twice (e.g., an aggressive
// shipping retry). Idempotent apply must converge to the same state as a
// single delivery, with no duplicate versions.
TEST_P(FailoverParamTest, DoubleDeliveryConverges) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/2,
                                       /*txns_per_client=*/100);
  log::Log doubled = RepeatLog(run.log, 2);

  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  log::OfflineSegmentSource source(&doubled);
  auto replica = MakeReplica(kind(), &backup, Options());
  replica->Start(&source);
  replica->WaitUntilCaughtUp();
  replica->Stop();

  EXPECT_EQ(test::StateDigest(backup, kMaxTimestamp),
            test::StateDigest(run.primary->db, kMaxTimestamp));

  // No duplicate versions: per-row chains strictly decreasing.
  const auto guard = backup.epochs().Enter();
  for (TableId t = 0; t < backup.NumTables(); ++t) {
    const storage::Table& table = backup.table(t);
    for (RowId r = 0; r < table.NumRows(); ++r) {
      Timestamp prev = kMaxTimestamp;
      for (const storage::Version* v = table.ReadLatestCommitted(r);
           v != nullptr; v = v->Next()) {
        ASSERT_LT(v->write_ts, prev) << "duplicate or out-of-order version";
        prev = v->write_ts;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, FailoverParamTest,
    ::testing::ValuesIn(kAllCorrectProtocols),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      std::string name = core::ToString(info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

class PromotionTest : public ::testing::TestWithParam<ha::EngineKind> {};

// Full failover: primary dies after the backup received a prefix; the
// backup drains, is promoted, and serves read-write transactions whose
// commits extend the replicated history.
TEST_P(PromotionTest, PromotedBackupContinuesHistory) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/false, /*clients=*/2,
                                       /*txns_per_client=*/200);
  const Timestamp old_max = run.log.MaxTimestamp();

  storage::Database backup;
  const TableId table = workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);
  Timestamp applied_upto = 0;
  {
    auto replica =
        MakeReplica(ProtocolKind::kC5, &backup, {.num_workers = 4});
    replica->Start(&source);
    replica->WaitUntilCaughtUp();
    applied_upto = replica->VisibleTimestamp();
    replica->Stop();
  }
  ASSERT_EQ(applied_upto, old_max);

  auto promoted = ha::PromoteToPrimary(&backup, applied_upto, GetParam());
  ASSERT_NE(promoted->engine, nullptr);

  // Old data is readable through the new engine; new transactions commit
  // with strictly larger timestamps.
  constexpr Key kNewKey = 555;
  Timestamp new_commit_ts = 0;
  const Status s = promoted->engine->ExecuteWithRetry([&](txn::Txn& txn) {
    Value v;
    // Read-modify-write over replicated state: the first insert key of
    // client 0 exists (bit-63 pattern of SyntheticWorkload).
    const Key replicated = (std::uint64_t{1} << 63);
    Status st = txn.Read(table, replicated, &v);
    if (!st.ok()) return st;
    st = txn.Insert(table, kNewKey, v);
    if (!st.ok()) return st;
    new_commit_ts = txn.timestamp();
    return Status::Ok();
  });
  ASSERT_TRUE(s.ok()) << s.message();
  if (GetParam() == ha::EngineKind::kMvtso) {
    EXPECT_GT(new_commit_ts, old_max);
  }
  EXPECT_EQ(promoted->engine->stats().commits.load(), 1u);

  // The promoted node's log extends the old history: all records above
  // old_max, well-formed.
  log::Log new_log = promoted->collector.Coalesce();
  ASSERT_GT(new_log.NumRecords(), 0u);
  EXPECT_GT(new_log.segment(0)->MinTimestamp(), old_max);
  EXPECT_TRUE(test::LogIsWellFormed(new_log));
}

INSTANTIATE_TEST_SUITE_P(BothEngines, PromotionTest,
                         ::testing::Values(ha::EngineKind::kMvtso,
                                           ha::EngineKind::kTwoPhaseLocking),
                         [](const ::testing::TestParamInfo<ha::EngineKind>&
                                info) {
                           return info.param == ha::EngineKind::kMvtso
                                      ? "mvtso"
                                      : "two_phase_locking";
                         });

// A surviving backup re-points at the promoted primary: old log followed by
// the promoted node's log is one consistent history (ChainedSegmentSource),
// and the surviving backup converges to the promoted node's state.
TEST(FailoverTest, SurvivingBackupFollowsPromotedPrimary) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/2,
                                       /*txns_per_client=*/150);

  // Backup A: catches up, gets promoted, executes new transactions.
  storage::Database backup_a;
  const TableId table = workload::SyntheticWorkload::CreateTable(&backup_a);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source_a(&run.log);
  Timestamp applied_upto = 0;
  {
    auto replica =
        MakeReplica(ProtocolKind::kC5, &backup_a, {.num_workers = 4});
    replica->Start(&source_a);
    replica->WaitUntilCaughtUp();
    applied_upto = replica->VisibleTimestamp();
    replica->Stop();
  }
  auto promoted =
      ha::PromoteToPrimary(&backup_a, applied_upto, ha::EngineKind::kMvtso);
  for (std::uint64_t n = 0; n < 100; ++n) {
    const Status s = promoted->engine->ExecuteWithRetry([&](txn::Txn& txn) {
      return txn.Put(table, 10000 + n, workload::EncodeIntValue(n));
    });
    ASSERT_TRUE(s.ok());
  }
  log::Log new_log = promoted->collector.Coalesce();

  // Backup B (fresh stand-in for a surviving backup that was at zero):
  // consumes old log then new log through one chained source.
  storage::Database backup_b;
  workload::SyntheticWorkload::CreateTable(&backup_b);
  run.log.ResetReplayState();
  log::OfflineSegmentSource old_source(&run.log);
  log::OfflineSegmentSource new_source(&new_log);
  ha::ChainedSegmentSource chained({&old_source, &new_source});
  auto replica =
      MakeReplica(ProtocolKind::kC5, &backup_b, {.num_workers = 4});
  replica->Start(&chained);
  replica->WaitUntilCaughtUp();
  EXPECT_EQ(replica->VisibleTimestamp(), new_log.MaxTimestamp());
  replica->Stop();

  EXPECT_EQ(test::StateDigest(backup_b, kMaxTimestamp),
            test::StateDigest(backup_a, kMaxTimestamp))
      << "surviving backup diverged from promoted primary";
}

// A surviving backup that already applied a prefix re-points with a
// ResumeSegmentSource for the old log plus the promoted log: no rewind
// needed, overlap discarded.
TEST(FailoverTest, LaggingSurvivorResumesIntoNewHistory) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/2,
                                       /*txns_per_client=*/150);

  // Promote a fully-caught-up backup A.
  storage::Database backup_a;
  const TableId table = workload::SyntheticWorkload::CreateTable(&backup_a);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source_a(&run.log);
  Timestamp applied_upto = 0;
  {
    auto replica =
        MakeReplica(ProtocolKind::kC5, &backup_a, {.num_workers = 4});
    replica->Start(&source_a);
    replica->WaitUntilCaughtUp();
    applied_upto = replica->VisibleTimestamp();
    replica->Stop();
  }
  auto promoted =
      ha::PromoteToPrimary(&backup_a, applied_upto, ha::EngineKind::kMvtso);
  for (std::uint64_t n = 0; n < 50; ++n) {
    ASSERT_TRUE(promoted->engine
                    ->ExecuteWithRetry([&](txn::Txn& txn) {
                      return txn.Put(table, 20000 + n,
                                     workload::EncodeIntValue(n));
                    })
                    .ok());
  }
  log::Log new_log = promoted->collector.Coalesce();

  // Backup B applied only half the old log before the failover.
  storage::Database backup_b;
  workload::SyntheticWorkload::CreateTable(&backup_b);
  run.log.ResetReplayState();
  Timestamp b_checkpoint = 0;
  {
    log::PrefixSegmentSource half(&run.log, run.log.NumSegments() / 2);
    auto replica =
        MakeReplica(ProtocolKind::kKuaFu, &backup_b, {.num_workers = 4});
    replica->Start(&half);
    replica->WaitUntilCaughtUp();
    b_checkpoint = replica->VisibleTimestamp();
    replica->Stop();
  }

  // Re-point B: resume the old log from B's checkpoint, then the new log.
  run.log.ResetReplayState();
  ha::ResumeSegmentSource resume_old(&run.log, b_checkpoint);
  log::OfflineSegmentSource new_source(&new_log);
  ha::ChainedSegmentSource chained({&resume_old, &new_source});
  auto replica =
      MakeReplica(ProtocolKind::kKuaFu, &backup_b, {.num_workers = 4});
  replica->Start(&chained);
  replica->WaitUntilCaughtUp();
  replica->Stop();

  EXPECT_EQ(test::StateDigest(backup_b, kMaxTimestamp),
            test::StateDigest(backup_a, kMaxTimestamp));
}


// Promotion during ACTIVE replay with in-flight transactions, driven by the
// DST harness's crash injector: the backup's feed dies mid-log (only a
// prefix of segments is delivered, with wire faults — corruption, torn
// tails, duplicates — in transit) while read-only clients hammer it. The
// survivor drains what it received, is promoted, and runs new transactions;
// its state must equal the single-thread oracle's replay of the same prefix
// plus the promoted node's own log, and reader snapshots must never regress
// across the whole episode.
TEST(FailoverTest, PromotionDuringActiveReplayMatchesOracle) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/2,
                                       /*txns_per_client=*/200);
  const std::size_t num_segs = run.log.NumSegments();
  ASSERT_GT(num_segs, 4u);

  sim::DstPlan plan = sim::DstPlan::FromSeed(test::TestSeed(31337));
  const std::size_t cut = num_segs / 2;  // the feed dies here
  sim::DstChannel channel(&run.log, 0, cut, plan, /*salt=*/1);
  ASSERT_TRUE(channel.error().empty()) << channel.error();
  ASSERT_GE(channel.stats().frames_shipped, cut);

  storage::Database backup;
  const TableId table = workload::SyntheticWorkload::CreateTable(&backup);
  sim::DstChannel::Source source = channel.MakeSource();
  auto replica = MakeReplica(ProtocolKind::kC5, &backup, {.num_workers = 4});
  auto* base = dynamic_cast<replica::ReplicaBase*>(replica.get());
  ASSERT_NE(base, nullptr);

  std::atomic<bool> stop{false};
  std::atomic<bool> monotonic{true};
  std::thread readers([&] {
    Timestamp last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      {
        const c5::Snapshot snap = base->OpenSnapshot();
        if (snap.timestamp() < last) {
          monotonic.store(false, std::memory_order_relaxed);
        }
        last = snap.timestamp();
      }
      Value v;
      (void)base->OpenSnapshot().Get(
          table, workload::SyntheticWorkload::kHotKey, &v);
    }
  });

  replica->Start(&source);
  // Drains the received prefix; transactions above the cut are in flight on
  // the dead primary and lost — exactly the state a promotion inherits.
  replica->WaitUntilCaughtUp();
  const Timestamp applied = replica->VisibleTimestamp();
  stop.store(true, std::memory_order_release);
  readers.join();
  replica->Stop();
  ASSERT_EQ(applied, run.log.segment(cut - 1)->MaxTimestamp());
  ASSERT_LT(applied, run.log.MaxTimestamp());
  EXPECT_TRUE(monotonic.load()) << "reader snapshot regressed";

  auto promoted =
      ha::PromoteToPrimary(&backup, applied, ha::EngineKind::kMvtso);
  for (std::uint64_t n = 0; n < 60; ++n) {
    ASSERT_TRUE(promoted->engine
                    ->ExecuteWithRetry([&](txn::Txn& txn) {
                      return txn.Put(table, 40000 + n,
                                     workload::EncodeIntValue(n));
                    })
                    .ok());
  }
  log::Log new_log = promoted->collector.Coalesce();
  ASSERT_GT(new_log.NumRecords(), 0u);
  EXPECT_GT(new_log.segment(0)->MinTimestamp(), applied);

  storage::Database oracle;
  workload::SyntheticWorkload::CreateTable(&oracle);
  log::PrefixSegmentSource prefix(&run.log, cut);
  log::OfflineSegmentSource new_source(&new_log);
  ha::ChainedSegmentSource chained({&prefix, &new_source});
  auto single = MakeReplica(ProtocolKind::kSingleThread, &oracle, {});
  single->Start(&chained);
  single->WaitUntilCaughtUp();
  single->Stop();

  EXPECT_EQ(test::StateDigest(backup, kMaxTimestamp),
            test::StateDigest(oracle, kMaxTimestamp))
      << "post-promotion state diverges from the single-thread oracle";
}

// Realistic-schema failover: TPC-C state replicated to a C5 backup, the
// backup promoted, and real NewOrder/Payment transactions executed on the
// promoted engine. The district order-count invariant must span both
// incarnations: sum over districts of (d_next_o_id - 1) == NewOrders
// committed before the failure + after the promotion.
TEST(FailoverTest, PromotedBackupRunsTpcc) {
  using namespace workload::tpcc;
  TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.districts_per_warehouse = 4;
  cfg.customers_per_district = 50;
  cfg.items = 200;

  storage::Database primary_db;
  TxnClock clock;
  log::PerThreadLogCollector collector(256);
  txn::MvtsoEngine engine(&primary_db, &collector, &clock);
  CreateTables(&primary_db);
  ASSERT_GT(Load(engine, cfg), 0u);

  Rng rng(test::TestSeed(42));
  std::uint64_t committed_before = 0;
  for (int i = 0; i < 200; ++i) {
    const Status s = RunNewOrder(engine, rng, cfg, 1);
    if (s.ok()) ++committed_before;
  }
  log::Log log = collector.Coalesce();

  // Replicate to a backup and promote it.
  storage::Database backup;
  CreateTables(&backup);
  log::OfflineSegmentSource source(&log);
  Timestamp applied = 0;
  {
    auto replica =
        MakeReplica(ProtocolKind::kC5, &backup, {.num_workers = 4});
    replica->Start(&source);
    replica->WaitUntilCaughtUp();
    applied = replica->VisibleTimestamp();
    replica->Stop();
  }
  auto promoted =
      ha::PromoteToPrimary(&backup, applied, ha::EngineKind::kMvtso);

  std::uint64_t committed_after = 0;
  for (int i = 0; i < 200; ++i) {
    const Status s = RunNewOrder(*promoted->engine, rng, cfg, 1);
    if (s.ok()) ++committed_after;
  }
  for (int i = 0; i < 50; ++i) {
    (void)RunPayment(*promoted->engine, rng, cfg, 1);
  }
  ASSERT_GT(committed_after, 0u);

  // District invariant across the failover boundary.
  const auto guard = backup.epochs().Enter();
  std::uint64_t total_orders = 0;
  for (std::uint32_t d = 1; d <= cfg.districts_per_warehouse; ++d) {
    const auto* v =
        backup.ReadKeyAt(kDistrict, DistrictKey(1, d), kMaxTimestamp);
    ASSERT_NE(v, nullptr);
    total_orders += FromValue<DistrictRow>(v->value()).d_next_o_id - 1;
  }
  EXPECT_EQ(total_orders, committed_before + committed_after);
  EXPECT_EQ(backup.index(kOrder).Size(),
            committed_before + committed_after);
}

}  // namespace
}  // namespace c5

