// Session guarantees across multiple backups (§2.3): monotonic reads and
// read-your-writes via sticky sessions and client-tracked tokens, with
// backups at different replication lag.

#include "replica/session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/protocol_factory.h"
#include "replica/query_fresh_replica.h"
#include "ha/recovery.h"
#include "log/segment_source.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"

namespace c5 {
namespace {

using core::MakeReplica;
using core::ProtocolKind;
using replica::BackupSet;
using replica::ClientSession;
using replica::ReplicaBase;
using replica::RoutingPolicy;

// Two backups over the same log: FAST is fully caught up; SLOW is gated at
// half the segments until Release() runs. Sessions read through both.
struct TwoBackupWorld {
  test::SyntheticRun run;
  storage::Database fast_db;
  storage::Database slow_db;
  TableId table = 0;
  std::unique_ptr<replica::Replica> fast;
  std::unique_ptr<replica::Replica> slow;
  std::unique_ptr<log::OfflineSegmentSource> fast_source;
  std::unique_ptr<log::GatedSegmentSource> slow_source;
  log::Log slow_log;  // a second copy so the two replays do not share
                      // per-segment replay state (prev_ts, preprocessed)
  BackupSet set;

  explicit TwoBackupWorld(std::uint64_t txns_per_client = 150) {
    run = test::RunSyntheticPrimary(/*adversarial=*/false, /*clients=*/2,
                                    txns_per_client);
    table = run.table;
    // Deep-copy the log for the slow backup (same records/timestamps).
    std::uint64_t seq = 0;
    for (std::size_t s = 0; s < run.log.NumSegments(); ++s) {
      auto seg = std::make_unique<log::LogSegment>(seq);
      for (const auto& rec : run.log.segment(s)->records()) {
        log::LogRecord copy = rec;
        copy.prev_ts = kInvalidTimestamp;
        seg->Append(copy);
      }
      seq += seg->size();
      slow_log.AppendSegment(std::move(seg));
    }

    workload::SyntheticWorkload::CreateTable(&fast_db);
    workload::SyntheticWorkload::CreateTable(&slow_db);
    run.log.ResetReplayState();

    fast_source = std::make_unique<log::OfflineSegmentSource>(&run.log);
    slow_source = std::make_unique<log::GatedSegmentSource>(
        &slow_log, slow_log.NumSegments() / 2);

    fast = MakeReplica(ProtocolKind::kC5, &fast_db, {.num_workers = 2});
    slow = MakeReplica(ProtocolKind::kC5, &slow_db, {.num_workers = 2});
    fast->Start(fast_source.get());
    slow->Start(slow_source.get());
    fast->WaitUntilCaughtUp();  // fast is fully caught up
    // slow is stalled at its gate.

    set.Add(dynamic_cast<ReplicaBase*>(fast.get()));
    set.Add(dynamic_cast<ReplicaBase*>(slow.get()));
  }

  void ReleaseSlow() {
    slow_source->Open();
    slow->WaitUntilCaughtUp();
  }

  ~TwoBackupWorld() {
    slow_source->Open();
    fast->Stop();
    slow->Stop();
  }

  // A key guaranteed to be written late in the log (client 0's last insert).
  Key LateKey() const {
    Key late = 0;
    Timestamp late_ts = 0;
    for (std::size_t s = 0; s < run.log.NumSegments(); ++s) {
      for (const auto& rec : run.log.segment(s)->records()) {
        if (rec.commit_ts >= late_ts) {
          late_ts = rec.commit_ts;
          late = rec.key;
        }
      }
    }
    return late;
  }
};

TEST(SessionTest, ReadYourWritesRoutesAroundLaggingBackup) {
  TwoBackupWorld world;
  // The client "wrote" the last transaction: its token covers the log tail.
  ClientSession session(&world.set,
                        {.policy = RoutingPolicy::kTokenRouted});
  session.OnWrite(world.run.log.MaxTimestamp());

  Value v;
  const Status s = session.Read(world.table, world.LateKey(), &v);
  EXPECT_TRUE(s.ok()) << s.message();
  // Only the fast backup could have served it.
  EXPECT_EQ(session.stats().reads_per_backup[0], 1u);
  EXPECT_EQ(session.stats().reads_per_backup[1], 0u);
}

TEST(SessionTest, StickySessionWaitsForItsBackup) {
  TwoBackupWorld world;
  ClientSession session(
      &world.set, {.policy = RoutingPolicy::kSticky,
                   .sticky_index = 1,  // pinned to the SLOW backup
                   .wait_timeout = std::chrono::milliseconds(50)});
  session.OnWrite(world.run.log.MaxTimestamp());

  // The pinned backup is gated: the read must time out rather than violate
  // read-your-writes by serving stale state or silently switching backups.
  Value v;
  EXPECT_EQ(session.Read(world.table, world.LateKey(), &v).code(),
            StatusCode::kTimedOut);
  EXPECT_EQ(session.stats().timeouts, 1u);

  // Once the backup catches up, the same session read succeeds.
  world.ReleaseSlow();
  EXPECT_TRUE(session.Read(world.table, world.LateKey(), &v).ok());
  EXPECT_EQ(session.stats().reads_per_backup[1], 1u);
}

TEST(SessionTest, FreshestPolicyPrefersCaughtUpBackup) {
  TwoBackupWorld world;
  ClientSession session(&world.set, {.policy = RoutingPolicy::kFreshest});
  Value v;
  for (int i = 0; i < 10; ++i) {
    (void)session.Read(world.table, world.LateKey(), &v);
  }
  EXPECT_EQ(session.stats().reads_per_backup[0], 10u);
  EXPECT_EQ(session.stats().reads_per_backup[1], 0u);
}

TEST(SessionTest, TokenRoutedSpreadsLoadWhenBothEligible) {
  TwoBackupWorld world;
  world.ReleaseSlow();
  ClientSession session(&world.set,
                        {.policy = RoutingPolicy::kTokenRouted});
  Value v;
  for (int i = 0; i < 10; ++i) {
    (void)session.Read(world.table, world.LateKey(), &v);
  }
  EXPECT_EQ(session.stats().reads_per_backup[0], 5u);
  EXPECT_EQ(session.stats().reads_per_backup[1], 5u);
}

TEST(SessionTest, TokenNeverRegresses) {
  TwoBackupWorld world;
  world.ReleaseSlow();
  ClientSession session(&world.set,
                        {.policy = RoutingPolicy::kTokenRouted});
  Value v;
  Timestamp last = 0;
  for (int i = 0; i < 20; ++i) {
    (void)session.Read(world.table, world.LateKey(), &v);
    EXPECT_GE(session.token(), last);
    last = session.token();
  }
  EXPECT_GE(last, world.run.log.MaxTimestamp());
}

// Monotonic reads across backups while both are applying the log live: a
// counter row is incremented by every transaction; a token-routed session
// alternating between two replaying backups must never observe the counter
// go backwards.
TEST(SessionTest, MonotonicReadsAcrossLiveBackups) {
  // Build a log of monotone counter updates.
  auto primary = test::Primary::Mvtso();
  const TableId table =
      workload::SyntheticWorkload::CreateTable(&primary->db);
  constexpr Key kCounter = 3;
  for (std::uint64_t n = 0; n <= 500; ++n) {
    ASSERT_TRUE(primary->engine
                    ->ExecuteWithRetry([&](txn::Txn& txn) {
                      return txn.Put(table, kCounter,
                                     workload::EncodeIntValue(n));
                    })
                    .ok());
  }
  log::Log log_a = primary->collector->Coalesce();
  // Copy for backup B.
  log::Log log_b;
  std::uint64_t seq = 0;
  for (std::size_t s = 0; s < log_a.NumSegments(); ++s) {
    auto seg = std::make_unique<log::LogSegment>(seq);
    for (const auto& rec : log_a.segment(s)->records()) {
      log::LogRecord copy = rec;
      copy.prev_ts = kInvalidTimestamp;
      seg->Append(copy);
    }
    seq += seg->size();
    log_b.AppendSegment(std::move(seg));
  }

  storage::Database db_a, db_b;
  workload::SyntheticWorkload::CreateTable(&db_a);
  workload::SyntheticWorkload::CreateTable(&db_b);
  log::OfflineSegmentSource src_a_inner(&log_a);
  log::OfflineSegmentSource src_b_inner(&log_b);
  // Different jitter per backup so their visibility frontiers interleave.
  log::DelayedSegmentSource src_a(&src_a_inner, [](std::size_t i) {
    return std::chrono::microseconds(i % 3 == 0 ? 400 : 0);
  });
  log::DelayedSegmentSource src_b(&src_b_inner, [](std::size_t i) {
    return std::chrono::microseconds(i % 2 == 0 ? 700 : 0);
  });

  auto a = MakeReplica(ProtocolKind::kC5, &db_a, {.num_workers = 2});
  auto b = MakeReplica(ProtocolKind::kC5, &db_b, {.num_workers = 2});
  a->Start(&src_a);
  b->Start(&src_b);

  BackupSet set;
  set.Add(dynamic_cast<ReplicaBase*>(a.get()));
  set.Add(dynamic_cast<ReplicaBase*>(b.get()));

  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  std::thread client([&] {
    ClientSession session(&set, {.policy = RoutingPolicy::kTokenRouted});
    std::uint64_t last_seen = 0;
    while (!stop.load(std::memory_order_acquire)) {
      Value v;
      const Status s = session.Read(table, kCounter, &v);
      if (!s.ok()) continue;  // counter not visible anywhere yet
      const std::uint64_t n = workload::DecodeIntValue(v);
      if (n < last_seen) violation.store(true);
      last_seen = n;
    }
    // Final read after both caught up must see the last value.
    Value v;
    if (session.Read(table, kCounter, &v).ok()) {
      if (workload::DecodeIntValue(v) != 500u) violation.store(true);
    } else {
      violation.store(true);
    }
  });

  a->WaitUntilCaughtUp();
  b->WaitUntilCaughtUp();
  stop.store(true, std::memory_order_release);
  client.join();
  a->Stop();
  b->Stop();
  EXPECT_FALSE(violation.load()) << "session observed a counter regression";
}

// Control experiment: WITHOUT a session token, alternating between backups
// at different lag does observe regressions (this is the §2.3 problem the
// session layer exists to solve). Uses raw snapshot reads round-robin.
TEST(SessionTest, NoTokenRoundRobinDoesRegress) {
  TwoBackupWorld world(/*txns_per_client=*/200);

  // fast is caught up, slow is gated at half: alternating raw reads of a
  // key that changes between the two positions would regress. Demonstrate
  // with visibility timestamps (deterministic, no timing dependence).
  auto* fast = dynamic_cast<ReplicaBase*>(world.fast.get());
  auto* slow = dynamic_cast<ReplicaBase*>(world.slow.get());
  EXPECT_GT(fast->VisibleTimestamp(), slow->VisibleTimestamp())
      << "precondition: backups at different lag";

  // Raw alternation: snapshot sequence regresses.
  const Timestamp t1 = fast->VisibleTimestamp();
  const Timestamp t2 = slow->VisibleTimestamp();
  EXPECT_LT(t2, t1) << "raw round-robin exposes a regressing snapshot";

  // Session alternation: never regresses (the slow backup is skipped).
  ClientSession session(&world.set,
                        {.policy = RoutingPolicy::kTokenRouted});
  Value v;
  (void)session.Read(world.table, world.LateKey(), &v);
  const Timestamp tok = session.token();
  (void)session.Read(world.table, world.LateKey(), &v);
  EXPECT_GE(session.token(), tok);
  EXPECT_EQ(session.stats().reads_per_backup[1], 0u)
      << "session must not read from the backup below its token";
}


// Sessions are protocol-agnostic: a fleet mixing an eager backup (C5) with
// a lazy one (Query Fresh) still provides the session guarantees — the
// lazy backup's snapshot reads instantiate on demand, and its ingest-time
// visibility makes it eligible early.
TEST(SessionTest, MixedProtocolFleetServesConsistently) {
  auto primary = test::Primary::Mvtso();
  const TableId table =
      workload::SyntheticWorkload::CreateTable(&primary->db);
  constexpr Key kCounter = 11;
  for (std::uint64_t n = 0; n <= 200; ++n) {
    ASSERT_TRUE(primary->engine
                    ->ExecuteWithRetry([&](txn::Txn& txn) {
                      return txn.Put(table, kCounter,
                                     workload::EncodeIntValue(n));
                    })
                    .ok());
  }
  log::Log log_a = primary->collector->Coalesce();
  log::Log log_b;
  std::uint64_t seq = 0;
  for (std::size_t s = 0; s < log_a.NumSegments(); ++s) {
    auto seg = std::make_unique<log::LogSegment>(seq);
    for (const auto& rec : log_a.segment(s)->records()) seg->Append(rec);
    seq += seg->size();
    log_b.AppendSegment(std::move(seg));
  }

  storage::Database db_eager, db_lazy;
  workload::SyntheticWorkload::CreateTable(&db_eager);
  workload::SyntheticWorkload::CreateTable(&db_lazy);
  log::OfflineSegmentSource src_eager(&log_a);
  log::OfflineSegmentSource src_lazy(&log_b);
  auto eager = MakeReplica(ProtocolKind::kC5, &db_eager, {.num_workers = 2});
  replica::QueryFreshReplica::Options lazy_opts;
  lazy_opts.leave_lazy_after_catchup = true;  // stays lazy: reads must
                                              // instantiate on demand
  replica::QueryFreshReplica lazy(&db_lazy, lazy_opts);
  eager->Start(&src_eager);
  lazy.Start(&src_lazy);
  eager->WaitUntilCaughtUp();
  lazy.WaitUntilCaughtUp();

  BackupSet set;
  set.Add(dynamic_cast<ReplicaBase*>(eager.get()));
  set.Add(&lazy);

  ClientSession session(&set, {.policy = RoutingPolicy::kTokenRouted});
  session.OnWrite(log_a.MaxTimestamp());
  Value v;
  std::uint64_t last = 0;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(session.Read(table, kCounter, &v).ok());
    const std::uint64_t n = workload::DecodeIntValue(v);
    EXPECT_EQ(n, 200u) << "token covers the tail: both backups must serve "
                          "the final value";
    EXPECT_GE(n, last);
    last = n;
  }
  // Both backups served some reads (the lazy one is eligible because its
  // ingest watermark covers the token).
  EXPECT_GT(session.stats().reads_per_backup[0], 0u);
  EXPECT_GT(session.stats().reads_per_backup[1], 0u);
  eager->Stop();
  lazy.Stop();
}

}  // namespace
}  // namespace c5

