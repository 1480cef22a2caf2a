// Query Fresh (§9) specific behaviour: lazy instantiation semantics, the
// ingest-keeps-up-by-construction property, deferred-execution cost charged
// to readers, and optimistic per-row serialization under reader contention.
// (Generic convergence/MPC coverage lives in replica_test.cc, where Query
// Fresh runs in the parameterized suite with every other protocol.)

#include "api/snapshot.h"
#include "replica/query_fresh_replica.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "log/segment_source.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"

namespace c5 {
namespace {

using replica::QueryFreshReplica;

QueryFreshReplica::Options LazyOptions() {
  QueryFreshReplica::Options o;
  o.leave_lazy_after_catchup = true;
  return o;
}

// After ingest finishes, the visibility watermark covers the whole log but
// NO writes have executed: Query Fresh "keeps up" on ingest by construction
// because execution is deferred to readers. This is the paper's §9 critique
// in assertable form.
TEST(QueryFreshTest, IngestAdvancesVisibilityWithoutExecuting) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/2,
                                       /*txns_per_client=*/100);
  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);

  QueryFreshReplica replica(&backup, LazyOptions());
  replica.Start(&source);
  replica.WaitUntilCaughtUp();

  EXPECT_EQ(replica.VisibleTimestamp(), run.log.MaxTimestamp());
  EXPECT_EQ(replica.stats().applied_writes.load(), 0u)
      << "lazy protocol executed writes during ingest";
  EXPECT_EQ(replica.PendingBacklog(), run.log.NumRecords());
  replica.Stop();
}

// A single read instantiates exactly the row it touches; the rest of the
// backlog stays deferred.
TEST(QueryFreshTest, ReadInstantiatesOnlyTheTouchedRow) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/2,
                                       /*txns_per_client=*/100);
  storage::Database backup;
  const TableId table = workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);

  QueryFreshReplica replica(&backup, LazyOptions());
  replica.Start(&source);
  replica.WaitUntilCaughtUp();

  // Count the hot row's writes in the log (the adversarial workload updates
  // key 0 once per transaction, plus the initial load).
  std::uint64_t hot_writes = 0;
  for (std::size_t s = 0; s < run.log.NumSegments(); ++s) {
    for (const auto& rec : run.log.segment(s)->records()) {
      if (rec.key == workload::SyntheticWorkload::kHotKey) ++hot_writes;
    }
  }
  ASSERT_GT(hot_writes, 0u);

  Value v;
  ASSERT_TRUE(replica.OpenSnapshot()
                  .Get(table, workload::SyntheticWorkload::kHotKey, &v)
                  .ok());
  EXPECT_EQ(replica.stats().applied_writes.load(), hot_writes);
  EXPECT_EQ(replica.PendingBacklog(), run.log.NumRecords() - hot_writes);
  replica.Stop();
}

// Reading every key lazily reconstructs the primary's exact state with no
// eager drain at all.
TEST(QueryFreshTest, ReadsAloneConvergeToPrimaryState) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/2,
                                       /*txns_per_client=*/150);
  storage::Database backup;
  const TableId table = workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);

  QueryFreshReplica replica(&backup, LazyOptions());
  replica.Start(&source);
  replica.WaitUntilCaughtUp();

  for (std::size_t s = 0; s < run.log.NumSegments(); ++s) {
    for (const auto& rec : run.log.segment(s)->records()) {
      Value v;
      EXPECT_TRUE(replica.OpenSnapshot().Get(table, rec.key, &v).ok());
    }
  }
  EXPECT_EQ(replica.PendingBacklog(), 0u);
  EXPECT_EQ(test::StateDigest(backup, kMaxTimestamp),
            test::StateDigest(run.primary->db, kMaxTimestamp));
  replica.Stop();
}

// Multi-key read-only transaction pattern: fix one snapshot timestamp,
// pre-instantiate the read set, then read both rows at that timestamp.
// Transactional atomicity must hold (both keys updated together by every
// transaction must read equal).
TEST(QueryFreshTest, FixedSnapshotReadsAreAtomic) {
  auto primary = test::Primary::Mvtso();
  const TableId table =
      workload::SyntheticWorkload::CreateTable(&primary->db);
  constexpr Key kA = 7, kB = 8;
  for (std::uint64_t n = 0; n <= 300; ++n) {
    const Status s = primary->engine->ExecuteWithRetry([&](txn::Txn& txn) {
      Status st = txn.Put(table, kA, workload::EncodeIntValue(n));
      if (!st.ok()) return st;
      return txn.Put(table, kB, workload::EncodeIntValue(n));
    });
    ASSERT_TRUE(s.ok());
  }
  log::Log log = primary->collector->Coalesce();

  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  log::OfflineSegmentSource source(&log);
  QueryFreshReplica replica(&backup, LazyOptions());

  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  std::thread reader([&] {
    std::uint64_t last_seen = 0;
    while (!stop.load(std::memory_order_acquire)) {
      // Snapshot::Get drains each row's pending redo list through the
      // PrepareRowRead hook before reading — the multi-key lazy read path.
      const c5::Snapshot snap = replica.OpenSnapshot();
      if (snap.timestamp() == 0) continue;
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

  replica.Start(&source);
  replica.WaitUntilCaughtUp();
  stop.store(true, std::memory_order_release);
  reader.join();
  replica.Stop();
  EXPECT_FALSE(violation.load());

  Value v;
  ASSERT_TRUE(replica.OpenSnapshot().Get(table, kA, &v).ok());
  EXPECT_EQ(workload::DecodeIntValue(v), 300u);
}

// Concurrent readers hammering one deferred hot row: per-row optimistic
// serialization must produce the correct final value; every reader sees the
// same state at the final snapshot.
TEST(QueryFreshTest, ConcurrentReadersOfOneHotRowAgree) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/4,
                                       /*txns_per_client=*/250);
  storage::Database backup;
  const TableId table = workload::SyntheticWorkload::CreateTable(&backup);
  run.log.ResetReplayState();
  log::OfflineSegmentSource source(&run.log);

  QueryFreshReplica replica(&backup, LazyOptions());
  replica.Start(&source);
  replica.WaitUntilCaughtUp();  // backlog fully pending

  constexpr int kReaders = 8;
  std::vector<Value> results(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      const Status s = replica.OpenSnapshot().Get(
          table, workload::SyntheticWorkload::kHotKey, &results[i]);
      ASSERT_TRUE(s.ok());
    });
  }
  for (auto& t : readers) t.join();
  for (int i = 1; i < kReaders; ++i) EXPECT_EQ(results[i], results[0]);

  // The hot row must now reflect its LAST write in the log.
  Value expected;
  for (std::size_t s = 0; s < run.log.NumSegments(); ++s) {
    for (const auto& rec : run.log.segment(s)->records()) {
      if (rec.key == workload::SyntheticWorkload::kHotKey) {
        expected = rec.value;
      }
    }
  }
  EXPECT_EQ(results[0], expected);
  replica.Stop();
}

// Deleted keys: a read at the final snapshot returns NotFound after the
// delete is (lazily) instantiated.
TEST(QueryFreshTest, LazyInstantiationAppliesDeletes) {
  auto primary = test::Primary::Mvtso();
  const TableId table =
      workload::SyntheticWorkload::CreateTable(&primary->db);
  constexpr Key kKey = 42;
  ASSERT_TRUE(primary->engine
                  ->ExecuteWithRetry([&](txn::Txn& txn) {
                    return txn.Insert(table, kKey,
                                      workload::EncodeIntValue(1));
                  })
                  .ok());
  ASSERT_TRUE(primary->engine
                  ->ExecuteWithRetry(
                      [&](txn::Txn& txn) { return txn.Delete(table, kKey); })
                  .ok());
  log::Log log = primary->collector->Coalesce();

  storage::Database backup;
  workload::SyntheticWorkload::CreateTable(&backup);
  log::OfflineSegmentSource source(&log);
  QueryFreshReplica replica(&backup, LazyOptions());
  replica.Start(&source);
  replica.WaitUntilCaughtUp();

  Value v;
  EXPECT_EQ(replica.OpenSnapshot().Get(table, kKey, &v).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(replica.PendingBacklog(), 0u);
  replica.Stop();
}

}  // namespace
}  // namespace c5
