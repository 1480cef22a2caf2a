#include "storage/table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "storage/database.h"

namespace c5::storage {
namespace {

class TableTest : public ::testing::Test {
 protected:
  Table table_{"t"};
  EpochManager epochs_;
};

TEST_F(TableTest, AllocateRowsAreSequential) {
  EXPECT_EQ(table_.AllocateRow(), 0u);
  EXPECT_EQ(table_.AllocateRow(), 1u);
  EXPECT_EQ(table_.NumRows(), 2u);
}

TEST_F(TableTest, EnsureRowExtendsNumRows) {
  table_.EnsureRow(100);
  EXPECT_EQ(table_.NumRows(), 101u);
  table_.EnsureRow(5);  // no shrink
  EXPECT_EQ(table_.NumRows(), 101u);
}

TEST_F(TableTest, EnsureRowAcrossChunkBoundary) {
  table_.EnsureRow(70000);  // beyond the first 64Ki chunk
  table_.InstallCommitted(70000, 1, "x");
  const Version* v = table_.ReadLatestCommitted(70000);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->value(), "x");
}

TEST_F(TableTest, EmptyRowReadsNull) {
  table_.EnsureRow(0);
  EXPECT_EQ(table_.ReadAt(0, 100), nullptr);
  EXPECT_EQ(table_.HeadTimestamp(0), kInvalidTimestamp);
  EXPECT_EQ(table_.NewestVisibleTimestamp(0), kInvalidTimestamp);
}

TEST_F(TableTest, ReadAtSelectsByTimestamp) {
  const RowId r = table_.AllocateRow();
  table_.InstallCommitted(r, 10, "v10");
  table_.InstallCommitted(r, 20, "v20");
  table_.InstallCommitted(r, 30, "v30");

  EXPECT_EQ(table_.ReadAt(r, 5), nullptr);
  EXPECT_EQ(table_.ReadAt(r, 10)->value(), "v10");
  EXPECT_EQ(table_.ReadAt(r, 19)->value(), "v10");
  EXPECT_EQ(table_.ReadAt(r, 20)->value(), "v20");
  EXPECT_EQ(table_.ReadAt(r, 29)->value(), "v20");
  EXPECT_EQ(table_.ReadAt(r, kMaxTimestamp)->value(), "v30");
}

TEST_F(TableTest, TombstonesAreReturnedWithDeletedFlag) {
  const RowId r = table_.AllocateRow();
  table_.InstallCommitted(r, 10, "v10");
  table_.InstallCommitted(r, 20, "", /*deleted=*/true);
  const Version* v = table_.ReadAt(r, 25);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->deleted);
  EXPECT_FALSE(table_.ReadAt(r, 15)->deleted);
}

TEST_F(TableTest, HeadAndNewestVisibleTimestamps) {
  const RowId r = table_.AllocateRow();
  table_.InstallCommitted(r, 10, "a");
  EXPECT_EQ(table_.HeadTimestamp(r), 10u);
  EXPECT_EQ(table_.NewestVisibleTimestamp(r), 10u);
}

TEST_F(TableTest, TryInstallIfPrevRequiresPredecessorInPlace) {
  const RowId r = table_.AllocateRow();
  // Row empty: a write whose predecessor is missing must wait.
  EXPECT_EQ(table_.TryInstallIfPrev(r, 5, 10, "x"), PrevInstall::kNotReady);
  EXPECT_EQ(table_.TryInstallIfPrev(r, kInvalidTimestamp, 10, "v10"),
            PrevInstall::kInstalled);
  // Predecessor (15) still missing.
  EXPECT_EQ(table_.TryInstallIfPrev(r, 15, 20, "v20"),
            PrevInstall::kNotReady);
  // Clean-replay case: head equals prev_ts exactly.
  EXPECT_EQ(table_.TryInstallIfPrev(r, 10, 20, "v20"),
            PrevInstall::kInstalled);
  EXPECT_EQ(table_.ReadLatestCommitted(r)->value(), "v20");
}

TEST_F(TableTest, TryInstallIfPrevIsIdempotentUnderRedelivery) {
  const RowId r = table_.AllocateRow();
  ASSERT_EQ(table_.TryInstallIfPrev(r, kInvalidTimestamp, 10, "v10"),
            PrevInstall::kInstalled);
  ASSERT_EQ(table_.TryInstallIfPrev(r, 10, 20, "v20"),
            PrevInstall::kInstalled);
  // Redelivered records (at-least-once shipping) are recognized as applied,
  // whatever prev_ts the rebuilt chain assigned them.
  EXPECT_EQ(table_.TryInstallIfPrev(r, kInvalidTimestamp, 10, "v10"),
            PrevInstall::kAlreadyApplied);
  EXPECT_EQ(table_.TryInstallIfPrev(r, 10, 20, "v20"),
            PrevInstall::kAlreadyApplied);
  EXPECT_EQ(table_.TryInstallIfPrev(r, 20, 20, "v20"),
            PrevInstall::kAlreadyApplied);
  EXPECT_EQ(table_.ReadLatestCommitted(r)->value(), "v20");
  // Exactly one version per timestamp: the chain is 20 -> 10 -> null.
  const Version* v = table_.ReadLatestCommitted(r);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->write_ts, 20u);
  ASSERT_NE(v->Next(), nullptr);
  EXPECT_EQ(v->Next()->write_ts, 10u);
  EXPECT_EQ(v->Next()->Next(), nullptr);
}

TEST_F(TableTest, TryInstallIfPrevResumesOverCoveredPredecessors) {
  // Checkpoint-resume case: the row's recovered head (20) lies strictly
  // between a redelivered record's prev_ts (10) and its commit ts (30) —
  // its true predecessor was superseded by recovered state. Install.
  const RowId r = table_.AllocateRow();
  table_.InstallCommitted(r, 20, "recovered");
  EXPECT_EQ(table_.TryInstallIfPrev(r, 10, 30, "v30"),
            PrevInstall::kInstalled);
  EXPECT_EQ(table_.ReadLatestCommitted(r)->value(), "v30");
}

TEST_F(TableTest, PendingInstallAndCommit) {
  const RowId r = table_.AllocateRow();
  Version* v = table_.NewPendingVersion(10, "pending", false);
  ASSERT_EQ(table_.TryInstallPending(r, v), InstallResult::kOk);
  // Not yet committed: a reader above 10 spins until resolution, so resolve
  // from another thread.
  std::thread committer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    v->SetStatus(VersionStatus::kCommitted);
  });
  const Version* read = table_.ReadAt(r, 15);
  committer.join();
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->value(), "pending");
}

TEST_F(TableTest, PendingInstallWriteConflict) {
  const RowId r = table_.AllocateRow();
  table_.InstallCommitted(r, 20, "newer");
  Version* v = table_.NewPendingVersion(10, "older", false);
  EXPECT_EQ(table_.TryInstallPending(r, v), InstallResult::kWriteConflict);
  FreeVersion(v);  // not linked on failure
}

TEST_F(TableTest, PendingInstallReadConflict) {
  const RowId r = table_.AllocateRow();
  const Version* committed = table_.InstallCommitted(r, 10, "base");
  // A reader at ts 50 observed the base version.
  const_cast<Version*>(committed)->ObserveRead(50);
  // Installing at ts 30 would invalidate that read.
  Version* v = table_.NewPendingVersion(30, "mid", false);
  EXPECT_EQ(table_.TryInstallPending(r, v), InstallResult::kReadConflict);
  FreeVersion(v);
}

TEST_F(TableTest, AbortedHeadIsUnlinked) {
  const RowId r = table_.AllocateRow();
  table_.InstallCommitted(r, 10, "base");
  Version* v = table_.NewPendingVersion(20, "doomed", false);
  ASSERT_EQ(table_.TryInstallPending(r, v), InstallResult::kOk);
  table_.AbortPending(r, v, epochs_);
  EXPECT_EQ(table_.HeadTimestamp(r), 10u);
  EXPECT_EQ(table_.ReadLatestCommitted(r)->value(), "base");
  epochs_.ReclaimSome();
  epochs_.ReclaimSome();
}

TEST_F(TableTest, AbortedMidChainIsSkippedByReaders) {
  const RowId r = table_.AllocateRow();
  table_.InstallCommitted(r, 10, "base");
  Version* doomed = table_.NewPendingVersion(20, "doomed", false);
  ASSERT_EQ(table_.TryInstallPending(r, doomed), InstallResult::kOk);
  // Another commit lands above before the abort.
  table_.InstallCommitted(r, 30, "top", false, /*allow_out_of_order=*/true);
  doomed->SetStatus(VersionStatus::kAborted);

  EXPECT_EQ(table_.ReadAt(r, 25)->value(), "base");   // skips aborted 20
  EXPECT_EQ(table_.ReadAt(r, 35)->value(), "top");
  EXPECT_EQ(table_.NewestVisibleTimestamp(r), 30u);
}

TEST_F(TableTest, ObserveReadIsMonotonic) {
  const RowId r = table_.AllocateRow();
  auto* v = const_cast<Version*>(table_.InstallCommitted(r, 10, "x"));
  v->ObserveRead(50);
  v->ObserveRead(30);  // lower: no effect
  EXPECT_EQ(v->read_ts.load(), 50u);
  v->ObserveRead(70);
  EXPECT_EQ(v->read_ts.load(), 70u);
}

TEST_F(TableTest, GcTruncatesBelowHorizon) {
  const RowId r = table_.AllocateRow();
  for (Timestamp ts = 10; ts <= 100; ts += 10) {
    table_.InstallCommitted(r, ts, "v" + std::to_string(ts));
  }
  // Horizon 55: newest committed <= 55 is ts 50; cut 10..40 (4 versions).
  // The whole tail is one batched retirement (return value counts truncated
  // chains); the exact freed count surfaces at reclaim time.
  EXPECT_EQ(table_.CollectRowGarbage(r, 55, epochs_), 1u);
  EXPECT_EQ(table_.ReadAt(r, 55)->value(), "v50");
  EXPECT_EQ(table_.ReadAt(r, 45), nullptr);  // older history gone
  EXPECT_EQ(table_.ReadAt(r, kMaxTimestamp)->value(), "v100");
  EXPECT_EQ(epochs_.ReclaimSome() + epochs_.ReclaimSome(), 4u)
      << "batched retirement must free exactly the truncated chain";
}

TEST_F(TableTest, GcPreservesNewestCommittedAtHorizon) {
  const RowId r = table_.AllocateRow();
  table_.InstallCommitted(r, 10, "only");
  EXPECT_EQ(table_.CollectRowGarbage(r, 100, epochs_), 0u);
  EXPECT_EQ(table_.ReadAt(r, 100)->value(), "only");
}

TEST_F(TableTest, GcNoopOnEmptyRow) {
  table_.EnsureRow(0);
  EXPECT_EQ(table_.CollectRowGarbage(0, 100, epochs_), 0u);
}

TEST_F(TableTest, GcWholeTable) {
  for (int i = 0; i < 10; ++i) {
    const RowId r = table_.AllocateRow();
    table_.InstallCommitted(r, 10, "a");
    table_.InstallCommitted(r, 20, "b");
  }
  EXPECT_EQ(table_.CountVersionsApprox(), 20u);
  // Return value counts rows whose chains were truncated (one per row here).
  EXPECT_EQ(table_.CollectGarbage(50, epochs_), 10u);
  EXPECT_EQ(table_.CountVersionsApprox(), 10u);
}

TEST_F(TableTest, ConcurrentPendingInstallsOnOneRowSerialize) {
  // MVTSO conflict rule: among concurrent installers to one row, timestamps
  // must end up strictly increasing head-first and losers must get conflicts.
  const RowId r = table_.AllocateRow();
  constexpr int kThreads = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 1; t <= kThreads; ++t) {
    threads.emplace_back([&, t] {
      Version* v = table_.NewPendingVersion(static_cast<Timestamp>(t), "x", false);
      if (table_.TryInstallPending(r, v) == InstallResult::kOk) {
        v->SetStatus(VersionStatus::kCommitted);
        ok.fetch_add(1);
      } else {
        FreeVersion(v);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GE(ok.load(), 1);
  // Chain must be strictly decreasing in write_ts from the head.
  Timestamp prev = kMaxTimestamp;
  int count = 0;
  for (const Version* v = table_.ReadLatestCommitted(r); v != nullptr;
       v = v->Next()) {
    EXPECT_LT(v->write_ts, prev);
    prev = v->write_ts;
    ++count;
  }
  EXPECT_EQ(count, ok.load());
}

TEST_F(TableTest, ConcurrentReadersDuringGc) {
  const RowId r = table_.AllocateRow();
  for (Timestamp ts = 1; ts <= 1000; ++ts) {
    table_.InstallCommitted(r, ts, std::to_string(ts));
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto guard = epochs_.Enter();
        const Version* v = table_.ReadAt(r, kMaxTimestamp);
        ASSERT_NE(v, nullptr);
        ASSERT_EQ(v->value(), "1000");
      }
    });
  }
  for (Timestamp horizon = 100; horizon <= 1000; horizon += 100) {
    table_.CollectRowGarbage(r, horizon, epochs_);
    epochs_.ReclaimSome();
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(table_.CountVersionsApprox(), 1u);
}

TEST(DatabaseTest, CreateTablesAndReadKeyAt) {
  Database db;
  const TableId t = db.CreateTable("users");
  EXPECT_EQ(db.NumTables(), 1u);
  const RowId r = db.table(t).AllocateRow();
  db.index(t).Insert(/*key=*/7, r);
  db.table(t).InstallCommitted(r, 5, "alice");

  const auto guard = db.epochs().Enter();
  const Version* v = db.ReadKeyAt(t, 7, 10);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->value(), "alice");
  EXPECT_EQ(db.ReadKeyAt(t, 7, 4), nullptr);
  EXPECT_EQ(db.ReadKeyAt(t, 8, 10), nullptr);
}

TEST(DatabaseTest, CollectGarbageAcrossTables) {
  Database db;
  const TableId a = db.CreateTable("a");
  const TableId b = db.CreateTable("b");
  for (TableId t : {a, b}) {
    const RowId r = db.table(t).AllocateRow();
    db.table(t).InstallCommitted(r, 1, "x");
    db.table(t).InstallCommitted(r, 2, "y");
  }
  EXPECT_EQ(db.CollectGarbage(10), 2u);
}

// Database::ApplyReplicated, the replicated-write primitive every eager
// backup replay path shares: one case per behaviour. Each case runs on a
// fresh database; with `has_state`, row 0 first takes a kInsert of key 7 at
// ts 10 (bound at 10). `want_bind_ts` is key 7's binding afterwards.
TEST(DatabaseTest, ApplyReplicatedCases) {
  struct Case {
    const char* name;
    bool has_state;
    OpType op;
    Timestamp prev_ts;
    Timestamp ts;
    PrevInstall want;
    Timestamp want_bind_ts;
    std::size_t want_versions;
  };
  const Case cases[] = {
      {"update on an empty row binds", false, OpType::kUpdate, 0, 20,
       PrevInstall::kInstalled, 20, 1},
      {"update on a row with state leaves the index", true, OpType::kUpdate,
       10, 20, PrevInstall::kInstalled, 10, 2},
      {"lone delete as first record binds", false, OpType::kDelete, 0, 20,
       PrevInstall::kInstalled, 20, 1},
      {"ts at or below the head is already applied", true, OpType::kUpdate, 0,
       10, PrevInstall::kAlreadyApplied, 10, 1},
      {"missing predecessor is not ready", false, OpType::kUpdate, 5, 20,
       PrevInstall::kNotReady, 20, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Database db;
    const TableId t = db.CreateTable("t");
    if (c.has_state) {
      ASSERT_EQ(db.ApplyReplicated(t, 7, 0, OpType::kInsert, 0, 10, "base"),
                PrevInstall::kInstalled);
    }
    const std::uint64_t slabs = db.table(t).arena().slabs().SlabsAllocated();
    EXPECT_EQ(db.ApplyReplicated(t, 7, 0, c.op, c.prev_ts, c.ts, "v"), c.want);
    EXPECT_EQ(db.table(t).CountVersionsApprox(), c.want_versions);
    if (c.want == PrevInstall::kInstalled) {
      EXPECT_EQ(db.table(t).HeadTimestamp(0), c.ts);
    } else {
      // No version was created, so the table's arena allocated nothing.
      EXPECT_EQ(db.table(t).arena().slabs().SlabsAllocated(), slabs);
    }
    const auto hash = db.index(t).LookupWithTs(7);
    const auto ordered = db.ordered_index(t).LookupWithTs(7);
    ASSERT_TRUE(hash.has_value());
    ASSERT_TRUE(ordered.has_value());
    EXPECT_EQ(*hash, std::make_pair(RowId{0}, c.want_bind_ts));
    EXPECT_EQ(*ordered, *hash);
  }
}

// A key whose row id changed (delete + re-insert allocates a fresh row)
// has two row-creating records; parallel replay may apply them in either
// order, and both indexes must converge on the newer row.
TEST(DatabaseTest, ApplyReplicatedCreatingRecordsConvergeInEitherOrder) {
  for (const bool newer_first : {false, true}) {
    SCOPED_TRACE(newer_first ? "newer first" : "older first");
    Database db;
    const TableId t = db.CreateTable("t");
    const auto apply_old = [&] {
      db.ApplyReplicated(t, 7, /*row=*/0, OpType::kInsert, 0, 10, "old");
    };
    const auto apply_new = [&] {
      db.ApplyReplicated(t, 7, /*row=*/1, OpType::kInsert, 0, 20, "new");
    };
    if (newer_first) {
      apply_new();
      apply_old();
    } else {
      apply_old();
      apply_new();
    }
    const auto want = std::make_pair(RowId{1}, Timestamp{20});
    EXPECT_EQ(db.index(t).LookupWithTs(7), want);
    EXPECT_EQ(db.ordered_index(t).LookupWithTs(7), want);
  }
}

}  // namespace
}  // namespace c5::storage
