#include "index/hash_index.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

#include <atomic>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace c5::index {
namespace {

TEST(HashIndexTest, InsertAndLookup) {
  HashIndex idx;
  EXPECT_TRUE(idx.Insert(42, 7));
  ASSERT_TRUE(idx.Lookup(42).has_value());
  EXPECT_EQ(*idx.Lookup(42), 7u);
}

TEST(HashIndexTest, LookupMissingReturnsNullopt) {
  HashIndex idx;
  EXPECT_FALSE(idx.Lookup(99).has_value());
}

TEST(HashIndexTest, DuplicateInsertRejected) {
  HashIndex idx;
  EXPECT_TRUE(idx.Insert(1, 10));
  EXPECT_FALSE(idx.Insert(1, 20));
  EXPECT_EQ(*idx.Lookup(1), 10u);
}

TEST(HashIndexTest, UpsertOverwrites) {
  HashIndex idx;
  idx.Upsert(1, 10);
  idx.Upsert(1, 20);
  EXPECT_EQ(*idx.Lookup(1), 20u);
  EXPECT_EQ(idx.Size(), 1u);
}

TEST(HashIndexTest, UpsertIfNewerKeepsNewestBinding) {
  HashIndex idx;
  // Apply order != commit order across rows: the newest-ts binding must win
  // regardless of arrival order.
  EXPECT_TRUE(idx.UpsertIfNewer(1, /*row=*/50, /*ts=*/90));
  EXPECT_FALSE(idx.UpsertIfNewer(1, /*row=*/10, /*ts=*/40));  // stale loses
  EXPECT_EQ(*idx.Lookup(1), 50u);
  EXPECT_TRUE(idx.UpsertIfNewer(1, /*row=*/60, /*ts=*/120));  // newer wins
  EXPECT_EQ(*idx.Lookup(1), 60u);
  // Equal timestamps rebind (last writer at the same ts wins — within one
  // transaction the per-key write is unique, so this is a tie-break only
  // tests exercise).
  EXPECT_TRUE(idx.UpsertIfNewer(1, /*row=*/61, /*ts=*/120));
  EXPECT_EQ(*idx.Lookup(1), 61u);
  const auto with_ts = idx.LookupWithTs(1);
  ASSERT_TRUE(with_ts.has_value());
  EXPECT_EQ(with_ts->first, 61u);
  EXPECT_EQ(with_ts->second, 120u);
}

TEST(HashIndexTest, UpsertIfNewerConvergesUnderConcurrentApply) {
  // Two workers apply the old-row and new-row creating records of the same
  // key in opposite orders; every key must end bound to the newest row.
  HashIndex idx;
  constexpr Key kKeys = 512;
  std::thread old_rows([&idx] {
    for (Key k = 0; k < kKeys; ++k) idx.UpsertIfNewer(k, k, /*ts=*/100 + k);
  });
  std::thread new_rows([&idx] {
    for (Key k = kKeys; k-- > 0;) {
      idx.UpsertIfNewer(k, 10000 + k, /*ts=*/5000 + k);
    }
  });
  old_rows.join();
  new_rows.join();
  for (Key k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(idx.Lookup(k).has_value());
    EXPECT_EQ(*idx.Lookup(k), 10000 + k) << "key " << k;
  }
}

TEST(HashIndexTest, GrowPreservesBindingTimestamps) {
  HashIndex idx(/*initial_capacity_per_shard=*/8, /*shard_count=*/1);
  for (Key k = 0; k < 256; ++k) {
    idx.UpsertIfNewer(k, k, /*ts=*/1000 + k);
  }
  // Post-grow, a stale rebind must still lose: timestamps survived rehash.
  for (Key k = 0; k < 256; ++k) {
    EXPECT_FALSE(idx.UpsertIfNewer(k, 9999, /*ts=*/5)) << "key " << k;
    EXPECT_EQ(*idx.Lookup(k), k);
  }
}

TEST(HashIndexTest, KeysZeroAndOneAreUsable) {
  // Raw keys 0 and 1 collide with internal sentinel encodings if mishandled.
  HashIndex idx;
  EXPECT_TRUE(idx.Insert(0, 100));
  EXPECT_TRUE(idx.Insert(1, 101));
  EXPECT_EQ(*idx.Lookup(0), 100u);
  EXPECT_EQ(*idx.Lookup(1), 101u);
}

TEST(HashIndexTest, MaxKeyIsUsable) {
  HashIndex idx;
  const Key k = ~Key{0} - 2;  // +2 encoding must not overflow into sentinels
  EXPECT_TRUE(idx.Insert(k, 5));
  EXPECT_EQ(*idx.Lookup(k), 5u);
}

TEST(HashIndexTest, EraseRemovesEntry) {
  HashIndex idx;
  idx.Insert(1, 10);
  EXPECT_TRUE(idx.Erase(1));
  EXPECT_FALSE(idx.Lookup(1).has_value());
  EXPECT_FALSE(idx.Erase(1));
  EXPECT_EQ(idx.Size(), 0u);
}

TEST(HashIndexTest, ReinsertAfterEraseUsesTombstone) {
  HashIndex idx(8, 1);  // single shard, tiny capacity: forces probing
  for (Key k = 0; k < 6; ++k) idx.Insert(k, k);
  idx.Erase(3);
  EXPECT_TRUE(idx.Insert(3, 33));
  EXPECT_EQ(*idx.Lookup(3), 33u);
  for (Key k = 0; k < 6; ++k) {
    if (k != 3) {
      EXPECT_EQ(*idx.Lookup(k), k);
    }
  }
}

TEST(HashIndexTest, GrowPreservesEntries) {
  HashIndex idx(8, 1);
  constexpr Key kN = 10000;
  for (Key k = 0; k < kN; ++k) ASSERT_TRUE(idx.Insert(k, k * 2));
  EXPECT_EQ(idx.Size(), kN);
  for (Key k = 0; k < kN; ++k) ASSERT_EQ(*idx.Lookup(k), k * 2);
}

TEST(HashIndexTest, ProbeAcrossTombstonesFindsDeepEntries) {
  HashIndex idx(16, 1);
  for (Key k = 0; k < 12; ++k) idx.Insert(k, k);
  for (Key k = 0; k < 6; ++k) idx.Erase(k);
  for (Key k = 6; k < 12; ++k) EXPECT_EQ(*idx.Lookup(k), k);
}

TEST(HashIndexTest, MatchesReferenceMapUnderRandomOps) {
  HashIndex idx(16, 4);
  std::unordered_map<Key, RowId> ref;
  Rng rng(test::TestSeed(77));
  for (int i = 0; i < 50000; ++i) {
    const Key k = rng.Uniform(2000);
    switch (rng.Uniform(3)) {
      case 0: {
        const bool inserted = idx.Insert(k, i);
        EXPECT_EQ(inserted, ref.find(k) == ref.end());
        if (inserted) ref[k] = i;
        break;
      }
      case 1: {
        const bool erased = idx.Erase(k);
        EXPECT_EQ(erased, ref.erase(k) == 1);
        break;
      }
      default: {
        const auto got = idx.Lookup(k);
        const auto it = ref.find(k);
        EXPECT_EQ(got.has_value(), it != ref.end());
        if (got.has_value() && it != ref.end()) {
          EXPECT_EQ(*got, it->second);
        }
      }
    }
  }
  EXPECT_EQ(idx.Size(), ref.size());
}

TEST(HashIndexTest, ConcurrentDisjointInserts) {
  HashIndex idx;
  constexpr int kThreads = 8;
  constexpr Key kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&idx, t] {
      for (Key k = 0; k < kPerThread; ++k) {
        const Key key = static_cast<Key>(t) * kPerThread + k;
        ASSERT_TRUE(idx.Insert(key, key + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(idx.Size(), static_cast<std::size_t>(kThreads) * kPerThread);
  for (Key k = 0; k < kThreads * kPerThread; ++k) {
    ASSERT_EQ(*idx.Lookup(k), k + 1);
  }
}

TEST(HashIndexTest, ConcurrentInsertRaceExactlyOneWins) {
  for (int round = 0; round < 20; ++round) {
    HashIndex idx;
    std::atomic<int> winners{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&idx, &winners, t] {
        if (idx.Insert(123, static_cast<RowId>(t))) winners.fetch_add(1);
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(winners.load(), 1);
    EXPECT_TRUE(idx.Lookup(123).has_value());
  }
}

TEST(HashIndexTest, ConcurrentReadersDuringInserts) {
  HashIndex idx;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (Key k = 0; k < 100000; ++k) idx.Insert(k, k);
  });
  std::vector<std::thread> readers;
  const std::uint64_t base_seed = test::TestSeed(91);  // main thread only
  for (int t = 0; t < 4; ++t) {
    // NB: `t` by value — the loop variable dies before the readers do.
    readers.emplace_back([&, t] {
      Rng rng(base_seed + t);
      while (!stop.load()) {
        const Key k = rng.Uniform(100000);
        const auto v = idx.Lookup(k);
        if (v.has_value()) {
          ASSERT_EQ(*v, k);
        }
      }
    });
  }
  writer.join();
  stop.store(true);
  for (auto& r : readers) r.join();
}

class HashIndexShardParamTest : public ::testing::TestWithParam<int> {};

TEST_P(HashIndexShardParamTest, WorksWithVariousShardCounts) {
  HashIndex idx(32, GetParam());
  for (Key k = 0; k < 5000; ++k) ASSERT_TRUE(idx.Insert(k, k));
  for (Key k = 0; k < 5000; ++k) ASSERT_EQ(*idx.Lookup(k), k);
  EXPECT_EQ(idx.Size(), 5000u);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, HashIndexShardParamTest,
                         ::testing::Values(1, 2, 3, 16, 128, 1000));

}  // namespace
}  // namespace c5::index
