#ifndef C5_TXN_LOCK_MANAGER_H_
#define C5_TXN_LOCK_MANAGER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace c5::txn {

// Exclusive row-lock manager for the 2PL engine.
//
// Grant discipline is strictly FIFO, matching the paper's model assumption
// that conflicting operations "are granted the lock in the order requested"
// (§3.1). Deadlocks are broken by wait deadlines: a transaction whose wait
// exceeds its deadline withdraws its request, releases everything, and
// retries (the timeout-and-retry discipline used by production MySQL-family
// primaries).
//
// Lock names are (table, row) pairs. Lock state lives in pooled intrusive
// nodes chained off fixed per-shard bucket arrays: a node returns to its
// shard's free list on release (keeping its waiter queue's capacity), so in
// steady state lock/unlock cycles — every update transaction takes one — do
// no heap allocation. The only allocations are amortized node-slab growth
// when the number of simultaneously locked rows reaches a new high-water
// mark, and one waiter-queue buffer the first few times a node sees
// contention (tests/alloc_budget_test.cc pins the update-path budget).
class LockManager {
 public:
  using TxnId = std::uint64_t;

  explicit LockManager(int shard_count = 64);
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  // Acquires the exclusive lock on (table, row) for `txn`. Re-entrant: if
  // `txn` already holds it, returns true immediately. Returns false if the
  // deadline passes while waiting (the request is withdrawn).
  bool Acquire(TxnId txn, TableId table, RowId row,
               std::chrono::steady_clock::time_point deadline);

  // Releases a lock held by `txn`. No-op if not held by `txn`.
  void Release(TxnId txn, TableId table, RowId row);

  // Diagnostics.
  std::size_t LockedRowCountApprox() const;

 private:
  // FIFO queue over a reusable buffer: pop is a head-index bump (no O(n)
  // shift), and clear() keeps the vector's capacity so a recycled node's
  // queue never reallocates for queue depths it has already seen.
  struct WaitQueue {
    std::vector<TxnId> q;
    std::size_t head = 0;

    bool empty() const { return head >= q.size(); }
    TxnId front() const { return q[head]; }
    void push(TxnId t) { q.push_back(t); }
    void pop() {
      if (++head >= q.size()) reset();
    }
    // Removes `t` from anywhere in the queue (timeout withdrawal).
    // Returns false if absent. O(n); timeouts are the rare path.
    bool withdraw(TxnId t) {
      for (std::size_t i = head; i < q.size(); ++i) {
        if (q[i] != t) continue;
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
        if (head >= q.size()) reset();
        return true;
      }
      return false;
    }
    void reset() {
      q.clear();
      head = 0;
    }
  };

  struct LockNode {
    std::uint64_t name = 0;
    bool held = false;
    TxnId owner = 0;
    LockNode* next = nullptr;  // bucket chain / free list link
    WaitQueue waiters;
  };

  // 64 buckets per shard x shard_count shards: thousands of buckets for a
  // working set of (locks held by in-flight txns) entries, so chains stay
  // short without ever resizing — resizing under the shard mutex would
  // stall every locker in the shard.
  static constexpr std::size_t kBucketsPerShard = 64;
  static constexpr std::size_t kSlabNodes = 64;

  struct Shard {
    mutable Mutex mu{LockRank::kTxnLockShard};
    CondVar cv;
    LockNode* buckets[kBucketsPerShard] C5_GUARDED_BY(mu) = {};
    LockNode* free_list C5_GUARDED_BY(mu) = nullptr;
    std::vector<std::unique_ptr<LockNode[]>> slabs C5_GUARDED_BY(mu);
    std::size_t last_slab_used C5_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(std::uint64_t name) {
    return shards_[Mix(name) & shard_mask_];
  }
  const Shard& ShardFor(std::uint64_t name) const {
    return shards_[Mix(name) & shard_mask_];
  }

  // Bucket selection uses bits the shard selection did not consume.
  static std::size_t BucketOf(std::uint64_t name) {
    return (Mix(name) >> 32) & (kBucketsPerShard - 1);
  }

  static std::uint64_t Mix(std::uint64_t h) {
    h = (h ^ (h >> 33)) * 0xFF51AFD7ED558CCDull;
    return h ^ (h >> 33);
  }

  static LockNode* Find(Shard& shard, std::uint64_t name)
      C5_REQUIRES(shard.mu);
  // Existing node for `name`, or a pooled node freshly linked into its
  // bucket (held = false, no waiters). Allocates only when the pool is dry.
  static LockNode* GetOrCreate(Shard& shard, std::uint64_t name)
      C5_REQUIRES(shard.mu);
  // Unlinks `node` from its bucket and returns it to the shard pool.
  static void Recycle(Shard& shard, LockNode* node) C5_REQUIRES(shard.mu);
  // FIFO grant condition for `who` (absent node means the lock is free).
  static bool Granted(Shard& shard, std::uint64_t name, TxnId who)
      C5_REQUIRES(shard.mu);

  std::size_t shard_mask_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace c5::txn

#endif  // C5_TXN_LOCK_MANAGER_H_
