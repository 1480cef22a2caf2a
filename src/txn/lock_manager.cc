#include "txn/lock_manager.h"

#include "common/spin_lock.h"

#include <algorithm>
#include <memory>

namespace c5::txn {

namespace {
std::size_t NextPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

LockManager::LockManager(int shard_count) {
  const std::size_t shards =
      NextPow2(static_cast<std::size_t>(std::max(shard_count, 1)));
  shard_mask_ = shards - 1;
  shards_ = std::make_unique<Shard[]>(shards);
}

LockManager::LockNode* LockManager::Find(Shard& shard, std::uint64_t name) {
  for (LockNode* n = shard.buckets[BucketOf(name)]; n != nullptr;
       n = n->next) {
    if (n->name == name) return n;
  }
  return nullptr;
}

LockManager::LockNode* LockManager::GetOrCreate(Shard& shard,
                                                std::uint64_t name) {
  const std::size_t b = BucketOf(name);
  for (LockNode* n = shard.buckets[b]; n != nullptr; n = n->next) {
    if (n->name == name) return n;
  }
  LockNode* n = shard.free_list;
  if (n != nullptr) {
    shard.free_list = n->next;
  } else {
    if (shard.slabs.empty() || shard.last_slab_used == kSlabNodes) {
      shard.slabs.push_back(std::make_unique<LockNode[]>(kSlabNodes));
      shard.last_slab_used = 0;
    }
    n = &shard.slabs.back()[shard.last_slab_used++];
  }
  n->name = name;
  n->held = false;
  n->owner = 0;
  n->waiters.reset();
  n->next = shard.buckets[b];
  shard.buckets[b] = n;
  return n;
}

void LockManager::Recycle(Shard& shard, LockNode* node) {
  LockNode** link = &shard.buckets[BucketOf(node->name)];
  while (*link != node) link = &(*link)->next;
  *link = node->next;
  node->next = shard.free_list;
  shard.free_list = node;
}

bool LockManager::Granted(Shard& shard, std::uint64_t name, TxnId who) {
  const LockNode* n = Find(shard, name);
  if (n == nullptr) return true;  // recycled: lock free
  return !n->held && !n->waiters.empty() && n->waiters.front() == who;
}

bool LockManager::Acquire(TxnId txn, TableId table, RowId row,
                          std::chrono::steady_clock::time_point deadline) {
  const std::uint64_t name = RowName(table, row);
  Shard& shard = ShardFor(name);

  // Phase 1: opportunistic spin. Sleeping in the FIFO queue costs a futex
  // wake per lock handoff, which caps hot-row transfer rates far below the
  // storage engine's apply cost; spinning first makes contended handoffs
  // sub-microsecond. Spinners only grab when no FIFO waiter is queued, so
  // queued waiters are never overtaken.
  // Randomized pause between grab attempts keeps a pack of spinners from
  // convoying the shard mutex (which would starve the lock releaser).
  const int pause = 4 + static_cast<int>(txn & 15);
  for (int spin = 0; spin < 256; ++spin) {
    {
      MutexLock fast(shard.mu);
      LockNode* n = Find(shard, name);
      if (n == nullptr) {
        n = GetOrCreate(shard, name);
        n->held = true;
        n->owner = txn;
        return true;
      }
      if (n->held && n->owner == txn) return true;  // re-entrant
      if (!n->held && n->waiters.empty()) {
        n->held = true;
        n->owner = txn;
        return true;
      }
    }
    if ((spin & 63) == 0 && std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    for (int p = 0; p < pause; ++p) CpuRelax();
  }

  // Phase 2: FIFO queue with blocking wait.
  MutexLock lock(shard.mu);
  LockNode* entry = GetOrCreate(shard, name);

  if (entry->held && entry->owner == txn) return true;  // re-entrant
  if (!entry->held && entry->waiters.empty()) {
    entry->held = true;
    entry->owner = txn;
    return true;
  }

  // FIFO wait: enqueue and wait until we are at the front and the lock is
  // free. Other entries in this shard share the condition variable, so
  // spurious wakeups are expected; the condition is re-checked on every
  // wake. (Granted is an annotated method, not a lambda, so the
  // thread-safety analysis sees the guarded reads under the held
  // capability. The node may have been recycled and reused while we
  // slept; re-find.)
  entry->waiters.push(txn);
  bool ok = true;
  while (!Granted(shard, name, txn)) {
    if (shard.cv.WaitUntil(lock, deadline) == std::cv_status::timeout) {
      ok = Granted(shard, name, txn);
      break;
    }
  }

  LockNode* e = Find(shard, name);
  if (e == nullptr) {
    // Node vanished while we waited (released with no other waiters and
    // recycled). Recreate and take it.
    e = GetOrCreate(shard, name);
    e->held = true;
    e->owner = txn;
    return true;
  }
  if (!ok) {
    // Timed out: withdraw our request.
    if (e->waiters.withdraw(txn)) {
      // If we were blocking the new front, wake it.
      shard.cv.NotifyAll();
      return false;
    }
    // We were already at the front and eligible; fall through and take it.
    if (e->held || e->waiters.empty() || e->waiters.front() != txn) {
      return false;
    }
  }
  // Granted: we are at the front and the lock is free.
  e->waiters.pop();
  e->held = true;
  e->owner = txn;
  return true;
}

void LockManager::Release(TxnId txn, TableId table, RowId row) {
  const std::uint64_t name = RowName(table, row);
  Shard& shard = ShardFor(name);
  MutexLock lock(shard.mu);
  LockNode* n = Find(shard, name);
  if (n == nullptr) return;
  if (!n->held || n->owner != txn) return;
  n->held = false;
  n->owner = 0;
  if (n->waiters.empty()) {
    Recycle(shard, n);
  } else {
    shard.cv.NotifyAll();
  }
}

std::size_t LockManager::LockedRowCountApprox() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i <= shard_mask_; ++i) {
    MutexLock lock(shards_[i].mu);
    for (std::size_t b = 0; b < kBucketsPerShard; ++b) {
      for (const LockNode* n = shards_[i].buckets[b]; n != nullptr;
           n = n->next) {
        count += n->held ? 1 : 0;
      }
    }
  }
  return count;
}

}  // namespace c5::txn
