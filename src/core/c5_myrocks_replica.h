#ifndef C5_CORE_C5_MYROCKS_REPLICA_H_
#define C5_CORE_C5_MYROCKS_REPLICA_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/event_count.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "replica/replica.h"

namespace c5::core {

// C5-MyRocks (§5): the backward-compatible variant deployed at Meta. Same
// row-granularity safety rule as C5Replica (a write executes only when the
// previous write to its row is in place), plus the two constraints backward
// compatibility imposed:
//
//  1. One-thread-per-transaction execution (§5.1): MyRocks's row-based
//     logging assumes all of a transaction's writes are executed by the same
//     worker. Workers pick up whole transactions in commit order; a write
//     executes once it is safe ("the worker first waits until the write
//     reaches the head of its per-row queue ... then executes it"). Rather
//     than stalling the thread on each unsafe write, a worker defers it and
//     keeps a WINDOW of open transactions (popping newer ones while older
//     ones wait on their deferred writes), completing each transaction —
//     for visibility purposes — only when its last write lands. Waiting
//     in-place instead serializes the log on contended-row-last record
//     orderings: TPC-C's write-optimized Payment puts the hot warehouse
//     write last, which made every transaction's stall cover its
//     predecessor's ENTIRE body (see docs/PERFORMANCE.md).
//  2. A blocking two-snapshot snapshotter (§5.2): RocksDB snapshots can only
//     capture the current state, so taking one requires briefly blocking
//     writes with timestamps above the chosen boundary n. The snapshot
//     frequency I is tunable; taking a snapshot can be given a simulated
//     cost to reproduce the lag spikes the paper discusses.
class C5MyRocksReplica : public replica::ReplicaBase {
 public:
  struct Options {
    int num_workers = 4;
    // Approximate snapshot frequency I (§5.2; the paper's Fig. 8 uses 10ms).
    std::chrono::microseconds snapshot_interval =
        std::chrono::microseconds(10000);
    // Simulated cost of taking a RocksDB snapshot while writers are blocked.
    std::chrono::microseconds snapshot_cost = std::chrono::microseconds(0);
    int gc_every = 0;
    // Initial capacity of the scheduler's flat row -> last-write-ts map
    // (see C5Replica::Options::scheduler_map_capacity).
    std::size_t scheduler_map_capacity = std::size_t{1} << 16;
  };

  C5MyRocksReplica(storage::Database* db, Options options,
                   replica::LagTracker* lag = nullptr);
  ~C5MyRocksReplica() override { Stop(); }

  // The log is exhausted, every worker has exited, and the snapshotter has
  // published the scheduled watermark.
  bool CaughtUp() const override {
    return scheduler_done_.load(std::memory_order_acquire) &&
           workers_running_.load(std::memory_order_acquire) == 0 &&
           VisibleTimestamp() >= watermark_.load(std::memory_order_acquire);
  }
  std::string name() const override { return "c5-myrocks"; }

 private:
  // A transaction ready for execution: contiguous records within a segment.
  struct TxnUnit {
    const log::LogRecord* first;
    std::size_t count;
    Timestamp commit_ts;
  };

  // Commit-ordered dispatch queue that atomically tracks the minimum
  // timestamp that is dispatched-or-in-flight, so the snapshotter can pick a
  // provably applied boundary n. All transitions happen under one mutex:
  // there is no window in which a transaction is neither in the queue nor in
  // a worker's in-flight slot.
  class TxnDispatchQueue {
   public:
    explicit TxnDispatchQueue(int num_workers)
        : inflight_(num_workers, kMaxTimestamp) {}

    // Enqueues a whole segment's transactions under ONE mutex acquisition
    // and one notify. The scheduler dispatches per segment; pushing per
    // transaction costs a wake-up per commit at live-primary rates
    // (hundreds of thousands of syscalls/s), which on an oversubscribed
    // host comes straight out of the primary's CPU budget.
    void PushBatch(const TxnUnit* txns, std::size_t count);
    // Blocks (spin, then park on the EventCount); returns nullopt when
    // closed and drained. With `completed_all_prior` the worker declares
    // everything it previously popped fully applied, so its floor is RESET
    // to the popped transaction (or kMaxTimestamp before it parks / at
    // close) under the pop mutex — completion and next-pop in one mutex
    // acquisition, the per-transaction fast path. Without it the floor only
    // LOWERS (min), for a worker whose window still holds older open
    // transactions. Either way MinUnapplied never misses a transaction in
    // transit.
    std::optional<TxnUnit> Pop(int worker, bool completed_all_prior = false);
    // Non-blocking Pop for a worker that still has open transactions (its
    // floor stays put — popped transactions are newer than anything open).
    std::optional<TxnUnit> TryPop(int worker);
    // Publishes `worker`'s in-flight floor: the commit timestamp of its
    // oldest incomplete transaction, or kMaxTimestamp when none remain.
    void SetFloor(int worker, Timestamp ts);
    void Close();

    // Smallest timestamp not yet fully applied (kMaxTimestamp if none
    // outstanding). Everything strictly below is applied.
    Timestamp MinUnapplied() const;

   private:
    mutable Mutex mu_{LockRank::kQueue};
    std::deque<TxnUnit> queue_ C5_GUARDED_BY(mu_);
    std::vector<Timestamp> inflight_ C5_GUARDED_BY(mu_);
    // queue_.size(), stored under mu_: lets idle workers wait off the mutex.
    alignas(64) std::atomic<std::size_t> size_hint_{0};
    std::atomic<bool> closed_{false};
    alignas(64) EventCount not_empty_;
  };

  void StartThreads() override;
  void SchedulerLoop();
  void WorkerLoop(int idx);
  void SnapshotterLoop();

  Options options_;

  TxnDispatchQueue dispatch_;
  alignas(64) std::atomic<Timestamp> watermark_{0};
  // Snapshot barrier (§5.2): while active, workers must not install writes
  // with timestamps greater than barrier_ts_. kMaxTimestamp = inactive.
  alignas(64) std::atomic<Timestamp> barrier_ts_{kMaxTimestamp};

  std::atomic<bool> scheduler_done_{false};
  std::atomic<int> workers_running_{0};
};

}  // namespace c5::core

#endif  // C5_CORE_C5_MYROCKS_REPLICA_H_
