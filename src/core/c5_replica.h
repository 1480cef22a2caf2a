// C5-Cicada backup: scheduler / workers pipeline (§7.2); the workers
// advance the visible snapshot themselves.
//
// Invariants the pipeline maintains, on which every reader of the backup
// relies:
//  * Per-row order: a write executes only after the previous write to its
//    row (identified by prev_ts) is installed, so each row's version chain
//    is always a prefix of the primary's history for that row.
//  * Transaction-boundary snapshots: each worker's published c' stays below
//    any transaction it has partially applied, so the snapshot
//    c = min(watermark, min c') never exposes a torn transaction.
//  * Monotonicity: watermark, c', and the visible snapshot only advance —
//    read-only transactions observe monotonic prefix consistency.
//  * Non-blocking reads: advancing c is one atomic store that never stops
//    a worker; versions are guarded by storage epochs, never locks.

#ifndef C5_CORE_C5_REPLICA_H_
#define C5_CORE_C5_REPLICA_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "storage/checkpoint.h"

#include "common/event_count.h"
#include "common/spin_lock.h"
#include "common/thread_annotations.h"
#include "common/spsc_queue.h"
#include "replica/replica.h"

namespace c5::core {

// C5-Cicada (§7.2): the faithful implementation of the paper's design.
//
// Scheduler (single thread): embeds the per-row FIFO queues in the log by
// setting each record's prev_timestamp to the timestamp of the preceding
// write to the same row ("dynamically allocating and managing these queues
// prevented the single-threaded scheduler from keeping up with Cicada"),
// then PARTITIONS each segment's records by scheduler key (a hash of the
// row's name) into one batch per worker. Row affinity is the load-balancing
// AND ordering story: every write of a row lands on the same worker in log
// order, so a worker never waits on a predecessor owned by a peer — the
// deferred queue below survives only as a defensive fallback.
//
// Workers: apply their batch's records in order; a write is safe to execute
// iff the newest version of its row carries exactly prev_timestamp (with row
// affinity that always holds; anything else is deferred to a worker-local
// FIFO re-checked at batch boundaries). Visibility is EPOCH-BATCHED: a
// worker publishes c' = (smallest timestamp it might still execute) - 1
// once per batch — a local epoch bump — instead of once per record. The
// published c' can only lag the true per-worker floor, never exceed it, so
// the snapshot the aggregator derives stays a valid prefix point.
//
// Aggregation: the paper's snapshotter "periodically" advances the current
// snapshot c to min(watermark, min over workers of c'). Here the WORKERS
// are the aggregator: each one advances c right after every c' it
// publishes (AdvanceVisible), so a write becomes visible as soon as the
// worker that applied it finishes its batch, not at the next tick. A
// period only pays where taking a snapshot blocks writers (C5-MyRocks'
// §5.2 barrier); here it is one monotone atomic store. Because every write
// of a transaction carries the transaction's commit timestamp and a
// worker's c' stays below any batch it has not finished, c always lands on
// a transaction boundary — monotonic prefix consistency without ever
// blocking workers (§4.2's current/next/future snapshots realized through
// version timestamps). The last worker to exit at end of log publishes the
// whole log.
//
// Maintenance: a separate thread, started only when GC or checkpointing is
// configured, runs them every `snapshot_interval`.
class C5Replica : public replica::ReplicaBase {
 public:
  struct Options {
    int num_workers = 4;
    // Tick of the maintenance thread (GC and checkpoints). Visibility does
    // not wait for it: workers advance the snapshot themselves.
    std::chrono::microseconds snapshot_interval =
        std::chrono::microseconds(100);
    // If > 0, the maintenance thread garbage-collects version chains every
    // `gc_every` ticks using the replica's safe horizon.
    int gc_every = 0;
    // If non-empty and checkpoint_every > 0, the maintenance thread writes
    // a consistent checkpoint of the backup (storage/checkpoint.h) at the
    // current snapshot every `checkpoint_every` ticks, and once more at end
    // of log. On restart, load the checkpoint and resume the archived log
    // with ha::ResumeSegmentSource from the loaded timestamp. The write
    // never blocks workers (the multi-version store keeps the snapshot
    // stable).
    std::string checkpoint_path;
    int checkpoint_every = 0;
    // Initial capacity of the scheduler's flat row -> last-write-ts map.
    // Pre-size to the replayed log's row universe to avoid rehash stalls on
    // the single scheduler thread mid-replay.
    std::size_t scheduler_map_capacity = std::size_t{1} << 16;
  };

  // Per-worker load accounting for the fleet-model scaling methodology
  // (BENCH_replay.json worker_scaling): records applied by the worker and
  // the CPU nanoseconds its batch processing consumed
  // (CLOCK_THREAD_CPUTIME_ID deltas, so co-scheduling on a small host does
  // not charge a worker for its peers' time). Idle time between batches
  // is excluded — the numbers answer "what does this worker's share of the
  // apply work cost on dedicated hardware".
  struct WorkerLoad {
    std::uint64_t applied_records = 0;
    std::uint64_t cpu_ns = 0;
  };

  C5Replica(storage::Database* db, Options options,
            replica::LagTracker* lag = nullptr);
  ~C5Replica() override { Stop(); }

  void Start(log::SegmentSource* source) override;
  // The log is exhausted, every worker has exited, and the snapshot covers
  // the scheduled watermark.
  bool CaughtUp() const override {
    return scheduler_done_.load(std::memory_order_acquire) &&
           workers_running_.load(std::memory_order_acquire) == 0 &&
           VisibleTimestamp() >= watermark_.load(std::memory_order_acquire);
  }
  void Stop() override;
  std::string name() const override { return "c5"; }

  // Largest commit timestamp fully scheduled (diagnostics / tests).
  Timestamp watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }

  // Snapshot timestamp of the last checkpoint written (0 if none).
  Timestamp last_checkpoint_ts() const {
    return last_checkpoint_ts_.load(std::memory_order_acquire);
  }

  // Per-worker apply/CPU accounting, index-aligned with the worker ids.
  // Coherent after WaitUntilCaughtUp (workers flush once per batch).
  std::vector<WorkerLoad> WorkerLoads() const;

 private:
  // One worker's slice of one segment: pointers into the segment's record
  // array, in log order (row affinity means they are also in per-row order).
  // Pooled and recycled through the free list below, so steady-state
  // scheduling allocates nothing.
  struct Batch {
    std::vector<const log::LogRecord*> recs;  // capacity survives reuse
    // min commit_ts across recs, minus 1: the worker's c' while the batch
    // is in flight. Everything at or above floor+1 is unexecuted by this
    // worker until the batch completes.
    Timestamp floor = 0;
  };

  struct WorkerState {
    explicit WorkerState(std::size_t queue_capacity)
        : queue(queue_capacity) {}
    SpscQueue<Batch*> queue;
    // c' (§7.2): one writer (the worker), read by every worker's
    // AdvanceVisible. Bumped once per batch (the "local epoch"), not per
    // record. Stored and loaded seq_cst (see AdvanceVisible).
    alignas(64) std::atomic<Timestamp> c_prime{0};
    // Fleet-model load accounting, flushed once per batch.
    std::atomic<std::uint64_t> applied_records{0};
    std::atomic<std::uint64_t> cpu_ns{0};
  };

  void SchedulerLoop(log::SegmentSource* source);
  // Closes every worker queue and wakes parked workers (end of log, Stop).
  void CloseWorkerQueues();
  void WorkerLoop(int idx);
  // Advances the visible snapshot to min(watermark, min c'). Called by a
  // worker after every c' it publishes; monotone, so concurrent callers
  // are safe.
  void AdvanceVisible();
  // GC and checkpoints every snapshot_interval; only started when one of
  // them is configured.
  void MaintenanceLoop();
  bool Checkpointing() const {
    return options_.checkpoint_every > 0 && !options_.checkpoint_path.empty();
  }

  Batch* AcquireBatch();
  void ReleaseBatch(Batch* batch);

  // Counter deltas a worker accumulates locally and flushes into stats_
  // once per batch (epoch-batched, like c').
  struct LocalCounts {
    std::uint64_t applied_writes = 0;
    std::uint64_t applied_txns = 0;
    std::uint64_t deferred_writes = 0;
  };
  void FlushCounts(LocalCounts& counts);

  // Attempts one deferred-queue sweep; returns true if progress was made.
  bool RetryDeferred(std::deque<const log::LogRecord*>& deferred,
                     LocalCounts& counts);

  // Applies one record if its predecessor is in place. Returns false to
  // defer; a deferred record retries through the same call (row-slot
  // creation and the index bind are idempotent).
  bool TryApply(const log::LogRecord& rec, LocalCounts& counts);

  Options options_;

  std::vector<std::unique_ptr<WorkerState>> workers_;
  alignas(64) std::atomic<Timestamp> watermark_{0};
  // Idle workers park here; the scheduler notifies once per segment (after
  // the watermark store) and on close.
  EventCount work_event_;
  std::atomic<Timestamp> last_checkpoint_ts_{0};
  std::atomic<bool> scheduler_done_{false};
  std::atomic<int> workers_running_{0};
  std::atomic<bool> shutdown_{false};

  // Batch pool: the scheduler acquires, workers release. Locked once per
  // batch on each side; batch_storage_ owns every batch ever created.
  SpinLock pool_lock_{LockRank::kReplicaState};
  std::vector<std::unique_ptr<Batch>> batch_storage_ C5_GUARDED_BY(pool_lock_);
  std::vector<Batch*> batch_free_ C5_GUARDED_BY(pool_lock_);

  std::vector<std::thread> threads_;
};

}  // namespace c5::core

#endif  // C5_CORE_C5_REPLICA_H_
