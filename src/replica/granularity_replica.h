#ifndef C5_REPLICA_GRANULARITY_REPLICA_H_
#define C5_REPLICA_GRANULARITY_REPLICA_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/mpmc_queue.h"
#include "common/spin_lock.h"
#include "common/thread_annotations.h"
#include "replica/replica.h"

namespace c5::replica {

// Execution granularity of the keyed-FIFO scheduler. Row granularity is the
// paper's §4.1 design (this replica IS the design-faithful C5 variant, with
// explicit per-row queues and a scheduler queue exactly as in Fig. 4); page
// and table granularity reproduce the baseline protocols of §3.1.1 and the
// Meta table-granularity protocol of Fig. 12 by simply coarsening the key.
enum class Granularity {
  kRow = 0,
  kPage = 1,   // rows_per_page rows share one serialization key (§3.1.1)
  kTable = 2,  // all writes to a table serialize (Fig. 12 baseline)
};

const char* ToString(Granularity g);

// Generic keyed-FIFO cloned concurrency control (§4.1):
//
//   "the scheduler logically constructs a FIFO queue for each row whose
//    order reflects the order of the row's writes in the log. ... a worker
//    chooses the next write for execution by first removing the per-row
//    queue at the head of the scheduler queue and then executing the write
//    at its head. When the worker finishes executing the write, the per-row
//    queue is reinserted into the scheduler queue."
//
// A write becomes eligible when it reaches the head of its key queue; the
// scheduler queue holds key queues with an eligible head. Coarsening the key
// (page, table) yields the less-parallel baselines; with the row key the
// execution constraints are exactly the row-granularity protocol proven
// minimal in Theorem 2.
//
// Visibility: writes complete out of transaction order, so a PrefixTracker
// over record sequence numbers computes the transaction-aligned snapshot,
// which a visibility thread publishes (ReplicaBase::PrefixVisibilityLoop).
class GranularityReplica : public ReplicaBase {
 public:
  struct Options {
    int num_workers = 4;
    Granularity granularity = Granularity::kRow;
    std::uint64_t rows_per_page = 64;  // §3.1.1's page-capacity assumption
    std::chrono::microseconds visibility_interval =
        std::chrono::microseconds(100);
  };

  GranularityReplica(storage::Database* db, Options options,
                     LagTracker* lag = nullptr);
  ~GranularityReplica() override { Stop(); }

  void Start(log::SegmentSource* source) override;
  // Every record applied and walked by the prefix tracker, and the
  // published snapshot at the last transaction boundary the scheduler saw:
  // the visibility thread publishes after the tracker advances, so right
  // after the last apply VisibleTimestamp() can still read a stale value,
  // even 0. (Found by the DST harness under TSan timing.)
  bool CaughtUp() const override {
    return all_applied_.load(std::memory_order_acquire) &&
           prefix_.watermark() >=
               final_record_count_.load(std::memory_order_acquire) &&
           VisibleTimestamp() >=
               final_boundary_ts_.load(std::memory_order_acquire);
  }
  void Stop() override;
  std::string name() const override;

  // Diagnostics (tests/benches).
  bool scheduler_done() const {
    return scheduler_done_.load(std::memory_order_acquire);
  }
  std::size_t sched_queue_size() const { return sched_queue_.Size(); }
  std::uint64_t outstanding_writes() const {
    return outstanding_writes_.load(std::memory_order_acquire);
  }

 private:
  struct WriteRef {
    const log::LogRecord* rec;
    std::uint64_t seq;
  };

  // One per serialization key. The spinlock guards the deque and the
  // in-scheduler-queue flag; writes are executed outside the lock.
  struct KeyQueue {
    SpinLock mu{LockRank::kReplicaState};
    std::deque<WriteRef> writes C5_GUARDED_BY(mu);
    bool in_sched_queue C5_GUARDED_BY(mu) = false;
  };

  std::uint64_t KeyFor(const log::LogRecord& rec) const;

  void SchedulerLoop(log::SegmentSource* source);
  void WorkerLoop();
  void FinishWrites(std::uint64_t n);

  // Handoff batching: the logical scheduler queue hands off one eligible
  // key queue per entry (§4.1), but moving them one at a time through a
  // shared queue costs a futex round-trip per WRITE. Batching the handoffs
  // (and letting a worker run a bounded number of consecutive writes from
  // the same key queue) preserves per-key FIFO order exactly while
  // amortizing the queue cost.
  static constexpr std::size_t kHandoffBatch = 512;
  static constexpr int kMaxRunPerHandoff = 64;

  Options options_;

  // Key -> queue. Created only by the scheduler; workers reach queues via
  // pointers in the scheduler queue, so the map itself is scheduler-private.
  std::unordered_map<std::uint64_t, std::unique_ptr<KeyQueue>> queues_;

  MpmcQueue<std::vector<KeyQueue*>> sched_queue_;
  PrefixTracker prefix_;

  std::atomic<bool> scheduler_done_{false};
  std::atomic<std::uint64_t> outstanding_writes_{0};
  std::atomic<std::uint64_t> final_record_count_{~std::uint64_t{0}};
  // Largest transaction-boundary timestamp the scheduler enqueued; what the
  // visibility watermark must reach before the replica is caught up.
  std::atomic<Timestamp> final_boundary_ts_{0};
  std::atomic<bool> all_applied_{false};
  std::atomic<bool> shutdown_{false};

  std::vector<std::thread> threads_;
};

}  // namespace c5::replica

#endif  // C5_REPLICA_GRANULARITY_REPLICA_H_
