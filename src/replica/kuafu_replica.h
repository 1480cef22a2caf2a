#ifndef C5_REPLICA_KUAFU_REPLICA_H_
#define C5_REPLICA_KUAFU_REPLICA_H_

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

// Reimplementation of KuaFu [Hong et al., ICDE'13], the state-of-the-art
// transaction-granularity cloned concurrency control protocol the paper uses
// as its baseline (§6): "writes conflict if they modify the same row, and the
// protocol serializes transactions with conflicting writes" (§3).
//
// Scheduler: builds the write-set dependency graph. Each transaction depends
// on the most recent earlier transaction that wrote each of its rows
// (last-writer edges form a total per-row order, which is all
// transaction-granularity execution needs). Zero-in-degree transactions
// enter the ready queue; workers apply a transaction's writes atomically and
// release its dependents.
//
// Visibility: transactions complete out of commit order, so a PrefixTracker
// over transaction indexes computes the contiguous applied prefix; the
// visibility timestamp is the last transaction in it (MPC, §2.3); a
// visibility thread publishes it (ReplicaBase::PrefixVisibilityLoop).
//
// `unconstrained` mode reproduces the paper's diagnostic (§7.3): the
// scheduler skips dependency calculation entirely and every transaction is
// immediately ready. This intentionally breaks correctness (writes race) and
// exists only to measure the scheduler/worker ceiling, exactly as the paper
// did ("we re-ran the experiment above but disabled its scheduler's
// calculation of transaction-granularity constraints").
class KuaFuReplica : public ReplicaBase {
 public:
  struct Options {
    int num_workers = 4;
    bool unconstrained = false;  // diagnostic mode; breaks correctness
    std::chrono::microseconds visibility_interval =
        std::chrono::microseconds(100);
  };

  KuaFuReplica(storage::Database* db, Options options,
               LagTracker* lag = nullptr);
  ~KuaFuReplica() override { Stop(); }

  void Start(log::SegmentSource* source) override;
  // Every transaction applied and walked by the prefix tracker, and the
  // published snapshot at the last transaction boundary the scheduler
  // closed (see GranularityReplica::CaughtUp for why all three).
  bool CaughtUp() const override {
    return all_applied_.load(std::memory_order_acquire) &&
           prefix_.watermark() >=
               final_txn_count_.load(std::memory_order_acquire) &&
           VisibleTimestamp() >=
               final_boundary_ts_.load(std::memory_order_acquire);
  }
  void Stop() override;
  std::string name() const override {
    return options_.unconstrained ? "kuafu-unconstrained" : "kuafu";
  }

 private:
  struct TxnNode {
    // Records of this transaction (pointers into log segments, which outlive
    // the replica's threads).
    std::vector<const log::LogRecord*> records;
    std::uint64_t txn_index = 0;
    Timestamp commit_ts = kInvalidTimestamp;

    // Dependency bookkeeping. deps starts at (#parents + 1); the extra count
    // is removed by the scheduler after all edges are wired, preventing
    // premature readiness.
    std::atomic<std::uint64_t> deps{1};
    SpinLock children_mu{LockRank::kReplicaState};
    bool completed C5_GUARDED_BY(children_mu) = false;
    std::vector<TxnNode*> children C5_GUARDED_BY(children_mu);

    // Returns true if the edge was added; false if this parent already
    // completed (the child need not wait).
    bool TryAddChild(TxnNode* child) {
      SpinLockGuard lock(children_mu);
      if (completed) return false;
      children.push_back(child);
      return true;
    }
  };

  void SchedulerLoop(log::SegmentSource* source);
  void WorkerLoop();
  void ReleaseDependents(TxnNode* node);
  void MaybeReady(TxnNode* node) {
    if (node->deps.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      ready_.Push(node);
    }
  }

  Options options_;

  MpmcQueue<TxnNode*> ready_;
  PrefixTracker prefix_;

  // All nodes, owned; appended only by the scheduler.
  std::deque<std::unique_ptr<TxnNode>> nodes_;

  std::atomic<bool> scheduler_done_{false};
  std::atomic<std::uint64_t> outstanding_txns_{0};
  std::atomic<std::uint64_t> scheduled_txns_{0};
  std::atomic<std::uint64_t> final_txn_count_{~std::uint64_t{0}};
  // Largest transaction commit timestamp the scheduler closed; what the
  // visibility watermark must reach before the replica is caught up.
  std::atomic<Timestamp> final_boundary_ts_{0};
  std::atomic<bool> all_applied_{false};
  std::atomic<bool> shutdown_{false};

  std::vector<std::thread> threads_;
};

}  // namespace c5::replica

#endif  // C5_REPLICA_KUAFU_REPLICA_H_
