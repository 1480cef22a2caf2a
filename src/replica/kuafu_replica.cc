#include "replica/kuafu_replica.h"

#include <unordered_set>

#include "common/clock.h"

namespace c5::replica {

KuaFuReplica::KuaFuReplica(storage::Database* db, Options options,
                           LagTracker* lag)
    : ReplicaBase(db, lag), options_(options) {}

void KuaFuReplica::StartThreads() {
  Spawn([this] { SchedulerLoop(); });
  for (int i = 0; i < options_.num_workers; ++i) {
    Spawn([this] { WorkerLoop(); });
  }
  Spawn([this] {
    PrefixVisibilityLoop(prefix_, options_.visibility_interval);
  });
}

void KuaFuReplica::SchedulerLoop() {
  // Per-row last-writer map. Transaction-granularity dependency rule (§3.1):
  // "if W(T1) ∩ W(T2) != ∅ and T1 ≺ T2, then all of T1's writes execute
  // before any of T2's." Last-writer edges enforce exactly this: per-row
  // edges chain all writers of the row in log order.
  std::unordered_map<std::uint64_t, TxnNode*> last_writer;
  std::uint64_t txn_index = 0;
  Timestamp final_boundary = 0;

  TxnNode* open = nullptr;
  while (log::LogSegment* seg = NextSegment()) {
    for (const log::LogRecord& rec : seg->records()) {
      if (open == nullptr) {
        nodes_.push_back(std::make_unique<TxnNode>());
        open = nodes_.back().get();
        open->txn_index = txn_index;
      }
      open->records.push_back(&rec);
      if (!rec.last_in_txn) continue;

      // Close the transaction: wire dependencies, then release the
      // scheduler's readiness hold.
      open->commit_ts = rec.commit_ts;
      if (rec.commit_ts > final_boundary) final_boundary = rec.commit_ts;
      outstanding_txns_.fetch_add(1, std::memory_order_acq_rel);
      scheduled_txns_.fetch_add(1, std::memory_order_release);
      if (!options_.unconstrained) {
        std::unordered_set<TxnNode*> parents;
        for (const log::LogRecord* r : open->records) {
          auto it = last_writer.find(RowName(r->table, r->row));
          if (it != last_writer.end() && it->second != open) {
            parents.insert(it->second);
          }
          last_writer[RowName(r->table, r->row)] = open;
        }
        for (TxnNode* parent : parents) parent->TryAddChild(open);
      }
      MaybeReady(open);  // removes the scheduler's +1 hold
      ++txn_index;
      open = nullptr;
    }
  }
  final_boundary_ts_.store(final_boundary, std::memory_order_release);
  final_txn_count_.store(txn_index, std::memory_order_release);
  scheduler_done_.store(true, std::memory_order_release);
  if (outstanding_txns_.load(std::memory_order_acquire) == 0) {
    all_applied_.store(true, std::memory_order_release);
    ready_.Close();
  }
}

void KuaFuReplica::WorkerLoop() {
  const auto guard = db_->epochs().Enter();
  Histogram apply_latency;
  std::uint64_t apply_tick = 0;
  while (auto node_opt = ready_.Pop()) {
    TxnNode* node = *node_opt;
    for (const log::LogRecord* rec : node->records) {
      // Sample per-record install latency (same cadence as the C5
      // replicas, so fig6's apply_p50/p99 columns compare like for like).
      // KuaFu never waits per record — dependency edges gate the whole
      // transaction — so this measures pure install cost; the
      // transaction-granularity stall shows up as throughput, not here.
      const bool sample = (apply_tick++ & (kApplySampleEvery - 1)) == 0;
      const std::int64_t sample_t0 = sample ? MonotonicNowNanos() : 0;
      // Same-row writers are serialized by the dependency edges, so the
      // shared primitive's install-if-newer is the idempotence guard under
      // at-least-once delivery / checkpoint resume. The unconstrained
      // diagnostic mode installs blindly, out of order, by design.
      if (options_.unconstrained) {
        storage::Table& table = db_->table(rec->table);
        table.EnsureRow(rec->row);
        db_->BindIfCreating(rec->table, rec->key, rec->row, rec->op,
                            rec->commit_ts,
                            table.HeadTimestamp(rec->row) != kInvalidTimestamp);
        table.InstallCommitted(rec->row, rec->commit_ts, rec->value,
                               rec->op == OpType::kDelete,
                               /*allow_out_of_order=*/true);
      } else {
        Apply(*rec, kInvalidTimestamp);
      }
      stats_.applied_writes.fetch_add(1, std::memory_order_relaxed);
      if (sample) {
        apply_latency.Record(
            static_cast<std::uint64_t>(MonotonicNowNanos() - sample_t0));
      }
    }
    stats_.applied_txns.fetch_add(1, std::memory_order_relaxed);
    ReleaseDependents(node);
    prefix_.Mark(node->txn_index, node->commit_ts);
    if (outstanding_txns_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        scheduler_done_.load(std::memory_order_acquire)) {
      all_applied_.store(true, std::memory_order_release);
      ready_.Close();
    }
  }
  MergeApplyLatency(apply_latency);
}

void KuaFuReplica::ReleaseDependents(TxnNode* node) {
  std::vector<TxnNode*> children;
  {
    SpinLockGuard lock(node->children_mu);
    node->completed = true;
    children.swap(node->children);
  }
  for (TxnNode* child : children) MaybeReady(child);
}

}  // namespace c5::replica
