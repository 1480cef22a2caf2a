#include "replica/granularity_replica.h"

namespace c5::replica {

const char* ToString(Granularity g) {
  switch (g) {
    case Granularity::kRow:
      return "row";
    case Granularity::kPage:
      return "page";
    case Granularity::kTable:
      return "table";
  }
  return "unknown";
}

GranularityReplica::GranularityReplica(storage::Database* db, Options options,
                                       LagTracker* lag)
    : ReplicaBase(db, lag), options_(options) {}

std::string GranularityReplica::name() const {
  switch (options_.granularity) {
    case Granularity::kRow:
      return "c5-queue(row)";
    case Granularity::kPage:
      return "page-granularity";
    case Granularity::kTable:
      return "table-granularity";
  }
  return "granularity";
}

std::uint64_t GranularityReplica::KeyFor(const log::LogRecord& rec) const {
  switch (options_.granularity) {
    case Granularity::kRow:
      return RowName(rec.table, rec.row);
    case Granularity::kPage:
      return RowName(rec.table, rec.row / options_.rows_per_page);
    case Granularity::kTable:
      return RowName(rec.table, 0);
  }
  return RowName(rec.table, rec.row);
}

void GranularityReplica::StartThreads() {
  Spawn([this] { SchedulerLoop(); });
  for (int i = 0; i < options_.num_workers; ++i) {
    Spawn([this] { WorkerLoop(); });
  }
  Spawn([this] {
    PrefixVisibilityLoop(prefix_, options_.visibility_interval);
  });
}

void GranularityReplica::SchedulerLoop() {
  std::uint64_t seq = 0;
  Timestamp final_boundary = 0;
  std::vector<KeyQueue*> batch;
  batch.reserve(kHandoffBatch);
  while (log::LogSegment* seg = NextSegment()) {
    for (const log::LogRecord& rec : seg->records()) {
      if (rec.last_in_txn && rec.commit_ts > final_boundary) {
        final_boundary = rec.commit_ts;
      }
      const std::uint64_t key = KeyFor(rec);
      auto& slot = queues_[key];
      if (slot == nullptr) slot = std::make_unique<KeyQueue>();
      KeyQueue* kq = slot.get();

      outstanding_writes_.fetch_add(1, std::memory_order_acq_rel);
      bool enqueue_kq = false;
      {
        SpinLockGuard lock(kq->mu);
        kq->writes.push_back(WriteRef{&rec, seq});
        // If the queue is not (and will not become) visible to workers, its
        // new head is eligible: hand the queue to the scheduler queue.
        if (!kq->in_sched_queue) {
          kq->in_sched_queue = true;
          enqueue_kq = true;
        }
      }
      if (enqueue_kq) {
        batch.push_back(kq);
        if (batch.size() >= kHandoffBatch) {
          sched_queue_.Push(std::move(batch));
          batch.clear();
          batch.reserve(kHandoffBatch);
        }
      }
      ++seq;
    }
    if (!batch.empty()) {
      sched_queue_.Push(std::move(batch));
      batch.clear();
      batch.reserve(kHandoffBatch);
    }
  }
  if (!batch.empty()) sched_queue_.Push(std::move(batch));
  final_boundary_ts_.store(final_boundary, std::memory_order_release);
  final_record_count_.store(seq, std::memory_order_release);
  scheduler_done_.store(true, std::memory_order_release);
  if (outstanding_writes_.load(std::memory_order_acquire) == 0) {
    all_applied_.store(true, std::memory_order_release);
    sched_queue_.Close();
  }
}

void GranularityReplica::WorkerLoop() {
  const auto guard = db_->epochs().Enter();
  std::vector<KeyQueue*> reinserts;
  while (auto batch_opt = sched_queue_.Pop()) {
    reinserts.clear();
    std::uint64_t applied = 0;
    for (KeyQueue* kq : *batch_opt) {
      // Run a bounded number of consecutive writes from this key queue
      // (per-key FIFO order is preserved; see kMaxRunPerHandoff).
      int run = 0;
      bool reinsert = false;
      while (true) {
        WriteRef ref;
        {
          SpinLockGuard lock(kq->mu);
          ref = kq->writes.front();
        }
        ApplyRecord(*ref.rec);
        prefix_.Mark(ref.seq, ref.rec->last_in_txn ? ref.rec->commit_ts
                                                   : kInvalidTimestamp);
        ++applied;
        bool more = false;
        {
          SpinLockGuard lock(kq->mu);
          kq->writes.pop_front();
          more = !kq->writes.empty();
          if (!more) kq->in_sched_queue = false;
        }
        if (!more) break;
        if (++run >= kMaxRunPerHandoff) {
          reinsert = true;
          break;
        }
      }
      if (reinsert) reinserts.push_back(kq);
    }
    if (!reinserts.empty()) {
      sched_queue_.Push(std::vector<KeyQueue*>(reinserts));
    }
    FinishWrites(applied);
  }
}

void GranularityReplica::FinishWrites(std::uint64_t n) {
  if (n == 0) return;
  if (outstanding_writes_.fetch_sub(n, std::memory_order_acq_rel) == n &&
      scheduler_done_.load(std::memory_order_acquire)) {
    all_applied_.store(true, std::memory_order_release);
    sched_queue_.Close();
  }
}

}  // namespace c5::replica
