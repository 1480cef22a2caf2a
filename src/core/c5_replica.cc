#include "core/c5_replica.h"

#include <algorithm>
#include <mutex>

#include "common/clock.h"
#include "common/flat_map.h"
#include "common/histogram.h"
#include "common/thread_util.h"

namespace c5::core {

C5Replica::C5Replica(storage::Database* db, Options options,
                     replica::LagTracker* lag)
    : ReplicaBase(db, lag), options_(options) {
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.push_back(std::make_unique<WorkerState>(/*queue_capacity=*/4096));
  }
}

void C5Replica::Start(log::SegmentSource* source) {
  workers_running_.store(options_.num_workers, std::memory_order_release);
  threads_.emplace_back([this, source] { SchedulerLoop(source); });
  for (int i = 0; i < options_.num_workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
  if (options_.gc_every > 0 || Checkpointing()) {
    threads_.emplace_back([this] { MaintenanceLoop(); });
  }
}

C5Replica::Batch* C5Replica::AcquireBatch() {
  {
    const SpinLockGuard lock(pool_lock_);
    if (!batch_free_.empty()) {
      Batch* b = batch_free_.back();
      batch_free_.pop_back();
      return b;
    }
  }
  // Pool miss: only during warm-up (steady state recycles). Keep the
  // allocation outside the lock.
  auto owned = std::make_unique<Batch>();
  Batch* b = owned.get();
  const SpinLockGuard lock(pool_lock_);
  batch_storage_.push_back(std::move(owned));
  return b;
}

void C5Replica::ReleaseBatch(Batch* batch) {
  batch->recs.clear();  // keeps capacity — the point of pooling
  batch->floor = 0;
  const SpinLockGuard lock(pool_lock_);
  batch_free_.push_back(batch);
}

void C5Replica::SchedulerLoop(log::SegmentSource* source) {
  // Row id -> timestamp of the last write seen for it. This is the entire
  // scheduler state (§7.2): per-row FIFOs are embedded in the log via
  // prev_timestamp instead of being materialized. A pre-sized flat map
  // keeps the single scheduler thread off the allocator and out of
  // node-based pointer chasing — it touches exactly one cache line per
  // record in the common case.
  FlatMap<Timestamp> last_write_ts(options_.scheduler_map_capacity);
  const std::size_t nw = workers_.size();
  std::vector<Batch*> out(nw, nullptr);

  while (log::LogSegment* seg = source->Next()) {
    for (log::LogRecord& rec : seg->records()) {
      const std::uint64_t name = RowName(rec.table, rec.row);
      Timestamp& last = last_write_ts[name];
      rec.prev_ts = last;
      // Monotone, never rewound: an at-least-once redelivery of an old
      // segment would otherwise reset the row's chain position, and the
      // NEXT new write would be scheduled against the stale predecessor —
      // it can then install before the true predecessor, whose record the
      // idempotence guard subsequently skips, leaving a permanent hole in
      // the row's history. A redelivered record itself gets prev_ts >= its
      // own timestamp, which resolves as kAlreadyApplied once the row
      // catches up. (Found by the DST stale-duplicate schedule.)
      if (rec.commit_ts > last) last = rec.commit_ts;

      // Partition by scheduler key: Fibonacci-mix the row name so dense row
      // ids spread evenly, then reduce mod N. Row affinity is both the
      // load-balancing and the ordering argument — every write of a row
      // lands on the same worker in log order, so predecessors are always
      // installed by the time the successor is attempted (redeliveries are
      // stale and resolve as kAlreadyApplied). Record pointers stay in log
      // order within a batch; the segment's own record array is never
      // reordered (prev_ts chains stay inspectable in log order).
      const std::size_t widx = static_cast<std::size_t>(
                                   (name * 0x9E3779B97F4A7C15ull) >> 32) %
                               nw;
      Batch*& b = out[widx];
      if (b == nullptr) b = AcquireBatch();
      const Timestamp rec_floor = rec.commit_ts - 1;
      if (b->recs.empty() || rec_floor < b->floor) b->floor = rec_floor;
      b->recs.push_back(&rec);
    }
    seg->MarkPreprocessed();
    // Hand batches to workers BEFORE publishing the watermark: an idle
    // worker that read the watermark and then found its queue empty may
    // publish that watermark as its c', which is only safe if every batch
    // enqueued afterwards carries timestamps at or above the watermark.
    for (std::size_t i = 0; i < nw; ++i) {
      if (out[i] != nullptr) {
        workers_[i]->queue.Push(out[i]);
        out[i] = nullptr;
      }
    }
    // Monotone for the same reason as the scheduler map: a redelivered old
    // segment must not regress the watermark (a regression as the FINAL
    // delivery would pin the visible snapshot below end-of-log forever).
    // Single writer, so load+store suffices.
    if (!seg->empty() &&
        seg->MaxTimestamp() > watermark_.load(std::memory_order_relaxed)) {
      watermark_.store(seg->MaxTimestamp(), std::memory_order_release);
    }
    // AFTER the watermark store: a parked worker must wake to follow the
    // watermark even when this segment gave it no batch, or its stale c'
    // pins min(c') and visibility stops.
    work_event_.NotifyAll();
  }
  scheduler_done_.store(true, std::memory_order_release);
  CloseWorkerQueues();
}

void C5Replica::CloseWorkerQueues() {
  for (auto& w : workers_) w->queue.Close();
  work_event_.NotifyAll();
}

void C5Replica::FlushCounts(LocalCounts& counts) {
  if (counts.applied_writes != 0) {
    stats_.applied_writes.fetch_add(counts.applied_writes,
                                    std::memory_order_relaxed);
  }
  if (counts.applied_txns != 0) {
    stats_.applied_txns.fetch_add(counts.applied_txns,
                                  std::memory_order_relaxed);
  }
  if (counts.deferred_writes != 0) {
    stats_.deferred_writes.fetch_add(counts.deferred_writes,
                                     std::memory_order_relaxed);
  }
  counts = LocalCounts{};
}

bool C5Replica::TryApply(const log::LogRecord& rec, LocalCounts& counts) {
  // kAlreadyApplied records (at-least-once delivery, checkpoint resume)
  // count as applied so caught-up accounting and c' advancement still hold.
  if (Apply(rec, rec.prev_ts) == storage::PrevInstall::kNotReady) {
    return false;
  }
  ++counts.applied_writes;
  if (rec.last_in_txn) ++counts.applied_txns;
  return true;
}

bool C5Replica::RetryDeferred(std::deque<const log::LogRecord*>& deferred,
                              LocalCounts& counts) {
  bool progress = false;
  // FIFO sweep: earlier (smaller-timestamp) writes unblock later ones.
  for (std::size_t n = deferred.size(); n > 0; --n) {
    const log::LogRecord* rec = deferred.front();
    deferred.pop_front();
    if (TryApply(*rec, counts)) {
      progress = true;
    } else {
      deferred.push_back(rec);
    }
  }
  return progress;
}

void C5Replica::WorkerLoop(int idx) {
  const auto guard = db_->epochs().Enter();
  WorkerState& me = *workers_[idx];
  std::deque<const log::LogRecord*> deferred;
  Histogram apply_latency;
  std::uint64_t apply_tick = 0;
  LocalCounts counts;

  // Every c' store is followed by a visibility advance: the workers are
  // the aggregator (see AdvanceVisible).
  auto publish_c_prime = [&me, this](Timestamp floor) {
    me.c_prime.store(floor, std::memory_order_seq_cst);
    AdvanceVisible();
  };
  // Fleet-model accounting: credit this batch's applied records and
  // thread-CPU time to the worker, then flush the stats deltas. Idle
  // time between batches is deliberately outside the measured window.
  auto account_batch = [&me, &counts, this](std::int64_t cpu_start) {
    me.cpu_ns.fetch_add(
        static_cast<std::uint64_t>(ThreadCpuNowNanos() - cpu_start),
        std::memory_order_relaxed);
    me.applied_records.fetch_add(counts.applied_writes,
                                 std::memory_order_relaxed);
    FlushCounts(counts);
  };

  int idle_spins = 0;
  bool end_of_log = false;
  while (true) {
    // Read the watermark BEFORE checking the queue (see SchedulerLoop).
    const Timestamp idle_floor = watermark_.load(std::memory_order_acquire);
    auto batch_opt = me.queue.TryPop();
    if (!batch_opt.has_value()) {
      if (!deferred.empty()) {
        // Defensive fallback: unreachable under row affinity (a row's
        // records always land here in log order), kept for robustness.
        const std::int64_t cpu0 = ThreadCpuNowNanos();
        if (RetryDeferred(deferred, counts)) idle_spins = 0;
        account_batch(cpu0);
        if (!deferred.empty()) {
          publish_c_prime(deferred.front()->commit_ts - 1);
          SpinBackoff(idle_spins);
        } else {
          publish_c_prime(idle_floor);
        }
        continue;
      }
      publish_c_prime(idle_floor);
      if (me.queue.closed()) {
        // Read before the re-check: once the scheduler is done, every batch
        // it will ever push is already visible to the TryPop below.
        end_of_log = scheduler_done_.load(std::memory_order_acquire);
        // Re-check after observing closure (a batch may have raced in).
        batch_opt = me.queue.TryPop();
        if (!batch_opt.has_value()) break;
      } else {
        // Park until the scheduler hands over a batch, moves the watermark
        // this idle worker publishes as its c', or closes the queue. Each
        // of those is followed by a work_event_ notify.
        work_event_.Await([&] {
          return me.queue.SizeApprox() != 0 || me.queue.closed() ||
                 watermark_.load(std::memory_order_acquire) != idle_floor;
        });
        continue;
      }
    }

    Batch* batch = *batch_opt;
    idle_spins = 0;  // new wait episode once this batch is done
    // ONE c' bump per batch — the epoch-batched visibility publication.
    // Everything this worker might still execute is above the batch floor;
    // older deferred writes (if any) take precedence. Published BEFORE the
    // first apply so no visibility advance can observe a torn batch: c'
    // only lags the true floor, never exceeds it.
    publish_c_prime(deferred.empty()
                        ? batch->floor
                        : std::min(batch->floor,
                                   deferred.front()->commit_ts - 1));

    const std::int64_t cpu0 = ThreadCpuNowNanos();
    for (const log::LogRecord* rp : batch->recs) {
      const log::LogRecord& rec = *rp;
      bool applied;
      if ((apply_tick++ & (kApplySampleEvery - 1)) == 0) {
        const std::int64_t t0 = MonotonicNowNanos();
        applied = TryApply(rec, counts);
        if (applied) {
          apply_latency.Record(
              static_cast<std::uint64_t>(MonotonicNowNanos() - t0));
        }
      } else {
        applied = TryApply(rec, counts);
      }
      if (!applied) {
        // Defer and move on; deferred writes are re-checked at batch
        // boundaries (§7.2). Row affinity makes this unreachable in
        // practice (the predecessor was applied by THIS worker earlier in
        // the batch stream), but redelivery and crash-restart schedules
        // keep the guard honest.
        deferred.push_back(&rec);
        ++counts.deferred_writes;
      }
    }
    // §7.2: re-check deferred writes at the end of each batch.
    RetryDeferred(deferred, counts);
    account_batch(cpu0);
    if (!deferred.empty()) {
      publish_c_prime(deferred.front()->commit_ts - 1);
    }
    ReleaseBatch(batch);
  }

  // The loop only exits with no deferred writes left. At end of log this
  // worker will execute nothing more, so its c' stops constraining the
  // snapshot, and the last worker out publishes the whole log. A Stop()
  // mid-stream keeps the idle floor published above: the scheduler may
  // still push batches this worker will never apply.
  MergeApplyLatency(apply_latency);
  if (end_of_log) publish_c_prime(kMaxTimestamp);
  workers_running_.fetch_sub(1, std::memory_order_acq_rel);
}

void C5Replica::AdvanceVisible() {
  // n = min(watermark, min over workers of c') (§7.2). The c' loads pair
  // with the seq_cst c' stores: two workers that publish at the same time
  // cannot both miss the other's store, so the later one's scan sees both
  // and the snapshot never stalls with every worker parked.
  Timestamp n = watermark_.load(std::memory_order_seq_cst);
  for (const auto& w : workers_) {
    const Timestamp cp = w->c_prime.load(std::memory_order_seq_cst);
    if (cp < n) n = cp;
  }
  PublishVisible(n);
}

void C5Replica::MaintenanceLoop() {
  const bool checkpointing = Checkpointing();
  auto checkpoint = [this] {
    const Timestamp c = VisibleTimestamp();
    if (c > last_checkpoint_ts_.load(std::memory_order_relaxed) &&
        storage::WriteCheckpoint(*db_, c, options_.checkpoint_path).ok()) {
      last_checkpoint_ts_.store(c, std::memory_order_release);
    }
  };
  auto every = [](std::uint64_t tick, int n) {
    return n > 0 && tick % static_cast<std::uint64_t>(n) == 0;
  };
  Ticker ticker(options_.snapshot_interval);
  for (std::uint64_t tick = 1;; ++tick) {
    if (every(tick, options_.gc_every)) db_->CollectGarbage(GcHorizon());
    if (checkpointing && every(tick, options_.checkpoint_every)) checkpoint();

    // End of log before shutdown: WaitUntilCaughtUp returns as soon as the
    // last worker has published the whole log, so a Stop() right after it
    // must still find this branch. A caught-up replica with checkpointing
    // enabled always leaves a checkpoint at end-of-log: a short replay can
    // finish before the periodic schedule above ever fires.
    if (scheduler_done_.load(std::memory_order_acquire) &&
        workers_running_.load(std::memory_order_acquire) == 0) {
      if (checkpointing) checkpoint();
      break;
    }
    if (shutdown_.load(std::memory_order_acquire)) break;
    ticker.Wait();
  }
}

std::vector<C5Replica::WorkerLoad> C5Replica::WorkerLoads() const {
  std::vector<WorkerLoad> loads;
  loads.reserve(workers_.size());
  for (const auto& w : workers_) {
    loads.push_back(
        WorkerLoad{w->applied_records.load(std::memory_order_acquire),
                   w->cpu_ns.load(std::memory_order_acquire)});
  }
  return loads;
}

void C5Replica::Stop() {
  shutdown_.store(true, std::memory_order_release);
  CloseWorkerQueues();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

}  // namespace c5::core
