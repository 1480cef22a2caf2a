#include "core/c5_myrocks_replica.h"

#include <algorithm>

#include "common/clock.h"
#include "common/flat_map.h"
#include "common/histogram.h"
#include "common/spin_lock.h"
#include "common/thread_util.h"

namespace c5::core {

// ---------------------------------------------------------------------------
// TxnDispatchQueue

void C5MyRocksReplica::TxnDispatchQueue::PushBatch(const TxnUnit* txns,
                                                   std::size_t count) {
  if (count == 0) return;
  {
    MutexLock lock(mu_);
    queue_.insert(queue_.end(), txns, txns + count);
    size_hint_.store(queue_.size(), std::memory_order_release);
  }
  // A multi-transaction batch has work for the whole pool.
  if (count > 1) {
    not_empty_.NotifyAll();
  } else {
    not_empty_.NotifyOne();
  }
}

std::optional<C5MyRocksReplica::TxnUnit>
C5MyRocksReplica::TxnDispatchQueue::Pop(int worker,
                                        bool completed_all_prior) {
  while (true) {
    {
      MutexLock lock(mu_);
      // A floor reset (completion declared) must land before the worker
      // parks or returns at close: a stale floor would pin MinUnapplied
      // below work that is already fully applied, stalling the snapshot
      // boundary for as long as the worker sleeps.
      if (completed_all_prior) inflight_[worker] = kMaxTimestamp;
      completed_all_prior = false;
      if (!queue_.empty()) {
        const TxnUnit txn = queue_.front();
        queue_.pop_front();
        size_hint_.store(queue_.size(), std::memory_order_release);
        // min(): the worker's floor may already sit at an older open txn.
        inflight_[worker] = std::min(inflight_[worker], txn.commit_ts);
        return txn;
      }
      // Only the scheduler closes the queue, after its last push: an empty
      // queue seen closed under the mutex stays empty.
      if (closed_.load(std::memory_order_acquire)) return std::nullopt;
    }
    not_empty_.Await([this] {
      return size_hint_.load(std::memory_order_acquire) != 0 ||
             closed_.load(std::memory_order_acquire);
    });
  }
}

std::optional<C5MyRocksReplica::TxnUnit>
C5MyRocksReplica::TxnDispatchQueue::TryPop(int worker) {
  if (size_hint_.load(std::memory_order_acquire) == 0) return std::nullopt;
  MutexLock lock(mu_);
  if (queue_.empty()) return std::nullopt;
  const TxnUnit txn = queue_.front();
  queue_.pop_front();
  size_hint_.store(queue_.size(), std::memory_order_release);
  inflight_[worker] = std::min(inflight_[worker], txn.commit_ts);
  return txn;
}

void C5MyRocksReplica::TxnDispatchQueue::SetFloor(int worker, Timestamp ts) {
  MutexLock lock(mu_);
  inflight_[worker] = ts;
}

void C5MyRocksReplica::TxnDispatchQueue::Close() {
  closed_.store(true, std::memory_order_release);
  not_empty_.NotifyAll();
}

Timestamp C5MyRocksReplica::TxnDispatchQueue::MinUnapplied() const {
  MutexLock lock(mu_);
  Timestamp min_ts = kMaxTimestamp;
  if (!queue_.empty()) min_ts = queue_.front().commit_ts;
  for (const Timestamp ts : inflight_) min_ts = std::min(min_ts, ts);
  return min_ts;
}

// ---------------------------------------------------------------------------
// C5MyRocksReplica

C5MyRocksReplica::C5MyRocksReplica(storage::Database* db, Options options,
                                   replica::LagTracker* lag)
    : ReplicaBase(db, lag),
      options_(options),
      dispatch_(options.num_workers) {}

void C5MyRocksReplica::StartThreads() {
  workers_running_.store(options_.num_workers, std::memory_order_release);
  Spawn([this] { SchedulerLoop(); });
  for (int i = 0; i < options_.num_workers; ++i) {
    Spawn([this, i] { WorkerLoop(i); });
  }
  Spawn([this] { SnapshotterLoop(); });
}

void C5MyRocksReplica::SchedulerLoop() {
  // Same embedded-FIFO preprocessing as C5Replica (§5.1 leverages the
  // existing row-based log; the per-row ordering metadata is identical),
  // through the same pre-sized flat map.
  FlatMap<Timestamp> last_write_ts(options_.scheduler_map_capacity);
  std::vector<TxnUnit> batch;  // one segment's transactions, reused

  while (log::LogSegment* seg = NextSegment()) {
    std::size_t txn_start = 0;
    auto& records = seg->records();
    batch.clear();
    for (std::size_t i = 0; i < records.size(); ++i) {
      log::LogRecord& rec = records[i];
      Timestamp& last = last_write_ts[RowName(rec.table, rec.row)];
      rec.prev_ts = last;
      // Monotone, never rewound — see C5Replica::SchedulerLoop: a
      // redelivered old segment must not reset the row's chain position or
      // later writes get scheduled against a stale predecessor and the true
      // predecessor's install is skipped, holing the row's history.
      if (rec.commit_ts > last) last = rec.commit_ts;

      if (rec.last_in_txn) {
        // Collect the transaction in commit order (§5.1: the scheduler
        // "puts the transaction's first write in the scheduler queue"; the
        // worker follows the chain of the transaction's writes).
        batch.push_back(TxnUnit{&records[txn_start], i - txn_start + 1,
                                rec.commit_ts});
        txn_start = i + 1;
      }
    }
    // Whole segment under one queue mutex acquisition / one wakeup.
    dispatch_.PushBatch(batch.data(), batch.size());
    seg->MarkPreprocessed();
    // Monotone: a redelivered old segment as the final delivery must not
    // regress the watermark and pin the snapshot below end-of-log.
    if (!seg->empty() &&
        seg->MaxTimestamp() > watermark_.load(std::memory_order_relaxed)) {
      watermark_.store(seg->MaxTimestamp(), std::memory_order_release);
    }
  }
  scheduler_done_.store(true, std::memory_order_release);
  dispatch_.Close();
}

void C5MyRocksReplica::WorkerLoop(int idx) {
  const auto guard = db_->epochs().Enter();
  Histogram apply_latency;
  std::uint64_t apply_tick = 0;

  // A write deferred because its predecessor is not in place yet.
  // sample_t0 is -1 for unsampled records.
  struct Pending {
    std::uint32_t idx;
    std::int64_t sample_t0;
  };
  // An in-flight transaction: popped, all ready writes applied, the rest
  // pending. The worker keeps a WINDOW of these (front = oldest) instead
  // of stalling on the oldest one's deferred writes: a stall here means
  // the predecessor lives in another worker's in-flight transaction, and
  // on a host with fewer cores than workers that worker cannot run until
  // we give up the core — waiting in-place turns every contended-row-last
  // transaction (TPC-C's optimized Payment writes the hot warehouse row
  // LAST) into a scheduler-quantum hand-off. With a window, the wait
  // overlaps applying newer transactions' independent writes, and the
  // whole window's deferred writes resolve in one sweep when the
  // predecessor lands (see docs/PERFORMANCE.md).
  struct OpenTxn {
    TxnUnit txn;
    std::vector<Pending> pending;
  };
  std::deque<OpenTxn> open;
  std::vector<std::vector<Pending>> spare;  // recycled pending vectors
  // Window size: deep enough to ride out a predecessor worker's full
  // descheduling, small enough that the visibility floor (the window
  // front) never lags the log by a perceptible amount.
  constexpr std::size_t kMaxOpen = 64;

  // Applies one record if its predecessor is in place. Returns false to
  // defer. Samples latency from `t0` when >= 0.
  auto try_apply = [&](const log::LogRecord& rec,
                       std::int64_t t0) -> bool {
    // The write becomes actionable once the row reaches (or passes, after
    // a checkpoint resume) its predecessor position. TryInstallIfPrev
    // answers kNotReady before any allocation or CAS, so polling never
    // ping-pongs the row's cache line (only a record that may create the
    // row repeats its idempotent index bind).
    if (Apply(rec, rec.prev_ts) == storage::PrevInstall::kNotReady) {
      return false;
    }
    stats_.applied_writes.fetch_add(1, std::memory_order_relaxed);
    if (t0 >= 0) {
      // For a deferred record this includes the full predecessor stall:
      // p99 here is the tail cost of a write waiting for its row
      // dependency, the §5.1 metric.
      apply_latency.Record(
          static_cast<std::uint64_t>(MonotonicNowNanos() - t0));
    }
    return true;
  };

  // One pass over every open transaction's deferred writes (§5.1's "wait
  // until the write is safe, then execute it", batched). Returns true if
  // any write landed. Writes above an armed snapshot barrier are skipped,
  // not waited for (§5.2 blocks installs beyond the boundary; skipping
  // keeps the sweep non-blocking while the snapshotter holds the barrier).
  auto sweep = [&]() -> bool {
    bool progress = false;
    const Timestamp barrier = barrier_ts_.load(std::memory_order_acquire);
    for (OpenTxn& ot : open) {
      if (ot.pending.empty() || ot.txn.commit_ts > barrier) continue;
      std::size_t remaining = 0;
      for (const Pending& p : ot.pending) {
        if (try_apply(ot.txn.first[p.idx], p.sample_t0)) {
          progress = true;
        } else {
          ot.pending[remaining++] = p;
        }
      }
      ot.pending.resize(remaining);
    }
    return progress;
  };

  // Retires completed transactions from the window front (visibility is
  // transaction-granularity: the floor only advances past a transaction
  // when ALL its writes are in) and republishes the in-flight floor.
  auto retire_front = [&]() {
    bool moved = false;
    while (!open.empty() && open.front().pending.empty()) {
      stats_.applied_txns.fetch_add(1, std::memory_order_relaxed);
      spare.push_back(std::move(open.front().pending));
      open.pop_front();
      moved = true;
    }
    if (moved) {
      dispatch_.SetFloor(idx, open.empty() ? kMaxTimestamp
                                           : open.front().txn.commit_ts);
    }
  };

  // Set by the fast path below; folds "everything I popped is applied"
  // into the next Pop's mutex acquisition instead of a separate SetFloor.
  bool completed_prior = false;
  while (true) {
    if (sweep()) retire_front();

    // Take on new work while the window has room. Blocking Pop only when
    // nothing is open (nothing to sweep while we wait).
    std::optional<TxnUnit> txn_opt =
        open.size() < kMaxOpen
            ? (open.empty() ? dispatch_.Pop(idx, completed_prior)
                            : dispatch_.TryPop(idx))
            : std::nullopt;
    completed_prior = false;
    if (!txn_opt.has_value()) {
      if (open.empty()) break;  // Pop drained a closed queue: done
      // Window stalled on predecessors owned by other workers. A real (if
      // tiny) sleep, not a yield: a yielding thread keeps its low vruntime
      // and can be rescheduled immediately ahead of the very worker it
      // waits for, so a yield loop livelocks-by-slowness against CPU-bound
      // peers (measured: both pure-yield and spin-then-yield were an order
      // of magnitude worse on a single-core host under a read-only client
      // load). The sleep forcibly deschedules us so a peer can run; the
      // window amortizes its wakeup latency over every transaction in it.
      std::this_thread::sleep_for(std::chrono::microseconds(1));
      continue;
    }

    const TxnUnit txn = *txn_opt;
    std::vector<Pending> pending;
    if (!spare.empty()) {
      pending = std::move(spare.back());
      spare.pop_back();
      pending.clear();
    }
    for (std::size_t i = 0; i < txn.count; ++i) {
      const log::LogRecord& rec = txn.first[i];
      const bool sample =
          (apply_tick++ & (kApplySampleEvery - 1)) == 0;
      const std::int64_t sample_t0 = sample ? MonotonicNowNanos() : -1;
      // §5.2: while a snapshot is being taken, writes beyond the boundary n
      // must wait ("choosing n also blocks workers from executing writes
      // with sequence numbers greater than n until after the snapshot").
      int barrier_spins = 0;
      while (rec.commit_ts > barrier_ts_.load(std::memory_order_acquire)) {
        SpinBackoff(barrier_spins);
      }
      if (!try_apply(rec, sample_t0)) {
        stats_.deferred_writes.fetch_add(1, std::memory_order_relaxed);
        pending.push_back(Pending{static_cast<std::uint32_t>(i), sample_t0});
      }
    }
    if (pending.empty() && open.empty()) {
      // Fast path: fully applied and nothing older in flight.
      stats_.applied_txns.fetch_add(1, std::memory_order_relaxed);
      spare.push_back(std::move(pending));
      dispatch_.SetFloor(idx, kMaxTimestamp);
    } else {
      open.push_back(OpenTxn{txn, std::move(pending)});
      retire_front();
    }
  }
  MergeApplyLatency(apply_latency);
  workers_running_.fetch_sub(1, std::memory_order_acq_rel);
}

void C5MyRocksReplica::SnapshotterLoop() {
  Ticker ticker(options_.snapshot_interval);
  int iter = 0;
  while (true) {
    // Choose n: everything strictly below MinUnapplied is applied. Blocking
    // writers above n during the (simulated) snapshot keeps the boundary
    // stable while RocksDB captures current state. The watermark is read
    // FIRST: the scheduler pushes a segment's transactions before it
    // publishes the segment's watermark, so every transaction at or below
    // `wm` is already queued, in flight, or applied when MinUnapplied
    // looks. Read the other way round, a segment pushed between the two
    // reads would be published as applied while its transactions still sit
    // in the queue (and its segment could be released under them).
    const Timestamp wm = watermark_.load(std::memory_order_acquire);
    const Timestamp min_unapplied = dispatch_.MinUnapplied();
    const Timestamp n =
        min_unapplied == kMaxTimestamp ? wm : min_unapplied - 1;

    if (n > VisibleTimestamp()) {
      barrier_ts_.store(n, std::memory_order_release);
      if (options_.snapshot_cost.count() > 0) {
        // Simulated RocksDB snapshot acquisition under write blocking.
        const Stopwatch sw;
        while (sw.ElapsedNanos() <
               options_.snapshot_cost.count() * 1000) {
          CpuRelax();
        }
      }
      barrier_ts_.store(kMaxTimestamp, std::memory_order_release);
      // Writes above n that land from here on are invisible to readers at
      // n, so the captured snapshot is published outside the barrier: its
      // lag report never holds writers back.
      PublishVisible(n);
    }

    if (options_.gc_every > 0 && ++iter % options_.gc_every == 0) {
      db_->CollectGarbage(GcHorizon());
    }

    if (scheduler_done_.load(std::memory_order_acquire) &&
        workers_running_.load(std::memory_order_acquire) == 0) {
      PublishVisible(watermark_.load(std::memory_order_acquire));
      break;
    }
    if (stopping()) break;
    ticker.Wait();
  }
}

}  // namespace c5::core
