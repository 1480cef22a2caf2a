// The base class of every backup protocol, and its shared plumbing.
//
// Invariants every protocol implementation must preserve:
//  * VisibleTimestamp() is monotonic and always lands on a transaction
//    boundary: readers see a contiguous, untorn prefix of the primary's
//    log (monotonic prefix consistency, §2.3).
//  * Every read-only transaction runs inside an epoch guard and registers
//    its snapshot with the reader tracker before reading, so GcHorizon()
//    never reclaims a version an active reader could still observe.
//  * Applying a record is idempotent: at-least-once log delivery (checkpoint
//    resume, source restart) must not install duplicate versions or skew
//    the applied-write/transaction counters used for caught-up accounting.
//  * After SetRecoveryWindow, no snapshot inside the window is ever
//    published: a restarted replica's readers can never observe the
//    non-prefix states left by a dead incarnation's run-ahead writes.
//
// The lifecycle contract: Start(source) records the source and spawns the
// protocol's threads through ReplicaBase::Spawn; schedulers read the log
// only through NextSegment(). Stop() ends them from any point in the log: it
// sets the stop flag, cancels the source (SegmentSource::Cancel wakes a
// blocked Next()), and joins. A cancelled source is end of log: each
// protocol takes its end-of-log path, workers finish what was dispatched,
// and the last snapshot is still a transaction-aligned prefix point.
//
// The publish contract: ReplicaBase::PublishVisible is the one place a
// snapshot advance happens. Only a publish that actually moves the
// visibility watermark counts: it bumps stats().snapshots_taken once and
// reports the new snapshot to the lag tracker, so replication lag is "commit
// on the primary until included in the backup's current snapshot" (§6.3)
// for every protocol alike. A stale publish, and a publish the recovery
// window suppresses, changes nothing and reports nothing: no lag sample is
// drained while the snapshot that would cover it stays unreadable.
//
// Catching up is one rule too: each protocol states when it is caught up
// (CaughtUp()), and ReplicaBase::WaitUntilCaughtUp polls that predicate.
//
// The release contract: NextSegment() hands the source one release mark,
// ReleasableThrough(), before every Next(), and the source may free every
// delivered segment whose records all lie at or below it. The default mark
// is VisibleTimestamp(): visibility is a transaction-aligned applied
// prefix, and a protocol must never read a record at or below its
// published snapshot again. A protocol that keeps reading applied records
// (Query Fresh's lazy redo chains) overrides the mark.
//
// The input contract: NextSegment() refuses a segment naming a table this
// backup does not have. That ends the replica's log like a cancel, and
// log_error() says why; the backup never indexes past its tables.
//
// The read surface (point get, multi-get, ordered scan) is c5::Snapshot
// (api/snapshot.h), an RAII handle combining the epoch guard, reader
// registration, and the pinned visible timestamp (OpenSnapshot below).

#ifndef C5_REPLICA_REPLICA_H_
#define C5_REPLICA_REPLICA_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_util.h"
#include "common/types.h"
#include "log/segment_source.h"
#include "replica/lag_tracker.h"
#include "replica/prefix_tracker.h"
#include "storage/database.h"
#include "txn/active_txn_tracker.h"

namespace c5 {
class Snapshot;  // api/snapshot.h
}  // namespace c5

namespace c5::replica {

// Counters every cloned concurrency control protocol maintains.
struct ReplicaStats {
  std::atomic<std::uint64_t> applied_writes{0};
  std::atomic<std::uint64_t> applied_txns{0};
  std::atomic<std::uint64_t> deferred_writes{0};  // C5: prev-ts misses
  std::atomic<std::uint64_t> snapshots_taken{0};  // real advances only
  std::atomic<std::uint64_t> read_only_txns{0};
};

// A cloned concurrency control protocol: consumes the primary's log and
// applies it to the backup database while serving monotonic-prefix-consistent
// read-only transactions.
//
// Lifecycle: construct -> Start(source) -> [primary runs / offline replay]
// -> WaitUntilCaughtUp() -> Stop(). Start spawns the protocol's threads
// (scheduler, workers, snapshotter as applicable); they exit once the log
// ends or Stop() cancels it, and all dispatched writes are applied.
class ReplicaBase {
 public:
  // `lag` (optional, not owned) receives every snapshot advance.
  explicit ReplicaBase(storage::Database* db, LagTracker* lag = nullptr)
      : db_(db), lag_(lag) {}
  // Derived destructors call Stop() first: their members must outlive the
  // threads that use them.
  virtual ~ReplicaBase() = default;

  // Records `source` (which must outlive the replica's threads) and spawns
  // the protocol's threads. Call once.
  void Start(log::SegmentSource* source) {
    source_ = source;
    StartThreads();
  }

  // Ends replication wherever the log is (see the lifecycle contract above).
  // Idempotent: only the first call after Start touches the source, so the
  // destructor's call is safe once the source is gone.
  void Stop() {
    stopping_.store(true, std::memory_order_release);
    if (threads_.empty()) return;
    source_->Cancel();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

  storage::Database& db() { return *db_; }
  ReplicaStats& stats() { return stats_; }
  virtual std::string name() const = 0;

  // True once the log is exhausted, every write is applied, and the
  // published snapshot covers the whole log: the protocol's own statement
  // of the WaitUntilCaughtUp contract. Non-blocking; any thread.
  virtual bool CaughtUp() const = 0;

  // Blocks until the log is exhausted, every write is applied, and the
  // visibility watermark covers the whole log. Call before Stop(). A sleep
  // poll over CaughtUp(), not a spin: the wait lasts the whole replay.
  virtual void WaitUntilCaughtUp() {
    while (!CaughtUp()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  // ---- Stable identity ------------------------------------------------------
  // A deployment-stable id ("shard0/backup1") distinguishing THIS replica
  // instance from every other one in a multi-shard fleet. name() identifies
  // the protocol; instance_id() identifies the node, so logs and DST failure
  // output can attribute a divergence to one replica of one shard group.
  // Set once at construction time (BackupNode applies BackupOptions::id);
  // not synchronized against concurrent use.
  void SetInstanceId(std::string id) { instance_id_ = std::move(id); }
  const std::string& instance_id() const { return instance_id_; }

  // Non-empty once NextSegment() refused a malformed segment and ended the
  // log (see the input contract above). Any thread.
  std::string log_error() const {
    MutexLock lock(log_error_mu_);
    return log_error_;
  }

  // "instance_id(protocol)" when an id was assigned, else the protocol name.
  std::string DisplayName() const {
    return instance_id_.empty() ? name() : instance_id_ + "(" + name() + ")";
  }

  // MPC read point: read-only transactions reading at this timestamp observe
  // a state that (a) reflects a contiguous prefix of the primary's log and
  // (b) only advances (§2.3).
  Timestamp VisibleTimestamp() const {
    return visible_ts_.load(std::memory_order_acquire);
  }

  // Externally advances the visibility watermark to `ts`. For readers whose
  // protocol threads are STOPPED but whose database keeps moving under an
  // outside writer — the promoted-primary case: after failover the node's
  // engine commits new transactions into this very database, and the frozen
  // watermark would pin every snapshot at the pre-promotion state. The
  // caller owns the §2.3 obligation the protocol normally discharges: `ts`
  // must be a settled prefix point (no transaction at or below it can still
  // commit, e.g. min(clock.Latest(), LogHorizon() - 1)). Monotonic and
  // recovery-window-safe like every internal publish; calls with a stale
  // `ts` are no-ops.
  void AdvanceVisibleTo(Timestamp ts) { PublishVisible(ts); }

  // Apply-latency sampling: workers keep a private Histogram of sampled
  // per-record install latencies (every kApplySampleEvery-th record) and
  // merge it here when they exit; benches read the merged snapshot after
  // WaitUntilCaughtUp. Protocols that do not sample simply never merge.
  static constexpr std::uint64_t kApplySampleEvery = 64;

  void MergeApplyLatency(const Histogram& h) {
    MutexLock lock(apply_latency_mu_);
    apply_latency_.Merge(h);
  }

  Histogram ApplyLatencySnapshot() const {
    MutexLock lock(apply_latency_mu_);
    return apply_latency_;
  }

  // ---- Read surface ---------------------------------------------------------

  // Opens a read snapshot at the current visible timestamp: an RAII handle
  // holding the epoch guard and the reader registration (GcHorizon respects
  // it) and offering Get / MultiGet / Scan. Thread-safe; any number of
  // snapshots may be open concurrently ("read-only transactions are executed
  // by a separate set of threads", §4). Defined in api/snapshot.h.
  c5::Snapshot OpenSnapshot();

  // Safe GC horizon for the backup: nothing at or below min(active reader
  // snapshots, current snapshot) may lose its newest-committed-below version.
  Timestamp GcHorizon() const {
    const Timestamp readers = readers_.MinActive();
    const Timestamp visible = VisibleTimestamp();
    const Timestamp bound = readers == kMaxTimestamp
                                ? visible
                                : std::min(readers, visible);
    return bound == 0 ? 0 : bound - 1;
  }

  // ---- Recovery visibility window -------------------------------------------

  // Arms the recovery visibility window of a replica restarting on top of
  // surviving state (in-place restart or checkpoint restore). `resume_ts` is
  // the dead incarnation's last published snapshot (its visibility
  // checkpoint) — a prefix-consistent point, published immediately so
  // readers resume there instead of at zero. `inherited_max` is the largest
  // committed timestamp anywhere in the inherited database
  // (storage::Database::MaxCommittedTimestamp()): the dead incarnation's
  // workers may have run ahead of resume_ts, and redelivery's idempotence
  // guard skips those rows' intermediate versions, so states strictly inside
  // (resume_ts, inherited_max) are not prefix-consistent. PublishVisible
  // suppresses every snapshot below inherited_max, so no reader can ever
  // observe the window; it closes when the re-applied watermark covers
  // inherited_max. Call before Start().
  void SetRecoveryWindow(Timestamp resume_ts, Timestamp inherited_max) {
    recovery_resume_.store(resume_ts, std::memory_order_release);
    recovery_floor_.store(std::max(resume_ts, inherited_max),
                          std::memory_order_release);
    Timestamp cur = visible_ts_.load(std::memory_order_relaxed);
    while (cur < resume_ts && !visible_ts_.compare_exchange_weak(
                                  cur, resume_ts, std::memory_order_acq_rel)) {
    }
  }

  // The window's bounds: (resume, floor]. Both zero when never armed.
  Timestamp RecoveryResume() const {
    return recovery_resume_.load(std::memory_order_acquire);
  }
  Timestamp RecoveryFloor() const {
    return recovery_floor_.load(std::memory_order_acquire);
  }

  // True once the published snapshot covers the inherited high-water mark
  // (trivially true when no window was armed). WaitUntilCaughtUp() implies
  // this as long as the resumed log extends past the inherited state —
  // which at-least-once redelivery guarantees.
  bool RecoveryWindowClosed() const {
    return VisibleTimestamp() >= RecoveryFloor();
  }

 protected:
  // Spawns the protocol's threads through Spawn(); called by Start() once
  // the source is recorded.
  virtual void StartThreads() = 0;

  // Adds a protocol thread; Stop() joins it.
  template <typename Fn>
  void Spawn(Fn&& fn) {
    threads_.emplace_back(std::forward<Fn>(fn));
  }

  // True once Stop() has begun. Background loops (visibility, maintenance)
  // exit on it.
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }

  // The release mark handed to the source (see the release contract above):
  // no protocol thread reads a record at or below it again.
  virtual Timestamp ReleasableThrough() const { return VisibleTimestamp(); }

  // The next segment of the log, or nullptr at end of log — which a stop
  // forces, so finite sources end early too, and so does a segment that
  // names a table this backup lacks. Releases the applied prefix first.
  // The only way a scheduler or ingest loop reads the log.
  log::LogSegment* NextSegment() {
    if (stopping()) return nullptr;
    source_->Release(ReleasableThrough());
    log::LogSegment* seg = source_->Next();
    if (seg == nullptr) return nullptr;
    const TableId tables = static_cast<TableId>(db_->NumTables());
    for (const log::LogRecord& rec : seg->records()) {
      if (rec.table >= tables) {
        MutexLock lock(log_error_mu_);
        log_error_ = "segment at seq " + std::to_string(seg->base_seq()) +
                     " names table " + std::to_string(rec.table) +
                     " but the backup has " + std::to_string(tables);
        return nullptr;
      }
    }
    return seg;
  }

  // Applies one log record through the shared replicated-write primitive
  // (storage::Database::ApplyReplicated): binds the key if the record may
  // create its row, then installs it iff the row holds `prev_ts`.
  storage::PrevInstall Apply(const log::LogRecord& rec, Timestamp prev_ts) {
    return db_->ApplyReplicated(rec.table, rec.key, rec.row, rec.op, prev_ts,
                                rec.commit_ts, rec.value);
  }

  // Applies one log record for a protocol that orders each row's writes
  // itself (prev_ts = kInvalidTimestamp: install-if-newer) and counts it.
  // Idempotent: a record whose row already carries a version at or above
  // its commit timestamp was applied by a previous incarnation of this
  // replica (at-least-once log delivery, checkpoint resume) and is skipped
  // — but still counted, so caught-up accounting holds.
  void ApplyRecord(const log::LogRecord& rec) {
    Apply(rec, kInvalidTimestamp);
    stats_.applied_writes.fetch_add(1, std::memory_order_relaxed);
    if (rec.last_in_txn) {
      stats_.applied_txns.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Lazy-protocol hook, called by the Snapshot read paths with the resolved
  // row before its version chain is read. Query Fresh (§9) materializes the
  // row's pending redo list here; eager protocols inherit the no-op. The
  // caller holds an epoch guard (the Snapshot's).
  virtual void PrepareRowRead(TableId table, RowId row, Timestamp ts) {
    (void)table;
    (void)row;
    (void)ts;
  }

  // Advances the visible snapshot to `ts` (a transaction-aligned prefix
  // point). Monotone and safe from any number of threads. The CAS that
  // moves the watermark is the one snapshot event: only its winner counts
  // the snapshot and reports it to the lag tracker (see the publish
  // contract at the top of this file).
  void PublishVisible(Timestamp ts) {
    // Recovery window: snapshots strictly inside (resume, floor) would
    // expose the dead incarnation's non-prefix run-ahead states; hold the
    // published snapshot at the resume point until the re-applied watermark
    // covers the inherited high-water mark.
    if (ts < recovery_floor_.load(std::memory_order_acquire)) return;
    Timestamp cur = visible_ts_.load(std::memory_order_relaxed);
    while (cur < ts) {
      if (visible_ts_.compare_exchange_weak(cur, ts,
                                            std::memory_order_acq_rel)) {
        stats_.snapshots_taken.fetch_add(1, std::memory_order_relaxed);
        if (lag_ != nullptr) lag_->OnVisible(ts);
        return;
      }
    }
  }

  // Visibility thread body for protocols that apply out of log order
  // (KuaFu, the granularity replicas): every `interval`, publishes the
  // transaction-aligned applied prefix `prefix` has walked, until the
  // replica is caught up or stopping, then sweeps once more. The calling
  // thread is `prefix`'s single advancer.
  void PrefixVisibilityLoop(PrefixTracker& prefix,
                            std::chrono::microseconds interval) {
    Ticker ticker(interval);
    while (true) {
      PublishVisible(prefix.Advance());
      if (stopping() || CaughtUp()) break;
      ticker.Wait();
    }
    PublishVisible(prefix.Advance());
  }

  friend class ::c5::Snapshot;

  storage::Database* db_;
  ReplicaStats stats_;
  txn::ActiveTxnTracker readers_;
  std::atomic<Timestamp> visible_ts_{0};
  std::atomic<Timestamp> recovery_floor_{0};
  std::atomic<Timestamp> recovery_resume_{0};

 private:
  LagTracker* const lag_;  // reached only through PublishVisible
  log::SegmentSource* source_ = nullptr;
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> threads_;
  mutable Mutex apply_latency_mu_{LockRank::kStats};
  Histogram apply_latency_ C5_GUARDED_BY(apply_latency_mu_);
  mutable Mutex log_error_mu_{LockRank::kStats};
  std::string log_error_ C5_GUARDED_BY(log_error_mu_);
  std::string instance_id_;
};

}  // namespace c5::replica

#endif  // C5_REPLICA_REPLICA_H_
