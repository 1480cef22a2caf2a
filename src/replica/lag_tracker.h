#ifndef C5_REPLICA_LAG_TRACKER_H_
#define C5_REPLICA_LAG_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <deque>

#include "common/clock.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace c5::replica {

// Measures replication lag: the wall-clock time between a transaction's
// commit on the primary (f_p) and its inclusion in the backup's visible
// snapshot (f_b). Matches the paper's measurement: "for each read-write
// transaction, we measure replication lag as the difference between when it
// commits on the primary and when it is included in the current snapshot"
// (§6.3).
//
// Primary threads RecordCommit() (optionally sampled); the backup calls
// OnVisible() each time the snapshot advances, which drains all samples now
// covered and records their lags. OnVisible may have concurrent callers (a
// C5 backup's workers each advance the snapshot); a caller holding an older
// timestamp just drains less. A sample recorded after its commit_ts is
// already visible (the committing thread was descheduled past the advance)
// is recorded at once with zero lag: no later OnVisible may come to drain it
// once the backup has caught up and gone idle.
class LagTracker {
 public:
  explicit LagTracker(int sample_every = 1) : sample_every_(sample_every) {}

  LagTracker(const LagTracker&) = delete;
  LagTracker& operator=(const LagTracker&) = delete;

  // Called by primary threads at commit time.
  void RecordCommit(Timestamp commit_ts) {
    if (sample_every_ > 1 &&
        counter_.fetch_add(1, std::memory_order_relaxed) % sample_every_ != 0) {
      return;
    }
    const std::int64_t now = MonotonicNowNanos();
    MutexLock lock(mu_);
    if (commit_ts <= visible_) {
      hist_.Record(0);
      return;
    }
    pending_.push_back(Sample{commit_ts, now});
  }

  // Called by the backup when the snapshot advances to `visible_ts`; safe
  // from several threads at once. Lags of all covered samples land in the
  // internal histogram.
  void OnVisible(Timestamp visible_ts) {
    const std::int64_t now = MonotonicNowNanos();
    MutexLock lock(mu_);
    if (visible_ts > visible_) visible_ = visible_ts;
    while (!pending_.empty() && pending_.front().commit_ts <= visible_ts) {
      const std::int64_t lag = now - pending_.front().commit_time_nanos;
      hist_.Record(lag < 0 ? 0 : static_cast<std::uint64_t>(lag));
      pending_.pop_front();
    }
  }

  // Instantaneous lag gauge: age of the oldest commit not yet visible
  // (0 if fully caught up). Used for time-series plots (Fig. 12).
  std::int64_t CurrentLagNanos() const {
    MutexLock lock(mu_);
    if (pending_.empty()) return 0;
    return MonotonicNowNanos() - pending_.front().commit_time_nanos;
  }

  std::size_t PendingCount() const {
    MutexLock lock(mu_);
    return pending_.size();
  }

  // Snapshot of the lag distribution so far; optionally reset.
  Histogram TakeHistogram(bool reset = false) {
    MutexLock lock(mu_);
    Histogram out = hist_;
    if (reset) hist_.Reset();
    return out;
  }

 private:
  struct Sample {
    Timestamp commit_ts;
    std::int64_t commit_time_nanos;
  };

  const int sample_every_;
  std::atomic<std::uint64_t> counter_{0};
  mutable Mutex mu_{LockRank::kStats};
  std::deque<Sample> pending_ C5_GUARDED_BY(mu_);  // commit_ts-ordered
      // (commits are ts-ordered up to scheduling jitter; see note below)
  Histogram hist_ C5_GUARDED_BY(mu_);
  Timestamp visible_ C5_GUARDED_BY(mu_) = 0;  // highest OnVisible argument
};

}  // namespace c5::replica

#endif  // C5_REPLICA_LAG_TRACKER_H_
