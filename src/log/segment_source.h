#ifndef C5_LOG_SEGMENT_SOURCE_H_
#define C5_LOG_SEGMENT_SOURCE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>

#include "common/spsc_queue.h"
#include "log/log_segment.h"

namespace c5::log {

// Uniform input for replica protocols: a stream of log segments in log order.
// Next() blocks until a segment is available and returns nullptr at
// end-of-log. Only the backup's scheduler thread calls Next() and Release().
//
// Cancel() (any thread; idempotent) ends the log early: Next() stops
// blocking and soon returns nullptr (a channel first hands over what it
// already holds). ReplicaBase::Stop() calls it; sources that never block
// need not override it.
//
// Segment lifetime: a delivered segment stays valid until the consumer
// releases it. Release(applied_through) says that every record with
// commit_ts <= applied_through is applied and that no replica thread will
// read it again; ReplicaBase calls it before every Next(). A source that
// owns what it delivers (a channel lane, a socket) frees the delivered
// prefix whose records all lie at or below the mark, and frees instead of
// delivering a later segment that lies wholly at or below it (a
// redelivery: already applied). Sources over a Log keep the no-op: the Log
// owns the segments, and benches replay it again after ResetReplayState.
class SegmentSource {
 public:
  virtual ~SegmentSource() = default;
  virtual LogSegment* Next() = 0;
  virtual void Release(Timestamp applied_through) { (void)applied_through; }
  virtual void Cancel() {}
};

// Replays a prebuilt (coalesced) log: the offline methodology the paper uses
// for C5-Cicada throughput experiments (§7.1).
class OfflineSegmentSource : public SegmentSource {
 public:
  explicit OfflineSegmentSource(Log* log) : log_(log) {}

  LogSegment* Next() override {
    if (pos_ >= log_->NumSegments()) return nullptr;
    return log_->segment(pos_++);
  }

 private:
  Log* log_;
  std::size_t pos_ = 0;
};

// Delivers only the first `count` segments of a log: the prefix that
// reached a backup before its primary (or shipping channel) failed.
// Segments are transaction aligned, so any prefix of segments is a
// transaction-aligned prefix. Used by the failover tests and by the DST
// harness's promotion oracle.
class PrefixSegmentSource : public SegmentSource {
 public:
  PrefixSegmentSource(Log* log, std::size_t count)
      : log_(log), count_(std::min(count, log->NumSegments())) {}

  LogSegment* Next() override {
    return pos_ < count_ ? log_->segment(pos_++) : nullptr;
  }

 private:
  Log* log_;
  const std::size_t count_;
  std::size_t pos_ = 0;
};

// Wraps a source and delays each segment's delivery (network-latency /
// slow-shipping injection for tests and benches). `delay_fn` is called with
// the segment index and returns the delay to sleep before handing it over.
class DelayedSegmentSource : public SegmentSource {
 public:
  using DelayFn = std::function<std::chrono::microseconds(std::size_t)>;

  DelayedSegmentSource(SegmentSource* inner, DelayFn delay_fn)
      : inner_(inner), delay_fn_(std::move(delay_fn)) {}

  LogSegment* Next() override {
    LogSegment* seg = inner_->Next();
    if (seg != nullptr) {
      const auto d = delay_fn_(index_++);
      if (d.count() > 0) std::this_thread::sleep_for(d);
    }
    return seg;
  }
  void Release(Timestamp applied_through) override {
    inner_->Release(applied_through);
  }
  void Cancel() override { inner_->Cancel(); }

 private:
  SegmentSource* inner_;
  DelayFn delay_fn_;
  std::size_t index_ = 0;
};

// Delivers the first `gate_at` segments of a log, then blocks until Open()
// is called, then delivers the rest (replica stall injection: models a
// paused shipping channel or an unresponsive backup). Cancel() ends the log
// at the gate.
class GatedSegmentSource : public SegmentSource {
 public:
  GatedSegmentSource(Log* log, std::size_t gate_at)
      : log_(log), gate_at_(gate_at) {}

  void Open() { open_.store(true, std::memory_order_release); }

  LogSegment* Next() override {
    if (pos_ >= log_->NumSegments()) return nullptr;
    if (pos_ >= gate_at_) {
      while (!open_.load(std::memory_order_acquire)) {
        if (cancelled_.load(std::memory_order_acquire)) return nullptr;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    return log_->segment(pos_++);
  }
  void Cancel() override { cancelled_.store(true, std::memory_order_release); }

 private:
  Log* log_;
  const std::size_t gate_at_;
  std::atomic<bool> open_{false};
  std::atomic<bool> cancelled_{false};
  std::size_t pos_ = 0;
};

// Streams segments from an online primary through an SPSC channel. The
// channel hands ownership of each segment to this source: it holds what it
// delivered until Release covers it, and its destructor frees the rest,
// including whatever is still queued in the channel.
// Cancel() closes the channel: the consumer stops, and the producer's Push
// fails instead of blocking the primary's sequencer on a full channel.
class ChannelSegmentSource : public SegmentSource {
 public:
  explicit ChannelSegmentSource(SpscQueue<LogSegment*>* channel)
      : channel_(channel) {}
  ~ChannelSegmentSource() override {
    while (auto seg = channel_->TryPop()) delete *seg;
  }

  LogSegment* Next() override {
    while (auto seg = channel_->Pop()) {
      std::unique_ptr<LogSegment> owned(*seg);
      if (owned->MaxTimestamp() <= released_through_) continue;  // applied
      held_.push_back(std::move(owned));
      held_count_.store(held_.size(), std::memory_order_relaxed);
      return held_.back().get();
    }
    return nullptr;
  }
  void Release(Timestamp applied_through) override {
    released_through_ = std::max(released_through_, applied_through);
    while (!held_.empty() &&
           held_.front()->MaxTimestamp() <= released_through_) {
      held_.pop_front();
    }
    held_count_.store(held_.size(), std::memory_order_relaxed);
  }
  void Cancel() override { channel_->Close(); }

  // Delivered segments not yet released (any thread; for the soak gate).
  std::size_t held() const {
    return held_count_.load(std::memory_order_relaxed);
  }

 private:
  SpscQueue<LogSegment*>* channel_;
  std::deque<std::unique_ptr<LogSegment>> held_;
  Timestamp released_through_ = kInvalidTimestamp;
  std::atomic<std::size_t> held_count_{0};
};

}  // namespace c5::log

#endif  // C5_LOG_SEGMENT_SOURCE_H_
