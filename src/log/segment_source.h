#ifndef C5_LOG_SEGMENT_SOURCE_H_
#define C5_LOG_SEGMENT_SOURCE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <thread>

#include "common/spsc_queue.h"
#include "log/log_segment.h"

namespace c5::log {

// Uniform input for replica protocols: a stream of log segments in log order.
// Next() blocks until a segment is available and returns nullptr at
// end-of-log. Only the backup's scheduler thread calls Next().
//
// Cancel() (any thread; idempotent) ends the log early: Next() stops
// blocking and soon returns nullptr (a channel first hands over what it
// already holds). ReplicaBase::Stop() calls it; sources that never block
// need not override it.
class SegmentSource {
 public:
  virtual ~SegmentSource() = default;
  virtual LogSegment* Next() = 0;
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

// Streams segments from an online primary through an SPSC channel.
// Cancel() closes the channel: the consumer stops, and the producer's Push
// fails instead of blocking the primary's sequencer on a full channel.
class ChannelSegmentSource : public SegmentSource {
 public:
  explicit ChannelSegmentSource(SpscQueue<LogSegment*>* channel)
      : channel_(channel) {}

  LogSegment* Next() override {
    auto seg = channel_->Pop();
    return seg.has_value() ? *seg : nullptr;
  }
  void Cancel() override { channel_->Close(); }

 private:
  SpscQueue<LogSegment*>* channel_;
};

}  // namespace c5::log

#endif  // C5_LOG_SEGMENT_SOURCE_H_
