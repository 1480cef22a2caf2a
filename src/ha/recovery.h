#ifndef C5_HA_RECOVERY_H_
#define C5_HA_RECOVERY_H_

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "log/log_segment.h"
#include "log/segment_source.h"

namespace c5::ha {

// Segment source for restarting a dead replica on top of its surviving
// database state (classic database recovery, §9, specialized to cloned
// concurrency control: the restarted protocol must end up exactly where a
// never-crashed replica would be).
//
// `resume_ts` is the dead replica's last published VisibleTimestamp(): every
// transaction at or below it is fully applied (that is the watermark's
// contract in every protocol here), while writes above it may or may not
// have been applied by workers that ran ahead of the snapshot. Segments
// whose records all lie at or below resume_ts are skipped; the boundary
// segment and everything after are redelivered, and the shared apply
// primitive's idempotency (storage::Database::ApplyReplicated answers
// PrevInstall::kAlreadyApplied) discards the overlap.
class ResumeSegmentSource : public log::SegmentSource {
 public:
  ResumeSegmentSource(log::Log* log, Timestamp resume_ts)
      : log_(log), resume_ts_(resume_ts) {}

  log::LogSegment* Next() override {
    while (pos_ < log_->NumSegments()) {
      log::LogSegment* seg = log_->segment(pos_++);
      if (seg->empty() || seg->MaxTimestamp() > resume_ts_) return seg;
      ++skipped_;  // fully covered by the recovered state
    }
    return nullptr;
  }

  // Number of fully-covered segments skipped so far (diagnostics).
  std::size_t skipped() const { return skipped_; }

 private:
  log::Log* log_;
  const Timestamp resume_ts_;
  std::size_t pos_ = 0;
  std::size_t skipped_ = 0;
};

// Concatenates segment sources: exhausts each in turn. Used after failover
// to feed a surviving backup the old primary's log followed by the promoted
// primary's log — the promoted node's timestamps continue the old history
// (ha::PromoteToPrimary seeds its clock above the applied watermark), so the
// concatenation is a single well-formed log.
class ChainedSegmentSource : public log::SegmentSource {
 public:
  explicit ChainedSegmentSource(std::vector<log::SegmentSource*> sources)
      : sources_(std::move(sources)) {}

  log::LogSegment* Next() override {
    while (idx_ < sources_.size()) {
      if (log::LogSegment* seg = sources_[idx_]->Next()) return seg;
      ++idx_;
    }
    return nullptr;
  }
  // The chain is one log in timestamp order, so one mark covers every link.
  void Release(Timestamp applied_through) override {
    for (log::SegmentSource* s : sources_) s->Release(applied_through);
  }
  void Cancel() override {
    for (log::SegmentSource* s : sources_) s->Cancel();
  }

 private:
  std::vector<log::SegmentSource*> sources_;
  std::size_t idx_ = 0;
};

}  // namespace c5::ha

#endif  // C5_HA_RECOVERY_H_
