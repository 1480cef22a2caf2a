#include "replica/single_thread_replica.h"

namespace c5::replica {

void SingleThreadReplica::Start(log::SegmentSource* source) {
  thread_ = std::thread([this, source] { Run(source); });
}

void SingleThreadReplica::Run(log::SegmentSource* source) {
  const auto guard = db_->epochs().Enter();
  while (log::LogSegment* seg = source->Next()) {
    for (const log::LogRecord& rec : seg->records()) {
      ApplyRecord(rec);
      if (rec.last_in_txn) {
        // Each transaction's writes become visible atomically, in commit
        // order: the visibility watermark moves only at txn boundaries.
        PublishVisible(rec.commit_ts);
      }
    }
  }
  done_.store(true, std::memory_order_release);
}

void SingleThreadReplica::Stop() {
  if (thread_.joinable()) thread_.join();
}

}  // namespace c5::replica
