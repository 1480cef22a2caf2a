#include "replica/single_thread_replica.h"

namespace c5::replica {

void SingleThreadReplica::Run() {
  const auto guard = db_->epochs().Enter();
  while (log::LogSegment* seg = NextSegment()) {
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

}  // namespace c5::replica
