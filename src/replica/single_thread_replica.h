#ifndef C5_REPLICA_SINGLE_THREAD_REPLICA_H_
#define C5_REPLICA_SINGLE_THREAD_REPLICA_H_

#include <atomic>
#include <string>
#include <thread>

#include "replica/replica.h"

namespace c5::replica {

// MySQL 5.6's default cloned concurrency control (§8, Fig. 12): one thread
// replays the log serially in commit order. Trivially satisfies monotonic
// prefix consistency; maximally exposed to unbounded replication lag
// (Theorem 1 with backup parallelism 1).
class SingleThreadReplica : public ReplicaBase {
 public:
  explicit SingleThreadReplica(storage::Database* db,
                               LagTracker* lag = nullptr)
      : ReplicaBase(db, lag) {}
  ~SingleThreadReplica() override { Stop(); }

  void Start(log::SegmentSource* source) override;
  // Each transaction is published as it is applied, so end of log is
  // caught up.
  bool CaughtUp() const override {
    return done_.load(std::memory_order_acquire);
  }
  void Stop() override;
  std::string name() const override { return "single-threaded"; }

 private:
  void Run(log::SegmentSource* source);

  std::thread thread_;
  std::atomic<bool> done_{false};
};

}  // namespace c5::replica

#endif  // C5_REPLICA_SINGLE_THREAD_REPLICA_H_
