#ifndef C5_COMMON_MPMC_QUEUE_H_
#define C5_COMMON_MPMC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <optional>

#include "common/event_count.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace c5 {

// Unbounded multi-producer multi-consumer FIFO queue: a mutex-guarded deque.
// A consumer waiting on an empty queue spins briefly and then parks on an
// EventCount until a Push (or Close) wakes it, so an idle worker pool costs
// no CPU. The atomic size keeps waiting consumers off the mutex, where a
// pack of pollers would convoy the producer.
template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(LockRank rank = LockRank::kQueue) : mu_(rank) {}
  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  void Push(T value) {
    {
      MutexLock lock(mu_);
      items_.push_back(std::move(value));
      size_.store(items_.size(), std::memory_order_release);
    }
    not_empty_.NotifyOne();
  }

  // Blocks (spin, then park) until an item is available. Returns nullopt
  // once the queue is closed *and* drained.
  std::optional<T> Pop() {
    while (true) {
      if (auto v = TryPop()) return v;
      if (closed()) {
        // Re-check: a push may have raced with Close().
        if (auto v = TryPop()) return v;
        return std::nullopt;
      }
      not_empty_.Await([this] { return Size() != 0 || closed(); });
    }
  }

  std::optional<T> TryPop() {
    if (Size() == 0) return std::nullopt;
    MutexLock lock(mu_);
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    size_.store(items_.size(), std::memory_order_release);
    return value;
  }

  // Wakes every parked Pop; each drains what is left, then returns nullopt.
  void Close() {
    closed_.store(true, std::memory_order_release);
    not_empty_.NotifyAll();
  }

  std::size_t Size() const { return size_.load(std::memory_order_acquire); }

 private:
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  Mutex mu_;
  std::deque<T> items_ C5_GUARDED_BY(mu_);
  alignas(64) std::atomic<std::size_t> size_{0};
  std::atomic<bool> closed_{false};
  alignas(64) EventCount not_empty_;
};

}  // namespace c5

#endif  // C5_COMMON_MPMC_QUEUE_H_
