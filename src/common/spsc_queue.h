#ifndef C5_COMMON_SPSC_QUEUE_H_
#define C5_COMMON_SPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <optional>
#include <vector>

#include "common/event_count.h"

namespace c5 {

// Bounded single-producer single-consumer ring buffer. Used to ship log
// segments from the primary's log appender to the backup's scheduler ("the
// log is always delivered promptly", §2.4). A consumer waiting on an empty
// queue, or a producer on a full one, spins briefly and then parks on an
// EventCount until the other side (or Close) wakes it, so an idle
// replication pipeline costs no CPU.
template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(std::size_t capacity)
      : capacity_(NextPow2(capacity)), mask_(capacity_ - 1),
        slots_(capacity_) {}

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  // Returns false if full.
  bool TryPush(T value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail == capacity_) return false;
    slots_[head & mask_] = std::move(value);
    head_.store(head + 1, std::memory_order_release);
    not_empty_.NotifyOne();
    return true;
  }

  // Blocks (spin, then park) until space is available or the queue is
  // closed. Returns false only if closed.
  bool Push(T value) {
    while (!TryPush(value)) {
      if (closed()) return false;
      not_full_.Await([this] { return !Full() || closed(); });
    }
    return true;
  }

  std::optional<T> TryPop() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_acquire);
    if (tail == head) return std::nullopt;
    T value = std::move(slots_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    not_full_.NotifyOne();
    return value;
  }

  // Blocks (spin, then park) until an element is available. Returns
  // nullopt once the queue is closed *and* drained.
  std::optional<T> Pop() {
    while (true) {
      if (auto v = TryPop()) return v;
      if (closed()) {
        // Re-check: a push may have raced with Close().
        if (auto v = TryPop()) return v;
        return std::nullopt;
      }
      not_empty_.Await([this] { return SizeApprox() != 0 || closed(); });
    }
  }

  // Wakes a parked Pop (which drains, then returns nullopt) and a parked
  // Push (which returns false).
  void Close() {
    closed_.store(true, std::memory_order_release);
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  std::size_t SizeApprox() const {
    return head_.load(std::memory_order_acquire) -
           tail_.load(std::memory_order_acquire);
  }

 private:
  bool Full() const { return SizeApprox() == capacity_; }

  static std::size_t NextPow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  const std::size_t capacity_;
  const std::size_t mask_;
  std::vector<T> slots_;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::atomic<bool> closed_{false};
  // Consumer parks on not_empty_, producer on not_full_.
  alignas(64) EventCount not_empty_;
  alignas(64) EventCount not_full_;
};

}  // namespace c5

#endif  // C5_COMMON_SPSC_QUEUE_H_
