#ifndef C5_COMMON_EVENT_COUNT_H_
#define C5_COMMON_EVENT_COUNT_H_

#include <atomic>
#include <cstdint>

#include "common/spin_lock.h"

namespace c5 {

// Park/wake primitive for threads that wait on a condition published through
// atomics (a queue's head index, a watermark). An eventcount: the waiter
// registers, re-checks its condition, and sleeps only if the condition is
// still false; the thread that makes the condition true publishes it and
// then calls Notify*(), which wakes every waiter registered before it.
//
//   waiter:    ec.Await([&] { return head.load(acquire) != seen; });
//   notifier:  head.store(next, release); ec.NotifyOne();
//
// The sleeping happens in std::atomic<uint32_t>::wait (a futex on Linux),
// so a parked thread costs no CPU. Notify*() costs one seq_cst
// read-modify-write of the waiter count (the price of a fence) when nobody
// waits, which keeps it cheap enough for every hand-off on the replication
// path.
//
// No lost wake-up: the waiter's registration and the notifier's check are
// both seq_cst read-modify-writes of the same counter, so one of them comes
// first. If the registration does, the notifier sees the waiter and wakes
// it. If the check does, the registration reads from it and so
// synchronizes with the notifier: the waiter's re-check then sees the
// published condition. (A standalone fence pair would do the same, but the
// thread sanitizer does not model fences; it does model this.)
//
// The futex word is a 32-bit epoch of its own, bumped by every Notify that
// finds a waiter; the waiter count lives beside it. A waiter sleeps until
// the epoch differs from the one it read when it registered, so a Notify
// that lands between the re-check and the sleep is never missed.
class EventCount {
 public:
  EventCount() = default;
  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  // Polls before parking: a hand-off that lands within a few microseconds
  // is cheaper to catch spinning than through a futex wake-up. No yield in
  // the spin, so a waiter on an oversubscribed host gives up its core after
  // the spin instead of bouncing through the run queue.
  static constexpr int kSpinsBeforePark = 256;

  // Returns once `ready()` holds: up to kSpinsBeforePark polls with a pause
  // between them, then park/re-check rounds. `ready` must read only state
  // whose changes are followed by a Notify*() on this EventCount.
  template <typename Ready>
  void Await(Ready&& ready) {
    for (int i = 0; i < kSpinsBeforePark; ++i) {
      if (ready()) return;
      CpuRelax();
    }
    while (!ready()) {
      waiters_.fetch_add(1, std::memory_order_seq_cst);
      const std::uint32_t epoch = epoch_.load(std::memory_order_acquire);
      if (!ready()) {
        while (epoch_.load(std::memory_order_acquire) == epoch) {
          epoch_.wait(epoch, std::memory_order_acquire);
        }
      }
      waiters_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  // Wakes one registered waiter. Call after publishing the condition.
  void NotifyOne() {
    if (HasWaiters()) {
      epoch_.fetch_add(1, std::memory_order_release);
      epoch_.notify_one();
    }
  }

  // Wakes every registered waiter. Call after publishing the condition.
  void NotifyAll() {
    if (HasWaiters()) {
      epoch_.fetch_add(1, std::memory_order_release);
      epoch_.notify_all();
    }
  }

 private:
  bool HasWaiters() {
    return waiters_.fetch_add(0, std::memory_order_seq_cst) != 0;
  }

  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> waiters_{0};
};

}  // namespace c5

#endif  // C5_COMMON_EVENT_COUNT_H_
