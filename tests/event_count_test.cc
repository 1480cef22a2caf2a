// EventCount (common/event_count.h): the park/wake primitive behind the
// SPSC channels and the C5 replay workers. A notify must never be lost,
// wherever it lands in a waiter's spin / register / re-check / sleep
// sequence; a waiter that finds its condition true must not sleep; and a
// parked waiter must cost no CPU.

#include "common/event_count.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/clock.h"

namespace c5 {
namespace {

using std::chrono::milliseconds;

bool WaitFor(const std::atomic<bool>& done, milliseconds budget) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!done.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

TEST(EventCountTest, AwaitReturnsAtOnceWhenReady) {
  EventCount ec;
  int polls = 0;
  ec.Await([&] {
    ++polls;
    return true;
  });
  EXPECT_EQ(polls, 1);
}

TEST(EventCountTest, ParkedAwaitWakesOnNotifyWithoutSpinning) {
  EventCount ec;
  std::atomic<bool> flag{false};
  std::atomic<bool> done{false};
  std::int64_t cpu_ns = 0;
  std::thread waiter([&] {
    const std::int64_t cpu0 = ThreadCpuNowNanos();
    ec.Await([&] { return flag.load(std::memory_order_acquire); });
    cpu_ns = ThreadCpuNowNanos() - cpu0;
    done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(done.load(std::memory_order_acquire));
  flag.store(true, std::memory_order_release);
  ec.NotifyAll();
  const bool woke = WaitFor(done, milliseconds(5000));
  if (!woke) {
    // Keep notifying so the waiter exits and the test can report.
    while (!done.load(std::memory_order_acquire)) ec.NotifyAll();
  }
  waiter.join();
  ASSERT_TRUE(woke) << "the notify was lost";
  EXPECT_LT(cpu_ns, 10'000'000) << "Await spun instead of parking";
}

TEST(EventCountTest, NotifyAllWakesEveryWaiter) {
  constexpr int kWaiters = 4;
  EventCount ec;
  std::atomic<bool> flag{false};
  std::atomic<int> woken{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      ec.Await([&] { return flag.load(std::memory_order_acquire); });
      woken.fetch_add(1, std::memory_order_acq_rel);
    });
  }
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_EQ(woken.load(), 0);
  flag.store(true, std::memory_order_release);
  ec.NotifyAll();
  const auto deadline = std::chrono::steady_clock::now() + milliseconds(5000);
  while (woken.load() < kWaiters &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  const int woken_by_one_notify = woken.load();
  while (woken.load() < kWaiters) ec.NotifyAll();  // let stragglers exit
  for (auto& t : waiters) t.join();
  EXPECT_EQ(woken_by_one_notify, kWaiters);
}

TEST(EventCountTest, PingPongLosesNoWakeup) {
  // Two threads hand a counter back and forth, each awaiting the other's
  // step on its own EventCount. Every 64th step one side pauses long
  // enough for the other to park, so the spin and the park paths both run.
  // A lost wake-up leaves both sides waiting and the run times out.
  constexpr std::uint64_t kSteps = 100'000;
  EventCount ping_ec;
  EventCount pong_ec;
  std::atomic<std::uint64_t> ping{0};
  std::atomic<std::uint64_t> pong{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> done{false};
  const auto stall = [] {
    const std::int64_t until = MonotonicNowNanos() + 50'000;
    while (MonotonicNowNanos() < until) {
    }
  };
  std::thread echo([&] {
    for (std::uint64_t i = 1; i <= kSteps; ++i) {
      ping_ec.Await([&] {
        return ping.load(std::memory_order_acquire) >= i ||
               stop.load(std::memory_order_acquire);
      });
      if (stop.load(std::memory_order_acquire)) return;
      if (i % 64 == 0) stall();
      pong.store(i, std::memory_order_release);
      pong_ec.NotifyOne();
    }
  });
  std::thread pinger([&] {
    for (std::uint64_t i = 1; i <= kSteps; ++i) {
      if (i % 64 == 32) stall();
      ping.store(i, std::memory_order_release);
      ping_ec.NotifyOne();
      pong_ec.Await([&] {
        return pong.load(std::memory_order_acquire) >= i ||
               stop.load(std::memory_order_acquire);
      });
      if (stop.load(std::memory_order_acquire)) return;
    }
    done.store(true, std::memory_order_release);
  });
  const bool finished = WaitFor(done, milliseconds(120'000));
  stop.store(true, std::memory_order_release);
  ping_ec.NotifyAll();
  pong_ec.NotifyAll();
  pinger.join();
  echo.join();
  ASSERT_TRUE(finished) << "a wake-up was lost after " << pong.load()
                        << " steps";
}

}  // namespace
}  // namespace c5
