#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mpmc_queue.h"
#include "common/spsc_queue.h"

namespace c5 {
namespace {

using std::chrono::milliseconds;

// Long enough that a waiter on the other side is certainly past its spin
// window (EventCount::kSpinsBeforePark pauses) and parked.
constexpr milliseconds kParkDelay{50};

// Busy-waits ~50 us: holds a ping-pong partner past its spin window without
// paying a sleep's timer latency.
void StallPastSpinWindow() {
  const std::int64_t until = MonotonicNowNanos() + 50'000;
  while (MonotonicNowNanos() < until) {
  }
}

// Polls `done` until it holds or `budget` passes.
bool WaitFor(const std::atomic<bool>& done, milliseconds budget) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!done.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

TEST(SpscQueueTest, PushPopSingleThread) {
  SpscQueue<int> q(8);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_EQ(q.TryPop().value(), 1);
  EXPECT_EQ(q.TryPop().value(), 2);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(SpscQueueTest, FullQueueRejectsTryPush) {
  SpscQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(99));
  EXPECT_EQ(q.SizeApprox(), 4u);
}

TEST(SpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
  SpscQueue<int> q(5);  // becomes 8
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(8));
}

TEST(SpscQueueTest, PopDrainsAfterClose) {
  SpscQueue<int> q(8);
  q.TryPush(1);
  q.TryPush(2);
  q.Close();
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(SpscQueueTest, PushFailsAfterCloseWhenFull) {
  SpscQueue<int> q(2);
  q.TryPush(1);
  q.TryPush(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));  // full + closed: must not block forever
}

TEST(SpscQueueTest, ConcurrentTransferPreservesOrderAndContent) {
  SpscQueue<int> q(64);
  constexpr int kItems = 200000;
  std::vector<int> received;
  received.reserve(kItems);

  std::thread consumer([&] {
    while (auto v = q.Pop()) received.push_back(*v);
  });
  for (int i = 0; i < kItems; ++i) ASSERT_TRUE(q.Push(i));
  q.Close();
  consumer.join();

  ASSERT_EQ(received.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) ASSERT_EQ(received[i], i);
}

TEST(SpscQueueTest, ParkedPopWakesOnPush) {
  SpscQueue<int> q(8);
  std::atomic<bool> done{false};
  std::optional<int> got;
  std::int64_t pop_cpu_ns = 0;
  std::thread consumer([&] {
    const std::int64_t cpu0 = ThreadCpuNowNanos();
    got = q.Pop();
    pop_cpu_ns = ThreadCpuNowNanos() - cpu0;
    done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(kParkDelay);
  EXPECT_FALSE(done.load(std::memory_order_acquire));
  ASSERT_TRUE(q.Push(42));
  const bool woke = WaitFor(done, milliseconds(5000));
  if (!woke) q.Close();  // unblock the consumer before failing
  consumer.join();
  ASSERT_TRUE(woke) << "a Push did not wake the parked Pop";
  EXPECT_EQ(got, std::optional<int>(42));
  // Parked, not spinning: a yield-spinning Pop burns the whole delay.
  EXPECT_LT(pop_cpu_ns, kParkDelay.count() * 1'000'000 / 5)
      << "Pop spun instead of parking";
}

TEST(SpscQueueTest, ParkedPopWakesOnClose) {
  SpscQueue<int> q(8);
  std::atomic<bool> done{false};
  std::optional<int> got = 7;
  std::thread consumer([&] {
    got = q.Pop();
    done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(kParkDelay);
  EXPECT_FALSE(done.load(std::memory_order_acquire));
  q.Close();
  const bool woke = WaitFor(done, milliseconds(5000));
  if (!woke) (void)q.TryPush(0);  // unblock the consumer before failing
  consumer.join();
  ASSERT_TRUE(woke) << "Close did not wake the parked Pop";
  EXPECT_FALSE(got.has_value());
}

TEST(SpscQueueTest, FullQueuePushParksAndWakesOnPop) {
  SpscQueue<int> q(2);
  ASSERT_TRUE(q.TryPush(1));
  ASSERT_TRUE(q.TryPush(2));
  std::atomic<bool> done{false};
  bool pushed = false;
  std::int64_t push_cpu_ns = 0;
  std::thread producer([&] {
    const std::int64_t cpu0 = ThreadCpuNowNanos();
    pushed = q.Push(3);
    push_cpu_ns = ThreadCpuNowNanos() - cpu0;
    done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(kParkDelay);
  EXPECT_FALSE(done.load(std::memory_order_acquire));
  EXPECT_EQ(q.TryPop(), std::optional<int>(1));
  const bool woke = WaitFor(done, milliseconds(5000));
  if (!woke) q.Close();  // unblock the producer before failing
  producer.join();
  ASSERT_TRUE(woke) << "a Pop did not wake the parked Push";
  EXPECT_TRUE(pushed);
  EXPECT_LT(push_cpu_ns, kParkDelay.count() * 1'000'000 / 5)
      << "Push spun instead of parking";
  EXPECT_EQ(q.TryPop(), std::optional<int>(2));
  EXPECT_EQ(q.TryPop(), std::optional<int>(3));
}

// Two threads bounce a token through two queues. Every 64th hop each side
// stalls past the other's spin window, so both sides park and wake over and
// over: a lost wake-up strands the token and the run times out. One token
// is in flight, so a Push never meets a full queue.
template <typename Queue>
void PingPongThroughParkedSides(Queue& ping, Queue& pong) {
  constexpr int kRoundTrips = 200'000;
  std::atomic<bool> done{false};
  std::atomic<int> completed{0};
  std::thread echo([&] {
    while (auto v = ping.Pop()) {
      if (*v % 64 == 0) StallPastSpinWindow();
      pong.Push(*v);
    }
  });
  std::thread pinger([&] {
    for (int i = 0; i < kRoundTrips; ++i) {
      if (i % 64 == 32) StallPastSpinWindow();
      ping.Push(i);
      const std::optional<int> v = pong.Pop();
      if (v != std::optional<int>(i)) return;
      completed.store(i + 1, std::memory_order_relaxed);
    }
    done.store(true, std::memory_order_release);
  });
  const bool finished = WaitFor(done, milliseconds(120'000));
  // Closing both queues unblocks whichever side is stuck.
  ping.Close();
  pong.Close();
  pinger.join();
  echo.join();
  ASSERT_TRUE(finished) << "stalled after " << completed.load()
                        << " round trips";
  EXPECT_EQ(completed.load(), kRoundTrips);
}

TEST(SpscQueueTest, PingPongThroughParkedSidesLosesNoWakeup) {
  SpscQueue<int> ping(4);
  SpscQueue<int> pong(4);
  PingPongThroughParkedSides(ping, pong);
}

TEST(MpmcQueueTest, PushPopBasic) {
  MpmcQueue<int> q;
  q.Push(7);
  EXPECT_EQ(q.Pop().value(), 7);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(MpmcQueueTest, FifoOrderSingleThread) {
  MpmcQueue<int> q;
  for (int i = 0; i < 10; ++i) q.Push(i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.Pop().value(), i);
}

TEST(MpmcQueueTest, CloseUnblocksPoppers) {
  MpmcQueue<int> q;
  std::thread t([&] { EXPECT_FALSE(q.Pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  t.join();
}

TEST(MpmcQueueTest, DrainsAfterClose) {
  MpmcQueue<int> q;
  q.Push(1);
  q.Close();
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(MpmcQueueTest, ManyProducersManyConsumers) {
  MpmcQueue<int> q;
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 50000;
  std::atomic<std::int64_t> sum{0};
  std::atomic<int> popped{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push(p * kPerProducer + i);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.Pop()) {
        sum.fetch_add(*v);
        popped.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.Close();
  for (int c = kProducers; c < kProducers + kConsumers; ++c) {
    threads[c].join();
  }

  const std::int64_t n = static_cast<std::int64_t>(kProducers) * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(MpmcQueueTest, PingPongThroughParkedSidesLosesNoWakeup) {
  MpmcQueue<int> ping;
  MpmcQueue<int> pong;
  PingPongThroughParkedSides(ping, pong);
}

TEST(MpmcQueueTest, SizeReflectsContents) {
  MpmcQueue<int> q;
  EXPECT_EQ(q.Size(), 0u);
  q.Push(1);
  q.Push(2);
  EXPECT_EQ(q.Size(), 2u);
  q.TryPop();
  EXPECT_EQ(q.Size(), 1u);
}

}  // namespace
}  // namespace c5
