#include "common/thread_util.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#endif

namespace c5 {

void PinThreadToCore(int core) {
#if defined(__linux__)
  if (core < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(core) % CPU_SETSIZE, &set);
  // Best effort; ignore failures (e.g., restricted cgroups).
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)core;
#endif
}

unsigned HardwareConcurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void JoinAll(std::vector<std::thread>& threads) {
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
  threads.clear();
}

Ticker::Ticker(std::chrono::nanoseconds period)
    : period_(period), next_(std::chrono::steady_clock::now() + period) {
#if defined(__linux__)
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

void Ticker::Wait() {
  const auto now = std::chrono::steady_clock::now();
  if (next_ <= now) {
    next_ = now + period_;  // fell behind: re-anchor, no catch-up burst
  }
  std::this_thread::sleep_until(next_);
  next_ += period_;
}

}  // namespace c5
