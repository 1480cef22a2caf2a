#ifndef C5_COMMON_THREAD_UTIL_H_
#define C5_COMMON_THREAD_UTIL_H_

#include <chrono>
#include <thread>
#include <vector>

namespace c5 {

// Best-effort pinning of the calling thread to a CPU. No-op on failure or on
// platforms without sched_setaffinity. The paper pins primary threads,
// workers, the scheduler, and the snapshotter to distinct cores (§7.3).
void PinThreadToCore(int core);

// Number of hardware threads, never less than 1.
unsigned HardwareConcurrency();

// Joins every thread in the vector (skipping non-joinable ones) and clears it.
void JoinAll(std::vector<std::thread>& threads);

// Paces a periodic thread (flusher, snapshotter, visibility publisher) to
// its interval. Each Wait() sleeps to an absolute deadline one period after
// the previous one, so the work done between waits does not stretch the
// period; a thread that falls behind re-anchors one period from now rather
// than bursting to catch up. Construct it on the thread that waits: it sets
// that thread's timer slack to 1 ns (Linux), because the default 50 us
// slack alone would stretch the sub-millisecond flush and snapshot periods.
class Ticker {
 public:
  explicit Ticker(std::chrono::nanoseconds period);

  void Wait();

 private:
  const std::chrono::nanoseconds period_;
  std::chrono::steady_clock::time_point next_;
};

}  // namespace c5

#endif  // C5_COMMON_THREAD_UTIL_H_
