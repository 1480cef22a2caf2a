// c5_e2ebench — the repository benchmark. Drives a real c5::Cluster (one
// primary engine, log shipping, one backup) through its public API only and
// reports what a user of a C5 deployment sees: how soon a write committed on
// the primary is readable on the backup, how fast the primary commits, how
// fast the backup serves reads, and what the whole process costs in CPU and
// memory.
//
//   c5_e2ebench --workload fresh|keepup --seed N --seconds S
//               [--trace 0|1] [--trace-out FILE] [--source-id ID]
//
// Workloads (all inputs generated here from --seed):
//   fresh   MVTSO primary -> C5 backup (one replay worker) over loopback
//           TCP; one open-loop writer at 20k txn/s (3 Zipfian updates + 1
//           insert).
//   keepup  2PL primary -> in-process C5-MyRocks backup (two replay
//           workers); two open-loop writers at 40k txn/s each (4 Zipfian
//           updates).
// A freshness probe thread runs beside the writers. Before the writers
// start, one closed-loop reader measures the read path on the loaded,
// caught-up backup for a few seconds: 3/4 session point reads, 1/4
// OpenSnapshot + Get + a 1,024-key count Aggregate.
//
// A run first waits, up to a minute, until the host gives this machine its
// CPUs (WaitForHostCpu); the META line records how long it waited.
//
// Every run ends with a correctness gate: the backup must cover the final
// commit, its table must match the primary's row for row (count + digest),
// the visible timestamp must never have regressed, and every read must
// have returned the row it asked for.
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, taken from spans the benchmark records around its own calls into
// each module (preallocated per-thread rings, written to --trace-out at
// exit) and from the stats getters the modules expose. Tracing is switched
// on and off in alternating 100 ms slices; bench.trace_overhead_pct compares
// commit latency between the traced and untraced slices.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

#include <execinfo.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/cluster.h"
#include "api/snapshot.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "net/ship_server.h"

namespace {

using c5::Key;
using c5::Status;
using c5::TableId;
using c5::Timestamp;
using c5::Value;

constexpr int kSetupReps = 3;           // setup_s is the median of these
constexpr std::size_t kValueBytes = 100;
constexpr Key kScanKeys = 1024;         // rows per Aggregate
constexpr int kScanEvery = 4;           // every 4th read op is an Aggregate
constexpr std::int64_t kProbePeriodNs = 50'000;
constexpr std::int64_t kTraceSliceNs = 100'000'000;
constexpr std::size_t kSpanRingCapacity = std::size_t{1} << 16;
constexpr std::size_t kCommitFeedCapacity = std::size_t{1} << 20;
constexpr int kReadSeconds = 3;  // the read pass, capped at --seconds
constexpr double kZipfTheta = 0.9;
constexpr std::int64_t kDrainTimeoutNs = 60'000'000'000;
constexpr int kWatchdogSeconds = 165;
// A run starts once a spinning thread gets this share of wall time as CPU
// time, or after kHostWaitSeconds.
constexpr double kHostCpuShare = 0.9;
constexpr int kHostWaitSeconds = 40;
// An open-loop run that commits less than this share of its offered rate
// was not open loop: the run is flagged in its metadata.
constexpr double kOpenLoopValidShare = 0.99;

std::int64_t NowNs() { return c5::MonotonicNowNanos(); }

// The phase the run is in, named on stderr when it crashes or hangs.
std::atomic<const char*> g_phase{"start"};

void SetPhase(const char* phase) {
  g_phase.store(phase);
  std::fprintf(stderr, "c5_e2ebench: %s\n", phase);
}

// A run that cannot go on: no result line, non-zero exit, and no static
// destructors racing the cluster's still-running threads.
[[noreturn]] void Die(const char* what) {
  std::fprintf(stderr, "c5_e2ebench: %s\n", what);
  std::fflush(stderr);
  std::_Exit(2);
}

// A crashed run is a failed run: say where, then die of the same signal.
extern "C" void OnFatalSignal(int sig) {
  const char* phase = g_phase.load();
  constexpr char kMsg[] = "c5_e2ebench: fatal signal during ";
  (void)!write(STDERR_FILENO, kMsg, sizeof(kMsg) - 1);
  (void)!write(STDERR_FILENO, phase, std::strlen(phase));
  (void)!write(STDERR_FILENO, "\n", 1);
  void* frames[64];
  backtrace_symbols_fd(frames, backtrace(frames, 64), STDERR_FILENO);
  signal(sig, SIG_DFL);
  raise(sig);
}

std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

// Sleeps with the kernel's minimum timer slack, so open-loop due times and
// the probe period are kept to a few microseconds.
void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

void SleepUntilNs(std::int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

// ---- Workloads ----------------------------------------------------------

// Every workload preloads one key-value table of kPreloadKeys keys and then
// runs open-loop writers whose transactions update Zipfian keys of it and
// may insert fresh keys.
struct WorkloadSpec {
  const char* name;
  c5::ha::EngineKind engine;
  c5::core::ProtocolKind protocol;
  bool via_socket;
  int replay_workers;
  int writers;
  double offered_tps;  // per writer, open loop
  int updates;         // per transaction
  int inserts;         // per transaction, of keys past the preload
};

// No two threads ever insert into the ordered index at once, on the primary
// or on the backup: the index's splice race (OrderedIndex::UpsertCommon,
// ROADMAP) crashes concurrent inserts into a young index. With two replay
// workers, fresh's preload crashed the C5 backup in about 1 run in 20, and
// a TPC-C NewOrder/Payment load crashed the C5-MyRocks backup in about 1 run
// in 12, always while the initial load replayed. So fresh has one writer
// and one C5 replay worker (C5 spreads a transaction's rows over its
// workers), keepup inserts no keys while its writers run, and the preload
// commits its next transaction only once the backup shows the previous one
// (C5-MyRocks applies a transaction that fits a log segment on one worker).
constexpr WorkloadSpec kWorkloads[] = {
    {"fresh", c5::ha::EngineKind::kMvtso, c5::core::ProtocolKind::kC5, true,
     1, 1, 20000, 3, 1},
    {"keepup", c5::ha::EngineKind::kTwoPhaseLocking,
     c5::core::ProtocolKind::kC5MyRocks, false, 2, 2, 40000, 4, 0},
};
constexpr std::uint64_t kPreloadKeys = 262144;
constexpr Key kPreloadTxnKeys = 512;  // half a log segment

constexpr int kMaxTxnWrites = 4;
static_assert(std::all_of(std::begin(kWorkloads), std::end(kWorkloads),
                          [](const WorkloadSpec& w) {
                            return w.updates + w.inserts <= kMaxTxnWrites;
                          }));

// Zipfian ranks over [0, n) (Gray et al.'s generator, as in YCSB),
// scrambled so hot keys are spread over the key space.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta)
      : n_(n), theta_(theta), alpha_(1.0 / (1.0 - theta)) {
    double zeta_n = 0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      zeta_n += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    const double zeta_2 = 1.0 + 1.0 / std::pow(2.0, theta);
    zeta_n_ = zeta_n;
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta_2 / zeta_n);
  }

  Key Next(c5::Rng& rng) const {
    const double u = rng.NextDouble();
    const double uz = u * zeta_n_;
    std::uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<std::uint64_t>(static_cast<double>(n_) *
                                        std::pow(eta_ * u - eta_ + 1, alpha_));
      rank = std::min(rank, n_ - 1);
    }
    return Mix64(rank) % n_;
  }

 private:
  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zeta_n_ = 0;
  double eta_ = 0;
};

// Row payload of the key-value table: the key, a version, and filler
// derived from both, so a read can tell whether it got the row it asked for.
void FillValue(Key key, std::uint64_t version, Value* out) {
  out->resize(kValueBytes);
  char* p = out->data();
  std::memcpy(p, &key, sizeof(key));
  std::memcpy(p + 8, &version, sizeof(version));
  std::uint64_t f = Mix64(key ^ (version << 1));
  for (std::size_t i = 16; i < kValueBytes; ++i) {
    p[i] = static_cast<char>(f >> ((i % 8) * 8));
  }
}

// What the reader reads (the preloaded keys) and how it checks what it got.
struct ReadTarget {
  TableId table = 0;
  std::uint64_t keys = 0;

  Key PointKey(c5::Rng& rng) const { return rng.Uniform(keys); }
  // First key of a range of kScanKeys keys that all exist.
  Key RangeLo(c5::Rng& rng) const {
    return rng.Uniform(keys - kScanKeys + 1);
  }
  static bool Valid(Key key, std::string_view v) {
    Key stored = 0;
    if (v.size() != kValueBytes) return false;
    std::memcpy(&stored, v.data(), sizeof(stored));
    return stored == key;
  }
};

// ---- Samples ------------------------------------------------------------

// Raw samples; quantiles are exact (nearest rank), not bucketed.
class Samples {
 public:
  void Reserve(std::size_t n) { v_.reserve(n); }
  void Add(std::int64_t x) {
    v_.push_back(x);
    sorted_ = false;
  }
  std::size_t size() const { return v_.size(); }
  void Append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    sorted_ = false;
  }
  double Quantile(double q) {
    if (v_.empty()) return 0;
    if (!sorted_) {
      std::sort(v_.begin(), v_.end());
      sorted_ = true;
    }
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v_.size())));
    rank = std::clamp<std::size_t>(rank, 1, v_.size());
    return static_cast<double>(v_[rank - 1]);
  }
  double Max() { return Quantile(1.0); }

 private:
  std::vector<std::int64_t> v_;
  bool sorted_ = false;
};

// End-to-end timings, bucketed by the half-second slice of the measured
// window each belongs to. A quantile is the median, over slices, of each
// slice's quantile: one stall (another tenant taking the CPU, a burst of
// page faults) moves one slice rather than the whole run's figure.
class SlicedSamples {
 public:
  static constexpr std::int64_t kSliceNs = 500'000'000;

  // Slices [start_ns, end_ns); expects up to `per_second` samples a second.
  void Init(std::int64_t start_ns, std::int64_t end_ns,
            std::size_t per_second) {
    t0_ = start_ns;
    const std::int64_t n = (end_ns - start_ns + kSliceNs - 1) / kSliceNs;
    slices_.assign(static_cast<std::size_t>(std::max<std::int64_t>(n, 1)),
                   Samples());
    for (auto& s : slices_) s.Reserve(per_second * kSliceNs / 1'000'000'000);
  }
  // Samples past the window's end count in its last slice.
  void Add(std::int64_t at_ns, std::int64_t x) {
    const std::int64_t i = (at_ns - t0_) / kSliceNs;
    slices_[static_cast<std::size_t>(std::clamp<std::int64_t>(
                i, 0, static_cast<std::int64_t>(slices_.size()) - 1))]
        .Add(x);
  }
  // Merges another thread's samples, sliced over the same window.
  void Append(const SlicedSamples& o) {
    if (slices_.empty()) {
      t0_ = o.t0_;
      slices_.resize(o.slices_.size());
    }
    for (std::size_t i = 0; i < slices_.size(); ++i) {
      slices_[i].Append(o.slices_[i]);
    }
  }
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& s : slices_) n += s.size();
    return n;
  }
  double Quantile(double q) {
    std::vector<double> per;
    for (auto& s : slices_) {
      if (s.size() > 0) per.push_back(s.Quantile(q));
    }
    if (per.empty()) return 0;
    std::sort(per.begin(), per.end());
    const std::size_t m = per.size() / 2;
    return per.size() % 2 == 1 ? per[m] : (per[m - 1] + per[m]) / 2;
  }

 private:
  std::int64_t t0_ = 0;
  std::vector<Samples> slices_;
};

// ---- Tracing ------------------------------------------------------------

enum SpanName : std::uint16_t {
  kSpanExecute,
  kSpanSessionRead,
  kSpanScanOp,
  kSpanOpenSnapshot,
  kSpanGet,
  kSpanAggregate,
  kNumSpanNames,
};

constexpr const char* kSpanNames[kNumSpanNames] = {
    "txn.execute",       "api.session_read", "bench.scan_op",
    "api.open_snapshot", "api.get",          "api.aggregate",
};

// One span: a call the benchmark made into a layer. Spans of one operation
// share op_id; parent is the enclosing span's id (0: none).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op_id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint16_t name = 0;
};

// Per-thread, preallocated, overwrite-oldest span ring: recording a span
// allocates nothing. Owned by the run; each thread writes only its own.
class SpanRing {
 public:
  explicit SpanRing(std::uint32_t thread)
      : thread_(thread), spans_(kSpanRingCapacity) {}

  std::uint64_t Begin(SpanName name, std::uint64_t op, std::uint64_t parent) {
    const std::uint64_t seq = next_++;
    Span& s = spans_[seq % spans_.size()];
    s.id = (std::uint64_t{thread_} << 48) | (seq + 1);
    s.parent = parent;
    s.op_id = op;
    s.name = name;
    s.end_ns = 0;
    s.start_ns = NowNs();
    return s.id;
  }
  void End(std::uint64_t id) {
    Span& s = spans_[((id & 0xffffffffffffull) - 1) % spans_.size()];
    if (s.id == id) s.end_ns = NowNs();
  }

  // Completed spans still in the ring.
  template <typename Fn>
  void ForEach(Fn fn) const {
    const std::uint64_t n = std::min<std::uint64_t>(next_, spans_.size());
    for (std::uint64_t i = 0; i < n; ++i) {
      if (spans_[i].end_ns != 0) fn(spans_[i]);
    }
  }

 private:
  std::uint32_t thread_;
  std::vector<Span> spans_;
  std::uint64_t next_ = 0;
};

// Null-safe span helpers: a null ring means "this op is not traced".
std::uint64_t SpanBegin(SpanRing* ring, SpanName name, std::uint64_t op,
                        std::uint64_t parent = 0) {
  return ring == nullptr ? 0 : ring->Begin(name, op, parent);
}
void SpanEnd(SpanRing* ring, std::uint64_t id) {
  if (ring != nullptr) ring->End(id);
}

// ---- Writer -> probe commit feed ----------------------------------------

struct CommitMark {
  Timestamp ts = 0;
  std::int64_t end_ns = 0;  // when Execute returned
};

// Single-producer (one writer) / single-consumer (the probe) ring.
class CommitFeed {
 public:
  CommitFeed() : marks_(kCommitFeedCapacity) {}

  void Push(Timestamp ts, std::int64_t end_ns) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - tail_.load(std::memory_order_acquire) == marks_.size()) {
      ++dropped_;  // the probe is a ring behind; this commit goes unsampled
      return;
    }
    marks_[head % marks_.size()] = CommitMark{ts, end_ns};
    head_.store(head + 1, std::memory_order_release);
  }

  // Probe side: consumes every mark, oldest first, whose timestamp is
  // covered by `visible` (one writer's commit timestamps only increase).
  template <typename Fn>
  void DrainVisible(Timestamp visible, Fn fn) {
    std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    while (tail < head && marks_[tail % marks_.size()].ts <= visible) {
      fn(marks_[tail % marks_.size()]);
      ++tail;
    }
    tail_.store(tail, std::memory_order_release);
  }

  bool Empty() const {
    return tail_.load(std::memory_order_acquire) ==
           head_.load(std::memory_order_acquire);
  }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<CommitMark> marks_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};
  std::uint64_t dropped_ = 0;  // writer-only until joined
};

// ---- Per-thread results -------------------------------------------------

struct WriterResult {
  SlicedSamples commit_ns;   // untraced ops (all ops without --trace)
  Samples commit_traced_ns;  // ops inside traced slices
  // How late the generator itself sent each request: start - max(due,
  // previous return).
  Samples late_ns;
  std::uint64_t attempted = 0;
  std::uint64_t committed = 0;
  std::uint64_t failed = 0;
  std::int64_t last_end_ns = 0;
};

struct ReaderResult {
  SlicedSamples read_ns;
  SlicedSamples scan_ns;
  std::uint64_t reads = 0;
  std::uint64_t scans = 0;
  std::uint64_t failed = 0;
  std::uint64_t token_violations = 0;
};

struct ProbeResult {
  SlicedSamples fresh_ns;  // by the commit's return time
  Samples backlog_ts;
  Samples advance_ns;
  Samples period_ns;
  std::uint64_t regressions = 0;  // VisibleTimestamp() went backwards
};

// ---- The run ------------------------------------------------------------

struct Options {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string source_id = "unknown";
};

struct Counters {
  std::uint64_t commits = 0, aborts = 0;
  std::uint64_t applied_writes = 0, deferred = 0, snapshots = 0;
  std::uint64_t ship_bytes = 0, ship_segments = 0, ship_naks = 0;
};

Counters ReadCounters(c5::Cluster& cluster) {
  Counters c;
  c.commits = cluster.engine().stats().commits.load();
  c.aborts = cluster.engine().stats().aborts.load();
  auto& rs = cluster.backup(0).replica().stats();
  c.applied_writes = rs.applied_writes.load();
  c.deferred = rs.deferred_writes.load();
  c.snapshots = rs.snapshots_taken.load();
  if (c5::net::ShipServer* server = cluster.ship_server()) {
    for (const auto& s : server->ClientStatsSnapshot()) {
      c.ship_bytes += s.bytes_sent;
      c.ship_segments += s.segments_sent;
      c.ship_naks += s.naks_received;
    }
  }
  return c;
}

std::int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

// On a shared VM the host sometimes takes a large share of this machine's
// CPUs away for minutes at a time (steal time of 20-40% was seen); every
// figure of a run then reads several times worse, which measures the host,
// not the program. So a run first waits, bounded, until a thread spinning
// for 200 ms gets its share of CPU time. Returns the last share measured.
double WaitForHostCpu(double* waited_s) {
  const std::int64_t start = NowNs();
  const std::int64_t deadline =
      start + std::int64_t{kHostWaitSeconds} * 1'000'000'000;
  double share = 0;
  while (true) {
    const std::int64_t w0 = NowNs();
    const std::int64_t c0 = ThreadCpuNs();
    while (NowNs() - w0 < 200'000'000) {
    }
    share = static_cast<double>(ThreadCpuNs() - c0) /
            static_cast<double>(NowNs() - w0);
    if (share >= kHostCpuShare || NowNs() > deadline) break;
    std::this_thread::sleep_for(std::chrono::seconds(1));
  }
  *waited_s = static_cast<double>(NowNs() - start) * 1e-9;
  return share;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool WaitVisible(c5::Cluster& cluster, Timestamp ts, std::int64_t timeout_ns) {
  const std::int64_t deadline = NowNs() + timeout_ns;
  while (cluster.backup(0).VisibleTimestamp() < ts) {
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

class Bench {
 public:
  explicit Bench(Options o)
      : o_(std::move(o)),
        spec_(*o_.spec),
        zipf_(kPreloadKeys, kZipfTheta) {}

  int Run();

 private:
  // Builds a cluster, loads it, and waits until the backup covers the load.
  std::unique_ptr<c5::Cluster> SetUp(std::uint64_t rep);
  void Measure();
  void RunWriter(int idx, WriterResult* out);
  void RunReader(std::int64_t start_ns, std::int64_t end_ns);
  void RunProbe();
  void Verify();
  void Report();
  SpanRing* TracedRing(SpanRing* ring) const {
    return ring != nullptr && tracing_.load(std::memory_order_relaxed)
               ? ring
               : nullptr;
  }
  SpanRing* NewRing() {
    if (!o_.trace) return nullptr;
    rings_.push_back(
        std::make_unique<SpanRing>(static_cast<std::uint32_t>(rings_.size())));
    return rings_.back().get();
  }
  void Fail(const char* what) {
    std::fprintf(stderr, "c5_e2ebench: correctness gate: %s\n", what);
    ++gate_failed_;
  }

  const Options o_;
  const WorkloadSpec& spec_;
  const Zipf zipf_;
  std::unique_ptr<c5::Cluster> cluster_;
  ReadTarget target_;
  std::vector<double> setup_s_;

  // Window.
  std::int64_t t0_ = 0, t_end_ = 0, t_stop_ = 0;
  std::atomic<bool> tracing_{false};
  std::atomic<bool> window_open_{false};
  std::atomic<bool> probe_stop_{false};
  std::vector<std::unique_ptr<CommitFeed>> feeds_;
  std::vector<WriterResult> writers_;
  ReaderResult reads_;
  double reader_seconds_ = 0;
  ProbeResult probe_;
  std::vector<std::unique_ptr<SpanRing>> rings_;
  std::vector<SpanRing*> writer_rings_;
  SpanRing* reader_ring_ = nullptr;
  Counters c0_, c1_;
  double cpu_s_ = 0, wall_s_ = 0, peak_rss_mib_ = 0;
  double host_cpu_share_ = 0, host_wait_s_ = 0;
  c5::Histogram apply_latency_;

  // Gate.
  std::uint64_t gate_checks_ = 0;
  std::uint64_t gate_failed_ = 0;
};

std::unique_ptr<c5::Cluster> Bench::SetUp(std::uint64_t rep) {
  c5::ClusterOptions options;
  options.WithEngine(spec_.engine);
  options.replay_workers = spec_.replay_workers;
  options.AddBackup({.protocol = spec_.protocol,
                     .via_socket = spec_.via_socket});
  auto cluster = std::make_unique<c5::Cluster>(options);
  const std::uint64_t n = kPreloadKeys;
  const double inserts =
      spec_.offered_tps * spec_.writers * spec_.inserts * o_.seconds;
  const TableId t = cluster->CreateTable(
      "kv", n + static_cast<std::size_t>(inserts * 1.25) + 1024);
  cluster->Start();
  // Values carry a seed- and rep-derived version.
  const std::uint64_t version = Mix64(o_.seed) + rep;
  Value v;
  for (Key lo = 0; lo < n; lo += kPreloadTxnKeys) {
    const Key hi = std::min<Key>(n, lo + kPreloadTxnKeys);
    Timestamp commit_ts = 0;
    const Status s = cluster->ExecuteWithRetry(
        [&](c5::txn::Txn& txn) {
          for (Key k = lo; k < hi; ++k) {
            FillValue(k, version, &v);
            const Status ps = txn.Put(t, k, v);
            if (!ps.ok()) return ps;
          }
          return Status::Ok();
        },
        &commit_ts);
    if (!s.ok()) Die("preload failed");
    cluster->Flush();
    if (!WaitVisible(*cluster, commit_ts, kDrainTimeoutNs)) {
      Die("backup never covered a preload transaction");
    }
  }
  target_ = ReadTarget{t, n};
  if (!WaitVisible(*cluster, cluster->clock().Latest(), kDrainTimeoutNs)) {
    Die("backup never covered the load");
  }
  return cluster;
}

void Bench::RunWriter(int idx, WriterResult* out) {
  TightenTimerSlack();
  c5::Cluster& cluster = *cluster_;
  CommitFeed& feed = *feeds_[idx];
  SpanRing* ring = writer_rings_[idx];
  c5::Rng rng(Mix64(o_.seed ^ (0x5752495445ull + idx)));
  const TableId t = target_.table;
  const std::int64_t period_ns =
      static_cast<std::int64_t>(1e9 / spec_.offered_tps);
  Key keys[kMaxTxnWrites];
  Value values[kMaxTxnWrites];
  const int writes = spec_.updates + spec_.inserts;
  std::int64_t prev_end = t0_;
  for (std::uint64_t i = 0;; ++i) {
    for (int j = 0; j < spec_.updates; ++j) keys[j] = zipf_.Next(rng);
    // Updates in key order: concurrent 2PL writers lock in one order and
    // never deadlock.
    for (int j = 1; j < spec_.updates; ++j) {
      for (int k = j; k > 0 && keys[k - 1] > keys[k]; --k) {
        std::swap(keys[k - 1], keys[k]);
      }
    }
    for (int j = 0; j < spec_.inserts; ++j) {
      keys[spec_.updates + j] =
          target_.keys + (i * spec_.writers + idx) * spec_.inserts + j;
    }
    // Distinct per writer and transaction, so a write applied out of order
    // on the backup shows in the digest.
    const std::uint64_t version =
        Mix64(o_.seed) ^ (((i + 1) << 8) | static_cast<std::uint64_t>(idx));
    for (int j = 0; j < writes; ++j) FillValue(keys[j], version, &values[j]);
    const std::int64_t due = t0_ + static_cast<std::int64_t>(i) * period_ns;
    if (due >= t_end_) break;
    SleepUntilNs(due);
    const std::int64_t start = NowNs();
    // A request due while the previous one still ran queued behind it: that
    // wait is the system's and counts in its latency. The generator's own
    // wake-up delay past max(due, previous return) is reported apart.
    const std::int64_t queued = std::max<std::int64_t>(0, prev_end - due);
    out->late_ns.Add(start - std::max(due, prev_end));
    SpanRing* traced = TracedRing(ring);
    const std::uint64_t op = (std::uint64_t{1} << 40) * (idx + 1) + i;
    Timestamp commit_ts = 0;
    const std::uint64_t span = SpanBegin(traced, kSpanExecute, op);
    const Status s = cluster.ExecuteWithRetry(
        [&](c5::txn::Txn& txn) {
          for (int j = 0; j < writes; ++j) {
            const Status ws = j < spec_.updates
                                  ? txn.Update(t, keys[j], values[j])
                                  : txn.Insert(t, keys[j], values[j]);
            if (!ws.ok()) return ws;
          }
          return Status::Ok();
        },
        &commit_ts);
    SpanEnd(traced, span);
    const std::int64_t end = NowNs();
    prev_end = end;
    ++out->attempted;
    out->last_end_ns = end;
    if (!s.ok()) {
      ++out->failed;
      continue;
    }
    ++out->committed;
    if (traced != nullptr) {
      out->commit_traced_ns.Add(end - start + queued);
    } else {
      out->commit_ns.Add(due, end - start + queued);
    }
    feed.Push(commit_ts, end);
  }
}

void Bench::RunReader(std::int64_t start_ns, std::int64_t end_ns) {
  ReaderResult* out = &reads_;
  out->read_ns.Init(start_ns, end_ns, 400000);
  out->scan_ns.Init(start_ns, end_ns, 50000);
  c5::Cluster& cluster = *cluster_;
  SpanRing* ring = reader_ring_;
  c5::Rng rng(Mix64(o_.seed ^ 0x52454144ull));
  c5::replica::ClientSession::Options so;
  so.policy = c5::replica::RoutingPolicy::kTokenRouted;
  so.wait_timeout = std::chrono::milliseconds(1000);
  c5::replica::ClientSession session = cluster.OpenSession(so);
  const TableId t = target_.table;
  Value value;
  for (std::uint64_t i = 0; NowNs() < end_ns; ++i) {
    SpanRing* traced = TracedRing(ring);
    const std::uint64_t op = (std::uint64_t{2} << 40) + i;
    if (i % kScanEvery == kScanEvery - 1) {
      const Key lo = target_.RangeLo(rng);
      const std::uint64_t op_span = SpanBegin(traced, kSpanScanOp, op);
      const std::uint64_t open_span =
          SpanBegin(traced, kSpanOpenSnapshot, op, op_span);
      const c5::Snapshot snap = cluster.OpenSnapshot(0);
      SpanEnd(traced, open_span);
      const std::uint64_t get_span = SpanBegin(traced, kSpanGet, op, op_span);
      const Status gs = snap.Get(t, lo, &value);
      SpanEnd(traced, get_span);
      const std::uint64_t agg_span =
          SpanBegin(traced, kSpanAggregate, op, op_span);
      const std::int64_t a0 = NowNs();
      const c5::AggResult agg =
          snap.Aggregate(t, lo, lo + kScanKeys, c5::AggSpec{});
      const std::int64_t a1 = NowNs();
      SpanEnd(traced, agg_span);
      SpanEnd(traced, op_span);
      ++out->scans;
      out->scan_ns.Add(a0, a1 - a0);
      if (!gs.ok() || !target_.Valid(lo, value) || agg.rows != kScanKeys) {
        ++out->failed;
      }
      continue;
    }
    const Key key = target_.PointKey(rng);
    const Timestamp before = session.token();
    const std::uint64_t span = SpanBegin(traced, kSpanSessionRead, op);
    const std::int64_t r0 = NowNs();
    const Status s = session.Read(t, key, &value);
    const std::int64_t r1 = NowNs();
    SpanEnd(traced, span);
    const Timestamp after = session.token();
    ++out->reads;
    out->read_ns.Add(r0, r1 - r0);
    // The snapshot a session read used lies between its token and the
    // backup's watermark: the token may only move up, and never past what
    // the backup has published.
    if (after < before || after > cluster.backup(0).VisibleTimestamp()) {
      ++out->token_violations;
      ++out->failed;
    } else if (!s.ok() || !target_.Valid(key, value)) {
      ++out->failed;
    }
  }
}

void Bench::RunProbe() {
  TightenTimerSlack();
  c5::Cluster& cluster = *cluster_;
  Timestamp last_vis = cluster.backup(0).VisibleTimestamp();
  std::int64_t last_change = 0, last_poll = 0;
  while (!probe_stop_.load(std::memory_order_acquire)) {
    const Timestamp vis = cluster.backup(0).VisibleTimestamp();
    const std::int64_t now = NowNs();
    const bool in_window = window_open_.load(std::memory_order_relaxed);
    if (vis < last_vis) ++probe_.regressions;
    if (vis != last_vis) {
      if (in_window && last_change != 0) {
        probe_.advance_ns.Add(now - last_change);
      }
      last_change = now;
      last_vis = std::max(vis, last_vis);
    }
    if (in_window) {
      const Timestamp latest = cluster.clock().Latest();
      probe_.backlog_ts.Add(
          static_cast<std::int64_t>(latest > vis ? latest - vis : 0));
      if (last_poll != 0) probe_.period_ns.Add(now - last_poll);
      last_poll = now;
    }
    for (auto& feed : feeds_) {
      feed->DrainVisible(vis, [&](const CommitMark& m) {
        probe_.fresh_ns.Add(m.end_ns, now - m.end_ns);
      });
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(kProbePeriodNs));
  }
}

void Bench::Measure() {
  c5::Cluster& cluster = *cluster_;
  const int nw = spec_.writers;
  for (int i = 0; i < nw; ++i) {
    feeds_.push_back(std::make_unique<CommitFeed>());
    writer_rings_.push_back(NewRing());
  }
  writers_.resize(nw);

  // The read path on the loaded, caught-up backup, before any write load:
  // its state is the seeded load, whatever the write window later does.
  reader_ring_ = NewRing();
  tracing_.store(o_.trace);
  const std::int64_t r0 = NowNs();
  RunReader(r0, r0 + std::int64_t{std::min(o_.seconds, kReadSeconds)} *
                         1'000'000'000);
  reader_seconds_ = static_cast<double>(NowNs() - r0) * 1e-9;
  tracing_.store(false);

  // The writers start together at t0_.
  t0_ = NowNs() + 5'000'000;
  t_end_ = t0_ + static_cast<std::int64_t>(o_.seconds) * 1'000'000'000;
  const std::size_t per_second =
      static_cast<std::size_t>(spec_.offered_tps) + 16;
  for (auto& w : writers_) {
    w.commit_ns.Init(t0_, t_end_, per_second);
    w.late_ns.Reserve(per_second * o_.seconds);
  }
  probe_.fresh_ns.Init(t0_, t_end_, per_second * nw);
  probe_.backlog_ts.Reserve(std::size_t{25000} * o_.seconds);
  probe_.period_ns.Reserve(std::size_t{25000} * o_.seconds);
  probe_.advance_ns.Reserve(std::size_t{25000} * o_.seconds);

  std::thread probe([this] { RunProbe(); });
  c0_ = ReadCounters(cluster);
  const double cpu0 = CpuSeconds();
  window_open_.store(true);
  std::vector<std::thread> threads;
  for (int i = 0; i < nw; ++i) {
    threads.emplace_back([this, i] { RunWriter(i, &writers_[i]); });
  }
  // Traced runs alternate traced and untraced slices.
  for (std::int64_t slice = t0_; slice < t_end_; slice += kTraceSliceNs) {
    SleepUntilNs(slice);
    if (o_.trace) {
      tracing_.store(((slice - t0_) / kTraceSliceNs) % 2 == 1);
    }
  }
  for (auto& th : threads) th.join();
  t_stop_ = NowNs();
  tracing_.store(false);
  window_open_.store(false);
  c1_ = ReadCounters(cluster);
  cpu_s_ = CpuSeconds() - cpu0;
  wall_s_ = static_cast<double>(t_stop_ - t0_) * 1e-9;
  peak_rss_mib_ = PeakRssMiB();

  // The probe keeps running until the backup covers every commit.
  const std::int64_t deadline = NowNs() + kDrainTimeoutNs;
  ++gate_checks_;
  while (!std::all_of(feeds_.begin(), feeds_.end(),
                      [](const auto& f) { return f->Empty(); })) {
    if (NowNs() > deadline) {
      Fail("backup did not cover the final commit in time");
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  probe_stop_.store(true, std::memory_order_release);
  probe.join();
}

// Order-independent digest of a table: row count + sum of per-row hashes.
struct TableDigest {
  std::uint64_t rows = 0;
  std::uint64_t sum = 0;
  void Add(Key key, std::string_view value) {
    ++rows;
    sum += Mix64(key ^ std::hash<std::string_view>{}(value));
  }
  bool operator==(const TableDigest&) const = default;
};

void Bench::Verify() {
  c5::Cluster& cluster = *cluster_;
  // The primary's final state, read at a settled timestamp.
  const Timestamp ts = cluster.clock().Latest();
  const std::int64_t deadline = NowNs() + kDrainTimeoutNs;
  ++gate_checks_;
  while (cluster.PrimaryLogHorizon() <= ts) {
    if (NowNs() > deadline) {
      Fail("the primary's final commits never settled");
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const TableId t = target_.table;
  TableDigest primary;
  std::vector<c5::ExportedRow> rows;
  // Exported in hash partitions to bound the copy's memory.
  constexpr std::uint64_t kParts = 8;
  for (std::uint64_t p = 0; p < kParts; ++p) {
    rows.clear();
    const Status s = cluster.ExportRows(
        t, [p](Key k) { return Mix64(k) % kParts == p; }, ts, &rows);
    if (!s.ok()) Fail("primary export failed");
    for (const auto& r : rows) primary.Add(r.key, r.value);
  }
  rows = {};

  cluster.WaitForBackups();
  cluster.backup(0).Stop();  // joins the workers: apply latencies merge
  apply_latency_ = cluster.backup(0).reader().ApplyLatencySnapshot();
  const c5::Snapshot snap = cluster.backup(0).OpenSnapshot();
  TableDigest backup;
  for (auto it = snap.Scan(t, 0, std::numeric_limits<Key>::max());
       it.Valid(); it.Next()) {
    backup.Add(it.key(), it.value());
  }
  ++gate_checks_;
  if (!(backup == primary)) {
    std::fprintf(stderr, "c5_e2ebench: primary %llu rows, backup %llu\n",
                 static_cast<unsigned long long>(primary.rows),
                 static_cast<unsigned long long>(backup.rows));
    Fail("backup table differs from the primary");
  }
  ++gate_checks_;
  if (probe_.regressions > 0) Fail("backup visible timestamp went backwards");
}

// ---- Output -------------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

int CpusAllowed() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

void Bench::Report() {
  WriterResult w;
  for (const auto& x : writers_) {
    w.commit_ns.Append(x.commit_ns);
    w.commit_traced_ns.Append(x.commit_traced_ns);
    w.late_ns.Append(x.late_ns);
    w.attempted += x.attempted;
    w.committed += x.committed;
    w.failed += x.failed;
    w.last_end_ns = std::max(w.last_end_ns, x.last_end_ns);
  }
  ReaderResult& r = reads_;
  std::uint64_t dropped = 0;
  for (const auto& f : feeds_) dropped += f->dropped();

  // write_tps: committed transactions from the window's start to the last
  // commit's return (past the window's end if a writer fell behind).
  const double write_window_s =
      static_cast<double>(w.last_end_ns - t0_) * 1e-9;
  const double write_tps = static_cast<double>(w.committed) / write_window_s;
  const double offered = spec_.offered_tps * spec_.writers;
  const bool open_loop_valid = write_tps >= kOpenLoopValidShare * offered;
  if (!open_loop_valid) {
    std::printf("FLAG open loop not sustained: %.1f of %.1f txn/s offered\n",
                write_tps, offered);
  }

  const std::uint64_t attempted =
      w.attempted + r.reads + r.scans + gate_checks_;
  const std::uint64_t failed = w.failed + r.failed + gate_failed_;
  const bool correct = gate_failed_ == 0 && r.failed == 0 && w.failed == 0;
  const double failed_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);

  std::vector<Metric> metrics;
  if (!o_.trace) {
    std::vector<double> setups = setup_s_;
    std::sort(setups.begin(), setups.end());
    metrics = {
        {"setup_s", setups[setups.size() / 2], "s"},
        {"write_tps", write_tps, "txn/s"},
        {"fresh_p50_us", probe_.fresh_ns.Quantile(0.5) / 1e3, "us"},
        {"cpu_cores", cpu_s_ / wall_s_, "cores"},
        {"peak_rss_mb", peak_rss_mib_, "MiB"},
    };
    std::printf("samples commit=%zu fresh=%zu read=%zu scan=%zu setup=%zu\n",
                w.commit_ns.size(), probe_.fresh_ns.size(), r.read_ns.size(),
                r.scan_ns.size(), setups.size());
    // Printed, not bounded: on a shared 4-vCPU VM these swing run to run by
    // more than any bound allows (CPU-bound microsecond timings such as
    // commit and read latency drift together with the host's load by 20-50%
    // over minutes; the freshness tail with multi-millisecond scheduling
    // stalls).
    const std::vector<Metric> info = {
        {"commit_p50_us", w.commit_ns.Quantile(0.5) / 1e3, "us"},
        {"fresh_p90_us", probe_.fresh_ns.Quantile(0.9) / 1e3, "us"},
        {"fresh_p99_us", probe_.fresh_ns.Quantile(0.99) / 1e3, "us"},
        {"read_p50_us", r.read_ns.Quantile(0.5) / 1e3, "us"},
        {"read_p99_us", r.read_ns.Quantile(0.99) / 1e3, "us"},
        {"scan_p50_us", r.scan_ns.Quantile(0.5) / 1e3, "us"},
        {"read_ops_per_s",
         static_cast<double>(r.reads + r.scans) / reader_seconds_, "ops/s"},
    };
    for (const auto& m : info) {
      std::printf("info %s %s %s\n", m.name.c_str(), Num(m.value).c_str(),
                  m.unit);
    }
    std::printf("setup_s each:");
    for (const double x : setup_s_) std::printf(" %s", Num(x).c_str());
    std::printf("\n");
  } else {
    // Span durations by name (traced slices only).
    std::vector<Samples> spans(kNumSpanNames);
    for (const auto& ring : rings_) {
      ring->ForEach([&](const Span& s) {
        spans[s.name].Add(s.end_ns - s.start_ns);
      });
    }
    Samples& execute = spans[kSpanExecute];
    const double window_s = static_cast<double>(t_stop_ - t0_) * 1e-9;
    const double commits = static_cast<double>(c1_.commits - c0_.commits);
    const double applied =
        static_cast<double>(c1_.applied_writes - c0_.applied_writes);
    const double segments =
        static_cast<double>(c1_.ship_segments - c0_.ship_segments);
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double untraced = w.commit_ns.Quantile(0.5);
    const double traced = w.commit_traced_ns.Quantile(0.5);
    metrics = {
        {"txn.execute_p50_us", execute.Quantile(0.5) / 1e3, "us"},
        {"txn.execute_p99_us", execute.Quantile(0.99) / 1e3, "us"},
        {"txn.aborts_per_commit",
         ratio(static_cast<double>(c1_.aborts - c0_.aborts), commits),
         "ratio"},
        {"net.bytes_per_txn",
         ratio(static_cast<double>(c1_.ship_bytes - c0_.ship_bytes), commits),
         "B/txn"},
        {"net.segments_per_s", segments / window_s, "1/s"},
        {"net.records_per_segment", ratio(applied, segments), "count"},
        {"net.naks", static_cast<double>(c1_.ship_naks - c0_.ship_naks),
         "count"},
        {"core.applied_writes_per_s", applied / window_s, "1/s"},
        {"core.deferred_per_applied",
         ratio(static_cast<double>(c1_.deferred - c0_.deferred), applied),
         "ratio"},
        {"core.apply_p50_ns",
         static_cast<double>(apply_latency_.Quantile(0.5)), "ns"},
        {"core.apply_p99_ns",
         static_cast<double>(apply_latency_.Quantile(0.99)), "ns"},
        {"core.backlog_ts_p50", probe_.backlog_ts.Quantile(0.5), "ts"},
        {"core.backlog_ts_max", probe_.backlog_ts.Max(), "ts"},
        {"replica.visible_advance_p50_us",
         probe_.advance_ns.Quantile(0.5) / 1e3, "us"},
        {"replica.visible_advance_p99_us",
         probe_.advance_ns.Quantile(0.99) / 1e3, "us"},
        {"replica.snapshots_per_s",
         static_cast<double>(c1_.snapshots - c0_.snapshots) / window_s, "1/s"},
        {"api.read_ops_per_s",
         static_cast<double>(r.reads + r.scans) / reader_seconds_, "ops/s"},
        {"api.session_read_p50_ns", spans[kSpanSessionRead].Quantile(0.5),
         "ns"},
        {"api.session_read_p99_ns", spans[kSpanSessionRead].Quantile(0.99),
         "ns"},
        {"api.open_snapshot_p50_ns", spans[kSpanOpenSnapshot].Quantile(0.5),
         "ns"},
        {"api.get_p50_ns", spans[kSpanGet].Quantile(0.5), "ns"},
        {"api.aggregate_p50_us", spans[kSpanAggregate].Quantile(0.5) / 1e3,
         "us"},
        {"api.aggregate_p99_us", spans[kSpanAggregate].Quantile(0.99) / 1e3,
         "us"},
        {"api.scan_ns_per_row",
         spans[kSpanAggregate].Quantile(0.5) / static_cast<double>(kScanKeys),
         "ns"},
        {"bench.gen_late_p99_us", w.late_ns.Quantile(0.99) / 1e3, "us"},
        {"bench.fresh_samples", static_cast<double>(probe_.fresh_ns.size()),
         "count"},
        {"bench.probe_period_us", probe_.period_ns.Quantile(0.5) / 1e3, "us"},
        {"bench.trace_overhead_pct", ratio(traced - untraced, untraced) * 100,
         "%"},
    };
    if (!o_.trace_out.empty()) {
      // Spans are written out only now, after the timed loops.
      std::FILE* f = std::fopen(o_.trace_out.c_str(), "w");
      if (f != nullptr) {
        std::fprintf(f, "# id parent op_id name start_ns end_ns\n");
        for (const auto& ring : rings_) {
          ring->ForEach([&](const Span& s) {
            std::fprintf(f, "%llx %llx %llx %s %lld %lld\n",
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent),
                         static_cast<unsigned long long>(s.op_id),
                         kSpanNames[s.name], static_cast<long long>(s.start_ns),
                         static_cast<long long>(s.end_ns));
          });
        }
        std::fclose(f);
      }
    }
  }

  std::printf(
      "META {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"nproc\": %ld, \"cpus_allowed\": %d, "
      "\"hardware_concurrency\": %u, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"source\": \"%s\", \"writers\": %d, "
      "\"replay_workers\": %d, "
      "\"readers\": 1, \"read_seconds\": %d, \"probe_threads\": 1, "
      "\"offered_tps\": %s, \"achieved_tps\": %s, \"open_loop_valid\": %s, "
      "\"probe_period_us\": %s, \"setup_reps\": %d, "
      "\"host_cpu_share\": %s, \"host_wait_s\": %s, "
      "\"fresh_dropped\": %llu, "
      "\"token_violations\": %llu, \"failed_ops_ratio\": %s}\n",
      spec_.name, static_cast<unsigned long long>(o_.seed), o_.seconds,
      o_.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), CpusAllowed(),
      std::thread::hardware_concurrency(), C5_BENCH_BUILD_TYPE,
      C5_BENCH_COMPILER, JsonEscape(o_.source_id).c_str(), spec_.writers,
      spec_.replay_workers, std::min(o_.seconds, kReadSeconds),
      Num(offered).c_str(), Num(write_tps).c_str(),
      open_loop_valid ? "true" : "false",
      Num(static_cast<double>(kProbePeriodNs) / 1e3).c_str(), kSetupReps,
      Num(host_cpu_share_).c_str(), Num(host_wait_s_).c_str(),
      static_cast<unsigned long long>(dropped),
      static_cast<unsigned long long>(r.token_violations),
      Num(failed_ratio).c_str());
  std::printf("metric failed_ops_ratio %s ratio\n", Num(failed_ratio).c_str());
  for (const auto& m : metrics) {
    std::printf("metric %s %s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Bench::Run() {
  SetPhase("host check");
  host_cpu_share_ = WaitForHostCpu(&host_wait_s_);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SetPhase("teardown");
    cluster_.reset();  // tear the previous set-up down, untimed
    SetPhase("setup");
    const std::int64_t s0 = NowNs();
    auto cluster = SetUp(static_cast<std::uint64_t>(rep));
    setup_s_.push_back(static_cast<double>(NowNs() - s0) * 1e-9);
    cluster_ = std::move(cluster);
  }
  SetPhase("measure");
  Measure();
  SetPhase("verify");
  Verify();
  Report();
  SetPhase("shutdown");
  cluster_->Shutdown();
  return 0;
}

// Kills a hung run: no result line, non-zero exit.
class Watchdog {
 public:
  explicit Watchdog(int seconds)
      : thread_([this, seconds] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::seconds(seconds),
                            [this] { return done_; })) {
            std::fprintf(stderr, "c5_e2ebench: run hung for %ds during %s\n",
                         seconds, g_phase.load());
            std::fflush(stderr);
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "c5_e2ebench: %s\nusage: c5_e2ebench --workload "
               "fresh|keepup --seed N --seconds S [--trace 0|1] "
               "[--trace-out FILE] [--source-id ID]\n",
               msg);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) Usage("missing flag value");
    const char* v = argv[++i];
    if (flag == "--workload") {
      for (const auto& w : kWorkloads) {
        if (std::string_view(w.name) == v) o.spec = &w;
      }
      if (o.spec == nullptr) Usage("unknown workload");
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atoi(v);
      if (o.seconds < 1 || o.seconds > 60) Usage("--seconds must be 1..60");
    } else if (flag == "--trace") {
      o.trace = std::atoi(v) != 0;
    } else if (flag == "--trace-out") {
      o.trace_out = v;
    } else if (flag == "--source-id") {
      o.source_id = v;
    } else {
      Usage("unknown flag");
    }
  }
  if (o.spec == nullptr) Usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  void* warm[1];
  backtrace(warm, 1);  // loads the unwinder now, not inside the handler
  for (const int sig : {SIGSEGV, SIGBUS, SIGABRT, SIGILL, SIGFPE}) {
    signal(sig, OnFatalSignal);
  }
  Watchdog watchdog(kWatchdogSeconds);
  Bench bench(options);
  return bench.Run();
}
