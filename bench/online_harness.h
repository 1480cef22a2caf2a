#ifndef C5_BENCH_ONLINE_HARNESS_H_
#define C5_BENCH_ONLINE_HARNESS_H_

// Shared harness for the paper's online experiments (Figs. 8, 9, 12): a live
// 2PL primary streams its log to a replica while closed-loop read-only
// clients query the backup. Replication lag is measured per §6.3: time from
// primary commit to inclusion in the backup's current snapshot.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "api/snapshot.h"
#include "bench/bench_util.h"
#include "common/histogram.h"
#include "replica/lag_tracker.h"
#include "workload/synthetic.h"

namespace c5::bench {

struct OnlineConfig {
  int write_clients = 4;
  int read_clients = 0;
  int workers = 4;
  std::chrono::milliseconds duration{3000};
  int periods = 3;  // lag histogram split into this many periods (Fig. 8)
  std::chrono::microseconds snapshot_interval{10000};  // paper: 10 ms
  core::ProtocolKind protocol = core::ProtocolKind::kC5MyRocks;
  std::uint32_t inserts_per_txn = 4;
  // Optional write-rate throttle (txns/s across all clients; 0 = unthrottled)
  // used by the Fig. 12 load-spike schedule.
  std::uint64_t target_write_tps = 0;
};

struct OnlinePeriod {
  Histogram lag;
  double write_tps = 0;
  double read_tps = 0;
};

struct OnlineResult {
  std::vector<OnlinePeriod> periods;
  double total_write_tps = 0;
  double total_read_tps = 0;
  // Whole-run allocation count (bench-binary-wide hook) and the replica's
  // sampled apply-latency distribution.
  std::uint64_t allocs = 0;
  Histogram apply_latency;
};

inline OnlineResult RunOnlineInsertExperiment(const OnlineConfig& config) {
  storage::Database primary_db, backup_db;
  const TableId table =
      workload::SyntheticWorkload::CreateTable(&primary_db);
  workload::SyntheticWorkload::CreateTable(&backup_db);

  TxnClock clock;
  log::OnlineLogCollector collector(/*segment_records=*/256);
  txn::TwoPhaseLockingEngine engine(&primary_db, &collector, &clock);
  collector.SetReleaseHorizon([&engine] { return engine.LogHorizon(); });

  replica::LagTracker lag(/*sample_every=*/8);
  log::ChannelSegmentSource source(&collector.channel());
  core::ProtocolOptions options;
  options.num_workers = config.workers;
  options.snapshot_interval = config.snapshot_interval;
  auto rep = core::MakeReplica(config.protocol, &backup_db, options, &lag);
  AllocScope alloc_scope;
  rep->Start(&source);
  auto* base = dynamic_cast<replica::ReplicaBase*>(rep.get());

  // Log flusher: ship partial segments promptly so measured lag reflects the
  // protocol, not batching.
  std::atomic<bool> stop_flusher{false};
  std::thread flusher([&] {
    while (!stop_flusher.load(std::memory_order_acquire)) {
      collector.Flush();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  // Read-only clients: random point queries on the insert key space (§6.3:
  // "queries could select a nonexistent key").
  std::atomic<bool> stop_readers{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < config.read_clients; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(1000 + r);
      Value v;
      while (!stop_readers.load(std::memory_order_acquire)) {
        const Key key = (std::uint64_t{1} << 63) |
                        (rng.Uniform(config.write_clients) << 40) |
                        rng.Uniform(1 << 20);
        (void)base->OpenSnapshot().Get(table, key, &v);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Write clients (insert-only).
  workload::SyntheticWorkload wl(table,
                                 {.inserts_per_txn = config.inserts_per_txn,
                                  .adversarial = false});
  std::atomic<bool> stop_writers{false};
  std::atomic<std::uint64_t> commits{0};
  std::vector<std::thread> writers;
  for (int c = 0; c < config.write_clients; ++c) {
    writers.emplace_back([&, c] {
      Rng rng(c);
      std::uint64_t seq = 0;
      Stopwatch sw;
      std::uint64_t done = 0;
      while (!stop_writers.load(std::memory_order_acquire)) {
        Timestamp commit_ts = 0;
        const std::uint64_t base_seq = seq;
        const Status s = engine.ExecuteWithRetry([&](txn::Txn& txn) {
          for (std::uint32_t i = 0; i < config.inserts_per_txn; ++i) {
            const Key k = (std::uint64_t{1} << 63) |
                          (static_cast<std::uint64_t>(c) << 40) |
                          (base_seq + i);
            const Status st =
                txn.Insert(table, k, workload::EncodeIntValue(base_seq + i));
            if (!st.ok()) return st;
          }
          return Status::Ok();
        });
        if (s.ok()) {
          seq = base_seq + config.inserts_per_txn;
          commit_ts = clock.Latest();
          lag.RecordCommit(commit_ts);
          commits.fetch_add(1, std::memory_order_relaxed);
          ++done;
        }
        if (config.target_write_tps > 0) {
          // Closed-loop throttle: pace this client at its share of the
          // target rate.
          const double per_client =
              static_cast<double>(config.target_write_tps) /
              config.write_clients;
          const double expected_elapsed =
              static_cast<double>(done) / per_client;
          while (sw.ElapsedSeconds() < expected_elapsed &&
                 !stop_writers.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
        }
      }
    });
  }

  // Carve the run into periods, collecting a lag histogram per period.
  OnlineResult result;
  const auto period_len = config.duration / config.periods;
  std::uint64_t last_commits = 0, last_reads = 0;
  Stopwatch total;
  for (int p = 0; p < config.periods; ++p) {
    std::this_thread::sleep_for(period_len);
    OnlinePeriod period;
    period.lag = lag.TakeHistogram(/*reset=*/true);
    const std::uint64_t c_now = commits.load(), r_now = reads.load();
    const double secs =
        std::chrono::duration<double>(period_len).count();
    period.write_tps = static_cast<double>(c_now - last_commits) / secs;
    period.read_tps = static_cast<double>(r_now - last_reads) / secs;
    last_commits = c_now;
    last_reads = r_now;
    result.periods.push_back(std::move(period));
  }
  const double total_secs = total.ElapsedSeconds();
  result.total_write_tps = static_cast<double>(commits.load()) / total_secs;
  result.total_read_tps = static_cast<double>(reads.load()) / total_secs;

  stop_writers.store(true, std::memory_order_release);
  for (auto& w : writers) w.join();
  stop_flusher.store(true, std::memory_order_release);
  flusher.join();
  collector.Finish();
  rep->WaitUntilCaughtUp();
  result.allocs = alloc_scope.Count();
  stop_readers.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  rep->Stop();
  if (base != nullptr) result.apply_latency = base->ApplyLatencySnapshot();
  return result;
}

}  // namespace c5::bench

#endif  // C5_BENCH_ONLINE_HARNESS_H_
