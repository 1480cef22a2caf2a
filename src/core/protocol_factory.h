#ifndef C5_CORE_PROTOCOL_FACTORY_H_
#define C5_CORE_PROTOCOL_FACTORY_H_

#include <chrono>
#include <memory>

#include "replica/lag_tracker.h"
#include "replica/replica.h"

namespace c5::core {

// Every cloned concurrency control protocol in this repository, constructible
// behind their common base class, replica::ReplicaBase. Used by the parameterized
// test suites and the benchmark harness.
enum class ProtocolKind {
  kC5 = 0,              // §7.2 faithful design (embedded prev_ts scheduler)
  kC5MyRocks = 1,       // §5 backward-compatible variant
  kC5Queue = 2,         // §4.1 design with explicit per-row queues
  kPageGranularity = 3,  // §3.1.1 baseline
  kTableGranularity = 4,  // Fig. 12 baseline
  kKuaFu = 5,           // transaction-granularity baseline [20]
  kKuaFuUnconstrained = 6,  // §7.3 diagnostic (correctness intentionally off)
  kSingleThread = 7,    // MySQL 5.6 default
  kQueryFresh = 8,      // §9 lazy row-granularity protocol [61]
};

const char* ToString(ProtocolKind kind);

struct ProtocolOptions {
  int num_workers = 4;
  // Period of the background visibility / maintenance loop. C5: paces only
  // GC and checkpoints (its workers advance the snapshot themselves).
  // C5-MyRocks: the §5.2 snapshot period (each snapshot briefly blocks
  // writers). KuaFu and the granularity baselines: their visibility period.
  std::chrono::microseconds snapshot_interval =
      std::chrono::microseconds(200);
  std::chrono::microseconds snapshot_cost = std::chrono::microseconds(0);
  int gc_every = 0;  // C5 variants: GC every N snapshots (0 = off)
  // C5 variants: initial capacity of the scheduler's flat row map.
  std::size_t scheduler_map_capacity = std::size_t{1} << 16;
};

std::unique_ptr<replica::ReplicaBase> MakeReplica(
    ProtocolKind kind, storage::Database* db, const ProtocolOptions& options,
    replica::LagTracker* lag = nullptr);

}  // namespace c5::core

#endif  // C5_CORE_PROTOCOL_FACTORY_H_
