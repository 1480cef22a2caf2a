#include "core/protocol_factory.h"

#include "core/c5_myrocks_replica.h"
#include "core/c5_replica.h"
#include "replica/granularity_replica.h"
#include "replica/kuafu_replica.h"
#include "replica/query_fresh_replica.h"
#include "replica/single_thread_replica.h"

namespace c5::core {

const char* ToString(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kC5:
      return "c5";
    case ProtocolKind::kC5MyRocks:
      return "c5-myrocks";
    case ProtocolKind::kC5Queue:
      return "c5-queue";
    case ProtocolKind::kPageGranularity:
      return "page";
    case ProtocolKind::kTableGranularity:
      return "table";
    case ProtocolKind::kKuaFu:
      return "kuafu";
    case ProtocolKind::kKuaFuUnconstrained:
      return "kuafu-unconstrained";
    case ProtocolKind::kSingleThread:
      return "single-threaded";
    case ProtocolKind::kQueryFresh:
      return "query-fresh";
  }
  return "unknown";
}

std::unique_ptr<replica::ReplicaBase> MakeReplica(
    ProtocolKind kind, storage::Database* db, const ProtocolOptions& options,
    replica::LagTracker* lag) {
  switch (kind) {
    case ProtocolKind::kC5: {
      C5Replica::Options o;
      o.num_workers = options.num_workers;
      o.snapshot_interval = options.snapshot_interval;
      o.gc_every = options.gc_every;
      o.scheduler_map_capacity = options.scheduler_map_capacity;
      return std::make_unique<C5Replica>(db, o, lag);
    }
    case ProtocolKind::kC5MyRocks: {
      C5MyRocksReplica::Options o;
      o.num_workers = options.num_workers;
      o.snapshot_interval = options.snapshot_interval;
      o.snapshot_cost = options.snapshot_cost;
      o.gc_every = options.gc_every;
      o.scheduler_map_capacity = options.scheduler_map_capacity;
      return std::make_unique<C5MyRocksReplica>(db, o, lag);
    }
    case ProtocolKind::kC5Queue:
    case ProtocolKind::kPageGranularity:
    case ProtocolKind::kTableGranularity: {
      replica::GranularityReplica::Options o;
      o.num_workers = options.num_workers;
      o.visibility_interval = options.snapshot_interval;
      o.granularity = kind == ProtocolKind::kC5Queue
                          ? replica::Granularity::kRow
                          : (kind == ProtocolKind::kPageGranularity
                                 ? replica::Granularity::kPage
                                 : replica::Granularity::kTable);
      return std::make_unique<replica::GranularityReplica>(db, o, lag);
    }
    case ProtocolKind::kKuaFu:
    case ProtocolKind::kKuaFuUnconstrained: {
      replica::KuaFuReplica::Options o;
      o.num_workers = options.num_workers;
      o.visibility_interval = options.snapshot_interval;
      o.unconstrained = kind == ProtocolKind::kKuaFuUnconstrained;
      return std::make_unique<replica::KuaFuReplica>(db, o, lag);
    }
    case ProtocolKind::kSingleThread:
      return std::make_unique<replica::SingleThreadReplica>(db, lag);
    case ProtocolKind::kQueryFresh:
      return std::make_unique<replica::QueryFreshReplica>(
          db, replica::QueryFreshReplica::Options{}, lag);
  }
  return nullptr;
}

}  // namespace c5::core
