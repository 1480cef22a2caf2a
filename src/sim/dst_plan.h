// Deterministic simulation testing (DST): the seeded scenario plan.
//
// A DstPlan is a pure function of its seed: workload shape, which replica
// protocols replay it, the per-frame wire-fault mix, whether the first
// replica crashes and restarts (and how), and whether the run ends in a
// mid-replay promotion. Everything downstream (dst_channel, dst_harness)
// draws randomness only from Rngs derived from this seed, so a failing run
// is replayable bit-for-bit from `C5_DST_SEED=<seed>`.

#ifndef C5_SIM_DST_PLAN_H_
#define C5_SIM_DST_PLAN_H_

#include <cstdint>
#include <vector>

#include "core/protocol_factory.h"
#include "ha/promotion.h"

namespace c5::sim {

struct DstPlan {
  std::uint64_t seed = 0;

  // ---- Primary workload (mixed insert/update/delete/put transactions over
  // a small contended key space, generated serially so the log is a pure
  // function of the seed). ----
  bool use_2pl = false;
  int clients = 2;                      // deterministic round-robin streams
  std::uint64_t txns_per_client = 40;
  std::uint64_t keyspace = 48;
  std::size_t segment_capacity = 24;    // small segments => many fault sites

  // ---- Wire faults, drawn per pristine frame in frame order. ----
  double p_corrupt = 0.0;    // flip bytes; decoder must reject, then NAK
  double p_truncate = 0.0;   // torn tail; decoder must reject, then NAK
  double p_duplicate = 0.0;  // frame shipped twice
  double p_delay = 0.0;      // frame displaced later in the stream
  int displace_window = 4;   // max forward displacement (frames)
  double p_deliver_stale_dup = 0.5;  // stale duplicate delivered vs dropped

  // ---- Replica set replaying the faulted stream. ----
  std::vector<core::ProtocolKind> replicas;
  int num_workers = 2;
  int gc_every = 0;  // C5 variants: GC every N snapshots during replay

  // ---- Crash/restart of replicas[0]: deliver a prefix, destroy the
  // replica, restart a fresh instance from its visibility checkpoint. ----
  bool crash = false;
  double crash_frac = 0.5;  // fraction of original segments before the crash
  // If set, the restart additionally round-trips the surviving state through
  // a checkpoint file (storage/checkpoint.h) into a fresh database.
  bool crash_via_checkpoint_file = false;

  // ---- Mid-replay promotion: a C5 victim replica receives only a prefix,
  // catches up, is promoted (ha/promotion.h), and executes new transactions;
  // the result is checked against a single-thread oracle replay. ----
  bool promote = false;
  double promote_frac = 0.6;  // prefix fraction delivered before promotion
  ha::EngineKind promote_engine = ha::EngineKind::kMvtso;
  std::uint64_t promoted_txns = 16;

  // ---- Sharded mode: when 2, the scenario runs TWO independent shard
  // groups — a seeded ShardRouter partitions the keyspace, each shard gets
  // its own serial primary (writing only its keys), its own faulty channel
  // (independent per-shard fault schedule), and one convergence replica
  // (crash/restart allowed on shard 0) — and every per-shard state oracle
  // runs against that shard's primary. A cross-shard router oracle then
  // asserts every key a replica materialized routes to its shard. The
  // promotion scenario is single-shard only (per-shard failover through the
  // façade is cluster_test's job). ----
  int shards = 1;
  std::uint64_t router_seed = 0;

  // ---- Live reshard (sharded mode only): mid-workload, a seed-chosen slice
  // of shard 0's keys migrates to shard 1 through the router's epoch
  // machinery — copy from the source primary, tail catch-up rounds while
  // both shards keep executing, a write fence over the moving keys at
  // cutover (fenced writes queue and apply exactly once on the final
  // owner), then either CommitPlan (epoch bump + source residue deletes) or
  // a clean AbortFence (dest copy deletes, epoch unchanged). Runs
  // concurrently with the per-shard wire faults and the shard-0
  // crash/restart; the router oracle checks placements at the CURRENT
  // epoch, accepting tombstone residue on the old owner. ----
  bool reshard = false;
  double reshard_frac = 0.25;  // fraction of shard 0's keys that migrate
  bool reshard_abort = false;  // abort at the fence instead of committing

  // ---- Replay-worker sweep: overrides num_workers for every replica in
  // the scenario when > 0 (see ReplayWidth). Drawn from {1, 2, 4} so
  // the partitioned-batch pipeline's epoch-batched
  // visibility is exercised at degenerate (1), default (2), and
  // oversubscribed (4, on small CI hosts) widths. ----
  int replay_workers = 0;

  static DstPlan FromSeed(std::uint64_t seed);
};

// The replay width every replica in the scenario runs with.
inline int ReplayWidth(const DstPlan& plan) {
  return plan.replay_workers > 0 ? plan.replay_workers : plan.num_workers;
}

}  // namespace c5::sim

#endif  // C5_SIM_DST_PLAN_H_
