// The c5::Cluster public façade: bring-up, the Snapshot read surface (Get /
// MultiGet / Scan) checked against a single-thread oracle replica in the
// same fleet, session guarantees across backups, failover promotion through
// the façade, and BackupNode's recovery visibility window. The second half
// covers c5::ShardedCluster: cross-shard scatter-gather reads against a
// single-thread oracle over ALL shards, per-shard promotion while the other
// shards keep serving, and per-shard session-token monotonicity.

#include "api/cluster.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/sharded_cluster.h"
#include "ha/recovery.h"
#include "log/segment_source.h"
#include "net/socket.h"
#include "tests/test_util.h"
#include "workload/synthetic.h"

namespace c5 {
namespace {

Status PutInt(Cluster& cluster, TableId table, Key key, std::uint64_t n,
              Timestamp* commit_ts = nullptr) {
  return cluster.ExecuteWithRetry(
      [&](txn::Txn& txn) {
        return txn.Put(table, key, workload::EncodeIntValue(n));
      },
      commit_ts);
}

TEST(ClusterTest, BringUpExecuteAndPointReads) {
  Cluster cluster(ClusterOptions{}
                      .WithEngine(ha::EngineKind::kMvtso)
                      .WithBackups(1, core::ProtocolKind::kC5)
                      .WithWorkers(2));
  const TableId t = cluster.CreateTable("kv");
  cluster.Start();

  for (std::uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(PutInt(cluster, t, k, k * 10).ok());
  }
  cluster.StopPrimary();
  cluster.WaitForBackups();

  const Snapshot snap = cluster.OpenSnapshot();
  Value v;
  ASSERT_TRUE(snap.Get(t, 42, &v).ok());
  EXPECT_EQ(workload::DecodeIntValue(v), 420u);
  EXPECT_EQ(snap.Get(t, 100, &v).code(), StatusCode::kNotFound);

  std::vector<Value> values;
  const auto statuses = snap.MultiGet(t, {1, 2, 999}, &values);
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].ok());
  EXPECT_EQ(statuses[2].code(), StatusCode::kNotFound);
  EXPECT_EQ(workload::DecodeIntValue(values[0]), 10u);
  EXPECT_EQ(workload::DecodeIntValue(values[1]), 20u);
  cluster.Shutdown();
}

TEST(ClusterTest, ScanIsOrderedHalfOpenAndSkipsDeleted) {
  Cluster cluster(ClusterOptions{}.WithBackups(1).WithWorkers(2));
  const TableId t = cluster.CreateTable("kv");
  cluster.Start();

  for (const std::uint64_t k : {9, 3, 27, 12, 18, 6}) {
    ASSERT_TRUE(PutInt(cluster, t, k, k).ok());
  }
  ASSERT_TRUE(cluster
                  .ExecuteWithRetry(
                      [&](txn::Txn& txn) { return txn.Delete(t, 12); })
                  .ok());
  cluster.StopPrimary();
  cluster.WaitForBackups();

  const Snapshot snap = cluster.OpenSnapshot();
  std::vector<Key> got;
  for (auto it = snap.Scan(t, 3, 27); it.Valid(); it.Next()) {
    got.push_back(it.key());
    EXPECT_EQ(workload::DecodeIntValue(Value(it.value())), it.key());
  }
  // [3, 27): 27 excluded, 12 deleted, ascending order.
  EXPECT_EQ(got, (std::vector<Key>{3, 6, 9, 18}));

  // Empty range and absent band behave.
  auto empty = snap.Scan(t, 100, 200);
  EXPECT_FALSE(empty.Valid());
  cluster.Shutdown();
}

// A heterogeneous fleet replays the same mixed workload; the parallel C5
// backup's read surface must agree with the single-thread oracle backup's,
// key by key and range by range.
TEST(ClusterTest, SnapshotReadsMatchSingleThreadOracleAcrossFleet) {
  constexpr std::uint64_t kKeyspace = 64;
  ClusterOptions options;
  options.WithEngine(ha::EngineKind::kMvtso)
      .WithWorkers(4)
      .AddBackup({.protocol = core::ProtocolKind::kC5})
      .AddBackup({.protocol = core::ProtocolKind::kSingleThread});
  Cluster cluster(options);
  const TableId t = cluster.CreateTable("kv");
  cluster.Start();

  Rng rng(test::TestSeed(99));
  for (int txn_i = 0; txn_i < 500; ++txn_i) {
    (void)cluster.ExecuteWithRetry([&](txn::Txn& txn) {
      const Key key = rng.Uniform(kKeyspace);
      switch (rng.Uniform(3)) {
        case 0: {
          const Status s = txn.Delete(t, key);
          return s.code() == StatusCode::kNotFound ? Status::Ok() : s;
        }
        default:
          return txn.Put(t, key, workload::EncodeIntValue(rng.Next()));
      }
    });
  }
  cluster.StopPrimary();
  cluster.WaitForBackups();

  const Snapshot c5_snap = cluster.OpenSnapshot(0);
  const Snapshot oracle_snap = cluster.OpenSnapshot(1);
  EXPECT_EQ(c5_snap.timestamp(), oracle_snap.timestamp());
  for (Key k = 0; k < kKeyspace; ++k) {
    Value a, b;
    const Status sa = c5_snap.Get(t, k, &a);
    const Status sb = oracle_snap.Get(t, k, &b);
    EXPECT_EQ(sa.code(), sb.code()) << "key " << k;
    if (sa.ok() && sb.ok()) {
      EXPECT_EQ(a, b) << "key " << k;
    }
  }
  // Range reads agree too (the scan surface, not just point gets).
  std::vector<std::pair<Key, Value>> got, want;
  for (auto it = c5_snap.Scan(t, 0, kKeyspace); it.Valid(); it.Next()) {
    got.emplace_back(it.key(), Value(it.value()));
  }
  for (auto it = oracle_snap.Scan(t, 0, kKeyspace); it.Valid(); it.Next()) {
    want.emplace_back(it.key(), Value(it.value()));
  }
  EXPECT_EQ(got, want);
  cluster.Shutdown();
}

TEST(ClusterTest, SnapshotPinsItsStateWhileTheBackupAdvances) {
  Cluster cluster(ClusterOptions{}.WithBackups(1).WithWorkers(2));
  const TableId t = cluster.CreateTable("kv");
  cluster.Start();

  Timestamp first_commit = 0;
  ASSERT_TRUE(PutInt(cluster, t, 7, 1, &first_commit).ok());
  cluster.Flush();
  while (cluster.backup(0).VisibleTimestamp() < first_commit) {
  }

  const Snapshot pinned = cluster.OpenSnapshot();
  Value v;
  ASSERT_TRUE(pinned.Get(t, 7, &v).ok());
  EXPECT_EQ(workload::DecodeIntValue(v), 1u);

  Timestamp second_commit = 0;
  ASSERT_TRUE(PutInt(cluster, t, 7, 2, &second_commit).ok());
  cluster.Flush();
  while (cluster.backup(0).VisibleTimestamp() < second_commit) {
  }

  // The old handle still reads the old state; a new handle sees the new.
  ASSERT_TRUE(pinned.Get(t, 7, &v).ok());
  EXPECT_EQ(workload::DecodeIntValue(v), 1u);
  const Snapshot fresh = cluster.OpenSnapshot();
  ASSERT_TRUE(fresh.Get(t, 7, &v).ok());
  EXPECT_EQ(workload::DecodeIntValue(v), 2u);
  EXPECT_GT(fresh.timestamp(), pinned.timestamp());
  cluster.Shutdown();
}

TEST(ClusterTest, SessionReadsAcrossBackupsHonorTheToken) {
  // SLOW backup sits behind a shipping delay; a session whose token covers
  // the client's last write must route around it — and batch/range session
  // reads land on one covering snapshot.
  ClusterOptions options;
  options.WithWorkers(2)
      .WithSegmentRecords(32)
      .AddBackup({.protocol = core::ProtocolKind::kC5})
      .AddBackup({.protocol = core::ProtocolKind::kC5,
                  .ship_delay = std::chrono::microseconds(5000)});
  Cluster cluster(options);
  const TableId t = cluster.CreateTable("kv");
  cluster.Start();

  Timestamp last_commit = 0;
  for (std::uint64_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(PutInt(cluster, t, k, k, &last_commit).ok());
  }
  cluster.Flush();

  auto session = cluster.OpenSession();
  session.OnWrite(last_commit);
  Value v;
  ASSERT_TRUE(session.Read(t, 199, &v).ok());  // read-your-writes
  EXPECT_EQ(workload::DecodeIntValue(v), 199u);
  EXPECT_GE(session.token(), last_commit);

  std::vector<Value> values;
  const auto statuses = session.MultiGet(t, {0, 100, 199}, &values);
  for (const Status& s : statuses) EXPECT_TRUE(s.ok());

  std::vector<std::pair<Key, Value>> page;
  ASSERT_TRUE(session.Scan(t, 190, 200, &page).ok());
  ASSERT_EQ(page.size(), 10u);
  EXPECT_EQ(page.front().first, 190u);
  EXPECT_EQ(page.back().first, 199u);

  // Every read was served by a backup covering the token — which the
  // laggard cannot have been at first read.
  EXPECT_GT(session.stats().reads_per_backup[0], 0u);
  cluster.Shutdown();
}

TEST(ClusterTest, PromotionThroughTheFacadeExtendsHistory) {
  Cluster cluster(ClusterOptions{}
                      .WithBackups(2, core::ProtocolKind::kC5)
                      .WithWorkers(2));
  const TableId t = cluster.CreateTable("orders");
  cluster.Start();

  for (std::uint64_t k = 0; k < 300; ++k) {
    ASSERT_TRUE(PutInt(cluster, t, k, k).ok());
  }
  cluster.StopPrimary();
  // Execute without a primary fails loudly rather than hanging.
  EXPECT_FALSE(PutInt(cluster, t, 1, 1).ok());

  ASSERT_TRUE(cluster.Promote(0).ok());
  EXPECT_EQ(cluster.promoted_index(), 0u);
  EXPECT_FALSE(cluster.Promote(1).ok()) << "double promotion must fail";

  // The promoted node serves reads of replicated state and new writes
  // through the same Execute surface.
  Timestamp post_commit = 0;
  for (std::uint64_t k = 300; k < 350; ++k) {
    ASSERT_TRUE(cluster
                    .ExecuteWithRetry(
                        [&](txn::Txn& txn) {
                          Value old;
                          const Status st = txn.Read(t, k - 300, &old);
                          if (!st.ok()) return st;
                          return txn.Put(t, k,
                                         workload::EncodeIntValue(k));
                        },
                        &post_commit)
                    .ok());
  }
  const Timestamp pre_failover = cluster.backup(1).VisibleTimestamp();
  EXPECT_GT(post_commit, pre_failover)
      << "promoted commits must extend the replicated history";

  // The survivor follows the combined history.
  ASSERT_TRUE(cluster.CatchUpSurvivors().ok());
  const Snapshot snap = cluster.OpenSnapshot(1);
  Value v;
  ASSERT_TRUE(snap.Get(t, 42, &v).ok());
  ASSERT_TRUE(snap.Get(t, 342, &v).ok());
  EXPECT_EQ(workload::DecodeIntValue(v), 342u);
  EXPECT_EQ(test::StateDigest(cluster.backup(1).db(), kMaxTimestamp),
            test::StateDigest(cluster.backup(0).db(), kMaxTimestamp))
      << "survivor diverged from the promoted node";

  // Sessions opened against the fleet AFTER the survivor restart must read
  // through the survivor's NEW incarnation (CatchUpSurvivors re-points the
  // BackupSet; the old ReplicaBase is destroyed by Restart).
  auto session = cluster.OpenSession();
  session.OnWrite(post_commit);
  ASSERT_TRUE(session.Read(t, 342, &v).ok());
  EXPECT_EQ(workload::DecodeIntValue(v), 342u);
  cluster.Shutdown();
}

// Regression: a SINGLE-backup cluster whose only node is promoted used to
// serve index-less reads from the promoted node's frozen pre-promotion
// snapshot forever (the protocol threads that publish its watermark are
// stopped by Promote). OpenSnapshot() must instead advance the watermark to
// the promoted engine's settled point and see post-promotion commits.
TEST(ClusterTest, PromotedSingleBackupServesFreshReads) {
  Cluster cluster(ClusterOptions{}
                      .WithBackups(1, core::ProtocolKind::kC5)
                      .WithWorkers(2));
  const TableId t = cluster.CreateTable("kv");
  cluster.Start();

  Timestamp pre_commit = 0;
  ASSERT_TRUE(PutInt(cluster, t, 1, 10, &pre_commit).ok());
  ASSERT_TRUE(cluster.Promote(0).ok());
  const Timestamp pinned = cluster.backup(0).VisibleTimestamp();

  // Post-promotion writes land in the promoted node's own database.
  ASSERT_TRUE(PutInt(cluster, t, 1, 20).ok());
  ASSERT_TRUE(PutInt(cluster, t, 2, 30).ok());

  // An index-less snapshot reads them — overwrite and fresh insert both.
  EXPECT_EQ(cluster.default_read_backup(), 0u);
  {
    const Snapshot snap = cluster.OpenSnapshot();
    EXPECT_GT(snap.timestamp(), pinned)
        << "promoted node's watermark never advanced past the frozen "
           "pre-promotion snapshot";
    Value v;
    ASSERT_TRUE(snap.Get(t, 1, &v).ok());
    EXPECT_EQ(workload::DecodeIntValue(v), 20u);
    ASSERT_TRUE(snap.Get(t, 2, &v).ok());
    EXPECT_EQ(workload::DecodeIntValue(v), 30u);
  }

  // Interleaved write/read rounds stay fresh AND monotonic (§2.3 holds for
  // the externally-advanced watermark too).
  Timestamp last_snap_ts = 0;
  for (std::uint64_t round = 0; round < 5; ++round) {
    ASSERT_TRUE(PutInt(cluster, t, 2, 100 + round).ok());
    const Snapshot snap = cluster.OpenSnapshot();
    EXPECT_GE(snap.timestamp(), last_snap_ts) << "snapshot regressed";
    last_snap_ts = snap.timestamp();
    Value v;
    ASSERT_TRUE(snap.Get(t, 2, &v).ok());
    EXPECT_EQ(workload::DecodeIntValue(v), 100 + round);
  }
  cluster.Shutdown();
}

// Process CPU time (user + system, every thread) in nanoseconds.
std::int64_t ProcessCpuNanos() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1'000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

TEST(ClusterTest, IdleClusterDoesNotSpin) {
  // A cluster with nothing to replicate must leave its cores to the reads
  // it exists to serve: the ship-server drain thread, the replay
  // schedulers and every protocol's workers park until work arrives, and
  // only the periodic flusher and snapshotters wake, briefly. One backup is
  // fed over loopback TCP, the others through in-process channels.
  Cluster cluster(ClusterOptions{}
                      .WithWorkers(2)
                      .AddBackup({.protocol = core::ProtocolKind::kC5,
                                  .via_socket = true})
                      .AddBackup({.protocol = core::ProtocolKind::kC5MyRocks})
                      .AddBackup({.protocol = core::ProtocolKind::kKuaFu})
                      .AddBackup({.protocol = core::ProtocolKind::kC5Queue}));
  cluster.CreateTable("kv");
  cluster.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // settle

  const std::int64_t cpu0 = ProcessCpuNanos();
  const auto wall0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const std::int64_t cpu_ns = ProcessCpuNanos() - cpu0;
  const std::int64_t wall_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall0)
          .count();
  cluster.Shutdown();
  EXPECT_LT(static_cast<double>(cpu_ns), 0.25 * static_cast<double>(wall_ns))
      << "idle cluster used " << static_cast<double>(cpu_ns) / 1e6
      << " ms of CPU over " << static_cast<double>(wall_ns) / 1e6
      << " ms of wall time";
}

TEST(ClusterTest, StartReportsAFailedListen) {
  // A port another socket already listens on: Start must fail before any
  // engine, backup or flusher thread runs, and the cluster must shut down
  // cleanly (c5-server --live exits non-zero on this).
  net::TcpListener busy;
  ASSERT_TRUE(busy.Listen(0).ok());
  Cluster cluster(ClusterOptions{}.WithBackups(1).WithListenPort(busy.port()));
  const TableId t = cluster.CreateTable("kv");
  const Status s = cluster.Start();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(cluster.server_port(), 0);
  EXPECT_EQ(cluster.num_backups(), 0u);
  EXPECT_FALSE(PutInt(cluster, t, 1, 1).ok())
      << "a failed Start must leave no primary running";
  cluster.Shutdown();
}

// BackupNode (the standalone half of the façade): an in-place restart arms
// the recovery visibility window — readers resume at the dead incarnation's
// checkpoint, never see a snapshot inside the window, and the window closes
// at catch-up.
TEST(ClusterTest, BackupNodeRestartArmsAndClosesRecoveryWindow) {
  auto run = test::RunSyntheticPrimary(/*adversarial=*/true, /*clients=*/2,
                                       /*txns_per_client=*/200);
  const TableId t = 0;

  BackupNode node({.protocol = core::ProtocolKind::kC5,
                   .protocol_options = {.num_workers = 2}});
  node.CreateTable("kv");

  // Incarnation 1: half the log, then the process "dies".
  run.log.ResetReplayState();
  log::PrefixSegmentSource prefix(&run.log, run.log.NumSegments() / 2);
  node.Start(&prefix);
  node.WaitUntilCaughtUp();
  node.Stop();
  const Timestamp checkpoint = node.VisibleTimestamp();
  ASSERT_GT(checkpoint, 0u);

  // Incarnation 2: resume over the full log (idempotent redelivery).
  run.log.ResetReplayState();
  ha::ResumeSegmentSource resume(&run.log, checkpoint);
  node.Restart(&resume);
  EXPECT_EQ(node.reader().RecoveryResume(), checkpoint);
  EXPECT_GE(node.reader().RecoveryFloor(), checkpoint);
  EXPECT_GE(node.VisibleTimestamp(), checkpoint)
      << "restart must resume readers at the checkpoint, not at zero";
  node.WaitUntilCaughtUp();
  node.Stop();
  EXPECT_TRUE(node.reader().RecoveryWindowClosed());
  EXPECT_EQ(node.VisibleTimestamp(), run.log.MaxTimestamp());
  EXPECT_EQ(test::StateDigest(node.db(), kMaxTimestamp),
            test::StateDigest(run.primary->db, kMaxTimestamp));

  Value v;
  EXPECT_TRUE(node.OpenSnapshot()
                  .Get(t, workload::SyntheticWorkload::kHotKey, &v)
                  .ok());
}

// ---- ShardedCluster ---------------------------------------------------------

// First key at or above `start` that routes to `shard` (the keyspaces here
// are dense, so this terminates in a couple of probes).
Key KeyOnShard(const ShardedCluster& fleet, TableId table, std::size_t shard,
               Key start) {
  Key k = start;
  while (fleet.ShardOf(table, k) != shard) ++k;
  return k;
}

// A mixed Put/Delete history is executed through the sharded façade while a
// single std::map oracle tracks what the WHOLE keyspace should hold; the
// cross-shard MultiGet and ordered Scan must agree with the oracle over all
// shards, and the routing invariant must audit clean.
TEST(ShardedClusterTest, CrossShardReadsMatchSingleThreadOracle) {
  constexpr std::uint64_t kKeyspace = 128;
  ShardedClusterOptions options;
  options.WithShards(3).WithRouterSeed(test::TestSeed(301));
  options.shard.WithBackups(1, core::ProtocolKind::kC5).WithWorkers(2);
  ShardedCluster fleet(options);
  const TableId t = fleet.CreateTable("kv");
  fleet.Start();

  std::map<Key, Value> oracle;  // single-thread truth over ALL shards
  Rng rng(test::TestSeed(302));
  for (int i = 0; i < 600; ++i) {
    const Key key = rng.Uniform(kKeyspace);
    if (rng.Uniform(4) == 0) {
      ASSERT_TRUE(fleet
                      .ExecuteWithRetry(t, key,
                                        [&](txn::Txn& txn) {
                                          const Status s = txn.Delete(t, key);
                                          return s.code() ==
                                                         StatusCode::kNotFound
                                                     ? Status::Ok()
                                                     : s;
                                        })
                      .ok());
      oracle.erase(key);
    } else {
      const Value value = workload::EncodeIntValue(rng.Next());
      ASSERT_TRUE(fleet
                      .ExecuteWithRetry(t, key,
                                        [&](txn::Txn& txn) {
                                          return txn.Put(t, key, value);
                                        })
                      .ok());
      oracle[key] = value;
    }
  }
  fleet.WaitForBackups();

  // Routed writes must have landed only where the router says they live.
  EXPECT_TRUE(fleet.VerifyPlacement().empty());

  // Cross-shard MultiGet in caller order, present and absent keys mixed.
  std::vector<Key> keys;
  for (Key k = 0; k < kKeyspace; ++k) keys.push_back(k);
  std::vector<Value> values;
  const auto statuses = fleet.MultiGet(t, keys, &values);
  ASSERT_EQ(statuses.size(), keys.size());
  for (Key k = 0; k < kKeyspace; ++k) {
    const auto it = oracle.find(k);
    if (it == oracle.end()) {
      EXPECT_EQ(statuses[k].code(), StatusCode::kNotFound) << "key " << k;
    } else {
      ASSERT_TRUE(statuses[k].ok()) << "key " << k;
      EXPECT_EQ(values[k], it->second) << "key " << k;
    }
  }

  // Cross-shard ordered Scan: exactly the oracle's live rows, ascending,
  // merged across the three shards' pinned snapshots.
  std::vector<std::pair<Key, Value>> rows;
  ASSERT_TRUE(fleet.Scan(t, 0, kKeyspace, &rows).ok());
  ASSERT_EQ(rows.size(), oracle.size());
  auto want = oracle.begin();
  for (std::size_t i = 0; i < rows.size(); ++i, ++want) {
    EXPECT_EQ(rows[i].first, want->first);
    EXPECT_EQ(rows[i].second, want->second);
    if (i > 0) {
      EXPECT_LT(rows[i - 1].first, rows[i].first);
    }
  }
  // Sub-range scans honor the half-open bounds across shard boundaries —
  // and Scan clears *out, so reusing the vector is safe.
  ASSERT_TRUE(fleet.Scan(t, kKeyspace / 4, kKeyspace / 2, &rows).ok());
  for (const auto& [k, v] : rows) {
    ASSERT_GE(k, kKeyspace / 4);
    ASSERT_LT(k, kKeyspace / 2);
    EXPECT_EQ(oracle.at(k), v);
  }

  // Cross-shard aggregation pushdown: the merged partials must equal the
  // oracle's fold over the same range (EncodeIntValue stores the u64 at
  // offset 0).
  AggResult agg;
  AggSpec spec;
  spec.field_offset = 0;
  spec.field_width = 8;
  spec.op = AggOp::kSum;
  ASSERT_TRUE(fleet.Aggregate(t, kKeyspace / 4, kKeyspace / 2, spec, &agg).ok());
  std::uint64_t want_rows = 0, want_sum = 0;
  std::uint64_t want_min = ~std::uint64_t{0}, want_max = 0;
  for (const auto& [k, v] : oracle) {
    if (k < kKeyspace / 4 || k >= kKeyspace / 2) continue;
    const std::uint64_t field = workload::DecodeIntValue(v);
    ++want_rows;
    want_sum += field;
    want_min = std::min(want_min, field);
    want_max = std::max(want_max, field);
  }
  EXPECT_EQ(agg.rows, want_rows);
  EXPECT_EQ(agg.sum, want_sum);
  EXPECT_EQ(agg.min, want_min);
  EXPECT_EQ(agg.max, want_max);
  EXPECT_EQ(agg.value(AggOp::kSum), want_sum);
  fleet.Shutdown();
}

// One shard fails over (stop -> promote -> new writes -> survivor catch-up)
// while the OTHER shard keeps executing transactions and serving reads the
// whole time — shard groups share nothing, so a shard's failover must not
// stall the fleet.
TEST(ShardedClusterTest, PerShardPromotionWhileOtherShardsKeepServing) {
  ShardedClusterOptions options;
  options.WithShards(2).WithRouterSeed(test::TestSeed(303));
  options.shard.WithBackups(2, core::ProtocolKind::kC5).WithWorkers(2);
  ShardedCluster fleet(options);
  const TableId t = fleet.CreateTable("orders");
  fleet.Start();

  const Key k0 = KeyOnShard(fleet, t, 0, 0);
  const Key k1 = KeyOnShard(fleet, t, 1, 0);
  auto put = [&](Key key, std::uint64_t n, Timestamp* commit = nullptr) {
    return fleet.ExecuteWithRetry(
        t, key,
        [&](txn::Txn& txn) {
          return txn.Put(t, key, workload::EncodeIntValue(n));
        },
        commit);
  };
  ASSERT_TRUE(put(k0, 1).ok());
  ASSERT_TRUE(put(k1, 1).ok());

  // Shard 0's primary dies. Shard 1 is untouched: its writes keep
  // committing, shard 0's fail loudly.
  fleet.StopPrimary(0);
  EXPECT_FALSE(put(k0, 2).ok());
  ASSERT_TRUE(put(k1, 2).ok());

  // Promote shard 0's backup 0; the shard accepts writes again through the
  // same routed surface.
  ASSERT_TRUE(fleet.Promote(0, 0).ok());
  EXPECT_EQ(fleet.shard(0).promoted_index(), 0u);
  Timestamp s0_commit = 0;
  ASSERT_TRUE(put(k0, 3, &s0_commit).ok());
  ASSERT_GT(s0_commit, 0u);
  Timestamp s1_commit = 0;
  ASSERT_TRUE(put(k1, 3, &s1_commit).ok());
  fleet.Flush();

  // Shard 1 serves session reads (read-your-writes included) THROUGH the
  // failover of shard 0.
  auto session = fleet.OpenSession();
  session.OnWrite(t, k1, s1_commit);
  Value v;
  ASSERT_TRUE(session.Read(t, k1, &v).ok());
  EXPECT_EQ(workload::DecodeIntValue(v), 3u);

  // Shard 0's survivor follows the promoted history; cross-shard reads see
  // both shards' final states.
  ASSERT_TRUE(fleet.CatchUpSurvivors(0).ok());
  const Snapshot survivor = fleet.shard(0).OpenSnapshot(1);
  ASSERT_TRUE(survivor.Get(t, k0, &v).ok());
  EXPECT_EQ(workload::DecodeIntValue(v), 3u);
  fleet.shard(1).WaitForBackups();
  std::vector<Value> values;
  const auto statuses = fleet.MultiGet(t, {k0, k1}, &values);
  ASSERT_TRUE(statuses[0].ok());
  ASSERT_TRUE(statuses[1].ok());
  EXPECT_EQ(workload::DecodeIntValue(values[0]), 3u);
  EXPECT_EQ(workload::DecodeIntValue(values[1]), 3u);
  fleet.Shutdown();
}

// Sessions carry one causality token PER SHARD: a write only constrains the
// shard it routed to, reads advance only the routed shard's token, and no
// token ever regresses.
TEST(ShardedClusterTest, SessionTokensAreMonotonicAndPerShard) {
  ShardedClusterOptions options;
  options.WithShards(2).WithRouterSeed(test::TestSeed(304));
  options.shard.WithBackups(1, core::ProtocolKind::kC5).WithWorkers(2);
  ShardedCluster fleet(options);
  const TableId t = fleet.CreateTable("kv");
  fleet.Start();

  const Key k0 = KeyOnShard(fleet, t, 0, 0);
  const Key k1 = KeyOnShard(fleet, t, 1, 0);

  auto session = fleet.OpenSession();
  EXPECT_EQ(session.token(0), 0u);
  EXPECT_EQ(session.token(1), 0u);

  Timestamp c0 = 0;
  ASSERT_TRUE(fleet
                  .ExecuteWithRetry(
                      t, k0,
                      [&](txn::Txn& txn) {
                        return txn.Put(t, k0, workload::EncodeIntValue(10));
                      },
                      &c0)
                  .ok());
  fleet.Flush();
  session.OnWrite(t, k0, c0);
  // The write landed on shard 0: only shard 0's token moved.
  EXPECT_GE(session.token(0), c0);
  EXPECT_EQ(session.token(1), 0u);

  // Read-your-writes on shard 0; the read may advance the token further,
  // never backward.
  const Timestamp before_read = session.token(0);
  Value v;
  ASSERT_TRUE(session.Read(t, k0, &v).ok());
  EXPECT_EQ(workload::DecodeIntValue(v), 10u);
  EXPECT_GE(session.token(0), before_read);

  // Shard 1 activity moves shard 1's token only.
  Timestamp c1 = 0;
  ASSERT_TRUE(fleet
                  .ExecuteWithRetry(
                      t, k1,
                      [&](txn::Txn& txn) {
                        return txn.Put(t, k1, workload::EncodeIntValue(20));
                      },
                      &c1)
                  .ok());
  fleet.Flush();
  const Timestamp t0_before = session.token(0);
  session.OnWrite(t, k1, c1);
  ASSERT_TRUE(session.Read(t, k1, &v).ok());
  EXPECT_EQ(workload::DecodeIntValue(v), 20u);
  EXPECT_GE(session.token(1), c1);
  EXPECT_EQ(session.token(0), t0_before)
      << "a shard-1 write must not disturb shard 0's token";

  // Cross-shard session reads (batch + range) keep every token monotonic.
  const Timestamp tok0 = session.token(0), tok1 = session.token(1);
  std::vector<Value> values;
  const auto statuses = session.MultiGet(t, {k0, k1}, &values);
  ASSERT_TRUE(statuses[0].ok());
  ASSERT_TRUE(statuses[1].ok());
  std::vector<std::pair<Key, Value>> rows;
  ASSERT_TRUE(session.Scan(t, 0, std::max(k0, k1) + 1, &rows).ok());
  EXPECT_GE(rows.size(), 2u);
  EXPECT_GE(session.token(0), tok0);
  EXPECT_GE(session.token(1), tok1);
  fleet.Shutdown();
}

// Unpartitioned tables (replicated catalogs, shard-local append streams —
// e.g. TPC-C's ITEM/HISTORY): the router is not authoritative, so point
// reads probe all shards, cross-shard scans are rejected (keys are not
// disjoint, no exact merge exists), and the placement audit skips them.
TEST(ShardedClusterTest, UnpartitionedTablesProbeAllShardsAndRejectScan) {
  ShardedClusterOptions options;
  options.WithShards(2).WithRouterSeed(test::TestSeed(305));
  options.shard.WithBackups(1, core::ProtocolKind::kC5).WithWorkers(2);
  ShardedCluster fleet(options);
  const TableId t = fleet.CreateTable("audit");
  fleet.router().MarkUnpartitioned(t);
  fleet.Start();

  // A shard-local stream writes wherever its owning transaction runs —
  // deliberately NOT the shard the key hashes to.
  const std::size_t routed = fleet.ShardOf(t, 7);
  const std::size_t other = 1 - routed;
  Timestamp commit = 0;
  ASSERT_TRUE(fleet
                  .ExecuteOnShardWithRetry(
                      other,
                      [&](txn::Txn& txn) {
                        return txn.Put(t, 7, workload::EncodeIntValue(77));
                      },
                      &commit)
                  .ok());
  fleet.Flush();

  // Read-your-writes for an ExecuteOnShard write goes through
  // OnWriteToShard (the key's hash shard is NOT where the write landed).
  Value v;
  auto session = fleet.OpenSession();
  session.OnWriteToShard(other, commit);
  ASSERT_TRUE(session.Read(t, 7, &v).ok());
  EXPECT_EQ(workload::DecodeIntValue(v), 77u);

  fleet.WaitForBackups();
  ASSERT_TRUE(fleet.Get(t, 7, &v).ok()) << "miss on the routed shard must "
                                           "fall back to probing the rest";
  EXPECT_EQ(workload::DecodeIntValue(v), 77u);
  EXPECT_EQ(fleet.Get(t, 8, &v).code(), StatusCode::kNotFound);

  std::vector<Value> values;
  const auto statuses = fleet.MultiGet(t, {7, 8}, &values);
  ASSERT_TRUE(statuses[0].ok());
  EXPECT_EQ(workload::DecodeIntValue(values[0]), 77u);
  EXPECT_EQ(statuses[1].code(), StatusCode::kNotFound);

  std::vector<std::pair<Key, Value>> rows = {{1, Value("stale")}};
  EXPECT_EQ(fleet.Scan(t, 0, 100, &rows).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(rows.empty()) << "a failed Scan must still clear the output";

  // Aggregate shares Scan's disjoint-ownership requirement.
  AggResult agg;
  agg.rows = 99;  // stale partial: a failed Aggregate must still reset it
  EXPECT_EQ(fleet.Aggregate(t, 0, 100, AggSpec{}, &agg).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(agg.rows, 0u);

  EXPECT_TRUE(fleet.VerifyPlacement().empty())
      << "the audit must skip unpartitioned tables";

  EXPECT_EQ(session.Scan(t, 0, 100, &rows).code(),
            StatusCode::kInvalidArgument);
  fleet.Shutdown();
}

// ---- Live resharding (ShardedCluster::Rebalance) ----------------------------

// A live migration runs while closed-loop writers keep hammering BOTH
// shards — including the moving partition — through the routed surface.
// Writers never observe an error (fenced writes back off and retry inside
// ExecuteWithRetry), the final state matches a single std::map oracle over
// the whole keyspace, post-cutover MultiGet/Scan/placement-audit are clean,
// and the moved keys route to (and are served by) the destination shard.
TEST(ShardedClusterTest, RebalanceUnderLiveTrafficMatchesOracle) {
  constexpr std::uint64_t kKeyspace = 96;
  ShardedClusterOptions options;
  options.WithShards(2).WithRouterSeed(test::TestSeed(306));
  options.shard.WithBackups(1, core::ProtocolKind::kC5).WithWorkers(2);
  ShardedCluster fleet(options);
  const TableId t = fleet.CreateTable("kv");
  fleet.Start();

  // Move half of shard 0's tokens to shard 1.
  MigrationPlan plan;
  bool take = true;
  for (Key k = 0; k < kKeyspace; ++k) {
    if (fleet.ShardOf(t, k) != 0) continue;
    if (take) {
      ShardMove move;
      move.table = t;
      move.token = k;
      move.from = 0;
      move.to = 1;
      plan.push_back(move);
    }
    take = !take;
  }
  ASSERT_GE(plan.size(), 8u) << "placement left too few keys to migrate";

  // Closed-loop writers over disjoint key slices (no cross-thread conflicts,
  // so each thread's local oracle composes into the global truth). They run
  // before, during, and after the migration.
  constexpr int kWriters = 2;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_writes{0};
  std::array<std::map<Key, Value>, kWriters> oracles;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng rng(test::TestSeed(307 + w));
      std::map<Key, Value>& oracle = oracles[static_cast<std::size_t>(w)];
      while (!stop.load(std::memory_order_acquire)) {
        const Key key =
            (rng.Uniform(kKeyspace / kWriters)) * kWriters +
            static_cast<Key>(w);
        if (rng.Uniform(5) == 0) {
          ASSERT_TRUE(fleet
                          .ExecuteWithRetry(
                              t, key,
                              [&](txn::Txn& txn) {
                                const Status s = txn.Delete(t, key);
                                return s.code() == StatusCode::kNotFound
                                           ? Status::Ok()
                                           : s;
                              })
                          .ok());
          oracle.erase(key);
        } else {
          const Value value = workload::EncodeIntValue(rng.Next());
          ASSERT_TRUE(fleet
                          .ExecuteWithRetry(t, key,
                                            [&](txn::Txn& txn) {
                                              return txn.Put(t, key, value);
                                            })
                          .ok());
          oracle[key] = value;
        }
        total_writes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Let traffic build, migrate live, let traffic keep flowing post-cutover.
  while (total_writes.load(std::memory_order_acquire) < 200) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  MigrationReport report;
  ASSERT_TRUE(fleet.Rebalance(plan, &report).ok());
  const std::uint64_t at_cutover = total_writes.load(std::memory_order_acquire);
  while (total_writes.load(std::memory_order_acquire) < at_cutover + 200) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& th : writers) th.join();

  // The cutover installed a new epoch and actually moved data.
  EXPECT_EQ(report.epoch, 1u);
  EXPECT_EQ(fleet.router().CurrentEpoch(), 1u);
  EXPECT_GT(report.rows_copied, 0u);
  for (const ShardMove& move : plan) {
    EXPECT_EQ(fleet.ShardOf(t, move.token), 1u);
  }

  std::map<Key, Value> oracle;
  for (const auto& part : oracles) oracle.insert(part.begin(), part.end());
  fleet.Flush();
  fleet.WaitForBackups();

  EXPECT_TRUE(fleet.VerifyPlacement().empty());
  std::vector<Key> keys;
  for (Key k = 0; k < kKeyspace; ++k) keys.push_back(k);
  std::vector<Value> values;
  const auto statuses = fleet.MultiGet(t, keys, &values);
  ASSERT_EQ(statuses.size(), keys.size());
  for (Key k = 0; k < kKeyspace; ++k) {
    const auto it = oracle.find(k);
    if (it == oracle.end()) {
      EXPECT_EQ(statuses[k].code(), StatusCode::kNotFound) << "key " << k;
    } else {
      ASSERT_TRUE(statuses[k].ok()) << "key " << k;
      EXPECT_EQ(values[k], it->second) << "key " << k;
    }
  }
  std::vector<std::pair<Key, Value>> rows;
  ASSERT_TRUE(fleet.Scan(t, 0, kKeyspace, &rows).ok());
  ASSERT_EQ(rows.size(), oracle.size());
  auto want = oracle.begin();
  for (std::size_t i = 0; i < rows.size(); ++i, ++want) {
    EXPECT_EQ(rows[i].first, want->first);
    EXPECT_EQ(rows[i].second, want->second);
  }
  fleet.Shutdown();
}

// Session causality tokens survive a cutover: a session that wrote a moving
// key on the SOURCE shard still gets read-your-writes after the partition
// moves — the destination token is raised to the cutover's covering
// timestamp, so the post-migration read waits for a destination snapshot
// that includes the migrated write.
TEST(ShardedClusterTest, SessionCausalityTokensSurviveCutover) {
  ShardedClusterOptions options;
  options.WithShards(2).WithRouterSeed(test::TestSeed(308));
  options.shard.WithBackups(1, core::ProtocolKind::kC5).WithWorkers(2);
  ShardedCluster fleet(options);
  const TableId t = fleet.CreateTable("kv");
  fleet.Start();

  const Key moving = KeyOnShard(fleet, t, 0, 0);
  Timestamp commit = 0;
  ASSERT_TRUE(fleet
                  .ExecuteWithRetry(
                      t, moving,
                      [&](txn::Txn& txn) {
                        return txn.Put(t, moving,
                                       workload::EncodeIntValue(111));
                      },
                      &commit)
                  .ok());
  auto session = fleet.OpenSession();
  session.OnWrite(t, moving, commit);
  ASSERT_GE(session.token(0), commit);
  ASSERT_EQ(session.token(1), 0u);

  ShardMove move;
  move.table = t;
  move.token = moving;
  move.from = 0;
  move.to = 1;
  MigrationReport report;
  ASSERT_TRUE(fleet.Rebalance({move}, &report).ok());
  ASSERT_EQ(fleet.ShardOf(t, moving), 1u);

  // The same session reads the key it wrote — now living on shard 1. The
  // fold must raise shard 1's token; the read must see the write.
  Value v;
  ASSERT_TRUE(session.Read(t, moving, &v).ok());
  EXPECT_EQ(workload::DecodeIntValue(v), 111u);
  EXPECT_GT(session.token(1), 0u)
      << "the cutover must fold into the destination token";
  fleet.Shutdown();
}

// Regression for the mid-migration failover hole: the catch-up tail must
// keep sourcing from the source shard's CURRENT primary after a failover.
// The source primary dies after the bulk copy; a backup is promoted; MORE
// writes land on the moving partition through the promoted engine. The
// cutover must tail those post-promotion writes onto the destination — a
// tap pinned to the dead primary's log would lose them silently.
TEST(ShardedClusterTest, RebalanceSurvivesSourcePrimaryPromotionMidMigration) {
  ShardedClusterOptions options;
  options.WithShards(2).WithRouterSeed(test::TestSeed(309));
  options.shard.WithBackups(2, core::ProtocolKind::kC5).WithWorkers(2);
  ShardedCluster fleet(options);
  const TableId t = fleet.CreateTable("kv");
  fleet.Start();

  const Key moving = KeyOnShard(fleet, t, 0, 0);
  const Key moving2 = KeyOnShard(fleet, t, 0, moving + 1);
  for (const Key k : {moving, moving2}) {
    ASSERT_TRUE(fleet
                    .ExecuteWithRetry(t, k,
                                      [&](txn::Txn& txn) {
                                        return txn.Put(
                                            t, k,
                                            workload::EncodeIntValue(1));
                                      })
                    .ok());
  }

  MigrationPlan plan;
  for (const Key k : {moving, moving2}) {
    ShardMove move;
    move.table = t;
    move.token = k;
    move.from = 0;
    move.to = 1;
    plan.push_back(move);
  }

  RebalanceHooks hooks;
  hooks.after_copy = [&] {
    // Source failover in the copy->cutover window.
    ASSERT_TRUE(fleet.StopPrimary(0).ok());
    ASSERT_TRUE(fleet.Promote(0, 0).ok());
    ASSERT_EQ(fleet.shard(0).promoted_index(), 0u);
    // Post-promotion writes to the MOVING partition, through the promoted
    // engine. These exist only in the promoted primary's log — the tail
    // must carry them across the cutover.
    for (const Key k : {moving, moving2}) {
      ASSERT_TRUE(fleet
                      .ExecuteWithRetry(
                          t, k,
                          [&](txn::Txn& txn) {
                            return txn.Put(t, k,
                                           workload::EncodeIntValue(2));
                          })
                      .ok());
    }
  };
  MigrationReport report;
  ASSERT_TRUE(fleet.Rebalance(plan, &report, hooks).ok());
  EXPECT_EQ(report.epoch, 1u);
  EXPECT_GT(report.rows_copied, 0u);
  EXPECT_GT(report.tail_records, 0u)
      << "post-promotion writes must flow through the migration tail";

  // The destination serves the post-promotion values; the audit is clean on
  // both shards (promoted source included).
  for (const Key k : {moving, moving2}) {
    EXPECT_EQ(fleet.ShardOf(t, k), 1u);
    Value v;
    ASSERT_TRUE(fleet.Get(t, k, &v).ok()) << "key " << k;
    EXPECT_EQ(workload::DecodeIntValue(v), 2u)
        << "key " << k << ": stale pre-promotion value served after cutover";
  }
  EXPECT_TRUE(fleet.VerifyPlacement().empty());
  fleet.Shutdown();
}

// Explicit unit check of the PublishVisible suppression contract.
TEST(ClusterTest, RecoveryWindowSuppressesInteriorSnapshots) {
  storage::Database db;
  class Probe : public replica::ReplicaBase {
   public:
    explicit Probe(storage::Database* db) : ReplicaBase(db) {}
    void StartThreads() override {}
    bool CaughtUp() const override { return true; }
    std::string name() const override { return "probe"; }
    void Publish(Timestamp ts) { PublishVisible(ts); }
  } probe(&db);

  probe.SetRecoveryWindow(/*resume_ts=*/10, /*inherited_max=*/50);
  EXPECT_EQ(probe.VisibleTimestamp(), 10u);  // readers resume here
  EXPECT_FALSE(probe.RecoveryWindowClosed());
  probe.Publish(30);  // inside the window: suppressed
  EXPECT_EQ(probe.VisibleTimestamp(), 10u);
  probe.Publish(49);  // still inside
  EXPECT_EQ(probe.VisibleTimestamp(), 10u);
  probe.Publish(50);  // covers the inherited high-water mark: closes
  EXPECT_EQ(probe.VisibleTimestamp(), 50u);
  EXPECT_TRUE(probe.RecoveryWindowClosed());
  probe.Publish(60);
  EXPECT_EQ(probe.VisibleTimestamp(), 60u);
}

}  // namespace
}  // namespace c5
