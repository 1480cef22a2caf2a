// Query Fresh (§9) extension bench: reproduces the paper's critique of the
// only prior row-granularity protocol.
//
// Part A — "keeps up on ingest by construction": Query Fresh's visibility
// watermark reaches the end of the log in the time it takes to index it,
// while eager protocols (C5) pay execution up front. The flip side is that
// zero writes have executed when the watermark arrives.
//
// Part B — deferred execution is unbounded lag in disguise: under the
// paper's lazy-protocol lag definition (§2.4, f_b includes "the additional
// time required to finish any deferred execution"), the first read of a hot
// row must drain that row's entire pending redo list. The drain time grows
// linearly with the backlog — arbitrarily large lag "even using single-key
// transactions" (§9) — while C5's read cost is constant because its workers
// already executed everything.

#include <cstdio>

#include "api/snapshot.h"
#include "bench/bench_util.h"
#include "log/segment_source.h"
#include "replica/query_fresh_replica.h"
#include "workload/synthetic.h"

namespace c5 {
namespace {

using replica::QueryFreshReplica;

log::Log BuildAdversarialLog(std::uint64_t txns, int clients,
                             std::uint32_t inserts_per_txn) {
  auto primary = bench::OfflinePrimary::Mvtso();
  const TableId table =
      workload::SyntheticWorkload::CreateTable(&primary->db);
  workload::SyntheticWorkload wl(
      table, {.inserts_per_txn = inserts_per_txn, .adversarial = true});
  (void)wl.LoadHotRow(*primary->engine);
  std::vector<std::uint64_t> seqs(clients, 0);
  workload::RunClosedLoop(clients, std::chrono::milliseconds(0),
                          txns / clients,
                          [&](std::uint32_t client, Rng& rng) {
                            return wl.RunTxn(*primary->engine, rng, client,
                                             &seqs[client]);
                          });
  return primary->collector.Coalesce();
}

void PartA() {
  bench::PrintHeader(
      "Query Fresh (A): time until the visibility watermark covers the whole "
      "log\n(lazy ingest vs eager apply; executed writes at that moment)");
  const std::uint64_t txns = bench::Scaled(100000);
  log::Log log = BuildAdversarialLog(txns, bench::DefaultClients(), 8);
  auto schema = [](storage::Database* db) {
    workload::SyntheticWorkload::CreateTable(db);
  };

  // Query Fresh: ingest only.
  log.ResetReplayState();
  storage::Database qf_db;
  schema(&qf_db);
  log::OfflineSegmentSource qf_source(&log);
  QueryFreshReplica::Options qopt;
  qopt.leave_lazy_after_catchup = true;
  QueryFreshReplica qf(&qf_db, qopt);
  Stopwatch sw;
  qf.Start(&qf_source);
  qf.WaitUntilCaughtUp();
  const double qf_secs = sw.ElapsedSeconds();
  const std::uint64_t qf_executed = qf.stats().applied_writes.load();
  const std::uint64_t backlog = qf.PendingBacklog();
  qf.Stop();

  // C5: full eager apply.
  const auto c5r = bench::ReplayLog(core::ProtocolKind::kC5, log, schema,
                                    bench::DefaultWorkers());

  bench::PrintRow("%-14s %16s %18s %16s", "protocol", "visible-in (s)",
                  "executed writes", "deferred");
  bench::PrintRow("%-14s %16.3f %18llu %16llu", "query-fresh", qf_secs,
                  static_cast<unsigned long long>(qf_executed),
                  static_cast<unsigned long long>(backlog));
  bench::PrintRow("%-14s %16.3f %18llu %16u", "c5", c5r.seconds,
                  static_cast<unsigned long long>(c5r.writes), 0);
  bench::PrintRow(
      "Expected: query-fresh reaches full visibility having executed 0 "
      "writes;\nC5 pays execution before visibility but owes nothing at "
      "read time.");
}

void PartB() {
  bench::PrintHeader(
      "Query Fresh (B): first-read latency on the hot row vs pending-backlog "
      "depth\n(the deferred-execution component of lazy f_b, paper's §2.4 "
      "definition)");
  bench::PrintRow("%-12s %20s %20s %16s", "hot writes", "QF 1st read (ms)",
                  "QF 2nd read (us)", "C5 read (us)");

  for (const std::uint64_t depth :
       {bench::Scaled(2000), bench::Scaled(8000), bench::Scaled(32000),
        bench::Scaled(128000)}) {
    log::Log log = BuildAdversarialLog(depth, bench::DefaultClients(), 2);

    // Query Fresh: ingest fully, then time the first hot-row read (drains
    // the row's whole redo list) and a second read (already instantiated).
    log.ResetReplayState();
    storage::Database qf_db;
    const TableId qf_table = workload::SyntheticWorkload::CreateTable(&qf_db);
    log::OfflineSegmentSource qf_source(&log);
    QueryFreshReplica::Options qopt;
    qopt.leave_lazy_after_catchup = true;
    QueryFreshReplica qf(&qf_db, qopt);
    qf.Start(&qf_source);
    qf.WaitUntilCaughtUp();
    Value v;
    Stopwatch first;
    (void)qf.OpenSnapshot().Get(qf_table,
                                workload::SyntheticWorkload::kHotKey, &v);
    const double first_ms = first.ElapsedSeconds() * 1e3;
    Stopwatch second;
    (void)qf.OpenSnapshot().Get(qf_table,
                                workload::SyntheticWorkload::kHotKey, &v);
    const double second_us = second.ElapsedSeconds() * 1e6;
    qf.Stop();

    // C5: eager apply, then time the same read.
    log.ResetReplayState();
    storage::Database c5_db;
    const TableId c5_table = workload::SyntheticWorkload::CreateTable(&c5_db);
    log::OfflineSegmentSource c5_source(&log);
    auto c5 = core::MakeReplica(core::ProtocolKind::kC5, &c5_db,
                                {.num_workers = bench::DefaultWorkers()});
    c5->Start(&c5_source);
    c5->WaitUntilCaughtUp();
    auto* base = dynamic_cast<replica::ReplicaBase*>(c5.get());
    Stopwatch c5_read;
    (void)base->OpenSnapshot().Get(c5_table,
                                   workload::SyntheticWorkload::kHotKey, &v);
    const double c5_us = c5_read.ElapsedSeconds() * 1e6;
    c5->Stop();

    bench::PrintRow("%-12llu %20.3f %20.2f %16.2f",
                    static_cast<unsigned long long>(depth), first_ms,
                    second_us, c5_us);
  }
  bench::PrintRow(
      "Expected: QF first-read latency grows ~linearly with the hot row's "
      "backlog\n(unbounded lag under the lazy f_b definition); QF second "
      "read and C5 reads stay flat.");
}

}  // namespace
}  // namespace c5

int main() {
  c5::bench::InitBenchRuntime();
  c5::PartA();
  c5::PartB();
  return 0;
}
