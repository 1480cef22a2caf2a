#!/usr/bin/env sh
# Tier-1 verification: configure, build, run every test suite, repeat the
# concurrency-sensitive suites 20 times (the multi-core lane), smoke the
# benchmark harnesses (tiny scale) to prove they still emit valid JSON, then
# run the deterministic-simulation (DST) quick seed sweep under TSan (data
# races in the replay pipelines), ASan (epoch GC reclaiming a reachable
# version, wire-decoder out-of-bounds reads), and UBSan (signed overflow,
# misaligned loads in the wire codecs), plus the static-analysis lane
# (clang thread-safety + clang-tidy) when clang is installed.
# Exits nonzero on the first failure.
# Usage: scripts/check.sh [--quick] [--static] [build-dir]
#   --quick:  build and run only the fast perf-guard suite (the alloc-budget
#             regression test) — seconds, not minutes; the inner loop for
#             work on the shipping pipeline. Full tier-1 otherwise.
#   --static: run ONLY the static-analysis lane (clang -Werror=thread-safety
#             build + clang-tidy over the compile database). The full run
#             includes it automatically when clang is available; this flag is
#             the inner loop for annotation work.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
quick=0
static_only=0
build_dir=""
for arg in "$@"; do
  case "$arg" in
    --quick) quick=1 ;;
    --static) static_only=1 ;;
    *) build_dir=$arg ;;
  esac
done
[ -n "$build_dir" ] || build_dir="$repo_root/build"

if command -v nproc >/dev/null 2>&1; then
  jobs=$(nproc)
else
  jobs=4
fi

# Static-analysis lane: a clang build with the thread-safety analysis as a
# hard error (the annotations in src/common/thread_annotations.h expand to
# attributes only under clang), then clang-tidy (.clang-tidy at the repo
# root) over the lane's compile database. Skipped with a message when clang
# is not installed — the annotations are no-ops under gcc, so the gcc lanes
# still build everything; only the ANALYSIS needs clang.
run_static_lane() {
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "check.sh: SKIP static-analysis lane (clang++ not installed;" \
         "thread-safety analysis needs clang)"
    return 0
  fi
  static_dir="${build_dir}-static"
  cmake -B "$static_dir" -S "$repo_root" \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
    -DC5_WERROR=ON >/dev/null
  cmake --build "$static_dir" -j "$jobs"
  if command -v clang-tidy >/dev/null 2>&1; then
    # Tidy only src/: tests and benches follow looser idioms (gtest macros,
    # throwaway mains) that the bugprone/concurrency checks are not tuned
    # for. Findings are errors (see WarningsAsErrors in .clang-tidy).
    find "$repo_root/src" -name '*.cc' | \
      xargs clang-tidy -p "$static_dir" --quiet
  else
    echo "check.sh: SKIP clang-tidy (not installed)"
  fi
}

if [ "$static_only" -eq 1 ]; then
  run_static_lane
  exit 0
fi

if [ "$quick" -eq 1 ]; then
  cmake -B "$build_dir" -S "$repo_root" >/dev/null
  cmake --build "$build_dir" -j "$jobs" --target alloc_budget_test >/dev/null
  "$build_dir/alloc_budget_test"
  exit 0
fi

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j "$jobs"
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"

# Multi-core repeat lane: the concurrency-sensitive suites (replay pipelines,
# DST, the lock-free skiplist, scans over live replicas, socket shipping,
# the park/wake hand-offs of the SPSC queues and EventCount, checkpoints
# written beside worker-published visibility, the wire codec and its
# hardware/portable CRC32C, the online pipelines over every protocol and
# Query Fresh's lazy reads, all publishing through ReplicaBase) run 20 times
# each, stopping at the first failure. A race that fires one
# run in five does not survive this lane. The core count comes first: a
# pass on one core is no evidence about a race.
echo "check.sh: repeat lane, nproc=$(nproc 2>/dev/null || echo unknown)"
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" \
  --repeat until-fail:20 \
  -R 'dst|property|replica|c5_core|cluster|ordered_index|htap|net|queue|event_count|checkpoint|wire|integration|query_fresh'

"$repo_root/scripts/bench.sh" --quick "$build_dir"

run_static_lane

# Sanitizer lanes: the DST harness (the classic sweep AND the sharded
# 16-seed sweep — dst_test runs both; the sharded sweep seeds live reshard
# migrations mid-workload, so the epoch-aware router oracle and the
# commit/abort migration ledger run under both sanitizers), the wire fuzz
# loop, the real-socket shipping suite (net_test: loopback TCP round trips,
# NAK-driven retransmit, reconnect-after-disconnect — every listener binds
# port 0, so parallel lanes never collide on a port), and the public-API
# cluster suite (including the ShardedCluster Rebalance-under-traffic tests
# and the promoted-read regression) are rebuilt and run (the quick 16-seed
# list keeps each lane to seconds of test time). The lock-rank registry
# (common/lock_rank.h) is active in every lane — none of them are Release
# builds — so lock-order inversions abort these runs deterministically.
# Lane build trees derive from the caller's build dir so concurrent
# invocations with distinct build dirs never race on shared trees.
# A failing seed prints itself; replay it under the same lane with
#   C5_DST_SEED=<n> <lane-build-dir>/dst_test
# ordered_index_test (lock-free skiplist readers racing CAS-linking writers)
# and htap_scan_test (streaming Scan/Aggregate over a live replica) join the
# concurrency-sensitive lane set: TSan checks the reader/writer memory
# ordering, ASan the inline-tower arena lifetimes. The DST ordered-index
# oracle runs inside dst_test in every lane.
# TSan also runs the replay suites (replica_test, property_test,
# c5_core_test) and the park/wake primitives (queue_test,
# event_count_test): every hand-off between a parked thread and the thread
# that wakes it must still carry a happens-before edge. checkpoint_test
# runs the C5 maintenance thread writing checkpoints while the workers
# advance the visible snapshot themselves. integration_test (every correct
# protocol under a live primary and concurrent readers) and query_fresh_test
# (readers instantiating rows beside the ingest thread's publishes) cover
# the one publish path, ReplicaBase::PublishVisible, that every protocol's
# snapshot advance and lag report go through.
tsan_dir="${build_dir}-tsan"
cmake -B "$tsan_dir" -S "$repo_root" -DC5_SANITIZE=thread >/dev/null
cmake --build "$tsan_dir" -j "$jobs" --target dst_test cluster_test net_test \
  ordered_index_test htap_scan_test queue_test event_count_test \
  c5_core_test replica_test property_test checkpoint_test integration_test \
  query_fresh_test
C5_DST_SEED_COUNT=16 "$tsan_dir/dst_test"
"$tsan_dir/cluster_test"
"$tsan_dir/net_test"
"$tsan_dir/ordered_index_test"
"$tsan_dir/htap_scan_test"
"$tsan_dir/queue_test"
"$tsan_dir/event_count_test"
"$tsan_dir/c5_core_test"
"$tsan_dir/replica_test"
"$tsan_dir/property_test"
"$tsan_dir/checkpoint_test"
"$tsan_dir/integration_test"
"$tsan_dir/query_fresh_test"

asan_dir="${build_dir}-asan"
cmake -B "$asan_dir" -S "$repo_root" -DC5_SANITIZE=address >/dev/null
cmake --build "$asan_dir" -j "$jobs" --target dst_test wire_test cluster_test \
  net_test ordered_index_test htap_scan_test
C5_DST_SEED_COUNT=16 "$asan_dir/dst_test"
"$asan_dir/wire_test"
"$asan_dir/cluster_test"
"$asan_dir/net_test"
"$asan_dir/ordered_index_test"
"$asan_dir/htap_scan_test"

ubsan_dir="${build_dir}-ubsan"
cmake -B "$ubsan_dir" -S "$repo_root" -DC5_SANITIZE=undefined >/dev/null
cmake --build "$ubsan_dir" -j "$jobs" --target dst_test wire_test cluster_test \
  net_test ordered_index_test
C5_DST_SEED_COUNT=16 "$ubsan_dir/dst_test"
"$ubsan_dir/wire_test"
"$ubsan_dir/cluster_test"
"$ubsan_dir/net_test"
"$ubsan_dir/ordered_index_test"

# Release compile-out probe: lock_rank_test deliberately links no c5_core,
# so this rebuilds two translation units, runs the static_asserts proving
# SpinLock carries no rank member in Release, and executes the inert-hook
# test. Guards the zero-overhead contract of the lock-rank registry.
release_dir="${build_dir}-release"
cmake -B "$release_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$release_dir" -j "$jobs" --target lock_rank_test
"$release_dir/lock_rank_test"
