#!/usr/bin/env sh
# Benchmark trajectory harness: runs the fig6 / fig9 / micro replay-hot-path
# benches with --json output, merges the fragments into one trajectory file,
# and validates it with bench_json_check. Also runs the shard_scaling bench
# into its own trajectory file (BENCH_shards.json: aggregate C5 apply
# throughput across 1 -> 4 independent shard groups).
#
# Usage: scripts/bench.sh [--quick] [build-dir]
#   default: full-scale run, writes <repo>/BENCH_replay.json and
#            <repo>/BENCH_shards.json (committed).
#   --quick: tiny-scale smoke run wired into scripts/check.sh; builds the
#            harnesses, proves they still emit valid JSON, and writes
#            <build>/BENCH_*.quick.json (NOT the committed files, so a
#            smoke run never clobbers real trajectory numbers).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
quick=0
build_dir=""
for arg in "$@"; do
  case "$arg" in
    --quick) quick=1 ;;
    *) build_dir=$arg ;;
  esac
done
[ -n "$build_dir" ] || build_dir="$repo_root/build"

if command -v nproc >/dev/null 2>&1; then jobs=$(nproc); else jobs=4; fi

cmake -B "$build_dir" -S "$repo_root" >/dev/null
cmake --build "$build_dir" -j "$jobs" --target \
  bench_fig6_tpcc_opt bench_fig9_read_throughput \
  bench_micro_replay_hotpath bench_shard_scaling bench_reshard_under_load \
  bench_htap_scan bench_json_check >/dev/null

if [ "$quick" -eq 1 ]; then
  scale=${C5_BENCH_SCALE:-0.01}
  out="$build_dir/BENCH_replay.quick.json"
  out_shards="$build_dir/BENCH_shards.quick.json"
  out_htap="$build_dir/BENCH_htap.quick.json"
  shard_flags="--quick"
else
  scale=${C5_BENCH_SCALE:-1.0}
  out="$repo_root/BENCH_replay.json"
  out_shards="$repo_root/BENCH_shards.json"
  out_htap="$repo_root/BENCH_htap.json"
  shard_flags=""
fi
export C5_BENCH_SCALE="$scale"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== bench_micro_replay_hotpath (scale $scale)"
"$build_dir/bench_micro_replay_hotpath" --json "$tmp/micro.json"
echo "== bench_fig6_tpcc_opt (scale $scale)"
"$build_dir/bench_fig6_tpcc_opt" --json "$tmp/fig6.json"
echo "== bench_fig9_read_throughput (scale $scale)"
"$build_dir/bench_fig9_read_throughput" --json "$tmp/fig9.json"

# Merge the fragments into one trajectory document.
{
  printf '{\n"schema_version": 1,\n'
  printf '"generated_at": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '"quick": %s,\n' "$([ "$quick" -eq 1 ] && echo true || echo false)"
  printf '"scale": %s,\n' "$scale"
  printf '"micro_replay_hotpath": '
  cat "$tmp/micro.json"
  printf ',\n"fig6": '
  cat "$tmp/fig6.json"
  printf ',\n"fig9": '
  cat "$tmp/fig9.json"
  printf '\n}\n'
} > "$out"

# Structural validation plus the tracked fields: the fig9 allocation metric
# on every row, and the fleet-model worker-scaling fields on every point
# (dotted paths descend the DOM; an array step requires the rest of the
# path of EVERY element — see bench/json_check.cc).
"$build_dir/bench_json_check" "$out" \
  --require micro_replay_hotpath --require fig6 --require fig9 \
  --require fig9.rows.write_tps \
  --require fig9.rows.pipeline_allocs_per_write_txn \
  --require micro_replay_hotpath.worker_scaling.workers \
  --require micro_replay_hotpath.worker_scaling.aggregate_records_per_cpu_s \
  --require micro_replay_hotpath.worker_scaling.speedup_vs_1 \
  --require micro_replay_hotpath.wire_codec.encode_ns \
  --require micro_replay_hotpath.wire_codec.decode_ns \
  --require micro_replay_hotpath.wire_codec.crc32c_gbps \
  --require fig6.cases.c5.txns_per_sec \
  --require fig6.cases.kuafu.apply_p99_ns
echo "wrote $out"

# Shard-group trajectory (its own file: these experiments track the sharded
# façade, not the single-group replay hot path): scaling across group counts
# plus the live-resharding serving impact (throughput dip / recovery while
# Rebalance migrates half of shard 0 under closed-loop load).
echo "== bench_shard_scaling${shard_flags:+ (quick)}"
"$build_dir/bench_shard_scaling" $shard_flags --json "$tmp/shards.json"
echo "== bench_reshard_under_load${shard_flags:+ (quick)}"
"$build_dir/bench_reshard_under_load" $shard_flags --json "$tmp/reshard.json"
{
  printf '{\n"schema_version": 1,\n'
  printf '"generated_at": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '"quick": %s,\n' "$([ "$quick" -eq 1 ] && echo true || echo false)"
  printf '"shard_scaling": '
  cat "$tmp/shards.json"
  printf ',\n"reshard_under_load": '
  cat "$tmp/reshard.json"
  printf '\n}\n'
} > "$out_shards"
"$build_dir/bench_json_check" "$out_shards" \
  --require shard_scaling --require reshard_under_load
echo "wrote $out_shards"

# HTAP scan trajectory (BENCH_htap.json): CollectRange baseline vs the
# ordered-index streaming Scan vs Aggregate pushdown on a backup snapshot.
# The harness itself enforces the narrow-range >= 10x acceptance bar at full
# scale (exit nonzero below the bar), so a regression fails this script.
echo "== bench_htap_scan${shard_flags:+ (quick)}"
"$build_dir/bench_htap_scan" $shard_flags --json "$tmp/htap.json"
{
  printf '{\n"schema_version": 1,\n'
  printf '"generated_at": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '"quick": %s,\n' "$([ "$quick" -eq 1 ] && echo true || echo false)"
  printf '"htap_scan": '
  cat "$tmp/htap.json"
  printf '\n}\n'
} > "$out_htap"
"$build_dir/bench_json_check" "$out_htap" \
  --require htap_scan \
  --require htap_scan.table_keys \
  --require htap_scan.narrow_range_speedup \
  --require htap_scan.rows.stream_ns_per_scan \
  --require htap_scan.rows.collectrange_ns_per_scan \
  --require htap_scan.rows.speedup_stream_vs_collectrange \
  --require htap_scan.rows.stream_allocs_per_scan
echo "wrote $out_htap"
