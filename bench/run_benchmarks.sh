#!/usr/bin/env sh
# Run the perf-trajectory benchmarks and record their results at the
# repository root — the files CI uploads as artifacts so future PRs can diff
# hot-path numbers:
#
#   BENCH_ckpt.json   checkpointing microbenchmarks (google-benchmark)
#   BENCH_storm.json  storm-detection campaign (liveness faults vs the
#                     health monitor), incl. detection-latency columns
#
# Usage: bench/run_benchmarks.sh [--ckpt-only|--storm-only] [build-dir]
#   build-dir  cmake build tree containing the bench binaries (default: build)
#
# Fails loudly (non-zero) if a selected bench binary is missing: a silently
# skipped benchmark would leave a stale trajectory file for CI to upload.
set -eu

script_dir=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
repo_root=$(dirname -- "$script_dir")

run_ckpt=1
run_storm=1
case "${1:-}" in
  --ckpt-only) run_storm=0; shift ;;
  --storm-only) run_ckpt=0; shift ;;
esac

build_dir=${1:-"$repo_root/build"}
status=0

require_bin() {
  if [ ! -x "$1" ]; then
    echo "error: $1 not found or not executable." >&2
    echo "build it first: cmake -B '$build_dir' -S '$repo_root' && cmake --build '$build_dir' --target $2" >&2
    return 1
  fi
}

if [ "$run_ckpt" = 1 ]; then
  ckpt_bin="$build_dir/bench/ckpt_microbench"
  if require_bin "$ckpt_bin" ckpt_microbench; then
    # benchmark_repetitions keeps runs short but smooths scheduler noise;
    # report_aggregates_only keeps the JSON diffable (mean/median/stddev rows).
    "$ckpt_bin" \
      --benchmark_format=json \
      --benchmark_repetitions=3 \
      --benchmark_report_aggregates_only=true \
      > "$repo_root/BENCH_ckpt.json"
    echo "wrote $repo_root/BENCH_ckpt.json"
  else
    status=1
  fi
fi

if [ "$run_storm" = 1 ]; then
  storm_bin="$build_dir/bench/table_storm"
  if require_bin "$storm_bin" table_storm; then
    # The binary self-checks (detected == storm runs, zero false positives)
    # and exits non-zero on a miss, so a silently-broken monitor fails here.
    OSIRIS_JOBS="${OSIRIS_JOBS:-0}" "$storm_bin" \
      --out "$repo_root/BENCH_storm.json"
  else
    status=1
  fi
fi

exit $status
