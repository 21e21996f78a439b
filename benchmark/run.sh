#!/usr/bin/env bash
# Builds pintbench into build-bench/ and runs the repo benchmark
# (benchmark/README.md).  Build output goes to stderr, so the last line of
# stdout is pintbench's JSON result.
#
#   benchmark/run.sh                        # all four workloads, one process each
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --smoke                # the ctest smoke test
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-bench"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "error: $root holds no PINT sources to build the benchmark from" >&2
  exit 1
fi

# Keep compiler temporaries inside the build tree.
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"
cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target pintbench -j 4 >&2

if [[ "${1:-}" == "--smoke" ]]; then
  exec ctest --test-dir "$build" -R '^pintbench_smoke$' --output-on-failure
fi

bench=("$build/pintbench" --trace-dir "$build/trace")
if [[ $# -gt 0 ]]; then
  exec "${bench[@]}" "$@"
fi
for w in dense-seq sparse-seq suite-par racy-seq; do
  "${bench[@]}" --workload "$w"
done
