#!/usr/bin/env bash
# CI driver: tier-1 suite plus the sanitizer lanes.
#
#   scripts/ci.sh            # all lanes (tier1 ... perf, bulkapply)
#   scripts/ci.sh tier1      # plain Release build + full ctest
#   scripts/ci.sh tsan       # -DPINT_SAN=thread build + ctest -L tsan
#   scripts/ci.sh asan       # -DPINT_SAN=address build + ctest -L asan
#   scripts/ci.sh faults     # fault-injection suite (ctest -L faults) in
#                            # the plain, the TSan AND the ASan builds
#   scripts/ci.sh telemetry  # telemetry suite + traced fig2 run with JSON
#                            # validation, then a -DPINT_TELEMETRY=OFF build
#                            # proving the zero-cost path still compiles
#   scripts/ci.sh perf       # perf smoke: micro_access (fails below the 3x
#                            # fast-path bar or the 0.5 sort cursor-hit
#                            # bar), emits BENCH_access.json; micro_treap
#                            # --bulk-json (fails below the 1.2x run-finger
#                            # bar or above a row's B/segment footprint
#                            # bar), emits BENCH_treap.json; micro_reach
#                            # (DePa spawn/query throughput under
#                            # concurrent spawns), emits BENCH_reach.json;
#                            # plus a tiny fig1_overview run
#   scripts/ci.sh bulkapply  # bulk-run equivalence suite (ctest -L
#                            # bulkapply) in the plain AND the TSan builds
#   scripts/ci.sh locks      # lockset matrix suite (ctest -L locks):
#                            # guarded/unguarded twin kernels through every
#                            # detector, in the plain AND the TSan builds
#   scripts/ci.sh perfgate   # perf-regression gate: re-runs both micro
#                            # benches and fails on a >10% geomean
#                            # regression vs the committed BENCH_*.json, or
#                            # any enforced store row under its bar
#                            # (scripts/perfgate.py via ctest -L perfgate)
#   scripts/ci.sh bench      # repo benchmark smoke (benchmark/run.sh
#                            # --smoke): builds pintbench in build-bench/
#                            # and runs one tiny pass of every workload, so
#                            # a Stats or API change that breaks the
#                            # benchmark driver fails here
#
# Each lane builds into its own directory (build/, build-tsan/, build-asan/,
# build-notelem/, build-bench/) so switching lanes never churns another
# lane's objects.  A sanitizer report exits the test non-zero, so a green
# lane means zero reports.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
LANES=("$@")
if [ ${#LANES[@]} -eq 0 ]; then
  LANES=(tier1 tsan asan faults telemetry perf bulkapply locks perfgate
         bench)
fi

build_dir() {
  local dir="$1" san="$2"
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release -DPINT_SAN="$san"
  cmake --build "$dir" -j "$JOBS"
}

run_lane() {
  local lane="$1" dir san label
  case "$lane" in
    tier1) dir=build;      san="";        label="" ;;
    tsan)  dir=build-tsan; san=thread;    label="-L tsan" ;;
    asan)  dir=build-asan; san=address;   label="-L asan" ;;
    faults)
      # The fault suite must give the same verdict with and without the
      # race detector watching the robustness machinery itself, and ASan
      # leak-checks the out-of-memory path: the pools own the reserves and
      # everything they hand out.
      echo "=== lane: faults (build dirs: build, build-tsan, build-asan) ==="
      build_dir build ""
      (cd build && ctest --output-on-failure -L faults)
      build_dir build-tsan thread
      (cd build-tsan && ctest --output-on-failure -L faults)
      build_dir build-asan address
      (cd build-asan && ctest --output-on-failure -L faults)
      return
      ;;
    bulkapply)
      # Bit-identical run-API equivalence must hold under TSan too: the
      # batched lane consumption defers the RECYCLE decrement, so the TSan
      # pass is what certifies the reordered release sequence.
      echo "=== lane: bulkapply (build dirs: build, build-tsan) ==="
      build_dir build ""
      (cd build && ctest --output-on-failure -L bulkapply)
      build_dir build-tsan thread
      (cd build-tsan && ctest --output-on-failure -L bulkapply)
      return
      ;;
    locks)
      # Lock-aware detection must hold under TSan too: the lockset table's
      # id->set chunk publication and the intersects() pair memo are read
      # lock-free from the history lanes, and TSan is what certifies those
      # release/acquire pairs.
      echo "=== lane: locks (build dirs: build, build-tsan) ==="
      build_dir build ""
      (cd build && ctest --output-on-failure -L locks)
      build_dir build-tsan thread
      (cd build-tsan && ctest --output-on-failure -L locks)
      return
      ;;
    telemetry)
      echo "=== lane: telemetry (build dirs: build, build-notelem) ==="
      build_dir build ""
      (cd build && ctest --output-on-failure -L telemetry)
      # End-to-end: a traced figure run must emit machine-readable JSON.
      local tdir
      tdir="$(mktemp -d)"
      ./build/bench/fig2_breakdown --kernel mmul --scale 0.5 \
        --trace-out="$tdir/trace.json" --stats-json="$tdir/stats.json"
      local nfiles=0
      for f in "$tdir"/*.json; do
        python3 -m json.tool "$f" > /dev/null
        nfiles=$((nfiles + 1))
      done
      echo "validated $nfiles telemetry JSON file(s)"
      [ "$nfiles" -ge 2 ]  # at least one trace + one metrics file
      rm -rf "$tdir"
      # The zero-cost contract: everything still builds and the telemetry
      # suite's OFF-branch assertions pass with the layer compiled out.
      cmake -B build-notelem -S . -DCMAKE_BUILD_TYPE=Release \
        -DPINT_TELEMETRY=OFF
      cmake --build build-notelem -j "$JOBS"
      (cd build-notelem && ctest --output-on-failure -L telemetry)
      return
      ;;
    perf)
      echo "=== lane: perf (build dir: build) ==="
      build_dir build ""
      # micro_access enforces the access-path acceptance bars itself: exits
      # non-zero if the cursor fast path is under 3x the slow route or sort's
      # cursor hit rate is at or under 0.5.  The JSON it emits is the
      # committed BENCH_access.json (ns/access, hit rates, geo-mean
      # overhead).
      ./build/bench/micro_access --json BENCH_access.json
      python3 -m json.tool BENCH_access.json > /dev/null
      echo "validated BENCH_access.json"
      # micro_treap --bulk-json enforces the store bars itself: exits
      # non-zero if the run API is under 1.2x the per-record loop on an
      # enforced dense-run row, if a row's store needs more bytes per
      # segment than its bar (fft-strided 32 one-sided and 38 two-sided,
      # fft growth 23 and 27.5, ascending appends 23.5), or if the two
      # paths diverge.
      ./build/bench/micro_treap --bulk-json BENCH_treap.json
      python3 -m json.tool BENCH_treap.json > /dev/null
      echo "validated BENCH_treap.json"
      # micro_reach times DePa's precedes() and on_spawn while
      # builder threads keep spawning (against a pre-grown 2M-strand
      # engine).  The JSON it emits is the committed BENCH_reach.json.
      ./build/bench/micro_reach --json BENCH_reach.json
      python3 -m json.tool BENCH_reach.json > /dev/null
      echo "validated BENCH_reach.json"
      # Smoke the end-to-end overhead figure at a tiny scale: catches a
      # detector that silently stopped taking the fast path in the full
      # harness (the run aborts on verification failure or false races).
      ./build/bench/fig1_overview --kernel mmul --scale 0.25 --reps 1
      return
      ;;
    perfgate)
      echo "=== lane: perfgate (build dir: build) ==="
      cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DPINT_SAN="" \
        -DPINT_PERFGATE=ON
      cmake --build build -j "$JOBS"
      (cd build && ctest --output-on-failure -L perfgate)
      return
      ;;
    bench)
      echo "=== lane: bench (build dir: build-bench) ==="
      benchmark/run.sh --smoke
      return
      ;;
    *) echo "unknown lane: $lane" >&2; exit 2 ;;
  esac
  echo "=== lane: $lane (build dir: $dir) ==="
  build_dir "$dir" "$san"
  # shellcheck disable=SC2086  # $label is intentionally word-split
  (cd "$dir" && ctest --output-on-failure $label)
}

for lane in "${LANES[@]}"; do
  run_lane "$lane"
done
echo "=== all lanes green ==="
