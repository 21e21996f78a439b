#!/usr/bin/env python3
"""Perf-regression gate over the committed micro-bench snapshots.

Runs (or is given) fresh bench/micro_access and bench/micro_treap JSONs and
compares them against the committed BENCH_access.json / BENCH_treap.json
(DESIGN.md section 11.4).  Fails when:

  * the access lane's geomean detection overhead regressed by more than
    --tolerance (default 10%) against the committed snapshot, compared on
    the full seven-kernel "geomean_overhead" whenever BOTH snapshots carry
    it (the enforced key since the hot-path work of DESIGN.md section 13;
    kernels outside the old {mmul, heat, sort} subset regressing now trips
    the gate).  Falls back to "geomean_overhead_3kernel" only when one
    side predates the seven-kernel sweep;
  * any single kernel's overhead regressed by more than --kernel-tolerance
    (default 10%; looser than the geomean bar because a single kernel's
    ratio is noisier than the geomean on a shared host) against its
    committed row;
  * any kernel's fresh "cursor_spills" exceeds its committed row.  Unlike
    the overheads this is an exact count (the kernels and the cursor are
    deterministic on one core), so it is gated with no tolerance: a cursor
    change that spills more must re-commit the snapshot;
  * any store row marked "enforced" in the committed snapshot has a fresh
    per-record speedup below the committed "speedup_bar", or any row
    carrying "bytes_per_segment" (the fft-strided footprints) exceeds its
    own committed "footprint_bar", or the table's when it has none;
  * the strong-scaling efficiency at max workers (BENCH_fig3.json, emitted
    by fig3_strong_scaling --json) regressed by more than
    --scaling-tolerance (default 10%) on the kernel geomean against the
    committed snapshot, or any single kernel fell through its loose floor -
    this is the key that keeps a later change from quietly reintroducing
    a reachability scaling cliff.  The fresh fig3 run is replayed at the
    committed snapshot's scale and kernel list so the comparison is
    apples-to-apples.

The in-binary acceptance bars (cursor >= 3x, sort cursor rate > 0.5,
enforced store rows >= bar on their own fresh numbers)
already make the benches themselves exit non-zero; this script adds only
the against-the-committed-baseline comparison.

Usage:
  scripts/perfgate.py --bench-dir build/bench             # run benches
  scripts/perfgate.py --fresh-access a.json --fresh-treap t.json
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def geomean_key(baseline, fresh):
    """The widest overhead figure BOTH snapshots carry: the seven-kernel
    geomean when available on both sides, the 3-kernel subset otherwise."""
    if "geomean_overhead" in baseline and "geomean_overhead" in fresh:
        return "geomean_overhead"
    return "geomean_overhead_3kernel"


def gate_access(baseline, fresh, tolerance, kernel_tolerance):
    key = geomean_key(baseline, fresh)
    base, cur = baseline[key], fresh[key]
    ratio = cur / base if base > 0 else float("inf")
    line = (f"access geomean overhead: committed {base:.3f} vs "
            f"fresh {cur:.3f} ({key}) -> ratio {ratio:.3f}")
    failures = []
    if ratio > 1.0 + tolerance:
        failures.append(f"FAIL {line} exceeds 1 + {tolerance:.2f}")
    else:
        print(f"ok   {line}")
    # Per-kernel floor: the geomean can hide one kernel paying for another.
    fresh_rows = {r["name"]: r for r in fresh.get("kernels", [])}
    for row in baseline.get("kernels", []):
        fr = fresh_rows.get(row["name"])
        if fr is None:
            failures.append(
                f"FAIL access kernel '{row['name']}' missing from fresh run")
            continue
        kratio = (fr["overhead"] / row["overhead"]
                  if row["overhead"] > 0 else float("inf"))
        kline = (f"access {row['name']}: committed {row['overhead']:.2f}x vs "
                 f"fresh {fr['overhead']:.2f}x -> ratio {kratio:.3f}")
        if kratio > 1.0 + kernel_tolerance:
            failures.append(
                f"FAIL {kline} exceeds 1 + {kernel_tolerance:.2f}")
        else:
            print(f"ok   {kline}")
        if "cursor_spills" in row:
            sline = (f"access {row['name']}: committed "
                     f"{row['cursor_spills']} cursor spills vs fresh "
                     f"{fr.get('cursor_spills')}")
            if fr.get("cursor_spills", float("inf")) > row["cursor_spills"]:
                failures.append(f"FAIL {sline}")
            else:
                print(f"ok   {sline}")
    return failures


def gate_treap(baseline, fresh):
    bar = baseline.get("speedup_bar", 2.0)
    footprint_bar = baseline.get("footprint_bar")
    fresh_rows = {r["name"]: r for r in fresh["rows"]}
    failures = []
    for row in baseline["rows"]:
        name = row["name"]
        gated_footprint = footprint_bar is not None and "bytes_per_segment" in row
        if not row.get("enforced", False) and not gated_footprint:
            continue
        fr = fresh_rows.get(name)
        if fr is None:
            failures.append(f"FAIL store row '{name}' missing from fresh run")
            continue
        if row.get("enforced", False):
            line = (f"store {name}: fresh speedup {fr['speedup']:.2f} "
                    f"(committed {row['speedup']:.2f}, bar {bar:.2f})")
            if fr["speedup"] < bar:
                failures.append(f"FAIL {line}")
            else:
                print(f"ok   {line}")
        if gated_footprint:
            cur = fr.get("bytes_per_segment", float("inf"))
            bar_b = row.get("footprint_bar", footprint_bar)
            line = (f"store {name}: fresh {cur:.1f} B/segment "
                    f"(committed {row['bytes_per_segment']:.1f}, "
                    f"bar {bar_b:.1f})")
            if cur > bar_b:
                failures.append(f"FAIL {line}")
            else:
                print(f"ok   {line}")
    return failures


def gate_fig3(baseline, fresh, scaling_tolerance):
    """Scaling key: per-kernel efficiency@max is a ratio of two noisy cell
    times (measured single-run spread on the shared 1-core host is ~+/-15%),
    so the enforced --scaling-tolerance bound applies to the GEOMEAN of the
    per-kernel efficiency ratios; each kernel also gets a loose 25% floor -
    wide enough for cell noise, far below the 10-100x collapse an actual
    reachability cliff reintroduction shows (DESIGN.md section 14.4)."""
    kernel_floor = 0.25
    failures = []
    fresh_rows = {k["name"]: k for k in fresh.get("kernels", [])}
    log_sum, n = 0.0, 0
    for row in baseline.get("kernels", []):
        fr = fresh_rows.get(row["name"])
        if fr is None:
            failures.append(
                f"FAIL fig3 kernel '{row['name']}' missing from fresh run")
            continue
        base, cur = row["efficiency_at_max"], fr["efficiency_at_max"]
        ratio = cur / base if base > 0 else float("inf")
        log_sum += math.log(ratio)
        n += 1
        line = (f"fig3 {row['name']}: efficiency@max committed {base:.4f} "
                f"vs fresh {cur:.4f} -> ratio {ratio:.3f}")
        if ratio < 1.0 - kernel_floor:
            failures.append(
                f"FAIL {line} below the per-kernel floor 1 - {kernel_floor}")
        else:
            print(f"ok   {line}")
    if n:
        geo = math.exp(log_sum / n)
        gline = f"fig3 efficiency@max geomean ratio {geo:.3f}"
        if geo < 1.0 - scaling_tolerance:
            failures.append(
                f"FAIL {gline} regressed beyond 1 - {scaling_tolerance:.2f}")
        else:
            print(f"ok   {gline}")
    return failures


def run_bench(bench_dir, exe, args, out):
    cmd = [os.path.join(bench_dir, exe)] + args + [out]
    print("+ " + " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True, cwd=REPO, stdout=subprocess.DEVNULL)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench-dir",
                    help="directory holding micro_access/micro_treap; when "
                         "given, the benches are run into a temp dir")
    ap.add_argument("--fresh-access", help="pre-made fresh micro_access JSON")
    ap.add_argument("--fresh-treap", help="pre-made fresh micro_treap JSON")
    ap.add_argument("--fresh-fig3",
                    help="pre-made fresh fig3_strong_scaling JSON")
    ap.add_argument("--baseline-access",
                    default=os.path.join(REPO, "BENCH_access.json"))
    ap.add_argument("--baseline-treap",
                    default=os.path.join(REPO, "BENCH_treap.json"))
    ap.add_argument("--baseline-fig3",
                    default=os.path.join(REPO, "BENCH_fig3.json"))
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional geomean regression (default .10)")
    ap.add_argument("--kernel-tolerance", type=float, default=0.10,
                    help="allowed fractional per-kernel overhead regression "
                         "(default .10)")
    ap.add_argument("--scaling-tolerance", type=float, default=0.10,
                    help="allowed fractional efficiency-at-max-workers "
                         "regression on the fig3 key (default .10)")
    opts = ap.parse_args()

    with open(opts.baseline_fig3) as f:
        base_fig3 = json.load(f)

    tmp = None
    if opts.bench_dir:
        tmp = tempfile.mkdtemp(prefix="perfgate.")
        opts.fresh_access = os.path.join(tmp, "access.json")
        opts.fresh_treap = os.path.join(tmp, "treap.json")
        run_bench(opts.bench_dir, "micro_access", ["--json"],
                  opts.fresh_access)
        run_bench(opts.bench_dir, "micro_treap", ["--bulk-json"],
                  opts.fresh_treap)
        # Replay the committed snapshot's exact sweep (scale + kernels) so
        # the efficiency comparison is apples-to-apples.
        opts.fresh_fig3 = os.path.join(tmp, "fig3.json")
        fig3_args = ["--scale", str(base_fig3.get("scale", 8)),
                     "--reps", "3"]
        for k in base_fig3.get("kernels", []):
            fig3_args += ["--kernel", k["name"]]
        fig3_args += ["--json"]
        run_bench(opts.bench_dir, "fig3_strong_scaling", fig3_args,
                  opts.fresh_fig3)
    if not opts.fresh_access or not opts.fresh_treap or not opts.fresh_fig3:
        ap.error("need --bench-dir or all of --fresh-access, --fresh-treap "
                 "and --fresh-fig3")

    with open(opts.baseline_access) as f:
        base_access = json.load(f)
    with open(opts.fresh_access) as f:
        fresh_access = json.load(f)
    with open(opts.baseline_treap) as f:
        base_treap = json.load(f)
    with open(opts.fresh_treap) as f:
        fresh_treap = json.load(f)
    with open(opts.fresh_fig3) as f:
        fresh_fig3 = json.load(f)

    failures = gate_access(base_access, fresh_access, opts.tolerance,
                           opts.kernel_tolerance)
    failures += gate_treap(base_treap, fresh_treap)
    failures += gate_fig3(base_fig3, fresh_fig3, opts.scaling_tolerance)
    for line in failures:
        print(line, file=sys.stderr)
    if failures:
        sys.exit(1)
    print("perfgate: no regression against committed baselines")


if __name__ == "__main__":
    main()
