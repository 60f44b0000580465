#!/usr/bin/env python3
"""Compare criterion-shim bench JSON against the checked-in baselines.

Usage:
    python3 ci/compare_bench.py --current-dir bench-out [--baseline-dir .]
        BENCH_violation_detection.json BENCH_voi_ranking.json ...

Each named file is loaded from both directories (schema: ``{"group",
"benchmarks": [{"id", "median_ns", ...}]}``, written by ``vendor/criterion``)
and every current benchmark id is compared against its baseline median.

Policy:

* A current id **missing from its baseline is a hard failure** — new
  benchmark ids must land with their baseline entries: whoever adds a bench
  also runs it once and commits the resulting ``BENCH_*.json`` in the same
  change, otherwise the new id would silently escape the regression gate
  forever after.
* Baseline ids missing from the current run are reported but tolerated
  (renames/retirements update the baseline in the same change; a warning
  keeps them visible).
* A benchmark regresses when ``current / baseline > tolerance``.  CI runners
  are noisy, so the default tolerance only flags order-of-magnitude
  regressions; ``TOLERANCES`` overrides it per benchmark id and
  ``FILE_TOLERANCES`` per file for entries that need a tighter or looser
  leash.

When every file passes, a before/after summary table is printed with the
per-id speedup (``baseline / current``; > 1.00x means this run was faster).

To regenerate a baseline after an intentional perf change, from the repo
root::

    BENCH_OUT_DIR=$(pwd) cargo bench --bench <name>

and commit the rewritten ``BENCH_<name>.json`` (see ROADMAP.md, "bench
baselines").
"""

import argparse
import json
import os
import sys

# CI runners are noisy; only flag order-of-magnitude regressions by default.
DEFAULT_TOLERANCE = 3.0

# Per-file default overrides.  serve_throughput round-trips a real loopback
# TCP socket through per-connection reader and writer threads and a worker
# pool, so its timings ride scheduler and network-stack jitter.
FILE_TOLERANCES = {
    "BENCH_serve_throughput.json": 5.0,
    # Loopback TCP through the threaded server, like serve_throughput.
    "BENCH_multi_reviewer.json": 5.0,
    # Sub-millisecond whole-replay timings jitter hard on shared runners.
    "BENCH_recovery.json": 5.0,
}

# Per-benchmark overrides keyed by (baseline file, benchmark id) — ids inside
# a BENCH_*.json are "fn/param" strings without the group prefix.  Small
# incremental-path benches jitter hard on shared runners and get a looser
# leash; add tighter entries here for benches that must not creep.
TOLERANCES = {
    ("BENCH_voi_ranking.json", "rerank_incremental/500"): 4.0,
    ("BENCH_suggestion_refresh.json", "refresh_after_answer/500"): 4.0,
    ("BENCH_update_generation.json", "regenerate_one_tuple/500"): 4.0,
}


def compare(name: str, baseline_dir: str, current_dir: str, rows: list) -> bool:
    """Compares one file, appending summary rows; returns True on pass."""
    baseline_path = os.path.join(baseline_dir, name)
    current_path = os.path.join(current_dir, name)
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = {b["id"]: b["median_ns"] for b in json.load(handle)["benchmarks"]}
    with open(current_path, encoding="utf-8") as handle:
        current = json.load(handle)["benchmarks"]

    ok = True
    seen = set()
    for bench in current:
        bench_id, median = bench["id"], bench["median_ns"]
        seen.add(bench_id)
        ref = baseline.get(bench_id)
        if ref is None:
            print(f"{bench_id}: {median:.0f} ns — MISSING FROM BASELINE {name}")
            print(
                "  (new bench ids must land with their baseline entries: run the"
            )
            print(
                f"  bench once and commit the updated {name} in the same change)"
            )
            ok = False
            continue
        tolerance = TOLERANCES.get(
            (name, bench_id), FILE_TOLERANCES.get(name, DEFAULT_TOLERANCE)
        )
        ratio = median / ref if ref > 0 else float("inf")
        regressed = ratio > tolerance
        marker = "REGRESSION" if regressed else "ok"
        print(
            f"{bench_id}: {median:.0f} ns vs baseline {ref:.0f} ns "
            f"({ratio:.2f}x, tolerance {tolerance:.1f}x) {marker}"
        )
        rows.append((name, bench_id, ref, median))
        ok = ok and not regressed
    for bench_id in sorted(set(baseline) - seen):
        print(f"{bench_id}: in baseline {name} but not produced by this run (warning)")
    return ok


def print_summary(rows: list) -> None:
    """Prints the before/after speedup table (speedup = baseline / current)."""
    if not rows:
        return
    headers = ("file", "benchmark", "baseline", "current", "speedup")
    table = [
        (
            name.removeprefix("BENCH_").removesuffix(".json"),
            bench_id,
            f"{ref:.0f} ns",
            f"{median:.0f} ns",
            f"{ref / median:.2f}x" if median > 0 else "inf",
        )
        for name, bench_id, ref, median in rows
    ]
    widths = [
        max(len(headers[col]), max(len(row[col]) for row in table))
        for col in range(len(headers))
    ]
    print()
    print("bench gate passed — before/after summary:")
    line = "  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("  " + "  ".join("-" * w for w in widths))
    for row in table:
        print("  " + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--baseline-dir", default=".", help="directory holding the checked-in BENCH_*.json")
    parser.add_argument("--current-dir", required=True, help="directory holding this run's BENCH_*.json")
    parser.add_argument("names", nargs="+", help="BENCH_*.json file names to compare")
    args = parser.parse_args()

    failed = False
    rows = []
    for name in args.names:
        if not compare(name, args.baseline_dir, args.current_dir, rows):
            failed = True
    if not failed:
        print_summary(rows)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
