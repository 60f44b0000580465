#!/usr/bin/env python3
"""Compare this checkout against a parent commit on BENCHMARK.json's workloads.

Usage:
    python3 ci/ab_perfbench.py [--parent REV | --parent-dir DIR]
        [--rounds N] [--workloads solo_review,team_fleet] [--seed N]
        [--seconds S]
    python3 ci/ab_perfbench.py --self-test

The host this benchmark runs on switches between speeds for seconds at a
time, so a parent run and a child run only compare fairly when they sit
next to each other.  The script therefore runs the alternating-pair
protocol: for each workload and each of ``--rounds`` rounds it runs the
parent and the child back to back, parent first in even rounds and child
first in odd ones, with ``BENCHMARK.json``'s command and
``--workload <name> --seed <n> --seconds <s> --trace 0``.

The parent is built in a ``git worktree`` of ``--parent`` (default
``HEAD^``) under a temporary directory, offline against the vendored
dependencies, and the worktree is removed at exit; ``--parent-dir`` uses an
existing checkout instead.  Both sides are built before the first timed run.

For every end-to-end metric it prints the parent and child medians, the
child/parent ratio of medians, the number of pairs in which the child was
better, the parent's inter-quartile range relative to its median, and a
verdict against the metric's ``bound``: ``WORSE`` when the child is worse by
more than the bound (ratio above ``1 + bound`` for lower-is-better metrics,
below ``1 - bound`` for higher-is-better ones), ``better`` when it improves
by more than the parent's spread, ``unresolved`` when the parent's spread
is wider than the bound and not every child run beats every parent run,
``same`` otherwise.  Any run that reports
``correct: false`` or a failed operation is listed, and the exit status is
1 when any metric is ``WORSE`` or any run was incorrect.

``--self-test`` checks the median, quartile, ratio and verdict arithmetic on
canned results and runs nothing else.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def median(values):
    """Median of a non-empty list."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def quartiles(values):
    """First and third quartiles by linear interpolation between ranks."""
    ordered = sorted(values)

    def at(fraction):
        position = fraction * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

    return at(0.25), at(0.75)


def ratio(child, parent):
    """Child/parent ratio; infinite when the parent is zero."""
    return child / parent if parent else float("inf")


def child_better(child, parent, better):
    """Whether `child` beats `parent` for a metric where `better` is
    ``"lower"`` or ``"higher"``."""
    return child < parent if better == "lower" else child > parent


def verdict(parent_runs, child_runs, better, bound):
    """Classifies paired runs of one metric: ``WORSE``, ``better``,
    ``unresolved`` or ``same`` (see the module docs)."""
    parent_median, child_median = median(parent_runs), median(child_runs)
    r = ratio(child_median, parent_median)
    worse = r > 1 + bound if better == "lower" else r < 1 - bound
    if worse:
        return "WORSE"
    q1, q3 = quartiles(parent_runs)
    gain = parent_median - child_median if better == "lower" else child_median - parent_median
    if gain > q3 - q1:
        return "better"
    every_run_better = all(child_better(c, p, better) for c in child_runs for p in parent_runs)
    if parent_median and (q3 - q1) / parent_median > bound and not every_run_better:
        return "unresolved"
    return "same"


def summarize(benchmark, results):
    """One row per (workload, metric) from `results`, a map of workload
    name to a list of ``(parent_metrics, child_metrics)`` pairs."""
    rows = []
    for workload, pairs in results.items():
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            if not all(name in p and name in c for p, c in pairs):
                continue
            parent = [p[name] for p, _ in pairs]
            child = [c[name] for _, c in pairs]
            q1, q3 = quartiles(parent)
            parent_median = median(parent)
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "parent": parent_median,
                    "child": median(child),
                    "ratio": ratio(median(child), parent_median),
                    "wins": sum(child_better(c, p, metric["better"]) for p, c in zip(parent, child)),
                    "pairs": len(pairs),
                    "iqr": (q3 - q1) / parent_median if parent_median else 0.0,
                    "bound": metric["bound"],
                    "verdict": verdict(parent, child, metric["better"], metric["bound"]),
                }
            )
    return rows


def print_rows(rows):
    headers = ("workload", "metric", "parent", "child", "child/parent", "child better", "parent IQR", "bound", "verdict")
    table = [
        (
            row["workload"],
            row["metric"],
            f"{row['parent']:.4g} {row['unit']}",
            f"{row['child']:.4g} {row['unit']}",
            f"{row['ratio']:.3f}",
            f"{row['wins']}/{row['pairs']}",
            f"{row['iqr']:.1%}",
            f"{row['bound']:.0%}",
            row["verdict"],
        )
        for row in rows
    ]
    widths = [max(len(h), *(len(r[i]) for r in table)) for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def metric_values(metrics):
    """``{name: value}`` from a result's ``{name: {"value", "unit"}}``."""
    return {name: entry["value"] for name, entry in metrics.items()}


def build_command(command):
    """The benchmark command's build step: ``cargo run … --`` as ``cargo
    build …``."""
    head = command[: command.index("--")] if "--" in command else list(command)
    return ["build" if part == "run" else part for part in head]


def run_once(checkout, command, workload, seed, seconds):
    """Runs one benchmark invocation in `checkout`; returns its last JSON
    line."""
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=checkout, capture_output=True, text=True, check=False)
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{checkout}: {workload} exited {done.returncode} without a result")
    return json.loads(lines[-1])


def self_test():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    assert quartiles([1, 2, 3, 4, 5]) == (2, 4)
    assert quartiles([10, 20, 30, 40]) == (17.5, 32.5)
    assert ratio(1.5, 3.0) == 0.5 and ratio(1.0, 0.0) == float("inf")
    # Lower is better: 25% bound, ratio 1.30 is worse, 1.20 is not.
    assert verdict([1.0] * 5, [1.3] * 5, "lower", 0.25) == "WORSE"
    assert verdict([1.0] * 5, [1.2] * 5, "lower", 0.25) == "same"
    # A 36% drop against a parent IQR of 0.04 is a gain; a drop inside the
    # parent's spread is not.
    assert verdict([0.45, 0.48, 0.5, 0.52, 0.55], [0.32] * 5, "lower", 0.25) == "better"
    assert verdict([0.45, 0.48, 0.5, 0.52, 0.55], [0.47] * 5, "lower", 0.25) == "same"
    # A parent spread wider than the bound leaves a small move unresolved,
    # unless every child run beats every parent run.
    assert verdict([6.0, 9.0, 12.0, 15.0, 18.0], [11.0] * 5, "lower", 0.25) == "unresolved"
    assert verdict([1.0, 1.05, 1.1, 2.0, 3.0], [0.99] * 5, "lower", 0.25) == "same"
    # Higher is better: the bound applies below 1.
    assert verdict([100.0] * 3, [70.0] * 3, "higher", 0.25) == "WORSE"
    assert verdict([100.0] * 3, [130.0] * 3, "higher", 0.25) == "better"
    benchmark = {
        "end_to_end": [
            {"name": "wait_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
            {"name": "answers_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
            {"name": "absent", "unit": "s", "better": "lower", "bound": 0.25},
        ]
    }
    pairs = [
        ({"wait_p50_ms": 0.48, "answers_per_s": 900}, {"wait_p50_ms": 0.31, "answers_per_s": 1300}),
        ({"wait_p50_ms": 0.50, "answers_per_s": 880}, {"wait_p50_ms": 0.30, "answers_per_s": 1350}),
        ({"wait_p50_ms": 0.47, "answers_per_s": 910}, {"wait_p50_ms": 0.33, "answers_per_s": 1280}),
    ]
    rows = summarize(benchmark, {"solo_review": pairs})
    assert [row["metric"] for row in rows] == ["wait_p50_ms", "answers_per_s"]
    wait = rows[0]
    assert wait["parent"] == 0.48 and wait["child"] == 0.31
    assert abs(wait["ratio"] - 0.31 / 0.48) < 1e-12
    assert wait["wins"] == 3 and wait["verdict"] == "better"
    assert rows[1]["wins"] == 3 and rows[1]["verdict"] == "better"
    assert metric_values({"setup_s": {"value": 0.03, "unit": "s"}}) == {"setup_s": 0.03}
    assert build_command(["cargo", "run", "--release", "--", "x"]) == ["cargo", "build", "--release"]
    print("ab_perfbench self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--self-test", action="store_true", help="check the arithmetic and exit")
    parser.add_argument("--parent", default="HEAD^", help="parent revision to build in a worktree")
    parser.add_argument("--parent-dir", help="an existing parent checkout (skips the worktree)")
    parser.add_argument("--rounds", type=int, default=10, help="alternating pairs per workload")
    parser.add_argument("--workloads", help="comma-separated workloads (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="seconds per run (default: run_seconds)")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return 0

    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    command = benchmark["command"]
    seconds = args.seconds or benchmark["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in benchmark["workloads"]]

    scratch = None
    parent = args.parent_dir
    if parent is None:
        scratch = tempfile.mkdtemp(prefix="ab-perfbench-")
        parent = os.path.join(scratch, "parent")
        subprocess.run(["git", "worktree", "add", "--detach", parent, args.parent], cwd=REPO, check=True)
    try:
        for checkout in (parent, REPO):
            subprocess.run(build_command(command), cwd=checkout, check=True)
        results = {}
        incorrect = []
        for workload in workloads:
            results[workload] = []
            for round_index in range(args.rounds):
                sides = {}
                order = [("parent", parent), ("child", REPO)]
                if round_index % 2:
                    order.reverse()
                for side, checkout in order:
                    result = run_once(checkout, command, workload, args.seed, seconds)
                    if not result.get("correct") or result.get("failed"):
                        incorrect.append((workload, round_index, side, result.get("failed")))
                    sides[side] = metric_values(result["metrics"])
                results[workload].append((sides["parent"], sides["child"]))
                print(f"{workload} round {round_index + 1}/{args.rounds} done", file=sys.stderr)
        rows = summarize(benchmark, results)
        print_rows(rows)
        for workload, round_index, side, failed in incorrect:
            print(f"INCORRECT: {workload} round {round_index + 1} {side} (failed={failed})")
        return 1 if incorrect or any(row["verdict"] == "WORSE" for row in rows) else 0
    finally:
        if scratch is not None:
            subprocess.run(["git", "worktree", "remove", "--force", parent], cwd=REPO, check=False)
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
