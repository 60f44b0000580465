#!/usr/bin/env python3
"""Print each workspace crate's source line counts.

Usage:
    python3 ci/line_counts.py [--root .]

For every crate under ``crates/`` it prints the lines of its ``src/`` tree
twice: in total, and non-test, where a file's non-test lines are the lines
before its first unindented ``#[cfg(test)]`` (in-file test modules sit at
the end of each file; an indented one gates a single item, not a module).
A last row sums the crates.  The script only reports; it always exits 0.
"""

import argparse
import pathlib


def count(path):
    """(total, non-test) line counts of one Rust source file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    non_test = next(
        (i for i, line in enumerate(lines) if line.startswith("#[cfg(test)]")),
        len(lines),
    )
    return len(lines), non_test


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root")
    args = parser.parse_args()
    crates = pathlib.Path(args.root) / "crates"
    rows = []
    for crate in sorted(p for p in crates.iterdir() if (p / "src").is_dir()):
        files = sorted((crate / "src").rglob("*.rs"))
        counts = [count(f) for f in files]
        rows.append((crate.name, sum(c[0] for c in counts), sum(c[1] for c in counts)))
    print(f"{'crate':<10} {'total':>7} {'non-test':>9}")
    for name, total, non_test in rows:
        print(f"{name:<10} {total:>7,} {non_test:>9,}")
    print(
        f"{'all':<10} {sum(r[1] for r in rows):>7,} {sum(r[2] for r in rows):>9,}"
    )


if __name__ == "__main__":
    main()
