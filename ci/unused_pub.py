#!/usr/bin/env python3
"""List every `pub fn` in the workspace crates that no non-test code names.

Usage:
    python3 ci/unused_pub.py [--root .]

Definitions are the `pub fn` (and `pub const fn`) items of each crate's
``crates/*/src`` tree.  Non-test code is every ``.rs`` file under
``crates/*/src``, ``src/``, ``examples/``, ``crates/bench/benches`` and
``perfbench/src``, each cut at its first unindented ``#[cfg(test)]`` (the
rule ``ci/line_counts.py`` uses), with ``//`` comments removed.  A function
is reported when its name occurs as a whole word nowhere in that code but
on its own definition line.

The match is by name, not by path, so a function that shares its name with
anything used elsewhere is never reported: the list can miss dead functions,
but each one it names has no caller outside tests.  The script only
reports; it always exits 0.
"""

import argparse
import pathlib
import re

DEFINITION = re.compile(r"^\s*pub\s+(?:const\s+)?fn\s+([A-Za-z_][A-Za-z0-9_]*)")
COMMENT = re.compile(r"//.*$")


def non_test_lines(path):
    """A source file's lines before its first unindented `#[cfg(test)]`."""
    lines = path.read_text(encoding="utf-8").splitlines()
    end = next(
        (i for i, line in enumerate(lines) if line.startswith("#[cfg(test)]")),
        len(lines),
    )
    return lines[:end]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root")
    args = parser.parse_args()
    root = pathlib.Path(args.root)

    trees = sorted(p for p in (root / "crates").glob("*/src") if p.is_dir())
    trees += [root / d for d in ("src", "examples", "crates/bench/benches", "perfbench/src")]
    sources = {}
    for tree in trees:
        for path in sorted(tree.rglob("*.rs")):
            sources[path] = [COMMENT.sub("", line) for line in non_test_lines(path)]

    # Whole-word occurrences of every identifier across the non-test code.
    uses = {}
    for lines in sources.values():
        for line in lines:
            for word in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", line):
                uses[word] = uses.get(word, 0) + 1

    unused = []
    for path, lines in sources.items():
        if not path.is_relative_to(root / "crates") or "src" not in path.parts:
            continue
        for number, line in enumerate(lines, start=1):
            match = DEFINITION.match(line)
            if not match:
                continue
            name = match.group(1)
            own = len(re.findall(rf"\b{name}\b", line))
            if uses.get(name, 0) == own:
                unused.append((path.relative_to(root), number, name))

    for path, number, name in unused:
        print(f"{path}:{number}: {name}")
    print(f"{len(unused)} pub fn with no non-test caller")


if __name__ == "__main__":
    main()
