#!/usr/bin/env python3
"""List every `pub fn` in the workspace crates that no non-test code calls.

Usage:
    python3 ci/unused_pub.py [--root .]

Definitions are the `pub fn` (and `pub const fn`) items of each crate's
``crates/*/src`` tree.  Non-test code is every ``.rs`` file under
``crates/*/src``, ``src/``, ``examples/``, ``crates/bench/benches`` and
``perfbench/src``, each cut at its first unindented ``#[cfg(test)]`` (the
rule ``ci/line_counts.py`` uses).  Comments, string literals and character
literals are skipped.

Each whole-word occurrence of a name in that code is a use, attributed to
the innermost `fn` whose body contains it (or to no function, for uses in a
``use`` line, a constant or an impl header).  A function is reported when
every use of its name, its own definition aside, lies inside functions
that are themselves reported.  The list is the fixed point of that rule:
it starts from the functions whose name occurs nowhere else and follows
the chains from there, so a function called only by dead functions is
reported too, with those callers named.

The match is by name, not by path, so a function that shares its name with
anything used elsewhere, a call inside its own body included, is never
reported: the list can miss dead functions, but each one it names has no
caller outside tests except through other listed functions.  A file whose
brackets do not balance counts every occurrence in it as a use.

The proptest oracles in ``ALLOWED`` are expected on the list: tests compare
the incremental code against them, and no other code calls them.  The
script exits 1 when the list holds any other function, so a `pub fn` that
loses its last non-test caller fails CI until it is deleted or made private.
"""

import argparse
import pathlib
import re
import sys

# Proptest oracles: from-scratch versions of incremental state that only
# tests call.
ALLOWED = {"vio_tuple", "agrees_with_rebuild", "invariants_hold", "loss_of_table"}

DEFINITION = re.compile(r"^\s*pub\s+(?:const\s+)?fn\s+([A-Za-z_][A-Za-z0-9_]*)")
TOKEN = re.compile(
    r"""
      (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<raw>b?r(?P<hashes>\#*)".*?"(?P=hashes))
    | (?P<string>b?"(?:\\.|[^"\\])*")
    | (?P<char>b?'(?:\\.|[^'\\])')
    | (?P<lifetime>'[A-Za-z_][A-Za-z0-9_]*)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>[{}()\[\];\n])
    """,
    re.DOTALL | re.VERBOSE,
)


def non_test_lines(path):
    """A source file's lines before its first unindented `#[cfg(test)]`."""
    lines = path.read_text(encoding="utf-8").splitlines()
    end = next(
        (i for i, line in enumerate(lines) if line.startswith("#[cfg(test)]")),
        len(lines),
    )
    return lines[:end]


def occurrences(text):
    """Every identifier of `text` as `(name, line, enclosing fn, is a fn
    definition)`; `None` as the enclosing fn when the braces do not balance.
    """
    found = []
    line = 1
    depth = 0
    nesting = 0  # open `(` and `[`: a `;` inside them ends no signature
    bodies = []  # (fn name, depth of its body)
    pending = None  # a `fn` whose body has not opened yet
    after_fn = False
    for token in TOKEN.finditer(text):
        kind = token.lastgroup
        value = token.group()
        if kind in ("comment", "raw", "string", "char"):
            line += value.count("\n")
            continue
        if kind == "ident":
            enclosing = bodies[-1][0] if bodies else None
            found.append((value, line, enclosing, after_fn))
            if after_fn:
                pending = value
            after_fn = value == "fn"
            continue
        after_fn = False
        if value == "\n":
            line += 1
        elif value in "([":
            nesting += 1
        elif value in ")]":
            nesting -= 1
        elif value == ";" and nesting == 0:
            pending = None
        elif value == "{":
            depth += 1
            if pending is not None:
                bodies.append((pending, depth))
                pending = None
        elif value == "}":
            if bodies and bodies[-1][1] == depth:
                bodies.pop()
            depth -= 1
    if depth != 0 or nesting != 0:
        found = [(name, at, None, is_def) for name, at, _, is_def in found]
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root")
    args = parser.parse_args()
    root = pathlib.Path(args.root)

    trees = sorted(p for p in (root / "crates").glob("*/src") if p.is_dir())
    trees += [root / d for d in ("src", "examples", "crates/bench/benches", "perfbench/src")]

    # name -> [(path, line, enclosing fn, is a fn definition)]
    uses = {}
    definitions = []
    for tree in trees:
        for path in sorted(tree.rglob("*.rs")):
            lines = non_test_lines(path)
            for name, line, enclosing, is_def in occurrences("\n".join(lines)):
                uses.setdefault(name, []).append((path, line, enclosing, is_def))
            if not path.is_relative_to(root / "crates") or "src" not in path.parts:
                continue
            for number, text in enumerate(lines, start=1):
                match = DEFINITION.match(text)
                if match:
                    definitions.append((path, number, match.group(1)))

    def callers(path, number, name):
        """The enclosing fn of every use of `name` but its own definition."""
        return [
            enclosing
            for at_path, at_line, enclosing, is_def in uses.get(name, [])
            if not (is_def and at_path == path and at_line == number)
        ]

    dead = {}  # name -> the dead callers it was reported through
    changed = True
    while changed:
        changed = False
        for path, number, name in definitions:
            if name in dead:
                continue
            through = callers(path, number, name)
            if all(caller in dead for caller in through):
                dead[name] = sorted(set(through))
                changed = True

    reported = [d for d in definitions if d[2] in dead]
    for path, number, name in reported:
        note = f" (called only from {', '.join(dead[name])})" if dead[name] else ""
        allowed = " [allowed oracle]" if name in ALLOWED else ""
        print(f"{path.relative_to(root)}:{number}: {name}{note}{allowed}")
    print(f"{len(reported)} pub fn with no non-test caller")
    unexpected = sorted({name for _, _, name in reported} - ALLOWED)
    if unexpected:
        print(f"not allowed: {', '.join(unexpected)}")
        sys.exit(1)


if __name__ == "__main__":
    main()
