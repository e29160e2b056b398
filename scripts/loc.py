#!/usr/bin/env python3
"""Counts the non-test lines of Rust under `crates/`.

A line counts when it is neither blank nor a `//` comment and comes
before the first `#[cfg(test)]` of its file; files under a `tests/`
directory are skipped. Run it from the repository root, or name one or
more checkouts:

    python3 scripts/loc.py            # this checkout
    python3 scripts/loc.py A B        # one line per checkout
"""

import pathlib
import sys


def loc(root):
    n = 0
    for f in pathlib.Path(root, "crates").rglob("*.rs"):
        if "tests" in f.relative_to(root).parts:
            continue
        for line in f.read_text().splitlines():
            s = line.strip()
            if s == "#[cfg(test)]":
                break
            if s and not s.startswith("//"):
                n += 1
    return n


if __name__ == "__main__":
    for root in sys.argv[1:] or ["."]:
        print(root, loc(root))
