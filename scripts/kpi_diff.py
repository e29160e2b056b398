#!/usr/bin/env python3
"""Compares two `all.kpi.jsonl` reports row by row.

The figure CSVs do not carry every KPI a run reports (the fault counts,
for one), so a change that must leave the runs alone is checked on the
KPI rows as well. Two reports agree when they have the same rows in the
same order and each pair of rows is equal outside the wall-clock keys
(`wall_ms`, `wall_secs`) and the provenance row's `git_revision`, which
names the checkout that wrote the file. Each argument is a report or a
directory holding `all.kpi.jsonl`:

    python3 scripts/kpi_diff.py A B

Prints each differing row and exits 1 when the reports differ, 0 when
they agree.
"""

import json
import pathlib
import sys

WALL_CLOCK = {"wall_ms", "wall_secs"}


def rows(arg):
    path = pathlib.Path(arg)
    if path.is_dir():
        path = path / "all.kpi.jsonl"
    out = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        for key in WALL_CLOCK:
            row.pop(key, None)
        if isinstance(row.get("provenance"), dict):
            row["provenance"].pop("git_revision", None)
        out.append(row)
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = rows(argv[1]), rows(argv[2])
    differ = 0
    for i in range(max(len(a), len(b))):
        x = a[i] if i < len(a) else None
        y = b[i] if i < len(b) else None
        if x != y:
            differ += 1
            print(f"row {i + 1}:\n  {x}\n  {y}")
    print(f"{differ} of {max(len(a), len(b))} rows differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
