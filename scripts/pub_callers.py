#!/usr/bin/env python3
"""Lists the `pub fn`s under `crates/*/src` that nothing but a test calls.

A function counts as called when its name appears, as a whole word, in
the non-test code of `crates/`, `src/`, `examples/` or `benchmark/src/`
anywhere other than at a `pub fn` definition of that name. Non-test code
is what comes before the first `#[cfg(test)]` of a file, outside any
`tests/` directory, with `//` comments dropped. Run it from the
repository root:

    python3 scripts/pub_callers.py

It exits 1 when an uncalled function is missing from `KEPT`, and when a
`KEPT` entry has a caller again or names no `pub fn` any more, so the
table cannot go stale. Each `KEPT` entry says which test or paper section
keeps the function.

The check goes by name, not by type: a function that shares its name
with one that is called (two types' `new`, say) counts as called, so the
check can miss an unused function, but it never flags a function that a
caller uses.
"""

import pathlib
import re
import sys

ROOTS = ("crates", "src", "examples", "benchmark/src")
PUB_FN = re.compile(r"\bpub\s+(?:const\s+)?(?:unsafe\s+)?fn\s+(\w+)")
WORD = re.compile(r"\b\w+\b")

# Public functions with no non-test caller that stay, and why.
KEPT = {
    "next_due": "Crowd: tests/crowd_model.rs polls the crowd at its next instant",
    "tracked_tasks": "Crowd: tests/crowd_model.rs holds the crowd's per-task state bounded",
    "task_history": "AuditLog: tests/fault_recovery.rs reads one task's trail",
    "assigned_worker": "TaskState: tests/task_registry.rs reads a task's holder",
    "matcher_rebuilds": "ReactServer: tests/matcher_policy.rs pins the adaptive budget's rebuilds",
    "max_matching_size": "BipartiteGraph: tests/matching_properties.rs bounds every matching by it",
    "add_edge": "BipartiteGraph: tests/matching_properties.rs builds graphs edge by edge",
    "shared_buffer": "JsonLinesObserver: tests/observability.rs reads the JSON lines back",
    "shed_rate": "IngestReport: tests/load_soak.rs checks the admission ladder's share",
    "permutations": "Manifest: crates/experiments/tests/golden_expansion.rs counts a sweep's runs",
    "pdf": "PowerLaw: the density the CDF is cross-checked against (paper Sec. III-B)",
    "set_reward_range": "ProfilingComponent: a worker's declared reward range (paper Sec. III-C)",
    "build_graph": "SchedulingComponent: the cold build tests/hotpath_identity.rs holds the warm one to",
}


def code_lines(path):
    """The non-test lines of `path`, `//` comments dropped."""
    for line in path.read_text().splitlines():
        if line.strip() == "#[cfg(test)]":
            return
        cut = line.find("//")
        while cut >= 0 and line[:cut].count('"') % 2 == 1:
            cut = line.find("//", cut + 2)
        yield line if cut < 0 else line[:cut]


def sources(root):
    for top in ROOTS:
        for f in sorted(pathlib.Path(root, top).rglob("*.rs")):
            rel = f.relative_to(root).parts
            if "tests" in rel or "target" in rel:
                continue
            yield f


def uncalled(root):
    defined = {}  # name -> number of `pub fn` definitions under crates/*/src
    uses = {}  # name -> whole-word occurrences in non-test code
    for f in sources(root):
        in_crate_src = f.relative_to(root).parts[0] == "crates" and "src" in f.parts
        for line in code_lines(f):
            if in_crate_src:
                for name in PUB_FN.findall(line):
                    defined[name] = defined.get(name, 0) + 1
            for word in WORD.findall(line):
                uses[word] = uses.get(word, 0) + 1
    return sorted(name for name, n in defined.items() if uses.get(name, 0) <= n), defined


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    names, defined = uncalled(root)
    status = 0
    for name in names:
        if name in KEPT:
            print(f"kept      {name}: {KEPT[name]}")
        else:
            print(f"UNCALLED  {name}: no non-test caller and not in KEPT")
            status = 1
    for name in sorted(KEPT):
        if name not in defined:
            print(f"STALE     {name}: KEPT names no pub fn of that name")
            status = 1
        elif name not in names:
            print(f"STALE     {name}: KEPT, but it has a caller now")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
