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

The type-resolved check asks the compiler instead:

    python3 scripts/pub_callers.py --compile [--scratch DIR]

It copies the tree under `DIR` (a fresh temporary directory by default;
never the checkout itself), and for each `pub fn` in the non-test part
of `crates/*/src` renames that one definition and runs `cargo check
--offline --workspace --all-features --lib --bins --examples` and `cargo
check --manifest-path benchmark/Cargo.toml --all-targets`, each with a
target directory of its own. It lists every function whose rename still
compiles, as `Type::name` (or `name` for a free function), and exits 1
when one is missing from `KEPT`. The checks deny `unconditional_recursion`:
an inherent method renamed away can otherwise resolve to a trait method
of its name that forwards to it. A call that falls through to another
method of the same name without recursing (a trait's or a `Deref`
target's) still hides a caller. A `KEPT` key may name the type as well
(`Type::name`): the by-name check skips such keys, since a function that
shares its name with a called one has a caller by name. This mode takes
about 13 min on 2 cores with a cold scratch directory (about 7 min with
the target directories of an earlier run) and is not a CI step.
"""

import argparse
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

ROOTS = ("crates", "src", "examples", "benchmark/src")
PUB_FN = re.compile(r"\bpub\s+(?:const\s+)?(?:unsafe\s+)?fn\s+(\w+)")
IMPL = re.compile(r"^impl\b(?:<.*?>)?\s+(?:[\w:]+(?:<.*?>)?\s+for\s+)?([\w:]+)")
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
    "shed_rate": "IngestReport: tests/load_soak.rs checks the admission ladder's share",
    "permutations": "Manifest: crates/experiments/tests/golden_expansion.rs counts a sweep's runs",
    "pdf": "PowerLaw: the density the CDF is cross-checked against (paper Sec. III-B)",
    # Kept by the type-resolved check only: a function of that name is
    # called elsewhere.
    "IngestRuntime::replay": "tests/des_live_oracle.rs runs the live loop on a virtual clock against the DES",
    "RegionRouter::load": "the router's unit tests read a cell's load after registrations and splits",
    "FaultSchedule::is_noop": "the faults unit tests hold the empty plan's schedule to injecting nothing",
    "WorkerBehavior::uniform": "tests/crowd_model.rs and tests/hotpath_allocs.rs build the paper's uniform worker",
    "TaskManagementComponent::len": "tests/task_registry.rs holds the registry's size to its model's",
    "TaskManagementComponent::is_empty": "pairs with `len` (clippy); the server's prune test reads it",
    "TaskManagementComponent::complete": "tests/task_registry.rs completes a task on the bare registry",
    "ProfilingComponent::is_empty": "pairs with the called `len` (clippy); a profiling unit test reads it",
    "RegionGrid::is_empty": "pairs with the called `len` (clippy `len_without_is_empty`)",
    "Matching::is_empty": "pairs with the called `len` (clippy); the matchers' unit tests read it",
    "ExecTimeEstimator::is_empty": "pairs with the called `len` (clippy); an estimator unit test reads it",
    "KpiValue::as_f64": "the ablation and scenario suites' unit tests read numeric KPI cells",
    "Histogram::count": "tests/observability.rs holds the exec-time histogram's count to the completions",
    "ReactServer::audit": "tests/server_stateful.rs checks the live audit log after every op",
    "ReactServer::config": "tests/recall_identity.rs runs the full Eq. (2) scan under the server's config",
    "ReactServer::busy_until": "tests/idle_batches.rs holds an idle batch's charge to a built one's",
    "ClusterReport::handoffs": "tests/cluster_properties.rs holds the audited handoffs to it",
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


def by_name(root):
    names, defined = uncalled(root)
    status = 0
    for name in names:
        if name in KEPT:
            print(f"kept      {name}: {KEPT[name]}")
        else:
            print(f"UNCALLED  {name}: no non-test caller and not in KEPT")
            status = 1
    for name in sorted(KEPT):
        bare = name.rsplit("::", 1)[-1]
        if bare not in defined:
            print(f"STALE     {name}: KEPT names no pub fn of that name")
            status = 1
        elif name == bare and name not in names:
            print(f"STALE     {name}: KEPT, but it has a caller now")
            status = 1
    return status


def definitions(root):
    """`(file, line index, name, Type::name)` of every non-test `pub fn`
    under `crates/*/src`; the type is the last top-level `impl` above an
    indented definition."""
    for f in sources(root):
        rel = f.relative_to(root).parts
        if rel[0] != "crates" or "src" not in rel:
            continue
        owner = None
        for i, line in enumerate(code_lines(f)):
            impl = IMPL.match(line)
            if impl:
                owner = impl.group(1).rsplit("::", 1)[-1]
            for name in PUB_FN.findall(line):
                qualified = f"{owner}::{name}" if owner and line[:1].isspace() else name
                yield f, i, name, qualified


CHECKS = (
    ("workspace", ["--workspace", "--all-features", "--lib", "--bins", "--examples"]),
    ("benchmark", ["--manifest-path", "benchmark/Cargo.toml", "--all-targets"]),
)


def compiles(copy, scratch):
    for target, args in CHECKS:
        cmd = ["cargo", "check", "--offline", "--quiet", *args]
        env = {**os.environ, "CARGO_TARGET_DIR": str(scratch / f"target-{target}"),
               "RUSTFLAGS": "-D unconditional_recursion"}
        run = subprocess.run(cmd, cwd=copy, env=env, capture_output=True)
        if run.returncode != 0:
            return False
    return True


def by_type(root, scratch):
    scratch = pathlib.Path(scratch or tempfile.mkdtemp(prefix="pub_callers."))
    root = pathlib.Path(root).resolve()
    if scratch.resolve().is_relative_to(root):
        sys.exit("--scratch must lie outside the checkout")
    copy = scratch / "tree"
    if copy.exists():
        shutil.rmtree(copy)
    skip = shutil.ignore_patterns("target", ".git", ".bench_build")
    # Fresh modification times: cargo must not take a target directory
    # built from an earlier run's renamed copy as up to date.
    shutil.copytree(root, copy, ignore=skip, copy_function=shutil.copy)
    if not compiles(copy, scratch):
        sys.exit("the unmodified copy does not compile")
    listed = []
    defs = list(definitions(copy))
    for n, (f, i, name, qualified) in enumerate(defs, 1):
        text = f.read_text()
        lines = text.split("\n")
        lines[i] = re.sub(rf"\bfn\s+{name}\b", f"fn {name}_renamed_by_pub_callers", lines[i], count=1)
        f.write_text("\n".join(lines))
        try:
            if compiles(copy, scratch):
                listed.append((qualified, f.relative_to(copy), i + 1))
                print(f"[{n}/{len(defs)}] still compiles: {qualified}", file=sys.stderr)
        finally:
            f.write_text(text)
    status = 0
    for qualified, rel, line in listed:
        key = next((k for k in (qualified, qualified.rsplit("::", 1)[-1]) if k in KEPT), None)
        if key:
            print(f"kept      {qualified} ({rel}:{line}): {KEPT[key]}")
        else:
            print(f"UNCALLED  {qualified} ({rel}:{line}): compiles renamed, not in KEPT")
            status = 1
    print(f"{len(listed)} of {len(defs)} functions still compile after the rename")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("root", nargs="?", default=".")
    parser.add_argument("--compile", action="store_true", help="the type-resolved check")
    parser.add_argument("--scratch", help="where --compile copies the tree")
    args = parser.parse_args()
    if args.compile:
        return by_type(args.root, args.scratch)
    return by_name(args.root)


if __name__ == "__main__":
    sys.exit(main())
