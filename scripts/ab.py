#!/usr/bin/env python3
"""Runs the benchmark on two revisions in alternating pairs.

    python3 scripts/ab.py PARENT CHANGE --workload W [--pairs 10]
        [--seed 2013] [--trace 0|1] [--metric NAME ...]
        [--scratch DIR] [--record FILE --pr N]
    python3 scripts/ab.py --check
    python3 scripts/ab.py --trend WORKLOAD METRIC

PARENT and CHANGE are git revisions, or `.` for the working tree as it
stands (tracked files and untracked ones that are not ignored). Each
side is exported once into DIR/<side>/src (`git archive`, so nothing is
added to the repository's own `.git`) and built once with
`cargo build --release --offline` into a target directory of its own:
the two sides' crates have the same names and relative paths, so one
shared target directory would mistake one side's build for the other's.
Then `BENCHMARK.json`'s command runs in each side's directory, pair by
pair, odd pairs parent first, with `--workload W --seed S --trace T`
and `--seconds` set to the manifest's `run_seconds`, the same on both
sides.

For every end-to-end metric of `BENCHMARK.json` (and each `--metric`,
for per-layer names of a traced run) it prints each side's median and
quartiles, the change's difference from the parent, the parent's IQR and
in how many pairs the change was better, the manifest's bound and a
no-regression verdict, then every run in pair order. Quartiles are
`statistics.quantiles(..., method="inclusive")` (linear between order
statistics). The verdict is `worse beyond bound` when the change's
median is worse than the parent's by more than the bound (a share of
the parent's median); else `unresolved` when the parent's IQR (the
wider of the inclusive and exclusive methods) is a larger share of its
median than the bound, unless every change run beats every parent run;
else `ok`. A line after the table names every metric that is not `ok`.
The closing line judges the first listed
metric (`goodput_per_s` unless `--metric` names one) the way a claim is
judged: better in at least nine of ten pairs, and a median gap wider
than the parent's IQR, which it gives by both the inclusive and the
exclusive method (the wider one for ten runs). It also prints each
side's operations attempted and failed, summed over its runs, and a
claim does not hold when the change fails a larger share than the
parent.

With one whole pair (`--pairs 1`, or every other pair lost to a failed
run) there is nothing to compare: it prints each side's value of every
reported metric and the change's difference, with no verdict and no
claim, and exits 0 when both runs were correct.

`--record FILE --pr N` appends one JSON line per reported metric to
FILE (the history is the root `BENCH_history.jsonl`): the PR number, the
workload and metric, both revisions resolved to commits (`.` as the
commit it sits on plus `+worktree.` and the first 12 hex digits of a
SHA-256 over the exported files' names and bytes, the history file
left out, so two uncommitted builds on one commit are told apart), seed, seconds, trace, which way is
better, the parent's and the change's runs in pair order, both medians,
the parent's IQR (inclusive method) and the change's win count. It
refuses fewer than two pairs.

`--check` runs no benchmark: it recomputes two recorded series from the
run lists in EXPERIMENTS.md and exits 1 unless the medians, the parent
IQR and the win count agree with what was recorded to within the lists'
own rounding step. It also validates every line of
`BENCH_history.jsonl` (every field present, and the medians, IQR and
wins recomputed from the two run lists), runs the no-regression
verdict on fixed run lists, one per outcome, and holds the one-pair
table to a fixed pair.

`--trend WORKLOAD METRIC` runs no benchmark either: it prints every
series of METRIC on WORKLOAD recorded in `BENCH_history.jsonl`, in PR
order — the PR, both medians, the change's difference, its wins, the
parent's IQR, the bound and the verdict — and exits 1 when there is
none.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def quartiles(values, method="inclusive"):
    return statistics.quantiles(values, n=4, method=method)


def iqr(values, method="inclusive"):
    q1, _, q3 = quartiles(values, method)
    return q3 - q1


def wins(parent, change, higher_is_better):
    return sum((c > p) if higher_is_better else (c < p) for p, c in zip(parent, change))


def export(rev, dest):
    """Writes revision `rev` (or the working tree, for `.`) into `dest`.
    For the working tree it returns a digest of the files written."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    if rev == ".":
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            cwd=ROOT, check=True, capture_output=True,
        ).stdout.split(b"\0")
        digest = hashlib.sha256()
        for name in sorted(filter(None, listed)):
            source = ROOT / name.decode()
            if source.is_file():
                target = dest / name.decode()
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, target)
                # The history is what runs write, not what they run.
                if name != b"BENCH_history.jsonl":
                    data = source.read_bytes()
                    digest.update(b"%d:%d:" % (len(name), len(data)) + name + data)
        return digest.hexdigest()[:12]
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return None


def build(src, target):
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(src / "benchmark" / "Cargo.toml")],
        cwd=src, check=True, env=cargo_env(target),
    )


def cargo_env(target):
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = str(target)
    return env


def run_once(command, src, target, args):
    """One benchmark run's result line (`correct`, `attempted`, `failed`
    and the metric values by name), or None when it printed none."""
    done = subprocess.run(
        command + args, cwd=src, env=cargo_env(target), capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if done.returncode != 0 or result is None:
        sys.stderr.write(f"run failed (exit {done.returncode}) in {src}:\n{done.stdout}{done.stderr}\n")
    if result is None:
        return None
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def failed_share(runs):
    return sum(run["failed"] for run in runs) / max(1, sum(run["attempted"] for run in runs))


def fmt(x):
    return f"{x:.6g}"


def delta(parent, change):
    """The change's difference from the parent, in percent of it."""
    return f"{(change - parent) / abs(parent):+.2%}" if parent else "-"


def verdict(parent, change, higher_is_better, bound):
    """The no-regression verdict on one metric's two run lists (pair
    order) against its `bound`, a share of the parent's median; `-` for a
    metric the manifest gives no bound."""
    if bound is None:
        return "-"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if min(change) > max(parent) if higher_is_better else max(change) < min(parent):
        return "ok"
    if (p_med - c_med if higher_is_better else c_med - p_med) > bound * abs(p_med):
        return "worse beyond bound"
    if max(iqr(parent), iqr(parent, "exclusive")) > bound * abs(p_med):
        return "unresolved"
    return "ok"


# (parent runs, change runs, higher is better, bound, verdict) that
# `--check` holds `verdict` to: one line per outcome.
VERDICTS = [
    ([100, 101, 99, 100, 102], [99, 100, 98, 101, 100], True, 0.25, "ok"),
    ([100, 101, 99, 100, 102], [70, 72, 71, 69, 73], True, 0.25, "worse beyond bound"),
    # The wire-steady setup_s shape: a parent spread wider than the bound.
    ([0.18, 0.36, 0.44, 0.20, 0.40], [0.35, 0.38, 0.30, 0.41, 0.37], False, 0.25,
     "unresolved"),
    # As wide, but every change run beats every parent run.
    ([0.18, 0.36, 0.44, 0.20, 0.40], [0.10, 0.12, 0.09, 0.11, 0.15], False, 0.25, "ok"),
]


def check_verdicts():
    bad = [case for case in VERDICTS if verdict(*case[:4]) != case[4]]
    for parent, change, higher, bound, want in bad:
        print(f"BAD verdict {verdict(parent, change, higher, bound)!r}, want {want!r}: "
              f"{parent}; {change}")
    if not bad:
        print(f"ok  verdict: {len(VERDICTS)} fixed cases")
    return not bad


def table(rows):
    """`rows` in columns, the first left-aligned, the others right."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) if i == 0 else cell.rjust(w)
                        for i, (cell, w) in enumerate(zip(row, widths))))


def one_pair_rows(names, parent, change):
    """The one-pair table: each metric's two values (`parent` and
    `change` map names to values) and the change's difference."""
    rows = [("metric", "parent", "change", "change")]
    for name in names:
        rows.append((name, fmt(parent[name]), fmt(change[name]),
                     delta(parent[name], change[name])))
    return rows


# (metric names, parent values, change values, the table `one_pair_rows`
# gives) that `--check` holds it to.
ONE_PAIR = (["goodput_per_s", "setup_s", "faults.dropouts"],
            {"goodput_per_s": 145800.0, "setup_s": 0.0004, "faults.dropouts": 0.0},
            {"goodput_per_s": 149812.5, "setup_s": 0.0005, "faults.dropouts": 0.0},
            [("metric", "parent", "change", "change"),
             ("goodput_per_s", "145800", "149812", "+2.75%"),
             ("setup_s", "0.0004", "0.0005", "+25.00%"),
             ("faults.dropouts", "0", "0", "-")])


def check_one_pair():
    names, parent, change, want = ONE_PAIR
    got = one_pair_rows(names, parent, change)
    if got != want:
        print(f"BAD one-pair table {got}, want {want}")
        return False
    print("ok  one-pair table: fixed pair")
    return True


def failures(label, runs):
    print(f"{label}: {sum(run['failed'] for run in runs)} of "
          f"{sum(run['attempted'] for run in runs)} operations failed, "
          f"{sum(not run['correct'] for run in runs)} of {len(runs)} runs not correct")


def report_one_pair(names, parent_run, change_run):
    table(one_pair_rows(names, parent_run["metrics"], change_run["metrics"]))
    print("\none pair: no verdict and no claim\n")
    failures("parent", [parent_run])
    failures("change", [change_run])


def report(names, better, bounds, parent_runs, change_runs, claim):
    parent = [run["metrics"] for run in parent_runs]
    change = [run["metrics"] for run in change_runs]
    rows = [("metric", "parent median [q1, q3]", "change median [q1, q3]", "change",
             "parent IQR", "wins", "bound", "verdict")]
    for name in names:
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        pq, cq = quartiles(p), quartiles(c)
        higher = better.get(name, "higher") == "higher"
        bound = bounds.get(name)
        rows.append((name, f"{fmt(pq[1])} [{fmt(pq[0])}, {fmt(pq[2])}]",
                     f"{fmt(cq[1])} [{fmt(cq[0])}, {fmt(cq[2])}]", delta(pq[1], cq[1]),
                     fmt(pq[2] - pq[0]), f"{wins(p, c, higher)}/{len(p)}",
                     "-" if bound is None else fmt(bound), verdict(p, c, higher, bound)))
    table(rows)
    flagged = [f"{row[0]} ({row[7]})" for row in rows[1:] if row[7] not in ("ok", "-")]
    print("\nnot ok: " + ", ".join(flagged) if flagged
          else "\nevery metric with a bound: ok")
    print("\nevery run, pair order (parent; change):")
    for name in names:
        p = ", ".join(fmt(run[name]) for run in parent)
        c = ", ".join(fmt(run[name]) for run in change)
        print(f"- {name}: {p}; {c}")
    print()
    for label, runs in (("parent", parent_runs), ("change", change_runs)):
        failures(label, runs)
    if claim not in names:
        return
    p = [run[claim] for run in parent]
    c = [run[claim] for run in change]
    higher = better.get(claim, "higher") == "higher"
    gap = statistics.median(c) - statistics.median(p)
    gap = gap if higher else -gap
    won = wins(p, c, higher)
    spread = max(iqr(p), iqr(p, "exclusive"))
    holds = (won >= 0.9 * len(p) and gap > spread
             and failed_share(change_runs) <= failed_share(parent_runs))
    print(f"\n{claim}: better in {won} of {len(p)} pairs; median gap {fmt(gap)} against a "
          f"parent IQR of {fmt(iqr(p))} (exclusive {fmt(iqr(p, 'exclusive'))}): "
          + ("holds" if holds else "does not hold"))


def series(section, prefix):
    """The two run lists (first side; second side) of the first line under
    `## <section>` in EXPERIMENTS.md that starts with `prefix`."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    body = text.split(f"\n## {section}\n", 1)[1]
    line = next(l for l in body.splitlines() if l.strip().startswith(prefix))
    lists = line.split(":", 1)[1].split(";")
    number = re.compile(r"\d+(?:\.\d+)?")
    return [[float(x) for x in number.findall(part)] for part in lists[:2]]


# (section, line prefix, higher is better, the lists' rounding step,
#  recorded parent median, change median, parent IQR, wins)
RECORDED = [
    ("A 48-byte task and an audit log that never copies itself",
     "- des-widepool 2013 rss:", False, 0.01, 12.62, 9.87, 0.18, 10),
    ("A long backlog, read once per batch",
     "- `cluster-churn` seed 2013 `goodput_per_s`:", True, 0.1, 130.7, 137.4, 1.8, 10),
]


def check():
    ok = True
    for section, prefix, higher, step, p_med, c_med, p_iqr, p_wins in RECORDED:
        parent, change = series(section, prefix)
        got = (statistics.median(parent), statistics.median(change), iqr(parent),
               wins(parent, change, higher))
        # A median or quartile interpolates runs each rounded to half a
        # step, and the recorded figure was rounded again: one step apart
        # is agreement.
        agree = (abs(got[0] - p_med) <= step and abs(got[1] - c_med) <= step
                 and abs(got[2] - p_iqr) <= step and got[3] == p_wins)
        ok &= agree
        print(f"{'ok ' if agree else 'BAD'} {section}: medians {got[0]:.4g} / {got[1]:.4g} "
              f"(recorded {p_med} / {c_med}), parent IQR {got[2]:.3g} (recorded {p_iqr}), "
              f"{got[3]} of {len(parent)} (recorded {p_wins})")
    return ok


HISTORY = ROOT / "BENCH_history.jsonl"

# A history line's fields and their types.
HISTORY_FIELDS = {
    "pr": int, "workload": str, "metric": str, "parent_rev": str, "change_rev": str,
    "seed": int, "seconds": (int, float), "trace": int, "better": str,
    "parent": list, "change": list, "parent_median": (int, float),
    "change_median": (int, float), "parent_iqr": (int, float), "wins": int,
}


def resolve(rev, digest):
    """`rev` as a commit id; the working tree as its commit plus
    `+worktree.` and the `digest` of what `export` wrote."""
    head = "HEAD" if rev == "." else rev
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{head}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    return f"{commit}+worktree.{digest}" if rev == "." else commit


def summary(parent, change, better):
    """The figures a history line records of two run lists."""
    return {"parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": iqr(parent),
            "wins": wins(parent, change, better == "higher")}


def record(path, pr, opts, digests, seconds, names, better, parent_runs, change_runs):
    revs = {"parent_rev": resolve(opts.parent, digests["parent"]),
            "change_rev": resolve(opts.change, digests["change"])}
    with open(path, "a") as out:
        for name in names:
            parent = [run["metrics"][name] for run in parent_runs]
            change = [run["metrics"][name] for run in change_runs]
            way = better.get(name, "higher")
            line = {"pr": pr, "workload": opts.workload, "metric": name, **revs,
                    "seed": opts.seed, "seconds": seconds, "trace": opts.trace,
                    "better": way, "parent": parent, "change": change,
                    **summary(parent, change, way)}
            out.write(json.dumps(line) + "\n")
    print(f"\nrecorded {len(names)} lines in {path}")


def check_history(path=HISTORY):
    """Every line of the history file well formed and its figures the ones
    its run lists give; a missing file is an empty history."""
    if not path.exists():
        print(f"ok  {path.name}: absent")
        return True
    bad = []
    lines = path.read_text().splitlines()
    for number, text in enumerate(lines, 1):
        try:
            line = json.loads(text)
        except json.JSONDecodeError as err:
            bad.append(f"line {number}: not JSON ({err})")
            continue
        wrong = [k for k, kind in HISTORY_FIELDS.items() if not isinstance(line.get(k), kind)
                 or isinstance(line.get(k), bool)]
        if wrong:
            bad.append(f"line {number}: missing or mistyped {', '.join(wrong)}")
            continue
        parent, change = line["parent"], line["change"]
        if (len(parent) < 2 or len(parent) != len(change)
                or not all(isinstance(x, (int, float)) for x in parent + change)
                or line["better"] not in ("higher", "lower")):
            bad.append(f"line {number}: run lists not two equal numeric lists of ≥ 2, "
                       "or `better` neither higher nor lower")
            continue
        for key, want in summary(parent, change, line["better"]).items():
            if not math.isclose(line[key], want, rel_tol=1e-12, abs_tol=1e-12):
                bad.append(f"line {number} ({line['workload']} {line['metric']}): "
                           f"{key} {line[key]} but the runs give {want}")
    for message in bad:
        print(f"BAD {path.name} {message}")
    if not bad:
        print(f"ok  {path.name}: {len(lines)} lines, every median, IQR and win count "
              "recomputed")
    return not bad


def trend(workload, metric, bounds, path=HISTORY):
    """Every series of `metric` on `workload` in the history, PR order."""
    lines = [json.loads(text) for text in path.read_text().splitlines()] if path.exists() else []
    found = sorted((line for line in lines
                    if line["workload"] == workload and line["metric"] == metric),
                   key=lambda line: line["pr"])
    if not found:
        print(f"no series of {metric} on {workload} in {path.name}")
        return 1
    bound = bounds.get(metric)
    rows = [("PR", "parent median", "change median", "change", "wins", "parent IQR", "bound",
             "verdict")]
    for line in found:
        p, c = line["parent_median"], line["change_median"]
        rows.append((str(line["pr"]), fmt(p), fmt(c), delta(p, c),
                     f"{line['wins']}/{len(line['parent'])}", fmt(line["parent_iqr"]),
                     "-" if bound is None else fmt(bound),
                     verdict(line["parent"], line["change"], line["better"] == "higher", bound)))
    print(f"{workload} {metric} ({found[0]['better']} is better)\n")
    table(rows)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("parent", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=2013)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--metric", action="append", default=[])
    ap.add_argument("--scratch", default=str(pathlib.Path(tempfile.gettempdir()) / "react-ab"))
    ap.add_argument("--record", metavar="FILE")
    ap.add_argument("--pr", type=int)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--trend", nargs=2, metavar=("WORKLOAD", "METRIC"))
    opts = ap.parse_args()
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    if opts.check:
        return 0 if check() & check_history() & check_verdicts() & check_one_pair() else 1
    if opts.trend:
        return trend(*opts.trend, bounds)
    if not (opts.parent and opts.change and opts.workload):
        ap.error("PARENT, CHANGE and --workload are required")
    if (opts.record is None) != (opts.pr is None):
        ap.error("--record and --pr go together")
    if opts.record and opts.pairs < 2:
        ap.error("--record needs at least two pairs")

    seconds = manifest["run_seconds"]
    better = {m["name"]: m["better"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    names = opts.metric + [m["name"] for m in manifest["end_to_end"]
                           if m["name"] not in opts.metric]
    if opts.trace:
        names = opts.metric or [m["name"] for m in manifest["per_layer"]]
    scratch = pathlib.Path(opts.scratch).resolve()
    if scratch == ROOT or ROOT in scratch.parents:
        ap.error("--scratch must lie outside the repository")

    sides, digests = {}, {}
    for label, rev in (("parent", opts.parent), ("change", opts.change)):
        src, target = scratch / label / "src", scratch / label / "target"
        digests[label] = export(rev, src)
        build(src, target)
        sides[label] = (src, target, [])
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(seconds), "--trace", str(opts.trace)]
    missing = 0
    for pair in range(1, opts.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for label in order:
            src, target, runs = sides[label]
            result = run_once(manifest["command"], src, target, args)
            missing += result is None
            runs.append(result)
        print(f"pair {pair}/{opts.pairs} done", file=sys.stderr)
    kept = [(p, c) for p, c in zip(sides["parent"][2], sides["change"][2]) if p and c]
    if missing:
        print(f"{missing} runs printed no result; {len(kept)} whole pairs kept")
    if not kept:
        print("no whole pair: nothing to report")
        return 1
    print(f"{opts.workload}, seed {opts.seed}, {seconds} s runs, {len(kept)} pairs, "
          f"parent {opts.parent}, change {opts.change}\n")
    incorrect = any(not run["correct"] for pair in kept for run in pair)
    if len(kept) == 1:
        report_one_pair(names, *kept[0])
        return 1 if missing or incorrect else 0
    claim = (opts.metric or ["goodput_per_s"])[0]
    report(names, better, bounds, [p for p, _ in kept], [c for _, c in kept], claim)
    if opts.record:
        record(opts.record, opts.pr, opts, digests, seconds, names, better,
               [p for p, _ in kept], [c for _, c in kept])
    return 1 if missing or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
