#!/usr/bin/env python3
"""Alternating parent/change perfbench pairs, written as BENCH_<pr>.json.

    python3 tools/benchpairs.py --pr 36 --seeds 81-90
    python3 tools/benchpairs.py --pr 37 --parent HEAD~1 \\
        --claim boolean:latency_p50_ms

Both sides run from fresh copies under one temporary directory, which
is removed at the end.  The parent is ``--parent`` (default HEAD)
exported with ``git archive``: its committed src/, perfbench/ and
BENCHMARK.json, and nothing else.  The change is a snapshot of the same
three paths in this checkout, taken at start, so edits made while the
pairs run do not reach them.  perfbench/run.py finds src/ relative to
its own file, so each side runs its own code.  An export leaves nothing
in the repository's .git to clean up if the run is interrupted, as a
git worktree would.

For each workload and seed, the two sides run ``perfbench/run.py
--workload W --seed N --seconds S --trace 0`` back to back, S being
BENCHMARK.json's run_seconds: the parent
first on odd seeds, the change first on even ones.  Then each side runs
one ``--seconds 0`` pass at the first seed for the one-pass peak RSS
(run_passes keeps every pass's rows, so a timed run's RSS grows with its
pass count), and one ``--trace 1 --seconds 0`` pass for the call counts
of a traced pass.

The record keeps every run's final JSON line and, per workload and
end-to-end metric, each side's median and quartiles
(``statistics.quantiles(n=4, method="inclusive")``, rounded to 6
places), the pairs the change won (ties count for neither side) and
``median_change``: change over parent minus one, from the rounded
medians, to 4 places.  Each metric gets a verdict against
BENCHMARK.json's bound: *unresolved* when the parent's IQR, as a share
of its median, is as wide as the bound, else *within bound* or *worse
than bound* by the median change.  A claimed metric (``--claim
WORKLOAD:METRIC``) reads *claim met* when the change wins at least nine
pairs in ten and the median gap exceeds the parent's IQR, else *claim
not met*.  tests/test_bench_records.py recomputes every summary.

The script writes BENCH_<pr>.json at the checkout's root and nothing
else there; it never edits perfbench/ or BENCHMARK.json.
Exit status 1 when a run fails, 0 otherwise.
"""

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREE = ("src", "perfbench", "BENCHMARK.json")
SIDES = ("parent", "change")
COMMAND = "python3 perfbench/run.py --workload W --seed %s --seconds %s " \
          "--trace %d"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--pr", type=int, required=True,
                   help="number in the record's file name, BENCH_<pr>.json")
    p.add_argument("--parent", default="HEAD",
                   help="git revision to compare against (default HEAD)")
    p.add_argument("--seeds", default="81-90",
                   help="inclusive seed range FIRST-LAST, one pair each")
    p.add_argument("--claim", default=None,
                   help="WORKLOAD:METRIC the change claims to improve")
    return p.parse_args(argv)


def seed_range(text):
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise SystemExit("error: empty seed range %r" % text)
    return seeds


def git(*args):
    return subprocess.run(("git", "-C", str(ROOT)) + args, check=True,
                          capture_output=True).stdout


def export_parent(rev, dest):
    archive = git("archive", "--format=tar", rev, *TREE)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def snapshot_change(dest):
    for name in TREE:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns(
                "__pycache__", "*.pyc"))
        else:
            shutil.copy2(src, dest / name)


def perfbench(tree, workload, seed, seconds, trace):
    """The final JSON line of one perfbench run from ``tree``, plus
    whether its behaviour digest matched the reference."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError("%s %s seed %d exited %d: %s"
                           % (tree.name, workload, seed, proc.returncode,
                              proc.stderr.strip()[-2000:]))
    digest = [x for x in lines if x.startswith("behaviour digest")]
    return json.loads(lines[-1]), bool(digest) and " match (" in digest[0]


def side_summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6),
            "q3": round(q3, 6)}


def metric_summary(parent, change, better):
    """Quartiles per side, pairs won and median_change; ``parent`` and
    ``change`` map each seed to the metric's value."""
    sign = 1 if better == "higher" else -1
    out = {side: side_summary(list(values.values()))
           for side, values in zip(SIDES, (parent, change))}
    out["change_better_pairs"] = sum(sign * (change[s] - parent[s]) > 0
                                     for s in parent)
    out["median_change"] = round(out["change"]["median"]
                                 / out["parent"]["median"] - 1, 4)
    return out


def verdict(summary, spec, pairs, claimed):
    parent, change = summary["parent"], summary["change"]
    iqr = parent["q3"] - parent["q1"]
    if claimed:
        sign = 1 if spec["better"] == "higher" else -1
        gap = sign * (change["median"] - parent["median"])
        won = summary["change_better_pairs"]
        met = won >= math.ceil(0.9 * pairs) and gap > iqr
        return ("claim %s (won %d of %d pairs; median gap %.2f %s %s parent "
                "IQR %.2f %s)" % ("met" if met else "not met", won, pairs,
                                  gap, spec["unit"], ">" if gap > iqr
                                  else "<=", iqr, spec["unit"]))
    if iqr / parent["median"] >= spec["bound"]:
        return ("unresolved (parent IQR %.0f%% of median >= bound %.0f%%)"
                % (100 * iqr / parent["median"], 100 * spec["bound"]))
    worse = summary["median_change"] * (-1 if spec["better"] == "higher"
                                        else 1)
    return "worse than bound" if worse > spec["bound"] else "within bound"


def run_pairs(trees, workloads, seeds, seconds, log):
    runs = []
    for workload in workloads:
        for seed in seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            for side in order:
                result, match = perfbench(trees[side], workload, seed,
                                          seconds, 0)
                log("%s seed %d %s: correct %s, failed %d, digest %s"
                    % (workload, seed, side, result["correct"],
                       result["failed"], "match" if match else "MISMATCH"))
                runs.append({"workload": workload, "seed": seed,
                             "side": side, "result": result,
                             "digest_match": match})
    return runs


def summarize(runs, workloads, spec, claim):
    summary, verdicts = {}, {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        pairs = len(mine) // 2
        summary[workload] = {
            "pairs": pairs,
            "correct": all(r["result"]["correct"] for r in mine),
            "failed": sum(r["result"]["failed"] for r in mine),
            "digests_match": all(r["digest_match"] for r in mine)}
        verdicts[workload] = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            values = [{r["seed"]: r["result"]["metrics"][name]["value"]
                       for r in mine if r["side"] == side} for side in SIDES]
            summary[workload][name] = metric_summary(*values, m["better"])
            verdicts[workload][name] = verdict(
                summary[workload][name], m, pairs,
                claim == (workload, name))
    return summary, verdicts


def one_pass(trees, workloads, seed, log):
    """Peak RSS of one plain pass and the counts of one traced pass, per
    workload and side."""
    rss, counts = {}, {}
    for workload in workloads:
        rss[workload], counts[workload] = {}, {}
        for side in SIDES:
            plain, _ = perfbench(trees[side], workload, seed, 0, 0)
            rss[workload][side] = round(
                plain["metrics"]["peak_rss_mb"]["value"], 3)
            traced, _ = perfbench(trees[side], workload, seed, 0, 1)
            for name, metric in traced["metrics"].items():
                if metric["unit"] == "count":
                    counts[workload].setdefault(name, {})[side] = \
                        metric["value"]
            log("%s one pass %s done" % (workload, side))
    differ = ["%s %s" % (w, name) for w in workloads
              for name, v in counts[w].items() if v["parent"] != v["change"]]
    return rss, counts, differ


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = seed_range(args.seeds)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in workloads or metric not in better:
            raise SystemExit("error: --claim %r names no workload and "
                             "end-to-end metric of this run" % args.claim)
        claim = (workload, metric)
    parent = git("rev-parse", "--short=7", args.parent).decode().strip()

    def log(text):
        sys.stderr.write(text + "\n")
        sys.stderr.flush()

    scratch = Path(tempfile.mkdtemp(prefix="benchpairs-"))
    try:
        trees = {side: scratch / side for side in SIDES}
        for tree in trees.values():
            tree.mkdir()
        export_parent(args.parent, trees["parent"])
        snapshot_change(trees["change"])
        runs = run_pairs(trees, workloads, seeds, seconds, log)
        rss, counts, differ = one_pass(trees, workloads, seeds[0], log)
    except RuntimeError as exc:
        log("error: %s" % exc)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary, verdicts = summarize(runs, workloads, spec, claim)
    criterion = ("met when the change wins at least 9 of 10 pairs and the "
                 "median gap exceeds the parent's IQR")
    record = {
        "what": "Final JSON line of every perfbench run, parent and change, "
                "alternating which side runs first in each pair",
        "command": COMMAND % ("N", seconds, 0),
        "parent": parent,
        "machine": "%d CPUs, Python %s; wall time"
                   % (os.cpu_count(), platform.python_version()),
        "order": "odd seeds run the parent first, even seeds the change "
                 "first; seeds %d-%d" % (seeds[0], seeds[-1]),
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over "
                     "each side's runs, rounded to 6 places; median_change "
                     "is change/parent - 1 from those rounded medians",
        "claim": None if claim is None else "%s %s %s: %s; %s" % (
            claim[0], claim[1], better[claim[1]], criterion,
            verdicts[claim[0]][claim[1]]),
        "verdicts": "per metric against BENCHMARK.json's bound: "
                    "'unresolved' when the parent's IQR (q3 - q1, as a "
                    "share of its median) is as wide as the bound, else "
                    "'within bound' or 'worse than bound' by the median "
                    "change" + ("; the claimed metric reads 'claim met' or "
                                "'claim not met'" if claim else ""),
        "summary": summary,
        "verdict": verdicts,
        "one_pass_peak_rss_mb": {
            "command": COMMAND % (seeds[0], 0, 0), "by_workload": rss},
        "calls_per_traced_pass": {
            "command": COMMAND % (seeds[0], 0, 1),
            "count_metrics_that_differ": differ,
            "per_traced_pass": counts},
        "runs": runs,
    }
    out = ROOT / ("BENCH_%d.json" % args.pr)
    out.write_text(json.dumps(record, indent=1) + "\n")
    log("wrote %s" % out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
