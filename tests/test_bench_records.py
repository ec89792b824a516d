"""The committed BENCH_<n>.json summaries recompute from their runs.

Each record keeps the final JSON line of every perfbench run, parent and
change, one pair per seed, and a summary written from them.  The
summaries were assembled by hand, so this recomputes each one: every
side's median and quartiles (``statistics.quantiles(n=4,
method="inclusive")``, rounded to 6 places), the pairs the change won
(ties count for neither side), and ``median_change``, change over parent
minus one from the medians rounded to 6 places, to 4 places.  That is
the rule tools/benchpairs.py writes.  BENCH_31.json alone divided the
exact medians, which differs in the fourth place once (dp-chain
``setup_s`` -0.0416 where the rounded medians give -0.0417), so for it
the exact rule is accepted too.  BENCH_21.json predates quartiles in the
summary and is not checked.
"""

import json
import pathlib
import statistics

ROOT = pathlib.Path(__file__).resolve().parent.parent

BETTER = {"setup_s": "lower", "throughput_rps": "higher",
          "latency_p50_ms": "lower", "validate_s": "lower",
          "peak_rss_mb": "lower"}


def side_summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6),
            "q3": round(q3, 6)}


def median_changes(parent, change, exact_too):
    """change/parent - 1 to 4 places from the rounded medians, and from
    the exact ones when ``exact_too``."""
    rules = {round(round(statistics.median(change), 6)
                   / round(statistics.median(parent), 6) - 1, 4)}
    if exact_too:
        rules.add(round(statistics.median(change)
                        / statistics.median(parent) - 1, 4))
    return rules


def test_bench_summaries_recompute_from_their_runs():
    checked, skipped, sides = [], [], 0
    for path in sorted(ROOT.glob("BENCH_*.json")):
        record = json.loads(path.read_text())
        if "quartiles" not in record:
            skipped.append(path.name)
            continue
        checked.append(path.name)
        for workload, summary in record["summary"].items():
            runs = [r for r in record["runs"] if r["workload"] == workload]
            assert summary["pairs"] * 2 == len(runs), (path.name, workload)
            for metric, better in BETTER.items():
                values = {side: {r["seed"]: r["result"]["metrics"][metric]
                                 ["value"]
                                 for r in runs if r["side"] == side}
                          for side in ("parent", "change")}
                assert values["parent"].keys() == values["change"].keys()
                got = {side: side_summary(list(values[side].values()))
                       for side in values}
                sign = 1 if better == "higher" else -1
                got["change_better_pairs"] = sum(
                    sign * (values["change"][s] - values["parent"][s]) > 0
                    for s in values["parent"])
                wanted = dict(summary[metric])
                assert wanted.pop("median_change") in median_changes(
                    list(values["parent"].values()),
                    list(values["change"].values()),
                    path.name == "BENCH_31.json"), (path.name, metric)
                assert got == wanted, (path.name, workload, metric)
                sides += 2
    assert skipped == ["BENCH_21.json"]
    assert {"BENCH_%d.json" % n
            for n in (25, 27, 31, 32, 33, 34, 35, 36, 38, 40, 41)} \
        <= set(checked)
    assert sides == 40 * len(checked)
