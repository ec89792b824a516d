"""idealsplit benchmark: time to a verdict, end to end and layer by layer.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 14 --trace 0

One process, one client, a closed loop: each request runs only after the
previous one returned.  A request starts from its serialized documents
and makes the same calls as the command line tool:

* split: parse -> validate_instance -> build_ideal_splitting(validate=False)
  -> verify_ideal_splitting -> splitting_to_json + dumps_canonical
  (a failed validation or an obstruction ends the request with a "no");
* lift: parse A, B and the iso document -> lift_isomorphism -> iso_to_json.

A run sets the workload up three times (setup_s is the median), runs an
untimed warm-up slice, then whole passes over the workload until
``--seconds`` have gone by (at least one), and checks every request of
every pass outside the timed region.  Every time is wall time from
time.perf_counter.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and the metrics
BENCHMARK.json names: its end_to_end list with ``--trace 0``, its
per_layer list with ``--trace 1``.  The lines before it print every
metric by name and unit, including the ones that exist only on some
workloads, the behaviour digest check and the run record.

With ``--trace 1`` half of the time runs plain passes and half runs
passes with spans around the library's layer boundaries (see
tracing.py); per-layer numbers are per traced pass, and the ratio of
the two throughputs is the tracing overhead.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3

STAGES = ("parse", "validate", "build", "verify", "lift", "dump")
MODULES = ("fileformat", "kunneth", "splitter", "lattice", "fgab", "intmat")
GENERATORS = ("random_instance", "direct_sum_instance", "twist_instance",
              "plant_defect", "dp_truncation", "transported_instance")
COUNTS = ("intmat.solve_congruences.infeasible",
          "intmat.solve_congruences.vars_max", "fgab.solve_hom.none",
          "fgab.as_group.calls", "fgab.as_group.computed",
          "splitter.extend.calls")

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=14.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# --- instrumentation ---------------------------------------------------------

def install_stages(tracer, workloads):
    """Stage spans only: cheap enough for the plain passes.

    validate_instance and build_ideal_splitting are also wrapped where
    lift_isomorphism calls them, so validate_s and build_s cover the
    lift path too."""
    from idealsplit import fixtures, kunneth, splitter
    for owners, attr, name, stage in (
            ([kunneth, splitter, fixtures], "validate_instance",
             "kunneth.validate_instance", "validate"),
            ([splitter], "build_ideal_splitting",
             "splitter.build_ideal_splitting", "build"),
            ([splitter], "verify_ideal_splitting",
             "splitter.verify_ideal_splitting", "verify"),
            ([splitter], "lift_isomorphism", "splitter.lift_isomorphism",
             "lift")):
        tracer.install(owners, attr,
                       lambda f, name=name, stage=stage:
                       tracer.wrap(f, name, stage))
    return workloads.Ops.current(
        parse=tracer.wrap(workloads.parse_instance, "fileformat.parse",
                          "parse"),
        parse_lift=tracer.wrap(workloads.parse_lift_input,
                               "fileformat.parse", "parse"),
        dump=tracer.wrap(workloads.dump, "fileformat.dump", "dump"))


def _on_solve(tracer, args, result, parent):
    name = "intmat.solve_congruences"
    if result is None:
        tracer.counts[name + ".infeasible"] += 1
    if len(args) > 3:
        tracer.counts[name + ".vars_max"] = max(
            tracer.counts[name + ".vars_max"], args[3])


def _on_solve_hom(tracer, args, result, parent):
    if result is None:
        tracer.counts["fgab.solve_hom.none"] += 1
    if parent == "splitter.build_ideal_splitting":
        tracer.counts["splitter.extend.calls"] += 1


def install_layers(tracer):
    """Spans at every layer boundary the per-layer metrics name."""
    from idealsplit import fgab, fixtures, intmat, lattice, splitter

    def span(owners, attr, name, on_exit=None):
        tracer.install(owners, attr,
                       lambda f: tracer.wrap(f, name, on_exit=on_exit))

    span([intmat], "hnf_rows", "intmat.hnf")
    for attr in ("smith_form", "column_echelon", "lattice_contains"):
        span([intmat], attr, "intmat." + attr)
    span([intmat], "solve_congruences", "intmat.solve_congruences", _on_solve)
    Sub = fgab.Subgroup
    span([Sub], "__init__", "fgab.subgroup_new")
    for attr in ("meet", "join", "contains", "is_pure"):
        span([Sub], attr, "fgab." + attr)
    span([Sub], "__contains__", "fgab.contains")
    tracer.install([Sub], "as_group",
                   lambda f: tracer.count(f, "fgab.as_group.calls"))
    tracer.install([Sub], "_compute_group",
                   lambda f: tracer.count(f, "fgab.as_group.computed"))
    span([fgab, splitter], "solve_hom", "fgab.solve_hom", _on_solve_hom)
    span([fgab, splitter], "hom_preimage", "fgab.hom_preimage")
    for attr in ("meet", "join", "is_distributive", "is_bounded_lattice",
                 "cover_edges", "next_ideal", "maximal_subideals"):
        span([lattice.IdealLattice], attr, "lattice." + attr)
    for attr in ("glue_comaximal", "check_gamma_exact"):
        span([splitter], attr, "splitter." + attr)
    for attr in GENERATORS:
        span([fixtures], attr, "fixtures." + attr)


# --- measurement -------------------------------------------------------------

def attempt(ops, req, workloads):
    """Run one request; a crash is a failed request, not a failed run."""
    try:
        return workloads.run_request(ops, req)
    except Exception as exc:
        return workloads.Result("error: %s: %s" % (type(exc).__name__, exc),
                                "", ())


def run_passes(ops, tracer, requests, seconds, workloads):
    """Whole passes until ``seconds`` have gone by (at least one).  Per
    pass: its duration, the tracer's aggregates, and each request's
    latency and result."""
    passes = []
    spent = 0.0
    while not passes or spent < seconds:
        tracer.reset()
        rows = []
        t_pass = time.perf_counter()
        for req in requests:
            t0 = time.perf_counter()
            res = attempt(ops, req, workloads)
            rows.append((time.perf_counter() - t0, res))
        duration = time.perf_counter() - t_pass
        spent += duration
        passes.append({"duration": duration, "rows": rows,
                       "trace": tracer.snapshot()})
    return passes


def check_passes(workloads, requests, passes):
    """Full check of the first pass; every later pass must reproduce its
    behaviour digest request by request.  Returns the first pass's
    digests, the reason each of its requests failed (or None) and the
    number of failed requests over all passes."""
    digests, failures = [], []
    for req, (_, res) in zip(requests, passes[0]["rows"]):
        digests.append(workloads.digest(req, res))
        try:
            failures.append(workloads.check(req, res))
        except Exception as exc:
            failures.append("check raised %s: %s" % (type(exc).__name__, exc))
    failed = 0
    for p in passes:
        for k, (req, (_, res)) in enumerate(zip(requests, p["rows"])):
            if failures[k] is not None or \
                    workloads.digest(req, res) != digests[k]:
                failed += 1
    return digests, failures, failed


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def _percentile(values, q):
    """Nearest-rank percentile, or None unless ten samples lie beyond."""
    if len(values) * (1 - q) < 10:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def throughput(requests, passes):
    """Median over passes of requests per second."""
    return _median(len(requests) / p["duration"] for p in passes)


def end_to_end(requests, passes, setups, peak_rss_kb):
    """Every end-to-end figure; per-pass figures are medians over passes,
    latencies pool every (request, pass) sample."""
    def latencies(verdicts):
        return [1000.0 * lat for p in passes
                for lat, res in p["rows"] if res.verdict in verdicts]

    def per_pass(field, key):
        return _median(p["trace"][field].get(key, 0.0) for p in passes)

    accept = latencies(("split", "lift"))
    reject = latencies(("invalid", "obstructed"))
    return {
        "setup_s": _median(setups),
        "throughput_rps": throughput(requests, passes),
        "latency_p50_ms": _median(accept),
        "latency_p90_ms": _percentile(accept, 0.9),
        "reject_p50_ms": _median(reject),
        "validate_s": per_pass("stage_s", "validate"),
        "build_s": per_pass("stage_s", "build"),
        "verify_s": per_pass("stage_s", "verify"),
        "lift_s": per_pass("total", "splitter.lift_isomorphism"),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }, len(accept), len(reject)


def per_layer(requests, traced, setup, names):
    """Per-layer numbers per traced pass, plus the set-up's generators.
    Every span in ``names`` is listed, with zeros where it never ran."""
    n = len(traced)
    sums = {}
    for p in traced:
        for field, agg in p["trace"].items():
            into = sums.setdefault(field, {})
            for k, v in agg.items():
                if field == "counts" and k.endswith(".vars_max"):
                    into[k] = max(into.get(k, 0), v)
                else:
                    into[k] = into.get(k, 0) + v
    out = {}
    for name in names:
        out[name + ".calls"] = sums["calls"].get(name, 0) / n
        out[name + ".self_s"] = sums["self_s"].get(name, 0.0) / n
        out[name + ".total_s"] = sums["total"].get(name, 0.0) / n
    for stage in STAGES:
        for module in MODULES:
            out["%s.%s.self_s" % (stage, module)] = sums["stage_self"].get(
                (stage, module), 0.0) / n
    for name in COUNTS:
        c = sums["counts"].get(name, 0)
        out[name] = c if name.endswith(".vars_max") else c / n
    calls = out["fgab.as_group.calls"]
    out["fgab.as_group.hit_ratio"] = (
        1.0 - out["fgab.as_group.computed"] / calls if calls else 0.0)
    out["fileformat.bytes_in"] = sum(len(d) for r in requests for d in r.docs)
    out["fileformat.bytes_out"] = sum(len(res.output)
                                      for _, res in traced[0]["rows"])
    for gen in GENERATORS + ("setup",):
        out["fixtures.%s.total_s" % gen] = setup["total"].get(
            "fixtures." + gen, 0.0)
    for module in MODULES + ("fixtures",):
        out["setup.%s.self_s" % module] = sum(
            t for (_, mod), t in setup["stage_self"].items() if mod == module)
    out["kunneth.validate_instance.setup_calls"] = setup["calls"].get(
        "kunneth.validate_instance", 0)
    return out


# --- reporting ---------------------------------------------------------------

def run_record():
    commit = "unknown: not a git checkout"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        path = ROOT / ".git" / commit[5:]
        if commit.startswith("ref: ") and path.is_file():
            commit = path.read_text().strip()
        if not commit.startswith("ref: "):
            commit = commit[:12]
    src = ROOT / "src" / "idealsplit"
    lines = sum(len(p.read_text().splitlines()) for p in src.glob("*.py"))
    return {"python": sys.version.split()[0], "commit": commit,
            "nproc": os.cpu_count(), "src_lines": lines}


E2E_UNITS = {"setup_s": "s", "throughput_rps": "1/s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms", "reject_p50_ms": "ms", "validate_s": "s",
             "build_s": "s", "verify_s": "s", "lift_s": "s",
             "failed_frac": "ratio", "peak_rss_mb": "MB"}


def print_metrics(title, values, units):
    print(title)
    for name in sorted(values):
        v = values[name]
        shown = "n/a" if v is None else "%.6g" % v
        print("  %-44s %14s %s" % (name, shown, units.get(name, "")))


def measure(args, workloads, tracing, wl, keys):
    """Set-up, warm-up and the timed passes.  Returns the requests, the
    set-up times, the set-up trace, the plain passes, the traced passes
    and the traced span names."""
    tracer = tracing.Tracer()
    make = wl.make
    if args.trace:
        install_layers(tracer)
        install_stages(tracer, workloads)
        make = tracer.wrap(wl.make, "fixtures.setup")
    setups = []
    for _ in range(1 if args.trace else SETUPS):
        t0 = time.perf_counter()
        requests = make(keys)
        setups.append(time.perf_counter() - t0)
    setup_trace = tracer.snapshot()
    tracer.uninstall()

    tracer = tracing.Tracer()
    ops = install_stages(tracer, workloads)
    for req in workloads.warmup(requests):
        attempt(ops, req, workloads)
    passes = run_passes(ops, tracer, requests,
                        args.seconds / 2 if args.trace else args.seconds,
                        workloads)
    tracer.uninstall()
    traced, names = [], []
    if args.trace:
        tracer = tracing.Tracer()
        install_layers(tracer)
        ops = install_stages(tracer, workloads)
        traced = run_passes(ops, tracer, requests, args.seconds / 2,
                            workloads)
        tracer.uninstall()
        names = list(tracer.stats)
    return requests, setups, setup_trace, passes, traced, names


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import idealsplit
        import tracing
        import workloads
    except ImportError as exc:
        sys.stderr.write("error: cannot import the idealsplit package from "
                         "%s: %s\n" % (ROOT / "src", exc))
        return 2
    package = ROOT / "src" / "idealsplit"
    if Path(idealsplit.__file__).resolve().parent != package:
        sys.stderr.write("error: idealsplit was imported from %s, not from "
                         "this checkout\n" % idealsplit.__file__)
        return 2
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write("error: unknown workload %r (choose from %s)\n"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    wl = workloads.WORKLOADS[args.workload]
    keys = wl.keys(args.seed, reference)

    requests, setups, setup_trace, passes, traced, names = measure(
        args, workloads, tracing, wl, keys)
    # before the correctness gate, whose oracle would add its own memory
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    digests, failures, failed = check_passes(workloads, requests,
                                             passes + traced)
    attempted = len(requests) * (len(passes) + len(traced))
    print("workload %s  seed %d  requests/pass %d  plain passes %d  "
          "traced passes %d" % (args.workload, args.seed, len(requests),
                                len(passes), len(traced)))
    if args.trace:
        values = per_layer(requests, traced, setup_trace, names)
        values["tracing.plain_rps"] = throughput(requests, passes)
        values["tracing.traced_rps"] = throughput(requests, traced)
        values["tracing.overhead"] = (values["tracing.plain_rps"]
                                      / values["tracing.traced_rps"] - 1.0)
        print_metrics("per layer (per traced pass; set-up traced once):",
                      values, {})
    else:
        values, n_acc, n_rej = end_to_end(requests, passes, setups,
                                            peak_rss_kb)
        values["failed_frac"] = failed / attempted
        print_metrics("end to end (%d accepted and %d rejected latency "
                      "samples):" % (n_acc, n_rej), values, E2E_UNITS)
    for req, why in zip(requests, failures):
        if why is not None:
            print("FAIL %s: %s" % (req.id, why))
    recorded = reference["digests"].get(args.workload, {})
    differ = [req.id for req, d in zip(requests, digests)
              if recorded.get(req.id) != d[:16]]
    whole = hashlib.sha256("".join(digests).encode()).hexdigest()
    print("behaviour digest %s: %s" % (
        whole[:16], "match (%d requests)" % len(requests) if not differ else
        "MISMATCH on %d of %d requests, first %s"
        % (len(differ), len(requests), differ[0])))
    print("run record: %s" % json.dumps(run_record(), sort_keys=True))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
