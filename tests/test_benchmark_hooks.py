"""The benchmark's tracing hooks still find the library functions.

perfbench wraps library functions by name and skips a name it cannot
find without a word, so a rename in the package would quietly zero the
per-layer metrics.  This test installs the hooks exactly as a traced
benchmark run does, times nothing, and uninstalls them.
"""

import importlib.util
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_finds_its_target():
    run, tracing, workloads = load("run"), load("tracing"), load("workloads")
    skipped = []

    class Tracer(tracing.Tracer):
        def install(self, owners, attr, make):
            if not any(attr in vars(o) for o in owners):
                skipped.append(attr)
            super().install(owners, attr, make)

    tracer = Tracer()
    try:
        run.install_layers(tracer)
        run.install_stages(tracer, workloads)
        spans = set(tracer.stats)
    finally:
        tracer.uninstall()
    assert skipped == []
    # every library span a per-layer metric of BENCHMARK.json reads
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    wanted = set()
    for metric in spec["per_layer"]:
        span, _, field = metric["name"].rpartition(".")
        if field in ("calls", "self_s", "total_s") \
                and span.split(".")[0] in run.MODULES \
                and metric["name"] not in run.COUNTS:
            wanted.add(span)
    assert wanted and wanted <= spans, sorted(wanted - spans)
