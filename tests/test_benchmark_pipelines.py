"""The benchmark's request pipelines still reproduce their recorded
behaviour.

A small fixed set of pool requests from every workload runs through
``perfbench/workloads.py`` unedited: each must pass the benchmark's own
correctness gate and hash to the digest recorded in
``perfbench/reference.json``.  Every input document and every document
a request writes must also be what the standard library's encoder
writes.  Nothing is timed.
"""

import json

from oracles import standard_dumps
from test_benchmark_hooks import PERFBENCH, load

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def smoke_keys(workloads):
    """A few requests per workload: corpus instances, one planted defect
    of each kind, the non-split instance, the smallest dp and Boolean
    instances, and a plain and a twisted lift."""
    first_seed = {}
    for seed, kind in REFERENCE["defects"]:
        first_seed.setdefault(kind, seed)
    return {
        "corpus": ([("inst", s) for s in (0, 1, 2)]
                   + [("defect", s, k) for k, s in sorted(first_seed.items())]
                   + [("nonsplit",)]),
        "dp-chain": [("dp", 4)],
        "boolean": [("bool", 3, 0)],
        "lift": [("lift", 0), ("lift", 1)],
    }


def test_pipelines_match_recorded_digests():
    workloads = load("workloads")
    written = []

    def dump(make_doc):
        written.append(make_doc())
        return workloads.dump(lambda: written[-1])

    ops = workloads.Ops.current(dump=dump)
    keys = smoke_keys(workloads)
    assert sorted(keys) == sorted(workloads.WORKLOADS)
    for name, chosen in keys.items():
        recorded = REFERENCE["digests"][name]
        requests = workloads.WORKLOADS[name].make(chosen)
        assert len(requests) == len(chosen)
        for req in requests:
            for text in req.docs:
                assert text == standard_dumps(json.loads(text)), req.id
            res = workloads.run_request(ops, req)
            assert res.output == standard_dumps(written[-1]), req.id
            assert workloads.check(req, res) is None, req.id
            assert workloads.digest(req, res)[:16] == recorded[req.id], req.id
