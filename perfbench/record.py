"""Regenerate reference.json: the frozen defect pool and the behaviour
digest of every request that any seed can pick.

    python3 perfbench/record.py

Run it only to change what the benchmark considers reference behaviour.
Every request must pass the correctness gate before its digest is kept.
"""

import itertools
import json
import sys

from run import HERE, ROOT

sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from idealsplit import fixtures  # noqa: E402
from idealsplit.errors import DefectNotApplicableError  # noqa: E402

DEFECTS_IN_POOL = 12     # per kind; a run uses DEFECTS_PER_KIND of them


def find_defects():
    """The first (seed, kind) pairs whose aligned random instance takes
    the defect: freezing them keeps the search out of the set-up."""
    pool = []
    for kind in fixtures.DEFECT_KINDS:
        found = 0
        for seed in itertools.count():
            base = fixtures.random_instance(seed, twist=False)
            try:
                fixtures.plant_defect(base, kind)
            except DefectNotApplicableError:
                continue
            pool.append([seed, kind])
            found += 1
            if found == DEFECTS_IN_POOL:
                break
    return pool


def main():
    reference = {"defects": find_defects(), "digests": {}}
    ops = workloads.Ops.current()
    for name, wl in workloads.WORKLOADS.items():
        recorded = {}
        for req in wl.make(wl.pool(reference)):
            res = workloads.run_request(ops, req)
            why = workloads.check(req, res)
            if why is not None:
                sys.exit("%s %s fails the correctness gate: %s"
                         % (name, req.id, why))
            recorded[req.id] = workloads.digest(req, res)[:16]
        reference["digests"][name] = recorded
        print("%s: %d requests recorded" % (name, len(recorded)))
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
