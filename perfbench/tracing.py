"""Outside-in spans around the library's layer boundaries.

The benchmark does not edit the library.  It replaces chosen functions
and methods with timing wrappers for the length of a run and restores
them afterwards.  Spans are aggregated as they close, so a run keeps a
few numbers per span name, not millions of span records:

* calls, total time (outermost calls only, so recursion is not counted
  twice) and self time (duration minus the time covered by child
  spans);
* self time split by stage, the innermost enclosing stage span (parse,
  validate, build, verify, lift, dump; "setup" outside all of them);
* for a stage span, its exclusive time: duration minus the stage spans
  nested in it (validate runs inside build, and both inside lift, on
  the lift path);
* named counters that wrappers add at the boundary (results that are
  None, system sizes, parentage).
"""

import time
from collections import Counter

CALLS, TOTAL, SELF, DEPTH, EXCL = range(5)


class Tracer:
    def __init__(self):
        self.stack = []          # open frames: [child_s, stage_child_s, name]
        self.current = ["setup"]
        self.stats = {}          # name -> [calls, total, self, depth, excl]
        self.by_stage = {}       # name -> {stage: self time}
        self.stage_of = {}       # name -> stage, for stage spans
        self.counts = Counter()
        self._undo = []

    def reset(self):
        """Zero the aggregates in place (the wrappers hold references)."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0, stat[DEPTH], 0.0]
        for split in self.by_stage.values():
            split.clear()
        self.counts.clear()

    def snapshot(self):
        """Plain dicts: calls, total, self_s, stage_s (exclusive time per
        stage), stage_self ((stage, module) -> self time), counts."""
        snap = {"calls": {}, "total": {}, "self_s": {}, "stage_s": {},
                "stage_self": {}, "counts": dict(self.counts)}
        for name, stat in self.stats.items():
            if not stat[CALLS]:
                continue
            snap["calls"][name] = stat[CALLS]
            snap["total"][name] = stat[TOTAL]
            snap["self_s"][name] = stat[SELF]
            if name in self.stage_of:
                snap["stage_s"][self.stage_of[name]] = stat[EXCL]
            module = name.split(".", 1)[0]
            for stage, t in self.by_stage[name].items():
                key = (stage, module)
                snap["stage_self"][key] = snap["stage_self"].get(key, 0) + t
        return snap

    def wrap(self, fn, name, stage=None, on_exit=None):
        """``fn`` timed as span ``name``; ``on_exit(tracer, args, result,
        parent)`` runs after each call that returns."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0.0])
        split = self.by_stage.setdefault(name, {})
        if stage is not None:
            self.stage_of[name] = stage
        stack, current, perf = self.stack, self.current, time.perf_counter

        def wrapped(*args, **kwargs):
            outer = current[0]
            if stage is not None:
                current[0] = stage
            frame = [0.0, 0.0, name]
            stack.append(frame)
            stat[DEPTH] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                stat[DEPTH] -= 1
                stat[CALLS] += 1
                if not stat[DEPTH]:
                    stat[TOTAL] += dt
                own = dt - frame[0]
                stat[SELF] += own
                split[outer if stage is None else stage] = split.get(
                    outer if stage is None else stage, 0.0) + own
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    parent[1] += dt if stage is not None else frame[1]
                if stage is not None:
                    stat[EXCL] += dt - frame[1]
                    current[0] = outer
            if on_exit is not None:
                on_exit(self, args, result, stack[-1][2] if stack else None)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def count(self, fn, name):
        """``fn`` with a plain call counter, no span."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self, owners, attr, make):
        """Replace ``attr`` on every owner (module or class) that has it
        by one wrapper built with ``make(original)``.  A target missing
        from the library is skipped; its metrics then read zero."""
        owners = [o for o in owners if attr in vars(o)]
        if not owners:
            return
        wrapper = make(vars(owners[0])[attr])
        for owner in owners:
            self._undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
