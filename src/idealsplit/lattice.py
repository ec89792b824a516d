"""Finite poset container for ideal ids, with lattice queries.

Construction only requires an acyclic order: the bounded-lattice and
distributivity properties are queries, not constructor preconditions,
because the validator needs to represent and diagnose broken inputs.
The constructor closes the order once into tables (up- and down-sets,
the meet and the join of every pair, the covering pairs, the bounds),
so every query is a lookup.  The meet of a and b is the node whose
down-set is down(a) & down(b), if there is one, and the join is dual,
so each table entry is itself one lookup.  All iteration is in
lexicographic id order so every downstream artifact is reproducible.
"""

from .errors import LatticeError, NotHereditaryError


class IdealLattice:
    """Ideal ids ordered by a DAG of edges, closed on build into tables:
    up- and down-sets, per-node rows of pairwise meets and joins (None
    where one does not exist), covering pairs and bounds."""

    __slots__ = ("nodes", "edges", "_up", "_down", "_meet", "_join",
                 "_covers", "_lower", "_bottom", "_top")

    def __init__(self, nodes, edges):
        nodes = tuple(sorted(nodes))
        for a, b in zip(nodes, nodes[1:]):
            if a == b:
                raise LatticeError("duplicate node id %r" % (a,))
        known = set(nodes)
        edges = tuple((lo, hi) for lo, hi in edges)
        for lo, hi in edges:
            if lo not in known or hi not in known:
                raise LatticeError("edge %r -> %r mentions an unknown node"
                                   % (lo, hi))
            if lo == hi:
                raise LatticeError("self-loop on %r" % (lo,))
        succ = {a: set() for a in nodes}
        for lo, hi in edges:
            succ[lo].add(hi)
        up = {}
        state = {}  # 1 = in progress, 2 = done

        def close(a):
            if state.get(a) == 2:
                return up[a]
            if state.get(a) == 1:
                raise LatticeError("order relation has a cycle through %r" % (a,))
            state[a] = 1
            acc = {a}
            for b in sorted(succ[a]):
                acc |= close(b)
            up[a] = frozenset(acc)
            state[a] = 2
            return up[a]

        for a in nodes:
            close(a)
        down = {a: set() for a in nodes}
        for a in nodes:
            for b in up[a]:
                down[b].add(a)
        down = {a: frozenset(s) for a, s in down.items()}
        # a < b is a cover iff the interval [a, b] is just {a, b}
        covers = tuple((a, b) for a in nodes for b in sorted(up[a])
                       if len(up[a] & down[b]) == 2)
        lower = {a: [] for a in nodes}
        for a, b in covers:
            lower[b].append(a)
        by_down = {s: a for a, s in down.items()}
        by_up = {s: a for a, s in up.items()}
        meet = {a: {b: by_down.get(down[a] & down[b]) for b in nodes}
                for a in nodes}
        join = {a: {b: by_up.get(up[a] & up[b]) for b in nodes}
                for a in nodes}
        everything = frozenset(nodes)
        for name, value in (
                ("nodes", nodes), ("edges", edges), ("_up", up),
                ("_down", down), ("_meet", meet), ("_join", join),
                ("_covers", covers), ("_lower", lower),
                ("_bottom", by_up.get(everything)),
                ("_top", by_down.get(everything))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("IdealLattice is immutable")

    def _check(self, a):
        if a not in self._up:
            raise LatticeError("unknown node %r" % (a,))

    def leq(self, a, b):
        self._check(a)
        self._check(b)
        return b in self._up[a]

    def comparable(self, a, b):
        return self.leq(a, b) or self.leq(b, a)

    def join(self, a, b):
        """Least upper bound, or None when it does not exist."""
        self._check(a)
        self._check(b)
        return self._join[a][b]

    def meet(self, a, b):
        """Greatest lower bound, or None when it does not exist."""
        self._check(a)
        self._check(b)
        return self._meet[a][b]

    def bottom(self):
        return self._bottom

    def top(self):
        return self._top

    def is_bounded_lattice(self):
        """Unique bottom and top, every pair has a join and a meet."""
        return (self._bottom is not None and self._top is not None
                and not any(None in row.values()
                            for table in (self._join, self._meet)
                            for row in table.values()))

    def is_distributive(self):
        """Exhaustive triple check of meet-over-join distributivity."""
        return (self.is_bounded_lattice()
                and self.distributivity_counterexample() is None)

    def distributivity_counterexample(self):
        """First triple (a, b, c) in id order with a ^ (b v c) different
        from (a ^ b) v (a ^ c), or None.  Needs a bounded lattice: a
        missing meet or join met on the way raises LatticeError."""
        meet, join = self._meet, self._join
        try:
            for a in self.nodes:
                row_a = meet[a]
                for b in self.nodes:
                    ab, row_b = row_a[b], join[b]
                    for c in self.nodes:
                        if row_a[row_b[c]] != join[ab][row_a[c]]:
                            return a, b, c
        except KeyError:
            raise LatticeError("unknown node None") from None
        return None

    def cover_edges(self):
        """Canonical covering pairs (a, b): a < b with nothing in between."""
        return list(self._covers)

    def maximal_subideals(self, a):
        """Maximal elements of the set of nodes strictly below a, sorted."""
        self._check(a)
        return list(self._lower[a])

    def next_ideal(self, processed):
        """Smallest-id node whose strict predecessors are all processed.

        ``processed`` must be hereditary (downward closed); returns None
        when every node is processed.
        """
        done = set(processed)
        for x in done:
            self._check(x)
        for x in done:
            missing = self._down[x] - done
            if missing:
                raise NotHereditaryError(
                    "%r is processed but its predecessor %r is not"
                    % (x, min(missing)))
        if len(done) == len(self.nodes):
            return None
        # done is hereditary, so processed lower covers mean every
        # predecessor is processed
        for x in self.nodes:
            if x not in done and done.issuperset(self._lower[x]):
                return x

    def is_comaximal_family(self, a, parts):
        """True iff join(p, q) = a for every pair of distinct indices."""
        self._check(a)
        parts = list(parts)
        for p in parts:
            self._check(p)
            if not self.leq(p, a):
                raise LatticeError("part %r is not below %r" % (p, a))
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                if self.join(parts[i], parts[j]) != a:
                    return False
        return True

    def __repr__(self):
        return "IdealLattice(%r, %r)" % (list(self.nodes), list(self.edges))
