"""Finite poset container for ideal ids, with lattice queries.

Construction only requires an acyclic order: the bounded-lattice and
distributivity properties are queries, not constructor preconditions,
because the validator needs to represent and diagnose broken inputs.
All iteration is in lexicographic id order so every downstream artifact
is reproducible.
"""

from .errors import LatticeError, NotHereditaryError


class IdealLattice:
    """Ideal ids ordered by a DAG of edges (transitively closed on build)."""

    __slots__ = ("nodes", "edges", "_up")

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
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_up", up)

    def __setattr__(self, name, value):
        raise AttributeError("IdealLattice is immutable")

    def _check(self, a):
        if a not in self._up:
            raise LatticeError("unknown node %r" % (a,))

    def leq(self, a, b):
        self._check(a)
        self._check(b)
        return b in self._up[a]

    def lt(self, a, b):
        return a != b and self.leq(a, b)

    def comparable(self, a, b):
        return self.leq(a, b) or self.leq(b, a)

    def below(self, a, strict=True):
        """Nodes at or below a (strictly below by default), sorted."""
        self._check(a)
        return [x for x in self.nodes
                if a in self._up[x] and (not strict or x != a)]

    def above(self, a, strict=True):
        self._check(a)
        return [x for x in sorted(self._up[a]) if not strict or x != a]

    def join(self, a, b):
        """Least upper bound, or None when it does not exist."""
        self._check(a)
        self._check(b)
        ubs = [x for x in self.nodes if x in self._up[a] and x in self._up[b]]
        least = [x for x in ubs if all(y in self._up[x] for y in ubs)]
        return least[0] if least else None

    def meet(self, a, b):
        """Greatest lower bound, or None when it does not exist."""
        self._check(a)
        self._check(b)
        lbs = [x for x in self.nodes
               if a in self._up[x] and b in self._up[x]]
        greatest = [x for x in lbs if all(x in self._up[y] for y in lbs)]
        return greatest[0] if greatest else None

    def bottom(self):
        least = [x for x in self.nodes
                 if all(y in self._up[x] for y in self.nodes)]
        return least[0] if least else None

    def top(self):
        greatest = [x for x in self.nodes
                    if all(x in self._up[y] for y in self.nodes)]
        return greatest[0] if greatest else None

    def is_bounded_lattice(self):
        """Unique bottom and top, every pair has a join and a meet."""
        if self.bottom() is None or self.top() is None:
            return False
        for a in self.nodes:
            for b in self.nodes:
                if self.join(a, b) is None or self.meet(a, b) is None:
                    return False
        return True

    def is_distributive(self):
        """Exhaustive triple check of meet-over-join distributivity."""
        return (self.is_bounded_lattice()
                and self.distributivity_counterexample() is None)

    def distributivity_counterexample(self):
        """First triple (a, b, c) in id order with a ^ (b v c) different
        from (a ^ b) v (a ^ c), or None.  Needs a bounded lattice."""
        for a in self.nodes:
            for b in self.nodes:
                for c in self.nodes:
                    lhs = self.meet(a, self.join(b, c))
                    rhs = self.join(self.meet(a, b), self.meet(a, c))
                    if lhs != rhs:
                        return a, b, c
        return None

    def cover_edges(self):
        """Canonical covering pairs (a, b): a < b with nothing in between."""
        out = []
        for a in self.nodes:
            for b in sorted(self._up[a]):
                if b == a:
                    continue
                if not any(c != a and c != b and c in self._up[a]
                           and b in self._up[c] for c in self.nodes):
                    out.append((a, b))
        return out

    def maximal_subideals(self, a):
        """Maximal elements of the set of nodes strictly below a, sorted."""
        strict = self.below(a, strict=True)
        return [x for x in strict
                if not any(y != x and y in self._up[x] for y in strict)]

    def next_ideal(self, processed):
        """Smallest-id node whose strict predecessors are all processed.

        ``processed`` must be hereditary (downward closed); returns None
        when every node is processed.
        """
        done = set(processed)
        for x in done:
            self._check(x)
        for x in done:
            for y in self.below(x, strict=True):
                if y not in done:
                    raise NotHereditaryError(
                        "%r is processed but its predecessor %r is not"
                        % (x, y))
        if len(done) == len(self.nodes):
            return None
        candidates = [x for x in self.nodes if x not in done
                      and all(y in done for y in self.below(x, strict=True))]
        return min(candidates)

    def linear_extension(self):
        """The deterministic processing order: iterate next_ideal from empty."""
        processed = set()
        order = []
        while True:
            nxt = self.next_ideal(processed)
            if nxt is None:
                return order
            order.append(nxt)
            processed.add(nxt)

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

    def __eq__(self, other):
        return (isinstance(other, IdealLattice) and self.nodes == other.nodes
                and self._up == other._up)

    def __hash__(self):
        return hash((self.nodes, tuple(sorted(self._up.items()))))

    def __repr__(self):
        return "IdealLattice(%r, %r)" % (list(self.nodes), list(self.edges))
