"""Order-theoretic container tests.

The small named posets (chain, diamond, M3, N5, divisor lattice) are
classical and every property asserted here is checked against a direct
definition-level oracle or enumeration, not against the implementation.
"""

import random

import pytest

from idealsplit.errors import LatticeError, NotHereditaryError
from idealsplit.lattice import IdealLattice


def chain3():
    return IdealLattice(["0", "1", "2"], [("0", "1"), ("1", "2")])


def diamond():
    return IdealLattice(["a", "b", "bot", "top"],
                        [("bot", "a"), ("bot", "b"),
                         ("a", "top"), ("b", "top")])


def m3():
    nodes = ["0", "a", "b", "c", "1"]
    edges = [("0", "a"), ("0", "b"), ("0", "c"),
             ("a", "1"), ("b", "1"), ("c", "1")]
    return IdealLattice(nodes, edges)


def n5():
    # pentagon: 0 < a < 1 and 0 < b1 < b2 < 1, a incomparable to b1, b2
    nodes = ["0", "1", "a", "b1", "b2"]
    edges = [("0", "a"), ("a", "1"),
             ("0", "b1"), ("b1", "b2"), ("b2", "1")]
    return IdealLattice(nodes, edges)


def divisor_lattice(n):
    divs = [d for d in range(1, n + 1) if n % d == 0]
    nodes = [str(d) for d in divs]
    edges = [(str(a), str(b)) for a in divs for b in divs
             if b != a and b % a == 0]
    return IdealLattice(nodes, edges), divs


def test_construction_rejects_bad_input():
    with pytest.raises(LatticeError):
        IdealLattice(["x", "x"], [])
    with pytest.raises(LatticeError):
        IdealLattice(["x"], [("x", "y")])
    with pytest.raises(LatticeError):
        IdealLattice(["x", "y"], [("x", "x")])
    with pytest.raises(LatticeError):
        IdealLattice(["x", "y"], [("x", "y"), ("y", "x")])
    with pytest.raises(LatticeError):
        IdealLattice(["x", "y", "z"],
                     [("x", "y"), ("y", "z"), ("z", "x")])


def test_chain_order_and_bounds():
    lat = chain3()
    assert lat.leq("0", "2") and lat.leq("1", "1")
    assert not lat.leq("2", "0")
    assert lat.bottom() == "0" and lat.top() == "2"
    assert lat.join("0", "2") == "2"
    assert lat.meet("0", "2") == "0"
    assert lat.is_bounded_lattice()
    assert lat.is_distributive()
    assert [x for x in lat.nodes if lat.leq(x, "2")] == ["0", "1", "2"]
    assert [x for x in lat.nodes if lat.leq("0", x) and x != "0"] \
        == ["1", "2"]


def test_maximal_subideals_examples():
    assert chain3().maximal_subideals("0") == []
    assert chain3().maximal_subideals("2") == ["1"]
    assert diamond().maximal_subideals("top") == ["a", "b"]
    assert diamond().maximal_subideals("a") == ["bot"]
    with pytest.raises(LatticeError):
        diamond().maximal_subideals("zzz")


def test_diamond_is_distributive_m3_and_n5_are_not():
    assert diamond().is_bounded_lattice()
    assert diamond().is_distributive()
    assert m3().is_bounded_lattice()
    assert not m3().is_distributive()
    assert n5().is_bounded_lattice()
    assert not n5().is_distributive()
    # first failing triple in id order, found by hand from the tables
    assert diamond().distributivity_counterexample() is None
    assert m3().distributivity_counterexample() == ("a", "b", "c")
    assert n5().distributivity_counterexample() == ("b2", "a", "b1")


def test_m3_distributivity_witness():
    lat = m3()
    # a /\ (b \/ c) = a but (a /\ b) \/ (a /\ c) = 0
    assert lat.meet("a", lat.join("b", "c")) == "a"
    assert lat.join(lat.meet("a", "b"), lat.meet("a", "c")) == "0"


def test_poset_without_bounds_is_not_a_lattice():
    # two maximal elements over one bottom: join of the tops is undefined
    vee = IdealLattice(["bot", "p", "q"], [("bot", "p"), ("bot", "q")])
    assert vee.bottom() == "bot"
    assert vee.top() is None
    assert vee.join("p", "q") is None
    assert vee.meet("p", "q") == "bot"
    assert not vee.is_bounded_lattice()
    assert not vee.is_distributive()


def test_divisor_lattice_against_gcd_lcm_oracle():
    import math
    lat, divs = divisor_lattice(30)
    for a in divs:
        for b in divs:
            assert lat.leq(str(a), str(b)) == (b % a == 0)
            assert lat.join(str(a), str(b)) == str(a * b // math.gcd(a, b))
            assert lat.meet(str(a), str(b)) == str(math.gcd(a, b))
    assert lat.is_distributive()


def test_cover_edges_drop_transitive_input_edges():
    lat = IdealLattice(["0", "1", "2"],
                       [("0", "1"), ("1", "2"), ("0", "2")])
    assert lat.cover_edges() == [("0", "1"), ("1", "2")]
    assert diamond().cover_edges() == [("a", "top"), ("b", "top"),
                                       ("bot", "a"), ("bot", "b")]


def test_immutability_and_repr_are_pinned():
    lat = chain3()
    with pytest.raises(AttributeError) as info:
        lat.nodes = ()
    assert str(info.value) == "IdealLattice is immutable"
    assert repr(lat) \
        == "IdealLattice(['0', '1', '2'], [('0', '1'), ('1', '2')])"


def test_next_ideal_examples():
    lat = diamond()
    assert lat.next_ideal(set()) == "bot"
    assert lat.next_ideal({"bot"}) == "a"  # smallest id tie-break
    assert lat.next_ideal({"bot", "a"}) == "b"
    assert lat.next_ideal({"bot", "a", "b"}) == "top"
    assert lat.next_ideal({"bot", "a", "b", "top"}) is None
    with pytest.raises(NotHereditaryError):
        lat.next_ideal({"a"})
    with pytest.raises(NotHereditaryError):
        lat.next_ideal({"bot", "top"})
    with pytest.raises(LatticeError):
        lat.next_ideal({"nope"})


def processing_order(lat):
    """The builder's order: iterate next_ideal from nothing processed."""
    processed, order = set(), []
    while True:
        nxt = lat.next_ideal(processed)
        if nxt is None:
            return order
        order.append(nxt)
        processed.add(nxt)


def test_linear_extension_chain_and_diamond():
    assert processing_order(chain3()) == ["0", "1", "2"]
    assert processing_order(diamond()) == ["bot", "a", "b", "top"]


def random_poset(rng, size):
    # edges only go from lower to higher index, so the input is acyclic
    nodes = ["n%02d" % i for i in range(size)]
    edges = []
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.4:
                edges.append((nodes[i], nodes[j]))
    return IdealLattice(nodes, edges)


def test_linear_extension_invariants_on_random_posets():
    rng = random.Random(0x1A77)
    for _ in range(40):
        lat = random_poset(rng, rng.randrange(1, 8))
        order = processing_order(lat)
        assert sorted(order) == list(lat.nodes)
        assert len(set(order)) == len(order)
        seen = set()

        def preds_seen(z):
            return all(y in seen for y in lat.nodes
                       if y != z and lat.leq(y, z))

        for x in order:
            assert preds_seen(x)
            # smallest id among the nodes whose predecessors are all seen
            ready = [z for z in lat.nodes if z not in seen and preds_seen(z)]
            assert x == min(ready)
            seen.add(x)
        assert processing_order(lat) == order


# --- the tables against the scanning definitions ---------------------------
#
# Each oracle rescans the nodes through ``leq`` alone, as the lattice did
# before it kept tables, so the table-backed queries are checked against
# the order-theoretic definitions rather than against themselves.

def oracle_join(lat, a, b):
    ubs = [x for x in lat.nodes if lat.leq(a, x) and lat.leq(b, x)]
    least = [x for x in ubs if all(lat.leq(x, y) for y in ubs)]
    return least[0] if least else None


def oracle_meet(lat, a, b):
    lbs = [x for x in lat.nodes if lat.leq(x, a) and lat.leq(x, b)]
    greatest = [x for x in lbs if all(lat.leq(y, x) for y in lbs)]
    return greatest[0] if greatest else None


def oracle_bottom(lat):
    least = [x for x in lat.nodes if all(lat.leq(x, y) for y in lat.nodes)]
    return least[0] if least else None


def oracle_top(lat):
    greatest = [x for x in lat.nodes
                if all(lat.leq(y, x) for y in lat.nodes)]
    return greatest[0] if greatest else None


def oracle_cover_edges(lat):
    return [(a, b) for a in lat.nodes for b in lat.nodes
            if a != b and lat.leq(a, b)
            and not any(c not in (a, b) and lat.leq(a, c) and lat.leq(c, b)
                        for c in lat.nodes)]


def oracle_maximal_subideals(lat, a):
    strict = [x for x in lat.nodes if x != a and lat.leq(x, a)]
    return [x for x in strict
            if not any(y != x and lat.leq(x, y) for y in strict)]


def oracle_counterexample(lat):
    """First failing triple in id order; LatticeError where a meet or
    join the law needs is missing."""
    for a in lat.nodes:
        for b in lat.nodes:
            for c in lat.nodes:
                bc, ab, ac = (oracle_join(lat, b, c), oracle_meet(lat, a, b),
                              oracle_meet(lat, a, c))
                if None in (bc, ab, ac):
                    raise LatticeError("missing meet or join")
                if oracle_meet(lat, a, bc) != oracle_join(lat, ab, ac):
                    return a, b, c
    return None


def outcome(query):
    try:
        return query()
    except LatticeError:
        return LatticeError


def assert_tables_match_definitions(lat):
    nodes = lat.nodes
    for a in nodes:
        for b in nodes:
            assert lat.join(a, b) == oracle_join(lat, a, b), (a, b)
            assert lat.meet(a, b) == oracle_meet(lat, a, b), (a, b)
        assert lat.maximal_subideals(a) == oracle_maximal_subideals(lat, a)
    assert lat.bottom() == oracle_bottom(lat)
    assert lat.top() == oracle_top(lat)
    assert lat.cover_edges() == oracle_cover_edges(lat)
    bounded = (oracle_bottom(lat) is not None and oracle_top(lat) is not None
               and all(oracle_join(lat, a, b) is not None
                       and oracle_meet(lat, a, b) is not None
                       for a in nodes for b in nodes))
    assert lat.is_bounded_lattice() == bounded
    expected = outcome(lambda: oracle_counterexample(lat))
    assert outcome(lat.distributivity_counterexample) == expected
    assert lat.is_distributive() == (bounded and expected is None)
    return bounded


def test_tables_match_definitions_on_named_lattices():
    for lat in (chain3(), diamond(), m3(), n5(), divisor_lattice(30)[0],
                divisor_lattice(36)[0]):
        assert assert_tables_match_definitions(lat)


def test_tables_match_definitions_on_random_posets():
    rng = random.Random(0x7AB1E)
    bounded = 0
    for _ in range(60):
        bounded += assert_tables_match_definitions(
            random_poset(rng, rng.randrange(1, 8)))
    # the family mixes lattices with posets missing a meet or a join
    assert 0 < bounded < 60


def test_comaximal_family_examples():
    lat = diamond()
    assert lat.is_comaximal_family("top", ["a", "b"])
    assert lat.is_comaximal_family("top", ["a"])
    assert lat.is_comaximal_family("top", [])
    assert lat.is_comaximal_family("a", ["a"])
    # join(a, a) = a != top, so a repeated part is not comaximal
    assert not lat.is_comaximal_family("top", ["a", "a"])
    assert not lat.is_comaximal_family("top", ["a", "bot"])
    with pytest.raises(LatticeError):
        lat.is_comaximal_family("a", ["b"])
    with pytest.raises(LatticeError):
        lat.is_comaximal_family("top", ["missing"])
    c = chain3()
    assert not c.is_comaximal_family("2", ["0", "1"])


def test_comaximal_in_m3_all_pairs_of_atoms():
    lat = m3()
    assert lat.is_comaximal_family("1", ["a", "b", "c"])
    assert not lat.is_comaximal_family("1", ["a", "b", "0"])
