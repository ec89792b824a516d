"""Tests for the instance generators and the defect mutators."""

import random

import pytest

from idealsplit import fixtures
from idealsplit.errors import (DefectNotApplicableError,
                               InstanceValidationError, LatticeError)
from idealsplit.fgab import (FgGroup, GroupHom, Subgroup, n_torsion_group,
                             tensor_zmod)
from idealsplit.fixtures import (DEFECT_KINDS, coordinate_subgroup, direct_sum_instance,
                                 dp_truncation, plant_defect,
                                 random_automorphism, random_hom,
                                 random_instance, sum_model,
                                 transported_instance, twist_instance)
from idealsplit.kunneth import validate_instance
from idealsplit.splitter import (build_ideal_splitting, check_gamma_exact,
                                 exhaustive_ideal_splittings,
                                 lift_isomorphism, verify_ideal_splitting)

Z1 = FgGroup((), 1)
Z2 = FgGroup((), 2)
K24 = FgGroup((2, 4))
KLEIN = FgGroup((2, 2))

DIAMOND = {"a": ((0,), (0,)), "b": ((1,), (1,))}
STEM = {"m": ((0,), (0,)), "a": ((0, 1), (0,)), "b": ((0,), (0, 1))}
CHAIN = {"m0": ((0,), (1,))}


def diamond24():
    return direct_sum_instance(Z2, K24, 2, DIAMOND)


def chain124():
    return direct_sum_instance(Z1, K24, 2, CHAIN)


def same_nodes(a, b):
    if tuple(a.order.nodes) != tuple(b.order.nodes):
        return False
    for i in a.order.nodes:
        x, y = a.node(i), b.node(i)
        if (x.K0_sub, x.K1_sub, x.Kn_sub) != (y.K0_sub, y.K1_sub, y.Kn_sub):
            return False
    return True


# --- aligned builder ---------------------------------------------------------

def test_direct_sum_instance_diamond():
    inst = diamond24()
    assert validate_instance(inst).ok
    assert tuple(inst.order.nodes) == ("a", "b", "bot", "top")
    assert inst.node("bot").Kn_sub.is_zero()
    assert inst.node("top").Kn_sub == Subgroup.full(inst.coeff.Kn)
    assert inst.coeff.n == 2


def test_direct_sum_instance_keeps_named_ends():
    spec = {"zero": ((), ()), "all": ((0, 1), (0, 1)),
            "a": ((0,), (0,)), "b": ((1,), (1,))}
    inst = direct_sum_instance(Z2, K24, 2, spec)
    assert tuple(inst.order.nodes) == ("a", "all", "b", "zero")
    assert inst.order.bottom() == "zero"
    assert inst.order.top() == "all"
    # "bot" and "bot0" name atoms here, so the inserted bottom is "bot1"
    inst = direct_sum_instance(Z2, FgGroup(), 2,
                               {"bot": ((0,), ()), "bot0": ((1,), ())})
    assert inst.order.nodes == ("bot", "bot0", "bot1", "top")
    assert (inst.order.bottom(), inst.order.top()) == ("bot1", "top")
    assert validate_instance(inst).ok


def test_direct_sum_instance_bad_index():
    with pytest.raises(ValueError, match="outside"):
        direct_sum_instance(Z2, K24, 2, {"a": ((5,), ())})


def test_direct_sum_instance_rejects_bad_joins():
    # three free coordinates, two atoms: their stored join (the full
    # top) is strictly bigger than the subgroup join
    with pytest.raises(LatticeError, match="lattice-laws:join:a,b"):
        direct_sum_instance(FgGroup((), 3), K24, 2,
                            {"a": ((0,), ()), "b": ((1,), ())})


def _random_aligned_spec(rng):
    """K0 free or with torsion, K1 off the torsion menu, n in {2, 3, 4,
    6} and 0-4 random coordinate pairs, closed or not."""
    K0 = FgGroup(rng.choice(((), (), (), (), (2,), (3,))),
                 rng.randint(0, 3))
    K1 = FgGroup(rng.choice(fixtures._TORSION_MENU), rng.randint(0, 1))
    spec = {}
    for k in range(rng.randint(0, 4)):
        spec["c%d" % k] = (
            tuple(i for i in range(K0.rank) if rng.random() < 0.5),
            tuple(i for i in range(K1.rank) if rng.random() < 0.5))
    return K0, K1, rng.choice((2, 3, 4, 6)), spec


def test_ring_of_sets_certificate_agrees_with_validation(monkeypatch):
    # direct_sum_instance validates exactly the specs its ring-of-sets
    # certificate does not accept, so the certificate's verdict is "no
    # validation ran"; it must match validate_instance on every spec
    # whose order builds
    verdicts = []

    def recording(inst):
        report = validate_instance(inst)
        verdicts.append(report.ok)
        return report

    monkeypatch.setattr(fixtures, "validate_instance", recording)
    rng = random.Random(21)
    built, valid = 0, 0
    for _ in range(1500):
        K0, K1, n, spec = _random_aligned_spec(rng)
        verdicts.clear()
        try:
            inst = direct_sum_instance(K0, K1, n, spec)
        except LatticeError:
            if not verdicts:
                continue  # repeated coordinate pairs: no partial order
        built += 1
        if verdicts:
            assert verdicts == [False], spec
        else:
            assert validate_instance(inst).ok, spec
            valid += 1
    assert built > 1000 and 500 < valid < built - 500


def test_generators_leave_validation_to_their_callers(monkeypatch):
    # counts, not timing: the generators are valid by construction, so
    # only a spec that fails the ring-of-sets rule reaches the validator
    calls = []

    def counted(inst):
        calls.append(inst)
        return validate_instance(inst)

    monkeypatch.setattr(fixtures, "validate_instance", counted)
    for seed in range(200):
        random_instance(seed)
        random_instance(seed, twist=False)
    # transported pairs by the acceptance suite's lift recipe
    for seed in range(20):
        inst = random_instance(seed, twist=False)
        rng = random.Random(10_000 + seed)
        phi0 = random_automorphism(inst.data.K0, rng)
        phi1 = random_automorphism(inst.data.K1, rng)
        h = None
        if seed % 2:
            T, _ = tensor_zmod(inst.data.K0, inst.coeff.n)
            T1, _ = n_torsion_group(inst.data.K1, inst.coeff.n)
            h = random_hom(T1, T, rng)
        transported_instance(inst, phi0, phi1, h)
    # every coordinate subset of range(k) in both K0 and K1: 2^k
    for k in (3, 4, 5):
        spec = {}
        for mask in range(2 ** k):
            idx = tuple(i for i in range(k) if mask >> i & 1)
            spec["s%d" % mask] = (idx, idx)
        direct_sum_instance(FgGroup((), k), FgGroup((2,) * k), 2, spec)
    assert calls == []
    with pytest.raises(LatticeError, match="lattice-laws:join:a,b"):
        direct_sum_instance(FgGroup((), 3), K24, 2,
                            {"a": ((0,), ()), "b": ((1,), ())})
    assert len(calls) == 1


def test_sum_model_parts():
    model = sum_model(Z2, K24, 2)
    assert model.T == FgGroup((2, 2))
    assert model.T1 == FgGroup((2, 2))
    assert model.Kn == FgGroup((2, 2, 2, 2))
    assert model.p2 @ model.i2 == GroupHom.identity(model.T1)
    assert model.p2 @ model.i1 == GroupHom.zero(model.T, model.T1)


def test_coordinate_subgroup():
    sub = coordinate_subgroup(K24, [1])
    assert sub.contains((0, 1))
    assert not sub.contains((1, 0))
    assert coordinate_subgroup(K24, []).is_zero()


# --- twisting ----------------------------------------------------------------

def test_twist_by_zero_is_identity():
    inst = diamond24()
    T, _ = inst.tensor()
    T1, _ = inst.torsion()
    assert same_nodes(inst, twist_instance(inst, GroupHom.zero(T1, T)))


def test_twist_moves_data_and_stays_valid():
    inst = diamond24()
    T, _ = inst.tensor()
    T1, _ = inst.torsion()
    # sends the torsion generator of ideal b across to the tensor
    # line of ideal a, so Kn(b) leaves its coordinate axes
    w = GroupHom(T1, T, [[0, 1], [0, 0]])
    twisted = twist_instance(inst, w)
    assert validate_instance(twisted).ok
    assert twisted.node("b").Kn_sub != inst.node("b").Kn_sub
    assert twisted.node("b").K0_sub == inst.node("b").K0_sub
    fam = build_ideal_splitting(twisted)
    assert verify_ideal_splitting(twisted, fam).ok


def test_twist_applies_to_nonaligned_instances():
    inst = dp_truncation(2, 1, 0)
    T, _ = inst.tensor()
    T1, _ = inst.torsion()
    w = GroupHom(T1, T, [[1], [0]])
    assert validate_instance(twist_instance(inst, w)).ok


# --- transport ---------------------------------------------------------------

def test_transport_identity():
    inst = diamond24()
    other, pairing = transported_instance(
        inst, GroupHom.identity(Z2), GroupHom.identity(K24))
    assert same_nodes(inst, other)
    assert pairing == {i: i for i in inst.order.nodes}


def test_transport_swap_lifts():
    inst = diamond24()
    phi0 = GroupHom(Z2, Z2, [[0, 1], [1, 0]])
    phi1 = GroupHom.identity(K24)
    other, pairing = transported_instance(inst, phi0, phi1)
    assert validate_instance(other).ok
    assert other.node("a").K0_sub == coordinate_subgroup(Z2, [1])
    iso = lift_isomorphism(inst, other, phi0, phi1, pairing)
    assert iso.phi.is_iso()


def test_transport_with_extra_twist():
    inst = direct_sum_instance(Z2, KLEIN, 2, STEM)
    T, _ = inst.tensor()
    T1, _ = inst.torsion()
    h = GroupHom(T1, T, [[0, 1], [0, 0]])
    other, pairing = transported_instance(
        inst, GroupHom.identity(Z2), GroupHom.identity(KLEIN), h=h)
    assert validate_instance(other).ok
    iso = lift_isomorphism(inst, other, GroupHom.identity(Z2),
                           GroupHom.identity(KLEIN), pairing)
    assert iso.phi.is_iso()


def test_transport_requires_aligned_shape():
    inst = dp_truncation(2, 1, 0)
    with pytest.raises(LatticeError, match="aligned"):
        transported_instance(inst, GroupHom.identity(inst.data.K0),
                             GroupHom.identity(inst.data.K1))


# --- D_p truncation ----------------------------------------------------------

def test_dp_valid_range():
    for p in (2, 3):
        for m in (1, 2):
            for k in range(m):
                inst = dp_truncation(p, m, k)
                report = validate_instance(inst)
                assert report.ok, (p, m, k, [r.name for r in
                                             report.failures()])


def test_dp_overfull_fails_exactly_surjectivity():
    for p, m in ((2, 1), (2, 2), (3, 1)):
        report = validate_instance(dp_truncation(p, m, m))
        assert [r.name for r in report.failures()] \
            == ["ideal-exactness:surjective:I%d" % m]


def test_dp_builder_pins_corridor():
    inst = dp_truncation(2, 1, 0)
    fam = build_ideal_splitting(inst)
    assert verify_ideal_splitting(inst, fam).ok
    # the corridor at I0 leaves only the b-column; lexicographic
    # minimality picks sigma(1) = (1, 0, 0)
    assert fam.sigma("top").matrix == ((1,), (0,), (0,))


def test_dp_corridor_strictly_shrinks():
    for p in (2, 3):
        secs = []
        for k in (0, 1):
            inst = dp_truncation(p, 2, k)
            secs.append({s.matrix for s in
                         exhaustive_ideal_splittings(inst)})
        assert secs[1] < secs[0]


def test_dp_truncation_is_deterministic():
    assert same_nodes(dp_truncation(2, 1, 0), dp_truncation(2, 1, 0))


def test_dp_rejects_bad_parameters():
    with pytest.raises(ValueError, match="prime"):
        dp_truncation(4, 1, 0)
    with pytest.raises(ValueError):
        dp_truncation(2, 0, 0)
    with pytest.raises(ValueError):
        dp_truncation(2, 2, 3)
    with pytest.raises(ValueError):
        dp_truncation(2, 2, -1)
    # 1 is below every prime; 9 passes the division by 2 and fails at 3
    for p in (1, 9):
        with pytest.raises(ValueError) as info:
            dp_truncation(p, 1, 0)
        assert str(info.value) == "p must be prime, got %d" % p
    assert validate_instance(dp_truncation(5, 1, 0)).ok


def test_random_instance_gives_up_past_its_attempt_budget(monkeypatch):
    # every candidate's |Kn| is at least 1, so none fits an order bound 0
    monkeypatch.setattr(fixtures, "MAX_ORDER", 0)
    with pytest.raises(LatticeError) as info:
        random_instance(0)
    assert str(info.value) == "no instance found within the attempt budget"


# --- randomized generation ---------------------------------------------------

def test_random_instance_deterministic():
    a = random_instance(123)
    b = random_instance(123)
    assert a.coeff.n == b.coeff.n
    assert a.coeff.Kn == b.coeff.Kn
    assert same_nodes(a, b)


def test_random_instances_are_valid_and_bounded():
    for seed in range(20):
        inst = random_instance(seed)
        # a chain, diamond or stem has at most five ideals
        assert len(inst.order.nodes) <= 5
        assert inst.coeff.Kn.size() <= fixtures.MAX_ORDER
        assert inst.data.K0.rank <= fixtures.MAX_K0_RANK
        assert inst.coeff.n in fixtures.COEFFICIENTS
        assert validate_instance(inst).ok
    inst = random_instance(7, coefficients=(5,))
    assert inst.coeff.n == 5 and validate_instance(inst).ok


def test_random_instances_split():
    for seed in (1, 4, 9):
        inst = random_instance(seed)
        fam = build_ideal_splitting(inst)
        assert verify_ideal_splitting(inst, fam).ok


def test_random_hom_is_always_valid():
    rng = random.Random(5)
    menu = (FgGroup((2, 4)), FgGroup((3,)), FgGroup((), 2),
            FgGroup((2, 2), 1), FgGroup(()))
    for _ in range(30):
        dom = rng.choice(menu)
        cod = rng.choice(menu)
        random_hom(dom, cod, rng)  # constructor validates relations


def test_random_automorphism():
    rng = random.Random(11)
    for group in (K24, KLEIN, Z2, FgGroup((2, 2, 4))):
        for _ in range(5):
            assert random_automorphism(group, rng).is_iso()
    a = random_automorphism(K24, random.Random(3))
    b = random_automorphism(K24, random.Random(3))
    assert a == b


# --- defect planting ---------------------------------------------------------

def _assert_planted(inst, kind, prefix):
    mutant = plant_defect(inst, kind)
    failures = validate_instance(mutant).failures()
    assert failures
    assert all(r.name.startswith(prefix) for r in failures), \
        [r.name for r in failures]
    return mutant


def test_plant_exactness_on_chain():
    _assert_planted(chain124(), "break-exactness", "ideal-exactness")


def test_plant_exactness_without_aligned_shape():
    _assert_planted(dp_truncation(2, 2, 1), "break-exactness",
                    "ideal-exactness")


def test_plant_purity_on_chain():
    _assert_planted(chain124(), "break-purity", "purity")


def test_plant_naturality_on_chain():
    _assert_planted(chain124(), "break-naturality", "naturality")


def test_plant_lattice_law_on_diamond_and_stem():
    _assert_planted(diamond24(), "break-lattice-law", "lattice-laws")
    stem = direct_sum_instance(Z2, KLEIN, 2, STEM)
    _assert_planted(stem, "break-lattice-law", "lattice-laws")


def test_plant_distributivity_on_klein_diamond():
    inst = direct_sum_instance(Z2, KLEIN, 2, DIAMOND)
    mutant = _assert_planted(inst, "break-distributivity",
                             "lattice-distributive")
    assert "d" in mutant.order.nodes


def test_lattice_law_mutant_has_gamma_witness():
    mutant = plant_defect(diamond24(), "break-lattice-law")
    assert check_gamma_exact(mutant, "top", ("a", "b"))


def test_plant_defect_deterministic():
    a = plant_defect(diamond24(), "break-lattice-law")
    b = plant_defect(diamond24(), "break-lattice-law")
    assert same_nodes(a, b)


def test_plant_defect_none_kind():
    # None names no kind; gen defect rejects a missing --kind itself
    with pytest.raises(ValueError, match="unknown defect kind None"):
        plant_defect(diamond24(), None)


def test_plant_defect_unknown_kind():
    with pytest.raises(ValueError, match="unknown"):
        plant_defect(diamond24(), "break-everything")


def test_plant_defect_rejects_invalid_base():
    with pytest.raises(DefectNotApplicableError, match="already invalid"):
        plant_defect(dp_truncation(2, 1, 1), "break-exactness")


def test_plant_defect_not_applicable():
    # no incomparable pairs on a chain
    with pytest.raises(DefectNotApplicableError):
        plant_defect(chain124(), "break-lattice-law")
    with pytest.raises(DefectNotApplicableError):
        plant_defect(chain124(), "break-distributivity")
    # shape-bound kinds cannot run on the non-aligned D_p family
    with pytest.raises(DefectNotApplicableError):
        plant_defect(dp_truncation(2, 2, 1), "break-naturality")
    with pytest.raises(DefectNotApplicableError):
        plant_defect(dp_truncation(2, 2, 1), "break-purity")
    for kind in ("break-lattice-law", "break-distributivity"):
        with pytest.raises(DefectNotApplicableError) as info:
            plant_defect(dp_truncation(2, 2, 1), kind)
        assert str(info.value) == "no %s mutation applies here" % kind
    # the (2, 4) torsion has no equal-order diagonal, and the K0-only
    # diagonal breaks the join laws, so nothing survives verification
    with pytest.raises(DefectNotApplicableError):
        plant_defect(diamond24(), "break-distributivity")
    # every mid node of a diamond sits in an incomparable pair, so
    # dropping torsion from its Kn data always pollutes a lattice law
    with pytest.raises(DefectNotApplicableError):
        plant_defect(diamond24(), "break-exactness")


def test_defect_kinds_cover_the_menu():
    assert set(DEFECT_KINDS) == {"break-exactness", "break-purity",
                                 "break-lattice-law", "break-naturality",
                                 "break-distributivity"}
