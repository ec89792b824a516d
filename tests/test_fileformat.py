"""Round-trip and strictness tests for the JSON file format."""

import json
import os
import stat

import pytest

from idealsplit import fileformat
from idealsplit.errors import SchemaError
from idealsplit.fgab import FgGroup, GroupHom, Subgroup
from idealsplit.fileformat import (SCHEMA_VERSION, complex_iso_from_json,
                                   dumps_canonical, family_to_json,
                                   group_from_json, hom_from_json,
                                   instance_from_json, instance_to_json,
                                   iso_input_from_json, iso_input_to_json,
                                   iso_to_json, load_file, loads, save_file,
                                   splitting_from_json, splitting_to_json)
from idealsplit.fixtures import (direct_sum_instance, dp_truncation,
                                 plant_defect, random_instance,
                                 transported_instance)
from idealsplit.kunneth import check_coherence, validate_instance
from idealsplit.splitter import (build_ideal_splitting, lift_isomorphism,
                                 verify_ideal_splitting)
from oracles import standard_dumps
from test_fixtures import K24, Z1, Z2, diamond24, same_nodes
from test_kunneth import Z, natural_family


def roundtrip(inst, family=None):
    doc = instance_to_json(inst, family=family)
    inst2, fam2 = instance_from_json(doc)
    assert same_nodes(inst, inst2)
    assert inst2.coeff.n == inst.coeff.n
    assert inst2.coeff.Kn == inst.coeff.Kn
    assert inst2.coeff.rho_tilde == inst.coeff.rho_tilde
    assert inst2.coeff.beta_tilde == inst.coeff.beta_tilde
    assert instance_to_json(inst2, family=fam2) == doc
    assert dumps_canonical(instance_to_json(inst2, family=fam2)) \
        == dumps_canonical(doc)
    return doc, inst2, fam2


def test_instance_round_trip():
    doc, _, fam = roundtrip(diamond24())
    assert fam is None
    assert doc["schema_version"] == SCHEMA_VERSION


def test_round_trip_dp_and_random():
    roundtrip(dp_truncation(2, 2, 1))
    roundtrip(dp_truncation(3, 1, 0))
    for seed in (0, 3, 11):
        roundtrip(random_instance(seed))


def test_parse_ignores_key_order():
    doc = instance_to_json(diamond24())
    scrambled = json.loads(json.dumps(doc, sort_keys=True))
    inst2, _ = instance_from_json(scrambled)
    assert instance_to_json(inst2) == doc


def test_save_and_load(tmp_path):
    doc = instance_to_json(diamond24())
    path = tmp_path / "inst.json"
    text = save_file(str(path), doc)
    assert text == dumps_canonical(doc)
    assert text.endswith("\n")
    assert path.read_text(encoding="utf-8") == text
    assert load_file(str(path)) == doc
    # overwrite stays atomic and canonical
    save_file(str(path), doc)
    assert path.read_text(encoding="utf-8") == text
    assert list(tmp_path.iterdir()) == [path]



def test_failed_save_leaves_no_temp_file(tmp_path, monkeypatch):
    # the target is a directory, so the final rename fails; the temp
    # file is removed and the error propagates
    doc = instance_to_json(diamond24())
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        save_file(str(target), doc)
    assert list(tmp_path.iterdir()) == [target]

    # a temp file that is already gone when the rename fails is no
    # second error: the rename's error is the one raised
    def vanish(src, dst):
        os.unlink(src)
        raise PermissionError("rename refused")

    monkeypatch.setattr(fileformat.os, "replace", vanish)
    with pytest.raises(PermissionError) as info:
        save_file(str(tmp_path / "inst.json"), doc)
    assert str(info.value) == "rename refused"
    assert list(tmp_path.iterdir()) == [target]


def test_saved_file_gets_the_mode_open_gives(tmp_path):
    # the umask sets the mode, as for a document redirected from stdout
    old = os.umask(0o022)
    try:
        save_file(str(tmp_path / "saved.json"), {"a": 1})
        with open(tmp_path / "opened.json", "w", encoding="utf-8") as fh:
            fh.write("{}\n")
    finally:
        os.umask(old)

    def mode(name):
        return stat.S_IMODE(os.stat(tmp_path / name).st_mode)

    assert mode("saved.json") == mode("opened.json") == 0o644


def test_unknown_keys_rejected():
    doc = instance_to_json(diamond24())
    bad = dict(doc, bogus=1)
    with pytest.raises(SchemaError, match="unknown key"):
        instance_from_json(bad)
    bad = json.loads(json.dumps(doc))
    bad["groups"]["K0"]["extra"] = 2
    with pytest.raises(SchemaError, match="unknown key"):
        instance_from_json(bad)


def test_missing_keys_rejected():
    doc = instance_to_json(diamond24())
    bad = {k: v for k, v in doc.items() if k != "maps"}
    with pytest.raises(SchemaError, match="missing key"):
        instance_from_json(bad)


def test_version_and_kind_checked():
    doc = instance_to_json(diamond24())
    with pytest.raises(SchemaError, match="unsupported schema_version"):
        instance_from_json(dict(doc, schema_version="2"))
    with pytest.raises(SchemaError, match="kind"):
        instance_from_json(dict(doc, kind="splitting"))


def test_matrix_shape_checked_at_parse():
    doc = json.loads(json.dumps(instance_to_json(diamond24())))
    doc["maps"]["rho_tilde"]["entries"].pop()
    with pytest.raises(SchemaError, match="declared"):
        instance_from_json(doc)
    doc = json.loads(json.dumps(instance_to_json(diamond24())))
    doc["maps"]["rho_tilde"]["rows"] += 1
    doc["maps"]["rho_tilde"]["entries"].append(
        [0] * doc["maps"]["rho_tilde"]["cols"])
    with pytest.raises(SchemaError, match="does not fit"):
        instance_from_json(doc)


def test_relation_breaking_matrix_rejected():
    # Z/2 -> Z cannot carry the generator to 1
    obj = {"rows": 1, "cols": 1, "entries": [[1]]}
    with pytest.raises(SchemaError, match="relation"):
        hom_from_json(obj, FgGroup((2,)), FgGroup((), 1), "maps.test")


def test_bad_group_records():
    with pytest.raises(SchemaError, match="divisibility"):
        group_from_json({"invariant_factors": [3, 2], "free_rank": 0}, "g")
    with pytest.raises(SchemaError, match="free rank"):
        group_from_json({"invariant_factors": [], "free_rank": -1}, "g")
    with pytest.raises(SchemaError, match="integer"):
        group_from_json({"invariant_factors": ["2"], "free_rank": 0}, "g")


def test_oversized_group_record_is_rejected():
    # a rank past fileformat.MAX_RANK fails at its location before any
    # group or matrix over it is built
    with pytest.raises(SchemaError) as err:
        group_from_json({"invariant_factors": [], "free_rank": 10 ** 6},
                        "instance.groups.K0")
    assert str(err.value) == ("instance.groups.K0: rank 1000000 exceeds "
                              "the limit 1024")
    limit = fileformat.MAX_RANK
    assert group_from_json({"invariant_factors": [], "free_rank": limit},
                           "g").rank == limit
    with pytest.raises(SchemaError, match="rank 1025 exceeds"):
        group_from_json({"invariant_factors": [2], "free_rank": limit}, "g")


def test_oversized_lattice_is_rejected_before_it_is_closed(monkeypatch):
    # more than fileformat.MAX_IDEALS nodes fail at their location
    # before IdealLattice closes the order into tables
    class Reached(Exception):
        pass

    def lattice(ids, edges):
        raise Reached(len(ids))

    monkeypatch.setattr(fileformat, "IdealLattice", lattice)
    limit = fileformat.MAX_IDEALS
    doc = json.loads(json.dumps(instance_to_json(diamond24())))
    doc["lattice"] = {"nodes": ["n%d" % i for i in range(limit + 1)],
                      "edges": []}
    with pytest.raises(SchemaError) as err:
        instance_from_json(doc)
    assert str(err.value) == ("instance.lattice.nodes: 257 nodes exceed "
                              "the limit 256")
    doc["lattice"]["nodes"].pop()
    with pytest.raises(Reached):
        instance_from_json(doc)


def test_oversized_subgroup_record_is_rejected(monkeypatch):
    # more than fileformat.MAX_RANK vectors in one subgroup record fail
    # at the record before any Hermite form runs over them
    sizes = []

    def subgroup(ambient, gens):
        sizes.append(len(gens))
        return Subgroup(ambient, gens)

    monkeypatch.setattr(fileformat, "Subgroup", subgroup)
    limit = fileformat.MAX_RANK
    doc = json.loads(json.dumps(instance_to_json(diamond24())))
    doc["ideals"]["a"]["K1"] = [[0, 2]] * (limit + 1)
    with pytest.raises(SchemaError) as err:
        instance_from_json(doc)
    assert str(err.value) == ("instance.ideals.a.K1: 1025 vectors exceed "
                              "the limit 1024")
    assert max(sizes, default=0) < limit
    doc["ideals"]["a"]["K1"].pop()
    inst, _ = instance_from_json(doc)
    assert limit in sizes
    assert inst.node("a").K1_sub == Subgroup(K24, [[0, 2]])


def test_lattice_and_ideals_cross_checked():
    doc = json.loads(json.dumps(instance_to_json(diamond24())))
    doc["lattice"]["edges"].append(["bot", "ghost"])
    with pytest.raises(SchemaError, match="unknown node"):
        instance_from_json(doc)
    doc = json.loads(json.dumps(instance_to_json(diamond24())))
    del doc["ideals"]["a"]
    with pytest.raises(SchemaError, match="missing key"):
        instance_from_json(doc)
    doc = json.loads(json.dumps(instance_to_json(diamond24())))
    doc["ideals"]["ghost"] = doc["ideals"]["a"]
    with pytest.raises(SchemaError, match="unknown key"):
        instance_from_json(doc)


def test_bad_generator_vector():
    doc = json.loads(json.dumps(instance_to_json(diamond24())))
    doc["ideals"]["a"]["K0"].append([1])
    with pytest.raises(SchemaError, match="length"):
        instance_from_json(doc)


def test_bad_n_rejected():
    doc = json.loads(json.dumps(instance_to_json(diamond24())))
    doc["n"] = 1
    with pytest.raises(SchemaError):
        instance_from_json(doc)
    doc["n"] = "2"
    with pytest.raises(SchemaError, match="integer"):
        instance_from_json(doc)


DEEP = "[" * 100000 + "]" * 100000


def test_loads_rejects_garbage():
    with pytest.raises(SchemaError, match="JSON"):
        loads("{")
    with pytest.raises(SchemaError, match="object"):
        loads("[1, 2]")
    # nested past the interpreter's recursion limit
    with pytest.raises(SchemaError, match="^not valid JSON: "):
        loads(DEEP)


def json_paths(node, path=()):
    """Every path below node: dict keys and list indices, depth first."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def test_fuzzed_documents_end_in_a_schema_error_or_an_instance():
    # every 11th-byte truncation of one seeded document, the document
    # with each path replaced in turn by each wrong value, and a file
    # nested past the recursion limit
    doc = instance_to_json(random_instance(3))
    text = dumps_canonical(doc)
    cases = [text[:cut] for cut in range(0, len(text), 11)]
    cases += [dumps_canonical(replaced(doc, path, value))
              for path in json_paths(doc)
              for value in ([], {}, "x", None, 1.5, 10**6)]
    cases.append(DEEP)
    assert len(cases) == 1062
    parsed = 0
    for case in cases:
        try:
            instance_from_json(loads(case))
        except SchemaError:
            continue
        parsed += 1
    assert 0 < parsed < len(cases)


def test_dumps_canonical_matches_the_standard_encoder():
    # byte for byte, on every kind of document the library writes (the
    # benchmark pipelines check theirs too), on the fuzzer's documents
    # and on leaves no document holds: non-ASCII and escaped strings,
    # empty containers, floats, int keys and tuples
    inst = random_instance(3)
    fam = build_ideal_splitting(inst)
    nat, _ = natural_family(Z, FgGroup((4,)), [2, 4])
    docs = [instance_to_json(inst), splitting_to_json(fam),
            instance_to_json(carrier_instance(FgGroup((4,))), family=nat),
            instance_to_json(dp_truncation(2, 4, 3)),
            validate_instance(inst).as_dict(),
            validate_instance(plant_defect(random_instance(0),
                                           "break-lattice-law")).as_dict()]
    docs += [replaced(docs[0], path, value)
             for path in json_paths(docs[0])
             for value in ([], {}, "x", None, 1.5, 10**6)]
    docs += [{"\u00e9\u2603": "snow \u2603 \U0001d11e \x00\"\\\n\t\x7f",
              "": [[], {}, [[]], [{}]], "f": [1.5, -0.0, 1e300, float("inf"),
                                           float("nan")],
              "n": [None, True, False, -7, 10**40]},
             [], {}, "\u00fc", 0, 2.5, None, True,
             {"k": {2: [1, {"a": 1.0}], 1: {}}}, (1, [2, ()]),
             {"t": (1, {"u": ()})}]
    for doc in docs:
        assert dumps_canonical(doc) == standard_dumps(doc)
    # keys that cannot be sorted fail the same way
    for write in (dumps_canonical, standard_dumps):
        with pytest.raises(TypeError):
            write({"k": {1: 0, "b": 0}})


def test_dumps_canonical_writes_instances_without_the_standard_encoder(
        monkeypatch):
    # an instance document holds only what the emitter writes itself;
    # json.dumps with an indent runs the slower pure-Python encoder
    docs = [instance_to_json(random_instance(3)),
            instance_to_json(dp_truncation(2, 4, 3))]
    texts = [dumps_canonical(doc) for doc in docs]

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(fileformat.json, "dumps", refuse)
    assert [dumps_canonical(doc) for doc in docs] == texts


# --- coherent-family block ---------------------------------------------------

def carrier_instance(K1):
    return direct_sum_instance(Z, K1, 2, {})


def test_family_block_round_trip():
    fam, _ = natural_family(Z, FgGroup((4,)), [2, 4])
    inst = carrier_instance(FgGroup((4,)))
    doc, _, fam2 = roundtrip(inst, family=fam)
    assert "coherent_family" in doc
    assert fam2 is not None
    assert check_coherence(fam2).ok
    assert family_to_json(fam2) == family_to_json(fam)
    assert fam2.sigmas is not None and fam2.lam


def test_family_block_without_sigmas():
    fam, _ = natural_family(Z, FgGroup((4,)), [2, 4], sigmas=False)
    inst = carrier_instance(FgGroup((4,)))
    doc, _, fam2 = roundtrip(inst, family=fam)
    assert "sigmas" not in doc["coherent_family"]
    assert fam2.sigmas is None


def test_family_block_bad_keys():
    fam, _ = natural_family(Z, FgGroup((4,)), [2, 4])
    inst = carrier_instance(FgGroup((4,)))
    doc = json.loads(json.dumps(instance_to_json(inst, family=fam)))
    doc["coherent_family"]["kappa"]["4-2"] = \
        doc["coherent_family"]["kappa"].pop("4,2")
    with pytest.raises(SchemaError, match="pair key"):
        instance_from_json(doc)
    doc = json.loads(json.dumps(instance_to_json(inst, family=fam)))
    doc["coherent_family"]["sigmas"]["8"] = \
        doc["coherent_family"]["sigmas"]["2"]
    with pytest.raises(SchemaError, match="not in the family"):
        instance_from_json(doc)
    doc = json.loads(json.dumps(instance_to_json(inst, family=fam)))
    doc["coherent_family"]["sigmas"]["two"] = \
        doc["coherent_family"]["sigmas"].pop("2")
    with pytest.raises(SchemaError) as info:
        instance_from_json(doc)
    assert str(info.value) == \
        "instance.coherent_family.sigmas: bad coefficient key 'two'"


def test_library_errors_keep_their_schema_location():
    # a library error raised while an object is built from a document
    # becomes a SchemaError prefixed by the path of that object; a
    # SchemaError raised there already names its path and keeps it
    def instance_doc(edit, family=False):
        if family:
            fam, _ = natural_family(Z, FgGroup((4,)), [2, 4])
            inst = carrier_instance(FgGroup((4,)))
            doc = instance_to_json(inst, family=fam)
        else:
            doc = instance_to_json(diamond24())
        doc = json.loads(json.dumps(doc))
        edit(doc)
        return doc

    def k1_factors(doc):
        doc["groups"]["K1"]["invariant_factors"] = [4, 2]

    def long_vector(doc):
        doc["ideals"]["a"]["K0"] = [[1, 0, 0]]

    def unlisted_record(doc):
        doc["ideals"]["a"]["K0"] = {}

    def unlisted_vector(doc):
        doc["ideals"]["a"]["K0"] = [7]

    def text_entry(doc):
        doc["ideals"]["a"]["K0"] = [[1, "x"]]

    def zero_n(doc):
        doc["n"] = 0

    def one_n(doc):
        doc["n"] = 1

    def cycle(doc):
        doc["lattice"]["edges"].append(["top", "bot"])

    def zero_coefficient(doc):
        block = doc["coherent_family"]
        block["coefficients"] = [0, 2, 4]
        block["coeff_groups"]["0"] = block["coeff_groups"]["2"]

    def one_coefficient(doc):
        block = doc["coherent_family"]
        block["coefficients"] = [1, 2, 4]
        block["coeff_groups"]["1"] = block["coeff_groups"]["2"]

    def upward_lambda(doc):
        doc["coherent_family"]["lambda"]["2,4"] = {
            "rows": 1, "cols": 1, "entries": [[1]]}

    def listed(block):
        def edit(doc):
            doc["coherent_family"][block] = []
        return edit

    cases = [
        (k1_factors, False, "instance.groups.K1: broken divisibility chain: "
         "4 does not divide 2"),
        (long_vector, False,
         "instance.ideals.a.K0[0]: vector length 3, ambient rank 2"),
        (unlisted_record, False, "instance.ideals.a.K0: expected a list"),
        (unlisted_vector, False, "instance.ideals.a.K0[0]: expected a list"),
        (text_entry, False,
         "instance.ideals.a.K0[0]: expected an integer, got 'x'"),
        (zero_n, False, "instance.n: modulus must be positive"),
        (one_n, False, "instance.n: coefficient must be an integer >= 2"),
        (cycle, False,
         "instance.lattice: order relation has a cycle through 'a'"),
        (zero_coefficient, True, "instance.coherent_family.coeff_groups.0: "
         "modulus must be positive"),
        (one_coefficient, True, "instance.coherent_family.coeff_groups.1: "
         "coefficient must be an integer >= 2"),
        (upward_lambda, True, "instance.coherent_family: lambda key (2, 4) "
         "is not an n | m pair"),
        (listed("kappa"), True,
         "instance.coherent_family.kappa: expected an object"),
        (listed("lambda"), True,
         "instance.coherent_family.lambda: expected an object"),
        (listed("sigmas"), True,
         "instance.coherent_family.sigmas: expected an object"),
    ]
    for edit, family, message in cases:
        with pytest.raises(SchemaError) as info:
            instance_from_json(instance_doc(edit, family))
        assert str(info.value) == message
    with pytest.raises(SchemaError) as info:
        hom_from_json({"rows": 1, "cols": 1, "entries": [[1]]},
                      FgGroup((2,)), FgGroup((), 1), "maps.test")
    assert str(info.value) == ("maps.test: entry (0,0) breaks relation: "
                               "1 * order 2 != 0 mod 0 (free)")


# --- splitting and iso documents ---------------------------------------------

def test_splitting_round_trip():
    inst = diamond24()
    fam = build_ideal_splitting(inst)
    doc = splitting_to_json(fam)
    fam2 = splitting_from_json(doc, inst)
    assert fam2 == fam
    assert verify_ideal_splitting(inst, fam2).ok
    assert splitting_to_json(fam2) == doc
    bad = json.loads(json.dumps(doc))
    del bad["sigmas"]["a"]
    with pytest.raises(SchemaError, match="missing key"):
        splitting_from_json(bad, inst)


def test_iso_documents_round_trip():
    inst = diamond24()
    phi0 = GroupHom(Z2, Z2, [[0, 1], [1, 0]])
    phi1 = GroupHom.identity(K24)
    other, pairing = transported_instance(inst, phi0, phi1)
    doc = iso_input_to_json(phi0, phi1, pairing)
    p0, p1, pr = iso_input_from_json(json.loads(json.dumps(doc)),
                                     inst, other)
    assert (p0, p1, pr) == (phi0, phi1, pairing)
    iso = lift_isomorphism(inst, other, phi0, phi1, pairing)
    iso_doc = iso_to_json(iso)
    iso2 = complex_iso_from_json(json.loads(json.dumps(iso_doc)),
                                 inst, other)
    assert iso2.phi == iso.phi
    assert iso2.phi0 == iso.phi0
    assert iso2.phi1 == iso.phi1
    assert iso2.pairing == iso.pairing
    assert iso_to_json(iso2) == iso_doc


def test_iso_input_bad_pairing_target():
    inst = diamond24()
    phi0 = GroupHom.identity(Z2)
    phi1 = GroupHom.identity(K24)
    doc = iso_input_to_json(phi0, phi1, {i: i for i in inst.order.nodes})
    doc["pairing"]["a"] = "ghost"
    with pytest.raises(SchemaError, match="unknown target"):
        iso_input_from_json(doc, inst, inst)
