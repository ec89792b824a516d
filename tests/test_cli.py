"""End-to-end tests for the command-line front end."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from idealsplit import fileformat
from idealsplit.cli import main
from idealsplit.errors import SplittingObstructionError
from idealsplit.fgab import FgGroup, GroupHom
from idealsplit.fileformat import (dumps_canonical, instance_from_json,
                                   instance_to_json, iso_input_to_json,
                                   load_file, save_file,
                                   splitting_from_json)
from idealsplit.fixtures import (direct_sum_instance, dp_truncation,
                                 random_instance, transported_instance)
from idealsplit.kunneth import CoherentFamily
from idealsplit.splitter import SplittingFamily, verify_ideal_splitting
from test_fixtures import K24, Z1, Z2, diamond24, same_nodes
from test_kunneth import Z, natural_family


def write_instance(tmp_path, inst, name="inst.json", family=None):
    path = tmp_path / name
    save_file(str(path), instance_to_json(inst, family=family))
    return str(path)


# --- validate ----------------------------------------------------------------

def test_validate_ok(tmp_path, capsys):
    path = write_instance(tmp_path, diamond24())
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "checks passed" in out
    assert "FAIL" not in out


def test_validate_dp_overfull_names_exactness(tmp_path, capsys):
    path = write_instance(tmp_path, dp_truncation(2, 1, 1))
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "FAIL ideal-exactness:surjective:I1" in out


def test_validate_json_format(tmp_path, capsys):
    path = write_instance(tmp_path, diamond24())
    assert main(["validate", "--format", "json", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert {"lattice-shape", "k0-torsion-free"} \
        <= {c["name"] for c in doc["checks"]}


def test_validate_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    missing = tmp_path / "nope.json"
    assert main(["validate", str(missing)]) == 2
    # bytes that are not UTF-8, an integer past the interpreter's digit
    # limit and nesting past its recursion limit are file errors too
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    capsys.readouterr()
    assert main(["validate", str(binary)]) == 2
    assert capsys.readouterr().err == (
        "error: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n")
    huge = tmp_path / "huge.json"
    huge.write_text('{"n": %s}' % ("1" * 5000), encoding="utf-8")
    assert main(["validate", str(huge)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: Exceeds the limit (4300 digits) for integer string")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    assert main(["validate", str(deep)]) == 2
    assert capsys.readouterr().err.startswith("error: not valid JSON: ")


def test_bug_in_a_check_is_not_a_usage_error(tmp_path, monkeypatch):
    # only bad input exits 2; a ValueError from inside the library is a
    # bug and propagates
    path = write_instance(tmp_path, diamond24())

    def broken(inst):
        raise ValueError("boom")

    monkeypatch.setattr("idealsplit.cli.validate_instance", broken)
    with pytest.raises(ValueError, match="boom"):
        main(["validate", path])


def test_validate_bad_matrix_shape(tmp_path, capsys):
    doc = instance_to_json(diamond24())
    doc["maps"]["rho_tilde"]["entries"] = [[0]]
    bad = tmp_path / "shape.json"
    bad.write_text(dumps_canonical(doc), encoding="utf-8")
    assert main(["validate", str(bad)]) == 2


def test_validate_mistyped_family_block_exits_2(tmp_path, capsys):
    # a coherent family whose kappa is a list, not an object, is a file
    # error located at the block, not a traceback
    fam, _ = natural_family(Z, FgGroup((4,)), [2, 4])
    inst = direct_sum_instance(Z, FgGroup((4,)), 2, {})
    doc = instance_to_json(inst, family=fam)
    doc["coherent_family"]["kappa"] = []
    path = tmp_path / "mistyped.json"
    save_file(str(path), doc)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: instance.coherent_family.kappa: "
                   "expected an object"]


def test_validate_oversized_group_exits_2(tmp_path, capsys):
    # a hostile free rank is a file error, not a hang or a traceback
    doc = instance_to_json(diamond24())
    doc["groups"]["K0"]["free_rank"] = 10 ** 6
    path = tmp_path / "huge.json"
    save_file(str(path), doc)
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: instance.groups.K0: rank 1000000 exceeds the limit 1024"]


def test_validate_oversized_lattice_and_subgroup_exit_2(tmp_path, capsys):
    # too many ideals or too many vectors in one subgroup record are
    # file errors, not a long lattice closure or Hermite form
    many_nodes = instance_to_json(diamond24())
    many_nodes["lattice"]["nodes"] += ["n%d" % i for i in range(253)]
    many_vectors = instance_to_json(diamond24())
    many_vectors["ideals"]["b"]["K0"] = [[0, 1]] * 1025
    for doc, message in (
            (many_nodes, "instance.lattice.nodes: 257 nodes exceed the "
             "limit 256"),
            (many_vectors, "instance.ideals.b.K0: 1025 vectors exceed the "
             "limit 1024")):
        path = tmp_path / "huge.json"
        save_file(str(path), doc)
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: " + message]


def test_validate_includes_family_checks(tmp_path, capsys):
    fam, _ = natural_family(Z, FgGroup((4,)), [2, 4])
    inst = direct_sum_instance(Z, FgGroup((4,)), 2, {})
    path = write_instance(tmp_path, inst, family=fam)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "eq1:2,4" in out


# --- split -------------------------------------------------------------------

def test_split_writes_verifiable_family(tmp_path, capsys):
    inst = diamond24()
    path = write_instance(tmp_path, inst)
    out_path = tmp_path / "fam.json"
    assert main(["split", path, "-o", str(out_path)]) == 0
    fam = splitting_from_json(load_file(str(out_path)), inst)
    assert verify_ideal_splitting(inst, fam).ok


def test_split_stdout_is_stable_and_strategy_is_gone(tmp_path, capsys):
    path = write_instance(tmp_path, diamond24())
    assert main(["split", path]) == 0
    first = capsys.readouterr()
    assert main(["split", path]) == 0
    again = capsys.readouterr()
    assert again.out == first.out and again.err == first.err == ""
    # one extension path: the option that chose between two is rejected
    assert main(["split", "--strategy", "solver", path]) == 2


def test_split_torsion_free_k1_gives_zero_family(tmp_path, capsys):
    inst = direct_sum_instance(Z2, FgGroup((), 1), 2,
                               {"a": ((0,), (0,)), "b": ((1,), ())})
    path = write_instance(tmp_path, inst)
    assert main(["split", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    for rec in doc["sigmas"].values():
        assert rec["cols"] == 0


def test_split_invalid_instance_exits_1(tmp_path, capsys):
    path = write_instance(tmp_path, dp_truncation(2, 1, 1))
    assert main(["split", path]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_split_force_names_blocking_ideal(tmp_path, capsys):
    path = write_instance(tmp_path, dp_truncation(2, 1, 1))
    assert main(["split", path, "--force"]) == 1
    err = capsys.readouterr().err
    assert "no ideal splitting" in err and "'I1'" in err


def test_split_force_library_error_exits_1(tmp_path, capsys):
    # K1(b) = <(0, 1)> no longer contains K1(a) = <(1, 0)>, so building
    # the splitting at b restricts to a subgroup that is not one; the
    # library error must end in exit 1, not a traceback
    inst = direct_sum_instance(Z, FgGroup((2, 4)), 2,
                               {"a": ((), (0,)), "b": ((0,), (0, 1))})
    doc = instance_to_json(inst)
    doc["ideals"]["b"]["K1"] = [[0, 1]]
    path = tmp_path / "broken.json"
    save_file(str(path), doc)
    assert main(["split", str(path), "--force"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_split_with_oracle_agreement(tmp_path, capsys):
    path = write_instance(tmp_path, diamond24())
    assert main(["split", path, "--oracle"]) == 0
    assert "oracle agrees" in capsys.readouterr().err


def test_split_oracle_respects_bound(tmp_path, capsys):
    path = write_instance(tmp_path, diamond24())
    assert main(["split", path, "--oracle", "--bound", "1"]) == 0
    assert "oracle skipped" in capsys.readouterr().err


def test_split_oracle_on_obstructed_instance(tmp_path, capsys):
    # valid but unsplittable: builder and oracle must agree on "no"
    K0, K1, Kn = FgGroup((), 1), FgGroup((2,)), FgGroup((4,))
    from idealsplit.fgab import Subgroup, tensor_zmod, n_torsion_group
    from idealsplit.kunneth import (CoeffGroup, IdealNode, KData,
                                    KunnethInstance)
    from idealsplit.lattice import IdealLattice
    T, _ = tensor_zmod(K0, 2)
    T1, _ = n_torsion_group(K1, 2)
    inst = KunnethInstance(
        KData(K0, K1),
        CoeffGroup(2, Kn, GroupHom(T, Kn, [[2]]), GroupHom(Kn, T1, [[1]])),
        [IdealNode("bot", Subgroup.zero(K0), Subgroup.zero(K1),
                   Subgroup.zero(Kn)),
         IdealNode("top", Subgroup.full(K0), Subgroup.full(K1),
                   Subgroup.full(Kn))],
        IdealLattice(["bot", "top"], [("bot", "top")]))
    path = write_instance(tmp_path, inst)
    assert main(["split", path, "--oracle"]) == 1
    err = capsys.readouterr().err
    assert "no ideal splitting" in err
    assert "DISAGREEMENT" not in err


def zero_family(inst):
    """The zero map at every ideal: a section only where K1(I)[n] is 0."""
    return SplittingFamily({
        i: GroupHom.zero(inst.torsion_sub(i).as_group()[0], inst.coeff.Kn)
        for i in inst.order.nodes})


def test_split_oracle_catches_a_builder_that_says_no(tmp_path, capsys,
                                                     monkeypatch):
    # bug guard: a builder that reports an obstruction where sections
    # exist is an exit 3, not a "no"
    def obstructed(inst, validate=True):
        raise SplittingObstructionError("planted", ideal="top")

    monkeypatch.setattr("idealsplit.cli.build_ideal_splitting", obstructed)
    path = write_instance(tmp_path, diamond24())
    assert main(["split", path, "--oracle"]) == 3
    assert capsys.readouterr().err == (
        "ORACLE DISAGREEMENT: builder found no splitting but 4 "
        "ideal-respecting sections exist\n")


def test_split_catches_a_builder_that_returns_no_section(tmp_path, capsys,
                                                         monkeypatch):
    # bug guard: a family that is no splitting is stopped by the oracle
    # (exit 3) or, without it, by the verifier (exit 1), and never
    # written out
    monkeypatch.setattr("idealsplit.cli.build_ideal_splitting",
                        lambda inst, validate=True: zero_family(inst))
    path = write_instance(tmp_path, diamond24())
    assert main(["split", path, "--oracle"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "ORACLE DISAGREEMENT: built section is outside the feasible "
        "set\n")
    assert main(["split", path]) == 1
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert [line for line in out if not line.startswith("ok   ")] == [
        "FAIL splitting-identity:%s: beta_tilde . sigma != id on "
        "K1(%s)[n]" % (i, i) for i in ("a", "b", "top")] \
        + ["3 of 17 checks failed"]
    assert captured.err == ""


# --- lift --------------------------------------------------------------------

def test_lift_identity_writes_identity(tmp_path, capsys):
    inst = diamond24()
    path = write_instance(tmp_path, inst)
    iso_in = tmp_path / "iso-in.json"
    save_file(str(iso_in), iso_input_to_json(
        GroupHom.identity(Z2), GroupHom.identity(K24),
        {i: i for i in inst.order.nodes}))
    assert main(["lift", path, path, str(iso_in)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "complex-iso"
    n = doc["phi"]["rows"]
    assert doc["phi"]["entries"] == [[1 if i == j else 0 for j in range(n)]
                                     for i in range(n)]


def test_lift_block_swap(tmp_path, capsys):
    inst = diamond24()
    phi0 = GroupHom(Z2, Z2, [[0, 1], [1, 0]])
    phi1 = GroupHom.identity(K24)
    other, pairing = transported_instance(inst, phi0, phi1)
    path_a = write_instance(tmp_path, inst, "a.json")
    path_b = write_instance(tmp_path, other, "b.json")
    iso_in = tmp_path / "iso-in.json"
    save_file(str(iso_in), iso_input_to_json(phi0, phi1, pairing))
    out_path = tmp_path / "iso.json"
    assert main(["lift", path_a, path_b, str(iso_in),
                 "-o", str(out_path)]) == 0
    doc = load_file(str(out_path))
    assert doc["phi0"]["entries"] == [[0, 1], [1, 0]]


def test_lift_bad_pairing_exits_1(tmp_path, capsys):
    inst = diamond24()
    path = write_instance(tmp_path, inst)
    pairing = {i: i for i in inst.order.nodes}
    pairing["a"], pairing["b"] = "b", "a"
    iso_in = tmp_path / "iso-in.json"
    save_file(str(iso_in), iso_input_to_json(
        GroupHom.identity(Z2), GroupHom.identity(K24), pairing))
    assert main(["lift", path, path, str(iso_in)]) == 1
    assert "error:" in capsys.readouterr().err


# --- gen ---------------------------------------------------------------------

def test_gen_dp_is_canonical(tmp_path, capsys):
    assert main(["gen", "dp", "--p", "2", "--m", "1", "--k", "0"]) == 0
    text = capsys.readouterr().out
    assert text == dumps_canonical(instance_to_json(dp_truncation(2, 1, 0)))


def test_gen_twisted_deterministic(capsys):
    assert main(["gen", "twisted", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "twisted", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    inst, _ = instance_from_json(json.loads(first))
    assert same_nodes(inst, random_instance(7))


def test_gen_aligned_differs_from_twisted(capsys):
    assert main(["gen", "aligned", "--seed", "3"]) == 0
    aligned = capsys.readouterr().out
    inst, _ = instance_from_json(json.loads(aligned))
    assert same_nodes(inst, random_instance(3, twist=False))


def test_gen_defect_roundtrip(tmp_path, capsys):
    base = direct_sum_instance(Z1, K24, 2, {"m0": ((0,), (1,))})
    base_path = write_instance(tmp_path, base, "base.json")
    out_path = tmp_path / "defect.json"
    assert main(["gen", "defect", "--kind", "break-purity",
                 "--base", base_path, "-o", str(out_path)]) == 0
    assert main(["validate", str(out_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL purity" in out


def test_gen_defect_from_seed(tmp_path, capsys):
    # the README's example: no --base, so the defect is planted on the
    # seed's aligned instance
    out_path = tmp_path / "defect.json"
    assert main(["gen", "defect", "--kind", "break-purity", "--seed", "12",
                 "-o", str(out_path)]) == 0
    assert main(["validate", "--format", "json", str(out_path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    failed = [c["name"] for c in doc["checks"] if not c["ok"]]
    assert failed and all(name.startswith("purity:") for name in failed)


def test_gen_defect_not_applicable(tmp_path, capsys):
    # torsion-free K1: no torsion generator can be scaled inward
    base = direct_sum_instance(Z2, FgGroup((), 1), 2,
                               {"m0": ((0,), (0,))})
    base_path = write_instance(tmp_path, base, "base.json")
    assert main(["gen", "defect", "--kind", "break-purity",
                 "--base", base_path]) == 1
    assert "break-purity" in capsys.readouterr().err


def test_gen_bad_params(capsys):
    assert main(["gen", "dp", "--p", "4", "--m", "1", "--k", "0"]) == 2
    assert capsys.readouterr().err == "error: p must be prime, got 4\n"
    assert main(["gen", "dp", "--p", "2", "--m", "4", "--k", "5"]) == 2
    assert capsys.readouterr().err \
        == "error: need m >= 1 and 0 <= k_max <= m\n"
    assert main(["gen", "dp", "--p", "2"]) == 2
    assert capsys.readouterr().err \
        == "error: gen dp needs --p, --m and --k\n"
    # refused before anything is built: a Kn rank that no document may
    # declare, and a p too large to test for primality by trial division
    assert main(["gen", "dp", "--p", "2", "--m", "520", "--k", "0"]) == 2
    assert capsys.readouterr().err \
        == "error: --m 520 gives Kn rank 1041, over the limit 1024\n"
    assert main(["gen", "dp", "--p", "2", "--m", "512", "--k", "0"]) == 2
    assert capsys.readouterr().err \
        == "error: --m 512 gives Kn rank 1025, over the limit 1024\n"
    assert main(["gen", "dp", "--p", "100000000000000000039", "--m", "1",
                 "--k", "0"]) == 2
    assert capsys.readouterr().err == ("error: --p 100000000000000000039 "
                                       "exceeds the limit 1000000000\n")
    assert main(["gen", "defect"]) == 2
    assert main(["gen", "aligned", "--coeffs", "x"]) == 2
    assert main(["gen", "aligned", "--coeffs", "1,2"]) == 2


def test_gen_coeffs_menu(capsys):
    assert main(["gen", "aligned", "--seed", "1", "--coeffs", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 3


# --- gamma-check -------------------------------------------------------------

def test_gamma_check_ok(tmp_path, capsys):
    path = write_instance(tmp_path, diamond24())
    assert main(["gamma-check", path, "--ideal", "top",
                 "--parts", "a,b"]) == 0
    assert "exact" in capsys.readouterr().out


def test_gamma_check_witness_on_mutant(tmp_path, capsys):
    from idealsplit.fixtures import plant_defect
    mutant = plant_defect(diamond24(), "break-lattice-law")
    path = write_instance(tmp_path, mutant)
    assert main(["gamma-check", path, "--ideal", "top",
                 "--parts", "a,b"]) == 1
    assert "FAIL gamma-exactness" in capsys.readouterr().out


def test_gamma_check_bad_ids(tmp_path, capsys):
    path = write_instance(tmp_path, diamond24())
    assert main(["gamma-check", path, "--ideal", "top",
                 "--parts", "a,ghost"]) == 2
    assert main(["gamma-check", path, "--ideal", "bot",
                 "--parts", "a,b"]) == 1  # parts not below bot


def test_gamma_check_without_parts_is_a_usage_error(tmp_path, capsys):
    path = write_instance(tmp_path, diamond24())
    capsys.readouterr()
    for parts in (",", ""):
        assert main(["gamma-check", path, "--ideal", "top",
                     "--parts", parts]) == 2
        assert capsys.readouterr() == ("", "error: --parts names no ideal\n")


# --- coherence-check ---------------------------------------------------------

def test_coherence_check_ok(tmp_path, capsys):
    fam, _ = natural_family(Z, FgGroup((4,)), [2, 4])
    inst = direct_sum_instance(Z, FgGroup((4,)), 2, {})
    path = write_instance(tmp_path, inst, family=fam)
    assert main(["coherence-check", path]) == 0
    out = capsys.readouterr().out
    assert "ok   family-coherence" in out


def test_coherence_check_requires_block(tmp_path, capsys):
    path = write_instance(tmp_path, diamond24())
    assert main(["coherence-check", path]) == 2
    assert "coherent-family" in capsys.readouterr().err


def test_coherence_check_rejects_perturbation(tmp_path, capsys):
    fam, _ = natural_family(Z, FgGroup((4,)), [2, 4])
    inst = direct_sum_instance(Z, FgGroup((4,)), 2, {})
    doc = instance_to_json(inst, family=fam)
    entries = doc["coherent_family"]["kappa"]["4,2"]["entries"]
    entries[0][0] = (entries[0][0] + 2) % 4
    path = tmp_path / "bad-kappa.json"
    save_file(str(path), doc)
    assert main(["coherence-check", str(path)]) == 1
    assert "FAIL eq" in capsys.readouterr().out


def family_doc(sigma_4_shift=False):
    """The natural Z, Z/4 family over n in {2, 4} as an instance
    document; with ``sigma_4_shift`` sigma_4 is still a section but is
    moved into the tensor summand, so it breaks family coherence."""
    fam, parts = natural_family(Z, FgGroup((4,)), [2, 4])
    if sigma_4_shift:
        shift = GroupHom(parts[4].T1, parts[4].T, [[1]])
        sigmas = dict(fam.sigmas)
        sigmas[4] = parts[4].i2 + (parts[4].i1 @ shift)
        fam = CoherentFamily(fam.data, fam.coeffs, fam.kappa, fam.lam,
                             sigmas)
    inst = direct_sum_instance(Z, FgGroup((4,)), 2, {})
    return instance_to_json(inst, family=fam)


def run_coherence_check(tmp_path, capsys, doc):
    path = tmp_path / "family.json"
    save_file(str(path), doc)
    code = main(["coherence-check", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def test_coherence_check_rejects_alias_coefficient_keys(tmp_path, capsys):
    # a broken entry under a second spelling of a key was read, then
    # overwritten by the canonical entry, and every check passed
    for block, key, alias, bad in (("kappa", "4,2", "4,02", "02"),
                                   ("lambda", "4,2", "+4,2", "+4"),
                                   ("sigmas", "4", " 4", " 4"),
                                   ("sigmas", "4", "0_4", "0_4")):
        doc = family_doc()
        entries = doc["coherent_family"][block]
        entries[alias] = copy.deepcopy(entries[key])
        row = entries[alias]["entries"][0]
        row[0] = (row[0] + 2) % 4
        assert run_coherence_check(tmp_path, capsys, doc) == (
            2, "", "error: instance.coherent_family.%s: "
            "bad coefficient key %r\n" % (block, bad))


def test_coherence_check_incoherent_family_output(tmp_path, capsys):
    assert run_coherence_check(tmp_path, capsys,
                               family_doc(sigma_4_shift=True)) == (
        1,
        "ok   eq1:2,4\nok   eq2:2,4\nok   eq1:4,2\nok   eq2:4,2\n"
        "FAIL family-coherence: sigma_m . lambda_{m,n} != "
        "kappa_{m,n} . sigma_n for some n | m\n"
        "1 of 5 checks failed\n",
        "")


def test_coherence_check_missing_lambda_output(tmp_path, capsys):
    doc = family_doc()
    del doc["coherent_family"]["lambda"]
    assert run_coherence_check(tmp_path, capsys, doc) == (
        1, "", "error: lambda[4,2] is missing\n")


def test_coherence_check_missing_sigma_output(tmp_path, capsys):
    doc = family_doc()
    del doc["coherent_family"]["sigmas"]["4"]
    assert run_coherence_check(tmp_path, capsys, doc) == (
        1, "", "error: sigma at 4 is missing\n")


# --- argparse plumbing -------------------------------------------------------

def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    assert main(["--help"]) == 0


def test_module_entry_point_runs_main():
    # `python -m idealsplit.cli` goes through entry(), the console-script
    # hook, which exits with main's return code
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "idealsplit.cli", "--help"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: idealsplit ")


def test_coherence_check_bounds_the_coefficient_list(tmp_path, capsys):
    # check_coherence's rows grow as the cube of the coefficient count,
    # so a longer list, or one naming a coefficient twice, is refused
    # before any per-coefficient work
    limit = fileformat.MAX_COEFFICIENTS
    for listed, message in (
            (list(range(2, limit + 3)),
             "%d coefficients exceed the limit %d" % (limit + 1, limit)),
            ([2] * 200000, "200000 coefficients exceed the limit %d" % limit),
            ([2, 4, 2], "2 is listed twice")):
        doc = family_doc()
        doc["coherent_family"]["coefficients"] = listed
        assert run_coherence_check(tmp_path, capsys, doc) == (
            2, "", "error: instance.coherent_family.coefficients: %s\n"
            % message)


def test_format_is_offered_only_where_a_report_is_printed(tmp_path, capsys):
    path = tmp_path / "inst.json"
    save_file(str(path), instance_to_json(diamond24()))
    for argv in (["gen", "aligned", "--format", "json"],
                 ["lift", str(path), str(path), str(path), "--format",
                  "json"],
                 ["gamma-check", str(path), "--ideal", "top", "--parts",
                  "a,b", "--format", "json"]):
        assert main(argv) == 2
        assert "unrecognized arguments: --format json" in \
            capsys.readouterr().err
