"""Canonical JSON serialization for instances, families, and results.

One self-contained document per file, schema_version "1".  Serialization
is canonical (sorted keys, two-space indent, single trailing newline),
so equal objects produce identical bytes and corpora diff cleanly.
Parsing is strict: an unknown, missing, or ill-typed key raises
SchemaError instead of being ignored, and matrix shapes are declared
explicitly so dimension bugs surface at parse time.
"""

import json
import os
from contextlib import contextmanager

from .errors import IdealSplitError, SchemaError
from .fgab import FgGroup, GroupHom, Subgroup, n_torsion_group, tensor_zmod
from .kunneth import (CoeffGroup, CoherentFamily, IdealNode, KData,
                      KunnethInstance)
from .lattice import IdealLattice
from .splitter import ComplexIso, SplittingFamily

SCHEMA_VERSION = "1"

# Largest group rank (invariant factors plus free rank) a document may
# declare, and most vectors one subgroup record may list: maps are dense
# over these ranks and a Hermite form runs over every vector, so more
# would stall parsing rather than fail.  The fixtures stay far below.
MAX_RANK = 1024
# Most ideals a lattice may have: the order's tables hold N^2 meets and
# joins, each found by intersecting two sets of up to N nodes, so
# closing the order grows as N^3 in the node count.
MAX_IDEALS = 256
# Most coefficients a coherent family may list: check_coherence makes one
# eq3 row per divisor triple, so its report grows as k^3 in the count k
# (a gcd-closed chain of 100 took 15 s and printed 990,000 lines); 32
# keep it under 32^3 rows.  The fixtures list at most 7.
MAX_COEFFICIENTS = 32


@contextmanager
def _schema(where):
    """Turn a library error raised while building an object from a
    document into a SchemaError located at ``where``.  A SchemaError
    already carries its own location and passes through unchanged."""
    try:
        yield
    except SchemaError:
        raise
    except (IdealSplitError, ValueError) as exc:
        raise SchemaError("%s: %s" % (where, exc))


def _object(x, where):
    if not isinstance(x, dict):
        raise SchemaError("%s: expected an object" % where)
    return x


def _check_keys(obj, where, required, optional=()):
    _object(obj, where)
    for k in required:
        if k not in obj:
            raise SchemaError("%s: missing key %r" % (where, k))
    for k in obj:
        if k not in required and k not in optional:
            raise SchemaError("%s: unknown key %r" % (where, k))


def _int(x, where):
    if not isinstance(x, int) or isinstance(x, bool):
        raise SchemaError("%s: expected an integer, got %r" % (where, x))
    return x


def _ints(xs, where):
    if set(map(type, xs)) <= {int}:
        return list(xs)
    return [_int(x, where) for x in xs]


def _str(x, where):
    if not isinstance(x, str):
        raise SchemaError("%s: expected a string, got %r" % (where, x))
    return x


def _list(x, where):
    if not isinstance(x, list):
        raise SchemaError("%s: expected a list" % where)
    return x


def _head(doc, where, kind):
    _str(doc.get("schema_version"), where + ".schema_version")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise SchemaError("%s: unsupported schema_version %r"
                          % (where, doc["schema_version"]))
    if doc.get("kind") != kind:
        raise SchemaError("%s: expected kind %r, got %r"
                          % (where, kind, doc.get("kind")))


# --- scalars of the format ---------------------------------------------------

def group_to_json(group):
    return {"invariant_factors": list(group.invariant_factors),
            "free_rank": group.free_rank}


def group_from_json(obj, where):
    _check_keys(obj, where, ("invariant_factors", "free_rank"))
    factors = [_int(d, where + ".invariant_factors")
               for d in _list(obj["invariant_factors"],
                              where + ".invariant_factors")]
    rank = _int(obj["free_rank"], where + ".free_rank")
    if len(factors) + rank > MAX_RANK:
        raise SchemaError("%s: rank %d exceeds the limit %d"
                          % (where, len(factors) + rank, MAX_RANK))
    with _schema(where):
        return FgGroup(tuple(factors), rank)


def matrix_to_json(hom):
    return {"rows": hom.codomain.rank, "cols": hom.domain.rank,
            "entries": [list(row) for row in hom.matrix]}


def _entries_from_json(obj, where):
    _check_keys(obj, where, ("rows", "cols", "entries"))
    rows = _int(obj["rows"], where + ".rows")
    cols = _int(obj["cols"], where + ".cols")
    entries = _list(obj["entries"], where + ".entries")
    if len(entries) != rows:
        raise SchemaError("%s: declared %d rows, found %d"
                          % (where, rows, len(entries)))
    out = []
    for i, row in enumerate(entries):
        row = _list(row, "%s.entries[%d]" % (where, i))
        if len(row) != cols:
            raise SchemaError("%s: row %d has %d entries, declared cols %d"
                              % (where, i, len(row), cols))
        out.append(_ints(row, "%s.entries[%d]" % (where, i)))
    return rows, cols, out


def hom_from_json(obj, domain, codomain, where):
    rows, cols, entries = _entries_from_json(obj, where)
    if rows != codomain.rank or cols != domain.rank:
        raise SchemaError(
            "%s: shape %dx%d does not fit a map of rank %d into rank %d"
            % (where, rows, cols, domain.rank, codomain.rank))
    with _schema(where):
        return GroupHom(domain, codomain, entries)


def _vectors_from_json(obj, ambient, where):
    vecs = []
    for i, vec in enumerate(_list(obj, where)):
        vec = _list(vec, "%s[%d]" % (where, i))
        if len(vec) != ambient.rank:
            raise SchemaError("%s[%d]: vector length %d, ambient rank %d"
                              % (where, i, len(vec), ambient.rank))
        vecs.append(_ints(vec, "%s[%d]" % (where, i)))
    return vecs


def _subgroup_from_json(obj, ambient, where):
    if isinstance(obj, list) and len(obj) > MAX_RANK:
        raise SchemaError("%s: %d vectors exceed the limit %d"
                          % (where, len(obj), MAX_RANK))
    with _schema(where):
        return Subgroup(ambient, _vectors_from_json(obj, ambient, where))


# --- instances ---------------------------------------------------------------

def instance_to_json(inst, family=None):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "instance",
        "n": inst.coeff.n,
        "groups": {"K0": group_to_json(inst.data.K0),
                   "K1": group_to_json(inst.data.K1),
                   "Kn": group_to_json(inst.coeff.Kn)},
        "maps": {"rho_tilde": matrix_to_json(inst.coeff.rho_tilde),
                 "beta_tilde": matrix_to_json(inst.coeff.beta_tilde)},
        "lattice": {"nodes": list(inst.order.nodes),
                    "edges": sorted([a, b] for a, b in
                                    inst.order.cover_edges())},
        "ideals": {i: {"K0": [list(v) for v in inst.node(i).K0_sub.generators],
                       "K1": [list(v) for v in inst.node(i).K1_sub.generators],
                       "Kn": [list(v) for v in inst.node(i).Kn_sub.generators]}
                   for i in inst.order.nodes},
    }
    if family is not None:
        doc["coherent_family"] = family_to_json(family)
    return doc


def instance_from_json(doc):
    """Parse an instance document.

    Returns ``(instance, family_or_None)``.  Structural problems raise
    SchemaError; semantic validity stays validate_instance's business.
    """
    where = "instance"
    _check_keys(doc, where, ("schema_version", "kind", "n", "groups",
                             "maps", "lattice", "ideals"),
                optional=("coherent_family",))
    _head(doc, where, "instance")
    n = _int(doc["n"], where + ".n")
    _check_keys(doc["groups"], where + ".groups", ("K0", "K1", "Kn"))
    K0 = group_from_json(doc["groups"]["K0"], where + ".groups.K0")
    K1 = group_from_json(doc["groups"]["K1"], where + ".groups.K1")
    Kn = group_from_json(doc["groups"]["Kn"], where + ".groups.Kn")
    with _schema(where + ".n"):
        T, _ = tensor_zmod(K0, n)
        T1, _ = n_torsion_group(K1, n)
        CoeffGroup.coefficient(n)
    _check_keys(doc["maps"], where + ".maps", ("rho_tilde", "beta_tilde"))
    rho = hom_from_json(doc["maps"]["rho_tilde"], T, Kn,
                        where + ".maps.rho_tilde")
    beta = hom_from_json(doc["maps"]["beta_tilde"], Kn, T1,
                         where + ".maps.beta_tilde")
    with _schema(where):
        coeff = CoeffGroup(n, Kn, rho, beta)

    _check_keys(doc["lattice"], where + ".lattice", ("nodes", "edges"))
    listed = _list(doc["lattice"]["nodes"], where + ".lattice.nodes")
    if len(listed) > MAX_IDEALS:
        raise SchemaError("%s.lattice.nodes: %d nodes exceed the limit %d"
                          % (where, len(listed), MAX_IDEALS))
    ids = [_str(x, where + ".lattice.nodes") for x in listed]
    edges = []
    for i, e in enumerate(_list(doc["lattice"]["edges"],
                                where + ".lattice.edges")):
        e = _list(e, "%s.lattice.edges[%d]" % (where, i))
        if len(e) != 2:
            raise SchemaError("%s.lattice.edges[%d]: expected a pair"
                              % (where, i))
        a, b = (_str(x, "%s.lattice.edges[%d]" % (where, i)) for x in e)
        if a not in ids or b not in ids:
            raise SchemaError("%s.lattice.edges[%d]: unknown node in %r"
                              % (where, i, (a, b)))
        edges.append((a, b))
    with _schema(where + ".lattice"):
        order = IdealLattice(ids, edges)

    ideals = doc["ideals"]
    _check_keys(ideals, where + ".ideals", tuple(order.nodes))
    nodes = []
    for i in order.nodes:
        rec = ideals[i]
        w = "%s.ideals.%s" % (where, i)
        _check_keys(rec, w, ("K0", "K1", "Kn"))
        nodes.append(IdealNode(
            i, _subgroup_from_json(rec["K0"], K0, w + ".K0"),
            _subgroup_from_json(rec["K1"], K1, w + ".K1"),
            _subgroup_from_json(rec["Kn"], Kn, w + ".Kn")))
    with _schema(where):
        inst = KunnethInstance(KData(K0, K1), coeff, nodes, order)
    family = None
    if "coherent_family" in doc:
        family = family_from_json(doc["coherent_family"], inst.data,
                                  where + ".coherent_family")
    return inst, family


# --- coherent families -------------------------------------------------------

def family_to_json(fam):
    doc = {
        "coefficients": list(fam.coefficients),
        "coeff_groups": {
            str(n): {"Kn": group_to_json(cg.Kn),
                     "rho_tilde": matrix_to_json(cg.rho_tilde),
                     "beta_tilde": matrix_to_json(cg.beta_tilde)}
            for n, cg in fam.coeffs.items()},
        "kappa": {"%d,%d" % key: matrix_to_json(f)
                  for key, f in fam.kappa.items()},
    }
    if fam.lam:
        doc["lambda"] = {"%d,%d" % key: matrix_to_json(f)
                         for key, f in fam.lam.items()}
    if fam.sigmas is not None:
        doc["sigmas"] = {str(n): matrix_to_json(f)
                         for n, f in fam.sigmas.items()}
    return doc


def _coeff_key(text, ns, where):
    # the canonical spelling only: int() also reads "02", "+4", " 4" and
    # "0_4", and a second spelling of a key would overwrite the first
    try:
        n = int(text)
    except ValueError:
        n = None
    if n is None or text != str(n):
        raise SchemaError("%s: bad coefficient key %r" % (where, text))
    if n not in ns:
        raise SchemaError("%s: coefficient %d not in the family" % (where, n))
    return n


def _pair_key(text, ns, where):
    parts = text.split(",")
    if len(parts) != 2:
        raise SchemaError("%s: bad pair key %r" % (where, text))
    return tuple(_coeff_key(p, ns, where) for p in parts)


def family_from_json(obj, data, where="coherent_family"):
    _check_keys(obj, where, ("coefficients", "coeff_groups", "kappa"),
                optional=("lambda", "sigmas"))
    listed = _list(obj["coefficients"], where + ".coefficients")
    if len(listed) > MAX_COEFFICIENTS:
        raise SchemaError("%s.coefficients: %d coefficients exceed the "
                          "limit %d" % (where, len(listed), MAX_COEFFICIENTS))
    ns = [_int(x, where + ".coefficients") for x in listed]
    twice = [n for i, n in enumerate(ns) if n in ns[:i]]
    if twice:
        raise SchemaError("%s.coefficients: %d is listed twice"
                          % (where, twice[0]))
    groups = obj["coeff_groups"]
    _check_keys(groups, where + ".coeff_groups",
                tuple(str(n) for n in sorted(ns)))
    coeffs = {}
    for n in ns:
        rec = groups[str(n)]
        w = "%s.coeff_groups.%s" % (where, n)
        _check_keys(rec, w, ("Kn", "rho_tilde", "beta_tilde"))
        Kn = group_from_json(rec["Kn"], w + ".Kn")
        with _schema(w):
            T, _ = tensor_zmod(data.K0, n)
            T1, _ = n_torsion_group(data.K1, n)
            CoeffGroup.coefficient(n)
        rho = hom_from_json(rec["rho_tilde"], T, Kn, w + ".rho_tilde")
        beta = hom_from_json(rec["beta_tilde"], Kn, T1, w + ".beta_tilde")
        with _schema(w):
            coeffs[n] = CoeffGroup(n, Kn, rho, beta)
    kappa = {}
    for key, rec in _object(obj["kappa"], where + ".kappa").items():
        m, n = _pair_key(key, ns, where + ".kappa")
        kappa[(m, n)] = hom_from_json(rec, coeffs[n].Kn, coeffs[m].Kn,
                                      "%s.kappa.%s" % (where, key))
    lam = {}
    for key, rec in _object(obj.get("lambda", {}),
                            where + ".lambda").items():
        m, n = _pair_key(key, ns, where + ".lambda")
        lam[(m, n)] = hom_from_json(rec, coeffs[n].beta_tilde.codomain,
                                    coeffs[m].beta_tilde.codomain,
                                    "%s.lambda.%s" % (where, key))
    sigmas = None
    if "sigmas" in obj:
        sigmas = {}
        for key, rec in _object(obj["sigmas"], where + ".sigmas").items():
            n = _coeff_key(key, ns, where + ".sigmas")
            sigmas[n] = hom_from_json(rec, coeffs[n].beta_tilde.codomain,
                                      coeffs[n].Kn,
                                      "%s.sigmas.%s" % (where, key))
    with _schema(where):
        return CoherentFamily(data, coeffs, kappa, lam, sigmas)


# --- splitting families and isomorphisms -------------------------------------

def splitting_to_json(fam):
    return {"schema_version": SCHEMA_VERSION, "kind": "splitting",
            "sigmas": {i: matrix_to_json(fam.sigma(i)) for i in fam.ids()}}


def splitting_from_json(doc, inst):
    where = "splitting"
    _check_keys(doc, where, ("schema_version", "kind", "sigmas"))
    _head(doc, where, "splitting")
    _check_keys(doc["sigmas"], where + ".sigmas", tuple(inst.order.nodes))
    sigmas = {}
    for i in inst.order.nodes:
        dom, _, _ = inst.torsion_sub(i).as_group()
        sigmas[i] = hom_from_json(doc["sigmas"][i], dom, inst.coeff.Kn,
                                  "%s.sigmas.%s" % (where, i))
    return SplittingFamily(sigmas)


def iso_input_to_json(phi0, phi1, pairing):
    return {"schema_version": SCHEMA_VERSION, "kind": "iso-input",
            "phi0": matrix_to_json(phi0), "phi1": matrix_to_json(phi1),
            "pairing": dict(pairing)}


def _pairing_from_json(obj, inst_a, inst_b, where):
    _check_keys(obj, where, tuple(inst_a.order.nodes))
    pairing = {}
    for i in inst_a.order.nodes:
        j = _str(obj[i], "%s.%s" % (where, i))
        if j not in inst_b.order.nodes:
            raise SchemaError("%s.%s: unknown target ideal %r"
                              % (where, i, j))
        pairing[i] = j
    return pairing


def iso_input_from_json(doc, inst_a, inst_b):
    where = "iso-input"
    _check_keys(doc, where, ("schema_version", "kind", "phi0", "phi1",
                             "pairing"))
    _head(doc, where, "iso-input")
    phi0 = hom_from_json(doc["phi0"], inst_a.data.K0, inst_b.data.K0,
                         where + ".phi0")
    phi1 = hom_from_json(doc["phi1"], inst_a.data.K1, inst_b.data.K1,
                         where + ".phi1")
    return phi0, phi1, _pairing_from_json(doc["pairing"], inst_a, inst_b,
                                          where + ".pairing")


def iso_to_json(iso):
    return {"schema_version": SCHEMA_VERSION, "kind": "complex-iso",
            "phi0": matrix_to_json(iso.phi0),
            "phi": matrix_to_json(iso.phi),
            "phi1": matrix_to_json(iso.phi1),
            "pairing": dict(iso.pairing)}


def complex_iso_from_json(doc, inst_a, inst_b):
    where = "complex-iso"
    _check_keys(doc, where, ("schema_version", "kind", "phi0", "phi",
                             "phi1", "pairing"))
    _head(doc, where, "complex-iso")
    return ComplexIso(
        hom_from_json(doc["phi0"], inst_a.data.K0, inst_b.data.K0,
                      where + ".phi0"),
        hom_from_json(doc["phi"], inst_a.coeff.Kn, inst_b.coeff.Kn,
                      where + ".phi"),
        hom_from_json(doc["phi1"], inst_a.data.K1, inst_b.data.K1,
                      where + ".phi1"),
        _pairing_from_json(doc["pairing"], inst_a, inst_b,
                           where + ".pairing"))


# --- bytes on disk -----------------------------------------------------------

_escape = json.encoder.encode_basestring_ascii


def _canonical(x, indent):
    """``x`` as ``json.dumps(x, sort_keys=True, indent=2)`` writes it,
    nested at ``indent``.  Dicts with str keys, lists, str, int, bool
    and None are written here, which skips the standard library's
    pure-Python encoder that indentation selects; any other value
    goes through ``json.dumps`` and is re-indented.  An instance
    document holds no other value, and the standard call alone
    measurably slows the set-up of the larger fixtures."""
    kind = type(x)
    if kind is str:
        return _escape(x)
    if kind is int:
        return repr(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    inner = indent + "  "
    if kind is list:
        if not x:
            return "[]"
        items = [repr(v) if type(v) is int else _canonical(v, inner)
                 for v in x]
        ends = "[]"
    elif kind is dict and all(type(k) is str for k in x):
        if not x:
            return "{}"
        items = [_escape(k) + ": " + _canonical(x[k], inner)
                 for k in sorted(x)]
        ends = "{}"
    else:
        return json.dumps(x, sort_keys=True, indent=2).replace(
            "\n", "\n" + indent)
    return "%s\n%s%s\n%s%s" % (ends[0], inner, (",\n" + inner).join(items),
                               indent, ends[1])


def dumps_canonical(doc):
    return _canonical(doc, "") + "\n"


def loads(text):
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError("not valid JSON: %s" % exc)
    except ValueError as exc:
        # an integer literal past the interpreter's digit limit
        raise SchemaError(str(exc))
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    return doc


def load_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(str(exc))
    return loads(text)


def save_file(path, doc):
    """Canonical bytes, written atomically next to the target through a
    temp file created as ``open`` creates one, so the umask sets its mode."""
    text = dumps_canonical(doc)
    tmp = "%s.%s.tmp" % (os.path.abspath(path), os.urandom(8).hex())
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return text
