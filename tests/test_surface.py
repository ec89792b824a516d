"""The package carries no public name that only tests reach, and no
record hand-writes what ``dataclasses`` generates.

A public module-level function or class in ``src/idealsplit`` must be
exported in ``idealsplit.__all__`` or referenced somewhere in ``src/``
or ``perfbench/`` outside its own definition: as a name, an attribute,
an import, or a string (perfbench installs its hooks by attribute
name).  An exported name must earn its place the same way, with a
reference in ``src/`` outside ``__init__.py`` or in ``perfbench/``, or
else be named in ``README.md``.  A name that only tests use belongs in
the tests, for example as an oracle in ``tests/oracles.py``.

A class that only holds its fields is a frozen dataclass.  Only the
classes in ``HAND_FROZEN``, whose ``__init__`` canonicalizes or
reshapes its input, write their own ``__setattr__``.
"""

import ast
import dataclasses
import re
from pathlib import Path

import idealsplit
from idealsplit import kunneth, splitter

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "idealsplit"

HAND_FROZEN = {"FgGroup", "GroupHom", "Subgroup", "IdealLattice",
               "KunnethInstance", "CoherentFamily"}
RECORDS = [kunneth.KData, kunneth.CoeffGroup, kunneth.IdealNode,
           kunneth.ValidationReport, splitter.SplittingFamily,
           splitter.ComplexIso]


def _references(tree):
    """(identifier, line) for every name a module's code mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _reference_map(sources):
    refs = {}
    for path in sources:
        for name, line in _references(ast.parse(path.read_text())):
            refs.setdefault(name, []).append((path, line))
    return refs


def _referenced_outside(refs, path, node, name):
    return any(p != path or not node.lineno <= line <= node.end_lineno
               for p, line in refs.get(name, ()))


def top_level_definitions():
    """(module path, node, name) for each top-level def, class or
    assigned name in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node, node.name
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        yield path, node, target.id


def public_definitions():
    """(module path, definition node) for each public top-level def."""
    for path, node, name in top_level_definitions():
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not name.startswith("_"):
            yield path, node


def unreferenced_names():
    refs = _reference_map(sorted(PACKAGE.glob("*.py"))
                          + sorted((ROOT / "perfbench").glob("*.py")))
    exported = set(idealsplit.__all__)
    return ["%s.%s" % (path.stem, node.name)
            for path, node in public_definitions()
            if node.name not in exported
            and not _referenced_outside(refs, path, node, node.name)]


def unearned_exports():
    """Names in ``__all__`` with no reference in ``src/`` (outside
    ``__init__.py`` and their own definition) or ``perfbench/``, and no
    mention in ``README.md``."""
    refs = _reference_map(
        [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
        + sorted((ROOT / "perfbench").glob("*.py")))
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    defined = {name: (path, node)
               for path, node, name in top_level_definitions()
               if path.name != "__init__.py"}
    return sorted(name for name in idealsplit.__all__
                  if name not in readme
                  and not _referenced_outside(refs, *defined[name], name))


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unreferenced_names() == []


def test_every_exported_name_has_a_caller_or_a_readme_line():
    assert unearned_exports() == []


def test_scan_sees_the_package():
    # the scan must look at real definitions, or it passes vacuously
    names = {node.name for _, node in public_definitions()}
    assert {"check_gamma_exact", "gamma0", "sum_model"} <= names
    defined = {name for _, _, name in top_level_definitions()}
    assert set(idealsplit.__all__) <= defined


def test_only_reshaping_classes_write_their_own_setattr():
    written = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                written[node.name] = {item.name for item in node.body
                                      if isinstance(item, ast.FunctionDef)}
    assert HAND_FROZEN <= set(written), "the scan found no class"
    assert {name for name, methods in written.items()
            if "__setattr__" in methods} <= HAND_FROZEN
    for record in RECORDS:
        assert dataclasses.is_dataclass(record)
        assert record.__dataclass_params__.frozen
        assert not {"__init__", "__setattr__", "__eq__"} \
            & written[record.__name__]
