"""The package carries no public name that only tests reach.

A public module-level function or class in ``src/idealsplit`` must be
exported in ``idealsplit.__all__`` or referenced somewhere in ``src/``
or ``perfbench/`` outside its own definition: as a name, an attribute,
an import, or a string (perfbench installs its hooks by attribute
name).  A name that only tests use belongs in the tests, for example as
an oracle in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

import idealsplit

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "idealsplit"


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


def public_definitions():
    """(module path, definition node) for each public top-level def."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield path, node


def unreferenced_names():
    sources = sorted(PACKAGE.glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    refs = {}
    for path in sources:
        for name, line in _references(ast.parse(path.read_text())):
            refs.setdefault(name, []).append((path, line))
    exported = set(idealsplit.__all__)
    missing = []
    for path, node in public_definitions():
        if node.name in exported:
            continue
        outside = [(p, line) for p, line in refs.get(node.name, ())
                   if p != path or not node.lineno <= line <= node.end_lineno]
        if not outside:
            missing.append("%s.%s" % (path.stem, node.name))
    return missing


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unreferenced_names() == []


def test_scan_sees_the_package():
    # the scan must look at real definitions, or it passes vacuously
    names = {node.name for _, node in public_definitions()}
    assert {"check_gamma_exact", "gamma0", "sum_model"} <= names
