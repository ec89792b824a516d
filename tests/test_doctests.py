"""The examples in the package's docstrings still hold."""

import doctest
import importlib
import pkgutil

import idealsplit


def test_doctests():
    names = [idealsplit.__name__] + [
        "%s.%s" % (idealsplit.__name__, m.name)
        for m in pkgutil.iter_modules(idealsplit.__path__)]
    attempted, failed = 0, []
    for name in names:
        results = doctest.testmod(importlib.import_module(name))
        attempted += results.attempted
        if results.failed:
            failed.append(name)
    assert failed == [] and attempted > 0
