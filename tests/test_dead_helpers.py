"""No private module-level helper of ``lemnisub`` goes unused.

Every function or class that a module of ``src/lemnisub`` defines at
module level under a private name (one leading underscore) must be
referenced somewhere in ``src/`` outside its own definition: as a name,
an attribute or an imported name.  A helper that only its own body or
its tests still call is dead code: it goes, and so do the tests of it
alone, or it moves to ``tests/oracles.py`` where it has become a
reference.  Every module is parsed, as in ``test_no_blas.py``.  The one
named exception is ``generate._target_series`` (ROADMAP item 4).
"""

import ast
from pathlib import Path

import pytest

import lemnisub

MODULES = sorted(Path(lemnisub.__file__).parent.glob("*.py"))
EXCEPTIONS = {"generate._target_series"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def dead_helpers(sources: dict) -> list:
    """``module.name`` of every private module-level function or class in
    ``sources`` (module name -> source) that no code outside its own
    definition names."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    # (module, line) of every use of each name
    uses = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            uses.setdefault(name, []).append((module, getattr(node, "lineno", 0)))
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and _private(node.name)):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(m != module or line not in inside
                       for m, line in uses.get(node.name, ())):
                dead.append(f"{module}.{node.name}")
    return sorted(dead)


def test_every_private_helper_is_used():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert set(dead_helpers(sources)) == EXCEPTIONS


def test_exceptions_still_exist():
    # an exception whose helper is gone, or has found a caller, is dropped
    sources = {path.stem: path.read_text() for path in MODULES}
    for name in EXCEPTIONS:
        module, helper = name.split(".")
        assert f"def {helper}(" in sources[module], name


@pytest.mark.parametrize("sources, dead", [
    # unused, and used only by itself (recursion) or by its own default
    ({"a": "def _f():\n    return 1\n"}, ["a._f"]),
    ({"a": "def _f(n):\n    return _f(n - 1) if n else 0\n"}, ["a._f"]),
    ({"a": "class _C:\n    x = 1\n\n    def m(self):\n        return _C\n"}, ["a._C"]),
    # used below, through a table, as an attribute, or from another module
    ({"a": "def _f():\n    return 1\n\n\ndef g():\n    return _f()\n"}, []),
    ({"a": "def _f():\n    return 1\n\n\nTABLE = {'f': _f}\n"}, []),
    ({"a": "def _f():\n    return 1\n", "b": "from . import a\n\nx = a._f()\n"}, []),
    ({"a": "def _f():\n    return 1\n", "b": "from .a import _f\n"}, []),
    # public and dunder names, and nested helpers, are not checked
    ({"a": "def f():\n    def _g():\n        return 1\n    return 2\n"}, []),
    ({"a": "def __getattr__(name):\n    return name\n"}, []),
])
def test_guard_finds_each_dead_helper(sources, dead):
    assert dead_helpers(sources) == dead
