"""No module of ``lemnisub`` calls BLAS or LAPACK.

Their first use grows the process (README, Numerical notes), which the
benchmark's ``peak_rss_mb`` would count.  Every module is parsed and
checked for the matrix-product operator and for the numpy calls that
reach BLAS or LAPACK; sums with scalar weights do neither.
"""

import ast
from pathlib import Path

import pytest

import lemnisub

# any receiver: a.dot(b) reaches BLAS like np.dot(a, b)
PRODUCTS = {"dot", "matmul", "vdot", "inner", "tensordot", "einsum"}
# only on numpy itself
NUMPY_ONLY = {"roots", "polyfit"}
MODULES = sorted(Path(lemnisub.__file__).parent.glob("*.py"))


def blas_uses(source: str) -> list:
    """(line, what) for every matrix product or BLAS/LAPACK name in source.

    Names count whether they are called or only bound (``f = np.dot``).
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and (
                node.attr in PRODUCTS or node.attr == "linalg"
                or node.attr in NUMPY_ONLY and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module and (
                "linalg" in node.module.split(".")
                or node.module == "numpy"
                and {a.name for a in node.names} & (PRODUCTS | NUMPY_ONLY | {"linalg"})):
            found.append((node.lineno, f"from {node.module} import"))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_calls_no_blas(path):
    assert blas_uses(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "c = a @ b",
    "a @= b",
    "np.dot(a, b)",
    "a.dot(b)",
    "np.matmul(a, b)",
    "numpy.vdot(a, b)",
    "np.inner(a, b)",
    "np.tensordot(a, b, 1)",
    "np.einsum('i,i', a, b)",
    "np.linalg.solve(m, v)",
    "numpy.linalg.eigvals(m)",
    "np.roots(c)",
    "np.polyfit(x, y, 2)",
    "from numpy.linalg import norm",
    "from numpy import dot",
    "solve = np.linalg.solve",
    "product = np.dot",
])
def test_guard_finds_each_blas_use(source):
    assert blas_uses(source)


def test_guard_passes_scalar_weighted_sums():
    assert blas_uses("b = sum(w * c for w, c in zip(row, rows))\n"
                     "x = np.sum(a * b, axis=0)\n"
                     "y = np.convolve(a, b)\n"
                     "z = np.correlate(a, b, 'full')\n"
                     "roots = find_roots(c)\n") == []


def test_every_module_is_parsed():
    assert {"catalog.py", "series.py", "verify.py"} <= {p.name for p in MODULES}
