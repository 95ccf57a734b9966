"""Source-level guards over the pipeline package."""

import ast
from pathlib import Path

import pytest

import hbpt

SOURCES = sorted(Path(hbpt.__file__).parent.glob("*.py"))
# products whose float result depends on how a BLAS kernel orders its sums
MATRIX_CALLS = {"dot", "vdot", "matmul", "einsum", "inner", "tensordot"}


def _matrix_products(tree):
    """(line, what) of each matrix product, call to one, or use of linalg."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in MATRIX_CALLS:
                found.append((node.lineno, f"{name}()"))
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            found.append((node.lineno, "linalg"))
        elif isinstance(node, ast.Name) and node.id == "linalg":
            found.append((node.lineno, "linalg"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
            if any("linalg" in n.split(".") for n in names):
                found.append((node.lineno, "linalg import"))
    return found


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"imageio.py", "blobmodel.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_matrix_product_in_the_pipeline(path):
    """No output may depend on a BLAS product: colour and moments are exact."""
    assert _matrix_products(ast.parse(path.read_text(), str(path))) == []


@pytest.mark.parametrize(
    "code",
    [
        "y = a @ b",
        "a @= b",
        "y = np.dot(a, b)",
        "y = a.dot(b)",
        "y = np.einsum('ij,j', a, b)",
        "y = np.inner(a, b)",
        "y = np.tensordot(a, b, 1)",
        "y = np.matmul(a, b)",
        "y = np.linalg.norm(a)",
        "from numpy.linalg import eigh",
        "from numpy import linalg",
        "import scipy.linalg",
    ],
)
def test_guard_catches_each_form(code):
    assert _matrix_products(ast.parse(code))
