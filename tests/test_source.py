"""Source-level guards over the pipeline package."""

import ast
import os
import subprocess
import sys
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


# the one module that may draw random numbers: the scenario renderer, whose
# noise is reproducible from the scenario's seed
RANDOM_MODULES = {"synthgen"}


def _random_uses(tree):
    """(line, what) of each use or import of numpy's random module."""
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            found.append((node.lineno, f"{node.value.id}.random"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names]
            module = getattr(node, "module", None) or ""
            if "numpy.random" in names + [module] or module == "numpy" and "random" in names:
                found.append((node.lineno, "numpy.random import"))
    return found


# (module, function, parameter) of every default-valued parameter; each
# carries data or a hook a caller uses. A fixed algorithm setting is a module
# constant instead, so a new default is listed here only once justified.
DEFAULTED_PARAMETERS = {
    ("imageio", "read_ppm", "size"),  # frame size to check, unknown for the first frame
    ("imageio", "read_png", "size"),
    ("imageio", "read_frame", "size"),
    ("imageio", "load_depth_raster", "size"),
    ("blobmodel", "fit_blob", "frame"),  # a colour source, absent for shape-only fits
    ("blobmodel", "fit_blob", "label"),
    ("tracker", "mean_shift", "trace"),  # weight sums for acceptance criterion 6
    ("maskops", "foreground_box", "my"),  # the reach refine_mask grows the box by
    ("maskops", "foreground_box", "mx"),
    ("cli", "main", "argv"),  # the command line, sys.argv when None
}


def _defaulted_parameters(tree, module):
    """(module, function, parameter) of each parameter with a default, a
    method's function named ``Class.method`` and a nested one ``outer.inner``."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = child.args
                positional = a.posonlyargs + a.args
                named = positional[len(positional) - len(a.defaults) :] + [
                    arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
                ]
                name = prefix + getattr(child, "name", "<lambda>")
                found.update((module, name, arg.arg) for arg in named)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_random_numbers_outside_the_renderer(path):
    """The pipeline draws no random number, so its output depends on its
    input and config alone."""
    if path.stem not in RANDOM_MODULES:
        assert _random_uses(ast.parse(path.read_text(), str(path))) == []


def test_the_renderer_is_the_module_that_draws_random_numbers():
    (path,) = [p for p in SOURCES if p.stem in RANDOM_MODULES]
    assert _random_uses(ast.parse(path.read_text(), str(path)))


@pytest.mark.parametrize(
    "code",
    [
        "rng = np.random.default_rng(0)",
        "x = numpy.random.normal(0.0, 1.0, 5)",
        "import numpy.random",
        "from numpy.random import default_rng",
        "from numpy import random",
    ],
)
def test_random_guard_catches_each_form(code):
    assert _random_uses(ast.parse(code))


def test_defaulted_parameters_are_the_listed_ones():
    """No fixed setting hides in a keyword default: each is a named constant."""
    found = set().union(
        *(_defaulted_parameters(ast.parse(p.read_text(), str(p)), p.stem) for p in SOURCES)
    )
    assert found == DEFAULTED_PARAMETERS


def test_defaulted_parameter_walk_sees_every_kind():
    code = (
        "def f(a, b=1, /, c=2, *args, d, e=3, **kw):\n"
        "    g = lambda x, y=4: x\n"
        "    def inner(z=5): pass\n"
        "class A:\n"
        "    async def m(self, w=6): pass\n"
    )
    assert _defaulted_parameters(ast.parse(code), "m") == {
        ("m", "f", "b"), ("m", "f", "c"), ("m", "f", "e"), ("m", "f.<lambda>", "y"),
        ("m", "f.inner", "z"), ("m", "A.m", "w"),
    }


def test_importing_the_command_line_loads_no_scipy():
    """scipy is a test dependency only: a fresh interpreter that imports
    hbpt.cli, and with it every pipeline module, holds no scipy module."""
    code = (
        "import sys, hbpt.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hbpt.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
