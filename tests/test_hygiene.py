"""Source hygiene: no module of the package imports a name it never uses,
no map Jacobian falls back to finite differences, and the package runs on
numpy alone.

pyflakes would catch the first too; the checks here need only the standard
library's `ast`.
"""

import ast
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from islab.hamiltonian import HamiltonianSystem
from islab.maps import MapDescriptor

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "islab"
FD = "finite_difference_jacobian"


def unused_imports(source):
    """Names bound by the module-level imports of `source` that the module
    never reads (`from __future__` and star imports aside)."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_detector_flags_unused_and_passes_used_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from .maps import inv2, compose as c\n"
              "def f(p):\n"
              "    return np.asarray(p) @ inv2(p)\n")
    assert unused_imports(source) == ["os", "c"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def fd_references(source):
    """Lines of `source` that name the finite-difference Jacobian (as a
    name, an attribute or an import) other than its own `def`."""
    lines = []
    for n in ast.walk(ast.parse(source)):
        if (isinstance(n, ast.Name) and n.id == FD
                or isinstance(n, ast.Attribute) and n.attr == FD
                or isinstance(n, ast.ImportFrom) and any(a.name == FD for a in n.names)):
            lines.append(n.lineno)
    return sorted(lines)


def test_fd_scan_flags_a_readded_fallback():
    source = ("from .maps import finite_difference_jacobian\n"
              "from . import maps\n"
              "def finite_difference_jacobian(f, p):\n"
              "    return p\n"
              "def jacobian(self, p):\n"
              "    if self.jac is None:\n"
              "        return finite_difference_jacobian(self.fwd, p)\n"
              "    return maps.finite_difference_jacobian(self.jac, p)\n")
    assert fd_references(source) == [1, 7, 8]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_finite_difference_jacobian_in_package(path):
    # the analytic Jacobians are the program; finite differences are only
    # the reference that tests compare them against
    assert fd_references(path.read_text(encoding="utf-8")) == []


def test_jacobian_and_hessian_are_required():
    with pytest.raises(TypeError):
        MapDescriptor("f", lambda p: np.asarray(p))
    with pytest.raises(TypeError):
        HamiltonianSystem("H", lambda p: np.zeros_like(p))


def scipy_imports(source):
    """Lines of `source` that import scipy or one of its submodules."""
    lines = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Import):
            names = [a.name for a in n.names]
        elif isinstance(n, ast.ImportFrom) and n.level == 0:
            names = [n.module]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            lines.append(n.lineno)
    return sorted(lines)


def test_scipy_scan_flags_a_readded_import():
    source = ("import numpy as np\n"
              "from scipy.interpolate import PPoly\n"
              "from .scipyish import f\n"
              "def solve(a, b):\n"
              "    import scipy.linalg as la\n"
              "    return la.solve(a, b)\n")
    assert scipy_imports(source) == [2, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import_in_package(path):
    # numpy is the only runtime dependency; scipy is a test reference
    assert scipy_imports(path.read_text(encoding="utf-8")) == []


def test_cli_import_loads_no_scipy():
    code = ("import sys, islab.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    # run from src/, so the interpreter imports this tree's islab first
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True, cwd=SRC.parent)
    assert out.stdout.strip() == "[]"
