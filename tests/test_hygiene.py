"""Source hygiene: no module of the package imports a name it never uses,
no map Jacobian falls back to finite differences, the package runs on
numpy alone, and every top-level name and every method of the package is
reached by the package itself or by the acceptance tests.

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
        MapDescriptor("f")
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


# modules that only the rescaling suite, or only --threads above 1, uses
DEFERRED = ("islab.rescaling", "numpy.polynomial", "concurrent.futures")


def test_cli_start_up_defers_what_most_runs_never_use():
    # one process: after the import, after an island run, after a rescaling run
    code = f"""
import sys
import islab.cli
from islab.config import ExperimentConfig

def loaded():
    print([m for m in {DEFERRED!r} if m in sys.modules])

loaded()
islab.cli.run(ExperimentConfig.from_text("suite = island\\nisland.grid = 16\\nisland.n = 20\\n"))
loaded()
islab.cli.run(ExperimentConfig.from_text("suite = rescaling\\nrescaling.k_list = 8\\n"))
loaded()
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True, cwd=SRC.parent)
    after_import, after_island, after_rescaling = out.stdout.splitlines()
    assert after_import == after_island == "[]"
    assert "'islab.rescaling'" in after_rescaling


ACCEPTANCE = pathlib.Path(__file__).resolve().parent / "test_acceptance.py"
# the package's version string
REACH_EXEMPT = {"islab.__version__"}


def _top_level(tree):
    """{name: defining statement} of a module's top-level defs, classes
    and assigned constants."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                out.update((n.id, node) for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def _dotted(node):
    """['a', 'b', 'c'] for the attribute chain a.b.c, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else None


def references(source, module):
    """(module, name) pairs that `source`, the text of `module`, reads by
    Name or Attribute node: its own top-level names outside their own
    definitions, names imported from islab modules, and attributes of
    imported islab modules.  String literals and attributes of other
    objects (a method that shares a function's name) are not references."""
    tree = ast.parse(source)
    names, modules = {}, {"islab": "islab"}
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom):
            base = n.module or ""
            if n.level:
                base = ".".join(module.split(".")[:-n.level] + ([base] if base else []))
            for a in n.names:
                local = a.asname or a.name
                if base == "islab":
                    modules[local] = f"islab.{a.name}"
                elif base.startswith("islab."):
                    names[local] = (base, a.name)
        elif isinstance(n, ast.Import):
            for a in n.names:
                if a.name.startswith("islab.") and a.asname:
                    modules[a.asname] = a.name
    own = _top_level(tree)
    refs = set()
    for stmt in tree.body:
        defined = getattr(stmt, "name", None)
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id != defined:
                if n.id in own:
                    refs.add((module, n.id))
                elif n.id in names:
                    refs.add(names[n.id])
            elif isinstance(n, ast.Attribute):
                chain = _dotted(n)
                if chain and chain[0] in modules:
                    refs.add((".".join([modules[chain[0]]] + chain[1:-1]), chain[-1]))
    return refs


def unreached(package, acceptance):
    """Top-level names of the package modules (a {module: source} map) that
    no package module other than their own definitions, and no acceptance
    source, reads; exempt names aside."""
    refs = set()
    for module, source in {**package, **acceptance}.items():
        refs |= references(source, module)
    return sorted(f"{module}.{name}" for module, source in package.items()
                  for name in _top_level(ast.parse(source))
                  if (module, name) not in refs and f"{module}.{name}" not in REACH_EXEMPT)


def test_reachability_scan_flags_unreached_names():
    package = {
        "islab.a": ("TOL = 1e-12\n"
                    "def used():\n"
                    "    return TOL\n"
                    "def dead():\n"
                    "    raise ValueError('dead is named only in a string')\n"
                    "def recurse(n):\n"
                    "    return recurse(n - 1)\n"
                    "def xi_eta(T0):\n"
                    "    return T0.xi_eta(1)\n"
                    "class C:\n"
                    "    def xi_eta(self):\n"
                    "        return 0\n"),
        "islab.b": ("from .a import used\n"
                    "from . import a\n"
                    "def run():\n"
                    "    return used() + a.C().xi_eta()\n"),
    }
    acceptance = {"tests.test_acceptance": "import islab.b as b\nb.run()\n"}
    assert unreached(package, acceptance) == ["islab.a.dead", "islab.a.recurse",
                                              "islab.a.xi_eta"]
    # an acceptance test reaching a name directly keeps it
    acceptance["tests.test_acceptance"] += "from islab.a import dead\ndead()\n"
    assert unreached(package, acceptance) == ["islab.a.recurse", "islab.a.xi_eta"]


def _package_and_acceptance():
    package = {"islab" if p.stem == "__init__" else f"islab.{p.stem}":
               p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    return package, {"tests.test_acceptance": ACCEPTANCE.read_text(encoding="utf-8")}


def test_every_package_name_is_reached():
    # what only the tests reach belongs beside them (construction_checks)
    assert unreached(*_package_and_acceptance()) == []


def unreached_methods(package, acceptance):
    """Methods of the package's top-level classes (a {module: source} map)
    whose name no attribute read outside the method's own body names, in
    the package or the acceptance sources.  Only `ast.Attribute` nodes
    count: a function of the same name, a keyword argument or a string
    does not reach a method.  Dunder methods are called by the language
    and are left out."""
    trees = {module: ast.parse(source) for module, source in {**package, **acceptance}.items()}
    methods = {}  # key -> (name, ids of the nodes of its own definition)
    for module in package:
        for cls in trees[module].body:
            if isinstance(cls, ast.ClassDef):
                methods.update((f"{module}.{cls.name}.{f.name}",
                                (f.name, {id(n) for n in ast.walk(f)}))
                               for f in cls.body if isinstance(f, ast.FunctionDef)
                               and not (f.name.startswith("__") and f.name.endswith("__")))
    reads = {}  # attribute name -> ids of the Attribute nodes naming it
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute):
                reads.setdefault(n.attr, []).append(id(n))
    return sorted(key for key, (name, body) in methods.items()
                  if all(i in body for i in reads.get(name, ())))


def test_method_scan_flags_a_readded_method():
    package = {
        "islab.blowup": ("def conjugacy_defect(island):\n"
                         "    return island.conjugacy\n"),
        "islab.links": ("class TimeEnergyChart:\n"
                        "    def __call__(self, p):\n"
                        "        return self._eval(p)\n"
                        "    def _eval(self, p):\n"
                        "        return p\n"
                        "    def conjugacy_defect(self, n=400):\n"
                        "        return self.conjugacy_defect(n - 1)\n"
                        "    def area_defect(self, n=400):\n"
                        "        return 'area_defect'\n"
                        "    def identity_defect(self):\n"
                        "        return 0\n"),
        "islab.rescaling": ("from .blowup import conjugacy_defect\n"
                            "class TransitionMap:\n"
                            "    def tails(self, p):\n"
                            "        return p\n"
                            "def desk_model(tails=True):\n"
                            "    return conjugacy_defect(tails)\n"),
    }
    acceptance = {"tests.test_acceptance": "from islab.rescaling import desk_model\n"
                                           "desk_model(tails=False)\n"}
    # a same-named function, a keyword, a string and a self-call reach nothing
    assert unreached_methods(package, acceptance) == [
        "islab.links.TimeEnergyChart.area_defect",
        "islab.links.TimeEnergyChart.conjugacy_defect",
        "islab.links.TimeEnergyChart.identity_defect",
        "islab.rescaling.TransitionMap.tails"]
    # an attribute read in the acceptance tests reaches a method
    acceptance["tests.test_acceptance"] += "def check(ch):\n    return ch.area_defect()\n"
    assert "islab.links.TimeEnergyChart.area_defect" not in unreached_methods(package,
                                                                             acceptance)


def test_every_package_method_is_reached():
    # MapDescriptor.symplectic_defect stays: acceptance criterion 1 reads it
    assert unreached_methods(*_package_and_acceptance()) == []


# lyapunov's one place for a matmul: the certificate's single 2x2 matrices
MATMUL_HOME = "cone_certificate"


def stacked_products(source, home=MATMUL_HOME):
    """Lines of `source` outside the function `home` with a `@` product,
    or a `matmul` or `swapaxes` by name or attribute.  In lyapunov.py every
    other matrix is a stack or its entries, and the cocycle kernel
    multiplies entry arrays (maps.mul2, spectral_norm's Gram entries)."""
    tree = ast.parse(source)
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == home:
            skip |= {id(n) for n in ast.walk(node)}
    lines = []
    for n in ast.walk(tree):
        if id(n) in skip:
            continue
        if (isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult)
                or isinstance(n, ast.Name) and n.id in ("matmul", "swapaxes")
                or isinstance(n, ast.Attribute) and n.attr in ("matmul", "swapaxes")):
            lines.append(n.lineno)
    return sorted(lines)


def test_stacked_product_scan_flags_a_readded_matmul():
    source = ("import numpy as np\n"
              "from numpy import swapaxes\n"
              "def spectral_norm(M):\n"
              "    G = np.swapaxes(M, -1, -2) @ M\n"
              "    return G\n"
              "def step(J, M):\n"
              "    M @= J\n"
              "    return np.matmul(J, M), swapaxes(M, 0, 1)\n"
              "def cone_certificate(A, B):\n"
              "    return A @ B @ np.swapaxes(A, 0, 1)\n")
    assert stacked_products(source) == [4, 4, 7, 8, 8]


def test_no_stacked_product_in_lyapunov():
    assert stacked_products((SRC / "lyapunov.py").read_text(encoding="utf-8")) == []


def transposed_right_operands(source):
    """Lines of `source` with a `@` product whose right operand is a `.T`
    attribute.  A product with a transposed view rounds a row differently
    with the size of its batch; a contiguous transpose built once does not."""
    lines = []
    for n in ast.walk(ast.parse(source)):
        right = n.right if isinstance(n, ast.BinOp) else getattr(n, "value", None)
        if (isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult)
                and isinstance(right, ast.Attribute) and right.attr == "T"):
            lines.append(n.lineno)
    return sorted(lines)


def test_transpose_scan_flags_a_readded_view():
    source = ("import numpy as np\n"
              "def ev(p, A, R):\n"
              "    q = p @ A.T\n"
              "    q @= R.T\n"
              "    r = p @ np.ascontiguousarray(R.T) + A.T @ p\n"
              "    return q @ self.R.T, r @ R\n")
    assert transposed_right_operands(source) == [3, 4, 6]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_product_with_a_transposed_view(path):
    assert transposed_right_operands(path.read_text(encoding="utf-8")) == []


# the quintic step's value polynomial t^3 (10 - 15 t + 6 t^2); its
# derivatives' coefficients (30, 60) also occur in unrelated code
QUINTIC = {10, 15}


def quintic_homes(source):
    """Qualified names of the functions in `source` whose own body, nested
    functions aside, holds both constants 10 and 15, the coefficients that
    the quintic step's value polynomial needs."""
    homes = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                consts, stack = set(), list(ast.iter_child_nodes(child))
                while stack:
                    n = stack.pop()
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                        continue
                    if (isinstance(n, ast.Constant) and type(n.value) in (int, float)
                            and n.value in QUINTIC):
                        consts.add(n.value)
                    stack.extend(ast.iter_child_nodes(n))
                if consts == QUINTIC:
                    homes.append(name)
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return homes


def test_quintic_scan_flags_a_readded_bridge():
    source = ("class StepFn:\n"
              "    @staticmethod\n"
              "    def _value(t):\n"
              "        return t * t * t * (10.0 + t * (6.0 * t - 15.0))\n"
              "class SurgeryProfile:\n"
              "    def _bridge(self, rho):\n"
              "        t = (rho - self.r1) / self._dt\n"
              "        return self._D * t**3 * (10 - 15 * t + 6 * t**2)\n"
              "def outer(x):\n"
              "    def inner(t):\n"
              "        return 15 * t\n"
              "    return inner(x) + 10\n"
              "def slope(t):\n"
              "    return 30.0 * t * t * (1.0 - t) ** 2 + 10\n")
    assert quintic_homes(source) == ["StepFn._value", "SurgeryProfile._bridge"]


def test_one_quintic_step_in_package():
    homes = [f"{p.stem}.{name}" for p in sorted(SRC.glob("*.py"))
             for name in quintic_homes(p.read_text(encoding="utf-8"))]
    assert homes == ["curves.StepFn._value"]


# what `islab run` turns into exit code 1 instead of a traceback
CLI_ERRORS = {"ValueError", "RuntimeError"}


def uncaught_raises(package):
    """(module, line) of each `raise` in the package sources (a {module:
    source} map) whose exception is neither ValueError, RuntimeError nor a
    package class derived from them, and of each `assert` statement.  A
    bare re-raise names no type and is flagged too."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    bases = {n.name: {b.id for b in n.bases if isinstance(b, ast.Name)}
             for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    caught = set(CLI_ERRORS)
    while new := {name for name, parents in bases.items() if parents & caught} - caught:
        caught |= new
    bad = []
    for module, tree in trees.items():
        for n in ast.walk(tree):
            if isinstance(n, ast.Raise):
                exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
                name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
                if name not in caught:
                    bad.append((module, n.lineno))
            elif isinstance(n, ast.Assert):
                bad.append((module, n.lineno))
    return sorted(bad)


def test_raise_scan_flags_what_the_cli_does_not_catch():
    package = {
        "islab.a": ("class ShapeError(ValueError):\n"
                    "    pass\n"
                    "class FoldError(ShapeError):\n"
                    "    pass\n"
                    "class Stray(Exception):\n"
                    "    pass\n"
                    "def f(x):\n"
                    "    if x < 0:\n"
                    "        raise ValueError('negative')\n"
                    "    if x > 9:\n"
                    "        raise FoldError\n"
                    "    assert x != 3, 'three'\n"
                    "    raise AssertionError(f'gap {x}')\n"),
        "islab.b": ("from .a import ShapeError\n"
                    "from . import a\n"
                    "def g(x):\n"
                    "    try:\n"
                    "        return 1 / x\n"
                    "    except ZeroDivisionError as e:\n"
                    "        raise RuntimeError('zero') from e\n"
                    "    except TypeError:\n"
                    "        raise\n"
                    "    raise a.Stray(x)\n"
                    "def h():\n"
                    "    raise ShapeError('bad')\n"),
    }
    # the AssertionError, the assert, the bare re-raise and the Exception subclass
    assert uncaught_raises(package) == [("islab.a", 12), ("islab.a", 13),
                                        ("islab.b", 9), ("islab.b", 10)]


def test_every_package_raise_is_one_the_cli_reports():
    package, _ = _package_and_acceptance()
    assert uncaught_raises(package) == []
