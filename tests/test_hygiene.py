"""Source hygiene: no module of the package imports a name it never uses,
no map Jacobian falls back to finite differences, the package runs on
numpy alone, every top-level name and every method of the package is
reached by the package itself or by the acceptance tests, and every exact
inverse a map carries has a named reader.

pyflakes would catch the first too; the checks here need only the standard
library's `ast`.
"""

import ast
import inspect
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from islab.blowup import (IslandMap, equivariance_and_energy_drift, link_saddles,
                          symmetry_and_identity_report)
from islab.hamiltonian import HamiltonianSystem
from islab.links import LinkGeometry
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


# modules that only the rescaling suite uses
DEFERRED = ("islab.rescaling", "numpy.polynomial")


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


# the package's places for a matmul, by module and qualified function name.
# Every Jacobian and Hessian travels as its entries (maps.mul2, maps.inv2);
# what is left is the cone certificate's single matrices, products of points
# by a fixed matrix (a contiguous transpose, or the eigen-rotation), and the
# two linear solves
MATMUL_HOMES = {
    "lyapunov.py": ("cone_certificate",),
    "maps.py": ("anosov_map", "rotation_map"),
    "blowup.py": ("IslandMap._surgered", "IslandMap._flow", "_saddle_rows",
                  "_polar_sample", "_disc_energy", "SurgeryProfile._fit_inverse"),
    "curves.py": ("GraphCurve._solve",),
}


def stacked_products(source, homes=()):
    """Lines of `source` outside the functions `homes` (qualified names,
    Class.method for a method) with a `@` product, or a `matmul` or
    `swapaxes` by name or attribute."""
    tree = ast.parse(source)
    skip = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef) and name in homes:
                    skip.update(id(n) for n in ast.walk(child))
                else:
                    visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
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
              "    return A @ B @ np.swapaxes(A, 0, 1)\n"
              "class Chart:\n"
              "    def _flow(self, d):\n"
              "        return d @ self.R\n"
              "    def cone_certificate(self, A):\n"
              "        return A @ A\n")
    # a home is its qualified name: the method of the same name is not one
    assert stacked_products(source, ("cone_certificate", "Chart._flow")) == [4, 4, 7, 8, 8, 15]


def test_stacked_product_scan_flags_a_readded_jacobian_product():
    # compose's chain rule as a stacked product again
    source = (SRC / "maps.py").read_text(encoding="utf-8")
    assert "mul2(Jm, J)" in source
    readded = source.replace("mul2(Jm, J)", "Jm @ J")
    line = next(i for i, text in enumerate(readded.splitlines(), 1) if "Jm @ J" in text)
    assert stacked_products(readded, MATMUL_HOMES["maps.py"]) == [line]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_stacked_product_in_package(path):
    source = path.read_text(encoding="utf-8")
    homes = MATMUL_HOMES.get(path.name, ())
    assert stacked_products(source, homes) == []
    # every home still holds a product: a stale one would hide a readded one
    for home in homes:
        assert stacked_products(source, tuple(h for h in homes if h != home)), home


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


# every function of the package that builds a MapDescriptor with an inverse,
# by module and qualified name, and the reader that needs the inverse.  An
# inverse that nothing reads is code to delete
INVERSE_HOMES = {
    "maps.anosov_map": "construction_checks.exponent_symmetry_defect",
    "maps.chirikov_map": "construction_checks.exponent_symmetry_defect",
    "maps.affine_map": "the links suite's backward steps and the rescaling exit charts",
    "maps.shear_map": "the links suite's backward steps and the construction check "
                      "that inverts compose(S_psi, F)",
    "maps.henon_like": "the rescaling suite's leg defects and corollary",
    "maps.compose": "the construction check that inverts compose(S_psi, F)",
    "links.SuitableModel._assemble_fstar": "the construction check that inverts "
                                           "compose(S_psi, F)",
    "blowup.IslandMap.descriptor": "the paper's diffeomorphism Fhat",
    "blowup.IslandMap.surgery_descriptor": "the paper's diffeomorphism Psi",
    "rescaling.build_perturbation": "the paper's diffeomorphism g",
}


def inverse_builders(source):
    """(qualified name, line) of each `MapDescriptor(...)` call in `source`
    given an inverse, a third positional argument or an `inv=` keyword that
    is not None, by the function (Class.method for a method) that holds it."""
    found = []

    def given(arg):
        return not (isinstance(arg, ast.Constant) and arg.value is None)

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                visit(child, name + ".", name if isinstance(child, ast.FunctionDef) else owner)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (getattr(func, "id", None) == "MapDescriptor"
                        or getattr(func, "attr", None) == "MapDescriptor"):
                    if ((len(child.args) > 2 and given(child.args[2]))
                            or any(k.arg == "inv" and given(k.value) for k in child.keywords)):
                        found.append((owner, child.lineno))
            visit(child, prefix, owner)

    visit(ast.parse(source), "", None)
    return found


def test_inverse_scan_flags_a_readded_inverse():
    source = ("from .maps import MapDescriptor\n"
              "from . import maps\n"
              "def rotation_map(angle):\n"
              "    def inv(q):\n"
              "        return q\n"
              "    return MapDescriptor('R', ev, inv)\n"
              "class T:\n"
              "    def descriptor(self):\n"
              "        return maps.MapDescriptor('T1', self._ev, inv=self.inverse)\n"
              "    def plain(self):\n"
              "        return MapDescriptor('T0', self._ev), MapDescriptor('T', ev, None)\n"
              "    def keyword_none(self):\n"
              "        return MapDescriptor('S', ev, inv=None, domain=d)\n"
              "def outer():\n"
              "    def inner():\n"
              "        return MapDescriptor('g', ev, lambda q: q)\n"
              "    return inner\n")
    assert inverse_builders(source) == [("rotation_map", 6), ("T.descriptor", 9),
                                        ("outer.inner", 16)]
    # the transition map's inverse, re-added to this tree's rescaling module
    real = (SRC / "rescaling.py").read_text(encoding="utf-8")
    assert 'MapDescriptor("T1", self._ev)' in real
    readded = real.replace('MapDescriptor("T1", self._ev)',
                           'MapDescriptor("T1", self._ev, self.inverse)')
    assert "TransitionMap.descriptor" in [name for name, _ in inverse_builders(readded)]
    assert "TransitionMap.descriptor" not in [name for name, _ in inverse_builders(real)]


def test_every_inverse_has_a_reader():
    built = {f"{p.stem}.{name}" for p in sorted(SRC.glob("*.py"))
             for name, _ in inverse_builders(p.read_text(encoding="utf-8"))}
    # an inverse that is not listed has no reader yet; a listed function
    # that no longer builds one is a stale entry
    assert sorted(built - INVERSE_HOMES.keys()) == []
    assert sorted(INVERSE_HOMES.keys() - built) == []


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


# the island map's one flow: a second call of the integrator, or a step,
# order or tolerance parameter on the evaluation path, would fork Fhat again
def callers(source, name):
    """Qualified names (Class.method for a method) of the functions of
    `source` that call `name`, by name or attribute, each once."""
    found = set()

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                qual = prefix + child.name
                visit(child, qual + ".", qual if isinstance(child, ast.FunctionDef) else owner)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                    found.add(owner)
            visit(child, prefix, owner)

    visit(ast.parse(source), "", "<module>")
    return sorted(found)


def test_caller_scan_flags_a_readded_integration():
    source = ("from .hamiltonian import _midpoint_steps\n"
              "from . import hamiltonian\n"
              "class IslandMap:\n"
              "    def _flow(self, z):\n"
              "        return _midpoint_steps(self.system, z, 1.0, 56, 1e-13, False, order=4)\n"
              "def link_saddles(island, P):\n"
              "    def refined(z):\n"
              "        return hamiltonian._midpoint_steps(island.system, z, 1.0, 128, 1e-14, True)\n"
              "    return refined(P)\n")
    assert callers(source, "_midpoint_steps") == ["IslandMap._flow", "link_saddles.refined"]


def test_island_map_has_one_flow():
    source = (SRC / "blowup.py").read_text(encoding="utf-8")
    assert callers(source, "_midpoint_steps") == ["IslandMap._flow"]
    for method in (IslandMap._eval, IslandMap._flow):
        params = inspect.signature(method).parameters
        assert not [p for p in params if any(w in p for w in ("step", "order", "tol"))], \
            method.__name__


# the per-row loops of the island flow and of the cocycle run on points (N,
# 2) and on entry arrays (N,): a reduction over the length-2 axis or a stack
# of two components costs more there than the arithmetic it serves (14 % and
# 6 % of a 500-row flow with its Jacobian under cProfile), so both keep
# components apart
ROW_KERNELS = {"hamiltonian.py": "_midpoint_steps", "lyapunov.py": "_cocycle_logs"}


def component_pairings(source, function):
    """Lines of `function` in `source` with an axis= keyword (a reduction
    along an axis of a points array) or a call of a stack by name or
    attribute."""
    (node,) = [n for n in ast.walk(ast.parse(source))
               if isinstance(n, ast.FunctionDef) and n.name == function]
    found = set()
    for call in ast.walk(node):
        if not isinstance(call, ast.Call):
            continue
        f = call.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
        if "stack" in name or any(k.arg == "axis" for k in call.keywords):
            found.add(call.lineno)
    return sorted(found)


def test_component_scan_flags_a_readded_stack_and_reduction():
    source = ("import numpy as np\n"
              "def _midpoint_steps(a, b):\n"
              "    step = np.stack([a, b], axis=-1)\n"
              "    more = np.max(np.abs(step), axis=-1) > 1e-13\n"
              "    ok = a.all(axis=1)\n"
              "    return np.maximum(np.abs(a), np.abs(b)) > 1e-13\n")
    assert component_pairings(source, "_midpoint_steps") == [3, 4, 5]


@pytest.mark.parametrize("module", sorted(ROW_KERNELS))
def test_row_kernels_keep_components_apart(module):
    source = (SRC / module).read_text(encoding="utf-8")
    assert component_pairings(source, ROW_KERNELS[module]) == []


def test_settings_no_caller_sets_are_not_parameters():
    # the link geometry is constants, and each island check reads the one
    # check batch its caller builds, with no fallback that builds another
    with pytest.raises(TypeError):
        LinkGeometry(tau=2.0)
    for check in (link_saddles, equivariance_and_energy_drift, symmetry_and_identity_report):
        batch = inspect.signature(check).parameters["batch"]
        assert batch.default is inspect.Parameter.empty, check.__name__
