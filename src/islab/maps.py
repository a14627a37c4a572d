"""Planar and toral map descriptors and the basic symplectic building blocks.

Points are numpy arrays of shape (..., 2); the last axis is (x, y).  Torus
points live in the fundamental square [0,1)^2 and are reduced there by
`wrap_torus`.  Jacobians are always computed on the plane lift.  Inside the
package a 2x2 matrix travels as its four entries (m00, m01, m10, m11), each
a scalar or an array that broadcasts against the batch: `mul2` multiplies
them and `inv2` inverts them.  Only the public `jacobian` and
`value_and_jacobian` assemble (..., 2, 2) stacks, through `jac_stack`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def wrap_torus(p):
    """Reduce points mod 1 into [0, 1)^2 (a coordinate within rounding
    below 0 lands on 1.0).

    p - floor(p) is bitwise equal to np.mod(p, 1.0), sign bit included
    (-0.0 -> 0.0, -1e-300 -> 1.0, NaN and +-inf -> NaN), without np.mod's
    per-element divmod.
    """
    return p - np.floor(p)


def torus_diff(p, q):
    """Shortest-representative difference p - q on the torus, in [-1/2, 1/2)."""
    d = np.asarray(p) - np.asarray(q)
    return d - np.round(d)


@dataclass
class MapDescriptor:
    """A(n invertible) planar or toral map with its analytic Jacobian.

    Attributes
    ----------
    name : str
    ev : callable
        Evaluation (p, with_jac) -> (f(p), Df(p) or None): the image, shape
        (..., 2), and when with_jac the analytic Jacobian on the plane
        lift as its entries (J00, J01, J10, J11), from one pass.  Each
        entry broadcasts against the image's batch shape, and is a scalar
        where it is constant.  Torus maps return wrapped images.
    inv : callable or None
        Exact inverse evaluation q -> f^-1(q), given only where a suite, a
        construction check or a paper claim reads it (each builder says
        which); `inverse` and `inverse_descriptor` raise ValueError without
        it.
    domain : callable or None
        Boolean containment mask for points where the map is defined.
    area_density : callable or None
        Density mu(p) > 0 when the map preserves mu * dx dy rather than
        dx dy.  Symplecticity checks then weigh the determinant as
        mu(f(p)) det Df(p) / mu(p).
    torsion_symmetric : bool
        True when the torus map commutes with p -> -p and with the
        translations by the 2-torsion points (1/2 Z)^2: f(-p) = -f(p) and
        f(p + v) = f(p) + v, mod 1.  `lyapunov.entropy_estimate` then
        integrates one grid cell per orbit of that group of eight.
    """

    name: str
    ev: Callable
    inv: Optional[Callable] = None
    domain: Optional[Callable] = None
    area_density: Optional[Callable] = None
    torsion_symmetric: bool = False

    def __call__(self, p):
        return self.ev(np.asarray(p, dtype=float), False)[0]

    def value_and_jacobian(self, p):
        fp, J = self.ev(np.asarray(p, dtype=float), True)
        return fp, jac_stack(J, fp.shape[:-1])

    def jacobian(self, p):
        return self.value_and_jacobian(p)[1]

    def inverse(self, q):
        if self.inv is None:
            raise ValueError(f"{self.name}: no closed-form inverse")
        return self.inv(np.asarray(q, dtype=float))

    def symplectic_defect(self, p):
        """|mu(f p) det Df(p) / mu(p) - 1| (mu = 1 when no density is set)."""
        p = np.asarray(p, dtype=float)
        fp, (a, b, c, d) = self.ev(p, True)
        det = np.broadcast_to(a * d - b * c, fp.shape[:-1])
        if self.area_density is not None:
            det = det * self.area_density(fp) / self.area_density(p)
        return np.abs(det - 1.0)


def compose(*maps, name=None):
    """Composition m_1 o m_2 o ... o m_k (rightmost applied first).

    Image and Jacobian come from one pass along the chain, each factor's
    `ev` feeding the chain rule; the inverse exists when every factor
    carries one.  The composite inherits `domain` from the rightmost
    factor.
    """
    if not maps:
        raise ValueError("compose() needs at least one map")
    if len(maps) == 1:
        return maps[0]

    def ev(p, with_jac):
        J = None    # stays None without with_jac: every factor's Jm is None
        for m in reversed(maps):
            p, Jm = m.ev(p, with_jac)
            J = Jm if J is None else mul2(Jm, J)
        return p, J

    # read by the construction check that inverts compose(S_psi, F)
    # (tests/construction_checks.py: PsiChart)
    inv = None
    if all(m.inv is not None for m in maps):
        def inv(q):
            for m in maps:
                q = m.inv(q)
            return q

    return MapDescriptor(name or "(" + "∘".join(m.name for m in maps) + ")",
                         ev, inv, domain=maps[-1].domain)


def jac_stack(J, shape):
    """The (*shape, 2, 2) stack of the entries J = (J00, J01, J10, J11),
    each broadcast to the batch shape `shape`."""
    out = np.empty(shape + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = J
    return out


def inv2(m):
    """The inverse of 2x2 matrices from entries: m is (m00, m01, m10, m11),
    and so is the result, the adjugate divided by the determinant."""
    a, b, c, d = m
    det = a * d - b * c
    return d / det, -b / det, -c / det, a / det


def _times(c, v):
    """c v, without the multiply when c is a scalar +-1."""
    if isinstance(c, float):
        if c == 1.0:
            return v
        if c == -1.0:
            return -v
    return c * v


def _dot(x, y, u, v):
    """x y + u v for the entries x, u of a row of a and y, v of a column of
    b; a term whose factor x or u is a scalar exactly 0 is dropped (unless
    both are), and so is the multiply by a scalar +-1."""
    if not (isinstance(x, float) or isinstance(u, float)):
        return x * y + u * v
    x0 = isinstance(x, float) and x == 0.0
    u0 = isinstance(u, float) and u == 0.0
    if x0 != u0:
        return _times(u, v) if x0 else _times(x, y)
    if isinstance(u, float) and u == -1.0:      # x y + (-1) v is x y - v
        return _times(x, y) - v
    return _times(x, y) + _times(u, v)


def mul2(a, b):
    """The 2x2 product a b from entries: a and b are each (x00, x01, x10,
    x11), and so is the result.

    An entry is a scalar or an array, and the entries broadcast, so one
    matrix given by scalars multiplies a stack.  Every entry of the product
    is two products and one sum of that row's own entries, so a row's bits
    do not depend on its batch.  A stack carried as four contiguous entry
    arrays is read and written contiguously; numpy's `@` runs one small
    gemm per matrix of a stack, about 3x slower at the several thousand
    rows where the cocycle and the island Jacobian run.

    A constant entry of a that is a scalar exactly 0 drops its product, and
    one that is a scalar +-1 its multiply: the standard map's Jacobian
    (J00, -1, 1, 0) costs two multiplies and two sums instead of eight and
    four.  1 v is v and x y + (-1) v is x y - v bit for bit, and x y + 0 v
    is x y except that a zero's sign can change (-0 + 0 is +0) and that
    0 v is NaN for an infinite v.  So for finite b only the sign of a zero
    can change; an invertible a keeps a non-finite column of b non-finite
    in the product, in the other row.  A dropped product can leave an
    entry a scalar where it was an array of one value, and an entry of the
    product may be an entry of b itself: write into neither.
    """
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (_dot(a00, b00, a01, b10), _dot(a00, b01, a01, b11),
            _dot(a10, b00, a11, b10), _dot(a10, b01, a11, b11))


def inverse_descriptor(m):
    """Descriptor for m^-1 from m's exact inverse; its Jacobian is the
    inverse of Dm at the preimage, which is evaluated once for both."""
    if m.inv is None:
        raise ValueError(f"{m.name}: no closed-form inverse")

    def ev(q, with_jac):
        p = m.inv(q)
        return p, (inv2(m.ev(p, True)[1]) if with_jac else None)

    return MapDescriptor(m.name + "^-1", ev)


# ----------------------------------------------------------------------
# Built-in maps
# ----------------------------------------------------------------------

# The automorphism: symmetric, determinant 1, top eigenvalue 9 + 4 sqrt(5),
# whose log is the expansion rate sigma; its inverse is exact in floats.
ANOSOV = np.array([[13.0, 8.0], [8.0, 5.0]])
ANOSOV_INV = np.reshape(inv2(ANOSOV.ravel()), (2, 2))


def anosov_map():
    """Linear hyperbolic torus automorphism p -> A p (mod 1), A = ANOSOV.

    A is congruent to I mod 2, so A v = v mod 1 for every 2-torsion point v
    and the map is torsion-symmetric."""
    # (N, 2) @ M.T with a transposed view rounds differently depending on
    # N; contiguous transposes keep every point's image independent of its
    # batch
    AT, AinvT = (np.ascontiguousarray(M.T) for M in (ANOSOV, ANOSOV_INV))
    JA = tuple(ANOSOV.ravel())

    def ev(p, with_jac):
        return wrap_torus(p @ AT), (JA if with_jac else None)

    # read through inverse_descriptor by the exponent-symmetry construction
    # check (tests/construction_checks.py: exponent_symmetry_defect)
    def inv(q):
        return wrap_torus(q @ AinvT)

    return MapDescriptor("F_A", ev, inv, torsion_symmetric=True)


def chirikov_map(a):
    """Standard-family torus map (x, y) -> (2x - y + a sin(2 pi x), x).

    The fixed point (1/2, 1/2) is elliptic for 0 < a < 2/pi (the trace of
    the Jacobian there is 2 - 2 pi a).  An array `a` gives one parameter
    per point: it broadcasts against the points' leading axes.

    2 pi a is formed once per map and 2 pi x once per evaluation, for the
    kick and the Jacobian both, with the same bits as forming each where it
    is used.  The Jacobian (2 + 2 pi a cos 2 pi x, -1, 1, 0) has three
    constant entries, which `mul2` multiplies without a pass each.
    """
    if np.ndim(a) == 0:
        a = float(a)
        name = f"T_a(a={a:g})"
    else:
        a = np.asarray(a, dtype=float)
        name = f"T_a(a=[{a.size} values])"
    two_pi_a = 2 * np.pi * a

    # an array a may outnumber the points: an image takes the kicked
    # coordinate's shape, and the unkicked one broadcasts into it
    def ev(p, with_jac):
        x, y = p[..., 0], p[..., 1]
        t = 2 * np.pi * x
        kicked = 2.0 * x - y + a * np.sin(t)
        out = np.empty(kicked.shape + (2,))
        out[..., 0], out[..., 1] = kicked, x
        out = wrap_torus(out)
        if not with_jac:
            return out, None
        return out, (2.0 + two_pi_a * np.cos(t), -1.0, 1.0, 0.0)

    # read through inverse_descriptor by the exponent-symmetry construction
    # check (tests/construction_checks.py: exponent_symmetry_defect)
    def inv(q):
        X, Y = q[..., 0], q[..., 1]
        kicked = 2.0 * Y + a * np.sin(2 * np.pi * Y) - X
        out = np.empty(kicked.shape + (2,))
        out[..., 0], out[..., 1] = Y, kicked
        return wrap_torus(out)

    return MapDescriptor(name, ev, inv)


def shear_map(psi, dpsi, name="S_psi"):
    """Vertical shear S_psi(x, y) = (x, y + psi(x)).

    `psi` maps x-arrays to arrays; `dpsi` is its derivative.  The image
    takes the broadcast shape of the points and psi(x): a stack of K shears
    (psi(x) of shape (K, n)) maps one shared row of n points to K rows.
    """
    def shifted(p, dy):
        x = p[..., 0]
        out = np.empty(np.broadcast_shapes(x.shape, np.shape(dy)) + (2,))
        out[..., 0] = x
        out[..., 1] = p[..., 1] + dy
        return out

    def ev(p, with_jac):
        out = shifted(p, psi(p[..., 0]))
        return out, ((1.0, 0.0, dpsi(p[..., 0]), 1.0) if with_jac else None)

    # read by the links suite (the hook's inverse, in each backward step) and
    # by the construction check that inverts compose(S_psi, F)
    def inv(q):
        return shifted(q, -psi(q[..., 0]))

    return MapDescriptor(name, ev, inv)


def henon_like(psi, dpsi, name="H_psi"):
    """Henon-form plane map H_psi(x, y) = (y, -x + psi(y)); `dpsi` is the
    derivative of psi.

    Exact inverse (xb, yb) -> (psi(xb) - yb, xb).  With psi = 0 this is the
    clockwise quarter turn H_0, and H_0^4 = id.
    """
    def ev(p, with_jac):
        x, y = p[..., 0], p[..., 1]
        out = np.stack([y, -x + psi(y)], axis=-1)
        return out, ((0.0, 1.0, -1.0, dpsi(y)) if with_jac else None)

    # read by the rescaling suite: the legs' H_i^-1 and the corollary's H_0^-1
    def inv(q):
        xb, yb = q[..., 0], q[..., 1]
        return np.stack([psi(xb) - yb, xb], axis=-1)

    return MapDescriptor(name, ev, inv)


def quarter_turn():
    """The rotation H_0(x, y) = (y, -x); equals henon_like(0)."""
    return henon_like(lambda y: np.zeros_like(y), lambda y: np.zeros_like(y), name="H_0")


def affine_map(name, scale, shift):
    """Diagonal affine plane map (x, y) -> (s_x x + c_x, s_y y + c_y) for
    scale (s_x, s_y) and shift (c_x, c_y); the exact inverse divides by the
    scale."""
    scale = np.asarray(scale, dtype=float)
    shift = np.asarray(shift, dtype=float)
    J = (scale[0], 0.0, 0.0, scale[1])

    def ev(p, with_jac):
        return p * scale + shift, (J if with_jac else None)

    # read by the links suite (the backward steps of its pieces) and the
    # rescaling suite (the exit charts' Qbar^-1)
    def inv(q):
        return (q - shift) / scale

    return MapDescriptor(name, ev, inv)


def rotation_map(angle):
    """Rigid plane rotation by `angle` (not hyperbolic; cone-test falsifier).
    It carries no inverse: nothing runs R^-1."""
    c, s = np.cos(angle), np.sin(angle)
    RT = np.array([[c, s], [-s, c]])  # R^T, contiguous: batch-independent rows
    J = (c, -s, s, c)

    def ev(p, with_jac):
        return p @ RT, (J if with_jac else None)

    return MapDescriptor(f"R({angle:g})", ev)

