"""Planar and toral map descriptors and the basic symplectic building blocks.

Points are numpy arrays of shape (..., 2); the last axis is (x, y).  Torus
points live in the fundamental square [0,1)^2 and are reduced there by
`wrap_torus`.  Jacobians are always computed on the plane lift and returned
with shape (..., 2, 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def wrap_torus(p):
    """Reduce points mod 1 into [0, 1)^2."""
    return np.mod(p, 1.0)


def torus_diff(p, q):
    """Shortest-representative difference p - q on the torus, in [-1/2, 1/2)."""
    d = np.asarray(p) - np.asarray(q)
    return d - np.round(d)


def finite_difference_jacobian(f, p, h=None, wrap_output=False):
    """Central finite-difference Jacobian of f at p.

    Parameters
    ----------
    f : callable
        Map taking (..., 2) arrays to (..., 2) arrays.
    p : array, shape (..., 2)
    h : float or None
        Step size.  Default is componentwise 1e-6 * (1 + |p_i|).
    wrap_output : bool
        If True, image differences are reduced to the shortest torus
        representative before dividing (use for maps that wrap mod 1).

    Returns
    -------
    J : array, shape (..., 2, 2)
    """
    p = np.asarray(p, dtype=float)
    if h is None:
        step = 1e-6 * (1.0 + np.abs(p))
    else:
        step = np.broadcast_to(float(h), p.shape).copy()
    J = np.empty(p.shape + (2,), dtype=float)
    for j in range(2):
        dp = np.zeros_like(p)
        dp[..., j] = step[..., j]
        fp = np.asarray(f(p + dp), dtype=float)
        fm = np.asarray(f(p - dp), dtype=float)
        diff = fp - fm
        if wrap_output:
            diff = diff - np.round(diff)
        J[..., :, j] = diff / (2.0 * step[..., j])[..., None]
    return J


@dataclass
class MapDescriptor:
    """A(n invertible) planar or toral map with optional analytic extras.

    Attributes
    ----------
    name : str
    fwd : callable
        Evaluation, (..., 2) -> (..., 2).  Torus maps return wrapped output.
    jac : callable or None
        Analytic Jacobian, (..., 2) -> (..., 2, 2), on the plane lift.
        When None, `jacobian` falls back to central finite differences.
    inv : callable or None
        Exact inverse evaluation, if one is known in closed form.
    wrap : bool
        True for torus maps (outputs in [0,1)^2, FD differences unwrapped).
    domain : callable or None
        Boolean containment mask for points where the map is defined.
    area_density : callable or None
        Density mu(p) > 0 when the map preserves mu * dx dy rather than
        dx dy.  Symplecticity checks then weigh the determinant as
        mu(f(p)) det Df(p) / mu(p).
    fwd_jac : callable or None
        Fused evaluation p -> (fwd(p), jacobian(p)) for maps whose image
        and Jacobian share most of their work.
    """

    name: str
    fwd: Callable
    jac: Optional[Callable] = None
    inv: Optional[Callable] = None
    wrap: bool = False
    domain: Optional[Callable] = None
    area_density: Optional[Callable] = None
    fwd_jac: Optional[Callable] = None

    def __call__(self, p):
        return self.fwd(np.asarray(p, dtype=float))

    def value_and_jacobian(self, p):
        """(f(p), Df(p)) in one evaluation when `fwd_jac` is set."""
        p = np.asarray(p, dtype=float)
        if self.fwd_jac is not None:
            return self.fwd_jac(p)
        return self(p), self.jacobian(p)

    def jacobian(self, p):
        p = np.asarray(p, dtype=float)
        if self.jac is not None:
            return self.jac(p)
        return finite_difference_jacobian(self.fwd, p, wrap_output=self.wrap)

    def inverse(self, q):
        if self.inv is None:
            raise ValueError(f"{self.name}: no closed-form inverse")
        return self.inv(np.asarray(q, dtype=float))

    def symplectic_defect(self, p):
        """|mu(f p) det Df(p) / mu(p) - 1| (mu = 1 when no density is set)."""
        p = np.asarray(p, dtype=float)
        det = np.linalg.det(self.jacobian(p))
        if self.area_density is not None:
            det = det * self.area_density(self.fwd(p)) / self.area_density(p)
        return np.abs(det - 1.0)


def compose(*maps, name=None):
    """Composition m_1 o m_2 o ... o m_k (rightmost applied first).

    The Jacobian is assembled by the chain rule; the inverse exists when
    every factor carries one.  The composite inherits `wrap` from the
    leftmost factor and `domain` from the rightmost.
    """
    if not maps:
        raise ValueError("compose() needs at least one map")
    if len(maps) == 1:
        return maps[0]

    def fwd(p):
        for m in reversed(maps):
            p = m.fwd(p)
        return p

    def jac(p):
        J = None
        for m in reversed(maps):
            Jm = m.jacobian(p)
            J = Jm if J is None else Jm @ J
            p = m.fwd(p)
        return J

    inv = None
    if all(m.inv is not None for m in maps):
        def inv(q):
            for m in maps:
                q = m.inv(q)
            return q

    return MapDescriptor(
        name=name or "(" + "∘".join(m.name for m in maps) + ")",
        fwd=fwd,
        jac=jac,
        inv=inv,
        wrap=maps[0].wrap,
        domain=maps[-1].domain,
    )


def inv2(J):
    """Batched closed-form inverse of 2x2 matrices (shape (..., 2, 2))."""
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    inv = np.empty_like(J)
    inv[..., 0, 0] = J[..., 1, 1]
    inv[..., 0, 1] = -J[..., 0, 1]
    inv[..., 1, 0] = -J[..., 1, 0]
    inv[..., 1, 1] = J[..., 0, 0]
    return inv / det[..., None, None]


def inverse_descriptor(m):
    """Descriptor for m^-1 from m's exact inverse.

    The Jacobian is m's own `jac_inv` when it has one, else the inverse of
    Dm at the preimage.
    """
    if m.inv is None:
        raise ValueError(f"{m.name}: no closed-form inverse")

    def jac(q):
        return inv2(m.jacobian(m.inv(q)))

    if hasattr(m, "jac_inv"):
        jac = m.jac_inv
    return MapDescriptor(m.name + "^-1", m.inv, jac, m.fwd, wrap=m.wrap)


# ----------------------------------------------------------------------
# Built-in maps
# ----------------------------------------------------------------------

# The automorphism: symmetric, determinant 1, top eigenvalue 9 + 4 sqrt(5),
# whose log is the expansion rate sigma.
ANOSOV = np.array([[13.0, 8.0], [8.0, 5.0]])


def anosov_map():
    """Linear hyperbolic torus automorphism p -> A p (mod 1), A = ANOSOV."""
    Ainv = inv2(ANOSOV)

    def fwd(p):
        return wrap_torus(p @ ANOSOV.T)

    def jac(p):
        return np.broadcast_to(ANOSOV, np.shape(p)[:-1] + (2, 2)).copy()

    def inv(q):
        return wrap_torus(q @ Ainv.T)

    return MapDescriptor("F_A", fwd, jac, inv, wrap=True)


def chirikov_map(a):
    """Standard-family torus map (x, y) -> (2x - y + a sin(2 pi x), x).

    The fixed point (1/2, 1/2) is elliptic for 0 < a < 2/pi (the trace of
    the Jacobian there is 2 - 2 pi a).  An array `a` gives one parameter
    per point: it broadcasts against the points' leading axes.
    """
    if np.ndim(a) == 0:
        a = float(a)
        name = f"T_a(a={a:g})"
    else:
        a = np.asarray(a, dtype=float)
        name = f"T_a(a=[{a.size} values])"

    def fwd(p):
        x, y = p[..., 0], p[..., 1]
        return wrap_torus(np.stack([2.0 * x - y + a * np.sin(2 * np.pi * x), x], axis=-1))

    def jac(p):
        x = p[..., 0]
        J = np.empty(np.shape(p)[:-1] + (2, 2), dtype=float)
        J[..., 0, 0] = 2.0 + 2 * np.pi * a * np.cos(2 * np.pi * x)
        J[..., 0, 1] = -1.0
        J[..., 1, 0] = 1.0
        J[..., 1, 1] = 0.0
        return J

    def inv(q):
        X, Y = q[..., 0], q[..., 1]
        return wrap_torus(np.stack([Y, 2.0 * Y + a * np.sin(2 * np.pi * Y) - X], axis=-1))

    return MapDescriptor(name, fwd, jac, inv, wrap=True)


def shear_map(psi, dpsi=None, name="S_psi"):
    """Vertical shear S_psi(x, y) = (x, y + psi(x)).

    `psi` maps x-arrays to arrays; `dpsi` is its derivative (finite
    differenced on psi when omitted).
    """
    if dpsi is None:
        def dpsi(x, _p=psi):
            h = 1e-6 * (1.0 + np.abs(x))
            return (_p(x + h) - _p(x - h)) / (2.0 * h)

    def fwd(p):
        out = np.array(p, dtype=float, copy=True)
        out[..., 1] += psi(p[..., 0])
        return out

    def jac(p):
        J = np.zeros(np.shape(p)[:-1] + (2, 2), dtype=float)
        J[..., 0, 0] = 1.0
        J[..., 1, 1] = 1.0
        J[..., 1, 0] = dpsi(p[..., 0])
        return J

    def inv(q):
        out = np.array(q, dtype=float, copy=True)
        out[..., 1] -= psi(q[..., 0])
        return out

    return MapDescriptor(name, fwd, jac, inv)


def henon_like(psi, dpsi=None, name="H_psi"):
    """Henon-form plane map H_psi(x, y) = (y, -x + psi(y)).

    Exact inverse (xb, yb) -> (psi(xb) - yb, xb).  With psi = 0 this is the
    clockwise quarter turn H_0, and H_0^4 = id.
    """
    if dpsi is None:
        def dpsi(x, _p=psi):
            h = 1e-6 * (1.0 + np.abs(x))
            return (_p(x + h) - _p(x - h)) / (2.0 * h)

    def fwd(p):
        x, y = p[..., 0], p[..., 1]
        return np.stack([y, -x + psi(y)], axis=-1)

    def jac(p):
        J = np.zeros(np.shape(p)[:-1] + (2, 2), dtype=float)
        J[..., 0, 1] = 1.0
        J[..., 1, 0] = -1.0
        J[..., 1, 1] = dpsi(p[..., 1])
        return J

    def inv(q):
        xb, yb = q[..., 0], q[..., 1]
        return np.stack([psi(xb) - yb, xb], axis=-1)

    return MapDescriptor(name, fwd, jac, inv)


def quarter_turn():
    """The rotation H_0(x, y) = (y, -x); equals henon_like(0)."""
    return henon_like(lambda y: np.zeros_like(y), lambda y: np.zeros_like(y), name="H_0")


def rotation_map(angle):
    """Rigid plane rotation by `angle` (not hyperbolic; cone-test falsifier)."""
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[c, -s], [s, c]])

    def fwd(p):
        return p @ R.T

    def jac(p):
        return np.broadcast_to(R, np.shape(p)[:-1] + (2, 2)).copy()

    def inv(q):
        return q @ R

    return MapDescriptor(f"R({angle:g})", fwd, jac, inv)


def identity_map():
    def fwd(p):
        return np.array(p, dtype=float, copy=True)

    def jac(p):
        J = np.zeros(np.shape(p)[:-1] + (2, 2), dtype=float)
        J[..., 0, 0] = 1.0
        J[..., 1, 1] = 1.0
        return J

    return MapDescriptor("id", fwd, jac, fwd)
