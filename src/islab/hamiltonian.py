"""Hamiltonian systems on the plane and their implicit-midpoint time maps.

Convention: for a canonical pair written (x, y) the flow is

    dx/dt = dH/dy,   dy/dt = -dH/dx,

i.e. zdot = J grad H with J = [[0, 1], [-1, 0]].  The same convention is
used for a polar pair (rho, theta) carrying the area form d rho ^ d theta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .maps import MapDescriptor, inv2

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
# fixed-point tolerance of the midpoint solve in the flow maps
MIDPOINT_TOL = 1e-13


@dataclass
class HamiltonianSystem:
    """Hamiltonian with analytic gradient (and optionally Hessian / value).

    grad(p) returns (dH/dx, dH/dy) with shape (..., 2); hess(p) returns the
    symmetric second-derivative matrix with shape (..., 2, 2); value(p) is H
    itself, used only for energy-drift diagnostics.
    """

    name: str
    grad: Callable
    hess: Optional[Callable] = None
    value: Optional[Callable] = None

    def field(self, p):
        g = self.grad(p)
        return np.stack([g[..., 1], -g[..., 0]], axis=-1)

    def field_jacobian(self, p):
        if self.hess is None:
            raise ValueError(f"{self.name}: no Hessian available")
        return _J @ self.hess(p)


def _midpoint_steps(sys, p, t, steps, tol, with_jac, fp_cap=30):
    """Integrate `steps` implicit-midpoint steps of size t/steps.

    Returns (z, M) where M is the exact variational (Cayley) Jacobian of the
    discrete flow, or None when with_jac is False.
    """
    h = t / steps
    z = np.array(p, dtype=float, copy=True)
    M = None
    if with_jac:
        M = np.zeros(z.shape + (2,), dtype=float)
        M[..., 0, 0] = 1.0
        M[..., 1, 1] = 1.0
    eye = np.zeros((2, 2)) + np.eye(2)

    for _ in range(steps):
        # fixed-point solve for w = z + h f((z+w)/2), explicit-Euler start;
        # each point keeps the iterate at which it converged, so its result
        # does not depend on the other points of the batch
        w = z + h * sys.field(z)
        act = None
        for _ in range(fp_cap):
            w_new = z + h * sys.field(0.5 * (z + w))
            more = np.max(np.abs(w_new - w), axis=-1) > tol
            if act is not None:
                w_new = np.where(act[..., None], w_new, w)
                more &= act
            w, act = w_new, more
            if not act.any():
                break
        if act.any():
            # Newton fallback on G(w) = w - z - h f((z+w)/2), for the
            # points the fixed-point sweeps left unconverged
            for _ in range(50):
                mid = 0.5 * (z + w)
                G = w - z - h * sys.field(mid)
                act &= np.max(np.abs(G), axis=-1) > tol
                if not act.any():
                    break
                JG = eye - (0.5 * h) * sys.field_jacobian(mid)
                step = (inv2(JG) @ G[..., None])[..., 0]
                w = np.where(act[..., None], w - step, w)
            else:
                raise RuntimeError(f"{sys.name}: midpoint solver failed at h={h:g}")
        if with_jac:
            # exact step Jacobian: (I - h/2 Df)^{-1} (I + h/2 Df) at the midpoint
            Df = sys.field_jacobian(0.5 * (z + w))
            A = eye - (0.5 * h) * Df
            B = eye + (0.5 * h) * Df
            M = inv2(A) @ (B @ M)
        z = w
    return z, M


def hamiltonian_time_map(sys, t, steps):
    """Time-t flow map of `sys` as a MapDescriptor, in `steps` steps.

    Implicit midpoint with a fixed-point inner solve (tolerance
    MIDPOINT_TOL, Newton fallback); the Jacobian is the product of the
    per-step Cayley transforms, which is exactly symplectic.

    The step Jacobian needs sys.hess; without it the descriptor falls back
    to finite differences.
    """
    t = float(t)
    has_hess = sys.hess is not None

    def fwd(p):
        z, _ = _midpoint_steps(sys, p, t, steps, MIDPOINT_TOL, with_jac=False)
        return z

    jac = None
    if has_hess:
        def jac(p):
            _, M = _midpoint_steps(sys, p, t, steps, MIDPOINT_TOL, with_jac=True)
            return M

    def inv(q):
        z, _ = _midpoint_steps(sys, q, -t, steps, MIDPOINT_TOL, with_jac=False)
        return z

    return MapDescriptor(f"flow[{sys.name}, t={t:g}]", fwd, jac, inv)


def energy_drift(sys, mapping, pts):
    """max |H(f(p)) - H(p)| over pts; requires sys.value."""
    if sys.value is None:
        raise ValueError("energy_drift needs sys.value")
    pts = np.asarray(pts, dtype=float)
    return float(np.max(np.abs(sys.value(mapping(pts)) - sys.value(pts))))


def saddle_system(sigma):
    """H = sigma * x * y: linear saddle flow (x, y) -> (e^{st} x, e^{-st} y)."""
    s = float(sigma)

    def grad(p):
        return np.stack([s * p[..., 1], s * p[..., 0]], axis=-1)

    def hess(p):
        H = np.zeros(np.shape(p)[:-1] + (2, 2), dtype=float)
        H[..., 0, 1] = s
        H[..., 1, 0] = s
        return H

    def value(p):
        return s * p[..., 0] * p[..., 1]

    return HamiltonianSystem(f"sigma*x*y (sigma={s:g})", grad, hess, value)
