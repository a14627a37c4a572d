"""Hamiltonian systems on the plane and their implicit-midpoint time maps.

Convention: for a canonical pair written (x, y) the flow is

    dx/dt = dH/dy,   dy/dt = -dH/dx,

i.e. zdot = J grad H with J = [[0, 1], [-1, 0]].  The same convention is
used for a polar pair (rho, theta) carrying the area form d rho ^ d theta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .maps import MapDescriptor, inv2

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
# fixed-point tolerance of the midpoint solve in the flow maps
MIDPOINT_TOL = 1e-13


@dataclass
class HamiltonianSystem:
    """Hamiltonian with analytic gradient and Hessian.

    grad(p) returns (dH/dx, dH/dy) with shape (..., 2); hess(p) returns the
    symmetric second-derivative matrix with shape (..., 2, 2).
    """

    name: str
    grad: Callable
    hess: Callable

    def field(self, p):
        g = self.grad(p)
        f = np.empty_like(g)
        f[..., 0] = g[..., 1]
        np.negative(g[..., 0], out=f[..., 1])
        return f

    def field_jacobian(self, p):
        return _J @ self.hess(p)


# substep fractions of one step of each order: the midpoint rule itself, and
# its symmetric triple jump (Yoshida, Phys. Lett. A 150 (1990); Hairer,
# Lubich & Wanner, GNI II.4), whose middle substep runs backwards in time
_CBRT2 = 2.0 ** (1.0 / 3.0)
_STAGES = {2: (1.0,),
           4: (1.0 / (2.0 - _CBRT2), -_CBRT2 / (2.0 - _CBRT2), 1.0 / (2.0 - _CBRT2))}


def _midpoint_steps(sys, p, t, steps, tol, with_jac, fp_cap=30, order=2):
    """Integrate `steps` steps of size h = t/steps of an order-`order` rule.

    Order 2 is the implicit midpoint rule.  Order 4 composes each step from
    three midpoint substeps of sizes gamma_i h, gamma = (1, -2^{1/3}, 1) /
    (2 - 2^{1/3}); every substep, the negative middle one included, stops
    each point at its own fixed-point convergence to `tol`, falls back to
    Newton for the points left unconverged, and raises if Newton fails.

    Returns (z, M) where M is the exact variational Jacobian of the discrete
    flow, the product of the per-substep Cayley factors (so exactly
    symplectic), or None when with_jac is False.
    """
    h_sub = [g * (t / steps) for g in _STAGES[order]]
    z = np.array(p, dtype=float, copy=True)
    M = None
    if with_jac:
        M = np.zeros(z.shape + (2,), dtype=float)
        M[..., 0, 0] = 1.0
        M[..., 1, 1] = 1.0
    eye = np.zeros((2, 2)) + np.eye(2)

    for _ in range(steps):
        for h in h_sub:
            # fixed-point solve for w = z + h f((z+w)/2), explicit-Euler
            # start; each point keeps the iterate at which it converged, so
            # its result does not depend on the other points of the batch
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
                # exact substep Jacobian: (I - h/2 Df)^{-1} (I + h/2 Df) at
                # the midpoint
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
    per-step Cayley transforms, which is exactly symplectic, and one
    integration gives image and Jacobian together (`fwd_jac`).
    """
    t = float(t)

    def fwd(p):
        z, _ = _midpoint_steps(sys, p, t, steps, MIDPOINT_TOL, with_jac=False)
        return z

    def fwd_jac(p):
        return _midpoint_steps(sys, p, t, steps, MIDPOINT_TOL, with_jac=True)

    def jac(p):
        return fwd_jac(p)[1]

    def inv(q):
        z, _ = _midpoint_steps(sys, q, -t, steps, MIDPOINT_TOL, with_jac=False)
        return z

    return MapDescriptor(f"flow[{sys.name}, t={t:g}]", fwd, jac, inv,
                         fwd_jac=fwd_jac)

