"""Hamiltonian systems on the plane and their one integrator, the batched
implicit midpoint rule (`_midpoint_steps`), and its one fourth-order
composition, Suzuki's five stages.

Convention: for a canonical pair written (x, y) the flow is

    dx/dt = dH/dy,   dy/dt = -dH/dx,

i.e. zdot = J grad H with J = [[0, 1], [-1, 0]].  The same convention is
used for a polar pair (rho, theta) carrying the area form d rho ^ d theta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .maps import inv2, mul2

# stopping tolerance of the midpoint solve, on each point's Newton step
MIDPOINT_TOL = 1e-13
# simplified-Newton iterations per substep before the solve raises
SOLVE_CAP = 30


@dataclass
class HamiltonianSystem:
    """Hamiltonian with analytic gradient and Hessian.

    grad(p) returns (dH/dx, dH/dy) with shape (..., 2); hess(p) returns the
    entries (H_xx, H_xy, H_yy) of the symmetric second-derivative matrix.
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
        """Entries of D(J grad H) = J Hess H, J = [[0, 1], [-1, 0]]."""
        hxx, hxy, hyy = self.hess(p)
        return hxy, hyy, -hxx, -hxy


# substep fractions of one step of each order: the midpoint rule itself, and
# Suzuki's symmetric five-stage composition (p, p, 1 - 4p, p, p) with
# p = 1/(4 - 4^{1/3}) (Suzuki, Phys. Lett. A 146 (1990) 319; McLachlan, SIAM
# J. Sci. Comput. 16 (1995) 151), whose middle substep runs backwards in time
_P = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
_STAGES = {2: (1.0,),
           4: (_P, _P, 1.0 - 4.0 * _P, _P, _P)}


def _identity_plus(c, Df):
    """Entries of I + c Df, from the entries of Df."""
    f00, f01, f10, f11 = Df
    return 1.0 + c * f00, c * f01, c * f10, 1.0 + c * f11


def _midpoint_steps(sys, p, t, steps, tol, with_jac, order=2):
    """Integrate `steps` steps of size h = t/steps of an order-`order` rule.

    Order 2 is the implicit midpoint rule.  Order 4 composes each step from
    five midpoint substeps of sizes gamma_i h, gamma = (p, p, 1 - 4p, p, p)
    with p = 1/(4 - 4^{1/3}): the gamma_i sum to 1, their cubes to 0, and
    none exceeds 0.66 in size, which keeps the error constant small.  Every
    substep, the negative middle one included, solves
    G(w) = w - z - h f((z+w)/2) = 0 by simplified Newton (Hairer, Lubich &
    Wanner, GNI VIII.6): an explicit-Euler start, and N = (I - h/2 Df)^{-1}
    frozen at the Euler midpoint.  Each point stops at its own convergence,
    max |N G| <= `tol`, so its result does not depend on the other points of
    the batch; a point still moving after SOLVE_CAP iterations raises.

    Returns (z, M) where M is the exact variational Jacobian of the discrete
    flow as its entries (M00, M01, M10, M11), the product of the
    per-substep Cayley factors (so exactly symplectic), or None when
    with_jac is False.
    """
    h_sub = [g * (t / steps) for g in _STAGES[order]]
    z = np.array(p, dtype=float, copy=True)
    M = (1.0, 0.0, 0.0, 1.0) if with_jac else None

    for _ in range(steps):
        for h in h_sub:
            f = sys.field(z)
            w = z + h * f
            a, b, c, d = inv2(_identity_plus(-0.5 * h, sys.field_jacobian(z + 0.5 * h * f)))
            act = None
            for _ in range(SOLVE_CAP):
                G = w - z - h * sys.field(0.5 * (z + w))
                g0, g1 = G[..., 0], G[..., 1]
                # the step as its two components: a stopped point's is 0, and
                # w - 0 is w bit for bit
                s0, s1 = a * g0 + b * g1, c * g0 + d * g1
                more = np.maximum(np.abs(s0), np.abs(s1)) > tol
                if act is not None:
                    s0, s1 = np.where(act, s0, 0.0), np.where(act, s1, 0.0)
                    more &= act
                w[..., 0] -= s0
                w[..., 1] -= s1
                act = more
                if not act.any():
                    break
            else:
                raise RuntimeError(f"{sys.name}: midpoint solver failed at h={h:g}")
            if with_jac:
                # exact substep Jacobian: (I - h/2 Df)^{-1} (I + h/2 Df) at
                # the midpoint
                Df = sys.field_jacobian(0.5 * (z + w))
                M = mul2(inv2(_identity_plus(-0.5 * h, Df)), mul2(_identity_plus(0.5 * h, Df), M))
            z = w
    return z, M
