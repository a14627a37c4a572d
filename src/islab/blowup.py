"""Surgery construction: blow up the fixed points of the linear torus map
into circles and glue in a Hamiltonian island flow.

Geometry.  The automorphism matrix A = [[13,8],[8,5]] is symmetric,
so its orthonormal eigenbasis is a rotation R and, in the per-center chart
w = R^T (p - Omega_i) (nearest lift), A acts exactly as diag(e^s, e^-s)
with s = ln(9+4*sqrt(5)).  That diagonal map is precisely the time-s flow
of H0 = rho sin(2 theta) in symplectic polar coordinates
(x, y) = (sqrt(2 rho) cos theta, sqrt(2 rho) sin theta).

The surgery Psi_i rescales radially: rho -> psi(rho) with psi(rho) =
rho - delta^2/2 near the inner edge and psi(rho) = rho near the outer edge,
joined by a monotone quintic.  Being radial, it is d -> sqrt(psi(rho)/rho) d
in the chart offset d = p - Omega_i itself; R cancels there, and only the
island flow, whose angle theta lives in the eigenframe, uses it.  The
surgered map is

    Fhat = Psi^{-1} o F_A o Psi        outside the discs V_i,
    Fhat = time-s flow of Hhat_i       on V_i,
    Hhat_i = (rho - delta^2/2) sin(2 theta) xi(rho),

which agree across the collar.  Fhat preserves the pulled-back area form
whose density is psi'(rho) on the surgery annuli and 1 elsewhere; the
descriptor carries that density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import rtsafe, smoothstep, smoothstep_and_d1, smoothstep_d1, smoothstep_d2
from .hamiltonian import MIDPOINT_TOL, HamiltonianSystem, _midpoint_steps
from .maps import ANOSOV, MapDescriptor, inv2, torus_diff, wrap_torus

SIGMA = np.log(9.0 + 4.0 * np.sqrt(5.0))          # expansion exponent
# the centres are the lattice (1/2 Z)^2 on the torus
CENTERS = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])
# psi_inv: residual floor in ulps of the target, and the iteration cap
_ROOT_ULPS = 8
_ROOT_CAP = 80
# island flow integration: the evaluation default is FLOW_STEPS implicit-
# midpoint (order 2) steps at MIDPOINT_TOL; the saddle-multiplier
# verification takes SADDLE_STEPS fourth-order triple-jump steps whose
# substeps converge to SADDLE_TOL, tight enough that the solver's stopping
# noise stays out of the finite-difference multipliers
FLOW_STEPS = 64
SADDLE_STEPS = 128
SADDLE_ORDER = 4
SADDLE_TOL = 1e-14


def eigen_rotation():
    """Rotation R with R^T A R = diag(e^s, e^-s) for A = ANOSOV."""
    vals, vecs = np.linalg.eigh(ANOSOV)
    u_plus = vecs[:, np.argmax(vals)]
    if u_plus[0] < 0:
        u_plus = -u_plus
    R = np.column_stack([u_plus, [-u_plus[1], u_plus[0]]])
    return R


def _norm2(w):
    """|w|^2 of points (..., 2): the same bits as np.sum(w * w, axis=-1),
    without paying for a reduction over a length-2 axis."""
    ww = w * w
    return ww[..., 0] + ww[..., 1]


def to_polar(w):
    """Symplectic polar coordinates (rho, theta) of Cartesian chart points."""
    w = np.asarray(w, dtype=float)
    rho = 0.5 * _norm2(w)
    theta = np.arctan2(w[..., 1], w[..., 0])
    return np.stack([rho, theta], axis=-1)


def from_polar(s):
    s = np.asarray(s, dtype=float)
    r = np.sqrt(2.0 * s[..., 0])
    return np.stack([r * np.cos(s[..., 1]), r * np.sin(s[..., 1])], axis=-1)


@dataclass
class SurgeryProfile:
    """Radial profiles of the surgery.

    psi lives on [rho_lo, rho_hi] = [delta^2/2, eps^2/2]: identity-shift
    (rho - rho_lo) on the first quarter, identity on the last quarter, and a
    quintic Hermite bridge with zero curvature at both joins in between
    (its derivative is Delta + 30 D t^2 (1-t)^2, strictly positive whenever
    the bridged gap D is positive -- checked at construction anyway).

    xi is the flow cutoff: 0 on [0, rho0], 1 on [rho_lo, inf), quintic
    smoothstep between, with rho0 = delta^2/4; its first two derivatives
    vanish at both joins, so the boundary-saddle linearization is untouched.
    """

    delta: float = 0.15
    eps: float = 0.24

    def __post_init__(self):
        if not (0 < self.delta < self.eps):
            raise ValueError("need 0 < delta < eps")
        if self.eps >= 0.25:
            raise ValueError("eps >= 0.25 makes the outer discs overlap")
        self.rho_lo = 0.5 * self.delta**2
        self.rho_hi = 0.5 * self.eps**2
        self.rho0 = 0.25 * self.delta**2
        span = self.rho_hi - self.rho_lo
        self.r1 = self.rho_lo + 0.25 * span   # end of exact-shift zone
        self.r2 = self.rho_hi - 0.25 * span   # start of exact-identity zone
        self._dt = self.r2 - self.r1
        self._D = self.r2 - (self.r1 - self.rho_lo) - self._dt  # bridged gap
        rho = np.linspace(self.rho_lo, self.rho_hi, 4001)
        if np.any(self.psi_d1(rho) <= 0):
            raise ValueError("surgery profile is not strictly increasing")

    # --- psi ---------------------------------------------------------

    # the bridge polynomial and its slope, for rho in [r1, r2]; psi_inv's
    # Newton loop, whose bracket stays there, calls them without psi's
    # clip and branch selection

    def _bridge(self, rho):
        t = (rho - self.r1) / self._dt
        return (self.r1 - self.rho_lo) + self._dt * t + self._D * t**3 * (10 - 15 * t + 6 * t**2)

    def _bridge_d1(self, rho):
        t = (rho - self.r1) / self._dt
        return 1.0 + 30.0 * (self._D / self._dt) * t**2 * (1 - t) ** 2

    def psi(self, rho):
        rho = np.asarray(rho, dtype=float)
        bridge = self._bridge(np.clip(rho, self.r1, self.r2))
        return np.where(rho <= self.r1, rho - self.rho_lo, np.where(rho >= self.r2, rho, bridge))

    def psi_d1(self, rho):
        rho = np.asarray(rho, dtype=float)
        bridge = self._bridge_d1(np.clip(rho, self.r1, self.r2))
        return np.where((rho <= self.r1) | (rho >= self.r2), 1.0, bridge)

    def psi_inv(self, v):
        """Inverse of psi on [0, rho_hi].

        On the bridge this is curves.rtsafe, started on the bridge's chord,
        with a residual floor of _ROOT_ULPS ulp of the target (psi's bridge
        carries up to ~8 ulp of rounding noise, so a tighter test would
        update brackets from the sign of noise and could cycle) and a step
        floor of 2 ulp.

        Raises RuntimeError if a residual is not finite or a point is still
        active after _ROOT_CAP iterations.
        """
        scalar = np.ndim(v) == 0
        v = np.atleast_1d(np.asarray(v, dtype=float))
        v1 = self.r1 - self.rho_lo                    # psi(r1)
        out = np.where(v <= v1, v + self.rho_lo, v)
        mid = np.nonzero((v > v1) & (v < self.r2))[0]
        if mid.size:
            target = v[mid]

            def resid(x, rows):
                return self._bridge(x) - target[rows], self._bridge_d1(x)

            out[mid] = rtsafe(resid, self.r1 + (target - v1) * (self._dt / (self.r2 - v1)),
                              np.full(target.shape, self.r1), np.full(target.shape, self.r2),
                              _ROOT_ULPS * np.spacing(target), lambda x: 2 * np.spacing(x),
                              _ROOT_CAP, "psi_inv")
        return float(out[0]) if scalar else out

    # --- xi ----------------------------------------------------------

    def _xi_t(self, rho):
        return (np.asarray(rho, dtype=float) - self.rho0) / (self.rho_lo - self.rho0)

    def xi(self, rho):
        return smoothstep(self._xi_t(rho))

    def xi_d1(self, rho):
        return smoothstep_d1(self._xi_t(rho)) / (self.rho_lo - self.rho0)

    def xi_d2(self, rho):
        return smoothstep_d2(self._xi_t(rho)) / (self.rho_lo - self.rho0) ** 2


def island_hamiltonian(profile):
    """Hhat = (rho - rho_lo) sin(2 theta) xi(rho) on the (rho, theta) pair."""
    lo = profile.rho_lo

    def grad(s):
        rho, th = s[..., 0], s[..., 1]
        xi, xi1 = smoothstep_and_d1(profile._xi_t(rho))
        xi1 /= lo - profile.rho0
        u = rho - lo
        g = np.empty(np.shape(s))
        g[..., 0] = np.sin(2 * th) * (xi + u * xi1)
        g[..., 1] = 2.0 * u * np.cos(2 * th) * xi
        return g

    def hess(s):
        rho, th = s[..., 0], s[..., 1]
        xi, xi1, xi2 = profile.xi(rho), profile.xi_d1(rho), profile.xi_d2(rho)
        u = rho - lo
        H = np.empty(np.shape(s)[:-1] + (2, 2), dtype=float)
        H[..., 0, 0] = np.sin(2 * th) * (2 * xi1 + u * xi2)
        H[..., 0, 1] = 2 * np.cos(2 * th) * (xi + u * xi1)
        H[..., 1, 0] = H[..., 0, 1]
        H[..., 1, 1] = -4.0 * u * np.sin(2 * th) * xi
        return H

    return HamiltonianSystem("island H", grad, hess)


class IslandMap:
    """The surgered torus map Fhat and its inverse.

    Parameters
    ----------
    delta, eps : see SurgeryProfile.  eps defaults to 0.24 so the four
        outer discs around the half-integer centers stay disjoint.

    The island flow is integrated in FLOW_STEPS implicit-midpoint steps at
    MIDPOINT_TOL.  `_eval` takes the step count, the order (2, or 4 for the
    triple-jump composition) and the stage tolerance of the flow branch;
    `link_saddles` evaluates at SADDLE_STEPS, SADDLE_ORDER and SADDLE_TOL.
    """

    def __init__(self, delta=0.15, eps=0.24):
        self.profile = SurgeryProfile(delta, eps)
        self.A = ANOSOV
        self.Ainv = inv2(self.A)
        self.R = eigen_rotation()
        # (N, 2) @ M.T with a transposed view rounds differently depending
        # on N; a contiguous copy keeps every point's result independent of
        # its batch
        self.RT = np.ascontiguousarray(self.R.T)
        self.centers = CENTERS.copy()
        self.system = island_hamiltonian(self.profile)
        # regime split with float slack: points near the boundary circle
        # belong to the flow branch (the surgery formula degenerates on the
        # circle, and iterating boundary samples drifts their radius by
        # rounding; the circle is normally hyperbolic, so a misrouted point
        # would have its radial defect amplified by e^{2 sigma} per step).
        # The slack must stay far below the collar where the two defining
        # formulas agree, (r1 - rho_lo) e^{-2 sigma} ~ 3e-8 in rho, so any
        # point inside it is computed identically by either branch.
        self._in2 = self.profile.delta**2 * (1 + 1e-8)
        # Points within rounding of the circle are projected onto it before
        # integrating: the circle is the unstable set of the attracting
        # boundary angles, so a float-level radial defect left in place
        # would be amplified by e^{2 sigma} on every iterate.  The radial
        # perturbation introduced is below 2e-12; the band is wide enough
        # to recapture the rounding left by one evaluation and narrow
        # enough not to touch finite-difference probes.
        self._circ2 = self.profile.delta**2
        self._circ_band = self.profile.delta**2 * 3e-12

    # --- low-level pieces ---------------------------------------------

    @staticmethod
    def _chart(p):
        """Offsets d (N, 2) of wrapped points p from their nearest centre,
        and radii^2 (N,).  The centres are the lattice (1/2 Z)^2 and
        eps < 1/4, so no other centre can be in range.  d is bitwise the
        nearest centre's `torus_diff` offset (ties at 1/4 and 3/4 go to the
        first centre in CENTERS order, as np.argmin would)."""
        d = p - np.round(2.0 * p) / 2.0
        return d, _norm2(d)

    def _surgery(self, q, d, r2, inverse, with_jac):
        """Psi, or Psi^{-1} when inverse, of points q with chart offsets d
        (N, 2) and radii^2 r2 (N,).

        Psi is radial in the chart offset: it sends d to s d with
        s = sqrt(psi(rho) / rho) and rho = r2 / 2.  R is orthogonal and
        cancels, so only the flow uses it.  Off the annuli psi and psi^{-1}
        are exactly the identity, so s = 1 and s' = 0 exactly: the image is
        q bit for bit and K = I, and every point goes through one pass.
        Returns the images and, when with_jac, the entries (k00, k01, k11)
        of the symmetric Jacobian K = s I + s' d d^T (else None)."""
        prof = self.profile
        if inverse:
            # psi^{-1} blows a centre up to the link circle; a centre (to
            # rounding) stays put, with K = I, as eps^2 is in the identity zone
            r2 = np.where(r2 > 1e-28, r2, prof.eps**2)
        rho = 0.5 * r2
        new = prof.psi_inv(rho) if inverse else prof.psi(rho)
        s = np.sqrt(new / rho)
        out = wrap_torus(q + (s - 1.0)[:, None] * d)
        if not with_jac:
            return out, None
        # 2 s s' = (new' rho - new)/rho^2, with (psi^{-1})' = 1/psi'
        d1 = 1.0 / prof.psi_d1(new) if inverse else prof.psi_d1(rho)
        ds = (d1 * rho - new) / (rho**2 * 2 * s)
        x, y = d[:, 0], d[:, 1]
        dx = ds * x
        return out, (s + dx * x, dx * y, s + ds * y * y)

    def _surgered(self, p, d, r2, mat, with_jac):
        """Psi^{-1} o mat o Psi of points p with chart offsets d and radii^2
        r2, and when with_jac its Jacobian K2 mat K1 (N, 2, 2) (else None),
        written entry by entry from the symmetric K1 and K2."""
        q, K1 = self._surgery(p, d, r2, False, with_jac)
        q2 = wrap_torus(q @ np.ascontiguousarray(mat.T))
        d2, r2b = self._chart(q2)
        out, K2 = self._surgery(q2, d2, r2b, True, with_jac)
        if not with_jac:
            return out, None
        a1, b1, c1 = K1
        a2, b2, c2 = K2
        (m00, m01), (m10, m11) = mat
        # M = mat K1, then J = K2 M: mul2's products and sums, in its order
        n00 = m00 * a1 + m01 * b1
        n01 = m00 * b1 + m01 * c1
        n10 = m10 * a1 + m11 * b1
        n11 = m10 * b1 + m11 * c1
        J = np.empty(p.shape + (2,))
        J[:, 0, 0] = a2 * n00 + b2 * n10
        J[:, 0, 1] = a2 * n01 + b2 * n11
        J[:, 1, 0] = b2 * n00 + c2 * n10
        J[:, 1, 1] = b2 * n01 + c2 * n11
        return out, J

    def _flow(self, p, d, t, steps, with_jac, order=2, tol=MIDPOINT_TOL):
        """Island flow applied to points with offsets d (rho <= rho_lo), in
        `steps` steps of the order-`order` midpoint rule at stage tolerance
        `tol`."""
        prof = self.profile
        w = d @ self.R
        state = to_polar(w)
        out = np.array(p, copy=True)
        J = None
        if with_jac:
            J = np.zeros(p.shape + (2,), dtype=float)
            J[..., 0, 0] = 1.0
            J[..., 1, 1] = 1.0
        core = state[..., 0] <= prof.rho0
        act = ~core
        if np.any(act):
            s_end, M = _midpoint_steps(self.system, state[act], t, steps,
                                       tol, with_jac, order=order)
            w_end = from_polar(s_end)
            out[act] = wrap_torus(p[act] + (w_end - w[act]) @ self.RT)
            if with_jac:
                # d(rho,theta)/dw has unit determinant; conjugate M back
                wa, we = w[act], w_end
                rho_a = state[act][..., 0]
                rho_e = s_end[..., 0]
                Din = np.empty(wa.shape + (2,), dtype=float)
                Din[..., 0, 0] = wa[..., 0]
                Din[..., 0, 1] = wa[..., 1]
                Din[..., 1, 0] = -wa[..., 1] / (2 * rho_a)
                Din[..., 1, 1] = wa[..., 0] / (2 * rho_a)
                Dout = np.empty(we.shape + (2,), dtype=float)
                Dout[..., 0, 0] = we[..., 0] / (2 * rho_e)
                Dout[..., 0, 1] = -we[..., 1]
                Dout[..., 1, 0] = we[..., 1] / (2 * rho_e)
                Dout[..., 1, 1] = we[..., 0]
                J[act] = self.R @ (Dout @ M @ Din) @ self.RT
        return out, J

    # --- evaluation ----------------------------------------------------

    def _eval(self, p, direction=1, steps=None, with_jac=False, order=2,
              tol=MIDPOINT_TOL):
        p = np.asarray(p, dtype=float)
        shape = p.shape
        p = wrap_torus(p.reshape(-1, 2))
        steps = FLOW_STEPS if steps is None else int(steps)
        mat = self.A if direction > 0 else self.Ainv
        t = SIGMA * (1 if direction > 0 else -1)

        d, r2 = self._chart(p)
        inside = r2 <= self._in2    # flow regime
        fl = np.nonzero(inside)[0]
        if fl.size == 0:
            # surgery regime only (as on the entropy grid): one pass
            out, J = self._surgered(p, d, r2, mat, with_jac)
        else:
            out = np.empty_like(p)
            J = np.empty(p.shape + (2,), dtype=float) if with_jac else None
            # flow regime, all four discs in one integration
            di = d[fl]
            r2m = r2[fl]
            pm = p[fl]
            snap = np.abs(r2m - self._circ2) <= self._circ_band
            if np.any(snap):
                scale = (self.profile.delta / np.sqrt(r2m[snap]))[:, None]
                shift = di[snap] * (scale - 1.0)
                di[snap] += shift
                pm[snap] = wrap_torus(pm[snap] + shift)
            out[fl], Jf = self._flow(pm, di, t, steps, with_jac, order, tol)
            if with_jac:
                J[fl] = Jf
            # surgery regime: Psi, then A, then Psi^{-1}
            sm = np.nonzero(~inside)[0]
            if sm.size:
                out[sm], Js = self._surgered(p[sm], d[sm], r2[sm], mat, with_jac)
                if with_jac:
                    J[sm] = Js

        out = out.reshape(shape)
        if with_jac:
            return out, J.reshape(shape + (2,))
        return out

    def __call__(self, p):
        return self._eval(p, 1, with_jac=False)

    def jacobian(self, p):
        _, J = self._eval(p, 1, with_jac=True)
        return J

    def inverse(self, q):
        return self._eval(q, -1, with_jac=False)

    def area_density(self, p):
        """Density of the invariant form: psi'(rho) on annuli, 1 elsewhere."""
        p = np.asarray(p, dtype=float)
        flat = wrap_torus(p.reshape(-1, 2))
        _, r2 = self._chart(flat)
        # psi' is exactly 1 off the annuli, inside the discs included
        return self.profile.psi_d1(0.5 * r2).reshape(p.shape[:-1])

    def descriptor(self):
        return MapDescriptor(
            "Fhat", lambda p: self(p), lambda p: self.jacobian(p),
            lambda q: self.inverse(q),
            area_density=lambda p: self.area_density(p),
            fwd_jac=lambda p: self._eval(p, 1, None, with_jac=True),
        )

    def island_mask(self, p):
        """True for points outside every open disc V_i."""
        p = np.asarray(p, dtype=float)
        flat = wrap_torus(p.reshape(-1, 2))
        _, r2 = self._chart(flat)
        return (r2 >= self.profile.delta**2).reshape(p.shape[:-1])

    def island_area(self):
        return 1.0 - 4.0 * np.pi * self.profile.delta**2

    # --- surgery map as a standalone descriptor -------------------------

    def surgery_descriptor(self):
        """Psi: island -> torus minus centers (not Lebesgue-area-preserving;
        det D Psi = psi'(rho) on annuli).  Points on the link circle (within
        rounding) are sent exactly to the chart center; points strictly
        inside the circle are outside the domain and rejected.  The
        Jacobian is undefined on and inside the circle."""

        def apply(p, inverse, with_jac):
            p = np.asarray(p, dtype=float)
            flat = wrap_torus(p.reshape(-1, 2))
            d, r2 = self._chart(flat)
            if with_jac and np.any(r2 <= self._in2):
                raise ValueError("surgery Jacobian is undefined on or inside a link circle")
            if not inverse and np.any(r2 < self.profile.delta**2 * (1.0 - 1e-12)):
                raise ValueError("surgery map is undefined strictly inside a link disc")
            if inverse:
                out, K = self._surgery(flat, d, r2, True, with_jac)
            else:
                # on-circle points go to the centre; evaluating them at the
                # slack radius keeps psi(rho) > 0 under the square root
                out, K = self._surgery(flat, d, np.maximum(r2, self._in2), False, with_jac)
                c = r2 <= self._in2
                out[c] = wrap_torus(flat[c] - d[c])
            J = None
            if with_jac:
                J = np.empty(flat.shape + (2,))
                J[:, 0, 0], J[:, 0, 1], J[:, 1, 1] = K
                J[:, 1, 0] = J[:, 0, 1]
                J = J.reshape(p.shape + (2,))
            return out.reshape(p.shape), J

        return MapDescriptor("Psi", lambda p: apply(p, False, False)[0],
                             lambda p: apply(p, False, True)[1],
                             lambda q: apply(q, True, False)[0],
                             fwd_jac=lambda p: apply(p, False, True))


# ----------------------------------------------------------------------
# Verification helpers
# ----------------------------------------------------------------------

def link_saddles(island):
    """The boundary fixed points of Fhat and their multipliers.

    Four saddles sit on each circle rho = delta^2/2 at chart angles
    0, pi/2, pi, 3pi/2; the island field vanishes there, so they are exact
    fixed points at any step count.  The flow linearization has rates +-2,
    hence map multipliers e^{+-2 sigma}.  The saddles and their probes are
    integrated once, in SADDLE_STEPS fourth-order triple-jump steps
    (SADDLE_ORDER), which puts the multipliers about 1.6e-6 from
    e^{+-2 sigma}, against a 1e-4 gate.  The multipliers are
    cross-checked against finite differences taken along the saddle frame
    (radial/tangent in the chart), where the true Jacobian is exactly
    diagonal; eigenvalues of a raw finite-difference matrix would amplify
    entry noise by the e^{2 sigma} expansion when recovering the
    contracting multiplier.  The quotient divides the solver's stopping
    error by h e^{-2 sigma}, so each substep converges to SADDLE_TOL,
    below the flows' MIDPOINT_TOL.

    Returns a list of dicts with keys center, theta, point, multipliers,
    fd_multipliers, fixed_defect.
    """
    thetas = np.array([0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi])
    pts = []
    meta = []
    delta = island.profile.delta
    for ic, c in enumerate(island.centers):
        for th in thetas:
            w = delta * np.array([np.cos(th), np.sin(th)])
            pts.append(wrap_torus(c + island.R @ w))
            meta.append((ic, float(th)))
    P = np.array(pts)
    defects = np.max(np.abs(torus_diff(island(P), P)), axis=-1)

    # Finite differences along the saddle frame (radial/tangent in the
    # chart), where the true Jacobian is exactly diagonal.  Extracting
    # eigenvalues of a raw FD matrix would amplify entry noise by the
    # e^{2 sigma} expansion when recovering the contracting multiplier.
    th_arr = np.array([m[1] for m in meta])
    rad = np.stack([np.cos(th_arr), np.sin(th_arr)], axis=-1) @ island.R.T
    tan = np.stack([-np.sin(th_arr), np.cos(th_arr)], axis=-1) @ island.R.T
    # Along-circle displacements land only h^2/2 past the boundary, where
    # the surgery profile is evaluated through a cancellation (|w|^2 -
    # delta^2); when that direction is the contracting one the resulting
    # noise is comparable to the tiny directional response, so a larger
    # step keeps the displaced points clear of the degeneracy.  Expanding
    # directions need the smaller step to control truncation instead.
    h_rad = np.full(len(meta), 1e-6)
    h_tan = np.where(np.cos(2 * th_arr) > 0, 1e-5, 1e-6)
    frames = ((rad, h_rad[:, None]), (tan, h_tan[:, None]))
    probes = [wrap_torus(P + sign * h * direction)
              for direction, h in frames for sign in (1.0, -1.0)]
    # one refined integration for the saddles and all their probes
    images, Jall = island._eval(np.concatenate([P] + probes), 1, SADDLE_STEPS,
                                with_jac=True, order=SADDLE_ORDER, tol=SADDLE_TOL)
    Jv = Jall[:len(P)]
    images = images[len(P):].reshape(len(frames), 2, len(P), 2)
    fd = np.empty((len(meta), 2))
    for j, (direction, h) in enumerate(frames):
        diff = torus_diff(images[j, 0], images[j, 1]) / (2 * h)
        fd[:, j] = np.abs(np.sum(diff * direction, axis=-1))

    out = []
    for i, (ic, th) in enumerate(meta):
        out.append(dict(
            center=ic, theta=th, point=P[i],
            multipliers=np.sort(np.abs(np.linalg.eigvals(Jv[i]))),
            fd_multipliers=np.sort(fd[i]),
            fixed_defect=float(defects[i]),
        ))
    return out


def conjugacy_defect(island, n=2000):
    """sup | Psi(Fhat p) - F_A(Psi p) | over island samples."""
    rng = np.random.default_rng(5)
    pts = rng.random((4 * n, 2))
    pts = pts[island.island_mask(pts)][:n]
    Psi = island.surgery_descriptor()
    lhs = Psi(island(pts))
    rhs = wrap_torus(Psi(pts) @ np.ascontiguousarray(island.A.T))
    return float(np.max(np.abs(torus_diff(lhs, rhs))))


def equivariance_defect(island, n=1000):
    """sup | Fhat(-p) - (-Fhat(p)) | (toral) -- odd symmetry of the surgery."""
    rng = np.random.default_rng(6)
    pts = rng.random((n, 2))
    lhs = island(wrap_torus(-pts))
    rhs = wrap_torus(-island(pts))
    return float(np.max(np.abs(torus_diff(lhs, rhs))))


def identity_core_defect(island, n=500):
    """sup |Fhat(p) - p| over points with rho < rho0 (should be exactly 0)."""
    rng = np.random.default_rng(8)
    th = rng.uniform(0, 2 * np.pi, n)
    rho = rng.uniform(0, island.profile.rho0 * 0.999, n)
    w = from_polar(np.stack([rho, th], axis=-1))
    worst = 0.0
    for c in island.centers:
        p = wrap_torus(c + w @ island.R.T)
        worst = max(worst, float(np.max(np.abs(torus_diff(island(p), p)))))
    return worst


def symmetry_and_identity_report(island, n=1000):
    """Deterministic sup-norm defect report for the island map.

    Keys: equivariance (odd symmetry), identity_core (fixed points near the
    chart centers), conjugacy (surgery intertwines the island map with the
    torus automorphism), identity_at_centers (exact fixed centers).
    """
    centers_defect = float(np.max(np.abs(
        torus_diff(island(island.centers), island.centers))))
    return dict(
        equivariance=equivariance_defect(island, n=n),
        identity_core=identity_core_defect(island, n=max(n // 2, 1)),
        conjugacy=conjugacy_defect(island, n=n),
        identity_at_centers=centers_defect,
    )
