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
joined by a monotone quintic.  The surgered map is

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

from .curves import smoothstep, smoothstep_d1, smoothstep_d2
from .hamiltonian import MIDPOINT_TOL, HamiltonianSystem, _midpoint_steps
from .maps import ANOSOV, MapDescriptor, inv2, torus_diff, wrap_torus

SIGMA = np.log(9.0 + 4.0 * np.sqrt(5.0))          # expansion exponent
EXP_2SIGMA = 161.0 + 72.0 * np.sqrt(5.0)          # e^{2 sigma}, saddle multiplier
CENTERS = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])
# psi_inv: residual floor in ulps of the target, and the iteration cap
_ROOT_ULPS = 8
_ROOT_CAP = 80
# implicit-midpoint steps of the island flow: the evaluation default, and the
# refined count of the saddle-multiplier verification
FLOW_STEPS = 64
SADDLE_STEPS = 2048


def eigen_rotation():
    """Rotation R with R^T A R = diag(e^s, e^-s) for A = ANOSOV."""
    vals, vecs = np.linalg.eigh(ANOSOV)
    u_plus = vecs[:, np.argmax(vals)]
    if u_plus[0] < 0:
        u_plus = -u_plus
    R = np.column_stack([u_plus, [-u_plus[1], u_plus[0]]])
    return R


def to_polar(w):
    """Symplectic polar coordinates (rho, theta) of Cartesian chart points."""
    w = np.asarray(w, dtype=float)
    rho = 0.5 * np.sum(w * w, axis=-1)
    theta = np.arctan2(w[..., 1], w[..., 0])
    return np.stack([rho, theta], axis=-1)


def from_polar(s):
    s = np.asarray(s, dtype=float)
    r = np.sqrt(2.0 * s[..., 0])
    return np.stack([r * np.cos(s[..., 1]), r * np.sin(s[..., 1])], axis=-1)


def _by_center(mask):
    """Points inside some disc of a (4, N) membership mask, and the index of
    that disc (the four discs are disjoint)."""
    idx = np.nonzero(mask.any(axis=0))[0]
    return idx, np.argmax(mask[:, idx], axis=0)


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

    def psi(self, rho):
        rho = np.asarray(rho, dtype=float)
        t = np.clip((rho - self.r1) / self._dt, 0.0, 1.0)
        bridge = (self.r1 - self.rho_lo) + self._dt * t + self._D * t**3 * (10 - 15 * t + 6 * t**2)
        return np.where(rho <= self.r1, rho - self.rho_lo, np.where(rho >= self.r2, rho, bridge))

    def psi_d1(self, rho):
        rho = np.asarray(rho, dtype=float)
        t = np.clip((rho - self.r1) / self._dt, 0.0, 1.0)
        bridge = 1.0 + 30.0 * (self._D / self._dt) * t**2 * (1 - t) ** 2
        return np.where((rho <= self.r1) | (rho >= self.r2), 1.0, bridge)

    def psi_inv(self, v):
        """Inverse of psi on [0, rho_hi].

        On the bridge this is a safeguarded Newton iteration (the rtsafe
        pattern): a Newton step that leaves the current bracket is replaced
        by bisection, and each point is frozen as soon as its residual is at
        psi's rounding floor, its Newton step is a few ulp, or its bracket
        has shrunk to a few ulp.  psi's bridge carries up to ~8 ulp of
        rounding noise, so a tighter residual test would update brackets
        from the sign of noise and could cycle.

        Raises RuntimeError if a residual is not finite or a point is still
        active after the iteration cap.
        """
        scalar = np.ndim(v) == 0
        v = np.atleast_1d(np.asarray(v, dtype=float))
        v1 = self.r1 - self.rho_lo                    # psi(r1)
        out = np.where(v <= v1, v + self.rho_lo, v)
        mid = np.nonzero((v > v1) & (v < self.r2))[0]
        if mid.size:
            target = v[mid]
            lo = np.full(target.shape, self.r1)
            hi = np.full(target.shape, self.r2)
            # start on the chord of the bridge
            x = self.r1 + (target - v1) * (self._dt / (self.r2 - v1))
            f_floor = _ROOT_ULPS * np.spacing(target)
            act = np.arange(target.size)
            for _ in range(_ROOT_CAP):
                xa, la, ha = x[act], lo[act], hi[act]
                f = self.psi(xa) - target[act]
                if not np.all(np.isfinite(f)):
                    raise RuntimeError("psi_inv: non-finite residual on the bridge")
                done = np.abs(f) <= f_floor[act]
                la = np.where(f < 0, xa, la)
                ha = np.where(f > 0, xa, ha)
                xn = xa - f / self.psi_d1(xa)
                xn = np.where((xn > la) & (xn < ha), xn, 0.5 * (la + ha))
                ulp = np.spacing(xa)
                tiny = (np.abs(xn - xa) <= 2 * ulp) | (ha - la <= 4 * ulp)
                x[act] = np.where(done, xa, xn)
                lo[act], hi[act] = la, ha
                act = act[~(done | tiny)]
                if act.size == 0:
                    break
            else:
                raise RuntimeError(
                    f"psi_inv: {act.size} points unconverged after {_ROOT_CAP} iterations")
            out[mid] = x
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
        xi, xi1 = profile.xi(rho), profile.xi_d1(rho)
        u = rho - lo
        d_rho = np.sin(2 * th) * (xi + u * xi1)
        d_th = 2.0 * u * np.cos(2 * th) * xi
        return np.stack([d_rho, d_th], axis=-1)

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

    def value(s):
        rho, th = s[..., 0], s[..., 1]
        return (rho - lo) * np.sin(2 * th) * profile.xi(rho)

    return HamiltonianSystem("island H", grad, hess, value)


class IslandMap:
    """The surgered torus map Fhat and its inverse.

    Parameters
    ----------
    delta, eps : see SurgeryProfile.  eps defaults to 0.24 so the four
        outer discs around the half-integer centers stay disjoint.

    The island flow is integrated in FLOW_STEPS implicit-midpoint steps;
    `link_saddles` evaluates through `_eval` with a refined count.
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
        self.sigma = float(np.log(np.max(np.linalg.eigvalsh(self.A))))
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

    def _charts(self, p):
        """Per-center nearest-lift offsets d (4, N, 2) and radii^2 (4, N)."""
        d = torus_diff(p[None, :, :], self.centers[:, None, :])
        return d, np.sum(d * d, axis=-1)

    def _scale_jac(self, w, s, ds_drho):
        """Jacobian of w -> s(rho) w in chart coordinates: s I + s' w w^T."""
        J = np.zeros(w.shape + (2,), dtype=float)
        J[..., 0, 0] = s + ds_drho * w[..., 0] * w[..., 0]
        J[..., 0, 1] = ds_drho * w[..., 0] * w[..., 1]
        J[..., 1, 0] = J[..., 0, 1]
        J[..., 1, 1] = s + ds_drho * w[..., 1] * w[..., 1]
        return J

    def _psi_forward(self, d, with_jac):
        """Apply Psi in chart coords to offsets d (annulus points only)."""
        w = d @ self.R
        rho = 0.5 * np.sum(w * w, axis=-1)
        ps = self.profile.psi(rho)
        ps1 = self.profile.psi_d1(rho)
        s = np.sqrt(ps / rho)
        out = (s[..., None] * w) @ self.RT
        if not with_jac:
            return out, None
        # 2 s s' = (psi' rho - psi)/rho^2
        ds = (ps1 * rho - ps) / (rho**2 * 2 * s)
        J = self.R @ self._scale_jac(w, s, ds) @ self.RT
        return out, J

    def _psi_backward(self, d, with_jac):
        """Apply Psi^{-1} in chart coords to offsets d (0 < rho_v < rho_hi)."""
        v = d @ self.R
        rho_v = 0.5 * np.sum(v * v, axis=-1)
        rho_w = self.profile.psi_inv(rho_v)
        u = np.sqrt(rho_w / rho_v)
        out = (u[..., None] * v) @ self.RT
        if not with_jac:
            return out, None
        dinv = 1.0 / self.profile.psi_d1(rho_w)       # (psi^{-1})'
        du = (dinv * rho_v - rho_w) / (rho_v**2 * 2 * u)
        J = self.R @ self._scale_jac(v, u, du) @ self.RT
        return out, J

    def _flow(self, p, d, t, steps, with_jac):
        """Island flow applied to points with offsets d (rho <= rho_lo)."""
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
                                       MIDPOINT_TOL, with_jac)
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

    def _eval(self, p, direction=1, steps=None, with_jac=False):
        p = np.asarray(p, dtype=float)
        shape = p.shape
        p = wrap_torus(p.reshape(-1, 2))
        steps = FLOW_STEPS if steps is None else int(steps)
        lo2 = self._in2
        hi2 = self.profile.eps**2
        mat = self.A if direction > 0 else self.Ainv
        t = self.sigma * (1 if direction > 0 else -1)

        out = np.empty_like(p)
        J = np.empty(p.shape + (2,), dtype=float) if with_jac else None

        d, r2 = self._charts(p)
        inside = r2 <= lo2          # (4, N): flow regime per center

        # flow regime, all four discs in one integration
        fl, ci = _by_center(inside)
        if fl.size:
            di = d[ci, fl]
            r2m = r2[ci, fl]
            pm = p[fl]
            snap = np.abs(r2m - self._circ2) <= self._circ_band
            if np.any(snap):
                scale = (self.profile.delta / np.sqrt(r2m[snap]))[:, None]
                shift = di[snap] * (scale - 1.0)
                di[snap] += shift
                pm[snap] = wrap_torus(pm[snap] + shift)
            o, Jf = self._flow(pm, di, t, steps, with_jac)
            out[fl] = o
            if with_jac:
                J[fl] = Jf

        # surgery regime: Psi on the annuli, then A, then Psi^{-1}
        sm = np.nonzero(~inside.any(axis=0))[0]
        if sm.size:
            q = p[sm]
            Jp = None
            if with_jac:
                Jp = np.zeros(q.shape + (2,), dtype=float)
                Jp[..., 0, 0] = 1.0
                Jp[..., 1, 1] = 1.0
            a, ci = _by_center((r2[:, sm] > lo2) & (r2[:, sm] < hi2))
            if a.size:
                da = d[ci, sm[a]]
                o, Js = self._psi_forward(da, with_jac)
                q[a] = wrap_torus(q[a] + o - da)
                if with_jac:
                    Jp[a] = Js
            q2 = wrap_torus(q @ np.ascontiguousarray(mat.T))
            if with_jac:
                Jp = mat @ Jp
            d2, r2b = self._charts(q2)
            b, ci = _by_center((r2b > 1e-28) & (r2b < hi2))
            if b.size:
                db = d2[ci, b]
                o, Js = self._psi_backward(db, with_jac)
                q2[b] = wrap_torus(q2[b] + o - db)
                if with_jac:
                    Jp[b] = Js @ Jp[b]
            out[sm] = q2
            if with_jac:
                J[sm] = Jp

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
        _, r2 = self._charts(flat)
        mu = np.ones(flat.shape[0])
        lo2, hi2 = self._in2, self.profile.eps**2
        for i in range(4):
            ann = (r2[i] > lo2) & (r2[i] < hi2)
            if np.any(ann):
                mu[ann] = self.profile.psi_d1(0.5 * r2[i][ann])
        return mu.reshape(p.shape[:-1])

    def descriptor(self):
        return MapDescriptor(
            "Fhat", lambda p: self(p), lambda p: self.jacobian(p),
            lambda q: self.inverse(q), wrap=True,
            area_density=lambda p: self.area_density(p),
            fwd_jac=lambda p: self._eval(p, 1, None, with_jac=True),
        )

    def island_mask(self, p):
        """True for points outside every open disc V_i."""
        p = np.asarray(p, dtype=float)
        flat = wrap_torus(p.reshape(-1, 2))
        _, r2 = self._charts(flat)
        return (r2 >= self.profile.delta**2).all(axis=0).reshape(p.shape[:-1])

    def island_area(self):
        return 1.0 - 4.0 * np.pi * self.profile.delta**2

    # --- surgery map as a standalone descriptor -------------------------

    def surgery_descriptor(self):
        """Psi: island -> torus minus centers (not Lebesgue-area-preserving;
        det D Psi = psi'(rho) on annuli).  Points on the link circle (within
        rounding) are sent exactly to the chart center; points strictly
        inside the circle are outside the domain and rejected.  The
        Jacobian is undefined on and inside the circle."""

        def fwd(p):
            p = np.asarray(p, dtype=float)
            flat = wrap_torus(p.reshape(-1, 2))
            d, r2 = self._charts(flat)
            out = flat.copy()
            lo2, hi2 = self._in2, self.profile.eps**2
            inner = self.profile.delta**2 * (1.0 - 1e-12)
            for i in range(4):
                if np.any(r2[i] < inner):
                    raise ValueError(
                        "surgery map is undefined strictly inside a link disc")
                circ = r2[i] <= lo2
                if np.any(circ):
                    out[circ] = wrap_torus(out[circ] - d[i][circ])
                ann = (r2[i] > lo2) & (r2[i] < hi2)
                if np.any(ann):
                    o, _ = self._psi_forward(d[i][ann], False)
                    out[ann] = wrap_torus(out[ann] + o - d[i][ann])
            return out.reshape(p.shape)

        def jac(p):
            p = np.asarray(p, dtype=float)
            flat = wrap_torus(p.reshape(-1, 2))
            d, r2 = self._charts(flat)
            J = np.zeros(flat.shape + (2,), dtype=float)
            J[..., 0, 0] = 1.0
            J[..., 1, 1] = 1.0
            lo2, hi2 = self._in2, self.profile.eps**2
            for i in range(4):
                if np.any(r2[i] <= lo2):
                    raise ValueError(
                        "surgery Jacobian is undefined on or inside a link circle")
                ann = (r2[i] > lo2) & (r2[i] < hi2)
                if np.any(ann):
                    _, Js = self._psi_forward(d[i][ann], True)
                    J[ann] = Js
            return J.reshape(p.shape + (2,))

        def inv(q):
            q = np.asarray(q, dtype=float)
            flat = wrap_torus(q.reshape(-1, 2))
            d, r2 = self._charts(flat)
            out = flat.copy()
            hi2 = self.profile.eps**2
            for i in range(4):
                land = (r2[i] > 1e-28) & (r2[i] < hi2)
                if np.any(land):
                    o, _ = self._psi_backward(d[i][land], False)
                    out[land] = wrap_torus(out[land] + o - d[i][land])
            return out.reshape(q.shape)

        return MapDescriptor("Psi", fwd, jac, inv, wrap=True)


# ----------------------------------------------------------------------
# Verification helpers
# ----------------------------------------------------------------------

def link_saddles(island):
    """The boundary fixed points of Fhat and their multipliers.

    Four saddles sit on each circle rho = delta^2/2 at chart angles
    0, pi/2, pi, 3pi/2; the island field vanishes there, so they are exact
    fixed points at any step count.  The flow linearization has rates +-2,
    hence map multipliers e^{+-2 sigma}.  The multiplier verification
    integrates in SADDLE_STEPS steps (the FLOW_STEPS evaluation default
    carries a second-order midpoint bias ~4e-3, above the 1e-4 gate) and
    is cross-checked against finite differences taken along the saddle
    frame (radial/tangent in the chart), where the true Jacobian is
    exactly diagonal; eigenvalues of a raw finite-difference matrix would
    amplify entry noise by the e^{2 sigma} expansion when recovering the
    contracting multiplier.

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
                                with_jac=True)
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


def regime_consistency(island):
    """Sup distance between the two defining formulas on the outer collar.

    On rho in (rho_lo, rho_lo + zeta] with zeta = (r1 - rho_lo) e^{-2 sigma}
    the surgery composite equals the island flow exactly (both are the
    time-sigma flow of (rho - rho_lo) sin 2 theta while the orbit stays in
    the linear zone of psi); the residual measures the refined integrator.
    """
    prof = island.profile
    zeta = (prof.r1 - prof.rho_lo) * np.exp(-2 * island.sigma)
    rng = np.random.default_rng(7)
    th = rng.uniform(0, 2 * np.pi, 64)
    rho = prof.rho_lo + zeta * rng.uniform(0.05, 1.0, 64)
    w = from_polar(np.stack([rho, th], axis=-1))
    worst = 0.0
    for c in island.centers:
        p = wrap_torus(c + w @ island.R.T)
        surg = island(p)                       # rho > rho_lo: surgery branch
        state = np.stack([rho, th], axis=-1)
        s_end, _ = _midpoint_steps(island.system, state, island.sigma, 32768, 1e-15, False)
        flow = wrap_torus(p + (from_polar(s_end) - w) @ island.R.T)
        worst = max(worst, float(np.max(np.abs(torus_diff(surg, flow)))))
    return worst


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


def flow_matches_linear_map(island):
    """Precondition check: the chart flow of H0 = rho sin 2 theta over time
    sigma matches the diagonalized automorphism on outer-disc samples."""
    prof = island.profile
    rng = np.random.default_rng(9)
    th = rng.uniform(0, 2 * np.pi, 64)
    w = from_polar(np.stack([np.full(64, prof.rho_hi), th], axis=-1))

    def grad(s):
        rho, t_ = s[..., 0], s[..., 1]
        return np.stack([np.sin(2 * t_), 2 * rho * np.cos(2 * t_)], axis=-1)

    def hess(s):
        rho, t_ = s[..., 0], s[..., 1]
        H = np.empty(np.shape(s)[:-1] + (2, 2), dtype=float)
        H[..., 0, 0] = 0.0
        H[..., 0, 1] = 2 * np.cos(2 * t_)
        H[..., 1, 0] = H[..., 0, 1]
        H[..., 1, 1] = -4 * rho * np.sin(2 * t_)
        return H

    sys0 = HamiltonianSystem("rho sin 2 theta", grad, hess)
    s_end, _ = _midpoint_steps(sys0, to_polar(w), island.sigma, 65536, 1e-15, False)
    D = np.diag([np.exp(island.sigma), np.exp(-island.sigma)])
    return float(np.max(np.abs(from_polar(s_end) - w @ D.T)))
