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

from .curves import StepFn
from .hamiltonian import MIDPOINT_TOL, HamiltonianSystem, _midpoint_steps
from .maps import (ANOSOV, ANOSOV_INV, MapDescriptor, anosov_map, mul2, torus_diff,
                   wrap_torus)

SIGMA = np.log(9.0 + 4.0 * np.sqrt(5.0))          # expansion exponent
# the centres are the lattice (1/2 Z)^2 on the torus
CENTERS = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])
# psi_inv: residual floor in ulps of the target, and the iteration cap
_ROOT_ULPS = 8
_ROOT_CAP = 80
# psi_inv's start: the bridge cut into _FIT_PIECES pieces, uniform in x, and
# psi^{-1} fitted on each by a degree-_FIT_DEG polynomial in v
_FIT_PIECES = 64
_FIT_DEG = 7
# island flow: every evaluation of Fhat, `link_saddles` included, takes
# FLOW_STEPS fourth-order steps of Suzuki's composition, five midpoint
# substeps each, at MIDPOINT_TOL.  The boundary saddles' multiplier error
# (gate 1e-4), the flow's relative energy drift (gate 1e-5), and the field
# calls of the island's check batch (`island_check_batch`, one integration)
# at the default profile, with those of the symmetry rows and the saddle
# rows integrated apart in brackets:
#                            substeps  multipliers  energy drift       calls
#     20 order-2 steps             20    4.15e-2    9.6e-4-1.2e-3   120  (184)
#     56 triple-jump steps        168    4.36e-5    7.8e-7-1.0e-6     - (1401)
#     20 Suzuki steps             100    3.76e-5    1.3e-6-2.6e-6   520  (821)
#     22 Suzuki steps             110    2.57e-5    9.1e-7-1.7e-6   571  (902)
#     24 Suzuki steps             120    1.81e-5    6.4e-7-1.2e-6   600  (960)
# The multiplier error is the same at delta/eps = 0.15/0.24, 0.2/0.2001,
# 0.05/0.24, 0.2/0.21, 0.001/0.002, 0.24/0.2499, 0.01/0.24 and 0.1/0.24999;
# the drift's range is over those eight profiles.  20 Suzuki steps leave
# 2.7x headroom on the multipliers (56 triple-jump steps left 2.3x) and
# 3.9x on the drift, in 59 % of the triple jump's field calls (apart).
FLOW_STEPS = 20
# points of one disc's flow annulus that the symmetry and energy-drift batch
# adds to its torus points; the half-lattice translations carry them into
# the other three discs
ANNULUS_SAMPLES = 16
# chart angles of the four boundary saddles on each link circle
SADDLE_ANGLES = np.array([0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi])
# the thinnest annulus a config may ask for, as its largest psi': the
# conjugacy check's defect grows as about 1.2e-16 max psi' (5.6e-11 at
# 4.5e5, 5.1e-10 at 3.75e6, 4.8e-9 at 4.5e7, against its 1e-9 gate), and
# reads 9.7e-11 to 1.2e-10 at this bound (delta = 0.1, 0.2 and 0.24)
PSI_SLOPE_MAX = 1e6


def max_psi_slope(delta, eps):
    """The largest psi' of the (delta, eps) surgery, at the bridge's middle:
    1 + rho_lo times the quintic step's peak slope 15/8 over the bridge
    width (rho_hi - rho_lo)/2; infinite when the annulus has no width."""
    rho_lo, rho_hi = 0.5 * delta**2, 0.5 * eps**2
    return 1.0 + 3.75 * rho_lo / (rho_hi - rho_lo) if rho_hi > rho_lo else np.inf


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
    """Radial profiles of the surgery, both built on the one quintic step
    curves.StepFn.

    psi(rho) = rho - rho_lo (1 - S(rho)), with S the step over [r1, r2] and
    [rho_lo, rho_hi] = [delta^2/2, eps^2/2]: S is exactly 0 on the first
    quarter of the annulus, where psi is the identity shift rho - rho_lo,
    and exactly 1 on the last quarter, where psi is the identity, bit for
    bit.  Its derivative psi' = 1 + rho_lo S' is >= 1, and exactly 1 off
    the bridge [r1, r2] (checked at construction anyway).

    xi is the flow cutoff: 0 on [0, rho0], 1 on [rho_lo, inf), the step
    between, with rho0 = delta^2/4; its first two derivatives vanish at
    both joins, so the boundary-saddle linearization is untouched.
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
        self._step = StepFn(self.r1, self.r2 - self.r1)
        self.xi = StepFn(self.rho0, self.rho_lo - self.rho0)
        rho = np.linspace(self.rho_lo, self.rho_hi, 4001)
        if np.any(self.psi_d1(rho) <= 0):
            raise ValueError("surgery profile is not strictly increasing")
        self._fit_inverse()

    # --- psi ---------------------------------------------------------

    def psi(self, rho):
        rho = np.asarray(rho, dtype=float)
        return rho - self.rho_lo * (1.0 - self._step(rho))

    def psi_d1(self, rho):
        return 1.0 + self.rho_lo * self._step.d1(rho)

    def psi_and_d1(self, rho):
        """psi(rho) and psi_d1(rho) from one clamp, bitwise both."""
        rho = np.asarray(rho, dtype=float)
        s, s1 = self._step.value_and_d1(rho)
        return rho - self.rho_lo * (1.0 - s), 1.0 + self.rho_lo * s1

    def _fit_inverse(self):
        """Fit psi^{-1} on the bridge for psi_inv's start, from forward
        samples of psi only.  Piece k spans [x_k, x_{k+1}] in x, with the
        x_k uniform over [r1, r2], and [psi(x_k), psi(x_{k+1})] in v; on it
        x - x_k is the least-squares polynomial of degree _FIT_DEG in the
        piece's v coordinate u in [-1, 1], fitted to psi at 2 (_FIT_DEG + 1)
        Chebyshev points of the piece in x.  All pieces are fitted in one
        batched QR solve."""
        m = 2 * (_FIT_DEG + 1)
        xe = self.r1 + (self.r2 - self.r1) * (np.arange(_FIT_PIECES + 1) / _FIT_PIECES)
        cheb = 0.5 - 0.5 * np.cos(np.pi * (np.arange(m) + 0.5) / m)
        xs = xe[:-1, None] + np.diff(xe)[:, None] * cheb
        ve = self.psi(xe)
        x0, centre, scale = xe[:-1], 0.5 * (ve[1:] + ve[:-1]), 2.0 / np.diff(ve)
        u = (self.psi(xs) - centre[:, None]) * scale[:, None]
        Q, R = np.linalg.qr(u[..., None] ** np.arange(_FIT_DEG + 1))
        coef = np.linalg.solve(R, np.swapaxes(Q, 1, 2) @ (xs - x0[:, None])[..., None])
        # one row per piece quantity, the coefficients by degree last, so
        # that a target's piece is one column of the table
        self._fit_rows = np.vstack([centre, scale, x0, coef[..., 0].T])
        # A target's piece is the count of interior v edges below it.
        # np.searchsorted on unsorted targets costs a mispredicted branch
        # per level, so a uniform table over [psi(r1), r2] gives each target
        # a count at or below its own (a cell of slack either side covers
        # the rounding of the cell index), and _fit_passes comparisons with
        # the edges, an infinite sentinel last, finish the count
        edges, cells = ve[1:-1], 4 * _FIT_PIECES
        self._fit_cell = cells / (self.r2 - ve[0])
        grid = ve[0] + (self.r2 - ve[0]) / cells * np.arange(-1, cells + 3)
        self._fit_table = np.searchsorted(edges, grid[:-3])
        self._fit_passes = int(np.max(np.searchsorted(edges, grid[3:], side="right")
                                      - self._fit_table))
        self._fit_edges = np.append(edges, np.inf)

    def _fit_piece(self, v):
        """The fit's piece of each bridge target v (psi(r1) < v < r2): the
        count of interior v edges below it, np.searchsorted's index."""
        v1 = self.r1 - self.rho_lo                    # psi(r1)
        k = self._fit_table[((v - v1) * self._fit_cell).astype(np.intp)]
        for _ in range(self._fit_passes):
            k += v > self._fit_edges[k]
        return k

    def _fit_start(self, v):
        """psi_inv's start at bridge targets v: the fitted inverse on their
        piece, evaluated by Horner.  The piece's centre, scale, x_k and
        coefficients come from one gather of the fit's table."""
        centre, scale, x0, *coef = self._fit_rows[:, self._fit_piece(v)]
        u = (v - centre) * scale
        x = coef[_FIT_DEG]
        for c in coef[_FIT_DEG - 1::-1]:
            x *= u
            x += c
        return x0 + x

    def psi_inv(self, v):
        """Inverse of psi on [0, rho_hi].

        Off the bridge this is the exact shift or the identity.  On it, each
        point runs safeguarded Newton (rtsafe, Numerical Recipes section
        9.4) from a fitted start (`_fit_inverse`: _FIT_PIECES pieces of
        degree _FIT_DEG, after Trefethen, Approximation Theory and
        Approximation Practice, 2013).  Measured on 199 999 bridge points,
        the start is within 64 ulp of x at the default profile, 8 ulp at
        (0.05, 0.24), (0.01, 0.24) and (0.1, 0.24999), and 32 ulp at
        (0.001, 0.002).  Near delta = eps, where psi' reaches thousands, it
        is within 1e5 ulp at (0.2, 0.21), 2e5 ulp at (0.24, 0.2499) and 2e8
        ulp (6.4e-5 of the bridge width) at (0.2, 0.2001).  A Newton step
        that leaves the point's bracket, which starts as [r1, r2], is
        replaced by bisection.  One evaluation of the step gives the
        residual psi(x) - v and its slope psi'(x), bitwise psi and psi_d1.

        A point stops once
          - its Newton step is at most 2 ulp of x: it keeps that Newton
            iterate.  This is tested on the raw step, before the bracket:
            after a noisy residual sets a bracket end to x, a step that
            rounds onto that end would otherwise be bisected away;
          - its residual is at most _ROOT_ULPS ulp of the target, after its
            first step (the fitted start is never returned unrefined).  psi's
            bridge carries rounding noise of a few ulp of x, so a tighter
            test would update brackets from the sign of noise and could
            cycle;
          - or its bracket has shrunk to 4 ulp.
        Every sweep runs over every bridge point in place: a stopped point
        keeps its x, whatever later sweeps compute at it, and the loop ends
        once every point has stopped, so a batch whose points all stop in
        sweep 0 makes one evaluation.  The roots are written back once, at
        the end.  Every step is elementwise, so a point's root does not
        depend on its batch.  On the island suite's entropy grid at the
        default profile, 200 calls of 409-479 bridge points, 81 % of the
        points stop in sweep 0 and all but 17 of the rest in sweep 1's
        residual test: 184 calls take 2 sweeps and 16 take 3.

        Raises RuntimeError if a residual is not finite or a point is still
        active after _ROOT_CAP sweeps.
        """
        scalar = np.ndim(v) == 0
        v = np.atleast_1d(np.asarray(v, dtype=float))
        v1 = self.r1 - self.rho_lo                    # psi(r1)
        out = np.where(v <= v1, v + self.rho_lo, v)
        rows = np.nonzero((v > v1) & (v < self.r2))[0]
        if rows.size:
            self._bridge_roots(out, rows, v[rows])
        return float(out[0]) if scalar else out

    def _bridge_roots(self, out, rows, target):
        """psi_inv's sweeps on the bridge targets `target`, every point in
        place to its stop, writing the roots to out[rows]."""
        x = self._fit_start(target)
        lo, hi = self.r1, self.r2
        stop = np.zeros(x.shape, dtype=bool)
        r_floor = _ROOT_ULPS * np.spacing(target)
        for sweep in range(_ROOT_CAP):
            s, s1 = self._step.value_and_d1(x)
            r = x - self.rho_lo * (1.0 - s) - target
            if not np.isfinite(r).all():
                raise RuntimeError("psi_inv: non-finite residual")
            if sweep:
                stop |= np.abs(r) <= r_floor
                if stop.all():
                    break
            lo = np.where(r < 0, x, lo)
            hi = np.where(r > 0, x, hi)
            dx = r / (1.0 + self.rho_lo * s1)
            xn = x - dx
            floor = 2 * np.spacing(x)
            small = np.abs(dx) <= floor
            newton = small | ((xn > lo) & (xn < hi))
            if not newton.all():            # a step out of its bracket bisects it
                xn = np.where(newton, xn, 0.5 * (lo + hi))
            x = np.where(stop, x, xn)       # a stopped point keeps x
            stop |= small | (hi - lo <= 2 * floor)
            if stop.all():
                break
        else:
            raise RuntimeError(f"psi_inv: {np.count_nonzero(~stop)} points unconverged "
                               f"after {_ROOT_CAP} iterations")
        out[rows] = x


def island_hamiltonian(profile):
    """Hhat = (rho - rho_lo) sin(2 theta) xi(rho) on the (rho, theta) pair."""
    lo = profile.rho_lo

    def grad(s):
        rho, th2 = s[..., 0], 2 * s[..., 1]
        xi, xi1 = profile.xi.value_and_d1(rho)
        u = rho - lo
        g = np.empty(np.shape(s))
        g[..., 0] = np.sin(th2) * (xi + u * xi1)
        g[..., 1] = 2.0 * u * np.cos(th2) * xi
        return g

    def hess(s):
        rho, th2 = s[..., 0], 2 * s[..., 1]
        xi, xi1, xi2 = profile.xi.jet(rho)
        u = rho - lo
        sin2 = np.sin(th2)
        return (sin2 * (2 * xi1 + u * xi2), 2 * np.cos(th2) * (xi + u * xi1),
                -4.0 * u * sin2 * xi)

    return HamiltonianSystem("island H", grad, hess)


class IslandMap:
    """The surgered torus map Fhat and its inverse.

    Parameters
    ----------
    delta, eps : see SurgeryProfile.  eps defaults to 0.24 so the four
        outer discs around the half-integer centers stay disjoint.

    The island flow has one setting, FLOW_STEPS fourth-order steps of
    Suzuki's composition at MIDPOINT_TOL, and every caller, `link_saddles`
    included, evaluates that one map.
    """

    def __init__(self, delta=0.15, eps=0.24):
        self.profile = SurgeryProfile(delta, eps)
        self.A = ANOSOV
        self.Ainv = ANOSOV_INV
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
        Returns the images and, when with_jac, the rows (k00, k01) and
        (k10, k11) of the symmetric Jacobian K = s I + s' d d^T as two
        (2, N) arrays (else None)."""
        prof = self.profile
        if inverse:
            # psi^{-1} blows a centre up to the link circle; a centre (to
            # rounding) stays put, with K = I, as eps^2 is in the identity zone
            far = r2 > 1e-28
            if not far.all():
                r2 = np.where(far, r2, prof.eps**2)
        rho = 0.5 * r2
        if inverse:
            new = prof.psi_inv(rho)
        elif with_jac:
            new, d1 = prof.psi_and_d1(rho)
        else:
            new = prof.psi(rho)
        s = np.sqrt(new / rho)
        out = wrap_torus(q + (s - 1.0)[:, None] * d)
        if not with_jac:
            return out, None
        # 2 s s' = (new' rho - new)/rho^2, with (psi^{-1})' = 1/psi'
        if inverse:
            d1 = 1.0 / prof.psi_d1(new)
        ds = (d1 * rho - new) / (rho**2 * 2 * s)
        # with (x, y) = d: k00 = s + (ds x) x, k01 = k10 = (ds x) y and
        # k11 = s + (ds y) y, each row a contiguous (2, N) array
        dT = d.T.copy()
        g = ds * dT
        k0 = g[0] * dT
        k0[0] += s
        k1 = dT[1] * g
        k1[1] += s
        return out, (k0, k1)

    def _surgered(self, p, d, r2, mat, with_jac):
        """Psi^{-1} o mat o Psi of points p with chart offsets d and radii^2
        r2, and when with_jac the entries of its Jacobian K2 mat K1 (else
        None), four contiguous (N,) arrays.  Each row of a product is formed
        as one (2, N) array from the rows of the right factor, entry by
        entry the sums `mul2` forms."""
        q, K1 = self._surgery(p, d, r2, False, with_jac)
        q2 = wrap_torus(q @ np.ascontiguousarray(mat.T))
        d2, r2b = self._chart(q2)
        out, K2 = self._surgery(q2, d2, r2b, True, with_jac)
        if not with_jac:
            return out, None
        (m00, m01), (m10, m11) = mat
        (a, b), (c, e) = K2
        top = m00 * K1[0]
        top += m01 * K1[1]
        bottom = m10 * K1[0]
        bottom += m11 * K1[1]
        row0 = a * top
        row0 += b * bottom
        row1 = c * top
        row1 += e * bottom
        return out, (row0[0], row0[1], row1[0], row1[1])

    def _flow(self, p, d, t, with_jac):
        """Island flow applied to points with offsets d (rho <= rho_lo), in
        FLOW_STEPS Suzuki steps at MIDPOINT_TOL; with_jac adds the
        entries of its Jacobian, R (Dout M Din) R^T with M the integrator's,
        the identity at core points."""
        prof = self.profile
        w = d @ self.R
        state = to_polar(w)
        out = np.array(p, copy=True)
        J = None
        if with_jac:
            J = [np.full(len(p), e) for e in (1.0, 0.0, 0.0, 1.0)]
        core = state[..., 0] <= prof.rho0
        act = ~core
        if np.any(act):
            s_end, M = _midpoint_steps(self.system, state[act], t, FLOW_STEPS,
                                       MIDPOINT_TOL, with_jac, order=4)
            w_end = from_polar(s_end)
            out[act] = wrap_torus(p[act] + (w_end - w[act]) @ self.RT)
            if with_jac:
                # d(rho,theta)/dw has unit determinant; conjugate M back
                (a0, a1), (e0, e1) = w[act].T, w_end.T
                rho_a, rho_e = state[act][..., 0], s_end[..., 0]
                Din = (a0, a1, -a1 / (2 * rho_a), a0 / (2 * rho_a))
                Dout = (e0 / (2 * rho_e), -e1, e1 / (2 * rho_e), e0)
                Ja = mul2(mul2(self.R.ravel(), mul2(mul2(Dout, M), Din)), self.RT.ravel())
                for e, v in zip(J, Ja):
                    e[act] = v
        return out, J

    # --- evaluation ----------------------------------------------------

    def _eval(self, p, direction=1, with_jac=False):
        p = np.asarray(p, dtype=float)
        shape = p.shape
        p = wrap_torus(p.reshape(-1, 2))
        mat = self.A if direction > 0 else self.Ainv
        t = SIGMA * (1 if direction > 0 else -1)

        d, r2 = self._chart(p)
        # every point through the surgery regime, Psi, then A, then Psi^{-1};
        # flow points go at the slack radius, which keeps psi(rho) > 0 under
        # the square root, and the flow then overwrites them
        out, J = self._surgered(p, d, np.maximum(r2, self._in2), mat, with_jac)
        # flow regime, all four discs in one integration
        fl = np.nonzero(r2 <= self._in2)[0]
        if fl.size == 0:
            return out.reshape(shape), (tuple(e.reshape(shape[:-1]) for e in J)
                                        if with_jac else None)
        di, r2m, pm = d[fl], r2[fl], p[fl]
        snap = np.abs(r2m - self._circ2) <= self._circ_band
        if np.any(snap):
            scale = (self.profile.delta / np.sqrt(r2m[snap]))[:, None]
            shift = di[snap] * (scale - 1.0)
            di[snap] += shift
            pm[snap] = wrap_torus(pm[snap] + shift)
        out[fl], Jf = self._flow(pm, di, t, with_jac)
        if with_jac:
            for e, v in zip(J, Jf):
                e[fl] = v
            J = tuple(e.reshape(shape[:-1]) for e in J)
        return out.reshape(shape), J

    def __call__(self, p):
        return self._eval(p)[0]

    def inverse(self, q):
        return self._eval(q, -1)[0]

    def area_density(self, p):
        """Density of the invariant form: psi'(rho) on annuli, 1 elsewhere."""
        p = np.asarray(p, dtype=float)
        flat = wrap_torus(p.reshape(-1, 2))
        _, r2 = self._chart(flat)
        # psi' is exactly 1 off the annuli, inside the discs included
        return self.profile.psi_d1(0.5 * r2).reshape(p.shape[:-1])

    def descriptor(self):
        """Fhat as a MapDescriptor.  The discs sit at the 2-torsion points,
        which p -> -p fixes and the half-lattice translations permute, the
        surgery and the flow are the same in every disc's chart, and A is I
        mod 2, so the map is torsion-symmetric.  Its inverse carries the
        paper's claim that Fhat is a diffeomorphism."""
        return MapDescriptor("Fhat", lambda p, with_jac: self._eval(p, with_jac=with_jac),
                             self.inverse, area_density=self.area_density,
                             torsion_symmetric=True)

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

        def apply(p, with_jac, inverse=False):
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
                J = tuple(e.reshape(p.shape[:-1]) for e in (*K[0], *K[1]))
            return out.reshape(p.shape), J

        # Psi^-1 carries the paper's claim that the surgery is a diffeomorphism
        # of the island onto the punctured torus
        return MapDescriptor("Psi", apply, lambda q: apply(q, False, True)[0])


# ----------------------------------------------------------------------
# Verification helpers
# ----------------------------------------------------------------------

def _saddle_multipliers(J):
    """Sorted |eigenvalues| (m, 2) of real-saddle 2x2 matrices given by
    their entries, in closed form: the expanding one is t/2 + sign(t)
    sqrt(t^2/4 - det) with t the trace, and the contracting one det over
    it, which avoids the cancellation of t/2 - sign(t) sqrt(...)."""
    a, b, c, d = J
    t, det = a + d, a * d - b * c
    big = 0.5 * t + np.copysign(np.sqrt(0.25 * t * t - det), t)
    return np.sort(np.abs(np.stack([big, det / big], axis=-1)), axis=-1)


def _saddle_rows(island):
    """The 16 boundary saddles of `link_saddles` and their probes.

    Returns (rows, frames): rows (80, 2) are the saddles, four on each link
    circle at SADDLE_ANGLES in CENTERS order, then their probes P + h d and
    P - h d for each frame (d, h) of frames ((rad, h_rad), (tan, h_tan)),
    unit directions (16, 2) with their steps (16, 1).
    """
    delta = island.profile.delta
    P = np.array([wrap_torus(c + island.R @ (delta * np.array([np.cos(th), np.sin(th)])))
                  for c in island.centers for th in SADDLE_ANGLES])
    # Finite differences along the saddle frame (radial/tangent in the
    # chart), where the true Jacobian is exactly diagonal.  Extracting
    # eigenvalues of a raw FD matrix would amplify entry noise by the
    # e^{2 sigma} expansion when recovering the contracting multiplier.
    th_arr = np.tile(SADDLE_ANGLES, len(island.centers))
    rad = np.stack([np.cos(th_arr), np.sin(th_arr)], axis=-1) @ island.RT
    tan = np.stack([-np.sin(th_arr), np.cos(th_arr)], axis=-1) @ island.RT
    # Along-circle displacements land only h^2/2 past the boundary, where
    # the surgery profile is evaluated through a cancellation (|w|^2 -
    # delta^2); when that direction is the contracting one the resulting
    # noise is comparable to the tiny directional response, so a larger
    # step keeps the displaced points clear of the degeneracy.  Expanding
    # directions need the smaller step to control truncation instead.  Both
    # scale with the narrower side of the circle, delta or the annulus
    # eps - delta, so that the probes stay in the saddle's linear zone.
    h = 1e-5 * min(delta, island.profile.eps - delta)
    h_tan = np.where(np.cos(2 * th_arr) > 0, 10 * h, h)
    frames = ((rad, np.full((len(P), 1), h)), (tan, h_tan[:, None]))
    probes = [wrap_torus(P + sign * h * direction)
              for direction, h in frames for sign in (1.0, -1.0)]
    return np.concatenate([P] + probes), frames


def link_saddles(island, batch):
    """The boundary fixed points of Fhat and their multipliers.

    Four saddles sit on each circle rho = delta^2/2 at chart angles
    SADDLE_ANGLES; the island field vanishes there, so they are exact fixed
    points at any step count.  The flow linearization has rates +-2, hence
    map multipliers e^{+-2 sigma}.  The saddles and their probes are rows of
    the island's check batch `batch` (`island_check_batch`), one evaluation
    of Fhat as every other caller evaluates it (see FLOW_STEPS); the
    fixed-point defects, the Jacobians and the probe images all come from
    that batch, and the multipliers sit about 3.8e-5 from e^{+-2 sigma},
    against a 1e-4 gate.  The multipliers are cross-checked
    against finite differences taken along the saddle frame, with steps
    scaled to min(delta, eps - delta).  The quotient divides the solver's
    stopping error, a last Newton step of at most MIDPOINT_TOL per substep,
    by h e^{-2 sigma}; that noise stays below the flow's own truncation
    error, and the finite-difference multipliers read about 4.0e-5 at the
    default profile and below 1e-3 at the edge profiles of FLOW_STEPS.

    Returns a list of dicts with keys center, theta, point, multipliers,
    fd_multipliers, fixed_defect.
    """
    n = len(island.centers) * len(SADDLE_ANGLES)
    P = batch.saddle_rows[:n]
    defects = np.max(np.abs(torus_diff(batch.saddle_images[:n], P)), axis=-1)
    mult = _saddle_multipliers([e[:n] for e in batch.saddle_jac])
    images = batch.saddle_images[n:].reshape(len(batch.frames), 2, n, 2)
    fd = np.empty((n, 2))
    for j, (direction, h) in enumerate(batch.frames):
        diff = torus_diff(images[j, 0], images[j, 1]) / (2 * h)
        fd[:, j] = np.abs(np.sum(diff * direction, axis=-1))
    return [dict(center=ic, theta=float(SADDLE_ANGLES[a]), point=P[i], multipliers=mult[i],
                 fd_multipliers=np.sort(fd[i]), fixed_defect=float(defects[i]))
            for i, (ic, a) in enumerate(np.ndindex(len(island.centers), len(SADDLE_ANGLES)))]


def conjugacy_defect(island, n=2000):
    """sup | Psi(Fhat p) - F_A(Psi p) | over n island samples, the first n
    island points of seeded 4 n-point draws (one draw holds enough unless
    the island's area is below 1/4)."""
    rng = np.random.default_rng(5)
    pts = np.empty((0, 2))
    while len(pts) < n:
        draw = rng.random((4 * n, 2))
        pts = np.concatenate([pts, draw[island.island_mask(draw)]])
    pts = pts[:n]
    Psi = island.surgery_descriptor()
    lhs = Psi(island(pts))
    rhs = anosov_map()(Psi(pts))
    return float(np.max(np.abs(torus_diff(lhs, rhs))))


def _polar_sample(island, seed, n, rho_min, rho_max):
    """n seeded chart points, uniform in theta and in rho on [rho_min,
    rho_max) (so uniform in area), around each of the four centres, as one
    (4 n, 2) batch."""
    rng = np.random.default_rng(seed)
    th = rng.uniform(0, 2 * np.pi, n)
    rho = rng.uniform(rho_min, rho_max, n)
    w = from_polar(np.stack([rho, th], axis=-1))
    return wrap_torus(island.centers[:, None] + w @ island.RT).reshape(-1, 2)


def _disc_energy(island, p):
    """Hhat_i of torus points p (N, 2) in their own disc's chart, and which
    of them are flow rows, in a disc (to the flow branch's slack) and
    outside its core rho <= rho0."""
    prof = island.profile
    d, r2 = island._chart(p)
    rho, th = to_polar(d @ island.R).T
    energy = (rho - prof.rho_lo) * np.sin(2 * th) * prof.xi(rho)
    return energy, (r2 <= island._in2) & (rho > prof.rho0)


@dataclass
class CheckBatch:
    """The island checks' rows that reach the flow, and their images and
    Jacobians from one evaluation of Fhat (`island_check_batch`).

    n: the sample count the orbit rows were drawn for; orbits (2, 4, m, 2)
    and orbit_images: `equivariance_and_energy_drift`'s rows and their
    images; saddle_rows and frames: `_saddle_rows`'s 16 saddles and 64
    probes and their frames, and saddle_images and saddle_jac their images
    and Jacobian entries.
    """

    n: int
    orbits: np.ndarray
    orbit_images: np.ndarray
    saddle_rows: np.ndarray
    frames: tuple
    saddle_images: np.ndarray
    saddle_jac: tuple


def island_check_batch(island, n=1000):
    """The rows of `equivariance_and_energy_drift` and of `link_saddles`,
    evaluated by Fhat with its Jacobian in one batch, so that the island
    checks integrate the flow once.  Every row's image and Jacobian are
    those of its own evaluation, bit for bit: no step of Fhat mixes rows.

    The orbit rows are the orbits under the group of eight that p -> -p and
    the translations by CENTERS generate, the symmetries the entropy grid
    relies on (`MapDescriptor.torsion_symmetric`): ceil(n/4) seeded torus
    points and ANNULUS_SAMPLES seeded points of one disc's flow annulus
    rho0 < rho < rho_lo, each as +-p + v for the four v.  The translations
    carry the annulus points into every disc: at delta = 0.001 none of 2000
    torus points lands in one.
    """
    prof = island.profile
    rng = np.random.default_rng(6)
    base = np.concatenate([rng.random((-(-n // 4), 2)),
                           _polar_sample(island, 9, ANNULUS_SAMPLES, prof.rho0,
                                         prof.rho_lo)[:ANNULUS_SAMPLES]])
    # rows indexed (sign, translation, base point): p + v, then -p + v
    orbits = wrap_torus(np.reshape([1.0, -1.0], (2, 1, 1, 1)) * base + island.centers[:, None])
    rows, frames = _saddle_rows(island)
    k = orbits.size // 2
    images, J = island._eval(np.concatenate([orbits.reshape(-1, 2), rows]), with_jac=True)
    return CheckBatch(n, orbits, images[:k].reshape(orbits.shape), rows, frames, images[k:],
                      tuple(e[k:] for e in J))


def equivariance_and_energy_drift(island, batch):
    """The odd symmetry sup | Fhat(-p) - (-Fhat(p)) | and the half-lattice
    translation symmetry sup | Fhat(p + v) - Fhat(p) - v | over v in CENTERS
    (both toral) of the surgered map, and the island flow's energy drift,
    on the orbit rows of the island's check batch `batch`
    (`island_check_batch`).

    The exact flow conserves Hhat_i, and a symplectic integrator keeps its
    energy error bounded at O(h^order) (Hairer, Lubich & Wanner, GNI ch.
    IX), so the drift, max |Hhat_i(Fhat p) - Hhat_i(p)| over max |Hhat_i(p)|
    on the batch's flow rows, measures the flow over its whole disc; Hhat_i
    at an image comes from the image's own chart.  The ratio is scale-free,
    so one tolerance serves every delta.

    Returns (equivariance, translation, drift, flow rows).
    """
    orbits, img = batch.orbits, batch.orbit_images
    # -p + v is -(p + v) mod 1, as 2 v is a lattice point
    equivariance = float(np.max(np.abs(torus_diff(img[1], -img[0]))))
    translation = float(np.max(np.abs(torus_diff(img - island.centers[:, None], img[:, :1]))))
    H0, flow = _disc_energy(island, orbits.reshape(-1, 2))
    H1 = _disc_energy(island, img.reshape(-1, 2)[flow])[0]
    H0 = H0[flow]
    drift = float(np.max(np.abs(H1 - H0)) / np.max(np.abs(H0)))
    return equivariance, translation, drift, int(np.count_nonzero(flow))


def identity_core_defect(island, n=500):
    """sup |Fhat(p) - p| over points with rho < rho0 (should be exactly 0)."""
    # the samples around all four centres in one evaluation
    p = _polar_sample(island, 8, n, 0, island.profile.rho0 * 0.999)
    return float(np.max(np.abs(torus_diff(island(p), p))))


def symmetry_and_identity_report(island, batch):
    """Deterministic sup-norm defect report for the island map.

    Keys: equivariance (odd symmetry), translation (half-lattice
    translation symmetry), energy_drift (the island flow's relative energy
    error over its discs), identity_core (fixed points near the chart
    centers), conjugacy (surgery intertwines the island map with the torus
    automorphism), identity_at_centers (exact fixed centers).  The first
    three read the orbit rows of the island's check batch `batch`
    (`island_check_batch(island, n)`); the core and conjugacy checks size
    their samples by its n, `batch.n`.
    """
    centers_defect = float(np.max(np.abs(
        torus_diff(island(island.centers), island.centers))))
    equivariance, translation, drift, _ = equivariance_and_energy_drift(island, batch)
    return dict(
        equivariance=equivariance,
        translation=translation,
        energy_drift=drift,
        identity_core=identity_core_defect(island, n=max(batch.n // 2, 1)),
        conjugacy=conjugacy_defect(island, n=batch.n),
        identity_at_centers=centers_defect,
    )
