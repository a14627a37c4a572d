"""The two-strip linking model: piecewise-affine base map, time-energy
charts, splitting functions, and the two contraction solvers that close
the separatrix gaps.

The base map acts on two horizontal strips.  On the upper level it
translates left on the a-strip and right on the b-strip; at the right end
of the b-strip a folding piece sends the curve down to the lower level
(halving x, doubling y, reversing both), where it crawls left by tau/2
per step.  All pieces are affine with determinant one.

Manifold data is curve-based: the model carries straight inflow segments
at the strip edges, and the stable/unstable curves across the strips are
grown from them by graph transforms following the known piece itinerary
(this sidesteps the inverse-branch ambiguity where the fold image and the
crawl image share the lower level).
"""

from dataclasses import dataclass

import numpy as np

from .curves import (
    PERIODIC_SAMPLES,
    MaskedPeriodic,
    PartitionBump,
    PeriodicFn,
    StepFn,
    graph_transform,
    straight_curve,
)
from .maps import MapDescriptor, compose, identity_map, inverse_descriptor, shear_map

# TimeEnergyChart._sigma: RK4 step counts of the first pass and of the last
# doubling allowed before it gives up
SIGMA_STEPS_START = 64
SIGMA_STEPS_CAP = 1024
# splitting_b: largest a-link gap it accepts as intact
LINK_A_TOL = 1e-8
# restoration solvers: residual tolerance and iteration cap; side b also
# aborts when the splitting mean exceeds RESTORE_MEAN_TOL (a broken a-link)
RESTORE_TOL = 1e-10
RESTORE_MAX_ITER = 50
RESTORE_MEAN_TOL = 1e-6


# ---------------------------------------------------------------------------
# geometry and pieces


@dataclass(frozen=True)
class LinkGeometry:
    """Constants of the two-strip model.

    tau: translation length; x_a, x_b: strip anchors; y1: upper level
    (both strips); y2: lower level of the fold; delta: support margin for
    shears and seeds.
    """

    tau: float = 1.0
    x_a: float = -3.0
    x_b: float = 2.0
    y1: float = 1.0
    y2: float = -1.0
    delta: float = 0.1

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not self.x_b - self.x_a > 3 * self.tau + 6 * self.delta:
            raise ValueError("strips too close for the transition margins")
        if not self.y2 < self.y1:
            raise ValueError("lower level must satisfy y2 < y1")
        if not 0 < self.delta < self.tau / 4:
            raise ValueError("support margin must satisfy 0 < delta < tau/4")

    @property
    def theta(self):
        """Offset of the folding piece: fold(x, y) = theta - (x/2, 2y)."""
        return ((3 * self.x_b + 7 * self.tau) / 2, 2 * self.y1 + self.y2)

    @property
    def fold4_theta(self):
        """Offset of the four-step composite from the upper fundamental
        segment onto the lower level: theta4 - (x/2, 2y)."""
        return ((3 * self.x_b + 4 * self.tau) / 2, 2 * self.y1 + self.y2)


def _affine_piece(name, ax, bx, ay, by):
    """Plane map (x, y) -> (ax * x + bx, ay * y + by) with exact inverse."""
    A = np.array([[ax, 0.0], [0.0, ay]])
    shift = np.array([bx, by])
    Ainv = np.array([[1.0 / ax, 0.0], [0.0, 1.0 / ay]])

    def fwd(p):
        return p * np.array([ax, ay]) + shift

    def jac(p):
        return np.broadcast_to(A, np.shape(p)[:-1] + (2, 2)).copy()

    def inv(q):
        return (q - shift) * np.array([1.0 / ax, 1.0 / ay])

    def jac_inv(q):
        return np.broadcast_to(Ainv, np.shape(q)[:-1] + (2, 2)).copy()

    m = MapDescriptor(name, fwd, jac, inv)
    m.jac_inv = jac_inv
    return m


# ---------------------------------------------------------------------------
# the model


class SuitableModel:
    """Two-strip model with an optional symplectic perturbation hook G,
    composed as F = G o Fstar."""

    def __init__(self, hook=None):
        self.geometry = LinkGeometry()
        g = self.geometry
        tau = g.tau
        jx, jy = g.theta
        self.trans_a = _affine_piece("level-a translation", 1.0, -tau, 1.0, 0.0)
        self.trans_b = _affine_piece("level-b translation", 1.0, tau, 1.0, 0.0)
        self.fold = _affine_piece("fold", -0.5, jx, -2.0, jy)
        self.crawl = _affine_piece("lower crawl", 1.0, -tau / 2, 1.0, 0.0)
        self.hook = hook or identity_map()
        self._hook_inv = inverse_descriptor(self.hook)
        self.band = abs(g.y1 - g.y2) / 2 * 0.8
        self._validate_hook()
        self.fstar = self._assemble_fstar()
        self.F = compose(self.hook, self.fstar, name="F") if hook is not None else self.fstar

    # -- regions ------------------------------------------------------------

    def _level(self, p):
        y = p[..., 1]
        up = np.abs(y - self.geometry.y1) <= self.band
        low = np.abs(y - self.geometry.y2) <= self.band
        return up, low

    def _assemble_fstar(self):
        g = self.geometry
        tau, d = g.tau, g.delta

        def classify(p):
            x = p[..., 0]
            up, low = self._level(p)
            in_a = up & (x >= g.x_a - 3 * tau - 3 * d) & (x <= g.x_a + tau + 3 * d)
            in_bt = up & (x >= g.x_b - 2 * tau - 3 * d) & (x < g.x_b + 3 * tau)
            in_j = up & (x >= g.x_b + 3 * tau) & (x < g.x_b + 5 * tau)
            in_c = low & (x >= g.x_b - 3 * tau) & (x < g.x_b + 2 * tau)
            return in_a, in_bt, in_j, in_c

        pieces = (self.trans_a, self.trans_b, self.fold, self.crawl)

        def fwd(p):
            p = np.asarray(p, dtype=float)
            masks = classify(p)
            covered = np.zeros(p.shape[:-1], dtype=bool)
            out = np.full_like(p, np.nan)
            for m, piece in zip(masks, pieces):
                out = np.where(m[..., None], piece.fwd(p), out)
                covered |= m
            if not np.all(covered):
                raise ValueError("point outside the model region")
            return out

        def jac(p):
            p = np.asarray(p, dtype=float)
            masks = classify(p)
            out = np.full(p.shape[:-1] + (2, 2), np.nan)
            covered = np.zeros(p.shape[:-1], dtype=bool)
            for m, piece in zip(masks, pieces):
                out = np.where(m[..., None, None], piece.jac(p), out)
                covered |= m
            if not np.all(covered):
                raise ValueError("point outside the model region")
            return out

        def inv(q):
            q = np.asarray(q, dtype=float)
            x = q[..., 0]
            up, low = self._level(q)
            in_a = up & (x <= g.x_a + 3 * d)
            in_bt = up & (x >= g.x_b - 2 * tau - 3 * d + tau)
            in_j = low & (x >= g.x_b + 3 * tau / 2)
            in_c = low & (x < g.x_b + 3 * tau / 2)
            out = np.full_like(q, np.nan)
            covered = np.zeros(q.shape[:-1], dtype=bool)
            for m, piece in zip((in_a, in_bt, in_j, in_c),
                                (self.trans_a, self.trans_b, self.fold, self.crawl)):
                out = np.where(m[..., None], piece.inv(q), out)
                covered |= m
            if not np.all(covered):
                raise ValueError("point outside the model image region")
            return out

        def domain(p):
            masks = classify(np.asarray(p, dtype=float))
            cov = masks[0]
            for m in masks[1:]:
                cov = cov | m
            return cov

        return MapDescriptor("Fstar", fwd, jac, inv, domain=domain)

    def _validate_hook(self):
        """The hook must be symplectic and C^1-close to the identity on the
        strips (distance <= 0.1, measured on samples)."""
        g = self.geometry
        xs = np.linspace(g.x_a - 3 * g.tau, g.x_b + 5 * g.tau, 160)
        frame = []
        for level in (g.y1, g.y2):
            for dy in (-self.band / 2, 0.0, self.band / 2):
                frame.append(np.stack([xs, np.full_like(xs, level + dy)], axis=-1))
        frame = np.concatenate(frame)
        disp = np.max(np.abs(self.hook(frame) - frame))
        J = self.hook.jacobian(frame)
        jdisp = np.max(np.abs(J - np.eye(2)))
        if max(disp, jdisp) > 0.1:
            raise ValueError("perturbation hook exceeds C^1 distance 0.1 from the identity")
        det = np.linalg.det(J)
        if np.max(np.abs(det - 1.0)) > 1e-9:
            raise ValueError("perturbation hook is not area-preserving")

    def resolve_map(self, F):
        """Accept F for the pipeline only when it agrees with the model's
        assembled map on strip samples (the itinerary is the model's)."""
        if F is None or F is self.F:
            return self.F
        g = self.geometry
        tau, d = g.tau, g.delta
        frame = []
        for lo, hi, level in ((g.x_a - 3 * tau - 2 * d, g.x_a + tau + 2 * d, g.y1),
                              (g.x_b - 2 * tau - 2 * d, g.x_b + 5 * tau - d, g.y1),
                              (g.x_b - 3 * tau, g.x_b + 2 * tau - d, g.y2)):
            xs = np.linspace(lo, hi, 40)
            frame.append(np.stack([xs, np.full_like(xs, level)], axis=-1))
        frame = np.concatenate(frame)
        gap = np.max(np.abs(np.asarray(F(frame)) - self.F(frame)))
        if gap > 1e-12:
            raise ValueError(
                f"map disagrees with the model's assembled map (sup gap {gap:.3e}); "
                "rebuild the model with the matching hook")
        return self.F

    # -- itineraries and steps ------------------------------------------------

    def forward_step(self, piece):
        return compose(self.hook, piece, name=f"F|{piece.name}")

    def backward_step(self, piece):
        return compose(inverse_descriptor(piece), self._hook_inv,
                       name=f"F^-1|{piece.name}")

    def forward_itinerary(self, side):
        if side == "a":
            return [self.trans_a]
        return [self.trans_b] * 3 + [self.fold] + [self.crawl] * 3

    # -- seeds (boundary inflow data) -----------------------------------------

    def seed_unstable(self, side):
        g, d = self.geometry, self.geometry.delta
        if side == "a":
            return straight_curve(g.x_a - d / 2, g.x_a + g.tau + d / 2, g.y1)
        return straight_curve(g.x_b - g.tau - d / 2, g.x_b + d / 2, g.y1)

    def seed_stable(self, side):
        g, d, tau = self.geometry, self.geometry.delta, self.geometry.tau
        if side == "a":
            return straight_curve(g.x_a - 3 * tau - d / 2, g.x_a - 2 * tau + d / 2, g.y1)
        return straight_curve(g.x_b - tau / 2 - d / 4, g.x_b + d / 4, g.y2)

    def stable_inflow(self, side):
        """The stable curve across the measurement strip, pulled back from
        the far-side straight seed through the model pieces."""
        if side == "a":
            steps = [self.trans_a] * 2
        else:
            steps = [self.crawl] * 4 + [self.fold] + [self.trans_b] * 3
        c = self.seed_stable(side)
        for piece in steps:
            c = graph_transform(self.backward_step(piece), c)
        return c

    def fundamental_interval(self, side):
        g = self.geometry
        if side == "a":
            return (g.x_a - g.tau, g.x_a)
        return (g.x_b, g.x_b + g.tau)

    def shear_band(self, side):
        g, tau, d = self.geometry, self.geometry.tau, self.geometry.delta
        if side == "a":
            return (g.x_a - 2 * tau + d, g.x_a - d)
        return (g.x_b + d, g.x_b + 2 * tau - d)

    def partition_bump(self, side):
        g, tau, d = self.geometry, self.geometry.tau, self.geometry.delta
        lo, _ = self.shear_band(side)
        return PartitionBump(lo, tau - 2 * d, tau)


def build_suitable_model(hook=None):
    """Construct the two-strip model F = G o Fstar with perturbation hook G."""
    return SuitableModel(hook)


# ---------------------------------------------------------------------------
# time-energy charts


class TimeEnergyChart:
    """Area-preserving chart straightening F to the strip translation.

    Built as the bump blend phi0 = (1 - rho) id + rho (Fstar o F^-1) on the
    fundamental strip, with the y-fiber corrected so det D phi = 1, and
    extended to the neighbouring tau-bands by phi -> Fstar^j o phi o F^-j.
    Identity when F = Fstar.
    """

    def __init__(self, F, side, model):
        if side not in ("a", "b"):
            raise ValueError("side must be 'a' or 'b'")
        self.side = side
        self.model = model
        self.F = F
        self.name = f"phi^{side}"
        g = model.geometry
        tau, d = g.tau, g.delta
        lo, hi = model.fundamental_interval(side)
        self._lo, self._hi = lo, hi

        # the blend weight must be exactly 1 on [lo, lo + delta + 0.1] (resp.
        # mirrored on side b): F maps the strip's right margin back into that
        # window (shifted by up to the validated hook displacement 0.1), and
        # the exact-conjugacy matching there needs phi0 = Fstar o F^-1 with
        # no transition remainder
        width = tau - 1.5 * d - 0.15
        if width <= 0:
            raise ValueError("strip too short for the chart transition window")
        if side == "a":
            self._rho = lambda x, s=StepFn(0.0, width): s((g.x_a - d / 2) - x)
            self._rho_d1 = lambda x, s=StepFn(0.0, width): -s.d1((g.x_a - d / 2) - x)
            self._piece = model.trans_a
            self._ext_sign = -1
        else:
            self._rho = StepFn(g.x_b + d / 2, width)
            self._rho_d1 = self._rho.d1
            self._piece = model.trans_b
            self._ext_sign = +1

        self._fstep = model.forward_step(self._piece)
        self._bstep = model.backward_step(self._piece)
        self._Finv = inverse_descriptor(self.F)

        # the blend target Fstar o F^-1 on the fundamental strip: with the
        # model's itinerary decomposition this is piece o (piece^-1 o G^-1)
        self._target = compose(self._piece, self._bstep, name="Fstar.F^-1")
        self._check_blend()

    # -- construction checks ---------------------------------------------------

    def _strip_frame(self, n=400):
        g = self.model.geometry
        xs = np.linspace(self._lo - g.delta, self._hi + g.delta, n)
        ys = g.y1 + np.linspace(-self.model.band / 2, self.model.band / 2, 7)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([X, Y], axis=-1).reshape(-1, 2)

    def _check_blend(self):
        frame = self._strip_frame(120)
        fs = self.model.fstar(frame)
        fv = self.F(frame)
        if np.max(np.abs(fv - fs)) > 0.1:
            raise ValueError("F exceeds C^1 distance 0.1 from the base map on the strip")
        det0 = self._det_phi0(frame)
        if np.any(det0 <= 0.0):
            raise ValueError("blend map is not invertible on the strip")
        self._unit_det0 = bool(np.max(np.abs(det0 - 1.0)) < 1e-14)

    # -- phi0 and its determinant ----------------------------------------------

    def _phi0(self, p):
        r = self._rho(p[..., 0])[..., None]
        return (1.0 - r) * p + r * self._target(p)

    def _dphi0(self, p):
        r = self._rho(p[..., 0])
        dr = self._rho_d1(p[..., 0])
        J = self._target.jacobian(p)
        B = self._target(p)
        out = (1.0 - r)[..., None, None] * np.broadcast_to(np.eye(2), J.shape) \
            + r[..., None, None] * J
        out[..., 0, 0] += dr * (B[..., 0] - p[..., 0])
        out[..., 1, 0] += dr * (B[..., 1] - p[..., 1])
        return out

    def _det_phi0(self, p):
        J = self._dphi0(p)
        return J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]

    # -- the y-fiber correction sigma -------------------------------------------

    def _sigma(self, p):
        """sigma(x, y): d sigma / dy = 1 / det D phi0(x, sigma), sigma(x, y1) = y1."""
        y1 = self.model.geometry.y1
        x = p[..., 0]
        y = p[..., 1]

        def rhs(sv):
            return 1.0 / self._det_phi0(np.stack([x, sv], axis=-1))

        n = SIGMA_STEPS_START
        prev = None
        while True:
            h = (y - y1) / n
            s = np.full_like(y, y1)
            for _ in range(n):
                k1 = rhs(s)
                k2 = rhs(s + 0.5 * h * k1)
                k3 = rhs(s + 0.5 * h * k2)
                k4 = rhs(s + h * k3)
                s = s + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if prev is not None and np.max(np.abs(s - prev)) < 1e-12:
                return s
            if n >= SIGMA_STEPS_CAP:
                raise RuntimeError(
                    f"{self.name}: fiber correction unconverged at {n} RK4 steps")
            prev = s
            n *= 2

    # -- evaluation --------------------------------------------------------------

    def _base(self, p):
        if self._unit_det0:
            return self._phi0(p)
        q = np.stack([p[..., 0], self._sigma(p)], axis=-1)
        return self._phi0(q)

    def _base_jacobian(self, p):
        if self._unit_det0:
            return self._dphi0(p)
        s = self._sigma(p)
        q = np.stack([p[..., 0], s], axis=-1)
        J0 = self._dphi0(q)
        det0 = J0[..., 0, 0] * J0[..., 1, 1] - J0[..., 0, 1] * J0[..., 1, 0]
        h = 1e-6 * (1.0 + np.abs(p[..., 0]))
        pp = np.array(p, copy=True)
        pp[..., 0] += h
        pm = np.array(p, copy=True)
        pm[..., 0] -= h
        sx = (self._sigma(pp) - self._sigma(pm)) / (2.0 * h)
        C = np.zeros_like(J0)
        C[..., 0, 0] = 1.0
        C[..., 1, 0] = sx
        C[..., 1, 1] = 1.0 / det0
        return J0 @ C

    def _ext_count(self, x):
        """Number of extension steps for each x (0 on the base strip)."""
        tau = self.model.geometry.tau
        if self._ext_sign < 0:
            t = np.floor((self._lo - x) / tau) + 1.0
        else:
            t = np.floor((x - self._hi) / tau) + 1.0
        return np.clip(t, 0, 2).astype(int)

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        flat = p.reshape(-1, 2)
        j = self._ext_count(flat[..., 0])
        out = np.empty_like(flat)
        for jv in np.unique(j):
            m = j == jv
            q = flat[m]
            for _ in range(jv):
                q = self._Finv(q)
            q = self._base(q)
            for _ in range(jv):
                q = self.model.fstar(q)
            out[m] = q
        return out.reshape(p.shape)

    def jacobian(self, p):
        p = np.asarray(p, dtype=float)
        flat = p.reshape(-1, 2)
        j = self._ext_count(flat[..., 0])
        out = np.empty(flat.shape[:-1] + (2, 2))
        for jv in np.unique(j):
            m = j == jv
            q = flat[m]
            J = np.broadcast_to(np.eye(2), q.shape + (2,)).copy()
            for _ in range(jv):
                Ji = self._Finv.jacobian(q)
                q = self._Finv(q)
                J = Ji @ J
            J = self._base_jacobian(q) @ J
            q = self._base(q)
            for _ in range(jv):
                J = self.model.fstar.jacobian(q) @ J
                q = self.model.fstar(q)
            out[m] = J
        return out.reshape(p.shape[:-1] + (2, 2))

    # -- diagnostics ---------------------------------------------------------------

    def area_defect(self, n=400):
        frame = self._strip_frame(n)
        J = self.jacobian(frame)
        det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
        return float(np.max(np.abs(det - 1.0)))

    def conjugacy_defect(self, n=400):
        """sup |phi(F p) - Fstar(phi p)| over the fundamental strip."""
        frame = self._strip_frame(n)
        lhs = self(self.F(frame))
        rhs = self.model.fstar(self(frame))
        return float(np.max(np.abs(lhs - rhs)))

    def identity_defect(self):
        frame = self._strip_frame()
        return float(np.max(np.abs(self(frame) - frame)))


class PsiChart:
    """Chart for the sheared map S_psi o F, assembled from the chart of F.

    On the fundamental side of the strip it is phi o S_{-psi}; on the image
    side it is phi o F^2 o (S_psi o F)^-2, which glues continuously because
    psi vanishes at the strip edges.  Conjugates S_psi o F to the base
    translation on the strip.
    """

    def __init__(self, chart, psi):
        self.chart = chart
        self.psi = psi
        self.model = chart.model
        self.side = chart.side
        self.name = f"phi_psi^{self.side}"
        self._sneg = _shear_steps(psi)
        self.fbar = compose(shear_map(psi, psi.d1, name="S_psi"), chart.F,
                            name="Fbar")
        self._fbar_inv = inverse_descriptor(self.fbar)
        g = self.model.geometry
        self._seam = g.x_a - g.tau if self.side == "a" else g.x_b + g.tau

    def _branch1(self, p):
        return self.chart(self._sneg(p))

    def _branch2(self, p):
        q = self._fbar_inv(self._fbar_inv(p))
        return self.chart(self.chart.F(self.chart.F(q)))

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        x = p[..., 0]
        base = x >= self._seam if self.side == "a" else x <= self._seam
        flat = p.reshape(-1, 2)
        bflat = base.reshape(-1)
        out = np.empty_like(flat)
        if np.any(bflat):
            out[bflat] = self._branch1(flat[bflat])
        if np.any(~bflat):
            out[~bflat] = self._branch2(flat[~bflat])
        return out.reshape(p.shape)

    def conjugacy_defect(self, n=400):
        """sup |phi_psi(Fbar p) - Fstar(phi_psi p)| over the fundamental strip."""
        frame = self.chart._strip_frame(n)
        lhs = self(self.fbar(frame))
        rhs = self.model.fstar(self(frame))
        return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# splitting functions


def _neg(fn):
    class _N:
        def __call__(self, x):
            return -fn(x)

        def d1(self, x):
            return -fn.d1(x)

    return _N()


def _shear_steps(psi):
    """The (S_{-psi})^# transform as a map descriptor, or None for psi = 0."""
    if psi is None:
        return None
    m = _neg(psi)
    return shear_map(m, m.d1, name="S_-psi")


def _check_support(psi, band, what):
    if psi is None:
        return
    lo, hi = getattr(psi, "support", (None, None))
    slack = 1e-9 * (1.0 + abs(band[0]) + abs(band[1]))
    if lo is None or not (band[0] - slack <= lo and hi <= band[1] + slack):
        raise ValueError(f"{what}: shear function must be supported inside "
                         f"[{band[0]}, {band[1]}]")


def unstable_curve(F, model, side, psi=None, chart=None):
    """The unstable graph curve over the fundamental interval.

    With psi given, the shear and its inverse are both applied literally
    (they cancel analytically; running them measures pipeline fidelity and
    exhibits the independence of the unstable side from psi).
    """
    F = model.resolve_map(F)
    chart = chart or TimeEnergyChart(F, side, model)
    piece = model.trans_a if side == "a" else model.trans_b
    c = model.seed_unstable(side)
    if psi is None:
        c = graph_transform(model.forward_step(piece), c)
        return graph_transform(chart, c)
    s_plus = shear_map(psi, psi.d1, name="S_psi")
    c = graph_transform(model.forward_step(piece), c)
    c = graph_transform(s_plus, c)           # last factor of S_psi o F
    c = graph_transform(_shear_steps(psi), c)  # chart prefix phi o S_{-psi}
    return graph_transform(chart, c)


def stable_curve(F, model, side, psi=None, chart=None):
    """The stable graph curve over the fundamental interval, via the
    forward push + shear-interleaved backward chain."""
    F = model.resolve_map(F)
    chart = chart or TimeEnergyChart(F, side, model)
    sneg = _shear_steps(psi)
    c = model.stable_inflow(side)
    fwd = model.forward_itinerary(side)
    for piece in fwd:
        c = graph_transform(model.forward_step(piece), c)
    if sneg is not None:
        c = graph_transform(sneg, c)
    for piece in reversed(fwd):
        c = graph_transform(model.backward_step(piece), c)
        if sneg is not None:
            c = graph_transform(sneg, c)
    return graph_transform(chart, c)


def _periodic_from_curves(w_u, w_s, interval, tau):
    grid = interval[0] + np.arange(PERIODIC_SAMPLES) * (tau / PERIODIC_SAMPLES)
    return PeriodicFn(tau, w_u(grid) - w_s(grid), origin=interval[0])


def splitting_a(F, psi, model, chart=None):
    """Splitting function of the a-link for S_psi o F, over [x_a - tau, x_a]."""
    _check_support(psi, model.shear_band("a"), "splitting_a")
    F = model.resolve_map(F)
    chart = chart or TimeEnergyChart(F, "a", model)
    w_u = unstable_curve(F, model, "a", psi=None, chart=chart)
    w_s = stable_curve(F, model, "a", psi=psi, chart=chart)
    return _periodic_from_curves(w_u, w_s, model.fundamental_interval("a"),
                                 model.geometry.tau)


def splitting_b(F, psi, model, chart=None, check_link_a=True):
    """Splitting function of the b-link for S_psi o F, over [x_b, x_b + tau].

    Requires the a-link to be intact (checked unless check_link_a=False)."""
    _check_support(psi, model.shear_band("b"), "splitting_b")
    F = model.resolve_map(F)
    if check_link_a:
        gap = splitting_a(F, None, model).sup()
        if gap > LINK_A_TOL:
            raise ValueError(f"splitting_b: the a-link is broken (sup gap {gap:.3e})")
    chart = chart or TimeEnergyChart(F, "b", model)
    w_u = unstable_curve(F, model, "b", psi=None, chart=chart)
    w_s = stable_curve(F, model, "b", psi=psi, chart=chart)
    return _periodic_from_curves(w_u, w_s, model.fundamental_interval("b"),
                                 model.geometry.tau)


def splitting_a_reference(psi, model):
    """Closed form of the a-splitting at the base map: psi(x) + psi(x - tau)."""
    tau = model.geometry.tau
    return lambda x: psi(np.asarray(x, dtype=float)) + psi(np.asarray(x, dtype=float) - tau)


def splitting_b_reference(psi, model):
    """Closed form of the b-splitting at the base map."""
    g = model.geometry
    tau, xb = g.tau, g.x_b

    def ref(x):
        x = np.asarray(x, dtype=float)
        out = psi(x) + psi(x + tau)
        for j in (1, 2, 3, 4):
            out = out - 0.5 * psi((3 * xb + j * tau - x) / 2)
        return out

    return ref


def restoration_b_reference(model):
    """The two-term averaging operator that id - M^b_rho reduces to at the
    base map (acting on tau-periodic zero-mean functions)."""
    g = model.geometry
    tau, xb = g.tau, g.x_b

    def op(psit):
        def avg(x):
            x = np.asarray(x, dtype=float)
            return 0.5 * (psit((3 * xb + tau - x) / 2) + psit((3 * xb + 2 * tau - x) / 2))
        return PeriodicFn.from_function(avg, tau, n=psit.n, origin=psit.origin)

    return op


# ---------------------------------------------------------------------------
# restoration solvers


def restore_link_a(F, model):
    """Solve for the masked shear that closes the a-link of F.

    Iterates psit -> psit - M^a(rho psit) until the sup residual is at most
    RESTORE_TOL; returns (psi_a, trace) with trace rows (iteration, sup
    residual, derivative-norm residual).  Raises RuntimeError when
    RESTORE_MAX_ITER iterations do not reach the tolerance.
    """
    rho = model.partition_bump("a")
    lo, _ = model.fundamental_interval("a")
    tau = model.geometry.tau
    F = model.resolve_map(F)
    chart = TimeEnergyChart(F, "a", model)
    psit = PeriodicFn(tau, np.zeros(PERIODIC_SAMPLES), origin=lo)
    trace = []
    prev = None
    for it in range(RESTORE_MAX_ITER):
        m = splitting_a(F, MaskedPeriodic(rho, psit), model, chart=chart)
        res_sup, res_norm0 = m.sup(), m.norm0()
        trace.append((it, res_sup, res_norm0))
        if res_sup <= RESTORE_TOL:
            break
        if prev is not None and prev > RESTORE_TOL and res_sup >= prev:
            raise ValueError(
                f"restore_link_a: no contraction (residual {res_sup:.3e} after {prev:.3e})")
        prev = res_sup
        psit = psit - m
    else:
        raise RuntimeError(f"restore_link_a: residual {res_sup:.3e} after "
                           f"{RESTORE_MAX_ITER} iterations")
    return MaskedPeriodic(rho, psit), trace


def restore_link_b(F, model):
    """Solve for the zero-mean masked shear that closes the b-link of F.

    Residuals are measured in the derivative-only norm, against RESTORE_TOL;
    a splitting mean above RESTORE_MEAN_TOL signals a broken a-link and
    aborts.  Raises RuntimeError when RESTORE_MAX_ITER iterations do not
    reach the tolerance.
    """
    rho = model.partition_bump("b")
    lo, _ = model.fundamental_interval("b")
    tau = model.geometry.tau
    F = model.resolve_map(F)
    chart = TimeEnergyChart(F, "b", model)
    psit = PeriodicFn(tau, np.zeros(PERIODIC_SAMPLES), origin=lo)
    trace = []
    prev = None
    first = True
    for it in range(RESTORE_MAX_ITER):
        m = splitting_b(F, MaskedPeriodic(rho, psit), model, chart=chart,
                        check_link_a=first)
        first = False
        if abs(m.mean()) > RESTORE_MEAN_TOL:
            raise ValueError(
                f"restore_link_b: splitting mean {m.mean():.3e} exceeds "
                f"{RESTORE_MEAN_TOL:.1e}; the a-link appears broken")
        res_sup, res_norm0 = m.sup(), m.norm0()
        trace.append((it, res_sup, res_norm0))
        if res_norm0 <= RESTORE_TOL:
            break
        if prev is not None and prev > RESTORE_TOL and res_norm0 >= prev:
            raise ValueError(
                f"restore_link_b: no contraction (residual {res_norm0:.3e} after {prev:.3e})")
        prev = res_norm0
        psit = (psit - m).zero_mean()
    else:
        raise RuntimeError(f"restore_link_b: residual {res_norm0:.3e} after "
                           f"{RESTORE_MAX_ITER} iterations")
    return MaskedPeriodic(rho, psit), trace
