"""Saddle-passage rescaling: normal forms, transition maps, rescaling
charts, the box perturbation, and verification that chart-conjugated
passage legs converge to a product of Henon-form maps.

The heteroclinic cycle alternates k-fold saddle passages (closed-form
normal form T0) with transition maps T1_i carrying the orbit from the
exit axis of one passage to the entry axis of the next.  Exit charts
Q-bar_i blow up mu^k-size windows around the landing points; in those
coordinates each leg g o T1 o T0^k converges, as k grows, to the
Henon-form map (X, Y) -> (Y, -X + psi(Y)) with psi injected through a
small vertical shear g supported in boxes around the landing points.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyder, polyval

from .curves import BumpFn
from .hamiltonian import MIDPOINT_TOL, HamiltonianSystem, _midpoint_steps
from .maps import (MapDescriptor, affine_map, compose, henon_like, inverse_descriptor,
                   quarter_turn, shear_map)


# SaddleNormalForm.passage_invariant: fixed-point sweeps allowed before it
# raises, and the largest residual a boundary-value solution may keep
PASSAGE_CAP = 80
PASSAGE_RESID_TOL = 1e-12


# ---------------------------------------------------------------------------
# saddle normal form


class SaddleNormalForm:
    """Closed-form saddle map x -> e^{h'(xy)} x, y -> e^{-h'(xy)} y with
    h(u) = u ln(lam) + c2 u^2: contraction along x, xy exactly conserved,
    arbitrary iterates in one evaluation."""

    def __init__(self, lam, c2=0.0):
        if not 0.0 < lam < 1.0:
            raise ValueError("stable multiplier must lie in (0, 1)")
        self.lam = float(lam)
        self.c2 = float(c2)
        self.log_lam = np.log(lam)

    def _ev(self, p, with_jac, k):
        """k-fold iterate of points p, and its Jacobian when with_jac (else
        None)."""
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        u = x * y
        f = np.exp(k * (self.log_lam + 2.0 * self.c2 * u))
        out = np.stack([f * x, y / f], axis=-1)
        if not with_jac:
            return out, None
        a = 2.0 * k * self.c2
        return out, (f * (1.0 + a * u), f * a * x * x, -(a * y * y) / f, (1.0 - a * u) / f)

    def descriptor(self, k=1):
        """T0^k; an integer array k broadcasts against the batch shape, so a
        (K, 1) column maps points (M, 2) to their K iterates (K, M, 2).
        It carries no inverse: no suite, check or claim runs T0^-k."""
        name = f"T0^{k}" if np.ndim(k) == 0 else "T0^j"
        return MapDescriptor(name, lambda p, with_jac: self._ev(p, with_jac, k))

    # -- boundary-value form ---------------------------------------------------

    def passage_invariant(self, xbar, y, k):
        """Solve u = xbar * y * e^{k h'(u)} (entry-x and exit-y given) by
        fixed-point sweeps.  Each point freezes once its step is at most
        1e-15 (1 + |u|) or it overflows (left to the residual); a finite point
        still moving after PASSAGE_CAP sweeps raises RuntimeError."""
        if k * abs(self.log_lam) > 500:
            raise ValueError("k outside the overflow-safe range")
        s = np.array(np.asarray(xbar, dtype=float) * np.asarray(y, dtype=float) * self.lam ** k)
        u, live = s.copy(), np.ones(s.shape, dtype=bool)
        for _ in range(PASSAGE_CAP):
            old = u[live]
            u[live] = nxt = s[live] * np.exp(2.0 * k * self.c2 * old)
            done = np.abs(nxt - old) <= 1e-15 * (1.0 + np.abs(old))
            live[live] = ~done & np.isfinite(nxt)
            if not live.any():
                break
        else:
            raise RuntimeError(f"passage_invariant: unconverged after {PASSAGE_CAP} sweeps")
        resid = np.max(np.abs(u - s * np.exp(2.0 * k * self.c2 * u)))
        return u[()], float(resid)

    def xi_eta(self, k, xbar, y):
        """Correction terms of the k-step boundary-value relation:
        exit-x = lam^k xbar + xi_k, entry-y = lam^k y + eta_k."""
        u, resid = self.passage_invariant(xbar, y, k)
        scaled = np.expm1(2.0 * k * self.c2 * u)  # (factor - lam^k) / lam^k
        lamk = self.lam ** k
        return lamk * scaled * np.asarray(xbar, dtype=float), \
            lamk * scaled * np.asarray(y, dtype=float), resid


# ---------------------------------------------------------------------------
# transition maps


class TransitionMap:
    """Exactly symplectic transition (0, y-) -> (x+, 0), built as the
    composition L o A o U:

      U: (x, y) -> (x, y - y- + u(x))          vertical shear, u(0)=u'(0)=0
      A: (x, v) -> (x+ + b v, c x)             anti-diagonal, det = -bc = 1
      L: (w, z) -> (X(w), z / X'(w))           bend X(w) = w + a (w - x+)^2

    The nonlinear tails this generates vanish at the anchor with the
    required derivatives; the xy-cross coefficient of the second tail is
    d = 2a exactly.  The tail coefficients u2, u3, a are bounded by 0.2.
    """

    def __init__(self, x_plus, y_minus, b, c, u2=0.0, u3=0.0, a=0.0):
        if abs(b * c + 1.0) > 1e-12:
            raise ValueError("transition constants must satisfy b*c = -1")
        if max(abs(u2), abs(u3), abs(a)) > 0.2:
            raise ValueError("tail coefficients exceed the working bound 0.2")
        self.x_plus = float(x_plus)
        self.y_minus = float(y_minus)
        self.b = float(b)
        self.c = float(c)
        self.u_coef = np.array([0.0, 0.0, u2, u3])
        self.du_coef = polyder(self.u_coef)
        self.a = float(a)

    @property
    def d(self):
        """d = the xy-cross coefficient of the second nonlinear tail."""
        return 2.0 * self.a

    def _ev(self, p, with_jac):
        """T1(p), and DT1(p) when with_jac (else None)."""
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        v = y - self.y_minus + polyval(x, self.u_coef)
        w = self.x_plus + self.b * v
        Xp = 1.0 + 2.0 * self.a * (w - self.x_plus)
        z = self.c * x
        out = np.stack([w + self.a * (w - self.x_plus) ** 2, z / Xp], axis=-1)
        if not with_jac:
            return out, None
        du = polyval(x, self.du_coef)
        # chain: dw = b (du dx + dy); dX = X' dw; dz = c dx
        # second row: d(z/X') = dz/X' - z X''/(X'^2) dw
        return out, (Xp * self.b * du, Xp * self.b,
                     self.c / Xp - z * (2.0 * self.a) / Xp ** 2 * self.b * du,
                     -z * (2.0 * self.a) / Xp ** 2 * self.b)

    def __call__(self, p):
        return self._ev(p, False)[0]

    def descriptor(self):
        """T1 as a MapDescriptor, with no inverse: no suite, check or claim
        runs T1^-1."""
        return MapDescriptor("T1", self._ev)


# ---------------------------------------------------------------------------
# the R recursion


def r_sequence(b, c, wrap_tol=1e-12):
    """R_1 = 1, R_{i+1} = -c_{i+1} b_i R_{i-1} (indices cyclic, N odd);
    the odd chain fills R_1, R_3, ..., then wraps through R_2, R_4, ...
    Verifies the wrap-around consistency R_{N+1} = R_1."""
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    N = len(b)
    if len(c) != N:
        raise ValueError("b and c must have equal length")
    if N % 2 == 0:
        raise ValueError("the recursion is consistent only for odd N")
    if np.max(np.abs(b * c + 1.0)) > 1e-12:
        raise ValueError("constants must satisfy b_i c_i = -1")
    R = np.empty(N)
    R[0] = 1.0
    # step i -> i+2 uses R_{i+2} = -c_{i+2} b_{i+1} R_i (1-based indices)
    i = 0
    for _ in range(N - 1):
        j = (i + 2) % N
        R[j] = -c[j] * b[(i + 1) % N] * R[i]
        i = j
    wrap = -c[0] * b[N - 1] * R[N - 2]
    if abs(wrap - R[0]) > wrap_tol:
        raise ValueError(f"wrap-around inconsistency: R_(N+1) = {wrap!r}")
    return R


# ---------------------------------------------------------------------------
# model and charts


@dataclass
class RescalingModel:
    """Saddle normal form + transition cycle + scale constants, and the
    perturbation boxes, one around each landing point (x+_i, 0): `box_region`
    places them, and the one `bump` is their profile in the box coordinate
    (x - x+_i, y)."""

    T0: SaddleNormalForm
    T1: list
    mu: float
    r: int = 2
    # half-widths of the perturbation boxes and of their inner plateaus
    # (class constants, not fields)
    box_half = (0.15, 0.05)
    box_inner = (0.115, 0.035)

    def __post_init__(self):
        lam = self.T0.lam
        if not abs(lam) < self.mu ** self.r < 1.0:
            raise ValueError("scales must satisfy |lam| < mu^r < 1")
        if len(self.T1) % 2 == 0:
            raise ValueError("the transition cycle length must be odd")
        self.N = len(self.T1)
        self.b = np.array([t.b for t in self.T1])
        self.c = np.array([t.c for t in self.T1])
        self.x_plus = np.array([t.x_plus for t in self.T1])
        self.y_minus = np.array([t.y_minus for t in self.T1])
        self.R = r_sequence(self.b, self.c)
        self.bump = BoxBump(self.box_half, self.box_inner)
        if np.any(np.diff(np.sort(self.x_plus)) < 2 * self.box_half[0]):
            raise ValueError("perturbation boxes overlap")

    def box_region(self, p):
        """(region, box) of points p: region 2 on the inner plateau of box
        `box`, 1 in its collar, and 0 outside every box (box -1 there).

        One pass per box, in index order, writes the points that box holds.
        Boxes may touch, and a point within an ulp of where they meet can
        then pass the strict test |x - center| < half of both; the later
        box index, written last, takes it."""
        p = np.asarray(p, dtype=float)
        x, ay = p[..., 0], np.abs(p[..., 1])
        (hx, hy), (ix, iy) = self.box_half, self.box_inner
        reg = np.zeros(x.shape, dtype=int)
        box = np.full(x.shape, -1, dtype=int)
        in_y, inner_y = ay < hy, ay <= iy
        for i, center in enumerate(self.x_plus):
            ax = np.abs(x - center)
            hit = (ax < hx) & in_y
            reg[hit] = 1 + ((ax[hit] <= ix) & inner_y[hit])
            box[hit] = i
        return reg, box


def desk_model(nonlinearity=0.1, tails=True, lam=0.4, mu=0.8, r=2):
    """The working desk configuration: N = 3 transition maps with the
    landing points x+ = (0.9, 1.62, 3.24), at the scales lam and mu (by
    default 0.4 and 0.8) and r; `nonlinearity` is the normal form's c2, and
    `tails` switches the transitions' nonlinear tails on."""
    T0 = SaddleNormalForm(lam, nonlinearity)
    u2, u3, a = (0.15, 0.05, 0.1) if tails else (0.0, 0.0, 0.0)
    xp = (0.9, 1.62, 3.24)
    ym = (0.30, 0.32, 0.34)
    T1 = [TransitionMap(xp[i], ym[i], 0.5, -2.0, u2=u2, u3=u3, a=a)
          for i in range(3)]
    return RescalingModel(T0, T1, mu=mu, r=r)


class RescalingCharts:
    """Exit charts `qbar` of the k-passage cycle, with the correction
    offsets beta/gamma absorbing the normal-form nonlinearity at the
    anchor points (zero for the linear normal form)."""

    def __init__(self, model, k):
        self.model = model
        self.k = int(k)
        N = model.N
        lam = model.T0.lam
        self.lamk = lam ** self.k
        self.muk = model.mu ** self.k
        xp, ym, b, R = model.x_plus, model.y_minus, model.b, model.R
        # the 2N boundary-value anchor pairs in one solve: beta_i pairs the
        # previous exit anchor x+_{i-1} with y-_i, gamma_i pairs x+_i with
        # the next entry level y-_{i+1}; each point freezes on its own sweep
        with np.errstate(over="ignore", invalid="ignore"):
            xi, eta, resid = model.T0.xi_eta(self.k, np.concatenate([np.roll(xp, 1), xp]),
                                             np.concatenate([ym, np.roll(ym, -1)]))
        if not resid <= PASSAGE_RESID_TOL:
            raise ValueError(
                f"boundary-value fixed point u = s exp(2 k c2 u) diverges at "
                f"k = {self.k}: residual {resid:.3e} > {PASSAGE_RESID_TOL:g}")
        self.beta = xi[:N] / self.lamk
        self.gamma = eta[N:] / self.lamk

    def qbar(self, i):
        """Exit chart i, chart (X, Y) -> plane; its inverse maps back."""
        m = self.model
        i = i % m.N
        return affine_map(
            f"Qbar_{i}",
            (m.b[i] * m.R[(i - 1) % m.N] * self.muk, self.lamk * m.R[i] * self.muk),
            (m.x_plus[i], self.lamk * (m.y_minus[(i + 1) % m.N] + self.gamma[i])),
        )

    def c_offset(self, i):
        """Constant landing defect of leg i in exit-chart units / mu^k."""
        m = self.model
        N = m.N
        j = (i + 1) % N
        return (m.c[j] * (m.x_plus[i] + self.beta[j])
                - m.y_minus[(i + 2) % N] - self.gamma[j]) / m.R[j]

    def a_cross(self, i):
        """Linear cross defect of leg i from the transition bend."""
        m = self.model
        j = (i + 1) % m.N
        return m.T1[j].d * m.x_plus[i] * m.R[i] / m.R[j]

    def psihat(self, i, psi):
        """Coefficients, in powers of the box coordinate s = xbar - x+_{i+1},
        of the shear on V_{i+1} that cancels leg i's landing defects and
        injects the Henon kick psi (a `Polynomial` in the chart X, or None).

        X = s / scale on the box, so the kick's coefficient c_j enters as
        lam^k mu^k R_{i+1} c_j / scale^j; the constant and linear defects add
        to the s^0 and s^1 coefficients."""
        m = self.model
        j = (i + 1) % m.N
        kick = np.zeros(2) if psi is None else psi.coef
        scale = m.b[j] * m.R[i] * self.muk
        out = np.zeros(max(len(kick), 2))
        out[:len(kick)] = self.lamk * self.muk * m.R[j] * kick / scale ** np.arange(len(kick))
        out[0] -= self.lamk * self.c_offset(i) * m.R[j]
        out[1] -= self.lamk * self.a_cross(i) * m.R[j] / (m.b[j] * m.R[i])
        return out


# ---------------------------------------------------------------------------
# the box perturbation


class BoxBump:
    """C^2 plateau bump over a rectangle centred at the origin: 1 on the inner
    box, 0 outside; the product of one `BumpFn` per axis."""

    def __init__(self, half, inner):
        if not all(0 < i < h for h, i in zip(half, inner)):
            raise ValueError("inner box must sit strictly inside the outer box")
        self._x, self._y = (BumpFn(-h, h, h - i) for h, i in zip(half, inner))

    def jet(self, p, with_hess):
        """(rho, grad rho, Hessian entries (rho_xx, rho_xy, rho_yy) or None)
        at points p, from one evaluation of each axis's bump and slope, and
        of its curvature when with_hess."""
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        bx, by, sx, sy = self._x(x), self._y(y), self._x.d1(x), self._y.d1(y)
        grad = np.stack([sx * by, bx * sy], axis=-1)
        if not with_hess:
            return bx * by, grad, None
        return bx * by, grad, (self._x.d2(x) * by, sx * sy, bx * self._y.d2(y))


def _collar_system(bump, psihat, dpsihat):
    """H = -Psi(s) rho(s, y) in the box coordinate (s, y), s = x - x+_i, for a
    batch whose row m carries its own box's coefficient column m of psihat
    and dpsihat (L, M), or one column (L, 1) that all rows share.  Psi is
    psihat's antiderivative that vanishes at s = 0, the box center, so the
    collar Hamiltonian is as small as the shear itself."""
    Psi = np.concatenate((np.zeros_like(psihat[:1]),
                          psihat / np.arange(1, len(psihat) + 1)[:, None]))

    def grad(p):
        s = p[..., 0]
        rho, gr, _ = bump.jet(p, False)
        P = polyval(s, Psi, tensor=False)
        return np.stack([-(polyval(s, psihat, tensor=False) * rho + P * gr[..., 0]),
                         -P * gr[..., 1]], axis=-1)

    def hess(p):
        s = p[..., 0]
        rho, gr, (hxx, hxy, hyy) = bump.jet(p, True)
        P, p1, p2 = (polyval(s, c, tensor=False) for c in (Psi, psihat, dpsihat))
        return (-(p2 * rho + 2.0 * p1 * gr[..., 0] + P * hxx),
                -(p1 * gr[..., 1] + P * hxy), -P * hyy)

    return HamiltonianSystem("-Psi rho", grad, hess)


def build_perturbation(charts, psi_list):
    """Map descriptor of the box perturbation g of the charts' passage
    length k.

    g is the time-1 flow of H = -Psi_i(s) * rho(s, y) on box i, in its box
    coordinate s = x - x+_i; on each inner box it acts as the exact vertical
    shear by psihat_i, outside all boxes it is the identity, and the
    collars are integrated by implicit midpoint, all boxes in one call.
    Returns (g, psihats, dpsihats): the shears' and their derivatives'
    coefficient tables (L, N), column i in powers of box i's s, zero-padded
    at the high-degree end, as g evaluates them.
    """
    model = charts.model
    N = model.N
    cols = [charts.psihat((i - 1) % N, psi_list[(i - 1) % N]) for i in range(N)]
    coefs = np.zeros((max(map(len, cols)), N))
    for i, c in enumerate(cols):
        coefs[:len(c), i] = c
    dcoefs = polyder(coefs)
    iy = model.box_inner[1]

    def apply(p, with_jac, sign=1.0, classes=None):
        """g (sign +1) or g^-1 (sign -1) of points p, and the entries of its
        Jacobian when with_jac (else None): the identity off the boxes, the
        shear's on the inner boxes, the integrator's on the collars.
        `classes` is box_region's (region, box) of p, if the caller has it."""
        p = np.asarray(p, dtype=float)
        flat = p.reshape(-1, 2)
        reg, box = model.box_region(flat) if classes is None else classes
        out = flat.copy()
        J = [np.full(len(flat), e) for e in (1.0, 0.0, 0.0, 1.0)] if with_jac else None
        idx = np.flatnonzero(box >= 0)
        b = box[idx]
        s = flat[idx, 0] - model.x_plus[b]
        y1 = flat[idx, 1] + sign * polyval(s, coefs[:, b], tensor=False)
        # the vertical segment from y to y1 stays in the inner box,
        # where the flow is exactly the shear
        sh = (reg[idx] == 2) & (np.abs(y1) <= iy)
        out[idx[sh], 1] = y1[sh]
        if with_jac:
            J[2][idx[sh]] = sign * polyval(s[sh], dcoefs[:, b[sh]], tensor=False)
        mc, bc = idx[~sh], b[~sh]
        if mc.size:
            # the collars: the time-sign flow, g (+1) or g^-1 (-1), in (s, y)
            z, Jm = _midpoint_steps(_collar_system(model.bump, coefs[:, bc], dcoefs[:, bc]),
                                    np.stack([s[~sh], flat[mc, 1]], axis=-1), sign, 64,
                                    MIDPOINT_TOL, with_jac)
            out[mc, 0], out[mc, 1] = z[:, 0] + model.x_plus[bc], z[:, 1]
            if with_jac:
                for e, v in zip(J, Jm):
                    e[mc] = v
        return out.reshape(p.shape), (tuple(e.reshape(p.shape[:-1]) for e in J)
                                      if with_jac else None)

    # g^-1 carries the paper's claim that g is a diffeomorphism: the time -1 flow
    g = MapDescriptor(f"g[k={charts.k}]", apply, lambda q: apply(q, False, -1.0)[0])
    return g, coefs, dcoefs


# ---------------------------------------------------------------------------
# verification of the product formula


def _disc_grid(n):
    t = np.linspace(-1.0, 1.0, n)
    X, Y = np.meshgrid(t, t, indexing="ij")
    m = X ** 2 + Y ** 2 <= 1.0
    return np.stack([X[m], Y[m]], axis=-1)


def _henon(psi):
    """H_psi of a kick `Polynomial` (H_0 for None).  Its derivative is built
    on the map's first Jacobian and kept: `verify_rescaling` and the
    corollary evaluate only values, so a suite run builds none."""
    if psi is None:
        return quarter_turn()
    deriv = cache(psi.deriv)
    return henon_like(psi, lambda y: deriv()(y))


def verify_rescaling(model, k, psi_list=None):
    """Check the k-passage product formula.

    Runs the full N-leg orbit of an exit-chart disc grid, comparing the
    chart-conjugated composition with the Henon-kick product, and each
    individual leg as Phi_i = H_i^{-1} o leg against the identity.  Each
    leg maps the composition's points and the fresh grid as one batch: one
    T0 evaluation gives all k passage iterates, and one `box_region` call
    over iterates 1..k-1 and the T1 landing raises ValueError if an iterate
    touches a box or a landing point leaves its own inner box; g reuses the
    landing's classes.  Returns a report dict with E(k), the per-leg defects
    of Phi_i, the passage count n = N (k + 1), and each psihat_i's sup and
    C^2 norm over its own box (the only place g uses it), from its
    coefficients on the grid s = linspace(-h, h, 257) of the box coordinate.
    """
    N = model.N
    if psi_list is None:
        psi_list = [None] * N
    if len(psi_list) != N:
        raise ValueError("need one kick function per leg")
    charts = RescalingCharts(model, k)
    g, psihats, dpsihats = build_perturbation(charts, psi_list)
    pts = _disc_grid(24)
    M = len(pts)
    # T0^1..T0^k in one call: the iterate count is a (k, 1) column
    T0j = model.T0.descriptor(np.arange(1, k + 1)[:, None])

    # each leg maps the composition's points and the fresh disc grid as one
    # batch: the first half goes on, to be compared with the Henon product,
    # and the second gives Phi_i = H_i^{-1} o leg
    cur = hen = pts
    phi_defects = []
    for i in range(N):
        j = (i + 1) % N
        q = T0j(charts.qbar(i)(np.concatenate([cur, pts])))
        p = model.T1[j](q[-1])
        # one classification of passage iterates 1..k-1 and the landing
        reg, box = model.box_region(np.concatenate([q[:-1].reshape(-1, 2), p]))
        if np.any(reg[:-len(p)] > 0):
            raise ValueError("saddle-passage orbit grazes a box")
        reg, box = reg[-len(p):], box[-len(p):]
        if np.any((reg > 0) & (box != j)):
            raise ValueError("orbit enters a foreign perturbation box")
        if np.any(reg != 2):
            raise ValueError("leg lands outside the inner perturbation box")
        out = charts.qbar(j).inverse(g.ev(p, False, classes=(reg, box))[0])
        cur, fresh = out[:M], out[M:]
        henon = _henon(psi_list[i])
        hen = henon(hen)
        phi_defects.append(float(np.max(np.abs(henon.inv(fresh) - pts))))
    E = float(np.max(np.abs(cur - hen)))

    # sup and C^2 norm of each psihat_i over its own box, where g uses it:
    # one grid in the box coordinate s = x - x+_i serves every column
    h = model.box_half[0]
    ss = np.linspace(-h, h, 257)
    sizes = np.max(np.abs([polyval(ss, c) for c in (psihats, dpsihats, polyder(dpsihats))]),
                   axis=-1)

    return {
        "k": k,
        "n": N * (k + 1),
        "error": E,
        "phi_defects": phi_defects,
        "phi_defect_max": max(phi_defects),
        "psihat_norms": np.max(sizes, axis=0).tolist(),
        "psihat_sup": float(np.max(sizes[0])),
    }


# ---------------------------------------------------------------------------
# the corollary composition


def corollary_composition(psi_list, psi):
    """Pair (F_target, S_psi o F_target) realized by the Henon product.

    With kicks psi_1..psi_N' (N' even) followed by 0, 0, psi, the product
    H_psi o H_0 o H_0 o H_{psi_N'} o ... o H_{psi_1} factors as
    S_psi o F_target with F_target = H_0^{-1} o H_{psi_N'} o ... o H_{psi_1}
    and S_psi = H_psi o H_0^{-1} the vertical shear by psi.  The kicks are
    Polynomials; None stands for the zero kick.  The identity is left to the
    caller: the rescaling suite measures it as a check.
    """
    if len(psi_list) % 2 != 0:
        raise ValueError("the kick list must have even length")

    h0 = _henon(None)
    chain = [_henon(f) for f in psi_list]
    target = inverse_descriptor(h0)
    for h in reversed(chain):
        target = compose(target, h)

    if psi is None:
        psi = Polynomial([0.0])
    return target, compose(shear_map(psi, psi.deriv(), name="S_psi"), target, name="S_psi.F")
