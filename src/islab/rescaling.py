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

import numpy as np
from numpy.polynomial import Polynomial

from .curves import StepFn
from .hamiltonian import HamiltonianSystem, hamiltonian_time_map
from .maps import MapDescriptor, compose, henon_like, inverse_descriptor, shear_map


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

    def hprime(self, u):
        return self.log_lam + 2.0 * self.c2 * u

    def _factor(self, u, k):
        return np.exp(k * self.hprime(u))

    def iterate(self, p, k=1):
        p = np.asarray(p, dtype=float)
        u = p[..., 0] * p[..., 1]
        f = self._factor(u, k)
        return np.stack([f * p[..., 0], p[..., 1] / f], axis=-1)

    def jacobian_k(self, p, k=1):
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        u = x * y
        f = self._factor(u, k)
        a = 2.0 * k * self.c2
        J = np.empty(p.shape[:-1] + (2, 2))
        J[..., 0, 0] = f * (1.0 + a * u)
        J[..., 0, 1] = f * a * x * x
        J[..., 1, 0] = -(a * y * y) / f
        J[..., 1, 1] = (1.0 - a * u) / f
        return J

    def descriptor(self, k=1):
        def fwd(p):
            return self.iterate(p, k)

        def jac(p):
            return self.jacobian_k(p, k)

        def inv(q):
            q = np.asarray(q, dtype=float)
            u = q[..., 0] * q[..., 1]  # conserved, so usable from the image
            f = self._factor(u, k)
            return np.stack([q[..., 0] / f, f * q[..., 1]], axis=-1)

        return MapDescriptor(f"T0^{k}", fwd, jac, inv)

    # -- boundary-value form ---------------------------------------------------

    def passage_invariant(self, xbar, y, k):
        """Solve u = xbar * y * e^{k h'(u)} (entry-x and exit-y given) by at
        most 80 fixed-point sweeps, to relative step 1e-15."""
        if k * abs(self.log_lam) > 500:
            raise ValueError("k outside the overflow-safe range")
        xbar = np.asarray(xbar, dtype=float)
        y = np.asarray(y, dtype=float)
        s = xbar * y * self.lam ** k
        u = s
        for _ in range(80):
            nxt = s * np.exp(2.0 * k * self.c2 * u)
            if np.max(np.abs(nxt - u)) <= 1e-15 * (1.0 + np.max(np.abs(u))):
                u = nxt
                break
            u = nxt
        resid = np.max(np.abs(u - s * np.exp(2.0 * k * self.c2 * u)))
        return u, float(resid)

    def xi_eta(self, k, xbar, y):
        """Correction terms of the k-step boundary-value relation:
        exit-x = lam^k xbar + xi_k, entry-y = lam^k y + eta_k."""
        u, resid = self.passage_invariant(xbar, y, k)
        scaled = np.expm1(2.0 * k * self.c2 * u)  # (factor - lam^k) / lam^k
        lamk = self.lam ** k
        return lamk * scaled * np.asarray(xbar, dtype=float), \
            lamk * scaled * np.asarray(y, dtype=float), resid


def xi_eta(T0, k, window):
    """Sampled correction functions over window = ((x0,x1),(y0,y1)).

    Returns (xi, eta, info): callables of (xbar, y) plus the fixed-point
    residual measured on a 33 x 33 sample grid."""
    (x0, x1), (y0, y1) = window
    xs = np.linspace(x0, x1, 33)
    ys = np.linspace(y0, y1, 33)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, resid = T0.xi_eta(k, X, Y)
    if not resid <= 1e-12:
        raise ValueError(f"boundary-value fixed point residual {resid:.3e} "
                         "(window too large)")

    def xi(xbar, y):
        return T0.xi_eta(k, xbar, y)[0]

    def eta(xbar, y):
        return T0.xi_eta(k, xbar, y)[1]

    grid_xi, grid_eta, _ = T0.xi_eta(k, X, Y)
    info = {"residual": resid, "sup_xi": float(np.max(np.abs(grid_xi))),
            "sup_eta": float(np.max(np.abs(grid_eta)))}
    return xi, eta, info


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
    d = 2a exactly.
    """

    def __init__(self, x_plus, y_minus, b, c, u2=0.0, u3=0.0, a=0.0):
        if abs(b * c + 1.0) > 1e-12:
            raise ValueError("transition constants must satisfy b*c = -1")
        self.x_plus = float(x_plus)
        self.y_minus = float(y_minus)
        self.b = float(b)
        self.c = float(c)
        self.u_poly = Polynomial([0.0, 0.0, u2, u3])
        self.du_poly = self.u_poly.deriv()
        self.a = float(a)

    @property
    def d(self):
        """d = the xy-cross coefficient of the second nonlinear tail."""
        return 2.0 * self.a

    def _X(self, w):
        return w + self.a * (w - self.x_plus) ** 2

    def _Xp(self, w):
        return 1.0 + 2.0 * self.a * (w - self.x_plus)

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        v = y - self.y_minus + self.u_poly(x)
        w = self.x_plus + self.b * v
        z = self.c * x
        return np.stack([self._X(w), z / self._Xp(w)], axis=-1)

    def jacobian(self, p):
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        v = y - self.y_minus + self.u_poly(x)
        w = self.x_plus + self.b * v
        Xp = self._Xp(w)
        z = self.c * x
        du = self.du_poly(x)
        # chain: dw = b (du dx + dy); dX = X' dw; dz = c dx
        # second row: d(z/X') = dz/X' - z X''/(X'^2) dw
        J = np.empty(p.shape[:-1] + (2, 2))
        J[..., 0, 0] = Xp * self.b * du
        J[..., 0, 1] = Xp * self.b
        J[..., 1, 0] = self.c / Xp - z * (2.0 * self.a) / Xp ** 2 * self.b * du
        J[..., 1, 1] = -z * (2.0 * self.a) / Xp ** 2 * self.b
        return J

    def inverse(self, q):
        q = np.asarray(q, dtype=float)
        xb, yb = q[..., 0], q[..., 1]
        if self.a == 0.0:
            w = xb
        else:
            disc = 1.0 + 4.0 * self.a * (xb - self.x_plus)
            w = self.x_plus + (np.sqrt(disc) - 1.0) / (2.0 * self.a)
        z = yb * self._Xp(w)
        x = z / self.c
        v = (w - self.x_plus) / self.b
        y = v + self.y_minus - self.u_poly(x)
        return np.stack([x, y], axis=-1)

    def descriptor(self, name="T1"):
        return MapDescriptor(name, self.__call__, self.jacobian, self.inverse)

    def tails(self, p):
        """The nonlinear remainders (phi1, phi2) relative to the affine part
        xbar = x+ + b (y - y-), ybar = c x."""
        p = np.asarray(p, dtype=float)
        out = self(p)
        aff_x = self.x_plus + self.b * (p[..., 1] - self.y_minus)
        aff_y = self.c * p[..., 0]
        return out[..., 0] - aff_x, out[..., 1] - aff_y


def build_transition(x_plus, y_minus, b, c, u2=0.0, u3=0.0, a=0.0):
    """Transition map with validated constants and structurally-admissible
    polynomial tails (degree <= 3, vanishing value and slope at 0)."""
    if max(abs(u2), abs(u3), abs(a)) > 0.2:
        raise ValueError("tail coefficients exceed the working bound 0.2")
    return TransitionMap(x_plus, y_minus, b, c, u2=u2, u3=u3, a=a)


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
    """Saddle normal form + transition cycle + scale constants."""

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

    def box_center(self, i):
        return np.array([self.x_plus[i], 0.0])


def desk_model(nonlinearity=0.1, tails=True, lam=0.4, mu=0.8, r=2):
    """The working desk configuration: N = 3, lam = 0.4, mu = 0.8."""
    T0 = SaddleNormalForm(lam, nonlinearity)
    u2, u3, a = (0.15, 0.05, 0.1) if tails else (0.0, 0.0, 0.0)
    xp = (0.9, 1.62, 3.24)
    ym = (0.30, 0.32, 0.34)
    T1 = [build_transition(xp[i], ym[i], 0.5, -2.0, u2=u2, u3=u3, a=a)
          for i in range(3)]
    return RescalingModel(T0, T1, mu=mu, r=r)


class AffineChart:
    """(X, Y) -> center + diag-ish linear map; exact inverse."""

    def __init__(self, cx, cy, sx, sy):
        self.cx, self.cy, self.sx, self.sy = cx, cy, sx, sy

    def to_plane(self, XY):
        XY = np.asarray(XY, dtype=float)
        return np.stack([self.cx + self.sx * XY[..., 0],
                         self.cy + self.sy * XY[..., 1]], axis=-1)

    def from_plane(self, p):
        p = np.asarray(p, dtype=float)
        return np.stack([(p[..., 0] - self.cx) / self.sx,
                         (p[..., 1] - self.cy) / self.sy], axis=-1)


class RescalingCharts:
    """Entry/exit charts of the k-passage cycle, with the correction
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
        self.beta = np.empty(N)
        self.gamma = np.empty(N)
        for i in range(N):
            # beta_i pairs the previous exit anchor x+_{i-1} with y-_i;
            # gamma_i pairs x+_i with the next entry level y-_{i+1}
            xi, _, _ = model.T0.xi_eta(self.k, xp[(i - 1) % N], ym[i])
            _, eta, _ = model.T0.xi_eta(self.k, xp[i], ym[(i + 1) % N])
            self.beta[i] = xi / self.lamk
            self.gamma[i] = eta / self.lamk

    def qbar(self, i):
        m = self.model
        i = i % m.N
        return AffineChart(
            m.x_plus[i],
            self.lamk * (m.y_minus[(i + 1) % m.N] + self.gamma[i]),
            m.b[i] * m.R[(i - 1) % m.N] * self.muk,
            self.lamk * m.R[i] * self.muk,
        )

    def q(self, i):
        m = self.model
        i = i % m.N
        return AffineChart(
            self.lamk * (m.x_plus[(i - 1) % m.N] + self.beta[i]),
            m.y_minus[i],
            self.lamk * m.b[(i - 1) % m.N] * m.R[(i - 2) % m.N] * self.muk,
            m.R[(i - 1) % m.N] * self.muk,
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
        """The box shear on V_{i+1} that cancels leg i's landing defects
        and injects the Henon kick psi (a polynomial in the chart X)."""
        m = self.model
        j = (i + 1) % m.N
        scale = m.b[j] * m.R[i] * self.muk
        s = Polynomial([-m.x_plus[j], 1.0])  # xbar - x+_{j}
        out = Polynomial([-self.lamk * self.c_offset(i) * m.R[j]])
        out = out - (self.lamk * self.a_cross(i) * m.R[j] / (m.b[j] * m.R[i])) * s
        if psi is not None:
            out = out + (self.lamk * self.muk * m.R[j]) * psi(s / scale)
        return out


# ---------------------------------------------------------------------------
# the box perturbation


class BoxBump:
    """C^2 plateau bump over a rectangle: 1 on the inner box, 0 outside."""

    def __init__(self, center, half, inner):
        cx, cy = center
        (hx, hy), (ix, iy) = half, inner
        if not (0 < ix < hx and 0 < iy < hy):
            raise ValueError("inner box must sit strictly inside the outer box")
        self._x = StepFn(0.0, hx - ix)
        self._y = StepFn(0.0, hy - iy)
        self.center, self.half, self.inner = (cx, cy), half, inner

    def _profile(self, t, h, step):
        return step(h - np.abs(t))

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        return self._profile(p[..., 0] - self.center[0], self.half[0], self._x) * \
            self._profile(p[..., 1] - self.center[1], self.half[1], self._y)

    def grad(self, p):
        p = np.asarray(p, dtype=float)
        tx = p[..., 0] - self.center[0]
        ty = p[..., 1] - self.center[1]
        fx = self._profile(tx, self.half[0], self._x)
        fy = self._profile(ty, self.half[1], self._y)
        dfx = -np.sign(tx) * self._x.d1(self.half[0] - np.abs(tx))
        dfy = -np.sign(ty) * self._y.d1(self.half[1] - np.abs(ty))
        return np.stack([dfx * fy, fx * dfy], axis=-1)

    def hess(self, p):
        p = np.asarray(p, dtype=float)
        tx = p[..., 0] - self.center[0]
        ty = p[..., 1] - self.center[1]
        fx = self._profile(tx, self.half[0], self._x)
        fy = self._profile(ty, self.half[1], self._y)
        dfx = -np.sign(tx) * self._x.d1(self.half[0] - np.abs(tx))
        dfy = -np.sign(ty) * self._y.d1(self.half[1] - np.abs(ty))
        d2fx = self._x.d2(self.half[0] - np.abs(tx))
        d2fy = self._y.d2(self.half[1] - np.abs(ty))
        H = np.empty(p.shape[:-1] + (2, 2))
        H[..., 0, 0] = d2fx * fy
        H[..., 0, 1] = H[..., 1, 0] = dfx * dfy
        H[..., 1, 1] = fx * d2fy
        return H

    def region(self, p):
        """2 inside the inner box, 1 in the collar, 0 outside."""
        p = np.asarray(p, dtype=float)
        ax = np.abs(p[..., 0] - self.center[0])
        ay = np.abs(p[..., 1] - self.center[1])
        inner = (ax <= self.inner[0]) & (ay <= self.inner[1])
        outer = (ax < self.half[0]) & (ay < self.half[1])
        return np.where(inner, 2, np.where(outer, 1, 0))


def _collar_system(bmp, Psi, psihat, dpsihat):
    """H = -Psi(x) rho(x, y) for one box, with psihat = Psi' and
    dpsihat = psihat'."""

    def grad(p):
        x = p[..., 0]
        rho, gr = bmp(p), bmp.grad(p)
        P = Psi(x)
        return np.stack([-(psihat(x) * rho + P * gr[..., 0]),
                         -P * gr[..., 1]], axis=-1)

    def hess(p):
        x = p[..., 0]
        rho, gr, hs = bmp(p), bmp.grad(p), bmp.hess(p)
        P, p1, p2 = Psi(x), psihat(x), dpsihat(x)
        H = np.empty(p.shape[:-1] + (2, 2))
        H[..., 0, 0] = -(p2 * rho + 2.0 * p1 * gr[..., 0] + P * hs[..., 0, 0])
        H[..., 0, 1] = H[..., 1, 0] = -(p1 * gr[..., 1] + P * hs[..., 0, 1])
        H[..., 1, 1] = -P * hs[..., 1, 1]
        return H

    return HamiltonianSystem("-Psi rho", grad, hess)


def build_perturbation(model, k, psi_list):
    """Map descriptor of the k-dependent box perturbation g.

    g is the time-1 flow of H = -Psi(x) * rho_box; on each inner box it
    acts as the exact vertical shear by psihat_i, outside all boxes it is
    the identity, and the collar is integrated by implicit midpoint.
    Returns (g, psihat list, bump list).
    """
    charts = RescalingCharts(model, k)
    N = model.N
    psihats = [None] * N
    for leg in range(N):
        psihats[(leg + 1) % N] = charts.psihat(leg, psi_list[leg])
    bumps = [BoxBump(model.box_center(i), model.box_half, model.box_inner)
             for i in range(N)]
    for i in range(N):
        for j in range(i + 1, N):
            gap = abs(model.x_plus[i] - model.x_plus[j])
            if gap < 2 * model.box_half[0]:
                raise ValueError("perturbation boxes overlap")
    # anchor the antiderivatives at the box centers so the collar
    # Hamiltonian is as small as the shear itself
    Psis = []
    for i, ph in enumerate(psihats):
        P = ph.integ()
        Psis.append(P - P(model.x_plus[i]))
    dpsihats = [ph.deriv() for ph in psihats]
    flows = [hamiltonian_time_map(
        _collar_system(bumps[i], Psis[i], psihats[i], dpsihats[i]), 1.0,
        steps=64) for i in range(N)]

    def classify(p):
        reg = np.zeros(np.shape(p)[:-1], dtype=int)
        box = np.full(np.shape(p)[:-1], -1, dtype=int)
        for i, bmp in enumerate(bumps):
            r = bmp.region(p)
            take = r > 0
            reg = np.where(take, r, reg)
            box = np.where(take, i, box)
        return reg, box

    ix, iy = model.box_inner

    def _safe_shear(p, i, sign):
        # the vertical segment from y to y + sign*psihat stays in the inner
        # box, where the flow is exactly the shear
        x = p[..., 0] - model.x_plus[i]
        y0 = p[..., 1]
        y1 = y0 + sign * psihats[i](p[..., 0])
        return (np.abs(x) <= ix) & (np.abs(y0) <= iy) & (np.abs(y1) <= iy)

    def fwd(p):
        p = np.asarray(p, dtype=float)
        flat = p.reshape(-1, 2)
        reg, box = classify(flat)
        out = flat.copy()
        for i in range(N):
            inbox = (reg > 0) & (box == i)
            safe = inbox & _safe_shear(flat, i, +1.0)
            if np.any(safe):
                out[safe, 1] = flat[safe, 1] + psihats[i](flat[safe, 0])
            mc = inbox & ~safe
            if np.any(mc):
                out[mc] = flows[i].fwd(flat[mc])
        return out.reshape(p.shape)

    def jac(p):
        p = np.asarray(p, dtype=float)
        flat = p.reshape(-1, 2)
        reg, box = classify(flat)
        J = np.broadcast_to(np.eye(2), flat.shape + (2,)).copy()
        for i in range(N):
            inbox = (reg > 0) & (box == i)
            safe = inbox & _safe_shear(flat, i, +1.0)
            if np.any(safe):
                J[safe, 1, 0] = dpsihats[i](flat[safe, 0])
            mc = inbox & ~safe
            if np.any(mc):
                J[mc] = flows[i].jacobian(flat[mc])
        return J.reshape(p.shape[:-1] + (2, 2))

    def inv(q):
        q = np.asarray(q, dtype=float)
        flat = q.reshape(-1, 2)
        out = flat.copy()
        reg, box = classify(flat)
        for i in range(N):
            inbox = (reg > 0) & (box == i)
            # mirror of the forward branch rule: un-shear exactly when the
            # backward vertical segment stays in the inner box
            safe = inbox & _safe_shear(flat, i, -1.0)
            if np.any(safe):
                out[safe, 1] = flat[safe, 1] - psihats[i](flat[safe, 0])
            mc = inbox & ~safe
            if np.any(mc):
                out[mc] = flows[i].inv(flat[mc])
        return out.reshape(q.shape)

    g = MapDescriptor(f"g[k={k}]", fwd, jac, inv)
    return g, psihats, bumps


# ---------------------------------------------------------------------------
# verification of the product formula


def _disc_grid(n):
    t = np.linspace(-1.0, 1.0, n)
    X, Y = np.meshgrid(t, t, indexing="ij")
    m = X ** 2 + Y ** 2 <= 1.0
    return np.stack([X[m], Y[m]], axis=-1)


def _henon(psi):
    if psi is None:
        return henon_like(lambda y: np.zeros_like(np.asarray(y, dtype=float)),
                          lambda y: np.zeros_like(np.asarray(y, dtype=float)))
    dpsi = psi.deriv()
    return henon_like(lambda y: psi(np.asarray(y, dtype=float)),
                      lambda y: dpsi(np.asarray(y, dtype=float)))


def verify_rescaling(model, k, psi_list=None):
    """Check the k-passage product formula.

    Runs the full N-leg orbit of an exit-chart disc grid, comparing the
    chart-conjugated composition with the Henon-kick product, and each
    individual leg against its Henon factor.  Returns a report dict with
    E(k), per-leg defect of Phi_i = H^{-1} o leg, the psihat norms, and
    the passage count n = N (k + 1).
    """
    N = model.N
    if psi_list is None:
        psi_list = [None] * N
    if len(psi_list) != N:
        raise ValueError("need one kick function per leg")
    charts = RescalingCharts(model, k)
    g, psihats, bumps = build_perturbation(model, k, psi_list)
    pts = _disc_grid(24)
    T0k = model.T0.descriptor(k)

    def run_leg(i, XY):
        p = charts.qbar(i).to_plane(XY)
        p = T0k(p)
        p = model.T1[(i + 1) % N](p)
        reg = bumps[(i + 1) % N].region(p)
        for j in range(N):
            if j != (i + 1) % N and np.any(bumps[j].region(p) > 0):
                raise ValueError("orbit enters a foreign perturbation box")
        if np.any(reg != 2):
            raise ValueError("leg lands outside the inner perturbation box")
        p = g(p)
        return charts.qbar(i + 1).from_plane(p)

    # intermediate-orbit avoidance: saddle-passage iterates must stay
    # outside every box
    probe = charts.qbar(0).to_plane(_disc_grid(8))
    for i in range(N):
        q = probe
        for j in range(k):
            q = model.T0.iterate(q)
            if j < k - 1:
                for bmp in bumps:
                    if np.any(bmp.region(q) > 0):
                        raise ValueError("saddle-passage orbit grazes a box")
        q = model.T1[(i + 1) % N](q)
        q = g(q)
        probe = q

    # full composition vs the Henon product
    cur = pts
    hen = pts
    leg_defects = []
    for i in range(N):
        cur = run_leg(i, cur)
        hen = _henon(psi_list[i])(hen)
        fresh = run_leg(i, pts)
        target = _henon(psi_list[i])(pts)
        leg_defects.append(float(np.max(np.abs(fresh - target))))
    E = float(np.max(np.abs(cur - hen)))

    # empirical Phi_i = H^{-1} o leg on a fresh disc grid
    phi_defects = []
    for i in range(N):
        fresh = run_leg(i, pts)
        hinv = _henon(psi_list[i]).inv
        phi = hinv(fresh)
        phi_defects.append(float(np.max(np.abs(phi - pts))))

    norms = []
    for ph in psihats:
        lo = min(model.x_plus) - model.box_half[0]
        hi = max(model.x_plus) + model.box_half[0]
        xs = np.linspace(lo, hi, 257)
        norms.append(max(float(np.max(np.abs(d(xs))))
                         for d in (ph, ph.deriv(), ph.deriv(2))))

    return {
        "k": k,
        "n": N * (k + 1),
        "error": E,
        "leg_defects": leg_defects,
        "phi_defects": phi_defects,
        "phi_defect_max": max(phi_defects),
        "psihat_norms": norms,
        "psihat_sup": max(float(np.max(np.abs(ph(np.linspace(
            model.x_plus[i] - model.box_half[0],
            model.x_plus[i] + model.box_half[0], 257)))))
            for i, ph in enumerate(psihats)),
    }


# ---------------------------------------------------------------------------
# the corollary composition


def corollary_composition(psi_list, psi):
    """Pair (F_target, S_psi o F_target) realized by the Henon product.

    With kicks psi_1..psi_N' (N' even) followed by 0, 0, psi, the product
    H_psi o H_0 o H_0 o H_{psi_N'} o ... o H_{psi_1} factors as
    S_psi o F_target with F_target = H_0^{-1} o H_{psi_N'} o ... o H_{psi_1}
    and S_psi = H_psi o H_0^{-1} the vertical shear by psi.  The kicks are
    Polynomials; None stands for the zero kick.
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
    dpoly = psi.deriv()
    s_psi = shear_map(lambda x: psi(np.asarray(x, dtype=float)),
                      lambda x: dpoly(np.asarray(x, dtype=float)),
                      name="S_psi")
    h_psi = _henon(psi)

    full = compose(h_psi, h0, h0, *reversed(chain), name="H-product")
    pair = compose(s_psi, target, name="S_psi.F")

    # the corrected identity: the product equals S_psi o F_target exactly
    pts = _disc_grid(18)
    gap = float(np.max(np.abs(full(pts) - pair(pts))))
    if gap > 1e-10:
        raise AssertionError(f"corollary composition identity fails: {gap:.3e}")
    return target, pair
