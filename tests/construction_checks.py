"""Checks of the paper's construction, and the maps they need, that only
the tests run.

No suite or acceptance criterion calls these, so they live beside the tests
rather than in the package.
"""

import numpy as np
from numpy.polynomial import Polynomial

from islab.blowup import SIGMA, from_polar, to_polar
from islab.hamiltonian import HamiltonianSystem, _midpoint_steps
from islab.lyapunov import max_lyapunov, spectral_norm
from islab.maps import (MapDescriptor, compose, inv2, inverse_descriptor, shear_map,
                        torus_diff, wrap_torus)
from islab.rescaling import PASSAGE_RESID_TOL

EXP_2SIGMA = 161.0 + 72.0 * np.sqrt(5.0)          # e^{2 sigma}, saddle multiplier


# ---------------------------------------------------------------------------
# maps


def entries(M):
    """The entries (M00, M01, M10, M11) of a 2x2 matrix or an (..., 2, 2)
    stack, the form `maps.mul2` and `lyapunov.spectral_norm` take."""
    return M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]


def stacked(e):
    """The (..., 2, 2) stack of the entries e = (M00, M01, M10, M11)."""
    e = np.broadcast_arrays(*e)
    return np.stack(e, axis=-1).reshape(e[0].shape + (2, 2))


def finite_difference_jacobian(f, p, h=None, wrap_output=False):
    """Central finite-difference Jacobian of f at p: the reference that
    tests hold the analytic Jacobians against.

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


def separate_map(name, fwd, jac, inv=None, **kw):
    """MapDescriptor of a test map written as a separate image function
    and a Jacobian function that returns an (..., 2, 2) stack; its `ev`
    hands out the stack's entries, as the package's maps do."""
    return MapDescriptor(name, lambda p, with_jac: (fwd(p), entries(jac(p)) if with_jac else None),
                         inv, **kw)


def identity_map():
    def fwd(p):
        return np.array(p, dtype=float, copy=True)

    def jac(p):
        J = np.zeros(np.shape(p)[:-1] + (2, 2), dtype=float)
        J[..., 0, 0] = 1.0
        J[..., 1, 1] = 1.0
        return J

    return separate_map("id", fwd, jac, fwd)


# ---------------------------------------------------------------------------
# island map


def regime_consistency(island):
    """Sup distance between the two defining formulas on the outer collar.

    On rho in (rho_lo, rho_lo + zeta] with zeta = (r1 - rho_lo) e^{-2 sigma}
    the surgery composite equals the island flow exactly (both are the
    time-sigma flow of (rho - rho_lo) sin 2 theta while the orbit stays in
    the linear zone of psi); the residual measures the refined (fourth-order)
    integrator.
    """
    prof = island.profile
    zeta = (prof.r1 - prof.rho_lo) * np.exp(-2 * SIGMA)
    rng = np.random.default_rng(7)
    th = rng.uniform(0, 2 * np.pi, 64)
    rho = prof.rho_lo + zeta * rng.uniform(0.05, 1.0, 64)
    state = np.stack([rho, th], axis=-1)
    w = from_polar(state)
    # the flow runs in the centre's own polar frame, so one integration
    # serves all four centres
    s_end, _ = _midpoint_steps(island.system, state, SIGMA, 1024, 1e-15, False,
                               order=4)
    dw = from_polar(s_end) - w
    worst = 0.0
    for c in island.centers:
        p = wrap_torus(c + w @ island.R.T)
        surg = island(p)                       # rho > rho_lo: surgery branch
        flow = wrap_torus(p + dw @ island.R.T)
        worst = max(worst, float(np.max(np.abs(torus_diff(surg, flow)))))
    return worst


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
        return 0.0, 2 * np.cos(2 * t_), -4 * rho * np.sin(2 * t_)

    sys0 = HamiltonianSystem("rho sin 2 theta", grad, hess)
    s_end, _ = _midpoint_steps(sys0, to_polar(w), SIGMA, 1024, 1e-15, False,
                               order=4)
    D = np.diag([np.exp(SIGMA), np.exp(-SIGMA)])
    return float(np.max(np.abs(from_polar(s_end) - w @ D.T)))


# ---------------------------------------------------------------------------
# Hamiltonian flows


def saddle_system(sigma):
    """H = sigma * x * y: linear saddle flow (x, y) -> (e^{st} x, e^{-st} y)."""
    s = float(sigma)

    def grad(p):
        return np.stack([s * p[..., 1], s * p[..., 0]], axis=-1)

    def hess(p):
        return 0.0, s, 0.0

    return HamiltonianSystem(f"sigma*x*y (sigma={s:g})", grad, hess)


def energy_drift(H, mapping, pts):
    """max |H(f(p)) - H(p)| over pts, for the Hamiltonian's value H."""
    pts = np.asarray(pts, dtype=float)
    return float(np.max(np.abs(H(mapping(pts)) - H(pts))))


# ---------------------------------------------------------------------------
# exponents


def _stacked_mul2(A, B):
    """Stacked 2x2 product A @ B written out by components, (..., 2, 2)."""
    a00, a01, a10, a11 = entries(A)
    b00, b01, b10, b11 = entries(B)
    C = np.empty(np.broadcast_shapes(np.shape(A), np.shape(B)))
    C[..., 0, 0] = a00 * b00 + a01 * b10
    C[..., 0, 1] = a00 * b01 + a01 * b11
    C[..., 1, 0] = a10 * b00 + a11 * b10
    C[..., 1, 1] = a10 * b01 + a11 * b11
    return C


def _stacked_spectral_norm(M):
    """Exact 2-norm of an (..., 2, 2) stack from its Gram entries."""
    p, q, r, s = entries(M)
    a = p * p + r * r
    b = p * q + r * s
    c = q * q + s * s
    return np.sqrt(0.5 * (a + c) + np.sqrt(0.25 * (a - c) ** 2 + b * b))


def _stacked_log_norm(M, E):
    """log ||M|| + E ln 2 for an (m, 2, 2) stack M and integer exponents E."""
    return E * np.log(2.0) + np.log(_stacked_spectral_norm(M))


def stacked_cocycle_logs(f, pts, n, exclude=None):
    """`lyapunov._cocycle_logs` with the product M carried as a strided
    (m, 2, 2) stack: the reference that the entry-array kernel is held to,
    bit for bit, in logs and valid.  Each step scales a row by 2^-e so that
    its largest |entry| lands in [1, 2), and adds e to the row's exponent.
    Where the kernel keeps a stopped row in place, frozen, this reference
    takes the row's log-norm when it stops and drops it from the batch."""
    valid = np.ones(pts.shape[0], dtype=bool)
    if exclude is not None:
        valid &= ~np.asarray(exclude(pts))
    logs = np.zeros(pts.shape[0])
    rows = np.nonzero(valid)[0]
    x, E = pts[rows], np.zeros(rows.size, dtype=np.int64)
    M = np.broadcast_to(np.eye(2), (rows.size, 2, 2))
    for k in range(n):
        if rows.size == 0:
            break
        x, J = f.value_and_jacobian(x)
        P = J if k == 0 else _stacked_mul2(J, M)
        big = np.max(np.abs(P), axis=(-2, -1))
        ok = np.isfinite(big) & (big > 0.0)
        _, e = np.frexp(big)
        e -= 1
        if not ok.all():
            P = np.where(ok[:, None, None], P, M)
            e[~ok] = 0
        E += e
        M = np.ldexp(P, -e[:, None, None])
        ok &= np.isfinite(x[:, 0]) & np.isfinite(x[:, 1])
        if exclude is not None:
            ok &= ~np.asarray(exclude(x))
        if not ok.all():
            valid[rows[~ok]] = False
            logs[rows[~ok]] = _stacked_log_norm(M[~ok], E[~ok])
            rows, x, M, E = rows[ok], x[ok], M[ok], E[ok]
    logs[rows] = _stacked_log_norm(M, E)
    return logs, valid


def exponent_symmetry_defect(f, p, n=100):
    """|lambda_n(f, p) - lambda_n(f^{-1}, f^n p)|.

    For det-1 cocycles ||(Df^n)^{-1}|| = ||Df^n||, so the two exponents at
    matched points coincide up to rounding.
    """
    fwd = max_lyapunov(f, p, n)
    x = np.asarray(p, dtype=float)
    for _ in range(n):
        x = f(x)
    bwd = max_lyapunov(inverse_descriptor(f), x, n)
    return abs(fwd.estimate - bwd.estimate)


def conjugacy_exponent_bound(island, p, n=100):
    """Exponent invariance under the surgery conjugacy, with measured bound.

    Returns dict with the island-map exponent at p, the automorphism
    exponent sigma, their difference, and the bound (log C)/n where
    C = ||DPsi(f^n p)|| ||DPsi(p)^{-1}|| (and the transposed pairing),
    measured along the orbit endpoints.
    """
    Psi = island.surgery_descriptor()
    sample = max_lyapunov(island.descriptor(), p, n)
    x = np.asarray(p, dtype=float)
    for _ in range(n):
        x = island(x)
    norms = []
    for q in (np.asarray(p, dtype=float), x):
        J = Psi.jacobian(q)
        norms.append((float(spectral_norm(entries(J))),
                      float(spectral_norm(inv2(entries(J))))))
    # ||A^n|| <= ||DPsi(end)|| ||DFhat^n|| ||DPsi(start)^{-1}|| and the
    # reverse factorization give the two one-sided constants.
    c_up = norms[1][0] * norms[0][1]
    c_dn = norms[1][1] * norms[0][0]
    bound = float(np.log(max(c_up, c_dn)) / n)
    defect = abs(sample.estimate - SIGMA)
    return dict(exponent=sample.estimate, sigma=SIGMA,
                defect=defect, bound=bound, constants=(c_up, c_dn))


# ---------------------------------------------------------------------------
# links


def chart_area_defect(chart, n=400):
    """sup |det D phi - 1| over the chart's fundamental strip."""
    J = chart.jacobian(chart._strip_frame(n))
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    return float(np.max(np.abs(det - 1.0)))


def chart_conjugacy_defect(chart, model, n=400):
    """sup |phi(F p) - Fstar(phi p)| over the fundamental strip, F and Fstar
    the model's."""
    frame = chart._strip_frame(n)
    lhs = chart(model.F(frame))
    rhs = model.fstar(chart(frame))
    return float(np.max(np.abs(lhs - rhs)))


def chart_identity_defect(chart):
    """sup |phi(p) - p| over the fundamental strip."""
    frame = chart._strip_frame(400)
    return float(np.max(np.abs(chart(frame) - frame)))


class PsiChart:
    """Chart for the sheared map S_psi o F, assembled from the chart of the
    model's F.

    On the fundamental side of the strip it is phi o S_{-psi}; on the image
    side it is phi o F^2 o (S_psi o F)^-2, which glues continuously because
    psi vanishes at the strip edges.  Conjugates S_psi o F to the base
    translation on the strip.
    """

    def __init__(self, chart, model, psi):
        self.chart = chart
        self.F, self.fstar = model.F, model.fstar
        self.psi = psi
        self.side = chart.side
        self.name = f"phi_psi^{self.side}"
        self._sneg = shear_map(lambda x: -psi(x), lambda x: -psi.d1(x), name="S_-psi")
        self.fbar = compose(shear_map(psi, psi.d1, name="S_psi"), model.F,
                            name="Fbar")
        self._fbar_inv = inverse_descriptor(self.fbar)
        g = chart.geometry
        self._seam = g.x_a - g.tau if self.side == "a" else g.x_b + g.tau

    def _branch1(self, p):
        return self.chart(self._sneg(p))

    def _branch2(self, p):
        q = self._fbar_inv(self._fbar_inv(p))
        return self.chart(self.F(self.F(q)))

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
        rhs = self.fstar(self(frame))
        return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# rescaling


def transition_tails(T1, p):
    """The nonlinear remainders (phi1, phi2) of the transition map T1
    relative to its affine part xbar = x+ + b (y - y-), ybar = c x."""
    p = np.asarray(p, dtype=float)
    out = T1(p)
    aff_x = T1.x_plus + T1.b * (p[..., 1] - T1.y_minus)
    aff_y = T1.c * p[..., 0]
    return out[..., 0] - aff_x, out[..., 1] - aff_y


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
    if not resid <= PASSAGE_RESID_TOL:
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


def bump_region(model, i, p):
    """Region of points p in box i of the model: 2 inside the inner box, 1
    in the collar, 0 outside.  The per-box reference for `box_region`."""
    p = np.asarray(p, dtype=float)
    ax = np.abs(p[..., 0] - model.x_plus[i])
    ay = np.abs(p[..., 1])
    inner = (ax <= model.box_inner[0]) & (ay <= model.box_inner[1])
    outer = (ax < model.box_half[0]) & (ay < model.box_half[1])
    return np.where(inner, 2, np.where(outer, 1, 0))


def box_region_by_bump(model, p):
    """`model.box_region` as one pass per box: each box whose region holds a
    point overwrites the point's (region, box), so of two boxes the later
    index wins."""
    reg = np.zeros(np.shape(p)[:-1], dtype=int)
    box = np.full(np.shape(p)[:-1], -1, dtype=int)
    for i in range(model.N):
        r = bump_region(model, i, p)
        reg = np.where(r > 0, r, reg)
        box = np.where(r > 0, i, box)
    return reg, box


def psihat_polynomial(charts, i, psi):
    """psihat of leg i by `Polynomial` arithmetic: the reference for
    `RescalingCharts.psihat`'s coefficient array."""
    m = charts.model
    j = (i + 1) % m.N
    scale = m.b[j] * m.R[i] * charts.muk
    s = Polynomial([-m.x_plus[j], 1.0])  # xbar - x+_{j}
    out = Polynomial([-charts.lamk * charts.c_offset(i) * m.R[j]])
    out = out - (charts.lamk * charts.a_cross(i) * m.R[j] / (m.b[j] * m.R[i])) * s
    if psi is not None:
        out = out + (charts.lamk * charts.muk * m.R[j]) * psi(s / scale)
    return out


def perturbation_polynomials(charts, psi_list):
    """(psihat, psihat', Psi) of each box by `Polynomial` arithmetic, with
    Psi the antiderivative of psihat that vanishes at the box center: the
    reference for the coefficient tables `build_perturbation` builds."""
    m = charts.model
    out = [None] * m.N
    for leg in range(m.N):
        i = (leg + 1) % m.N
        ph = psihat_polynomial(charts, leg, psi_list[leg])
        P = ph.integ()
        out[i] = (ph, ph.deriv(), P - P(m.x_plus[i]))
    return out
