"""Finite-time Lyapunov exponents, grid entropy estimates, cone certificates.

The maximal exponent of a map f at p over horizon n is (1/n) log ||Df^n(p)||.
The derivative product is accumulated with per-step renormalization and the
exact 2x2 spectral norm, so the telescoped log-norm is free of overflow and
of power-iteration alignment error (for a constant symmetric cocycle the
estimate is exact to rounding at any horizon).  One batched kernel,
`_cocycle_logs`, carries this product for every caller.

Entropy is the midpoint-rule integral of the clamped-positive exponent field
over a grid of the unit square: the mean of max(lambda_n, 0) over cells.
Cells whose orbit leaves the allowed region are marked invalid and contribute
zero.  The cone certificate checks, step by step, that the derivative maps
the closed positive quadrant into itself and expands the two edge generators
by at least 4, which by convexity certifies ||Df^n v|| >= 4^n ||v|| on the
whole cone.
"""

from dataclasses import dataclass

import numpy as np

from .maps import inv2, inverse_descriptor

LN4 = float(np.log(4.0))


def spectral_norm(M):
    """Exact 2-norm of 2x2 matrices, batch-aware (shape (..., 2, 2))."""
    G = np.swapaxes(M, -1, -2) @ M
    a, b, c = G[..., 0, 0], G[..., 0, 1], G[..., 1, 1]
    half = 0.5 * (a + c)
    disc = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b * b, 0.0))
    return np.sqrt(np.maximum(half + disc, 0.0))


def _cocycle_logs(f, pts, n, exclude=None):
    """Renormalized derivative product along the orbits of pts, shape (m, 2).

    Returns (logs, valid): logs[i] telescopes to log ||Df^k(pts[i])|| up to
    rounding, where k = n for valid rows.  A row turns invalid, and stops
    accumulating, at the first step whose product norm or image is not
    finite (or whose norm is 0), or whose image satisfies the vectorized
    predicate `exclude`; the start point is tested against `exclude` too.
    """
    m = pts.shape[0]
    valid = np.ones(m, dtype=bool)
    if exclude is not None:
        valid &= ~np.asarray(exclude(pts))
    logs = np.zeros(m)
    M = np.broadcast_to(np.eye(2), (m, 2, 2)).copy()
    x = pts.copy()
    for _ in range(n):
        idx = np.nonzero(valid)[0]
        if idx.size == 0:
            break
        # one name for Df and Df M keeps a single (m, 2, 2) temporary alive
        xi, Mi = f.value_and_jacobian(x[idx])
        Mi = Mi @ M[idx]
        s = spectral_norm(Mi)
        ok = np.isfinite(s) & (s > 0.0)
        s_safe = np.where(ok, s, 1.0)
        logs[idx] += np.where(ok, np.log(s_safe), 0.0)
        M[idx] = Mi / s_safe[..., None, None]
        ok &= np.all(np.isfinite(xi), axis=-1)
        if exclude is not None:
            ok &= ~np.asarray(exclude(xi))
        x[idx] = np.where(np.isfinite(xi), xi, x[idx])
        valid[idx] = ok
    return logs, valid


@dataclass
class ExponentSample:
    point: np.ndarray
    n: int
    log_norm: float | np.ndarray   # log ||Df^n||, per row for a batch
    estimate: float | np.ndarray   # lambda_n = log_norm / n


def max_lyapunov(f, p, n=200):
    """Finite-horizon maximal Lyapunov exponent (1/n) log ||Df^n|| of f.

    p is one point, shape (2,), or a batch, shape (m, 2); a batch gives
    per-row `log_norm` and `estimate` arrays.  Raises RuntimeError when the
    cocycle of any row degenerates (a non-finite or zero norm, or a
    non-finite image).
    """
    if n < 1:
        raise ValueError("horizon must be >= 1")
    p = np.asarray(p, dtype=float)
    logs, valid = _cocycle_logs(f, np.atleast_2d(p), n)
    if not valid.all():
        raise RuntimeError(f"cocycle degenerate at {np.count_nonzero(~valid)} "
                           f"of {valid.size} points")
    if p.ndim == 1:
        logs = float(logs[0])
    return ExponentSample(point=p, n=n, log_norm=logs, estimate=logs / n)


# ----------------------------------------------------------------------
# grid entropy
# ----------------------------------------------------------------------

@dataclass
class EntropyReport:
    resolution: tuple
    n: int
    field: np.ndarray          # per-cell exponent (NaN where invalid)
    valid: np.ndarray          # per-cell validity mask
    estimate: float            # mean of clamped field over all cells
    fraction_above: float      # fraction of cells with lambda_n >= ln 4
    invalid_cells: int = 0


def _cell_centers(rx, ry):
    """Midpoints of the rx x ry cells of the unit square, shape (rx ry, 2)."""
    xs = (np.arange(rx) + 0.5) / rx
    ys = (np.arange(ry) + 0.5) / ry
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=-1)


def entropy_estimate(f, resolution=100, n=200, exclude=None):
    """Midpoint-rule entropy integral of the clamped exponent field over the
    unit square, with the fraction of cells whose exponent clears ln 4.

    exclude: optional vectorized predicate; cells whose orbit (including the
    start) ever satisfies it are marked invalid and contribute zero.
    """
    if np.isscalar(resolution):
        resolution = (int(resolution), int(resolution))
    rx, ry = resolution
    if rx < 8 or ry < 8:
        raise ValueError("resolution must be >= 8 per axis")
    pts = _cell_centers(rx, ry)
    m = pts.shape[0]

    logs, valid = _cocycle_logs(f, pts, n, exclude)
    lam = logs / n
    field_2d = np.where(valid, lam, np.nan).reshape(rx, ry)
    clamped = np.where(valid, np.maximum(lam, 0.0), 0.0)
    estimate = float(np.sum(clamped) / m)
    fraction = float(np.count_nonzero(valid & (lam >= LN4)) / m)
    return EntropyReport(
        resolution=(rx, ry), n=n, field=field_2d, valid=valid.reshape(rx, ry),
        estimate=estimate, fraction_above=fraction,
        invalid_cells=int(m - valid.sum()))


# ----------------------------------------------------------------------
# positive-cone expansion certificate
# ----------------------------------------------------------------------

@dataclass
class ConeCertificate:
    passed: bool
    n: int
    min_ratio: float
    first_failure: int | None
    ratios: np.ndarray         # per-step min edge-generator growth


def _conjugated_step(f, conjugator, x, fx):
    J = f.jacobian(x)
    if conjugator is None:
        return J
    return conjugator.jacobian(fx) @ J @ inv2(conjugator.jacobian(x))


def cone_certificate(f, p, n, conjugator=None):
    """Check that each step maps the closed positive quadrant into itself
    and expands both edge generators by at least 4 in norm.

    When `conjugator` is given, the checked chain is
    D(conjugator)(f x) . Df(x) . D(conjugator)(x)^{-1}.
    Sufficiency on the generators: images of e1, e2 in the closed quadrant
    have nonnegative inner product, so ||M(a e1 + b e2)|| >= 4 ||(a, b)||.
    """
    x = np.asarray(p, dtype=float)
    ratios = np.empty(n)
    first_failure = None
    for k in range(n):
        fx = f(x)
        M = _conjugated_step(f, conjugator, x, fx)
        cols_ok = np.all(M >= 0.0)
        growth = min(float(np.hypot(M[0, 0], M[1, 0])),
                     float(np.hypot(M[0, 1], M[1, 1])))
        ratios[k] = growth if cols_ok else 0.0
        if first_failure is None and not (cols_ok and growth >= 4.0):
            first_failure = k
        x = fx
    passed = first_failure is None
    return ConeCertificate(passed=passed, n=n,
                           min_ratio=float(ratios.min()),
                           first_failure=first_failure, ratios=ratios)


# ----------------------------------------------------------------------
# symmetry / conjugacy diagnostics
# ----------------------------------------------------------------------

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
        norms.append((float(spectral_norm(J)),
                      float(spectral_norm(inv2(J)))))
    # ||A^n|| <= ||DPsi(end)|| ||DFhat^n|| ||DPsi(start)^{-1}|| and the
    # reverse factorization give the two one-sided constants.
    c_up = norms[1][0] * norms[0][1]
    c_dn = norms[1][1] * norms[0][0]
    bound = float(np.log(max(c_up, c_dn)) / n)
    defect = abs(sample.estimate - island.sigma)
    return dict(exponent=sample.estimate, sigma=island.sigma,
                defect=defect, bound=bound, constants=(c_up, c_dn))


def lambda_field_rows(report):
    """Flatten an EntropyReport into (x, y, lambda, valid) rows for CSV."""
    lam = np.where(report.valid, report.field, 0.0)
    return np.column_stack([_cell_centers(*report.resolution), lam.ravel(),
                            report.valid.ravel().astype(float)])
