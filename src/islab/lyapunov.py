"""Finite-time Lyapunov exponents, grid entropy estimates, cone certificates.

The maximal exponent of a map f at p over horizon n is (1/n) log ||Df^n(p)||.
The derivative product is renormalized each step by an exact power of two,
whose exponent is summed as an integer, and its log-norm is taken once per
orbit from the exact 2x2 spectral norm.  So the log-norm is free of
overflow, of power-iteration alignment error and of any rounding but the
product's own and one norm's and log's: for a constant symmetric cocycle
the estimate is exact to rounding at any horizon (the automorphism's reads
within 2 ulp of sigma from n = 50 to 10000).  One batched kernel,
`_cocycle_logs`, carries this product for every caller.  It carries every
admitted row in place to the horizon: a row that stops freezes there, so
no row leaves its batch.

Entropy is the midpoint-rule integral of the clamped-positive exponent field
over a grid of the unit square: the mean of max(lambda_n, 0) over cells.
Cells whose orbit leaves the allowed region are marked invalid and contribute
zero.  A torsion-symmetric map (`MapDescriptor.torsion_symmetric`) commutes
with p -> -p and the half-lattice translations, which permute the cell
midpoints, so the grid integrates one cell per orbit of that group and
gives its exponent to the whole orbit.  The cone certificate checks, step
by step, that the derivative maps the closed positive quadrant into itself
and expands the two edge generators by at least 4, which by convexity
certifies ||Df^n v|| >= 4^n ||v|| on the whole cone.
"""

from dataclasses import dataclass

import numpy as np

from .maps import inv2, mul2

LN2 = float(np.log(2.0))
LN4 = float(np.log(4.0))


def spectral_norm(m):
    """Exact 2-norm of 2x2 matrices given by their entries m = (p, q, r, s)
    = (m00, m01, m10, m11), each a scalar or an array.

    The Gram matrix M^T M = [[a, b], [b, c]] is formed from the entries, so
    each row's norm depends on that row alone; its top eigenvalue is
    (a + c)/2 + sqrt((a - c)^2/4 + b^2), a sum of non-negative terms.
    """
    p, q, r, s = m
    a = p * p + r * r
    b = p * q + r * s
    c = q * q + s * s
    return np.sqrt(0.5 * (a + c) + np.sqrt(0.25 * (a - c) ** 2 + b * b))


def _cocycle_logs(f, pts, n, exclude=None):
    """Renormalized derivative product along the orbits of pts, shape (m, 2).

    Returns (logs, valid): logs[i] is log ||Df^k(pts[i])|| up to rounding,
    where k = n for valid rows.  A row turns invalid, and stops
    accumulating, at the first step whose product or image is not finite
    (or whose product is 0), or whose image satisfies the vectorized
    predicate `exclude`; the start point is tested against `exclude` too.
    A row that stops at an image keeps the log-norm of the steps up to and
    including that one, a row that stops at its product the log-norm of the
    steps before it.

    The product is renormalized by an exact power of two: each step scales
    a row of M by 2^-e, e from `np.frexp` of the row's largest |entry|, so
    that entry lands in [1, 2), and adds e to the row's integer exponent E.
    `np.ldexp` rounds nothing (short of the subnormal range), so M 2^E is
    the product of the Jacobians as rounded by `mul2` alone, and each row's
    one spectral norm and log are taken after the loop.

    The rows whose start `exclude` rejects are dropped once, before the
    first step; every admitted row then stays in place to the horizon.  A
    row that stops leaves the `live` mask and takes the failed-product path
    from then on (its step is its old M with e = 0), so its product and E
    freeze, and its point freezes at its last live image: at the horizon x
    holds every valid row's f^n(p).  So f may carry one parameter per row
    of pts, whichever rows stop mid-orbit, but not when `exclude` rejects a
    start, which shortens the batch.  Each step's Jacobian comes as its
    four entries from f.ev, and M is carried as four contiguous (m,)
    arrays (the first Jacobian broadcast to the rows, as a constant one is
    scalars), so `mul2` and the scaling run on contiguous entry arrays.
    Every step is row-wise, so a row's logs do not depend on which other
    rows share its batch.
    """
    valid = np.ones(pts.shape[0], dtype=bool)
    if exclude is not None:
        valid &= ~np.asarray(exclude(pts))
    rows = np.nonzero(valid)[0]
    x, E = pts[rows], np.zeros(rows.size, dtype=np.int64)
    live = np.ones(rows.size, dtype=bool)
    M = (1.0, 0.0, 0.0, 1.0)                # the product of no steps
    for k in range(n):
        if not live.any():
            break
        y, J = f.ev(x, True)
        P = [np.broadcast_to(e, E.shape) for e in J] if k == 0 else mul2(J, M)
        big = np.abs(P[0])
        for i in (1, 2, 3):
            np.maximum(big, np.abs(P[i]), out=big)
        ok = live & np.isfinite(big) & (big > 0.0)
        e = np.frexp(big)[1]
        e -= 1                              # big 2^-e lies in [1, 2)
        if not ok.all():                    # a stopped row keeps the steps before it
            P = [np.where(ok, p, m) for p, m in zip(P, M)]
            e[~ok] = 0
        E += e
        # the old M and then P are spent: neither stays alive through the
        # scaling or the next f.ev
        del M
        M = [np.ldexp(p, -e) for p in P]
        del P
        ok &= np.isfinite(y[:, 0]) & np.isfinite(y[:, 1])   # no length-2 reduction
        if exclude is not None:
            ok &= ~np.asarray(exclude(y))
        x = y if ok.all() else np.where(ok[:, None], y, x)
        live = ok
    valid[rows] = live
    logs = np.zeros(pts.shape[0])
    logs[rows] = E * LN2 + np.log(spectral_norm(M))
    return logs, valid


@dataclass
class ExponentSample:
    n: int
    log_norm: float | np.ndarray   # log ||Df^n||, per row for a batch
    estimate: float | np.ndarray   # lambda_n = log_norm / n


def max_lyapunov(f, p, n=200):
    """Finite-horizon maximal Lyapunov exponent (1/n) log ||Df^n|| of f.

    p is one point, shape (2,), or a batch, shape (m, 2); a batch gives
    per-row `log_norm` and `estimate` arrays.  Raises RuntimeError when the
    cocycle of any row degenerates (a non-finite or zero norm, or a
    non-finite image).  No row leaves the batch, so f may carry one
    parameter per row.
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
    return ExponentSample(n=n, log_norm=logs, estimate=logs / n)


# ----------------------------------------------------------------------
# grid entropy
# ----------------------------------------------------------------------

@dataclass
class EntropyReport:
    resolution: int            # r: the grid has r x r cells
    n: int
    field: np.ndarray          # per-cell exponent (NaN where invalid)
    valid: np.ndarray          # per-cell validity mask
    estimate: float            # mean of clamped field over all cells
    fraction_above: float      # fraction of admitted cells with lambda_n >= ln 4
    invalid_cells: int = 0


def _cell_centers(r):
    """Midpoints of the r x r cells of the unit square, shape (r^2, 2)."""
    xs = (np.arange(r) + 0.5) / r
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=-1)


def _grid_orbits(r, symmetric):
    """The orbits of the r x r cells under the map symmetries, as (reps,
    owner): reps holds each orbit's smallest flat cell index i r + j
    (x = (i + 1/2)/r, y = (j + 1/2)/r), ascending, and owner[c] indexes
    cell c's orbit in reps.

    With `symmetric` the group is p -> -p, which sends i to r - 1 - i, and
    when r is even the half-lattice translations, which send i to i + r/2
    mod r, in each coordinate: 8 elements, of which only negation's 2 act
    at an odd r.  Otherwise it is the trivial group and every cell is its
    own orbit."""
    idx = np.arange(r)
    signs = (idx, r - 1 - idx) if symmetric else (idx,)
    shifts = (0, r // 2) if symmetric and r % 2 == 0 else (0,)
    orbit_min = np.min([((s + a) % r)[:, None] * r + (s + b) % r
                        for s in signs for a in shifts for b in shifts], axis=0).ravel()
    reps = np.flatnonzero(orbit_min == np.arange(r * r))
    slot = np.empty(r * r, dtype=np.intp)
    slot[reps] = np.arange(len(reps))
    return reps, slot[orbit_min]


def entropy_estimate(f, resolution=100, n=200, exclude=None):
    """Midpoint-rule entropy integral of the clamped exponent field over the
    unit square, on a resolution x resolution grid, with the fraction of
    admitted cells whose exponent clears ln 4.

    exclude: optional vectorized predicate; cells whose orbit (including the
    start) ever satisfies it are marked invalid and contribute zero.  The
    admitted cells are those whose start it does not reject, every cell
    without it; a valid cell is always admitted.

    When f is torsion-symmetric the cocycle runs on one cell per orbit of
    its symmetry group (`_grid_orbits`), and each orbit's logs and validity
    are scattered back to all its cells, so the field is exactly invariant
    under the group.  exclude must then be invariant under the same group,
    as the complement of an island mask around the 2-torsion points is.
    Any other map takes the same path with the trivial group, every cell
    its own representative.
    """
    r = int(resolution)
    if r < 8:
        raise ValueError("resolution must be >= 8")
    reps, owner = _grid_orbits(r, f.torsion_symmetric)
    m = r * r

    starts = _cell_centers(r)[reps]
    admitted = m if exclude is None else np.count_nonzero(~np.asarray(exclude(starts))[owner])
    logs, valid = _cocycle_logs(f, starts, n, exclude)
    logs, valid = logs[owner], valid[owner]
    lam = logs / n
    field_2d = np.where(valid, lam, np.nan).reshape(r, r)
    clamped = np.where(valid, np.maximum(lam, 0.0), 0.0)
    estimate = float(np.sum(clamped) / m)
    fraction = float(np.count_nonzero(valid & (lam >= LN4)) / admitted)
    return EntropyReport(
        resolution=r, n=n, field=field_2d, valid=valid.reshape(r, r),
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
        fx, M = f.value_and_jacobian(x)
        if conjugator is not None:
            Kinv = np.reshape(inv2(conjugator.jacobian(x).ravel()), (2, 2))
            M = conjugator.jacobian(fx) @ M @ Kinv
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


def lambda_field_rows(report):
    """Flatten an EntropyReport into (x, y, lambda, valid) rows for CSV."""
    lam = np.where(report.valid, report.field, 0.0)
    return np.column_stack([_cell_centers(report.resolution), lam.ravel(),
                            report.valid.ravel().astype(float)])
