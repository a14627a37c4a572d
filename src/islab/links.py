"""The two-strip linking model: piecewise-affine base map, time-energy
charts, splitting functions, and the two solvers that close the separatrix
gaps: a plain contraction on side a, and on side b an inexact Newton step
preconditioned by the Neumann series of the averaging operator that the
b-restoration reduces to at the base map.

The base map acts on two horizontal strips.  On the upper level it
translates left on the a-strip and right on the b-strip; at the right end
of the b-strip a folding piece sends the curve down to the lower level
(halving x, doubling y, reversing both), where it crawls left by tau/2
per step.  All pieces are affine with determinant one.

Manifold data is curve-based: the model carries straight seed segments
at the strip edges, and the stable/unstable curves across the strips are
grown from them by graph transforms following the known piece itinerary
(this sidesteps the inverse-branch ambiguity where the fold image and the
crawl image share the lower level).  The unstable seed is pushed through
the itinerary's first piece, the stable seed pulled back through its last.
"""

import numpy as np

from . import curves
from .curves import (
    DENSITY,
    GraphCurve,
    MaskedPeriodic,
    PartitionBump,
    PeriodicFn,
    StepFn,
    graph_transform,
    straight_curve,
)
from .maps import MapDescriptor, affine_map, compose, inverse_descriptor, jac_stack, mul2

# side b's link entry: largest a-link gap it accepts as intact
LINK_A_TOL = 1e-8
# restoration solvers: residual tolerance and iteration cap; side b also
# aborts when the splitting mean exceeds RESTORE_MEAN_TOL (a broken a-link)
RESTORE_TOL = 1e-10
RESTORE_MAX_ITER = 50
RESTORE_MEAN_TOL = 1e-6
# side b's step subtracts sum_{j<=J} T^j m for the splitting m, J =
# NEUMANN_TERMS, T the averaging operator of restoration_b_reference.  Side-b
# iterations per row of 5 band-hook heights drawn at seed 701, and
# restore_link_b's CPU time on them at size 1e-3 (2 vCPUs, median of 15
# calls, two processes):
#   J             0        1        2        3
#   size 1e-3     8        5        4        4
#   size 5e-3     8-9      5-6      5        5
#   size 1e-2     9        6        5        5
#   CPU (s)     0.048    0.033    0.028    0.030
# Over seeds 1-100 at size 1e-3, J = 2 takes 5 iterations on 2 of 500 rows
# and J = 3 on none; J = 3 costs one more T per iteration everywhere else
NEUMANN_TERMS = 2


def _refuse(bad, message):
    """Raise ValueError(message(k)) for the first row k flagged in `bad`;
    return when no row is."""
    bad = np.atleast_1d(bad)
    if bad.any():
        raise ValueError(message(int(np.argmax(bad))))


# ---------------------------------------------------------------------------
# geometry and pieces


class LinkGeometry:
    """Constants of the two-strip model.

    tau: translation length; x_a, x_b: strip anchors; y1: upper level
    (both strips); y2: lower level of the fold; delta: support margin for
    shears and seeds; theta: offset of the folding piece, fold(x, y) =
    theta - (x/2, 2y).  They satisfy x_b - x_a > 3 tau + 6 delta (the
    transition margins), y2 < y1 and 0 < delta < tau/4.
    """

    tau = 1.0
    x_a = -3.0
    x_b = 2.0
    y1 = 1.0
    y2 = -1.0
    delta = 0.1
    theta = ((3 * x_b + 7 * tau) / 2, 2 * y1 + y2)


# ---------------------------------------------------------------------------
# the model


class SuitableModel:
    """Two-strip model with an optional symplectic perturbation hook G,
    composed as F = G o Fstar (F = Fstar when there is no hook).

    A hook may be a stack of K maps, one row each: it maps one shared row of
    points, or K rows (K, n, 2) row by row, to K rows.  The model is then K
    models in lockstep (`rows` = K; 1 for a single hook or none), and its
    curves and splittings carry one row per model.
    """

    def __init__(self, hook=None):
        self.geometry = LinkGeometry()
        g = self.geometry
        tau = g.tau
        jx, jy = g.theta
        self.trans_a = affine_map("level-a translation", (1.0, 1.0), (-tau, 0.0))
        self.trans_b = affine_map("level-b translation", (1.0, 1.0), (tau, 0.0))
        self.fold = affine_map("fold", (-0.5, -2.0), (jx, jy))
        self.crawl = affine_map("lower crawl", (1.0, 1.0), (-tau / 2, 0.0))
        self.hook = hook
        self.band = abs(g.y1 - g.y2) / 2 * 0.8
        self.rows = 1
        if hook is not None:
            self._hook_inv = inverse_descriptor(hook)
            self.rows = self._validate_hook()
        self.fstar = self._assemble_fstar()
        self.F = compose(hook, self.fstar, name="F") if hook is not None else self.fstar
        self._links = {}  # side -> the psi-independent half of the link and its grids (_link)

    # -- regions ------------------------------------------------------------

    def _assemble_fstar(self):
        # the closures hold the geometry, not the model: a model whose F*
        # referred back to it would be a reference cycle, freed only by a
        # full garbage collection
        g, band = self.geometry, self.band
        tau, d = g.tau, g.delta

        def level(p):
            y = p[..., 1]
            return np.abs(y - g.y1) <= band, np.abs(y - g.y2) <= band

        def classify(p):
            x = p[..., 0]
            up, low = level(p)
            in_a = up & (x >= g.x_a - 3 * tau - 3 * d) & (x <= g.x_a + tau + 3 * d)
            in_bt = up & (x >= g.x_b - 2 * tau - 3 * d) & (x < g.x_b + 3 * tau)
            in_j = up & (x >= g.x_b + 3 * tau) & (x < g.x_b + 5 * tau)
            in_c = low & (x >= g.x_b - 3 * tau) & (x < g.x_b + 2 * tau)
            return in_a, in_bt, in_j, in_c

        pieces = (self.trans_a, self.trans_b, self.fold, self.crawl)

        def piecewise(masks, images, what):
            """Each point's image under the piece whose mask holds it (the
            masks are disjoint)."""
            if not np.all(np.logical_or.reduce(masks)):
                raise ValueError(f"point outside the model {what}")
            return np.select([m[..., None] for m in masks], images)

        def ev(p, with_jac):
            masks = classify(p)
            vals, jacs = zip(*(piece.ev(p, with_jac) for piece in pieces))
            out = piecewise(masks, vals, "region")
            if not with_jac:
                return out, None
            # every point is covered (piecewise checked), so each Jacobian
            # entry is its piece's
            return out, tuple(np.select(masks, entry) for entry in zip(*jacs))

        # read through F = G o Fstar by the construction check that inverts
        # compose(S_psi, F) (tests/construction_checks.py: PsiChart)
        def inv(q):
            q = np.asarray(q, dtype=float)
            x = q[..., 0]
            up, low = level(q)
            masks = (up & (x <= g.x_a + 3 * d),
                     up & (x >= g.x_b - 2 * tau - 3 * d + tau),
                     low & (x >= g.x_b + 3 * tau / 2),
                     low & (x < g.x_b + 3 * tau / 2))
            return piecewise(masks, [piece.inv(q) for piece in pieces], "image region")

        def domain(p):
            return np.logical_or.reduce(classify(np.asarray(p, dtype=float)))

        return MapDescriptor("Fstar", ev, inv, domain=domain)

    def _validate_hook(self):
        """The hook must be symplectic and C^1-close to the identity on the
        strips (distance <= 0.1, measured on samples), row by row; the error
        names the first bad row.  Returns the hook's row count K, read off
        its image of the sample frame given as one shared row."""
        g = self.geometry
        xs = np.linspace(g.x_a - 3 * g.tau, g.x_b + 5 * g.tau, 160)
        frame = []
        for level in (g.y1, g.y2):
            for dy in (-self.band / 2, 0.0, self.band / 2):
                frame.append(np.stack([xs, np.full_like(xs, level + dy)], axis=-1))
        frame = np.concatenate(frame)
        img, J = self.hook.ev(frame, True)
        rows = img.shape[0] if img.ndim == 3 else 1
        a, b, c, d = (np.broadcast_to(e, img.shape[:-1]).reshape(rows, -1) for e in J)
        img = img.reshape(rows, -1, 2)
        disp = np.max(np.abs(img - frame), axis=(1, 2))
        jdev = np.maximum(np.maximum(np.abs(a - 1.0), np.abs(b)),
                          np.maximum(np.abs(c), np.abs(d - 1.0)))
        _refuse(np.maximum(disp, np.max(jdev, axis=1)) > 0.1,
                lambda k: f"perturbation hook row {k} exceeds C^1 distance 0.1 from the identity")
        _refuse(np.max(np.abs(a * d - b * c - 1.0), axis=1) > 1e-9,
                lambda k: f"perturbation hook row {k} is not area-preserving")
        return rows

    # -- itineraries and steps ------------------------------------------------

    def forward_step(self, piece):
        if self.hook is None:
            return piece
        return compose(self.hook, piece, name=f"F|{piece.name}")

    def backward_step(self, piece):
        if self.hook is None:
            return inverse_descriptor(piece)
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
        # the fold halves x onto the lower level, so the b-curve that the
        # backward chain pulls up through it is sampled at twice DENSITY per
        # unit: at DENSITY the b-splitting's spline error grows about 2.6x
        x0, x1 = g.x_b - tau / 2 - d / 4, g.x_b + d / 4
        return GraphCurve(x0, x1, np.full(int(round(2 * DENSITY * (x1 - x0))) + 1, g.y2))

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


def _advance(m, q, J, cols):
    """Apply m in place to the columns cols of the row stack q (K, N, 2),
    and carry the Jacobian J, four (K, N) entry arrays, there to Dm J."""
    q[:, cols], Jm = m.ev(q[:, cols], True)
    for e, v in zip(J, mul2(Jm, [e[:, cols] for e in J])):
        e[:, cols] = v


class TimeEnergyChart:
    """Area-preserving chart straightening the model's F to the strip
    translation.

    Built as the bump blend phi0 = (1 - rho) id + rho (Fstar o F^-1) on the
    fundamental strip, and extended to the two neighbouring tau-bands by
    phi -> Fstar^j o phi0 o F^-j; a point further out raises ValueError.
    On the strip and its bands Fstar is the strip's translation piece and
    F^-1 the model's backward step through it, so the chart runs on those
    alone.  Identity when F = Fstar.  There is no y-fiber correction: the
    chart requires det D phi0 = 1 on the strip (as it is for a
    vertical-shear hook), and raises ValueError when it is not.  The chart
    of a model of K rows is K charts: it takes points (K, ..., 2), row k for
    model k.  It keeps the model's geometry, row count, piece and backward
    step, not the model, which caches its charts.
    """

    def __init__(self, side, model):
        if side not in ("a", "b"):
            raise ValueError("side must be 'a' or 'b'")
        self.side = side
        self.geometry, self.rows, self._band = model.geometry, model.rows, model.band
        self.name = f"phi^{side}"
        g = model.geometry
        tau, d = g.tau, g.delta
        lo, hi = model.fundamental_interval(side)
        self._lo, self._hi = lo, hi

        # the blend weight must be exactly 1 on [lo, lo + delta + 0.1] (resp.
        # mirrored on side b): F maps the strip's right margin back into that
        # window (shifted by up to the validated hook displacement 0.1), and
        # the exact-conjugacy matching there needs phi0 = Fstar o F^-1 with
        # no transition remainder; the transition is 0.7 wide
        width = tau - 1.5 * d - 0.15
        if side == "a":
            self._rho = lambda x, s=StepFn(0.0, width): s((g.x_a - d / 2) - x)
            self._rho_d1 = lambda x, s=StepFn(0.0, width): -s.d1((g.x_a - d / 2) - x)
            self._piece = model.trans_a
            self._ext_sign, self._edge = -1, lo
        else:
            self._rho = StepFn(g.x_b + d / 2, width)
            self._rho_d1 = self._rho.d1
            self._piece = model.trans_b
            self._ext_sign, self._edge = +1, hi

        self._bstep = model.backward_step(self._piece)
        # the blend target Fstar o F^-1 on the fundamental strip: with the
        # model's itinerary decomposition this is piece o (piece^-1 o G^-1)
        self._target = compose(self._piece, self._bstep, name="Fstar.F^-1")
        self._check_blend(model.forward_step(self._piece))

    # -- construction checks ---------------------------------------------------

    def _strip_frame(self, n):
        g = self.geometry
        xs = np.linspace(self._lo - g.delta, self._hi + g.delta, n)
        ys = g.y1 + np.linspace(-self._band / 2, self._band / 2, 7)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([X, Y], axis=-1).reshape(-1, 2)

    def _check_blend(self, fstep):
        """Both checks run row by row on the strip frame, one row shared by
        the model's K rows; the error names the first bad row.  On the strip
        Fstar is the piece and F its forward step fstep."""
        rows = self.rows
        frame = self._strip_frame(120)
        dist = np.abs(fstep(frame).reshape(rows, -1, 2) - self._piece(frame))
        _refuse(np.max(dist, axis=(1, 2)) > 0.1, lambda k: (
            f"{self.name}: row {k}: F exceeds C^1 distance 0.1 from the base map on the strip"))
        _, (a, b, c, d) = self._phi0(frame)
        det = np.broadcast_to(a * d - b * c, (rows, len(frame)))
        dev = np.max(np.abs(det - 1.0), axis=1)
        _refuse(~(dev < 1e-14), lambda k: (
            f"{self.name}: row {k}: det D phi0 departs from 1 by {dev[k]:.3e} on the "
            "strip; this hook needs a fiber correction, which islab does not build"))

    # -- evaluation --------------------------------------------------------------

    def _phi0(self, p):
        """phi0(p) and the entries of D phi0(p): (1 - rho) I + rho DB, plus
        the blend weight's slope times B - p in the first column."""
        r, dr = self._rho(p[..., 0]), self._rho_d1(p[..., 0])
        B, (b00, b01, b10, b11) = self._target.ev(p, True)
        return (1.0 - r[..., None]) * p + r[..., None] * B, (
            (1.0 - r) + r * b00 + dr * (B[..., 0] - p[..., 0]), r * b01,
            r * b10 + dr * (B[..., 1] - p[..., 1]), (1.0 - r) + r * b11)

    def _ext_count(self, x):
        """Number of extension steps for each x (0 on the base strip); a
        point more than two bands out raises ValueError."""
        t = np.floor(self._ext_sign * (x - self._edge) / self.geometry.tau) + 1.0
        if np.any(t > 2):
            raise ValueError(f"{self.name}: a point lies beyond the chart's two "
                             "extension bands")
        return np.maximum(t, 0).astype(int)

    def ev(self, p, with_jac):
        """phi(p) = Fstar^j o phi0 o F^-j (p) on the j-th extension band, and
        the entries of D phi(p) when with_jac (else None), as
        `MapDescriptor.ev` gives them.  The K rows of a stack must need the
        same extension steps at each point, as curves on one x-grid do."""
        p = np.asarray(p, dtype=float)
        rows = self.rows
        if rows > 1 and p.shape[:1] != (rows,):
            raise ValueError(f"{self.name}: points of a {rows}-row model need "
                             f"a leading axis of {rows} rows")
        q = p.reshape(rows, -1, 2).copy()
        j = self._ext_count(q[..., 0])
        if np.any(j != j[0]):
            raise ValueError(f"{self.name}: the rows of the stack need different "
                             "extension steps")
        bands = [j[0] >= k for k in range(1, j.max(initial=0) + 1)]
        J = [np.full(q.shape[:-1], e) for e in (1.0, 0.0, 0.0, 1.0)]
        for cols in bands:
            _advance(self._bstep, q, J, cols)
        q, Jb = self._phi0(q)
        J = mul2(Jb, J)
        for cols in bands:
            _advance(self._piece, q, J, cols)
        return q.reshape(p.shape), (tuple(e.reshape(p.shape[:-1]) for e in J)
                                    if with_jac else None)

    def __call__(self, p):
        return self.ev(p, False)[0]

    def jacobian(self, p):
        return self.value_and_jacobian(p)[1]

    def value_and_jacobian(self, p):
        q, J = self.ev(p, True)
        return q, jac_stack(J, q.shape[:-1])


# ---------------------------------------------------------------------------
# splitting functions


def _check_support(psi, band, what):
    if psi is None:
        return
    lo, hi = getattr(psi, "support", (None, None))
    slack = 1e-9 * (1.0 + abs(band[0]) + abs(band[1]))
    if lo is None or not (band[0] - slack <= lo and hi <= band[1] + slack):
        raise ValueError(f"{what}: shear function must be supported inside "
                         f"[{band[0]}, {band[1]}]")


def _link(model, side):
    """The psi-independent half of a link side, built once per model: (chart,
    w_u, the stable seed pulled back through the itinerary's last piece, the
    grids of the backward chain's steps).  The grids come from one walk of
    the chain without a shear, the seed's grid first.  Side b's build first
    checks the a-link and raises ValueError, storing nothing, if broken."""
    if side not in model._links:
        if side == "b":
            gap = np.atleast_1d(splitting_a(None, model).sup())
            _refuse(gap > LINK_A_TOL, lambda k: f"splitting_b: row {k}: the a-link is "
                    f"broken (sup gap {gap[k]:.3e})")
        chart = TimeEnergyChart(side, model)
        fwd = model.forward_itinerary(side)
        c = graph_transform(model.forward_step(fwd[0]), model.seed_unstable(side))
        w_u = graph_transform(chart, c)
        seed = c = graph_transform(model.backward_step(fwd[-1]), model.seed_stable(side))
        grids = [c.grid]
        for piece in fwd[::-1]:
            c = graph_transform(model.backward_step(piece), c)
            grids.append(c.grid)
        model._links[side] = (chart, w_u, seed, grids)
    return model._links[side]


def unstable_curve(model, side):
    """The unstable graph curve over the fundamental interval.  It does not
    depend on the shear: S_psi and the chart prefix S_{-psi} cancel."""
    return _link(model, side)[1]


def _at_each(f, args):
    """[f(a) for a in args], bitwise, from one evaluation of f on the float
    arrays args joined; f must give each point the value it gives it in any
    batch, as PeriodicFn and MaskedPeriodic do.  A stacked f gives each
    value its leading (K,) axis."""
    vals = f(np.concatenate([a.ravel() for a in args]))
    out, start = [], 0
    for a in args:
        out.append(vals[..., start:start + a.size].reshape(vals.shape[:-1] + a.shape))
        start += a.size
    return out


def stable_curve(model, side, psi=None):
    """The stable graph curve over the fundamental interval: the model's
    pulled-back seed, then the backward chain with S_{-psi} around each step.
    S_{-psi} keeps x, so it shears the samples alone, w -> w - psi(x), bitwise
    as its graph transform would; a stacked psi gives a stack of curves.

    S_{-psi} keeps x, and where the backward steps' x-rule ignores y (the
    base map's pieces do, and so do vertical-shear hooks) the chain's grids
    do not depend on psi: they are the link's grids (_link).  So every call
    evaluates psi once on all of them (_at_each: psi must not round a point
    by its batch).  A step whose grid is not the link's, under a hook whose
    x-rule reads y, evaluates psi on its own grid."""
    chart, _, c, grids = _link(model, side)
    shears = _at_each(psi, grids) if psi is not None else None
    for k, piece in enumerate([None] + model.forward_itinerary(side)[::-1]):
        if piece is not None:
            c = graph_transform(model.backward_step(piece), c)
        if psi is not None:
            # a curve's grid is linspace(x0, x1, n), its ends exact
            kept = (grids[k][0], grids[k][-1], grids[k].size) == (c.x0, c.x1, c.n)
            c = GraphCurve(c.x0, c.x1, c.samples - (shears[k] if kept else psi(c.grid)))
    return graph_transform(chart, c)


def _splitting(side, psi, model):
    """w_u - w_s for S_psi o F, sampled over the fundamental interval (one
    row per row of a stacked psi), and w_s."""
    w_u = unstable_curve(model, side)
    w_s = stable_curve(model, side, psi=psi)
    lo, _ = model.fundamental_interval(side)
    return PeriodicFn.from_function(lambda x: w_u(x) - w_s(x), model.geometry.tau,
                                    origin=lo), w_s


def splitting_a(psi, model):
    """Splitting function of the a-link for S_psi o F, over [x_a - tau, x_a]."""
    _check_support(psi, model.shear_band("a"), "splitting_a")
    return _splitting("a", psi, model)[0]


def splitting_b(psi, model):
    """Splitting function of the b-link for S_psi o F, over [x_b, x_b + tau];
    the a-link must be intact (checked once per model, by _link)."""
    _check_support(psi, model.shear_band("b"), "splitting_b")
    return _splitting("b", psi, model)[0]


def splitting_a_reference(psi, model):
    """Closed form of the a-splitting at the base map: psi(x) + psi(x - tau),
    from one evaluation of psi (_at_each)."""
    tau = model.geometry.tau

    def ref(x):
        x = np.asarray(x, dtype=float)
        at, back = _at_each(psi, (x, x - tau))
        return at + back

    return ref


def splitting_b_reference(psi, model):
    """Closed form of the b-splitting at the base map, from one evaluation
    of psi (_at_each)."""
    g = model.geometry
    tau, xb = g.tau, g.x_b

    def ref(x):
        x = np.asarray(x, dtype=float)
        at, ahead, *folded = _at_each(psi, [x, x + tau] + [(3 * xb + j * tau - x) / 2
                                                           for j in (1, 2, 3, 4)])
        out = at + ahead
        for v in folded:
            out = out - 0.5 * v
        return out

    return ref


def restoration_b_reference(model):
    """The two-term averaging operator that id - M^b_rho reduces to at the
    base map (acting on tau-periodic zero-mean functions); each average
    evaluates its function once (_at_each)."""
    g = model.geometry
    tau, xb = g.tau, g.x_b

    def op(psit):
        def avg(x):
            x = np.asarray(x, dtype=float)
            one, two = _at_each(psit, ((3 * xb + tau - x) / 2, (3 * xb + 2 * tau - x) / 2))
            return 0.5 * (one + two)
        return PeriodicFn.from_function(avg, tau, n=psit.n, origin=psit.origin)

    return op


# ---------------------------------------------------------------------------
# restoration solvers


def _restore(model, side):
    """The restoration loop of one link side, for the model's K rows in
    lockstep.  Side a steps psit -> psit - M(rho psit), with residuals in
    the sup norm.  Side b measures them in the derivative-only norm and
    steps psit -> psit - sum_{j<=NEUMANN_TERMS} T^j M(rho psit), T the
    averaging operator of restoration_b_reference: at the base map
    id - M^b_rho reduces to T, so the sum approximates the inverse of the
    restoration's linearization, and a step contracts at about
    |T|^(NEUMANN_TERMS + 1) plus a term of the order of the perturbation,
    where the plain step contracts at |T|.  Each term T^j M, j >= 1, and
    every iterate are made zero-mean.  A row stops once its residual is within
    RESTORE_TOL: its psit is kept, so every later pass rebuilds its
    splitting and stable curve with the same bits, and its trace ends.
    Returns (psi, traces, the stable curves of psi), each with one row per
    model row, the curves from the last splitting.  Every error names the
    first failing row."""
    rho = model.partition_bump(side)        # its support is the shear band
    T = restoration_b_reference(model)
    lo, _ = model.fundamental_interval(side)
    tau = model.geometry.tau
    psit = PeriodicFn(tau, np.zeros((model.rows, curves.PERIODIC_SAMPLES)), origin=lo)
    traces = [[] for _ in range(model.rows)]
    live = np.ones(model.rows, dtype=bool)
    prev = np.full(model.rows, np.inf)
    for it in range(RESTORE_MAX_ITER):
        psi = MaskedPeriodic(rho, psit)
        m, w_s = _splitting(side, psi, model)
        sup, norm0 = m.sup(), m.norm0()
        if side == "b":
            mean = m.mean()
            _refuse(live & (np.abs(mean) > RESTORE_MEAN_TOL), lambda k: (
                f"restore_link_b: row {k}: splitting mean {mean[k]:.3e} exceeds "
                f"{RESTORE_MEAN_TOL:.1e}; the a-link appears broken"))
        for k in np.flatnonzero(live):
            traces[k].append((it, float(sup[k]), float(norm0[k])))
        res = sup if side == "a" else norm0
        live &= ~(res <= RESTORE_TOL)
        if not live.any():
            break
        _refuse(live & (prev > RESTORE_TOL) & (res >= prev), lambda k: (
            f"restore_link_{side}: row {k}: no contraction "
            f"(residual {res[k]:.3e} after {prev[k]:.3e})"))
        prev = res
        if side == "a":
            step = psit - m
        else:
            total, term = m.samples, m
            for _ in range(NEUMANN_TERMS):
                term = T(term).zero_mean()
                total = total + term.samples
            step = PeriodicFn(tau, psit.samples - total, origin=lo).zero_mean()
        psit = PeriodicFn(tau, np.where(live[:, None], step.samples, psit.samples), origin=lo)
    else:
        k = int(np.argmax(live))
        raise RuntimeError(f"restore_link_{side}: row {k}: residual {res[k]:.3e} after "
                           f"{RESTORE_MAX_ITER} iterations")
    return psi, traces, w_s


def restore_link_a(model):
    """Solve for the masked shear that closes the a-link of the model's F.

    Iterates psit -> psit - M^a(rho psit) until the sup residual is at most
    RESTORE_TOL, for the model's K rows in one lockstep loop; returns
    (psi_a, traces, w_s): psi_a a MaskedPeriodic over K rows, traces one
    list per row of (iteration, sup residual, derivative-norm residual),
    and w_s the stable curves stable_curve(model, "a", psi=psi_a), bitwise.
    Each row is bitwise the run of its own one-row model.  Raises
    RuntimeError, naming the row, when RESTORE_MAX_ITER iterations do not
    reach the tolerance.
    """
    return _restore(model, "a")


def restore_link_b(model):
    """Solve for the zero-mean masked shear that closes the b-link of the
    model's F.

    Each step subtracts the first NEUMANN_TERMS + 1 terms of the Neumann
    series of the averaging operator T (restoration_b_reference) applied to
    the splitting, an inexact Newton step (see _restore).  Residuals are
    measured in the derivative-only norm, against RESTORE_TOL; a splitting
    mean above RESTORE_MEAN_TOL signals a broken a-link and aborts.  Returns (psi_b, traces, w_s) as restore_link_a does.  Raises
    RuntimeError, naming the row, when RESTORE_MAX_ITER iterations do not
    reach the tolerance.
    """
    return _restore(model, "b")
