"""Tests for the exponent / entropy / cone-certificate module."""

import dataclasses
import decimal
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from construction_checks import (conjugacy_exponent_bound, entries, exponent_symmetry_defect,
                                 identity_map, separate_map, stacked_cocycle_logs)
from islab.blowup import CENTERS, IslandMap, SIGMA
from islab.lyapunov import (
    LN4,
    _cell_centers,
    _cocycle_logs,
    _grid_orbits,
    cone_certificate,
    entropy_estimate,
    lambda_field_rows,
    max_lyapunov,
    spectral_norm,
)
from islab.maps import (
    MapDescriptor,
    anosov_map,
    chirikov_map,
    compose,
    rotation_map,
    wrap_torus,
)


@pytest.fixture(scope="module")
def island():
    return IslandMap()


@given(st.lists(st.floats(-5, 5), min_size=4, max_size=4))
@settings(deadline=None)
def test_spectral_norm_matches_svd(values):
    M = np.array(values).reshape(2, 2)
    want = np.linalg.norm(M, 2)
    assert abs(spectral_norm(values) - want) <= 1e-12 * max(1.0, want)


def test_spectral_norm_exact_cases():
    assert spectral_norm((0.0, 0.0, 0.0, 0.0)) == 0.0
    # rank 1, u v^T with |u| |v| = 5 * 13, and diagonals: exact
    assert spectral_norm(entries(np.outer([3.0, 4.0], [5.0, 12.0]))) == 65.0
    assert spectral_norm(entries(np.outer([-0.75, 1.0], [0.0, -2.0]))) == 2.5
    assert spectral_norm((3.0, 0.0, 0.0, -4.0)) == 4.0
    assert spectral_norm((-0.1, 0.0, 0.0, 0.0)) == 0.1
    assert spectral_norm((1e-3, 0.0, 0.0, 7.0)) == 7.0
    # random ones: within the rounding of the squares and the square roots
    g = np.random.default_rng(4)
    d = g.normal(size=(2000, 2)) * np.exp(g.uniform(-20, 20, size=(2000, 2)))
    want = np.max(np.abs(d), axis=-1)
    got = spectral_norm(entries(d[:, :, None] * np.eye(2)))
    assert np.all(np.abs(got - want) <= np.spacing(want))
    u, v = g.normal(size=(2, 2000, 2))
    want = np.hypot(u[:, 0], u[:, 1]) * np.hypot(v[:, 0], v[:, 1])
    got = spectral_norm(entries(u[:, :, None] * v[:, None, :]))
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))


def _leaky_standard_map():
    """The standard map at a = 1.5, whose Jacobian is not finite on the
    strip x < 0.02: orbits leave through the strip or through the disc
    `_near_centre`, at different steps."""
    f = chirikov_map(1.5)

    def jac(p):
        J = f.jacobian(p)
        J[p[..., 0] < 0.02] = np.inf
        return J

    return separate_map("leaky", f, jac)


def _near_centre(q):
    d = q - 0.5
    return d[..., 0] ** 2 + d[..., 1] ** 2 < 0.01


def test_cocycle_rows_do_not_depend_on_their_batch():
    f = _leaky_standard_map()
    pts = np.random.default_rng(11).random((64, 2))
    pts = pts[~_near_centre(pts)]               # the caller admits the starts
    with np.errstate(invalid="ignore"):         # inf - inf in the leaky rows
        logs, valid = _cocycle_logs(f, pts, 40, _near_centre)
        rows = [_cocycle_logs(f, p[None], 40, _near_centre) for p in pts]
    assert 10 <= np.count_nonzero(valid) <= len(pts) - 10     # many leave mid-run
    assert np.array_equal(valid, [v[0] for _, v in rows])
    assert np.array_equal(logs, [lg[0] for lg, _ in rows])


def _island_grid_case():
    island = IslandMap()
    return island.descriptor(), _cell_centers(16), 20, lambda q: ~island.island_mask(q)


@pytest.mark.parametrize("case", [
    lambda: (_leaky_standard_map(), np.random.default_rng(11).random((64, 2)), 40,
             _near_centre),
    lambda: (anosov_map(), np.random.default_rng(12).random((64, 2)), 40, None),
    _island_grid_case,
], ids=["leaky", "anosov", "island-grid-16"])
def test_cocycle_matches_the_stacked_reference(case):
    # the kernel carries M as four contiguous entry arrays, every row in
    # place; the reference carries it as a strided (m, 2, 2) stack, tests
    # the starts against exclude and drops a row when it stops, with the
    # same products, sums and divisions in the same order.  The kernel gets
    # the admitted starts only, and the reference's rows of them are its
    f, pts, n, exclude = case()
    admit = np.ones(len(pts), dtype=bool) if exclude is None else ~exclude(pts)
    with np.errstate(invalid="ignore"):         # inf - inf in the leaky rows
        got = _cocycle_logs(f, pts[admit], n, exclude)
        want = stacked_cocycle_logs(f, pts, n, exclude)
    assert np.array_equal(got[1], want[1][admit])
    assert np.array_equal(got[0].view(np.int64), want[0][admit].view(np.int64))
    if f.name == "leaky":
        assert 0 < np.count_nonzero(got[1]) < np.count_nonzero(admit)   # rows leave mid-run
    if exclude is not None:
        assert 0 < np.count_nonzero(admit) < len(pts)       # some starts are not admitted


def test_cocycle_row_excluded_at_step_k_keeps_its_first_k_logs():
    # the starts are admitted: a row whose k-th image is excluded, k >= 1,
    # keeps the log-norm of its first k steps; the reference agrees
    f = chirikov_map(1.5)
    pts = np.random.default_rng(11).random((64, 2))
    pts = pts[~_near_centre(pts)]
    n = 40
    logs, valid = _cocycle_logs(f, pts, n, _near_centre)
    first = np.full(len(pts), -1)           # the first k with f^k(p) excluded
    x = f(pts)
    for k in range(1, n + 1):
        first[_near_centre(x) & (first < 0)] = k
        x = f(x)
    assert np.array_equal(valid, first < 0)
    assert np.count_nonzero(first > 0) >= 20
    full, _ = _cocycle_logs(f, pts, n)
    for i, k in enumerate(first):
        want = full[i] if k < 0 else _cocycle_logs(f, pts[i:i + 1], k)[0][0]
        assert logs[i] == want
    want_logs, want_valid = stacked_cocycle_logs(f, pts, n, _near_centre)
    assert np.array_equal(valid, want_valid)
    assert np.array_equal(logs.view(np.int64), want_logs.view(np.int64))


def test_rows_of_a_per_row_map_stopping_mid_orbit_keep_their_own_logs():
    # one parameter per row, every start admitted, many rows excluded at
    # different steps: no row leaves the batch, so each row still meets
    # its own parameter, and its logs and validity are its one-row run's
    g = np.random.default_rng(13)
    pts = g.random((64, 2))
    pts = pts[~_near_centre(pts)]
    a = g.uniform(0.5, 2.0, len(pts))
    logs, valid = _cocycle_logs(chirikov_map(a), pts, 40, _near_centre)
    rows = [_cocycle_logs(chirikov_map(a[i:i + 1]), pts[i:i + 1], 40, _near_centre)
            for i in range(len(pts))]
    assert 10 <= np.count_nonzero(valid) <= len(pts) - 20    # many stop mid-orbit
    assert np.array_equal(valid, [v[0] for _, v in rows])
    assert np.array_equal(logs.view(np.int64), np.array([lg[0] for lg, _ in rows]).view(np.int64))


# every integer matrix of determinant 1 with entries in [-2, 2]: elliptic,
# parabolic and hyperbolic ones, +-I among them
SL2 = [m for m in itertools.product(range(-2, 3), repeat=4) if m[0] * m[3] - m[1] * m[2] == 1]


def _word_cocycle(words):
    """The cocycle of the words (n, m) of indices into SL2: the point (k, i)
    steps to (k + 1, i) with Jacobian SL2[words[k, i]]."""
    mats = np.array(SL2, dtype=float)[words]

    def ev(p, with_jac):
        J = mats[p[:, 0].astype(int), p[:, 1].astype(int)]
        return p + (1.0, 0.0), (tuple(np.ascontiguousarray(J.T)) if with_jac else None)

    return MapDescriptor("words", ev)


def _exact_log_norm(word):
    """log ||SL2[word[-1]] ... SL2[word[0]]|| to 40 digits, from the product
    in integers and its Gram matrix's top eigenvalue."""
    p, q, r, s = 1, 0, 0, 1
    for a, b, c, d in (SL2[j] for j in word):
        p, q, r, s = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    g00, g01, g11 = p * p + r * r, p * q + r * s, q * q + s * s
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        half = decimal.Decimal(g00 - g11) / 2
        top = decimal.Decimal(g00 + g11) / 2 + (half * half + decimal.Decimal(g01) ** 2).sqrt()
        return top.ln() / 2


# The scaling by powers of two is exact, so the kernel's log-norm carries
# the rounding of the float product of the Jacobians and of one norm and
# one log.  Words that mix elliptic and hyperbolic factors cancel in a
# step's sums now and then, which no per-step bound in ulps covers: over
# 100 draws (seeds 0-99, 64 words at each n in 1, 10, 100, 200, 400) the
# worst row read 11.4 n ulp, and 96 draws stayed within 1.1 n ulp.  A log
# renormalized by the norm each step read up to 3186 n ulp on those draws.
EXACT_ULP_PER_STEP = 16


@pytest.mark.parametrize("n", [1, 10, 100, 400])
def test_cocycle_log_norm_of_integer_words_is_exact_within_n_ulp(n):
    words = np.random.default_rng(45).integers(len(SL2), size=(n, 64))
    pts = np.column_stack([np.zeros(64), np.arange(64.0)])
    logs, valid = _cocycle_logs(_word_cocycle(words), pts, n)
    assert valid.all()
    for i in range(64):
        exact = _exact_log_norm(words[:, i])
        if exact == 0:          # an orthogonal product: exactly 0
            assert logs[i] == 0.0
        else:
            ulp = decimal.Decimal(np.spacing(float(exact)))
            assert abs(decimal.Decimal(logs[i]) - exact) <= EXACT_ULP_PER_STEP * n * ulp


@pytest.mark.parametrize("n", [50, 200, 2000, 10000])
def test_anosov_exponent_is_sigma_within_two_ulp_at_any_horizon(n):
    # a constant symmetric cocycle: A^n has norm e^(n sigma), and the
    # product's exponent of two carries the growth without rounding
    pts = np.random.default_rng(13).random((64, 2))
    lam = max_lyapunov(anosov_map(), pts, n).estimate
    assert np.max(np.abs(lam - SIGMA)) <= 2 * np.spacing(SIGMA)
    assert np.all(max_lyapunov(identity_map(), pts, n).log_norm == 0.0)


def test_identity_exponent_exact_zero():
    s = max_lyapunov(identity_map(), np.array([0.3, 0.4]), n=30)
    assert s.log_norm == 0.0
    assert s.estimate == 0.0


def test_anosov_exponent_matrix_mode():
    f = anosov_map()
    for p in ([0.1, 0.2], [0.77, 0.31]):
        s = max_lyapunov(f, np.array(p), n=50)
        assert abs(s.estimate - SIGMA) <= 1e-6


def test_sample_bookkeeping():
    f = anosov_map()
    s = max_lyapunov(f, np.array([0.25, 0.5]), n=40)
    assert s.n == 40
    assert abs(s.log_norm - 40 * s.estimate) <= 1e-12
    with pytest.raises(ValueError):
        max_lyapunov(f, np.array([0.0, 0.0]), n=0)


@pytest.mark.parametrize("f", [anosov_map(), chirikov_map(1.2)],
                         ids=["anosov", "chirikov"])
def test_batched_exponent_equals_per_row_calls(f):
    pts = np.random.default_rng(26).random((30, 2))
    batch = max_lyapunov(f, pts, n=60)
    assert batch.log_norm.shape == batch.estimate.shape == (30,)
    rows = [max_lyapunov(f, q, n=60) for q in pts]
    assert np.array_equal(batch.log_norm, [r.log_norm for r in rows])
    assert np.array_equal(batch.estimate, [r.estimate for r in rows])


def test_max_lyapunov_of_an_empty_batch():
    s = max_lyapunov(anosov_map(), np.empty((0, 2)), n=10)
    assert s.log_norm.shape == (0,) and s.estimate.shape == (0,)


def _counting(f):
    """f, and a list that gets the row count of each of its f.ev calls."""
    calls = []

    def ev(p, with_jac):
        calls.append(len(p))
        return f.ev(p, with_jac)

    return dataclasses.replace(f, ev=ev), calls


def test_cocycle_of_an_empty_batch_makes_no_step():
    # no row is live, so the kernel takes no step: it calls neither f nor
    # exclude, and returns empty logs and an empty mask
    f, calls = _counting(anosov_map())
    tested = []

    def exclude(q):
        tested.append(len(q))
        return np.ones(len(q), dtype=bool)

    logs, live = _cocycle_logs(f, np.empty((0, 2)), 25, exclude)
    assert calls == [] and tested == []
    assert logs.shape == live.shape == (0,) and logs.dtype == float and live.dtype == bool


def test_cocycle_with_every_row_live_steps_to_the_horizon():
    # no row stops: exactly n steps, each on the whole batch
    f, calls = _counting(anosov_map())
    pts = np.random.default_rng(2).random((7, 2))
    logs, valid = _cocycle_logs(f, pts, 25, lambda q: np.zeros(len(q), dtype=bool))
    assert calls == [7] * 25
    assert valid.all() and np.array_equal(logs, _cocycle_logs(anosov_map(), pts, 25)[0])


def test_degenerate_cocycle_raises():
    # the Jacobian is zero for x > 1/2 and the identity elsewhere
    def jac(p):
        keep = (p[..., 0] <= 0.5)[..., None, None]
        return np.where(keep, np.eye(2), 0.0)

    collapse = separate_map("collapse", lambda p: np.array(p, copy=True), jac)
    assert max_lyapunov(collapse, np.array([0.1, 0.2]), n=5).estimate == 0.0
    with pytest.raises(RuntimeError, match="degenerate"):
        max_lyapunov(collapse, np.array([0.7, 0.4]), n=5)
    # one degenerate row fails the whole batch
    with pytest.raises(RuntimeError, match="degenerate at 1 of 2"):
        max_lyapunov(collapse, np.array([[0.1, 0.2], [0.7, 0.4]]), n=5)


def test_degenerate_row_of_a_per_row_map_raises():
    # one parameter per row: a row turning invalid must not leave the batch
    # and the parameters at different lengths
    f = chirikov_map(np.array([0.5, 0.7, 0.9]))
    pts = np.array([[0.1, 0.2], [np.nan, 0.3], [0.4, 0.5]])
    with pytest.raises(RuntimeError, match="degenerate at 1 of 3"):
        max_lyapunov(f, pts, n=5)


def test_island_exponent_at_least_ln4(island):
    rng = np.random.default_rng(21)
    pts = rng.random((50, 2))
    pts = pts[island.island_mask(pts)][:3]
    f = island.descriptor()
    for p in pts:
        s = max_lyapunov(f, p, n=200)
        assert s.estimate >= LN4


def test_entropy_identity_exact_zero():
    rep = entropy_estimate(identity_map(), resolution=8, n=5)
    assert rep.estimate == 0.0
    assert rep.fraction_above == 0.0
    assert rep.invalid_cells == 0


def test_entropy_anosov_equals_sigma():
    rep = entropy_estimate(anosov_map(), resolution=16, n=20)
    assert abs(rep.estimate - SIGMA) <= 1e-6
    assert rep.fraction_above == 1.0
    assert rep.valid.all()


def test_entropy_resolution_guard():
    with pytest.raises(ValueError):
        entropy_estimate(anosov_map(), resolution=7, n=5)


def _cell_of(p, r):
    """Flat index i r + j of the cell holding each point of p (N, 2)."""
    i = np.floor(wrap_torus(p) * r).astype(int) % r
    return i[:, 0] * r + i[:, 1]


@pytest.mark.parametrize("r", [100, 98, 15, 16])
def test_grid_orbits_are_the_orbits_of_the_cell_midpoints(r):
    # each group element sends every cell midpoint to a midpoint of the
    # same orbit: p -> -p always, the half-lattice translations at even r
    reps, owner = _grid_orbits(r, True)
    centres = _cell_centers(r)
    moves = [-centres] + ([centres + v for v in CENTERS[1:]] if r % 2 == 0 else [])
    for q in moves:
        assert np.array_equal(owner[_cell_of(q, r)], owner)
    # each orbit's representative is its smallest cell
    assert np.array_equal(owner[reps], np.arange(len(reps)))
    assert np.all(reps == [np.min(np.nonzero(owner == k)[0]) for k in range(len(reps))])


def test_grid_orbit_sizes():
    reps, owner = _grid_orbits(100, True)
    assert len(reps) == 1250
    assert np.all(np.bincount(owner) == 8)
    # at r = 2 mod 4 the midpoints at 1/4 and 3/4 exist, and p -> v - p
    # with v = (1/2, 1/2) fixes them: one orbit of 4
    reps, owner = _grid_orbits(98, True)
    sizes = np.bincount(owner)
    assert len(reps) == 1201
    assert owner[24 * 98 + 24] == owner[73 * 98 + 73]
    assert sorted(np.nonzero(sizes[owner] == 4)[0]) == [24 * 98 + 24, 24 * 98 + 73,
                                                       73 * 98 + 24, 73 * 98 + 73]
    assert np.all(np.delete(sizes, owner[24 * 98 + 24]) == 8)
    # at odd r only p -> -p acts, and it fixes the centre cell (1/2, 1/2)
    reps, owner = _grid_orbits(15, True)
    sizes = np.bincount(owner)
    assert len(reps) == 113
    assert np.array_equal(reps[sizes == 1], [7 * 15 + 7])
    assert np.count_nonzero(sizes == 2) == 112
    # without the symmetry every cell is its own orbit
    reps, owner = _grid_orbits(16, False)
    assert np.array_equal(reps, np.arange(256)) and np.array_equal(owner, np.arange(256))


@pytest.mark.parametrize("r", [16, 15])
def test_reduced_field_is_invariant_under_the_group(island, r):
    rep = entropy_estimate(island.descriptor(), resolution=r, n=20,
                           exclude=lambda q: ~island.island_mask(q))
    F = rep.field
    images = [F[::-1, ::-1]]
    if r % 2 == 0:
        images += [np.roll(F, r // 2, axis=0), np.roll(F, r // 2, axis=1)]
    for G in images:
        assert np.array_equal(F, G, equal_nan=True)
    assert rep.invalid_cells > 0


@pytest.mark.parametrize("r", [16, 15])
def test_fraction_above_is_over_the_admitted_cells(island, r):
    # the admitted cells start in the island; the reference is the island
    # suite's own count over every cell's start
    rep = entropy_estimate(island.descriptor(), resolution=r, n=20,
                           exclude=lambda q: ~island.island_mask(q))
    started_in = island.island_mask(lambda_field_rows(rep)[:, :2])
    good = rep.valid.ravel() & (np.nan_to_num(rep.field.ravel(), nan=-1.0) >= LN4)
    assert 0 < np.count_nonzero(started_in) < r * r
    assert rep.fraction_above == np.count_nonzero(good & started_in) / np.count_nonzero(started_in)


@pytest.mark.parametrize("n", [1, 12])
def test_entropy_tests_each_start_once(n):
    # exclude runs once on the starts, whose one mask counts the admitted
    # cells and picks the cocycle's rows, and once on each step's images:
    # n + 1 calls when every admitted row reaches the horizon, as it does
    # under the identity
    tested = []

    def exclude(q):
        tested.append(len(q))
        return _near_centre(q)

    rep = entropy_estimate(identity_map(), resolution=16, n=n, exclude=exclude)
    inside = np.count_nonzero(_near_centre(_cell_centers(16)))
    assert 0 < inside < 256
    assert tested == [256] + [256 - inside] * n
    assert rep.invalid_cells == inside and rep.estimate == 0.0
    assert np.array_equal(rep.valid.ravel(), ~_near_centre(_cell_centers(16)))


def _full_grid(f):
    # the same map with the symmetry undeclared: every cell integrated
    return dataclasses.replace(f, torsion_symmetric=False)


def test_reduced_grid_matches_the_full_grid_at_small_discs():
    # almost every orbit stays off the surgery, where the map is A: the
    # exponents of a cell and of its images agree to rounding (1.3e-15)
    island = IslandMap(0.001, 0.002)
    f, exclude = island.descriptor(), lambda q: ~island.island_mask(q)
    got = entropy_estimate(f, resolution=100, n=200, exclude=exclude)
    want = entropy_estimate(_full_grid(f), resolution=100, n=200, exclude=exclude)
    assert np.array_equal(got.valid, want.valid)
    assert np.nanmax(np.abs(got.field - want.field)) <= 1e-12


def test_reduced_grid_matches_the_full_grid_at_the_default(island):
    # per cell the finite-time exponents move by up to about 2e-2, the end
    # point term that any rounding change moves; the integral does not
    # (2.0610184 reduced, 2.0610180 full)
    f, exclude = island.descriptor(), lambda q: ~island.island_mask(q)
    got = entropy_estimate(f, resolution=100, n=200, exclude=exclude)
    want = entropy_estimate(_full_grid(f), resolution=100, n=200, exclude=exclude)
    assert np.array_equal(got.valid, want.valid)
    assert got.fraction_above == want.fraction_above
    assert abs(got.estimate - want.estimate) <= 1e-6 * want.estimate


def test_reduced_grid_is_the_full_grid_for_a_constant_cocycle():
    f = anosov_map()
    got = entropy_estimate(f, resolution=48, n=60)
    want = entropy_estimate(_full_grid(f), resolution=48, n=60)
    assert np.array_equal(got.field, want.field)
    assert np.array_equal(got.valid, want.valid)
    assert (got.estimate, got.fraction_above, got.invalid_cells) == (
        want.estimate, want.fraction_above, want.invalid_cells)


def _translation_pair(shift):
    eye = lambda p: np.broadcast_to(np.eye(2), np.shape(p) + (2,)).copy()
    tau = separate_map("tau", lambda p: wrap_torus(p + shift), eye,
                       lambda q: wrap_torus(q - shift))
    tau_inv = separate_map("tau^-1", lambda p: wrap_torus(p - shift), eye,
                           lambda q: wrap_torus(q + shift))
    return tau, tau_inv


def test_entropy_translation_invariance():
    # conjugating by a grid-aligned rigid translation permutes the cell
    # midpoints, so the entropy integral is reproduced.  For a constant
    # cocycle the agreement is exact; for a chaotic kick map the dyadic
    # rounding of the shifted orbit decorrelates individual cells
    # (~1e-17 amplified by e^{lambda n}) and only the integral is stable.
    res = 16
    tau, tau_inv = _translation_pair(np.array([3.0 / res, 5.0 / res]))
    fa = anosov_map()
    ra = entropy_estimate(fa, resolution=res, n=30)
    ra2 = entropy_estimate(compose(tau_inv, fa, tau), resolution=res, n=30)
    assert abs(ra.estimate - ra2.estimate) <= 1e-12

    f = chirikov_map(1.2)
    r1 = entropy_estimate(f, resolution=res, n=30)
    r2 = entropy_estimate(compose(tau_inv, f, tau), resolution=res, n=30)
    assert abs(r1.estimate - r2.estimate) <= 0.02


def test_entropy_island_grid(island):
    f = island.descriptor()
    exclude = lambda pts: ~island.island_mask(pts)
    rep = entropy_estimate(f, resolution=20, n=60, exclude=exclude)
    assert rep.invalid_cells > 0
    assert np.isnan(rep.field[~rep.valid]).all()
    # off the links the map is smoothly conjugate to the automorphism
    assert rep.estimate >= LN4 * island.island_area() - 0.05
    assert 0.0 <= rep.fraction_above <= 1.0
    rows = lambda_field_rows(rep)
    assert rows.shape == (400, 4)
    assert np.isfinite(rows).all()


def test_cone_certificate_anosov():
    cert = cone_certificate(anosov_map(), np.array([0.21, 0.68]), 30)
    assert cert.passed
    assert cert.first_failure is None
    assert cert.min_ratio >= 4.0
    assert cert.ratios.shape == (30,)


def test_cone_certificate_rotation_fails_immediately():
    cert = cone_certificate(rotation_map(np.pi / 2), np.array([0.1, 0.1]), 5)
    assert not cert.passed
    assert cert.first_failure == 0


def test_cone_certificate_conjugated_island_chain(island):
    rng = np.random.default_rng(22)
    pts = rng.random((50, 2))
    p = pts[island.island_mask(pts)][0]
    cert = cone_certificate(island.descriptor(), p, 50,
                            conjugator=island.surgery_descriptor())
    assert cert.passed
    assert cert.min_ratio >= 4.0


def test_cone_implies_exponent(island):
    f = anosov_map()
    p = np.array([0.4, 0.9])
    cert = cone_certificate(f, p, 40)
    lam = max_lyapunov(f, p, 40).estimate
    assert cert.passed and lam >= LN4 - 1e-12

    rng = np.random.default_rng(23)
    pts = rng.random((50, 2))
    q = pts[island.island_mask(pts)][0]
    cert2 = cone_certificate(island.descriptor(), q, 50,
                             conjugator=island.surgery_descriptor())
    lam2 = max_lyapunov(island.descriptor(), q, 50).estimate
    assert cert2.passed and lam2 >= LN4 - 1e-12


def test_exponent_symmetry_unit_determinant():
    # constant cocycle: exact at any horizon
    assert exponent_symmetry_defect(anosov_map(),
                                    np.array([0.3, 0.7]), 40) <= 1e-12
    # chaotic map: exact while the backward orbit still shadows the forward
    # one (separation ~ e^{lambda n} eps), then bounded by the condition
    # margin (2/n) log cond(Df^n) = 4 lambda_n
    f = chirikov_map(1.2)
    p = np.array([0.3, 0.7])
    assert exponent_symmetry_defect(f, p, 10) <= 1e-12
    lam = max_lyapunov(f, p, 40).estimate
    assert exponent_symmetry_defect(f, p, 40) <= 4 * lam


def test_exponent_symmetry_weighted_island(island):
    # det DFhat^n = mu(p)/mu(f^n p), so forward/backward exponents at
    # matched points differ by exactly |log det|/n while orbits shadow
    rng = np.random.default_rng(24)
    pts = rng.random((50, 2))
    p = pts[island.island_mask(pts)][0]
    n = 5
    f = island.descriptor()
    defect = exponent_symmetry_defect(f, p, n)
    x = p.copy()
    for _ in range(n):
        x = island(x)
    mu_ratio = island.area_density(p) / island.area_density(x)
    assert abs(defect - abs(np.log(mu_ratio)) / n) <= 1e-9


def test_conjugacy_exponent_bound(island):
    rng = np.random.default_rng(25)
    pts = rng.random((80, 2))
    pts = pts[island.island_mask(pts)][:3]
    for p in pts:
        rep = conjugacy_exponent_bound(island, p, n=60)
        assert rep["defect"] <= rep["bound"] + 1e-12
        assert rep["bound"] <= 0.2
