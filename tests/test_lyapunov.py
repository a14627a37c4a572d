"""Tests for the exponent / entropy / cone-certificate module."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from islab.blowup import IslandMap, SIGMA
from islab.lyapunov import (
    LN4,
    cone_certificate,
    conjugacy_exponent_bound,
    entropy_estimate,
    exponent_symmetry_defect,
    lambda_field_rows,
    max_lyapunov,
    spectral_norm,
)
from islab.maps import (
    MapDescriptor,
    anosov_map,
    chirikov_map,
    compose,
    identity_map,
    rotation_map,
    wrap_torus,
)


@pytest.fixture(scope="module")
def island():
    return IslandMap()


@given(st.lists(st.floats(-5, 5), min_size=4, max_size=4))
@settings(deadline=None)
def test_spectral_norm_matches_svd(entries):
    M = np.array(entries).reshape(2, 2)
    want = np.linalg.norm(M, 2)
    assert abs(spectral_norm(M) - want) <= 1e-12 * max(1.0, want)


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


def test_degenerate_cocycle_raises():
    # the Jacobian is zero for x > 1/2 and the identity elsewhere
    def jac(p):
        keep = (p[..., 0] <= 0.5)[..., None, None]
        return np.where(keep, np.eye(2), 0.0)

    collapse = MapDescriptor("collapse", lambda p: np.array(p, copy=True), jac)
    assert max_lyapunov(collapse, np.array([0.1, 0.2]), n=5).estimate == 0.0
    with pytest.raises(RuntimeError, match="degenerate"):
        max_lyapunov(collapse, np.array([0.7, 0.4]), n=5)
    # one degenerate row fails the whole batch
    with pytest.raises(RuntimeError, match="degenerate at 1 of 2"):
        max_lyapunov(collapse, np.array([[0.1, 0.2], [0.7, 0.4]]), n=5)


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


def _translation_pair(shift):
    eye = lambda p: np.broadcast_to(np.eye(2), np.shape(p) + (2,)).copy()
    tau = MapDescriptor("tau", lambda p: wrap_torus(p + shift), eye,
                        lambda q: wrap_torus(q - shift), wrap=True)
    tau_inv = MapDescriptor("tau^-1", lambda p: wrap_torus(p - shift), eye,
                            lambda q: wrap_torus(q + shift), wrap=True)
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
