"""Tests for the blown-up torus automorphism (surgery + island flow)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from islab.blowup import (
    ANNULUS_SAMPLES,
    SIGMA,
    IslandMap,
    SurgeryProfile,
    _ROOT_ULPS,
    eigen_rotation,
    equivariance_and_energy_drift,
    conjugacy_defect,
    from_polar,
    identity_core_defect,
    island_check_batch,
    island_hamiltonian,
    link_saddles,
    symmetry_and_identity_report,
    to_polar,
)
from islab import blowup
from islab.lyapunov import _cell_centers, entropy_estimate
from islab.maps import torus_diff, wrap_torus

from construction_checks import (EXP_2SIGMA, finite_difference_jacobian, flow_matches_linear_map,
                                 regime_consistency, stacked)


@pytest.fixture(scope="module")
def island():
    return IslandMap()


EDGE_PROFILES = [(0.2, 0.2001), (0.05, 0.24), (0.2, 0.21), (0.001, 0.002),
                 (0.24, 0.2499), (0.01, 0.24), (0.1, 0.24999)]


# ---------------------------------------------------------------------
# charts and the radial profile
# ---------------------------------------------------------------------

@given(st.floats(1e-6, 1.0), st.floats(0.0, 2 * np.pi))
@settings(deadline=None)
def test_polar_roundtrip(rho, theta):
    s = np.array([rho, theta])
    w = from_polar(s)
    back = to_polar(w)
    assert abs(back[0] - rho) <= 1e-12 * max(1.0, rho)
    assert abs(np.remainder(back[1] - theta + np.pi, 2 * np.pi) - np.pi) <= 1e-9
    w2 = from_polar(back)
    assert np.max(np.abs(w2 - w)) <= 1e-12


def test_eigen_rotation_chart():
    R = eigen_rotation()
    assert abs(np.linalg.det(R) - 1.0) <= 1e-12
    assert np.max(np.abs(R.T @ R - np.eye(2))) <= 1e-14
    A = np.array([[13.0, 8.0], [8.0, 5.0]])
    D = R.T @ A @ R
    lam = 9.0 + 4.0 * np.sqrt(5.0)
    assert abs(D[0, 0] - lam) <= 1e-12
    assert abs(D[1, 1] - 1.0 / lam) <= 1e-12
    assert abs(D[0, 1]) <= 1e-12 and abs(D[1, 0]) <= 1e-12
    # the squared expansion is the algebraic unit 161 + 72 sqrt(5)
    assert abs(EXP_2SIGMA - lam**2) <= 1e-9
    assert abs(SIGMA - np.log(lam)) <= 1e-15


def test_profile_piecewise_shape():
    prof = SurgeryProfile()
    lo, r1, r2 = prof.rho_lo, prof.r1, prof.r2
    assert prof.psi(lo) == 0.0
    # exact shift below the bridge, exact identity above it
    for rho in np.linspace(lo, r1, 7):
        assert abs(prof.psi(rho) - (rho - lo)) <= 1e-18
    for rho in np.linspace(r2, prof.rho_hi, 7):
        assert prof.psi(rho) == rho
    # continuity at the bridge ends
    assert abs(prof.psi(r1) - (r1 - lo)) <= 1e-15
    assert abs(prof.psi(r2) - r2) <= 1e-15
    # strict monotonicity and positive slope
    grid = np.linspace(lo, prof.rho_hi, 4001)
    vals = prof.psi(grid)
    assert np.all(np.diff(vals) > 0)
    assert np.all(prof.psi_d1(grid) > 0)


@given(st.floats(0.0, 1.0))
@settings(deadline=None)
def test_profile_inverse_roundtrip(t):
    prof = SurgeryProfile()
    rho = prof.rho_lo + t * (prof.rho_hi - prof.rho_lo)
    y = prof.psi(rho)
    back = prof.psi_inv(y)
    assert abs(back - rho) <= 1e-12


def test_psi_inv_roundtrip_dense_grid():
    prof = SurgeryProfile()
    v1 = prof.r1 - prof.rho_lo

    def ends(a):
        # a bracket end and its float neighbours
        return np.array([a, np.nextafter(a, 0.0), np.nextafter(a, 1.0)])

    rho = np.concatenate([np.linspace(prof.rho_lo, prof.rho_hi, 200_001),
                          ends(prof.r1), ends(prof.r2)])
    back = prof.psi_inv(prof.psi(rho))
    assert np.max(np.abs(back - rho) / np.spacing(rho)) <= 16
    # psi subtracts rho_lo from its argument, so its rounding is in ulps of
    # the argument psi_inv(v), not of v
    v = np.concatenate([np.linspace(0.0, prof.rho_hi, 200_001),
                        ends(v1), ends(prof.r2)])
    x = prof.psi_inv(v)
    assert np.max(np.abs(prof.psi(x) - v) / np.spacing(x)) <= 16


@pytest.mark.parametrize("delta, eps", [(0.15, 0.24), (0.1, 0.2)])
def test_psi_is_exact_off_the_bridge(delta, eps):
    # the surgery's maskless pass relies on psi being the shift and the
    # identity bit for bit off [r1, r2], with slope exactly 1; just above r1
    # the step is far below an ulp, so r1's upper neighbour is exact too
    prof = SurgeryProfile(delta, eps)
    r1, r2 = prof.r1, prof.r2
    below = np.concatenate([np.linspace(0.0, r1, 100_001),
                            [np.nextafter(r1, 0.0), np.nextafter(r1, 1.0)]])
    above = np.concatenate([np.linspace(r2, 2 * prof.rho_hi, 100_001), [np.nextafter(r2, 1.0)]])
    assert np.array_equal(prof.psi(below), below - prof.rho_lo)
    assert np.array_equal(prof.psi(above), above)
    assert np.all(prof.psi_d1(np.concatenate([below, above])) == 1.0)


@pytest.mark.parametrize("delta, eps", EDGE_PROFILES + [(0.15, 0.24)])
def test_max_psi_slope_is_the_profiles_own(delta, eps):
    # the step's peak slope sits at the bridge's middle; no point of the
    # annulus has a larger psi'
    prof = SurgeryProfile(delta, eps)
    slope = blowup.max_psi_slope(delta, eps)
    rho = np.linspace(prof.rho_lo, prof.rho_hi, 100_001)
    assert np.max(prof.psi_d1(rho)) <= slope * (1 + 1e-9)
    assert prof.psi_d1(0.5 * (prof.r1 + prof.r2)) == pytest.approx(slope, rel=1e-9)
    assert slope <= blowup.PSI_SLOPE_MAX


def test_max_psi_slope_of_an_annulus_without_width():
    # both squares underflow to 0, so the annulus has no width
    assert blowup.max_psi_slope(1e-200, 2e-200) == np.inf


@pytest.mark.parametrize("delta, eps", EDGE_PROFILES)
def test_psi_inv_at_edge_profiles(delta, eps):
    # psi' reaches ~3750 at (0.2, 0.2001), so a root within an ulp of x
    # leaves a residual of thousands of ulps of x: the residual is measured
    # in units of psi'(x) ulp(x), the error it makes in x.  Near delta = eps
    # Newton leaves the bracket, and the points settle by bisection
    prof = SurgeryProfile(delta, eps)
    v = np.linspace(0.0, prof.rho_hi, 200_001)
    x = prof.psi_inv(v)
    assert np.max(np.abs(prof.psi(x) - v) / (prof.psi_d1(x) * np.spacing(x))) <= 16


def _sweeps_per_call(delta, eps):
    # residual evaluations per psi_inv call over the island grid's targets:
    # a spy on the one step evaluation of each sweep, over 5 steps of the
    # exponent grid
    island = IslandMap(delta, eps)
    prof = island.profile
    sweeps, calls = [0], [0]
    evaluate, invert = prof._step.value_and_d1, prof.psi_inv

    def spy_eval(x):
        sweeps[0] += 1
        return evaluate(x)

    def spy_inv(v):
        calls[0] += 1
        return invert(v)

    prof._step.value_and_d1, prof.psi_inv = spy_eval, spy_inv
    entropy_estimate(island.descriptor(), resolution=100, n=5,
                     exclude=lambda q: ~island.island_mask(q))
    return sweeps[0] / calls[0]


def test_psi_inv_sweeps_from_the_fitted_start():
    # the chord start took ~6 sweeps per call at the default and 45-52 near
    # delta = eps
    default = _sweeps_per_call(0.15, 0.24)
    assert default <= 3
    for delta, eps in EDGE_PROFILES:
        assert _sweeps_per_call(delta, eps) <= 2 * default, (delta, eps)


@pytest.mark.parametrize("delta, eps, bound", [
    (0.15, 0.24, 64), (0.05, 0.24, 8), (0.01, 0.24, 8), (0.1, 0.24999, 8),
    (0.001, 0.002, 32), (0.2, 0.21, 1e5), (0.24, 0.2499, 2e5), (0.2, 0.2001, 2e8)])
def test_psi_inv_start_error_bound(delta, eps, bound):
    # the bounds psi_inv's docstring records, in ulps of x
    prof = SurgeryProfile(delta, eps)
    x = np.linspace(prof.r1, prof.r2, 200_001)[1:-1]
    start = prof._fit_start(prof.psi(x))
    assert np.max(np.abs(start - x) / np.spacing(x)) <= bound


@pytest.mark.parametrize("delta, eps", [(0.15, 0.24)] + EDGE_PROFILES)
def test_psi_inv_piece_lookup_matches_searchsorted(delta, eps):
    # the uniform table plus edge comparisons against the binary search,
    # on a dense grid and at every piece edge and table cell boundary with
    # their float neighbours
    prof = SurgeryProfile(delta, eps)
    v1 = prof.r1 - prof.rho_lo
    edges = prof._fit_edges[:-1]
    cells = v1 + np.arange(1, 4 * len(prof._fit_x0)) / prof._fit_cell
    marks = np.concatenate([edges, cells])
    v = np.concatenate([np.linspace(v1, prof.r2, 400_001)[1:-1], marks,
                        np.nextafter(marks, 0.0), np.nextafter(marks, 1.0),
                        [np.nextafter(v1, 1.0), np.nextafter(prof.r2, 0.0)]])
    assert np.array_equal(prof._fit_piece(v), np.searchsorted(edges, v))


def test_psi_inv_sub_ulp_step_onto_a_bracket_end_stops():
    # psi' ~ 3750 in the middle of this bridge, so a target 10 ulp off
    # psi(x0) still has its root within an ulp of x0.  The residual at x0
    # is above the floor and sets a bracket end to x0, and the Newton step
    # rounds onto x0: the point stops there instead of bisecting away
    prof = SurgeryProfile(0.2, 0.2001)
    x0 = prof.r1 + (prof.r2 - prof.r1) * np.linspace(0.4, 0.6, 9)
    exact = prof.psi(x0)
    noisy = exact + 10 * np.spacing(exact)
    s, s1 = prof._step.value_and_d1(x0)
    r = x0 - prof.rho_lo * (1.0 - s) - noisy
    assert np.all(np.abs(r) > 8 * np.spacing(noisy))
    assert np.all(x0 - r / (1.0 + prof.rho_lo * s1) == x0)
    sweeps = []
    evaluate = prof._step.value_and_d1

    def spy(x):
        sweeps[-1] += 1
        return evaluate(x)

    prof._step.value_and_d1 = spy
    found = []
    for v in (exact, noisy):
        sweeps.append(0)
        found.append(prof.psi_inv(v))
    assert np.array_equal(found[0], x0)
    assert np.all(np.abs(found[1] - x0) <= np.spacing(x0))
    assert sweeps[1] <= sweeps[0] + 1


def _stop_kind(prof, evaluate, xs, v):
    """(sweeps, rule) of a psi_inv call on the one target v that evaluated
    the step at xs: the stop tests replayed at the last x, 'residual',
    'step' or, when neither passes, 'bracket'."""
    x = xs[-1][0]
    s, s1 = evaluate(x)
    r = x - prof.rho_lo * (1.0 - s) - v
    if len(xs) > 1 and abs(r) <= _ROOT_ULPS * np.spacing(v):
        return len(xs), "residual"
    if abs(r / (1.0 + prof.rho_lo * s1)) <= 2 * np.spacing(x):
        return len(xs), "step"
    return len(xs), "bracket"


@pytest.mark.parametrize("delta, eps", [(0.15, 0.24)] + EDGE_PROFILES)
def test_psi_inv_root_does_not_depend_on_its_batch(delta, eps, monkeypatch):
    # psi_inv drops each point from its arrays when it stops; a target
    # solved alone must get the bits of its root in a dense batch
    prof = SurgeryProfile(delta, eps)
    v = prof.psi(np.linspace(prof.r1, prof.r2, 20_001)[1:-1])
    evaluate, xs = prof._step.value_and_d1, []

    def spy(x):
        xs.append(x.copy())
        return evaluate(x)

    monkeypatch.setattr(prof._step, "value_and_d1", spy)
    dense = prof.psi_inv(v)
    dense_sweeps = len(xs)
    # every 50th target, and every one on the top 2 % of the bridge, where
    # points stop on the bracket floor near delta = eps
    sample = np.unique(np.concatenate([np.arange(0, v.size, 50),
                                       np.arange(v.size - 400, v.size)]))
    alone, kinds = np.empty(sample.size), set()
    for j, i in enumerate(sample):
        xs.clear()
        alone[j] = prof.psi_inv(v[i:i + 1])[0]
        kinds.add(_stop_kind(prof, evaluate, xs, v[i]))
    assert np.array_equal(alone.view(np.int64), dense[sample].view(np.int64))
    sweeps = {k for k, _ in kinds}
    assert 1 in sweeps
    # the sample has later stops whenever the batch needed a second sweep
    assert (max(sweeps) >= 2) == (dense_sweeps >= 2)
    if (delta, eps) == (0.2, 0.2001):
        assert {k for _, k in kinds} == {"residual", "step", "bracket"}


def test_psi_inv_raises_on_nonfinite_residual(monkeypatch):
    prof = SurgeryProfile()
    # psi_inv's residual evaluates the step on the bridge only
    monkeypatch.setattr(prof._step, "value_and_d1",
                        lambda x: (np.full_like(x, np.nan), np.ones_like(x)))
    v = 0.5 * (prof.r1 - prof.rho_lo)            # below the bridge
    assert prof.psi_inv(v) == v + prof.rho_lo
    with pytest.raises(RuntimeError, match="^psi_inv: non-finite residual"):
        prof.psi_inv(np.linspace(prof.r1, prof.r2, 9))


def test_psi_inv_raises_at_iteration_cap(monkeypatch):
    import islab.blowup as blowup
    prof = SurgeryProfile()
    # from the fitted start no point is still live after 2 sweeps
    monkeypatch.setattr(blowup, "_ROOT_CAP", 1)
    with pytest.raises(RuntimeError, match=r"^psi_inv: \d+ points unconverged after 1 iterations"):
        prof.psi_inv(np.linspace(prof.r1, prof.r2, 9))


def test_profile_validation():
    with pytest.raises(ValueError):
        SurgeryProfile(eps=0.25)
    with pytest.raises(ValueError):
        SurgeryProfile(eps=0.3)
    with pytest.raises(ValueError):
        SurgeryProfile(delta=0.2, eps=0.1)
    prof = SurgeryProfile()
    assert prof.rho0 == prof.delta**2 / 4.0


def test_inner_cutoff_endpoints():
    prof = SurgeryProfile()
    assert prof.xi(prof.rho0) == 0.0
    assert prof.xi(prof.rho_lo) == 1.0
    assert prof.xi.d1(prof.rho0) == 0.0
    assert prof.xi.d1(prof.rho_lo) == 0.0
    assert prof.xi.d2(prof.rho0) == 0.0
    assert prof.xi.d2(prof.rho_lo) == 0.0
    assert prof.xi(prof.rho0 / 2.0) == 0.0


def test_flow_linearization_at_saddle():
    prof = SurgeryProfile()
    sys = island_hamiltonian(prof)
    J = stacked(sys.field_jacobian(np.array([prof.rho_lo, 0.0])))
    assert np.max(np.abs(J - np.diag([2.0, -2.0]))) <= 1e-12
    lam = np.sort(np.linalg.eigvals(J).real)
    assert abs(lam[0] + 2.0) <= 1e-12 and abs(lam[1] - 2.0) <= 1e-12


# ---------------------------------------------------------------------
# the island map: symmetry, conjugacy, regimes
# ---------------------------------------------------------------------

def test_centers_fixed_and_core_identity(island):
    img = island(island.centers)
    assert np.max(np.abs(torus_diff(img, island.centers))) == 0.0
    assert identity_core_defect(island) == 0.0


def test_equivariance(island):
    equivariance, translation, _, _ = equivariance_and_energy_drift(
        island, island_check_batch(island, n=1000))
    assert equivariance <= 1e-9
    assert translation <= 1e-9


def test_symmetry_batch_is_made_of_group_orbits(island, monkeypatch):
    # ceil(n/4) torus points and one disc's annulus sample, each as +-p + v
    # for the four half-lattice translations v: the batch size of n torus
    # points and four annulus samples with their negatives.  They are the
    # orbit slice of the island's check batch, the first rows of its one
    # evaluation of Fhat
    seen = []
    ev = IslandMap._eval
    monkeypatch.setattr(IslandMap, "_eval", lambda self, p, direction=1, with_jac=False:
                        seen.append(p) or ev(self, p, direction, with_jac))
    orbits = island_check_batch(island, n=1000).orbits
    (rows,) = seen
    assert orbits.shape == (2, 4, 250 + ANNULUS_SAMPLES, 2)
    assert np.array_equal(rows[:orbits.size // 2], orbits.reshape(-1, 2))
    assert np.max(np.abs(torus_diff(orbits[1], -orbits[0]))) <= 1e-15
    assert np.max(np.abs(torus_diff(orbits - island.centers[:, None],
                                    orbits[:, :1]))) <= 1e-15


def test_island_check_batch_integrates_the_flow_once(island, monkeypatch):
    # the symmetry report and link_saddles read one evaluation of Fhat, so
    # the island checks make one flow integration where they made two
    calls = []
    steps = blowup._midpoint_steps
    monkeypatch.setattr(blowup, "_midpoint_steps",
                        lambda *a, **k: calls.append(1) or steps(*a, **k))
    batch = island_check_batch(island, n=1000)
    symmetry_and_identity_report(island, batch)
    link_saddles(island, batch)
    assert len(calls) == 1


@pytest.mark.parametrize("delta, eps", [(0.15, 0.24), (0.001, 0.002)])
def test_check_batch_slices_are_their_separate_evaluations(delta, eps):
    # the saddle rows converge in fewer Newton iterations than the orbit
    # rows' flow rows, so sharing one integration relies on each row
    # stopping on its own: every slice is its separate evaluation, bit for
    # bit, and so are both reports
    island = IslandMap(delta, eps)
    batch = island_check_batch(island, n=1000)
    orbits = batch.orbits.reshape(-1, 2)
    alone = island._eval(orbits, with_jac=True)
    assert batch.orbit_images.tobytes() == island(orbits).tobytes() == alone[0].tobytes()
    img, J = island._eval(batch.saddle_rows, with_jac=True)
    assert batch.saddle_images.tobytes() == img.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(batch.saddle_jac, J))
    again = island_check_batch(island, n=1000)
    shared = symmetry_and_identity_report(island, batch)
    assert shared == symmetry_and_identity_report(island, again)
    assert [d["fd_multipliers"].tobytes() for d in link_saddles(island, batch)] == \
        [d["fd_multipliers"].tobytes() for d in link_saddles(island, again)]


@pytest.mark.parametrize("delta, eps", [(0.15, 0.24)] + EDGE_PROFILES)
def test_island_flow_energy_drift_at_edge_profiles(delta, eps):
    # the annulus sample, under the signs and the four translations, puts
    # 8 ANNULUS_SAMPLES flow rows in the discs, so the drift reads the flow
    # even where no torus point lands in a disc (none of 2000 at delta =
    # 0.001); it stays under the suite's 1e-5 gate (2.6e-6 at most over
    # these profiles), and both symmetries read at most 1e-12 (9.4e-14)
    island = IslandMap(delta, eps)
    equivariance, translation, drift, rows = equivariance_and_energy_drift(
        island, island_check_batch(island, n=1000))
    assert rows >= 2 * 4 * ANNULUS_SAMPLES
    assert drift < 1e-5
    assert max(equivariance, translation) <= 1e-12


def test_conjugacy_with_automorphism(island):
    assert conjugacy_defect(island, n=1000) <= 1e-8


def test_conjugacy_defect_checks_as_many_points_as_asked(monkeypatch):
    # at delta = 0.249 the island covers 22 % of the torus, so one draw of
    # 4 n points holds about 878 island points at n = 1000; further draws
    # from the same generator make up the rest
    seen = []
    call = IslandMap.__call__
    monkeypatch.setattr(IslandMap, "__call__", lambda self, p: seen.append(p) or call(self, p))
    island = IslandMap(0.249, 0.2499)
    assert conjugacy_defect(island, n=1000) <= 1e-8
    (pts,) = seen
    assert pts.shape == (1000, 2)
    assert island.island_mask(pts).all()


def test_symmetry_report_keys(island):
    rep = symmetry_and_identity_report(island, island_check_batch(island, n=400))
    assert rep["identity_at_centers"] == 0.0
    assert rep["identity_core"] == 0.0
    assert rep["equivariance"] <= 1e-9
    assert rep["translation"] <= 1e-9
    assert rep["energy_drift"] <= 1e-5
    assert rep["conjugacy"] <= 1e-8


def test_symplectic_defect_all_regimes(island):
    rng = np.random.default_rng(11)
    prof = island.profile
    n = 10_000
    pts = [rng.random((n - 6000, 2))]
    # force samples into the flow discs and the surgery annuli
    for lo_r, hi_r, m in ((0.0, prof.rho_lo, 3000),
                          (prof.rho_lo * 1.001, prof.rho_hi, 3000)):
        rho = rng.uniform(lo_r, hi_r, m)
        th = rng.uniform(0, 2 * np.pi, m)
        w = from_polar(np.stack([rho, th], axis=-1))
        c = island.centers[rng.integers(0, 4, m)]
        pts.append(wrap_torus(c + w @ island.R.T))
    P = np.concatenate(pts, axis=0)
    desc = island.descriptor()
    assert np.max(desc.symplectic_defect(P)) <= 1e-8


def _disc_points(island, rho_lo, rho_hi, m, seed):
    """m points per center with chart radius rho in [rho_lo, rho_hi)."""
    rng = np.random.default_rng(seed)
    rho = rng.uniform(rho_lo, rho_hi, (4, m))
    th = rng.uniform(0, 2 * np.pi, (4, m))
    w = from_polar(np.stack([rho, th], axis=-1)) @ island.R.T
    return wrap_torus(island.centers[:, None, :] + w)


def test_lattice_chart_matches_nearest_of_four_centres(island):
    prof = island.profile
    rng = np.random.default_rng(27)
    th = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    on_eps = prof.eps * np.stack([np.cos(th), np.sin(th)], axis=-1)
    edge = np.concatenate([
        wrap_torus(np.array([[-1e-300, 0.3], [0.3, -1e-300],
                             [-1e-300, -1e-300]])),  # 1.0 coordinates
        island.centers,
        # ties between two or four centres
        np.array([[0.25, 0.1], [0.75, 0.1], [0.1, 0.25], [0.1, 0.75],
                  [0.25, 0.25], [0.75, 0.75], [0.25, 0.75], [0.75, 0.25]]),
        wrap_torus(island.centers[:, None, :] + on_eps).reshape(-1, 2),
    ])
    P = np.concatenate([rng.random((5000, 2)), edge])
    # reference: offsets to all four centres, then the nearest one
    d4 = torus_diff(P[None, :, :], island.centers[:, None, :])
    r4 = np.sum(d4 * d4, axis=-1)
    k = np.argmin(r4, axis=0)
    cols = np.arange(len(P))
    d, r2 = island._chart(P)
    assert d.shape == P.shape and r2.shape == (len(P),)
    assert np.array_equal(d.view(np.int64), d4[k, cols].view(np.int64))
    assert np.array_equal(r2.view(np.int64), r4[k, cols].view(np.int64))


def test_value_and_jacobian_bitwise_all_regimes(island):
    prof = island.profile
    core = _disc_points(island, 0.0, prof.rho0, 8, 21).reshape(-1, 2)
    flow = _disc_points(island, prof.rho0, prof.rho_lo, 8, 22).reshape(-1, 2)
    ann = _disc_points(island, prof.rho_lo * 1.001, prof.rho_hi, 8,
                       23).reshape(-1, 2)
    rng = np.random.default_rng(24)
    far = rng.random((400, 2))
    far = far[island._chart(far)[1] >= prof.eps**2][:32]
    P = np.concatenate([core, flow, ann, far])
    f = island.descriptor()
    img, J = f.value_and_jacobian(P)
    assert np.array_equal(img, f(P))
    assert np.array_equal(J, f.jacobian(P))


def test_mixed_disc_batch_matches_per_disc(island):
    # flow and annulus points of all four discs in one batch
    prof = island.profile
    per_disc = _disc_points(island, prof.rho0, prof.rho_hi, 32, 25)
    img, J = island._eval(per_disc.reshape(-1, 2), with_jac=True)
    img = img.reshape(4, -1, 2)
    J = stacked(J).reshape(4, -1, 2, 2)
    for i, c in enumerate(island.centers):
        img_i, J_i = island._eval(per_disc[i], with_jac=True)
        J_i = stacked(J_i)
        assert np.max(np.abs(torus_diff(img[i], img_i))) <= 1e-12
        assert np.max(np.abs(J[i] - J_i)) <= 1e-12
        # flow points against the island flow in their own disc's chart
        d = torus_diff(per_disc[i], c)
        fl = np.sum(d * d, axis=-1) <= prof.delta**2
        ref, J_ref = island._flow(per_disc[i][fl], d[fl], SIGMA, True)
        assert np.max(np.abs(torus_diff(img[i][fl], ref))) <= 1e-12
        assert np.max(np.abs(J[i][fl] - stacked(J_ref))) <= 1e-12


def test_value_and_jacobian_batch_independent(island):
    # every point's image and Jacobian are the same bits whatever batch it
    # is evaluated in
    P = np.random.default_rng(26).random((572, 2))
    f = island.descriptor()
    img, J = f.value_and_jacobian(P)
    for k, p in enumerate(P):
        img_k, J_k = f.value_and_jacobian(p[None])
        assert np.array_equal(img_k[0], img[k])
        assert np.array_equal(J_k[0], J[k])


def test_psi_inv_on_empty_and_scalar_targets():
    prof = SurgeryProfile()
    out = prof.psi_inv(np.empty(0))
    assert isinstance(out, np.ndarray) and out.shape == (0,)
    v = float(prof.psi(0.5 * (prof.r1 + prof.r2)))
    root = prof.psi_inv(v)
    assert isinstance(root, float)
    assert root == prof.psi_inv(np.array([v]))[0]


def test_value_and_jacobian_of_an_empty_batch(island):
    for direction in (1, -1):
        img, J = island._eval(np.empty((0, 2)), direction, with_jac=True)
        assert img.shape == (0, 2) and stacked(J).shape == (0, 2, 2)
        img, J = island._eval(np.empty((0, 2)), direction)
        assert img.shape == (0, 2) and J is None


def test_batch_with_no_point_in_a_disc(island):
    # such a batch returns before the flow branch; its rows are the bits
    # they get in a batch that also holds disc points
    P = np.random.default_rng(27).random((400, 2))
    r2 = island._chart(P)[1]
    inside, outside = P[r2 <= island._in2], P[r2 > island._in2]
    assert len(inside) and len(outside)
    for direction in (1, -1):
        img, J = island._eval(outside, direction, with_jac=True)
        img_all, J_all = island._eval(np.concatenate([outside, inside]), direction,
                                      with_jac=True)
        J, J_all = stacked(J), stacked(J_all)
        assert np.array_equal(img, img_all[:len(outside)])
        assert np.array_equal(J, J_all[:len(outside)])
        assert np.array_equal(island._eval(outside, direction)[0], img)
        # the shape of the batch is kept
        img3, J3 = island._eval(outside[:6].reshape(2, 3, 2), direction, with_jac=True)
        assert img3.shape == (2, 3, 2) and stacked(J3).shape == (2, 3, 2, 2)
        assert np.array_equal(img3.reshape(6, 2), img[:6])


def test_jacobian_matches_finite_differences(island):
    # DFhat = K2 A K1 against central differences of Fhat itself, on the
    # surgery annuli and outside them.  Entries reach ~150 next to the link
    # circles, so each point's error is taken relative to its largest
    # entry (floor 1.6e-7 on the annuli, 4.3e-9 outside).
    prof = island.profile
    ann = _disc_points(island, prof.rho_lo * 1.001, prof.rho_hi, 100,
                       31).reshape(-1, 2)
    far = np.random.default_rng(32).random((2000, 2))
    far = far[island._chart(far)[1] >= prof.eps**2][:200]
    f = island.descriptor()
    for P in (ann, far):
        J = f.jacobian(P)
        J_fd = finite_difference_jacobian(f, P, h=1e-7, wrap_output=True)
        err = np.max(np.abs(J - J_fd), axis=(-2, -1))
        assert np.max(err / np.max(np.abs(J), axis=(-2, -1))) <= 1e-5


def test_surgery_is_exactly_the_identity_off_the_annuli(island):
    # off the annuli psi and psi^{-1} are the identity, so s = 1 and s' = 0
    # exactly: the images are the inputs bit for bit and K = I
    prof = island.profile
    th = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    on_eps = prof.eps * np.stack([np.cos(th), np.sin(th)], axis=-1)
    far = np.concatenate([
        np.random.default_rng(33).random((2000, 2)),
        wrap_torus(island.centers[:, None, :] + on_eps).reshape(-1, 2)])
    # a coordinate of 1.0 wraps to 0.0 first
    far = wrap_torus(far[island._chart(far)[1] >= prof.eps**2])
    d, r2 = island._chart(far)
    Psi = island.surgery_descriptor()
    assert np.array_equal(Psi(far), far)
    assert np.array_equal(Psi.inverse(far), far)
    eye = np.broadcast_to(np.eye(2), far.shape + (2,))
    assert np.array_equal(Psi.jacobian(far), eye)
    for inverse in (False, True):
        img, K = island._surgery(far, d, r2, inverse, True)
        assert np.array_equal(img, far)
        assert all(np.all(k == v) for k, v in zip(K, (1.0, 0.0, 1.0)))
    # psi^{-1} leaves an exact centre where it is, without a warning
    assert np.array_equal(Psi.inverse(island.centers), island.centers)


def test_inverse_roundtrip(island):
    rng = np.random.default_rng(12)
    P = rng.random((500, 2))
    err_fb = np.max(np.abs(torus_diff(island.inverse(island(P)), P)))
    err_bf = np.max(np.abs(torus_diff(island(island.inverse(P)), P)))
    assert err_fb <= 1e-9
    assert err_bf <= 1e-9


def test_boundary_circle_invariance(island):
    prof = island.profile
    th = np.linspace(0.0, 2 * np.pi, 64, endpoint=False) + 0.013
    w = prof.delta * np.stack([np.cos(th), np.sin(th)], axis=-1)
    p = wrap_torus(island.centers[0] + w @ island.R.T)
    for _ in range(100):
        p = island(p)
        d = torus_diff(p, island.centers[0])
        rho = 0.5 * np.sum(d * d, axis=-1)
        assert np.max(np.abs(rho - prof.rho_lo)) <= 1e-9


def test_island_orbit_invariance(island):
    rng = np.random.default_rng(13)
    pts = rng.random((200, 2))
    pts = pts[island.island_mask(pts)][:32]
    delta = island.profile.delta

    def min_radius(q):
        _, r2 = island._chart(wrap_torus(q))
        return np.sqrt(r2)

    p = pts.copy()
    q = pts.copy()
    for _ in range(100):
        p = island(p)
        q = island.inverse(q)
        assert np.min(min_radius(p)) >= delta - 1e-10
        assert np.min(min_radius(q)) >= delta - 1e-10


@pytest.mark.parametrize("delta, eps, grid, n",
                         [(0.15, 0.24, 100, 200), (0.15, 0.24, 15, 50)]
                         + [(d, e, 16, 50) for d, e in EDGE_PROFILES])
def test_no_admitted_island_cell_stops_mid_orbit(delta, eps, grid, n):
    # the map sends the island into itself, so the exponent grid's cocycle
    # stops no row after its start: a cell is valid exactly when its start
    # lies in the island
    island = IslandMap(delta, eps)
    rep = entropy_estimate(island.descriptor(), resolution=grid, n=n,
                           exclude=lambda q: ~island.island_mask(q))
    admitted = island.island_mask(_cell_centers(grid)).reshape(grid, grid)
    assert np.array_equal(rep.valid, admitted)


def test_island_mask_and_area(island):
    assert not island.island_mask(island.centers).any()
    far = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75]])
    assert island.island_mask(far).all()
    assert abs(island.island_area() - (1.0 - 4.0 * np.pi * 0.15**2)) <= 1e-15


# ---------------------------------------------------------------------
# saddles on the link circles
# ---------------------------------------------------------------------

def test_link_saddles(island):
    data = link_saddles(island, island_check_batch(island))
    assert len(data) == 16
    for ic in range(4):
        per = [d for d in data if d["center"] == ic]
        assert len(per) == 4
        ths = sorted(d["theta"] for d in per)
        assert np.max(np.abs(np.array(ths)
                             - np.array([0.0, 0.5, 1.0, 1.5]) * np.pi)) <= 1e-15
    tgt = np.array([1.0 / EXP_2SIGMA, EXP_2SIGMA])
    for d in data:
        assert d["fixed_defect"] <= 1e-9
        assert np.max(np.abs(d["multipliers"] / tgt - 1.0)) <= 1e-4
        assert np.max(np.abs(d["fd_multipliers"] / tgt - 1.0)) <= 1e-4


@pytest.mark.parametrize("delta, eps", [(0.15, 0.24)] + EDGE_PROFILES)
def test_saddle_fd_multipliers_at_edge_profiles(delta, eps):
    # the report metric saddle_fd_multiplier_error: the probe steps scale
    # with min(delta, eps - delta), so narrow annuli and small discs read
    # about as well as the default (0.455 at (0.2, 0.2001) with fixed steps)
    tgt = np.array([1.0 / EXP_2SIGMA, EXP_2SIGMA])
    island = IslandMap(delta, eps)
    data = link_saddles(island, island_check_batch(island))
    assert max(np.max(np.abs(d["fd_multipliers"] / tgt - 1.0)) for d in data) < 1e-3


def test_island_field_call_budget(island, monkeypatch):
    # each evaluation of Fhat integrates FLOW_STEPS = 20 Suzuki steps, 100
    # midpoint substeps; the symmetry report and link_saddles share one
    # (island_check_batch), where simplified Newton takes 5.2 field calls per
    # substep, 520 calls in all (821 in two integrations)
    calls = []
    field = island.system.field
    monkeypatch.setattr(island.system, "field", lambda p: calls.append(1) or field(p))
    batch = island_check_batch(island, n=1000)
    symmetry_and_identity_report(island, batch)
    link_saddles(island, batch)
    assert len(calls) <= 550


def test_link_saddles_checks_the_map_every_caller_evaluates(island, monkeypatch):
    # the multipliers come from Fhat's own Jacobian at the saddles, and the
    # fixed-point defects from Fhat's own images, bit for bit
    seen = []
    closed_form = blowup._saddle_multipliers
    monkeypatch.setattr(blowup, "_saddle_multipliers",
                        lambda J: seen.append(J) or closed_form(J))
    data = link_saddles(island, island_check_batch(island))
    P = np.array([d["point"] for d in data])
    assert np.array_equal(stacked(seen[0]), island.descriptor().jacobian(P))
    assert np.array_equal([d["multipliers"] for d in data], closed_form(seen[0]))
    defect = np.max(np.abs(torus_diff(island(P), P)), axis=-1)
    assert np.array_equal([d["fixed_defect"] for d in data], defect)


def test_regime_consistency(island):
    assert regime_consistency(island) <= 1e-9


def test_flow_matches_linear_precondition(island):
    assert flow_matches_linear_map(island) <= 1e-8


# ---------------------------------------------------------------------
# the standalone surgery map
# ---------------------------------------------------------------------

def test_surgery_identity_far_from_centers(island):
    Psi = island.surgery_descriptor()
    far = np.array([[0.25, 0.25], [0.75, 0.75], [0.25, 0.78], [0.5 + 0.26, 0.5]])
    assert np.array_equal(Psi(far), far)


def test_surgery_collapses_link_circle(island):
    Psi = island.surgery_descriptor()
    th = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)
    w = island.profile.delta * np.stack([np.cos(th), np.sin(th)], axis=-1)
    for c in island.centers:
        img = Psi(wrap_torus(c + w @ island.R.T))
        d = torus_diff(img, c)
        rho_img = 0.5 * np.sum(d * d, axis=-1)
        assert np.max(rho_img) <= 1e-12


def test_surgery_odd_symmetry(island):
    Psi = island.surgery_descriptor()
    rng = np.random.default_rng(14)
    prof = island.profile
    rho = rng.uniform(prof.rho_lo * 1.01, prof.rho_hi, 200)
    th = rng.uniform(0, 2 * np.pi, 200)
    w = from_polar(np.stack([rho, th], axis=-1)) @ island.R.T
    for c in island.centers:
        p = wrap_torus(c + w)
        q = wrap_torus(c - w)
        lhs = torus_diff(Psi(q), c)
        rhs = -torus_diff(Psi(p), c)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_surgery_jacobian_density_and_inverse(island):
    Psi = island.surgery_descriptor()
    rng = np.random.default_rng(15)
    prof = island.profile
    rho = rng.uniform(prof.rho_lo * 1.01, prof.rho_hi * 0.999, 300)
    th = rng.uniform(0, 2 * np.pi, 300)
    p = wrap_torus(island.centers[2]
                   + from_polar(np.stack([rho, th], axis=-1)) @ island.R.T)
    J = Psi.jacobian(p)
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    assert np.max(np.abs(det - prof.psi_d1(rho))) <= 1e-10
    img, J2 = Psi.value_and_jacobian(p)
    assert np.array_equal(img, Psi(p)) and np.array_equal(J2, J)
    back = Psi.inverse(Psi(p))
    assert np.max(np.abs(torus_diff(back, p))) <= 1e-10


def test_surgery_jacobian_matches_finite_differences(island):
    # K = s I + s' d d^T against central differences of Psi itself on the
    # annuli, each point's error relative to its largest entry.  These
    # points read 6.3e-8 at h = 1e-7 (1.1e-7 on another 400 draws), the
    # truncation next to the link circles; a K without its s' d d^T term
    # reads 530
    prof = island.profile
    P = _disc_points(island, prof.rho_lo * 1.001, prof.rho_hi, 100, 34).reshape(-1, 2)
    Psi = island.surgery_descriptor()
    J = Psi.jacobian(P)
    J_fd = finite_difference_jacobian(Psi, P, h=1e-7, wrap_output=True)
    err = np.max(np.abs(J - J_fd), axis=(-2, -1))
    assert np.max(err / np.max(np.abs(J), axis=(-2, -1))) <= 1e-5


def test_surgery_rejects_interior(island):
    Psi = island.surgery_descriptor()
    inside = wrap_torus(island.centers[1] + np.array([0.01, 0.0]))
    with pytest.raises(ValueError):
        Psi(inside)
    on_circle = wrap_torus(island.centers[1]
                           + island.R @ np.array([island.profile.delta, 0.0]))
    with pytest.raises(ValueError):
        Psi.jacobian(on_circle)
