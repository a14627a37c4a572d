"""Tests for the blown-up torus automorphism (surgery + island flow)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from islab.blowup import (
    FLOW_STEPS,
    SIGMA,
    IslandMap,
    SurgeryProfile,
    eigen_rotation,
    equivariance_defect,
    conjugacy_defect,
    from_polar,
    identity_core_defect,
    island_hamiltonian,
    link_saddles,
    symmetry_and_identity_report,
    to_polar,
)
from islab.maps import finite_difference_jacobian, torus_diff, wrap_torus

from construction_checks import EXP_2SIGMA, flow_matches_linear_map, regime_consistency


@pytest.fixture(scope="module")
def island():
    return IslandMap()


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


def test_psi_inv_raises_on_nonfinite_residual(monkeypatch):
    prof = SurgeryProfile()
    # psi_inv's residual evaluates the bridge polynomial alone
    monkeypatch.setattr(prof, "_bridge", lambda rho: np.full_like(rho, np.nan))
    v = 0.5 * (prof.r1 - prof.rho_lo)            # below the bridge
    assert prof.psi_inv(v) == v + prof.rho_lo
    with pytest.raises(RuntimeError):
        prof.psi_inv(np.linspace(prof.r1, prof.r2, 9))


def test_psi_inv_raises_at_iteration_cap(monkeypatch):
    import islab.blowup as blowup
    prof = SurgeryProfile()
    monkeypatch.setattr(blowup, "_ROOT_CAP", 2)
    with pytest.raises(RuntimeError):
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
    assert prof.xi_d1(prof.rho0) == 0.0
    assert prof.xi_d1(prof.rho_lo) == 0.0
    assert prof.xi_d2(prof.rho0) == 0.0
    assert prof.xi_d2(prof.rho_lo) == 0.0
    assert prof.xi(prof.rho0 / 2.0) == 0.0


def test_flow_linearization_at_saddle():
    prof = SurgeryProfile()
    sys = island_hamiltonian(prof)
    J = sys.field_jacobian(np.array([prof.rho_lo, 0.0]))
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
    assert equivariance_defect(island, n=1000) <= 1e-9


def test_conjugacy_with_automorphism(island):
    assert conjugacy_defect(island, n=1000) <= 1e-8


def test_symmetry_report_keys(island):
    rep = symmetry_and_identity_report(island, n=400)
    assert rep["identity_at_centers"] == 0.0
    assert rep["identity_core"] == 0.0
    assert rep["equivariance"] <= 1e-9
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
    img, J = island._eval(per_disc.reshape(-1, 2), 1, None, with_jac=True)
    img = img.reshape(4, -1, 2)
    J = J.reshape(4, -1, 2, 2)
    for i, c in enumerate(island.centers):
        img_i, J_i = island._eval(per_disc[i], 1, None, with_jac=True)
        assert np.max(np.abs(torus_diff(img[i], img_i))) <= 1e-12
        assert np.max(np.abs(J[i] - J_i)) <= 1e-12
        # flow points against the island flow in their own disc's chart
        d = torus_diff(per_disc[i], c)
        fl = np.sum(d * d, axis=-1) <= prof.delta**2
        ref, J_ref = island._flow(per_disc[i][fl], d[fl], SIGMA,
                                  FLOW_STEPS, True)
        assert np.max(np.abs(torus_diff(img[i][fl], ref))) <= 1e-12
        assert np.max(np.abs(J[i][fl] - J_ref)) <= 1e-12


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


def test_island_mask_and_area(island):
    assert not island.island_mask(island.centers).any()
    far = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75]])
    assert island.island_mask(far).all()
    assert abs(island.island_area() - (1.0 - 4.0 * np.pi * 0.15**2)) <= 1e-15


# ---------------------------------------------------------------------
# saddles on the link circles
# ---------------------------------------------------------------------

def test_link_saddles(island):
    data = link_saddles(island)
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


def test_surgery_rejects_interior(island):
    Psi = island.surgery_descriptor()
    inside = wrap_torus(island.centers[1] + np.array([0.01, 0.0]))
    with pytest.raises(ValueError):
        Psi(inside)
    on_circle = wrap_torus(island.centers[1]
                           + island.R @ np.array([island.profile.delta, 0.0]))
    with pytest.raises(ValueError):
        Psi.jacobian(on_circle)
