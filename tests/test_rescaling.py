"""Saddle-passage rescaling: normal forms, transitions, charts, the box
perturbation, and the Henon-product verification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import Polynomial

from islab.maps import compose, finite_difference_jacobian, henon_like
from islab.rescaling import (
    BoxBump,
    RescalingCharts,
    RescalingModel,
    SaddleNormalForm,
    build_perturbation,
    build_transition,
    corollary_composition,
    desk_model,
    r_sequence,
    verify_rescaling,
    xi_eta,
)

QUAD_KICKS = [Polynomial([0.0, 0.0, 0.03]), Polynomial([0.01, 0.0, -0.02]),
              Polynomial([0.0, 0.02, 0.04])]


# ---------------------------------------------------------------------------
# the R recursion


def test_r_sequence_unit_example():
    R = r_sequence([1.0, 1.0, 1.0], [-1.0, -1.0, -1.0])
    assert np.array_equal(R, np.ones(3))


def test_r_sequence_wrap_consistency():
    rng = np.random.default_rng(0)
    for N in (3, 5, 7):
        b = rng.uniform(0.3, 2.0, N)
        R = r_sequence(b, -1.0 / b)  # wrap check runs inside
        assert R[0] == 1.0
        assert np.all(R > 0)


def test_r_sequence_rejects_even_length():
    with pytest.raises(ValueError, match="odd"):
        r_sequence([1.0, 1.0], [-1.0, -1.0])


def test_r_sequence_rejects_bad_constants():
    with pytest.raises(ValueError, match="b_i c_i"):
        r_sequence([1.0, 1.0, 1.0], [-1.0, -1.0, -0.9])


@given(st.lists(st.floats(0.3, 2.0), min_size=3, max_size=9).filter(
    lambda v: len(v) % 2 == 1))
@settings(max_examples=40, deadline=None)
def test_r_sequence_wrap_property(bvals):
    b = np.array(bvals)
    R = r_sequence(b, -1.0 / b, wrap_tol=1e-9)
    # the recursion holds at every cyclic index
    N = len(b)
    for i in range(N):
        lhs = R[(i + 1) % N]
        rhs = -(-1.0 / b[(i + 1) % N]) * b[i] * R[(i - 1) % N]
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# saddle normal form


def test_linear_normal_form_is_exact():
    T0 = SaddleNormalForm(0.4)
    out = T0.iterate(np.array([0.7, -0.3]))
    assert out[0] == 0.4 * 0.7
    assert out[1] == -0.3 / 0.4


def test_normal_form_conserves_xy():
    T0 = SaddleNormalForm(0.4, 0.1)
    p = np.array([[0.5, 0.2], [0.9, -0.4], [1.2, 0.05]])
    orb = p.copy()
    for _ in range(100):
        orb = T0.iterate(orb)
    assert np.max(np.abs(orb[:, 0] * orb[:, 1] - p[:, 0] * p[:, 1])) <= 1e-12


def test_normal_form_axes_and_determinant():
    T0 = SaddleNormalForm(0.4, 0.1)
    ys = np.stack([np.zeros(9), np.linspace(-1, 1, 9)], axis=-1)
    xs = np.stack([np.linspace(-1, 1, 9), np.zeros(9)], axis=-1)
    # p(0, y) = 0 and q(x, 0) = 0: the axes map exactly linearly
    assert np.max(np.abs(T0.iterate(ys)[:, 0])) == 0.0
    assert np.max(np.abs(T0.iterate(xs)[:, 1])) == 0.0
    assert np.max(np.abs(T0.iterate(xs)[:, 0] - 0.4 * xs[:, 0])) == 0.0
    d = T0.descriptor(1)
    pts = np.stack([np.linspace(-1, 1, 50), np.linspace(1, -1, 50)], axis=-1)
    assert np.max(d.symplectic_defect(pts)) <= 1e-12


def test_normal_form_closed_form_iterate():
    T0 = SaddleNormalForm(0.4, 0.1)
    p = np.array([[0.5, 0.2], [0.9, -0.4]])
    step = p.copy()
    for _ in range(7):
        step = T0.iterate(step)
    assert np.max(np.abs(T0.iterate(p, 7) - step)) <= 1e-12
    d = T0.descriptor(7)
    assert np.max(np.abs(d.inv(d(p)) - p)) <= 1e-12


def test_normal_form_rejects_bad_multiplier():
    for lam in (0.0, 1.0, 1.4, -0.4):
        with pytest.raises(ValueError):
            SaddleNormalForm(lam)


# ---------------------------------------------------------------------------
# boundary-value correction functions


def test_xi_eta_residual_and_linear_case():
    T0 = SaddleNormalForm(0.4, 0.1)
    xi, eta, info = xi_eta(T0, 8, ((0.8, 3.4), (0.25, 0.40)))
    assert info["residual"] <= 1e-12
    lin = SaddleNormalForm(0.4)
    _, _, info_lin = xi_eta(lin, 8, ((0.8, 3.4), (0.25, 0.40)))
    assert info_lin["sup_xi"] == 0.0
    assert info_lin["sup_eta"] == 0.0


def test_xi_eta_reconstructs_the_passage():
    T0 = SaddleNormalForm(0.4, 0.1)
    k, xbar, y = 9, 2.3, 0.31
    xv, ev, _ = T0.xi_eta(k, xbar, y)
    entry = np.array([xbar, 0.4 ** k * y + ev])
    out = entry.copy()
    for _ in range(k):
        out = T0.iterate(out)
    assert abs(out[0] - (0.4 ** k * xbar + xv)) <= 1e-10
    assert abs(out[1] - y) <= 1e-10


def test_xi_eta_scaled_sup_decreases():
    T0 = SaddleNormalForm(0.4, 0.1)
    sups = []
    for k in (6, 8, 10, 12):
        _, _, info = xi_eta(T0, k, ((0.8, 3.4), (0.25, 0.40)))
        sups.append(info["sup_xi"] / 0.4 ** k)
    assert all(a > b for a, b in zip(sups, sups[1:]))


def test_xi_eta_rejects_oversized_window():
    T0 = SaddleNormalForm(0.4, 0.1)
    with pytest.raises(ValueError, match="window too large"):
        xi_eta(T0, 2, ((0.0, 80.0), (0.0, 40.0)))


def test_passage_invariant_overflow_guard():
    T0 = SaddleNormalForm(0.4, 0.1)
    with pytest.raises(ValueError, match="overflow-safe"):
        T0.passage_invariant(1.0, 0.3, 800)


# ---------------------------------------------------------------------------
# transition maps


def test_transition_endpoint_and_cross_coefficient():
    T1 = build_transition(1.62, 0.32, 0.5, -2.0, u2=0.15, u3=0.05, a=0.1)
    out = T1(np.array([0.0, 0.32]))
    assert abs(out[0] - 1.62) <= 1e-14
    assert abs(out[1]) <= 1e-14
    J = T1.jacobian(np.array([0.0, 0.32]))
    assert abs(np.linalg.det(J) - 1.0) <= 1e-10
    assert T1.d == pytest.approx(0.2, abs=1e-15)


def test_transition_symplectic_and_invertible_on_box():
    T1 = build_transition(1.62, 0.32, 0.5, -2.0, u2=0.15, u3=0.05, a=0.1)
    rng = np.random.default_rng(1)
    pts = np.stack([rng.uniform(-0.05, 0.05, 400),
                    rng.uniform(0.27, 0.37, 400)], axis=-1)
    d = T1.descriptor()
    assert np.max(d.symplectic_defect(pts)) <= 1e-9
    assert np.max(np.abs(d.inv(d(pts)) - pts)) <= 1e-12


def test_transition_zero_tails_affine():
    T1 = build_transition(1.62, 0.32, 0.5, -2.0)
    rng = np.random.default_rng(2)
    pts = np.stack([rng.uniform(-0.05, 0.05, 100),
                    rng.uniform(0.27, 0.37, 100)], axis=-1)
    aff = np.stack([1.62 + 0.5 * (pts[:, 1] - 0.32), -2.0 * pts[:, 0]], axis=-1)
    assert np.max(np.abs(T1(pts) - aff)) == 0.0


def test_transition_second_tail_vanishes_on_entry_axis():
    T1 = build_transition(1.62, 0.32, 0.5, -2.0, u2=0.15, u3=0.05, a=0.1)
    pts = np.stack([np.zeros(7), np.linspace(0.27, 0.37, 7)], axis=-1)
    _, phi2 = T1.tails(pts)
    assert np.max(np.abs(phi2)) == 0.0


def test_transition_rejects_bad_constants():
    with pytest.raises(ValueError, match="b\\*c"):
        build_transition(1.0, 0.3, 0.5, -1.9)
    with pytest.raises(ValueError, match="0.2"):
        build_transition(1.0, 0.3, 0.5, -2.0, u2=0.3)


# ---------------------------------------------------------------------------
# model assembly


def test_model_scale_and_parity_validation():
    mk_t1 = lambda xy: [build_transition(x, y, 0.5, -2.0) for x, y in xy]
    with pytest.raises(ValueError, match="mu\\^r"):
        RescalingModel(SaddleNormalForm(0.7), mk_t1(
            [(0.9, 0.30), (1.62, 0.32), (3.24, 0.34)]), mu=0.8, r=2)
    with pytest.raises(ValueError, match="odd"):
        RescalingModel(SaddleNormalForm(0.4), mk_t1(
            [(0.9, 0.30), (1.62, 0.32)]), mu=0.8)


def test_desk_model_r_sequence_is_unit():
    m = desk_model()
    assert np.array_equal(m.R, np.ones(3))
    assert abs(m.T0.lam) < m.mu ** m.r < 1.0


def test_charts_reduce_to_linear_offsets():
    m = desk_model(nonlinearity=0.0, tails=False)
    ch = RescalingCharts(m, 10)
    assert np.max(np.abs(ch.beta)) == 0.0
    assert np.max(np.abs(ch.gamma)) == 0.0
    # chart round trip
    XY = np.array([[0.3, -0.7], [-0.1, 0.4]])
    q = ch.qbar(1)
    assert np.max(np.abs(q.from_plane(q.to_plane(XY)) - XY)) <= 1e-12


# ---------------------------------------------------------------------------
# the box perturbation


def test_perturbation_identity_outside_boxes():
    m = desk_model()
    g, _, bumps = build_perturbation(m, 10, QUAD_KICKS)
    rng = np.random.default_rng(3)
    pts = np.stack([rng.uniform(-1, 5, 2000), rng.uniform(-1, 1, 2000)], axis=-1)
    outside = np.ones(len(pts), bool)
    for b in bumps:
        outside &= b.region(pts) == 0
    assert outside.sum() > 1500
    assert np.max(np.abs(g(pts[outside]) - pts[outside])) == 0.0


def test_perturbation_exact_shear_on_inner_box():
    m = desk_model()
    g, psihats, _ = build_perturbation(m, 10, QUAD_KICKS)
    rng = np.random.default_rng(4)
    i = 1
    xs = rng.uniform(m.x_plus[i] - 0.115, m.x_plus[i] + 0.115, 300)
    ys = rng.uniform(-0.035, 0.035, 300)
    inner = np.stack([xs, ys], axis=-1)
    sheared = np.stack([xs, ys + psihats[i](xs)], axis=-1)
    assert np.max(np.abs(g(inner) - sheared)) <= 1e-10


def test_perturbation_symplectic_and_invertible():
    m = desk_model()
    g, _, _ = build_perturbation(m, 10, QUAD_KICKS)
    rng = np.random.default_rng(5)
    i = 1
    box = np.stack([rng.uniform(m.x_plus[i] - 0.15, m.x_plus[i] + 0.15, 400),
                    rng.uniform(-0.05, 0.05, 400)], axis=-1)
    assert np.max(g.symplectic_defect(box)) <= 1e-9
    assert np.max(np.abs(g.inv(g(box)) - box)) <= 1e-10


def test_perturbation_collar_jacobian_matches_finite_differences():
    # collar points take the integrated flow, never the exact shear; the
    # determinant cannot see a sign slip in the collar Hessian (the Cayley
    # transform of any trace-free matrix has determinant 1), differences can
    m = desk_model()
    g, _, bumps = build_perturbation(m, 10, QUAD_KICKS)
    rng = np.random.default_rng(11)
    i = 1
    box = np.stack([rng.uniform(m.x_plus[i] - 0.15, m.x_plus[i] + 0.15, 2000),
                    rng.uniform(-0.05, 0.05, 2000)], axis=-1)
    collar = box[bumps[i].region(box) == 1][:200]
    assert len(collar) == 200
    J = g.jacobian(collar)
    assert np.max(np.abs(J - np.eye(2))) > 0.1  # the collar flow is not a shear
    assert np.max(np.abs(J - finite_difference_jacobian(g, collar))) <= 1e-5


def test_perturbation_rejects_overlapping_boxes():
    bad = RescalingModel(
        SaddleNormalForm(0.4, 0.1),
        [build_transition(x, y, 0.5, -2.0) for x, y in
         [(0.9, 0.30), (1.05, 0.32), (3.24, 0.34)]], mu=0.8)
    with pytest.raises(ValueError, match="overlap"):
        build_perturbation(bad, 10, QUAD_KICKS)


def test_bump_region_classification():
    b = BoxBump((1.0, 0.0), (0.15, 0.05), (0.115, 0.035))
    pts = np.array([[1.0, 0.0], [1.13, 0.04], [1.2, 0.0], [1.0, 0.2]])
    assert list(b.region(pts)) == [2, 1, 0, 0]
    assert b(np.array([1.0, 0.0])) == 1.0
    assert b(np.array([1.2, 0.0])) == 0.0
    with pytest.raises(ValueError):
        BoxBump((0.0, 0.0), (0.1, 0.05), (0.12, 0.03))


def test_psihat_norms_shrink_with_k():
    m = desk_model()
    sups = []
    for k in (8, 10, 12, 14):
        rep = verify_rescaling(m, k, QUAD_KICKS)
        sups.append(rep["psihat_sup"])
        # C^2 norms also decay
        if len(sups) > 1:
            assert max(rep["psihat_norms"]) < prev_norms
        prev_norms = max(rep["psihat_norms"])
    for a, b in zip(sups, sups[1:]):
        assert b / a <= 0.8 ** 2 * 1.1


# ---------------------------------------------------------------------------
# the product formula


def test_affine_configuration_is_exact():
    m = desk_model(nonlinearity=0.0, tails=False)
    for k in (8, 10, 12, 14):
        rep = verify_rescaling(m, k)
        assert rep["error"] <= 1e-9
        assert rep["phi_defect_max"] <= 1e-9
        assert rep["n"] == 3 * (k + 1)


def test_error_strictly_decreases_in_k():
    m = desk_model()
    errs = [verify_rescaling(m, k, QUAD_KICKS)["error"] for k in (8, 10, 12, 14)]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[0] < 0.05  # sanity scale


def test_phi_defects_do_not_depend_on_the_kicks():
    m = desk_model()
    rng = np.random.default_rng(7)
    base = None
    for _ in range(5):
        kicks = [Polynomial(rng.uniform(-0.05, 0.05, 3)) for _ in range(3)]
        pd = np.array(verify_rescaling(m, 12, kicks)["phi_defects"])
        if base is None:
            base = pd
        else:
            assert np.max(np.abs(pd - base)) <= 1e-9


def test_legs_are_symplectic_on_chart_windows():
    m = desk_model()
    k = 10
    g, _, _ = build_perturbation(m, k, QUAD_KICKS)
    ch = RescalingCharts(m, k)
    t = np.linspace(-1, 1, 15)
    X, Y = np.meshgrid(t, t, indexing="ij")
    mask = X ** 2 + Y ** 2 <= 1
    disc = np.stack([X[mask], Y[mask]], axis=-1)
    for i in range(3):
        leg = compose(g, m.T1[(i + 1) % 3].descriptor(), m.T0.descriptor(k))
        pts = ch.qbar(i).to_plane(disc)
        assert np.max(leg.symplectic_defect(pts)) <= 1e-9
        assert np.max(np.abs(leg.inv(leg(pts)) - pts)) <= 1e-10


def test_verify_rejects_small_k_and_bad_kick_count():
    m = desk_model()
    with pytest.raises(ValueError):
        verify_rescaling(m, 2, QUAD_KICKS)
    with pytest.raises(ValueError, match="one kick"):
        verify_rescaling(m, 10, QUAD_KICKS[:2])


# ---------------------------------------------------------------------------
# the corollary composition


def test_corollary_trivial_case_coincides():
    tgt, pair = corollary_composition([], None)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1, 1, (200, 2))
    assert np.max(np.abs(tgt(pts) - pair(pts))) == 0.0
    # the bare target is the inverse quarter-turn kick map
    expect = np.stack([-pts[:, 1], pts[:, 0]], axis=-1)
    assert np.max(np.abs(tgt(pts) - expect)) == 0.0


def test_corollary_identity_at_thousand_points():
    rng = np.random.default_rng(9)
    p1 = Polynomial(rng.uniform(-0.5, 0.5, 3))
    p2 = Polynomial(rng.uniform(-0.5, 0.5, 3))
    cube = Polynomial(rng.uniform(-0.3, 0.3, 4))
    tgt, pair = corollary_composition([p1, p2], cube)
    pts = rng.uniform(-1, 1, (1000, 2))
    H = lambda q: henon_like(lambda y, _q=q: _q(y))
    full = compose(H(cube), H(Polynomial([0.0])), H(Polynomial([0.0])),
                   H(p2), H(p1))
    assert np.max(np.abs(full(pts) - pair(pts))) <= 1e-10
    assert np.max(pair.symplectic_defect(pts)) <= 1e-9
    assert np.max(np.abs(pair.inv(pair(pts)) - pts)) <= 1e-10


def test_corollary_rejects_odd_kick_list():
    with pytest.raises(ValueError, match="even"):
        corollary_composition([Polynomial([0.0, 0.1])], None)
