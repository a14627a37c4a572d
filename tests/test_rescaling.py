"""Saddle-passage rescaling: normal forms, transitions, charts, the box
perturbation, and the Henon-product verification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyder, polyval

from construction_checks import (box_region_by_bump, bump_region, finite_difference_jacobian,
                                 perturbation_polynomials, transition_tails, xi_eta)
from islab import cli, rescaling
from islab.config import ExperimentConfig
from islab.maps import compose, henon_like
from islab.rescaling import (
    BoxBump,
    RescalingCharts,
    RescalingModel,
    SaddleNormalForm,
    TransitionMap,
    build_perturbation,
    corollary_composition,
    desk_model,
    r_sequence,
    verify_rescaling,
)

QUAD_KICKS = [Polynomial([0.0, 0.0, 0.03]), Polynomial([0.01, 0.0, -0.02]),
              Polynomial([0.0, 0.02, 0.04])]
# relative gap allowed between the box shears, built in their box
# coordinate, and the x-power Polynomial construction, over a box: that
# construction expands about the O(1) anchor x+_i and cancels it, which
# costs it up to 1.0e-12 of the sup at k = 30 (Psi_i's worst case)
SHEAR_RTOL = 1e-11


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
    out = T0.descriptor(1)(np.array([0.7, -0.3]))
    assert out[0] == 0.4 * 0.7
    assert out[1] == -0.3 / 0.4


def test_normal_form_conserves_xy():
    T0 = SaddleNormalForm(0.4, 0.1)
    p = np.array([[0.5, 0.2], [0.9, -0.4], [1.2, 0.05]])
    orb = p.copy()
    for _ in range(100):
        orb = T0.descriptor(1)(orb)
    assert np.max(np.abs(orb[:, 0] * orb[:, 1] - p[:, 0] * p[:, 1])) <= 1e-12


def test_normal_form_axes_and_determinant():
    T0 = SaddleNormalForm(0.4, 0.1)
    ys = np.stack([np.zeros(9), np.linspace(-1, 1, 9)], axis=-1)
    xs = np.stack([np.linspace(-1, 1, 9), np.zeros(9)], axis=-1)
    # p(0, y) = 0 and q(x, 0) = 0: the axes map exactly linearly
    assert np.max(np.abs(T0.descriptor(1)(ys)[:, 0])) == 0.0
    assert np.max(np.abs(T0.descriptor(1)(xs)[:, 1])) == 0.0
    assert np.max(np.abs(T0.descriptor(1)(xs)[:, 0] - 0.4 * xs[:, 0])) == 0.0
    d = T0.descriptor(1)
    pts = np.stack([np.linspace(-1, 1, 50), np.linspace(1, -1, 50)], axis=-1)
    assert np.max(d.symplectic_defect(pts)) <= 1e-12


def test_normal_form_closed_form_iterate():
    T0 = SaddleNormalForm(0.4, 0.1)
    p = np.array([[0.5, 0.2], [0.9, -0.4]])
    step = p.copy()
    for _ in range(7):
        step = T0.descriptor(1)(step)
    assert np.max(np.abs(T0.descriptor(7)(p) - step)) <= 1e-12


def test_normal_form_iterate_column_matches_each_iterate():
    # each leg of verify_rescaling takes T0^1..T0^k in one call with the
    # iterate count a (k, 1) column; each row must be T0^j's own evaluation
    T0 = SaddleNormalForm(0.4, 0.1)
    rng = np.random.default_rng(11)
    p = rng.uniform(-1.0, 1.0, (37, 2))
    k = 30
    col = T0.descriptor(np.arange(1, k + 1)[:, None])(p)
    assert col.shape == (k, 37, 2)
    for j in range(1, k + 1):
        assert col[j - 1].tobytes() == T0.descriptor(j)(p).tobytes()


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
        out = T0.descriptor(1)(out)
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


def test_passage_invariant_raises_at_cap(monkeypatch):
    # u at (xbar, y, k) = (3.0, 0.9, 1) needs 27 fixed-point sweeps
    T0 = SaddleNormalForm(0.4, 0.1)
    ref = T0.passage_invariant(3.0, 0.9, 1)
    monkeypatch.setattr(rescaling, "PASSAGE_CAP", 27)
    assert T0.passage_invariant(3.0, 0.9, 1) == ref
    monkeypatch.setattr(rescaling, "PASSAGE_CAP", 26)
    with pytest.raises(RuntimeError, match="unconverged"):
        T0.passage_invariant(3.0, 0.9, 1)


def test_passage_invariant_points_do_not_depend_on_their_batch():
    # each point freezes on its own step, so a batch (9 to 27 sweeps)
    # returns exactly what each point returns alone
    T0 = SaddleNormalForm(0.4, 0.1)
    xbar = np.array([2.3, 1.0, 3.0, 2.0])
    y = np.array([0.31, 0.3, 0.9, 0.4])
    u, _ = T0.passage_invariant(xbar, y, 1)
    alone = [T0.passage_invariant(a, b, 1)[0] for a, b in zip(xbar, y)]
    assert np.array_equal(u, alone)


# ---------------------------------------------------------------------------
# transition maps


def test_transition_endpoint_and_cross_coefficient():
    T1 = TransitionMap(1.62, 0.32, 0.5, -2.0, u2=0.15, u3=0.05, a=0.1)
    out = T1(np.array([0.0, 0.32]))
    assert abs(out[0] - 1.62) <= 1e-14
    assert abs(out[1]) <= 1e-14
    J = T1.descriptor().jacobian(np.array([0.0, 0.32]))
    assert abs(np.linalg.det(J) - 1.0) <= 1e-10
    assert T1.d == pytest.approx(0.2, abs=1e-15)


def _transition_inverse(T1, q):
    """T1^-1 = U^-1 o A^-1 o L^-1 in closed form: the bend's root
    s = w - x+ of X = x+ + s + a s^2 in the form that loses no digits as
    a s -> 0, then z = Z X'(w), x = z / c, v = s / b, y = v + y- - u(x)."""
    dX, Z = q[..., 0] - T1.x_plus, q[..., 1]
    s = 2.0 * dX / (1.0 + np.sqrt(1.0 + 4.0 * T1.a * dX))
    x = Z * (1.0 + 2.0 * T1.a * s) / T1.c
    return np.stack([x, s / T1.b + T1.y_minus - polyval(x, T1.u_coef)], axis=-1)


def test_transition_symplectic_and_invertible_on_box():
    T1 = TransitionMap(1.62, 0.32, 0.5, -2.0, u2=0.15, u3=0.05, a=0.1)
    rng = np.random.default_rng(1)
    pts = np.stack([rng.uniform(-0.05, 0.05, 400),
                    rng.uniform(0.27, 0.37, 400)], axis=-1)
    d = T1.descriptor()
    assert np.max(d.symplectic_defect(pts)) <= 1e-9
    assert np.max(np.abs(_transition_inverse(T1, d(pts)) - pts)) <= 1e-12


def test_transition_zero_tails_affine():
    T1 = TransitionMap(1.62, 0.32, 0.5, -2.0)
    rng = np.random.default_rng(2)
    pts = np.stack([rng.uniform(-0.05, 0.05, 100),
                    rng.uniform(0.27, 0.37, 100)], axis=-1)
    aff = np.stack([1.62 + 0.5 * (pts[:, 1] - 0.32), -2.0 * pts[:, 0]], axis=-1)
    assert np.max(np.abs(T1(pts) - aff)) == 0.0


def test_transition_second_tail_vanishes_on_entry_axis():
    T1 = TransitionMap(1.62, 0.32, 0.5, -2.0, u2=0.15, u3=0.05, a=0.1)
    pts = np.stack([np.zeros(7), np.linspace(0.27, 0.37, 7)], axis=-1)
    _, phi2 = transition_tails(T1, pts)
    assert np.max(np.abs(phi2)) == 0.0


def test_transition_and_shear_polynomials_match_polynomial_objects():
    # T1's u, u' and g's psihat, psihat' are evaluated from coefficient
    # arrays; the bits must be those of the Polynomial evaluations
    T1 = TransitionMap(1.62, 0.32, 0.5, -2.0, u2=0.15, u3=0.05, a=0.1)
    rng = np.random.default_rng(12)
    pts = np.stack([rng.uniform(-0.05, 0.05, 200),
                    rng.uniform(0.27, 0.37, 200)], axis=-1)
    u = Polynomial([0.0, 0.0, 0.15, 0.05])
    x, y = pts[:, 0], pts[:, 1]
    w = 1.62 + 0.5 * (y - 0.32 + u(x))
    Xp = 1.0 + 2.0 * 0.1 * (w - 1.62)
    ref = np.stack([w + 0.1 * (w - 1.62) ** 2, -2.0 * x / Xp], axis=-1)
    out, J = T1.descriptor().value_and_jacobian(pts)
    assert out.tobytes() == ref.tobytes()
    assert J[:, 0, 0].tobytes() == (Xp * 0.5 * u.deriv()(x)).tobytes()
    # g's shear and its psihat' entry evaluate the coefficients that
    # build_perturbation hands back, in the box coordinate s = x - x+_i, and
    # match the x-power Polynomial construction to its rounding
    m = desk_model()
    charts = RescalingCharts(m, 10)
    g, psihats, dpsihats = build_perturbation(charts, QUAD_KICKS)
    i = 1
    ph, dph, _ = perturbation_polynomials(charts, QUAD_KICKS)[i]
    xs = rng.uniform(m.x_plus[i] - 0.115, m.x_plus[i] + 0.115, 300)
    ys = rng.uniform(-0.035, 0.035, 300)
    s = xs - m.x_plus[i]
    gp, Jg = g.value_and_jacobian(np.stack([xs, ys], axis=-1))
    assert gp[:, 1].tobytes() == (ys + polyval(s, psihats[:, i])).tobytes()
    assert dpsihats[:, i].tobytes() == polyder(psihats[:, i]).tobytes()
    assert Jg[:, 1, 0].tobytes() == polyval(s, dpsihats[:, i]).tobytes()
    assert np.max(np.abs(gp[:, 1] - ys - ph(xs))) <= SHEAR_RTOL * np.max(np.abs(ph(xs)))
    assert np.max(np.abs(Jg[:, 1, 0] - dph(xs))) <= SHEAR_RTOL * np.max(np.abs(dph(xs)))


def test_transition_rejects_bad_constants():
    with pytest.raises(ValueError, match="b\\*c"):
        TransitionMap(1.0, 0.3, 0.5, -1.9)
    with pytest.raises(ValueError, match="0.2"):
        TransitionMap(1.0, 0.3, 0.5, -2.0, u2=0.3)


# ---------------------------------------------------------------------------
# model assembly


def test_model_scale_and_parity_validation():
    mk_t1 = lambda xy: [TransitionMap(x, y, 0.5, -2.0) for x, y in xy]
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
    assert np.max(np.abs(q.inverse(q(XY)) - XY)) <= 1e-12


def test_charts_raise_when_the_boundary_value_fixed_point_diverges():
    # at k = 8, u = s exp(2 k c2 u) has no fixed point for this model, which
    # a config (lambda 0.99, mu 0.999, r 1, nonlinearity 0.2) can ask for;
    # the offsets beta/gamma would be inf
    m = desk_model(nonlinearity=0.2, lam=0.99, mu=0.999, r=1)
    for build in (RescalingCharts, verify_rescaling):
        with pytest.raises(ValueError, match="boundary-value fixed point .* diverges at k = 8"):
            build(m, 8)


# ---------------------------------------------------------------------------
# the box perturbation


def test_perturbation_identity_outside_boxes():
    m = desk_model()
    g, _, _ = build_perturbation(RescalingCharts(m, 10), QUAD_KICKS)
    rng = np.random.default_rng(3)
    pts = np.stack([rng.uniform(-1, 5, 2000), rng.uniform(-1, 1, 2000)], axis=-1)
    outside = np.ones(len(pts), bool)
    for i in range(m.N):
        outside &= bump_region(m, i, pts) == 0
    assert outside.sum() > 1500
    assert np.max(np.abs(g(pts[outside]) - pts[outside])) == 0.0


def test_perturbation_exact_shear_on_inner_box():
    m = desk_model()
    charts = RescalingCharts(m, 10)
    g, _, _ = build_perturbation(charts, QUAD_KICKS)
    rng = np.random.default_rng(4)
    i = 1
    ph = perturbation_polynomials(charts, QUAD_KICKS)[i][0]
    xs = rng.uniform(m.x_plus[i] - 0.115, m.x_plus[i] + 0.115, 300)
    ys = rng.uniform(-0.035, 0.035, 300)
    inner = np.stack([xs, ys], axis=-1)
    sheared = np.stack([xs, ys + ph(xs)], axis=-1)
    assert np.max(np.abs(g(inner) - sheared)) <= 1e-10


@pytest.mark.parametrize("k", [8, 14, 30])
def test_shear_coefficients_match_the_polynomial_construction(k):
    # psihat_i is built in its box coordinate s = x - x+_i, and its column of
    # the tables holds it zero-padded; psihat_i' and the collar's Psi_i
    # derive from its coefficients as Polynomial's deriv and integ would, bit
    # for bit.  Their values on the box match the x-power Polynomial
    # construction to SHEAR_RTOL, and Psi_i vanishes at the box center
    # exactly, where the collar Hamiltonian's y-gradient is then 0.  The last
    # kick list has a constant kick and trailing zeros
    edge = [Polynomial([0.0]), Polynomial([0.02, 0.0, 0.0]), Polynomial([0.0, -0.01])]
    (h, hy), (ih, iy) = RescalingModel.box_half, RescalingModel.box_inner
    for m in (desk_model(), desk_model(nonlinearity=0.0, tails=False)):
        for kicks in (QUAD_KICKS, [None] * 3, edge):
            charts = RescalingCharts(m, k)
            ref = perturbation_polynomials(charts, kicks)
            _, psihats, dpsihats = build_perturbation(charts, kicks)
            for leg in range(m.N):
                i = (leg + 1) % m.N
                c = charts.psihat(leg, kicks[leg])
                assert c.tobytes() == psihats[:len(c), i].tobytes()
                assert not np.any(psihats[len(c):, i])
                ours = Polynomial(c)
                Psi = ours.integ()
                assert polyder(c).tobytes() == ours.deriv().coef.tobytes()
                assert dpsihats[:len(c) - 1, i].tobytes() == polyder(c).tobytes()
                assert not np.any(dpsihats[len(c) - 1:, i])
                xs = np.linspace(m.x_plus[i] - h, m.x_plus[i] + h, 257)
                for mine, theirs in zip((ours, ours.deriv(), Psi), ref[i]):
                    want = theirs(xs)
                    assert (np.max(np.abs(mine(xs - m.x_plus[i]) - want))
                            <= SHEAR_RTOL * np.max(np.abs(want)))
                # the collar system, in the box coordinate, at s on the
                # inner plateau, y in the collar: rho_s = 0, so
                # dH/dy = -Psi(s) rho_y
                pts = np.stack([np.linspace(-ih, ih, 9), np.full(9, (iy + hy) / 2)], axis=-1)
                col = psihats[:, i:i + 1]
                gy = rescaling._collar_system(m.bump, col, polyder(col)).grad(pts)[:, 1]
                rho_y = m.bump.jet(pts, False)[1][:, 1]
                assert np.array_equal(gy, -Psi(pts[:, 0]) * rho_y)
                assert gy[4] == 0.0 and rho_y[4] != 0.0


def test_perturbation_symplectic_and_invertible():
    m = desk_model()
    g, _, _ = build_perturbation(RescalingCharts(m, 10), QUAD_KICKS)
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
    g, _, _ = build_perturbation(RescalingCharts(m, 10), QUAD_KICKS)
    rng = np.random.default_rng(11)
    i = 1
    box = np.stack([rng.uniform(m.x_plus[i] - 0.15, m.x_plus[i] + 0.15, 2000),
                    rng.uniform(-0.05, 0.05, 2000)], axis=-1)
    collar = box[bump_region(m, i, box) == 1][:200]
    assert len(collar) == 200
    J = g.jacobian(collar)
    assert np.max(np.abs(J - np.eye(2))) > 0.1  # the collar flow is not a shear
    assert np.max(np.abs(J - finite_difference_jacobian(g, collar))) <= 1e-5


def test_perturbation_value_and_jacobian_matches_separate_calls():
    m = desk_model()
    g, _, _ = build_perturbation(RescalingCharts(m, 10), QUAD_KICKS)
    rng = np.random.default_rng(12)
    pts = np.stack([rng.uniform(0.5, 3.6, 3000), rng.uniform(-0.1, 0.1, 3000)], axis=-1)
    region = sum(bump_region(m, i, pts) for i in range(m.N))
    assert all(np.count_nonzero(region == r) > 50 for r in (0, 1, 2))
    img, J = g.value_and_jacobian(pts)
    assert np.array_equal(img, g(pts))
    assert np.array_equal(J, g.jacobian(pts))


def _collar_rows(m, per_box, seed):
    # collar points of every box, in a shuffled order that mixes the boxes
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(m.N):
        box = np.stack([rng.uniform(m.x_plus[i] - 0.15, m.x_plus[i] + 0.15, 40 * per_box),
                        rng.uniform(-0.05, 0.05, 40 * per_box)], axis=-1)
        rows.append(box[bump_region(m, i, box) == 1][:per_box])
    return rng.permutation(np.concatenate(rows))


def test_perturbation_integrates_every_collar_in_one_call(monkeypatch):
    # all boxes' collar rows go through one integration, each row with its
    # own box's shear, and a row's result does not depend on its batch
    m = desk_model()
    g, _, _ = build_perturbation(RescalingCharts(m, 10), QUAD_KICKS)
    pts = _collar_rows(m, 5, 16)
    assert set(m.box_region(pts)[1]) == {0, 1, 2}
    calls = []
    steps = rescaling._midpoint_steps
    monkeypatch.setattr(rescaling, "_midpoint_steps",
                        lambda sys, p, *args: calls.append(len(p)) or steps(sys, p, *args))
    img, J = g.ev(pts, True)
    assert calls == [len(pts)]
    for row, p in enumerate(pts):
        one, J1 = g.ev(p[None], True)
        assert one.tobytes() == img[row:row + 1].tobytes()
        assert all(a.tobytes() == e[row:row + 1].tobytes() for a, e in zip(J1, J))


def test_perturbation_rejects_overlapping_boxes():
    with pytest.raises(ValueError, match="overlap"):
        RescalingModel(
            SaddleNormalForm(0.4, 0.1),
            [TransitionMap(x, y, 0.5, -2.0) for x, y in
             [(0.9, 0.30), (1.05, 0.32), (3.24, 0.34)]], mu=0.8)


def test_bump_region_classification():
    # the box at x+_1 = 1.62, and the one bump in the box coordinate
    m = desk_model()
    b = BoxBump((0.15, 0.05), (0.115, 0.035))
    offsets = np.array([[0.0, 0.0], [0.13, 0.04], [0.2, 0.0], [0.0, 0.2]])
    assert list(bump_region(m, 1, offsets + [m.x_plus[1], 0.0])) == [2, 1, 0, 0]
    assert b.jet(np.array([0.0, 0.0]), False)[0] == 1.0
    assert b.jet(np.array([0.2, 0.0]), False)[0] == 0.0
    with pytest.raises(ValueError):
        BoxBump((0.1, 0.05), (0.12, 0.03))


def test_bump_jet_matches_differences():
    # the collar Hamiltonian's gradient and Hessian read rho's jet; a slip in
    # one entry is not seen by the flow's determinant, differences see it
    b = BoxBump((0.15, 0.05), (0.115, 0.035))
    rng = np.random.default_rng(14)
    p = np.stack([rng.uniform(-0.16, 0.16, 400), rng.uniform(-0.06, 0.06, 400)], axis=-1)
    rho, grad, (hxx, hxy, hyy) = b.jet(p, True)
    H = np.stack([np.stack([hxx, hxy], axis=-1), np.stack([hxy, hyy], axis=-1)], axis=-2)
    assert np.array_equal(b.jet(p, False)[1], grad) and b.jet(p, False)[2] is None
    h = 2.5e-7
    for axis in (0, 1):
        e = np.zeros(2)
        e[axis] = h
        (r1, g1, _), (r0, g0, _) = b.jet(p + e, False), b.jet(p - e, False)
        # the y-ramp is 0.015 wide, so slopes reach about 1e2 and
        # curvatures about 2e4; a slipped entry errs by their own size
        assert np.max(np.abs((r1 - r0) / (2 * h) - grad[:, axis])) <= 1e-7 * np.max(np.abs(grad))
        assert np.max(np.abs((g1 - g0) / (2 * h) - H[:, axis])) <= 1e-7 * np.max(np.abs(H))


def test_box_region_matches_each_bumps_own_region():
    m = desk_model()
    rng = np.random.default_rng(13)
    pts = np.stack([rng.uniform(0.5, 3.6, 6000), rng.uniform(-0.1, 0.1, 6000)], axis=-1)
    reg, box = m.box_region(pts)
    own = np.stack([bump_region(m, i, pts) for i in range(m.N)])
    assert all(np.count_nonzero(reg == r) > 50 for r in (0, 1, 2))
    assert np.array_equal(box == -1, reg == 0)
    inside = box >= 0
    assert np.array_equal(reg[inside], own[box[inside], np.flatnonzero(inside)])
    assert not np.any(own[:, ~inside])


def _touching_model(rng, n):
    # landing points in shuffled order; most neighbour pairs touch, their
    # centers exactly 2 * half apart in floating point, the least gap
    # __post_init__ accepts
    xs = [rng.uniform(0.5, 2.0)]
    for _ in range(n - 1):
        if rng.random() < 0.3:
            xs.append(xs[-1] + 0.3 + rng.uniform(0.001, 0.2))
            continue
        x = xs[-1] + 0.3
        while x - xs[-1] < 0.3:
            x = np.nextafter(x, np.inf)
        while np.nextafter(x, -np.inf) - xs[-1] >= 0.3:
            x = np.nextafter(x, -np.inf)
        xs.append(x)
    return RescalingModel(SaddleNormalForm(0.4, 0.1),
                          [TransitionMap(x, 0.3, 0.5, -2.0) for x in rng.permutation(xs)],
                          mu=0.8)


def _edge_points(m):
    # every box edge, inner edge and center in x, and every midpoint between
    # neighbouring centers, against every edge level in y, each within 4 ulp
    (hx, hy), (ix, iy) = m.box_half, m.box_inner
    c = np.sort(m.x_plus)
    xs = np.concatenate([c - hx, c + hx, c - ix, c + ix, c, (c[1:] + c[:-1]) / 2])
    ys = np.array([0.0, hy, -hy, iy, -iy, 0.01])
    ulps = np.arange(-4, 5)
    x = (xs[:, None] + ulps * np.spacing(xs)[:, None]).ravel()
    y = (ys[:, None] + ulps * np.spacing(np.abs(ys))[:, None]).ravel()
    X, Y = np.meshgrid(x, y)
    return np.stack([X, Y], axis=-1)


def _nearest_midpoint_region(m, p):
    # the one-candidate classifier: a box per point by the midpoints between
    # neighbouring centers.  Near where two boxes touch, the strict test
    # passes for both, and the per-box loop takes the later index
    order = np.argsort(m.x_plus)
    c = m.x_plus[order]
    x, ay = p[..., 0], np.abs(p[..., 1])
    i = np.searchsorted((c[1:] + c[:-1]) / 2, x)
    ax = np.abs(x - c[i])
    outer = (ax < m.box_half[0]) & (ay < m.box_half[1])
    inner = (ax <= m.box_inner[0]) & (ay <= m.box_inner[1])
    return np.where(inner, 2, outer.astype(int)), np.where(outer, order[i], -1)


def test_box_region_matches_the_per_box_loop_where_boxes_touch():
    rng = np.random.default_rng(15)
    naive_misses = 0
    for _ in range(60):
        m = _touching_model(rng, rng.choice([3, 5]))
        pts = _edge_points(m)
        reg, box = m.box_region(pts)
        ref_reg, ref_box = box_region_by_bump(m, pts)
        assert reg.dtype == ref_reg.dtype and box.dtype == ref_box.dtype
        assert np.array_equal(reg, ref_reg) and np.array_equal(box, ref_box)
        assert all(np.count_nonzero(ref_reg == r) > 0 for r in (0, 1, 2))
        naive = _nearest_midpoint_region(m, pts)
        naive_misses += not (np.array_equal(naive[0], ref_reg)
                             and np.array_equal(naive[1], ref_box))
    # the points reach the touching boxes' shared edge
    assert naive_misses > 0


def test_verify_builds_the_charts_once(monkeypatch):
    builds = []
    init = RescalingCharts.__init__

    def spy(self, model, k):
        builds.append(k)
        init(self, model, k)

    monkeypatch.setattr(RescalingCharts, "__init__", spy)
    verify_rescaling(desk_model(), 10, QUAD_KICKS)
    assert builds == [10]


def test_verify_classifies_each_leg_batch_once(monkeypatch):
    # each leg maps the composition's points and the fresh disc grid (2M
    # points) as one batch, and classifies passage iterates 1..k-1 and the
    # T1 landing, k * 2M points, in one box_region call that g reuses
    calls = []
    region = RescalingModel.box_region

    def spy(self, p):
        calls.append(np.shape(p))
        return region(self, p)

    monkeypatch.setattr(RescalingModel, "box_region", spy)
    M = len(rescaling._disc_grid(24))
    for k in (8, 14):
        calls.clear()
        m = desk_model()
        verify_rescaling(m, k, QUAD_KICKS)
        assert calls == [(k * 2 * M, 2)] * m.N


def test_verify_constructs_a_fixed_number_of_polynomials_in_k(monkeypatch):
    # psihat_i, psihat_i', Psi_i and the norms' derivatives are coefficient
    # arrays, and the kicks' Henon maps build their derivative only for a
    # Jacobian, which verify never asks for
    built = []
    init = Polynomial.__init__

    def spy(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", spy)
    counts = []
    for k in (8, 14):
        built.clear()
        verify_rescaling(desk_model(), k, QUAD_KICKS)
        counts.append(len(built))
    assert counts == [0, 0]


def test_a_kicks_henon_map_builds_its_derivative_once(monkeypatch):
    built = []
    deriv = Polynomial.deriv
    monkeypatch.setattr(Polynomial, "deriv", lambda self: built.append(1) or deriv(self))
    psi = QUAD_KICKS[1]
    h = rescaling._henon(psi)
    pts = np.random.default_rng(2).uniform(-1.0, 1.0, (50, 2))
    h(pts)
    assert built == []
    J = h.jacobian(pts)
    assert np.array_equal(h.jacobian(pts), J)
    assert built == [1]
    assert np.array_equal(J, henon_like(psi, deriv(psi)).jacobian(pts))


def test_psihat_norms_are_taken_on_each_box():
    # g uses psihat_i only on box i, so its sup and C^2 norm are measured on
    # that box's grid (here against the x-power Polynomial construction's,
    # to SHEAR_RTOL); one grid over all boxes overstates box 0's norm at
    # k = 8 by about 1.37x
    m = desk_model()
    rep = verify_rescaling(m, 8, QUAD_KICKS)
    psihats = [ph for ph, _, _ in perturbation_polynomials(RescalingCharts(m, 8), QUAD_KICKS)]
    h = m.box_half[0]

    def sups(ph, xs):
        return [float(np.max(np.abs(d(xs)))) for d in (ph, ph.deriv(), ph.deriv(2))]

    own = [sups(ph, np.linspace(x - h, x + h, 257)) for ph, x in zip(psihats, m.x_plus)]
    assert np.allclose(rep["psihat_norms"], [max(s) for s in own], rtol=SHEAR_RTOL, atol=0)
    assert np.isclose(rep["psihat_sup"], max(s[0] for s in own), rtol=SHEAR_RTOL, atol=0)
    wide = np.linspace(min(m.x_plus) - h, max(m.x_plus) + h, 257)
    assert max(sups(psihats[0], wide)) > 1.3 * rep["psihat_norms"][0]


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


def _phi_defect_spread(m, k):
    """Largest change of the per-leg Phi defects over five random kick
    draws."""
    rng = np.random.default_rng(7)
    base = None
    spread = 0.0
    for _ in range(5):
        kicks = [Polynomial(rng.uniform(-0.05, 0.05, 3)) for _ in range(3)]
        pd = np.array(verify_rescaling(m, k, kicks)["phi_defects"])
        if base is None:
            base = pd
        else:
            spread = max(spread, float(np.max(np.abs(pd - base))))
    return spread


def test_phi_defects_do_not_depend_on_the_kicks():
    assert _phi_defect_spread(desk_model(), 12) <= 1e-9


# long passages: each box shear is built in its box coordinate, so no O(1)
# anchor is expanded and then cancelled in it


def test_suite_passes_at_passages_up_to_50():
    cfg = ExperimentConfig.from_text("suite = rescaling\nseed = 1\n"
                                     "rescaling.k_list = 10,20,30,40,50\n")
    report, code = cli.run(cfg)
    assert code == 0
    assert all(c["passed"] for c in report["checks"])


def test_error_strictly_decreases_at_long_passages():
    m = desk_model()
    errs = [verify_rescaling(m, k, QUAD_KICKS)["error"] for k in (30, 40, 50, 60)]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_phi_defects_do_not_depend_on_the_kicks_at_long_passages():
    assert _phi_defect_spread(desk_model(), 50) <= 1e-9


def test_legs_are_symplectic_on_chart_windows():
    m = desk_model()
    k = 10
    ch = RescalingCharts(m, k)
    g, _, _ = build_perturbation(ch, QUAD_KICKS)
    t = np.linspace(-1, 1, 15)
    X, Y = np.meshgrid(t, t, indexing="ij")
    mask = X ** 2 + Y ** 2 <= 1
    disc = np.stack([X[mask], Y[mask]], axis=-1)
    for i in range(3):
        leg = compose(g, m.T1[(i + 1) % 3].descriptor(), m.T0.descriptor(k))
        pts = ch.qbar(i)(disc)
        assert np.max(leg.symplectic_defect(pts)) <= 1e-9


@pytest.mark.parametrize("lam, k", [(0.6, 60), (0.7, 30)])
def test_verify_rejects_a_passage_that_grazes_a_box(lam, k):
    # on the second leg the first (lam = 0.6) or second (lam = 0.7)
    # saddle-passage iterate of every point, composition and fresh grid
    # alike, enters a perturbation box
    m = desk_model(0.0, tails=False, lam=lam, mu=0.9, r=2)
    with pytest.raises(ValueError, match="saddle-passage orbit grazes a box"):
        verify_rescaling(m, k)


def test_verify_rejects_a_graze_between_the_disc_grid_points():
    # at lam = 0.99, 8 of the 408 disc grid points graze a box at passage
    # iterates 1..7 of the first leg, and no point of an 8 x 8 disc grid
    # does, so the check must cover every leg point
    m = desk_model(0.0, tails=False, lam=0.99, mu=0.999, r=1)
    with pytest.raises(ValueError, match="saddle-passage orbit grazes a box"):
        verify_rescaling(m, 8)


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
    H = lambda q: henon_like(q, q.deriv())
    full = compose(H(cube), H(Polynomial([0.0])), H(Polynomial([0.0])),
                   H(p2), H(p1))
    assert np.max(np.abs(full(pts) - pair(pts))) <= 1e-10
    assert np.max(pair.symplectic_defect(pts)) <= 1e-9


def test_corollary_rejects_odd_kick_list():
    with pytest.raises(ValueError, match="even"):
        corollary_composition([Polynomial([0.0, 0.1])], None)
