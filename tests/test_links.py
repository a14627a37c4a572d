import numpy as np
import pytest

from islab import cli, links
from islab.curves import BumpFn, MaskedPeriodic, PeriodicFn, curve_sup_diff, random_trig_poly
from islab.links import (
    LinkGeometry,
    PsiChart,
    build_suitable_model,
    restoration_b_reference,
    restore_link_a,
    restore_link_b,
    splitting_a,
    splitting_a_reference,
    splitting_b,
    splitting_b_reference,
    TimeEnergyChart,
    stable_curve,
    unstable_curve,
)
from islab.maps import MapDescriptor, compose, shear_map


def _model():
    return build_suitable_model()


def _a_band_hook(g, height=1.5e-3):
    eta = BumpFn(g.x_a - 2 * g.tau + 2 * g.delta, g.x_a - 2 * g.delta, 0.25, height=height)
    return shear_map(eta, eta.d1, name="S_eta")


def _b_band_hook(g, height=1.5e-3):
    eta = BumpFn(g.x_b + 2 * g.delta, g.x_b + 2 * g.tau - 2 * g.delta, 0.25, height=height)
    return shear_map(eta, eta.d1, name="S_eta")


def _general_hook(g):
    # horizontal shear composed with a vertical bump shear: area-preserving,
    # exactly invertible, and not x-trivial (exercises the fiber ODE)
    c = 5e-3

    def fwd(p):
        return np.stack([p[..., 0] + c * (p[..., 1] - g.y1), p[..., 1]], axis=-1)

    def jac(p):
        return np.broadcast_to(np.array([[1.0, c], [0.0, 1.0]]),
                               np.shape(p)[:-1] + (2, 2)).copy()

    def inv(q):
        return np.stack([q[..., 0] - c * (q[..., 1] - g.y1), q[..., 1]], axis=-1)

    H = MapDescriptor("H", fwd, jac, inv)
    eta = BumpFn(g.x_a - 2 * g.tau + 2 * g.delta, g.x_a - 2 * g.delta, 0.25, height=1e-3)
    return compose(shear_map(eta, eta.d1, name="S_eta"), H, name="G")


# ---------------------------------------------------------------------------
# geometry and the piecewise base map


def test_geometry_defaults_and_offsets():
    g = LinkGeometry()
    assert (g.tau, g.x_a, g.x_b, g.y1, g.y2, g.delta) == (1.0, -3.0, 2.0, 1.0, -1.0, 0.1)
    assert g.theta == ((3 * 2.0 + 7.0) / 2, 2 * 1.0 + (-1.0))
    assert g.fold4_theta == ((3 * 2.0 + 4.0) / 2, 1.0)


def test_geometry_rejects_bad_input():
    with pytest.raises(ValueError):
        LinkGeometry(x_a=0.0, x_b=1.0)
    with pytest.raises(ValueError):
        LinkGeometry(delta=0.3)
    with pytest.raises(ValueError):
        LinkGeometry(y1=-1.0, y2=1.0)


def test_base_map_itinerary_and_inverse():
    model = _model()
    g = model.geometry
    p = np.array([g.x_b + 0.3, g.y1])
    stations = [p.copy()]
    for _ in range(8):
        stations.append(model.fstar(stations[-1]))
    # three translations, the fold, then crawls on the lower level
    assert np.allclose(stations[3], [g.x_b + 3.3, g.y1])
    assert np.allclose(stations[4], [3.85, -1.0])
    assert np.allclose(stations[8], [1.85, -1.0])
    q = stations[-1].copy()
    for _ in range(8):
        q = model.fstar.inv(q)
    assert np.max(np.abs(q - p)) == 0.0


def test_base_map_piece_formulas():
    model = _model()
    g = model.geometry
    # fold piece: theta - (x/2, 2y) on its rectangle
    x = np.linspace(g.x_b + 3 * g.tau, g.x_b + 5 * g.tau - 1e-9, 33)
    p = np.stack([x, np.full_like(x, g.y1 + 0.1)], axis=-1)
    out = model.fstar(p)
    tx, ty = g.theta
    assert np.max(np.abs(out[:, 0] - (tx - x / 2))) < 1e-12
    assert np.max(np.abs(out[:, 1] - (ty - 2 * (g.y1 + 0.1)))) < 1e-12
    # four-step composite from the fundamental segment: fold4_theta - (x/2, 2y)
    x4 = np.linspace(g.x_b + 0.01, g.x_b + g.tau - 0.01, 17)
    p4 = np.stack([x4, np.full_like(x4, g.y1 - 0.05)], axis=-1)
    q4 = p4.copy()
    for _ in range(4):
        q4 = model.fstar(q4)
    t4x, t4y = g.fold4_theta
    assert np.max(np.abs(q4[:, 0] - (t4x - x4 / 2))) < 1e-12
    assert np.max(np.abs(q4[:, 1] - (t4y - 2 * (g.y1 - 0.05)))) < 1e-12


def test_base_map_symplectic_and_domain():
    model = _model()
    g = model.geometry
    xs = np.linspace(g.x_b - 2 * g.tau, g.x_b + 5 * g.tau - 1e-6, 200)
    p = np.stack([xs, np.full_like(xs, g.y1)], axis=-1)
    J = model.fstar.jacobian(p)
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    assert np.max(np.abs(det - 1.0)) == 0.0
    with pytest.raises(ValueError):
        model.fstar(np.array([0.0, 0.0]))  # between the strips


def test_hook_validation():
    g = LinkGeometry()
    big = BumpFn(g.x_a - 2 * g.tau + 2 * g.delta, g.x_a - 2 * g.delta, 0.25, height=0.5)
    with pytest.raises(ValueError):
        build_suitable_model(hook=shear_map(big, big.d1))

    def stretch(p):
        return np.stack([p[..., 0], 1.001 * p[..., 1]], axis=-1)

    def jac(p):
        return np.broadcast_to(np.diag([1.0, 1.001]), np.shape(p)[:-1] + (2, 2)).copy()

    bad = MapDescriptor("stretch", stretch, jac,
                        lambda q: np.stack([q[..., 0], q[..., 1] / 1.001], axis=-1))
    with pytest.raises(ValueError):
        build_suitable_model(hook=bad)


def test_resolve_map_rejects_foreign_map():
    model = _model()
    other = build_suitable_model(hook=_a_band_hook(model.geometry))
    with pytest.raises(ValueError):
        splitting_a(other.F, None, model)


# ---------------------------------------------------------------------------
# time-energy charts


def test_chart_identity_at_base_map():
    model = _model()
    for side in ("a", "b"):
        ch = TimeEnergyChart(model.F, side, model)
        assert ch.identity_defect() <= 1e-13
        assert ch.area_defect() <= 1e-9
        assert ch.conjugacy_defect() <= 1e-8


def test_chart_shear_hook_exact():
    model = build_suitable_model(hook=_a_band_hook(LinkGeometry(), height=2e-3))
    ch = TimeEnergyChart(model.F, "a", model)
    assert ch.area_defect() <= 1e-9
    assert ch.conjugacy_defect() <= 1e-8
    assert ch.identity_defect() > 1e-5  # genuinely non-trivial chart


def test_chart_general_hook_fiber_ode():
    g = LinkGeometry()
    model = build_suitable_model(hook=_general_hook(g))
    for side in ("a", "b"):
        ch = TimeEnergyChart(model.F, side, model)
        assert not ch._unit_det0  # fiber ODE path engaged
        assert ch.area_defect(120) <= 1e-9
        assert ch.conjugacy_defect(120) <= 1e-8


def test_chart_fiber_ode_raises_at_cap(monkeypatch):
    model = build_suitable_model(hook=_general_hook(LinkGeometry()))
    ch = TimeEnergyChart(model.F, "a", model)
    assert not ch._unit_det0
    pts = ch._strip_frame(12)
    ref = ch(pts)
    # the fiber ODE agrees with itself at 128 steps, so a cap there leaves
    # every value as it was
    monkeypatch.setattr(links, "SIGMA_STEPS_CAP", 128)
    assert np.array_equal(ch(pts), ref)
    # with no doubling allowed it cannot confirm convergence and must raise
    monkeypatch.setattr(links, "SIGMA_STEPS_CAP", links.SIGMA_STEPS_START)
    with pytest.raises(RuntimeError, match="unconverged"):
        ch(pts)


def test_psi_chart_conjugates_sheared_map():
    model = _model()
    g = model.geometry
    rng = np.random.default_rng(3)
    for side, origin in (("a", g.x_a - 2 * g.tau), ("b", g.x_b)):
        psit = random_trig_poly(g.tau, harmonics=4, amplitude=1e-3, rng=rng, origin=origin)
        psi = MaskedPeriodic(model.partition_bump(side), psit)
        chart = TimeEnergyChart(model.F, side, model)
        pc = PsiChart(chart, psi)
        assert pc.conjugacy_defect() <= 1e-8


# ---------------------------------------------------------------------------
# splitting functions


def test_splitting_a_closed_form():
    model = _model()
    g = model.geometry
    rng = np.random.default_rng(7)
    psit = random_trig_poly(g.tau, harmonics=5, amplitude=2e-3, rng=rng,
                            origin=g.x_a - 2 * g.tau)
    psi = MaskedPeriodic(model.partition_bump("a"), psit)
    M = splitting_a(model.F, psi, model)
    ref = splitting_a_reference(psi, model)
    xs = np.linspace(g.x_a - g.tau, g.x_a, 401)
    assert np.max(np.abs(M(xs) - ref(xs))) <= 1e-6
    # unperturbed link is closed
    assert splitting_a(model.F, None, model).sup() <= 1e-9


def test_splitting_b_closed_form_and_zero_mean():
    model = _model()
    g = model.geometry
    rng = np.random.default_rng(11)
    psit = random_trig_poly(g.tau, harmonics=5, amplitude=2e-3, rng=rng, origin=g.x_b)
    psi = MaskedPeriodic(model.partition_bump("b"), psit)
    M = splitting_b(model.F, psi, model)
    ref = splitting_b_reference(psi, model)
    xs = np.linspace(g.x_b, g.x_b + g.tau, 401)
    assert np.max(np.abs(M(xs) - ref(xs))) <= 1e-6
    assert abs(M.mean()) <= 1e-8


def test_splitting_b_reduces_to_two_term_average():
    model = _model()
    g = model.geometry
    psit = random_trig_poly(g.tau, harmonics=5, amplitude=2e-3,
                            rng=np.random.default_rng(13), origin=g.x_b)
    psi = MaskedPeriodic(model.partition_bump("b"), psit)
    M = splitting_b(model.F, psi, model)
    pred = psit - restoration_b_reference(model)(psit)
    xs = np.linspace(g.x_b, g.x_b + g.tau, 401)
    assert np.max(np.abs(M(xs) - pred(xs))) <= 1e-6


def test_splitting_support_enforced():
    model = _model()
    g = model.geometry
    psit = random_trig_poly(g.tau, amplitude=1e-3, rng=np.random.default_rng(0),
                            origin=g.x_b)
    with pytest.raises(ValueError):
        splitting_a(model.F, MaskedPeriodic(model.partition_bump("b"), psit), model)
    with pytest.raises(ValueError):
        splitting_b(model.F, psit, model)  # no compact support at all


def test_splitting_b_detects_broken_a_link():
    model = build_suitable_model(hook=_a_band_hook(LinkGeometry()))
    with pytest.raises(ValueError):
        splitting_b(model.F, None, model)


def test_unstable_curve_psi_independent():
    model = _model()
    g = model.geometry
    rng = np.random.default_rng(21)
    base = unstable_curve(model.F, model, "a")
    xs = np.linspace(g.x_a - g.tau, g.x_a, 301)
    for _ in range(5):
        psit = random_trig_poly(g.tau, harmonics=4, amplitude=5e-3, rng=rng,
                                origin=g.x_a - 2 * g.tau)
        w = unstable_curve(model.F, model, "a",
                           psi=MaskedPeriodic(model.partition_bump("a"), psit))
        assert np.max(np.abs(base(xs) - w(xs))) <= 1e-10


# ---------------------------------------------------------------------------
# restoration solvers


def test_restoration_reference_operator_contracts():
    model = _model()
    g = model.geometry
    op = restoration_b_reference(model)
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = random_trig_poly(g.tau, harmonics=6, amplitude=1e-2, rng=rng,
                             origin=g.x_b, zero_mean=True)
        assert op(z).norm0() <= 0.5 * z.norm0() + 1e-12


def test_restore_link_a():
    model = build_suitable_model(hook=_a_band_hook(LinkGeometry()))
    psi_a, trace = restore_link_a(model.F, model)
    assert len(trace) <= 30
    sups = [row[1] for row in trace]
    assert sups[-1] <= 1e-8
    for r0, r1 in zip(sups, sups[1:]):
        assert r1 <= 0.5 * r0
    # the restored link is closed: stable and unstable curves coincide
    g = model.geometry
    chart = TimeEnergyChart(model.F, "a", model)
    w_u = unstable_curve(model.F, model, "a", chart=chart)
    w_s = stable_curve(model.F, model, "a", psi=psi_a, chart=chart)
    assert curve_sup_diff(w_u, w_s, g.x_a - g.tau, g.x_a) <= 1e-7


def test_restore_link_b():
    model = build_suitable_model(hook=_b_band_hook(LinkGeometry()))
    psi_b, trace = restore_link_b(model.F, model)
    assert len(trace) <= 50
    norms = [row[2] for row in trace]
    assert norms[-1] <= 1e-10
    for r0, r1 in zip(norms, norms[1:]):
        assert r1 <= 0.6 * r0
    resid = splitting_b(model.F, psi_b, model, check_link_a=False)
    assert resid.sup() <= 1e-8
    assert abs(psi_b.psi.mean()) <= 1e-12


@pytest.mark.parametrize("side", ["a", "b"])
def test_restore_raises_when_the_cap_runs_out(monkeypatch, side):
    # a perturbed model as the links suite builds it; one iteration short
    # of what it needs, the solver must raise, not return an unconverged shear
    restore = {"a": restore_link_a, "b": restore_link_b}[side]
    model = build_suitable_model(hook=cli._band_hook(LinkGeometry(), side, 1e-3))
    _, trace = restore(model.F, model)
    monkeypatch.setattr(links, "RESTORE_MAX_ITER", len(trace) - 1)
    with pytest.raises(RuntimeError, match="iterations"):
        restore(model.F, model)


def test_restore_link_b_aborts_on_broken_a_link():
    model = build_suitable_model(hook=_a_band_hook(LinkGeometry()))
    with pytest.raises(ValueError):
        restore_link_b(model.F, model)
