import numpy as np
import pytest

from construction_checks import (PsiChart, chart_area_defect, chart_conjugacy_defect,
                                 chart_identity_defect, separate_map)
from islab import cli, links
from islab.config import ExperimentConfig
from islab.curves import (PERIODIC_SAMPLES, BumpFn, GraphCurve, MaskedPeriodic, PeriodicFn,
                          curve_sup_diff, graph_transform, random_trig_poly)
from islab.links import (
    LinkGeometry,
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
from islab.maps import compose, shear_map


# band-hook heights of a stack of three models: the tall middle row needs
# one more iteration than the others on either side (3 against 2 on side a,
# 5 against 4 on side b), so the others stop first and must keep their
# state while it runs on
STACK_HEIGHTS = np.array([1e-3, 8e-3, 6e-4])


def _model():
    return build_suitable_model()


def _a_band_hook(g, height=1.5e-3):
    eta = BumpFn(g.x_a - 2 * g.tau + 2 * g.delta, g.x_a - 2 * g.delta, 0.25, height=height)
    return shear_map(eta, eta.d1, name="S_eta")


def _b_band_hook(g, height=1.5e-3):
    eta = BumpFn(g.x_b + 2 * g.delta, g.x_b + 2 * g.tau - 2 * g.delta, 0.25, height=height)
    return shear_map(eta, eta.d1, name="S_eta")


def _general_hook(g):
    # horizontal shear composed with a vertical bump shear: area-preserving
    # and exactly invertible, but its chart blend has det D phi0 != 1, so it
    # would need a fiber correction
    c = 5e-3

    def fwd(p):
        return np.stack([p[..., 0] + c * (p[..., 1] - g.y1), p[..., 1]], axis=-1)

    def jac(p):
        return np.broadcast_to(np.array([[1.0, c], [0.0, 1.0]]),
                               np.shape(p)[:-1] + (2, 2)).copy()

    def inv(q):
        return np.stack([q[..., 0] - c * (q[..., 1] - g.y1), q[..., 1]], axis=-1)

    H = separate_map("H", fwd, jac, inv)
    eta = BumpFn(g.x_a - 2 * g.tau + 2 * g.delta, g.x_a - 2 * g.delta, 0.25, height=1e-3)
    return compose(shear_map(eta, eta.d1, name="S_eta"), H, name="G")


# ---------------------------------------------------------------------------
# geometry and the piecewise base map


def test_geometry_defaults_and_offsets():
    g = LinkGeometry()
    assert (g.tau, g.x_a, g.x_b, g.y1, g.y2, g.delta) == (1.0, -3.0, 2.0, 1.0, -1.0, 0.1)
    assert g.theta == ((3 * 2.0 + 7.0) / 2, 2 * 1.0 + (-1.0))


def test_geometry_constants_satisfy_the_model_conditions():
    # the strips leave room for the transition margins, the fold goes down,
    # the support margin fits a quarter translation, and the time-energy
    # chart's transition has a positive width
    g = LinkGeometry
    assert g.tau > 0
    assert g.x_b - g.x_a > 3 * g.tau + 6 * g.delta
    assert g.y2 < g.y1
    assert 0 < g.delta < g.tau / 4
    assert TimeEnergyChart("b", _model())._rho.width > 0


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
    # four-step composite from the fundamental segment: theta4 - (x/2, 2y)
    x4 = np.linspace(g.x_b + 0.01, g.x_b + g.tau - 0.01, 17)
    p4 = np.stack([x4, np.full_like(x4, g.y1 - 0.05)], axis=-1)
    q4 = p4.copy()
    for _ in range(4):
        q4 = model.fstar(q4)
    t4x, t4y = (3 * g.x_b + 4 * g.tau) / 2, 2 * g.y1 + g.y2
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
    # between the strips: outside the region of every piece and of every
    # piece's image
    gap = np.array([0.0, 0.0])
    for fn in (model.fstar, model.fstar.jacobian, model.fstar.inv):
        with pytest.raises(ValueError):
            fn(gap)


def test_hook_validation():
    g = LinkGeometry()
    big = BumpFn(g.x_a - 2 * g.tau + 2 * g.delta, g.x_a - 2 * g.delta, 0.25, height=0.5)
    with pytest.raises(ValueError):
        build_suitable_model(hook=shear_map(big, big.d1))

    def stretch(p):
        return np.stack([p[..., 0], 1.001 * p[..., 1]], axis=-1)

    def jac(p):
        return np.broadcast_to(np.diag([1.0, 1.001]), np.shape(p)[:-1] + (2, 2)).copy()

    bad = separate_map("stretch", stretch, jac,
                       lambda q: np.stack([q[..., 0], q[..., 1] / 1.001], axis=-1))
    with pytest.raises(ValueError):
        build_suitable_model(hook=bad)
    # one bad height in a stack of hooks: the error names its row
    with pytest.raises(ValueError, match="row 1 exceeds C\\^1 distance"):
        build_suitable_model(hook=cli._band_hook(g, "b", np.array([1e-3, 0.5, 2e-3])))


# ---------------------------------------------------------------------------
# time-energy charts


def test_chart_identity_at_base_map():
    model = _model()
    for side in ("a", "b"):
        ch = TimeEnergyChart(side, model)
        assert chart_identity_defect(ch) <= 1e-13
        assert chart_area_defect(ch) <= 1e-9
        assert chart_conjugacy_defect(ch, model) <= 1e-8


def test_chart_shear_hook_exact():
    model = build_suitable_model(hook=_a_band_hook(LinkGeometry(), height=2e-3))
    ch = TimeEnergyChart("a", model)
    assert chart_area_defect(ch) <= 1e-9
    assert chart_conjugacy_defect(ch, model) <= 1e-8
    assert chart_identity_defect(ch) > 1e-5  # genuinely non-trivial chart


def test_chart_raises_for_a_hook_that_needs_a_fiber_correction():
    model = build_suitable_model(hook=_general_hook(LinkGeometry()))
    for side in ("a", "b"):
        with pytest.raises(ValueError, match="needs a fiber correction"):
            TimeEnergyChart(side, model)


@pytest.mark.parametrize("side", ["a", "b"])
def test_chart_value_and_jacobian_matches_separate_calls(side):
    g = LinkGeometry()
    hook = {"a": _a_band_hook, "b": _b_band_hook}[side]
    ch = TimeEnergyChart(side, build_suitable_model(hook=hook(g)))
    frame = ch._strip_frame(4)
    # the strip frame and its shift one tau outward: 0, 1 and 2 extension steps
    pts = np.concatenate([frame, frame + [ch._ext_sign * g.tau, 0.0]])
    assert set(ch._ext_count(pts[:, 0])) == {0, 1, 2}
    img, J = ch.value_and_jacobian(pts)
    assert np.array_equal(img, ch(pts))
    assert np.array_equal(J, ch.jacobian(pts))


def _band_points(model, side, j, n=9):
    """Points strictly inside the j-th extension band of a side's chart (0:
    the fundamental strip), at heights within the strip's band."""
    g = model.geometry
    lo, hi = model.fundamental_interval(side)
    u = np.linspace(0.05, 0.95, n)
    if j == 0:
        xs = lo + u * g.tau
    elif side == "a":
        xs = lo - (j - 1 + u) * g.tau
    else:
        xs = hi + (j - 1 + u) * g.tau
    X, Y = np.meshgrid(xs, g.y1 + np.linspace(-model.band / 2, model.band / 2, 5),
                       indexing="ij")
    return np.stack([X, Y], axis=-1).reshape(-1, 2)


@pytest.mark.parametrize("side", ["a", "b"])
def test_chart_runs_without_the_models_global_maps(side):
    # on its strip and its two bands F* is the chart's piece and F^-1 its
    # backward step, so a chart built and evaluated while F*'s evaluation
    # and inverse raise gives the bits of a chart of an intact model
    g = LinkGeometry()
    intact = build_suitable_model(hook=cli._band_hook(g, side, 1e-3))
    model = build_suitable_model(hook=cli._band_hook(g, side, 1e-3))

    def refuse(*args):
        raise AssertionError("the chart evaluated F*")

    model.fstar.ev = model.fstar.inv = refuse
    for chart_side in ("a", "b"):
        chart = TimeEnergyChart(chart_side, model)
        pts = np.concatenate([_band_points(model, chart_side, j) for j in (0, 1, 2)])
        assert set(chart._ext_count(pts[:, 0])) == {0, 1, 2}
        img, J = chart.value_and_jacobian(pts)
        ref, Jref = TimeEnergyChart(chart_side, intact).value_and_jacobian(pts)
        assert np.array_equal(img, ref) and np.array_equal(J, Jref)
        if chart_side == side:
            assert np.max(np.abs(img - pts)) > 1e-5  # the hooked side's chart is not id


@pytest.mark.parametrize("side", ["a", "b"])
def test_chart_extension_is_its_definition_through_the_global_maps(side):
    # phi = Fstar^j o phi0 o F^-j on the j-th band, with F and F* the
    # model's own maps: the piece and backward step give the same bits
    model = build_suitable_model(hook=cli._band_hook(LinkGeometry(), side, 1e-3))
    chart = TimeEnergyChart(side, model)
    for j in (1, 2):
        p = _band_points(model, side, j)
        assert set(chart._ext_count(p[:, 0])) == {j}
        q = p
        for _ in range(j):
            q = model.F.inverse(q)
        q = chart._phi0(q)[0]
        for _ in range(j):
            q = model.fstar(q)
        assert np.array_equal(chart(p), q)


@pytest.mark.parametrize("side", ["a", "b"])
def test_chart_refuses_a_point_beyond_its_two_bands(side):
    # the chart is defined on its strip and two bands only: three bands out,
    # clipped to two extension steps, it would read y = 1.00900 on side a,
    # where Fstar^3 o phi0 o F^-3 gives 1.00825
    g = LinkGeometry()
    model = build_suitable_model(hook=cli._band_hook(g, side, 1e-3))
    chart = TimeEnergyChart(side, model)
    lo, hi = model.fundamental_interval(side)
    x = lo - 2.5 * g.tau if side == "a" else hi + 2.5 * g.tau
    with pytest.raises(ValueError, match=f"phi\\^{side}: a point lies beyond the chart's"):
        chart(np.array([[x, g.y1 + 0.01]]))
    # the last point of the second band is still charted
    edge = np.nextafter(lo - 2 * g.tau, 0.0) if side == "a" else np.nextafter(hi + 2 * g.tau, 0.0)
    assert chart._ext_count(np.array([edge])).tolist() == [2]


def test_psi_chart_conjugates_sheared_map():
    model = _model()
    g = model.geometry
    rng = np.random.default_rng(3)
    for side, origin in (("a", g.x_a - 2 * g.tau), ("b", g.x_b)):
        psit = random_trig_poly(g.tau, harmonics=4, amplitude=1e-3, rng=rng, origin=origin)
        psi = MaskedPeriodic(model.partition_bump(side), psit)
        chart = TimeEnergyChart(side, model)
        pc = PsiChart(chart, model, psi)
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
    M = splitting_a(psi, model)
    ref = splitting_a_reference(psi, model)
    xs = np.linspace(g.x_a - g.tau, g.x_a, 401)
    assert np.max(np.abs(M(xs) - ref(xs))) <= 1e-6
    # unperturbed link is closed
    assert splitting_a(None, model).sup() <= 1e-9


def test_splitting_b_closed_form_and_zero_mean():
    model = _model()
    g = model.geometry
    rng = np.random.default_rng(11)
    psit = random_trig_poly(g.tau, harmonics=5, amplitude=2e-3, rng=rng, origin=g.x_b)
    psi = MaskedPeriodic(model.partition_bump("b"), psit)
    M = splitting_b(psi, model)
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
    M = splitting_b(psi, model)
    pred = psit - restoration_b_reference(model)(psit)
    xs = np.linspace(g.x_b, g.x_b + g.tau, 401)
    assert np.max(np.abs(M(xs) - pred(xs))) <= 1e-6


def test_splitting_support_enforced():
    model = _model()
    g = model.geometry
    psit = random_trig_poly(g.tau, amplitude=1e-3, rng=np.random.default_rng(0),
                            origin=g.x_b)
    with pytest.raises(ValueError):
        splitting_a(MaskedPeriodic(model.partition_bump("b"), psit), model)
    with pytest.raises(ValueError):
        splitting_b(psit, model)  # no compact support at all


def test_splitting_b_detects_broken_a_link():
    model = build_suitable_model(hook=_a_band_hook(LinkGeometry()))
    # a failed check stores no side-b entry on the model, so a second call
    # checks again instead of skipping the check
    for _ in range(2):
        with pytest.raises(ValueError):
            splitting_b(None, model)


@pytest.mark.parametrize("side", ["a", "b"])
def test_splitting_stack_matches_its_rows(side):
    model = _model()
    g = model.geometry
    split, reference = {"a": (splitting_a, splitting_a_reference),
                        "b": (splitting_b, splitting_b_reference)}[side]
    origin = g.x_a - 2 * g.tau if side == "a" else g.x_b
    rng = np.random.default_rng(17)
    rows = np.stack([random_trig_poly(g.tau, harmonics=5, amplitude=2e-3, rng=rng,
                                      origin=origin).samples for _ in range(4)])
    rho = model.partition_bump(side)
    psi = MaskedPeriodic(rho, PeriodicFn(g.tau, rows, origin))
    singles = [MaskedPeriodic(rho, PeriodicFn(g.tau, r, origin)) for r in rows]
    M = split(psi, model)
    Ms = [split(one, model) for one in singles]
    assert M.samples.shape == (4, PERIODIC_SAMPLES) and M.origin == Ms[0].origin
    # each row is w_u - w_s for curves at height |y1| = 1, whose rounding
    # sets the row's scale
    assert np.max(np.abs(M.samples - [m.samples for m in Ms])) <= 4 * np.spacing(g.y1)
    lo, _ = model.fundamental_interval(side)
    xs = np.linspace(lo, lo + g.tau, 401)
    ref = reference(psi, model)(xs)
    singles_ref = np.array([reference(one, model)(xs) for one in singles])
    assert np.all(np.abs(ref - singles_ref)
                  <= 4 * np.spacing(np.max(np.abs(singles_ref), axis=1, keepdims=True)))
    assert np.max(np.abs(M(xs) - ref)) <= 1e-6
    if side == "b":
        assert M.mean().shape == (4,)
        assert np.max(np.abs(M.mean() - [m.mean() for m in Ms])) <= 4 * np.spacing(g.y1)
        assert np.max(np.abs(M.mean())) <= 1e-8


def test_stable_curve_shears_its_samples_as_the_shear_map_would():
    # S_{-psi} keeps x, so shearing the samples is bitwise the shear's graph
    # transform, an alpha = 1 contraction, also on a hooked model
    g = LinkGeometry()
    model = build_suitable_model(hook=_b_band_hook(g))
    psit = random_trig_poly(g.tau, harmonics=5, amplitude=2e-3,
                            rng=np.random.default_rng(19), origin=g.x_b)
    psi = MaskedPeriodic(model.partition_bump("b"), psit)
    chart, _, c = links._link(model, "b")
    sneg = shear_map(lambda x: -psi(x), lambda x: -psi.d1(x), name="S_-psi")
    c = graph_transform(sneg, c)
    for piece in reversed(model.forward_itinerary("b")):
        c = graph_transform(sneg, graph_transform(model.backward_step(piece), c))
    literal = graph_transform(chart, c)
    assert np.array_equal(stable_curve(model, "b", psi).samples, literal.samples)


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
    psi_a, (trace,), w_s = restore_link_a(model)
    assert len(trace) <= 30
    sups = [row[1] for row in trace]
    assert sups[-1] <= 1e-8
    for r0, r1 in zip(sups, sups[1:]):
        assert r1 <= 0.5 * r0
    # the restored link is closed: stable and unstable curves coincide
    g = model.geometry
    w_u = unstable_curve(model, "a")
    assert curve_sup_diff(w_u, w_s, g.x_a - g.tau, g.x_a) <= 1e-7


def test_periodic_sample_count_is_read_at_call_time(monkeypatch):
    # the splittings and the restoration's iterate all take their sample
    # count from curves.PERIODIC_SAMPLES when they run, so one patch of the
    # constant moves them together
    from islab import curves
    monkeypatch.setattr(curves, "PERIODIC_SAMPLES", 256)
    assert splitting_a(None, _model()).n == 256
    model = build_suitable_model(hook=_a_band_hook(LinkGeometry()))
    psi_a, (trace,), _ = restore_link_a(model)
    assert psi_a.psi.n == 256
    assert trace[-1][1] <= 1e-8


def test_restore_link_b():
    model = build_suitable_model(hook=_b_band_hook(LinkGeometry()))
    psi_b, (trace,), _ = restore_link_b(model)
    assert len(trace) <= 50
    norms = [row[2] for row in trace]
    assert norms[-1] <= 1e-10
    for r0, r1 in zip(norms, norms[1:]):
        assert r1 <= 0.6 * r0
    resid = splitting_b(psi_b, model)
    assert resid.sup() <= 1e-8
    assert abs(psi_b.psi.mean()) <= 1e-12


# side b's per-iteration contraction, measured over the steps whose later
# residual stands clear of the rounding floor near RESTORE_TOL, against
# |T|^(J+1) + CONTRACTION_C * size, J = NEUMANN_TERMS.  Measured at band-hook
# heights 1e-3 and 5e-3 (the plain step reads 0.25 at both):
#   J                    1        2        3        4
#   worst factor     2.8e-2   6.8e-4   2.3e-3   2.5e-3
# past J = 2 the factor levels at 2.5e-3 at either height, a floor of the
# discretized splitting that CONTRACTION_C covers twice over at height 1e-3
CONTRACTION_FLOOR = 100 * links.RESTORE_TOL
CONTRACTION_C = 5.0


def _worst_side_b_contraction(heights):
    model = build_suitable_model(hook=cli._band_hook(LinkGeometry(), "b", heights))
    _, traces, _ = restore_link_b(model)
    worst = []
    for trace in traces:
        norms = [row[2] for row in trace]
        worst.append(max(r1 / r0 for r0, r1 in zip(norms, norms[1:])
                         if r1 > CONTRACTION_FLOOR))
    return np.array(worst)


def test_restore_link_b_contracts_at_a_power_of_the_averaging_norm(monkeypatch):
    # |T| as the links suite measures it: the worst derivative-norm ratio
    # over zero-mean draws (about 0.22 here, so the bound reads 1.6e-2 and
    # 3.6e-2 at the two heights)
    g = LinkGeometry()
    rng = np.random.default_rng(5)
    z = PeriodicFn(g.tau, [random_trig_poly(g.tau, harmonics=8, amplitude=1e-2, rng=rng,
                                            origin=g.x_b, zero_mean=True).samples
                           for _ in range(20)], origin=g.x_b)
    norm_t = float(np.max(restoration_b_reference(_model())(z).norm0() / z.norm0()))
    heights = np.array([1e-3, 5e-3])
    bound = norm_t ** (links.NEUMANN_TERMS + 1) + CONTRACTION_C * heights
    assert np.all(_worst_side_b_contraction(heights) <= bound)
    # the plain step contracts at about |T| and misses the bound at both
    monkeypatch.setattr(links, "NEUMANN_TERMS", 0)
    assert np.all(_worst_side_b_contraction(heights) > bound)


@pytest.mark.parametrize("side", ["a", "b"])
def test_restore_raises_when_the_cap_runs_out(monkeypatch, side):
    # a perturbed model as the links suite builds it; one iteration short
    # of what it needs, the solver must raise, not return an unconverged
    # shear.  In a stack the others converge in time, and the error names
    # the tall row
    restore = {"a": restore_link_a, "b": restore_link_b}[side]
    for height in (1e-3, STACK_HEIGHTS):
        model = build_suitable_model(hook=cli._band_hook(LinkGeometry(), side, height))
        _, traces, _ = restore(model)
        need = [len(t) for t in traces]
        monkeypatch.setattr(links, "RESTORE_MAX_ITER", max(need) - 1)
        with pytest.raises(RuntimeError, match=f"row {np.argmax(need)}: residual .* iterations"):
            restore(model)
        monkeypatch.undo()


@pytest.mark.parametrize("side", ["a", "b"])
def test_restore_hands_back_the_stable_curve_of_its_shear(side):
    # the last splitting of the restoration built the stable curve of the
    # shear it returns; a fresh build from that shear has the same bits
    restore = {"a": restore_link_a, "b": restore_link_b}[side]
    model = build_suitable_model(hook=cli._band_hook(LinkGeometry(), side, 1e-3))
    psi, _, w_s = restore(model)
    fresh = stable_curve(model, side, psi=psi)
    assert (w_s.x0, w_s.x1) == (fresh.x0, fresh.x1)
    assert np.array_equal(w_s.samples, fresh.samples)


def test_restore_link_b_aborts_on_broken_a_link():
    model = build_suitable_model(hook=_a_band_hook(LinkGeometry()))
    with pytest.raises(ValueError):
        restore_link_b(model)
    # in a stack the error names the row: a zero height leaves the a-link
    # intact, and the next row breaks it
    model = build_suitable_model(hook=cli._band_hook(LinkGeometry(), "a", np.array([0.0, 1e-3])))
    with pytest.raises(ValueError, match="row 1: the a-link is broken"):
        restore_link_b(model)


def test_link_side_built_once_per_model(monkeypatch):
    # each side's chart, w_u and pulled-back stable seed are built on first use
    # and kept on the model: restoring side b, then drawing both of its
    # curves, builds one chart for side a (the a-link check) and one for b,
    # for a stack of models as for one
    init = TimeEnergyChart.__init__
    g = LinkGeometry()
    for height in (1.5e-3, STACK_HEIGHTS):
        builds = []

        def counting_init(self, side, model):
            builds.append(side)
            init(self, side, model)

        model = build_suitable_model(hook=cli._band_hook(g, "b", height))
        monkeypatch.setattr(TimeEnergyChart, "__init__", counting_init)
        psi, _, _ = restore_link_b(model)
        unstable_curve(model, "b")
        stable_curve(model, "b", psi)
        assert sorted(builds) == ["a", "b"]
        monkeypatch.undo()
        # the warm model splits exactly as a freshly built one
        warm = splitting_b(psi, model)
        fresh = splitting_b(psi, build_suitable_model(hook=cli._band_hook(g, "b", height)))
        assert np.array_equal(warm.samples, fresh.samples)
        assert warm.origin == fresh.origin


@pytest.mark.parametrize("hook_side,height,side",
                         [(None, None, "a"), (None, None, "b"),
                          ("a", 1e-3, "a"), ("a", 5e-3, "a"),
                          ("b", 1e-3, "a"), ("b", 1e-3, "b"),
                          ("b", 5e-3, "a"), ("b", 5e-3, "b")])
def test_cached_stable_curve_is_its_straight_level(hook_side, height, side):
    # each stable seed lies outside its hook's support, so its one pull-back
    # keeps the level bitwise; side b refuses a broken a-link, so an a-hook
    # is checked on side a only.  Both sides carry the seed's 283 samples
    g = LinkGeometry()
    hook = None if hook_side is None else cli._band_hook(g, hook_side, height)
    c = links._link(build_suitable_model(hook=hook), side)[2]
    assert np.all(c.samples == (g.y1 if side == "a" else g.y2))
    assert c.n == 283


def test_links_suite_spline_budget(monkeypatch):
    # a links run builds 221 graph curves at the benchmark's parameters, and
    # solves the spline of only the 33 it evaluates off their samples: the
    # graph-transform images that the psi shear replaces at once, and the
    # curves whose transforms read J00 alone, solve none
    solves = []
    solve = GraphCurve._solve
    monkeypatch.setattr(GraphCurve, "_solve", lambda self: solves.append(1) or solve(self))
    cfg = ExperimentConfig.from_text("suite = links\nseed = 1\nlinks.size = 0.001\n"
                                     "links.count = 10\nlinks.harmonics = 8\n")
    report, code = cli.run(cfg)
    assert code == 0
    assert 0 < len(solves) <= 40


# ---------------------------------------------------------------------------
# stacked models: K hooked models restored in lockstep

@pytest.mark.parametrize("side", ["a", "b"])
def test_stacked_restoration_rows_are_their_one_row_runs(side):
    g = LinkGeometry()
    restore = {"a": restore_link_a, "b": restore_link_b}[side]
    model = build_suitable_model(hook=cli._band_hook(g, side, STACK_HEIGHTS))
    assert model.rows == 3
    psi, traces, w_s = restore(model)
    w_u = unstable_curve(model, side)
    assert [len(t) for t in traces] == {"a": [2, 3, 2], "b": [4, 5, 4]}[side]
    for k, h in enumerate(STACK_HEIGHTS):
        # a one-row stack, and the single hook of a scalar height
        for height in (STACK_HEIGHTS[k:k + 1], h):
            solo = build_suitable_model(hook=cli._band_hook(g, side, height))
            psi1, (trace1,), w_s1 = restore(solo)
            w_u1 = unstable_curve(solo, side)
            assert np.array_equal(psi.psi.samples[k], psi1.psi.samples[0])
            assert traces[k] == trace1
            assert (w_s.x0, w_s.x1, w_u.x0, w_u.x1) == (w_s1.x0, w_s1.x1, w_u1.x0, w_u1.x1)
            assert np.array_equal(w_s.samples[k], w_s1.samples[0])
            assert np.array_equal(w_u.samples[k], w_u1.samples.reshape(-1, w_u1.n)[0])


def test_stacked_chart_wants_one_row_per_model():
    model = build_suitable_model(hook=cli._band_hook(LinkGeometry(), "b", STACK_HEIGHTS))
    chart = links._link(model, "b")[0]
    with pytest.raises(ValueError, match="leading axis of 3 rows"):
        chart(chart._strip_frame(4))
