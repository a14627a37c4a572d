import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from islab.curves import (
    BumpFn,
    GraphCurve,
    MaskedPeriodic,
    PartitionBump,
    PeriodicFn,
    StepFn,
    TransversalityError,
    curve_sup_diff,
    graph_transform,
    random_trig_poly,
    smoothstep,
    smoothstep_d1,
    straight_curve,
)
from islab.maps import MapDescriptor, compose, shear_map


def _affine(name, ax, bx, ay, by):
    A = np.array([[ax, 0.0], [0.0, ay]])

    def fwd(p):
        return p * np.array([ax, ay]) + np.array([bx, by])

    def jac(p):
        return np.broadcast_to(A, np.shape(p)[:-1] + (2, 2)).copy()

    def inv(q):
        return (q - np.array([bx, by])) / np.array([ax, ay])

    return MapDescriptor(name, fwd, jac, inv)


# ---------------------------------------------------------------------------
# bump calculus


def test_smoothstep_endpoints_and_monotone():
    t = np.linspace(-0.5, 1.5, 401)
    s = smoothstep(t)
    assert s[0] == 0.0 and s[-1] == 1.0
    assert smoothstep(np.array([0.5]))[0] == pytest.approx(0.5, abs=1e-15)
    assert np.all(np.diff(s) >= 0)
    # flat to second order at the ends
    assert smoothstep_d1(np.array([0.0, 1.0])) == pytest.approx([0.0, 0.0])


def test_stepfn_clamps_and_derivative():
    s = StepFn(2.0, 0.5)
    assert s(np.array([1.0]))[0] == 0.0
    assert s(np.array([3.0]))[0] == 1.0
    x = np.linspace(1.5, 3.0, 301)
    h = 1e-6
    fd = (s(x + h) - s(x - h)) / (2 * h)
    assert np.max(np.abs(fd - s.d1(x))) < 1e-4


def test_partition_bump_exact_partition():
    # side-a style bump: rho(x) + rho(x - tau) == 1 on the overlap band,
    # with the telescoping arranged to be exact in floating point
    tau, delta = 1.0, 0.1
    edge = -5.0 + delta
    rho = PartitionBump(edge, tau - 2 * delta, tau)
    x = np.linspace(edge + (tau - 2 * delta) + 1e-6, edge + 2 * tau - 1e-6, 4001)
    defect = np.abs(rho(x) + rho(x - tau) - 1.0)
    assert np.max(defect) == 0.0
    lo, hi = rho.support
    assert lo == edge and hi == pytest.approx(edge + 2 * tau - 2 * delta)
    assert np.all(rho(np.array([lo - 0.01, hi + 0.01])) == 0.0)


def test_partition_bump_rejects_wide_transition():
    with pytest.raises(ValueError):
        PartitionBump(0.0, 1.5, 1.0)


def test_bumpfn_plateau_and_support():
    b = BumpFn(0.0, 2.0, 0.3, height=0.7)
    assert b(np.array([1.0]))[0] == pytest.approx(0.7)
    assert b(np.array([-0.1]))[0] == 0.0 and b(np.array([2.1]))[0] == 0.0
    assert b.support == (0.0, 2.0)
    with pytest.raises(ValueError):
        BumpFn(0.0, 0.5, 0.3)


# ---------------------------------------------------------------------------
# periodic functions


def _sample_wave(tau=1.0, n=128):
    x = np.arange(n) * (tau / n)
    return PeriodicFn(tau, np.sin(2 * np.pi * x) + 0.3 * np.cos(6 * np.pi * x))


def test_periodic_eval_matches_band_limited_data():
    f = _sample_wave()
    x = np.linspace(-2.0, 3.0, 1777)
    ref = np.sin(2 * np.pi * x) + 0.3 * np.cos(6 * np.pi * x)
    assert np.max(np.abs(f(x) - ref)) < 1e-12


def test_periodic_exact_periodicity():
    f = _sample_wave()
    x = np.linspace(0.0, 1.0, 257)
    assert np.array_equal(f(x), f(x + 1.0))
    assert np.array_equal(f(x), f(x - 2.0))


def test_periodic_derivative_spectral():
    f = _sample_wave()
    d = f.derivative()
    x = np.linspace(0.0, 1.0, 513)
    ref = 2 * np.pi * np.cos(2 * np.pi * x) - 1.8 * np.pi * np.sin(6 * np.pi * x)
    assert np.max(np.abs(d(x) - ref)) < 1e-10
    d2 = f.derivative(2)
    ref2 = -(2 * np.pi) ** 2 * np.sin(2 * np.pi * x) - 0.3 * (6 * np.pi) ** 2 * np.cos(6 * np.pi * x)
    assert np.max(np.abs(d2(x) - ref2)) < 1e-8


def test_periodic_mean_sup_norm0():
    f = _sample_wave()
    assert abs(f.mean()) < 1e-15
    assert f.sup() == pytest.approx(np.max(np.abs(f(np.linspace(0, 1, 8193)))), abs=1e-5)
    expect = max(f.deriv_sup(1), f.deriv_sup(2))
    assert f.norm0() == pytest.approx(expect)


def test_periodic_zero_mean_and_arithmetic():
    g = PeriodicFn(1.0, np.cos(2 * np.pi * np.arange(128) / 128) + 0.4)
    z = g.zero_mean()
    assert abs(z.mean()) < 1e-15
    s = g - z
    x = np.linspace(0, 1, 101)
    assert np.max(np.abs(s(x) - 0.4)) < 1e-13
    tw = 2.0 * z
    assert np.max(np.abs(tw(x) - 2 * z(x))) < 1e-14
    with pytest.raises(ValueError):
        g + PeriodicFn(2.0, np.zeros(128))


def test_periodic_from_function_roundtrip():
    f = PeriodicFn.from_function(lambda x: np.sin(2 * np.pi * (x - 0.25)), 1.0, origin=0.25)
    x = np.linspace(0, 1, 401)
    assert np.max(np.abs(f(x) - np.sin(2 * np.pi * (x - 0.25)))) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_random_trig_poly_zero_mean_property(seed):
    rng = np.random.default_rng(seed)
    p = random_trig_poly(1.0, harmonics=6, amplitude=1e-2, rng=rng, zero_mean=True)
    assert abs(p.mean()) < 1e-15
    assert p.sup() < 1.0  # amplitude-controlled


def test_masked_periodic_product_and_derivative():
    tau = 1.0
    rho = PartitionBump(0.1, 0.8, tau)
    psi = random_trig_poly(tau, harmonics=5, amplitude=1e-2, rng=np.random.default_rng(0))
    m = MaskedPeriodic(rho, psi)
    x = np.linspace(-0.5, 3.0, 701)
    assert np.max(np.abs(m(x) - rho(x) * psi(x))) < 1e-15
    h = 1e-6
    fd = (m(x + h) - m(x - h)) / (2 * h)
    assert np.max(np.abs(m.d1(x) - fd)) < 1e-4
    assert m.support == rho.support


# ---------------------------------------------------------------------------
# graph curves


def test_graph_curve_basics():
    c = GraphCurve.from_function(lambda x: np.sin(x), 0.0, 2.0)
    assert c.n >= 2 * 256 + 1
    x = np.linspace(0.0, 2.0, 313)
    assert np.max(np.abs(c(x) - np.sin(x))) < 1e-9
    assert np.max(np.abs(c.deriv(x) - np.cos(x))) < 1e-6
    assert c.err_estimate < 1e-8
    pts = c.points()
    assert pts.shape == (c.n, 2)


def test_graph_curve_rejects_bad_input():
    with pytest.raises(ValueError):
        GraphCurve(1.0, 0.0, np.zeros(257))
    with pytest.raises(ValueError):
        GraphCurve(0.0, 1.0, np.array([0.0, np.nan, 0.0, 0.0]))


def test_straight_curve_is_flat():
    c = straight_curve(-2.0, -1.0, 0.75)
    assert np.all(c(np.linspace(-2, -1, 55)) == 0.75)


# ---------------------------------------------------------------------------
# graph transform paths


def _wave_curve(x0=0.0, x1=1.0):
    return GraphCurve.from_function(lambda x: 0.2 * np.sin(2 * np.pi * x) + 0.5, x0, x1)


def test_transform_shear_reuses_grid_exactly():
    c = _wave_curve()
    psi = lambda x: 0.1 * np.cos(2 * np.pi * x)
    f = shear_map(psi, lambda x: -0.2 * np.pi * np.sin(2 * np.pi * x))
    out = graph_transform(f, c)
    assert np.array_equal(out.grid, c.grid)
    assert np.array_equal(out.samples, c.samples + psi(c.grid))


def test_transform_translation():
    c = _wave_curve()
    f = _affine("shift", 1.0, 0.3, 1.0, 0.0)
    out = graph_transform(f, c)
    x = np.linspace(0.3, 1.3, 301)
    assert np.max(np.abs(out(x) - c(x - 0.3))) < 1e-13


def test_transform_linear_contraction_with_flip():
    # (x, y) -> (-x/2 + c, -2y + d): the image graph is X -> d - 2 w(2(c - X))
    c0, d0 = 1.25, 0.4
    f = _affine("fold-like", -0.5, c0, -2.0, d0)
    c = _wave_curve()
    out = graph_transform(f, c)
    assert (out.x0, out.x1) == (pytest.approx(c0 - 0.5), pytest.approx(c0))
    X = np.linspace(out.x0, out.x1, 301)
    assert np.max(np.abs(out(X) - (d0 - 2.0 * c(2.0 * (c0 - X))))) < 1e-12


def test_transform_expansion_roundtrip():
    f = _affine("double", 2.0, 0.0, 1.0, 0.1)
    g = _affine("halve", 0.5, 0.0, 1.0, -0.1)
    c = _wave_curve()
    back = graph_transform(g, graph_transform(f, c))
    assert curve_sup_diff(back, c, 0.0, 1.0) < 1e-12


def test_transform_general_path():
    # x-rule depends on the curve through y: solved by bisection + Newton
    def fwd(p):
        return np.stack([p[..., 0] + 0.1 * np.sin(p[..., 1]), p[..., 1] + 0.05 * p[..., 0]],
                        axis=-1)

    def jac(p):
        z = np.zeros(np.shape(p)[:-1])
        o = np.ones_like(z)
        return np.stack([np.stack([o, 0.1 * np.cos(p[..., 1])], axis=-1),
                         np.stack([0.05 * o, o], axis=-1)], axis=-2)

    f = MapDescriptor("bendy", fwd, jac)
    c = _wave_curve()
    out = graph_transform(f, c)
    # verify pointwise: for each source sample the image must lie on the curve
    img = fwd(c.points())
    inside = (img[:, 0] >= out.x0) & (img[:, 0] <= out.x1)
    assert np.max(np.abs(out(img[inside, 0]) - img[inside, 1])) < 1e-9


def test_transform_composition_property():
    f = shear_map(lambda x: 0.05 * np.sin(3 * x), lambda x: 0.15 * np.cos(3 * x))
    g = _affine("squeeze", -0.5, 0.7, -2.0, 0.2)
    c = _wave_curve()
    lhs = graph_transform(compose(f, g), c)
    rhs = graph_transform(f, graph_transform(g, c))
    assert curve_sup_diff(lhs, rhs) < 1e-8


def test_transform_vertical_tangency_raises():
    from islab.maps import quarter_turn
    c = _wave_curve()
    with pytest.raises(TransversalityError):
        graph_transform(quarter_turn(), c)


def test_transform_fold_raises_with_location():
    def fwd(p):
        return np.stack([(p[..., 0] - 0.5) ** 2, p[..., 1]], axis=-1)

    def jac(p):
        z = np.zeros(np.shape(p)[:-1])
        o = np.ones_like(z)
        return np.stack([np.stack([2 * (p[..., 0] - 0.5), z], axis=-1),
                         np.stack([z, o], axis=-1)], axis=-2)

    f = MapDescriptor("parabola", fwd, jac)
    c = _wave_curve()
    with pytest.raises(TransversalityError) as err:
        graph_transform(f, c)
    assert err.value.x is not None


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_transform_translation_property(shift):
    c = _wave_curve()
    out = graph_transform(_affine("shift", 1.0, shift, 1.0, 0.0), c)
    x = np.linspace(out.x0 + 1e-9, out.x1 - 1e-9, 65)
    assert np.max(np.abs(out(x) - c(np.clip(x - shift, 0.0, 1.0)))) < 1e-12
