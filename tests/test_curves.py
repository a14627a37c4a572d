import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

from construction_checks import separate_map
import islab.curves as curves
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

    return separate_map(name, fwd, jac, inv)


# ---------------------------------------------------------------------------
# bump calculus


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_smoothstep_endpoints_and_monotone():
    step = StepFn(0.0, 1.0)
    t = np.linspace(-0.5, 1.5, 401)
    s = step(t)
    assert s[0] == 0.0 and s[-1] == 1.0
    assert step(np.array([0.5]))[0] == pytest.approx(0.5, abs=1e-15)
    assert np.all(np.diff(s) >= 0)
    # flat to second order at the ends
    assert step.d1(np.array([0.0, 1.0])) == pytest.approx([0.0, 0.0])
    # the one-clamp pair and triple are the methods bit for bit, clamped
    # ends included
    t = np.concatenate([t, [0.0, 1.0, -1e-300, 1.0 + 2e-16]])
    for got, ref in zip(step.value_and_d1(t), (step(t), step.d1(t))):
        assert np.array_equal(_bits(got), _bits(ref))
    for got, ref in zip(step.jet(t), (step(t), step.d1(t), step.d2(t))):
        assert np.array_equal(_bits(got), _bits(ref))


def test_stepfn_clamps_and_derivative():
    s = StepFn(2.0, 0.5)
    assert s(np.array([1.0]))[0] == 0.0
    assert s(np.array([3.0]))[0] == 1.0
    x = np.linspace(1.5, 3.0, 301)
    h = 1e-6
    fd = (s(x + h) - s(x - h)) / (2 * h)
    assert np.max(np.abs(fd - s.d1(x))) < 1e-4
    # the curvature against the slope's differences, across the whole ramp
    # (|d2| reaches 23), and +0.0 off it, the ends included; at the joins
    # d2 has a kink, where a difference over +-h is off by about 120 h
    h = 1e-7
    fd2 = (s.d1(x + h) - s.d1(x - h)) / (2 * h)
    assert np.max(np.abs(fd2 - s.d2(x))) < 1e-4
    assert np.array_equal(_bits(s.d2(np.array([1.0, 2.0, 2.5, 3.0]))), _bits(np.zeros(4)))
    x = np.concatenate([x, [2.0, 2.5, np.nextafter(2.0, 3.0), np.nextafter(2.5, 2.0)]])
    for got, ref in zip(s.value_and_d1(x), (s(x), s.d1(x))):
        assert np.array_equal(_bits(got), _bits(ref))
    for got, ref in zip(s.jet(x), (s(x), s.d1(x), s.d2(x))):
        assert np.array_equal(_bits(got), _bits(ref))


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


def test_bumpfn_curvature_matches_slope_differences():
    b = BumpFn(0.0, 2.0, 0.3, height=0.7)
    x = np.linspace(-0.5, 2.5, 601)
    h = 1e-7
    fd2 = (b.d1(x + h) - b.d1(x - h)) / (2 * h)
    assert np.max(np.abs(fd2 - b.d2(x))) < 1e-4
    assert np.all(b.d2(np.array([-0.1, 1.0, 2.1])) == 0.0)


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
    with pytest.raises(ValueError, match="mismatched grids"):
        g - PeriodicFn(2.0, np.zeros(128))


def test_periodic_from_function_roundtrip():
    f = PeriodicFn.from_function(lambda x: np.sin(2 * np.pi * (x - 0.25)), 1.0, origin=0.25)
    x = np.linspace(0, 1, 401)
    assert np.max(np.abs(f(x) - np.sin(2 * np.pi * (x - 0.25)))) < 1e-12


def _dense_eval(f, x, coef=None):
    """The trigonometric sum with f's weights, one exp per point and mode;
    coef defaults to f's own interpolation coefficients."""
    if coef is None:
        coef = np.fft.rfft(f.samples) / f.n
    t = np.asarray(x, dtype=float) - f.origin
    t = t - f.tau * np.floor(t / f.tau)
    k = np.arange(coef.size)
    w = np.full(coef.size, 2.0)
    w[0] = 1.0
    if f.n % 2 == 0:
        w[-1] = 1.0                            # the Nyquist mode is its own conjugate
    return np.real(np.exp(2j * np.pi * np.multiply.outer(t / f.tau, k)) @ (w * coef))


def _nyquist_wave(n, tau=0.8, origin=-0.35):
    # amplitude 1e-2 (the links suite's shears are 1e-3) keeps the rounding
    # of the argument, |f'| ulp(t) ~ 1e-17, far below the 1e-15 tolerances;
    # at even n a Nyquist mode makes the weight of the last coefficient visible
    x = np.arange(n) * (tau / n)
    s = 1e-2 * (np.sin(2 * np.pi * x / tau) + 0.3 * np.cos(6 * np.pi * x / tau))
    if n % 2 == 0:
        s = s + 1e-3 * (-1.0) ** np.arange(n)
    return PeriodicFn(tau, s, origin)


@pytest.mark.parametrize("n", [128, 127, 16, 9])
def test_periodic_eval_matches_dense_formula(n):
    f = _nyquist_wave(n)
    rng = np.random.default_rng(n)
    x = np.concatenate([rng.uniform(-2.0, 2.0, 400), [-0.35, 0.45, -1e-3, 1e3 + 0.123, -7.5e3]])
    assert np.max(np.abs(f(x) - _dense_eval(f, x))) <= 1e-15
    y = f(-0.6)
    assert isinstance(y, float)
    assert abs(y - _dense_eval(f, -0.6)) <= 1e-15


@pytest.mark.parametrize("n", [128, 127, 16, 9])
def test_periodic_sup_matches_dense_fine_grid(n):
    f = _nyquist_wave(n)
    fine = f.origin + np.arange(8 * n) * (f.tau / (8 * n))
    c = np.fft.rfft(f.samples) / n
    k = np.arange(c.size)
    for order in (0, 1, 2):
        coef = c * (2j * np.pi * k / f.tau) ** order
        if order and n % 2 == 0:
            coef[-1] = 0.0
        ref = np.max(np.abs(_dense_eval(f, fine, coef)))
        got = f.sup() if order == 0 else f.deriv_sup(order)
        assert abs(got - ref) <= 1e-15 * max(1.0, ref), order


def test_periodic_and_masked_eval_batch_independent():
    # 1-d samples, and stacks of 1 and 3 rows: at batches of 1, 2 and 301
    # points, and at scalar points, every row of a stack reads bitwise its
    # own 1-d function on the whole batch, for PeriodicFn, MaskedPeriodic
    # and its d1
    psi = _nyquist_wave(128)
    rho = PartitionBump(-0.2, 0.6, psi.tau)
    x = np.random.default_rng(4).uniform(-0.5, 1.5, 301)
    draw = np.random.default_rng(3).standard_normal
    for samples in (psi.samples, 1e-2 * draw((1, 128)), 1e-2 * draw((3, 128))):
        stack = PeriodicFn(psi.tau, samples, psi.origin)
        rows = [PeriodicFn(psi.tau, row, psi.origin) for row in np.atleast_2d(samples)]
        masked = [MaskedPeriodic(rho, f) for f in rows]
        m = MaskedPeriodic(rho, stack)
        for fn, refs in ((stack, rows), (m, masked), (m.d1, [f.d1 for f in masked])):
            want = np.reshape([ref(x) for ref in refs], np.shape(fn(x)))
            for size in (1, 2, 301):
                got = np.concatenate([np.reshape(fn(x[i:i + size]), want.shape[:-1] + (-1,))
                                      for i in range(0, x.size, size)], axis=-1)
                assert np.array_equal(got, want), (samples.shape, size)
            scalar = np.stack([fn(xi) for xi in x], axis=-1)
            assert np.array_equal(scalar, want), samples.shape


def _horner_out_of_place(f, x):
    """f(x) by PeriodicFn's evaluation with every Horner step out of place."""
    x = np.asarray(x, dtype=float)
    t = x.ravel() - f.origin
    t = t - f.tau * np.floor(t / f.tau)
    z = np.exp(2j * np.pi * (t / f.tau))
    stack = f.samples.shape[:-1]
    if stack:
        z = np.broadcast_to(z, stack + z.shape).copy()
    acc = np.full(z.shape, f._wcoef[-1])
    for c in f._wcoef[-2::-1]:
        acc = acc * z + c
    vals = acc.real.reshape(stack + x.shape)
    return vals if vals.shape else float(vals)


def test_periodic_in_place_horner_matches_the_out_of_place_steps():
    # the in-place steps round as the out-of-place ones from two elements
    # on; numpy's vectorized loops round an in-place one-element complex
    # product differently, so batches of one point, of a 1-d function or of
    # a (1, n) stack, fail here when they step in place too
    draw = np.random.default_rng(8).standard_normal
    x = np.random.default_rng(9).uniform(-1.5, 2.5, 301)
    for samples in (_nyquist_wave(128).samples, 1e-2 * draw(127), 1e-2 * draw((1, 128)),
                    1e-2 * draw((3, 128))):
        f = PeriodicFn(0.8, samples, -0.35)
        for size in (1, 2, 3, 301):
            for i in range(0, x.size, size):
                got, want = f(x[i:i + size]), _horner_out_of_place(f, x[i:i + size])
                assert np.array_equal(got, want), (samples.shape, size, i)
        for xi in x:
            got, want = f(xi), _horner_out_of_place(f, xi)
            assert type(got) is type(want) and np.array_equal(got, want), (samples.shape, xi)


def test_masked_periodic_exact_zero_outside_support():
    psi = _nyquist_wave(128)
    rho = PartitionBump(-0.2, 0.6, psi.tau)
    m = MaskedPeriodic(rho, psi)
    lo, hi = m.support
    x = np.concatenate([np.linspace(lo - 1.0, hi + 1.0, 1001), [lo, hi]])
    inside = (x > lo) & (x < hi)
    assert np.count_nonzero(~inside) > 100
    for vals in (m(x), m.d1(x)):
        assert np.all(vals[~inside] == 0.0)
    xi = x[inside]
    assert np.array_equal(m(x)[inside], rho(xi) * psi(xi))
    dpsi = psi.derivative()
    assert np.array_equal(m.d1(x)[inside], rho.d1(xi) * psi(xi) + rho(xi) * dpsi(xi))


def test_masked_periodic_skips_psi_outside_support():
    psi = _nyquist_wave(128)
    m = MaskedPeriodic(PartitionBump(-0.2, 0.6, psi.tau), psi)
    sizes = []

    class Spy:
        """psi, logging the size of each evaluation and each derivative taken."""
        def __init__(self, fn):
            self.fn = fn

        def __call__(self, x):
            sizes.append(np.size(x))
            return self.fn(x)

        def derivative(self):
            sizes.append("derivative")
            return Spy(self.fn.derivative())

    m.psi = Spy(m.psi)
    lo, hi = m.support
    outside = np.array([lo - 1.0, lo, hi, hi + 0.5])
    assert np.all(m(outside) == 0.0) and np.all(m.d1(outside) == 0.0)
    assert sizes == []
    m(np.array([lo, 0.5 * (lo + hi)]))
    assert sizes == [1]
    m.d1(np.array([lo, 0.5 * (lo + hi)]))
    assert sizes == [1, "derivative", 1, 1]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_random_trig_poly_zero_mean_property(seed):
    rng = np.random.default_rng(seed)
    p = random_trig_poly(1.0, harmonics=6, amplitude=1e-2, rng=rng, zero_mean=True)
    assert abs(p.mean()) < 1e-15
    assert p.sup() < 1.0  # amplitude-controlled


def _trig_poly_by_harmonic(tau, harmonics, amplitude, rng, zero_mean, origin):
    """random_trig_poly's samples drawn and summed one harmonic at a time:
    the mean, then a_k, b_k from one size-2 draw per k, each sum in place."""
    grid = origin + np.arange(curves.PERIODIC_SAMPLES) * (tau / curves.PERIODIC_SAMPLES)
    out = np.zeros(grid.shape)
    if not zero_mean:
        out += amplitude * rng.uniform(-1.0, 1.0)
    for k in range(1, harmonics + 1):
        a, b = amplitude * rng.uniform(-1.0, 1.0, size=2) / k
        out += a * np.cos(2 * np.pi * k * (grid - origin) / tau)
        out += b * np.sin(2 * np.pi * k * (grid - origin) / tau)
    return out


@pytest.mark.parametrize("harmonics", [1, 5, 8])
@pytest.mark.parametrize("zero_mean", [False, True])
@pytest.mark.parametrize("origin", [0.0, -0.37])
def test_random_trig_poly_matches_the_per_harmonic_draw(harmonics, zero_mean, origin):
    # one uniform call and one (harmonics, n) cos and sin give the bits of
    # the per-harmonic loop, and leave the generator where the loop leaves it
    tau, amp = 0.83, 1e-2
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(3):
        f = random_trig_poly(tau, harmonics=harmonics, amplitude=amp, rng=rng,
                             zero_mean=zero_mean, origin=origin)
        ref = _trig_poly_by_harmonic(tau, harmonics, amp, ref_rng, zero_mean, origin)
        assert np.array_equal(f.samples, ref)
    assert rng.random() == ref_rng.random()


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
    c = GraphCurve(0.0, 2.0, np.sin(np.linspace(0.0, 2.0, curves._sample_count(0.0, 2.0))))
    assert c.n >= 2 * 256 + 1
    x = np.linspace(0.0, 2.0, 313)
    assert np.max(np.abs(c(x) - np.sin(x))) < 1e-9
    assert np.max(np.abs(c.deriv(x) - np.cos(x))) < 1e-6
    # the interpolation error has the scale h^4 |w''''| / 384, and the
    # samples' fourth differences estimate h^4 w''''
    assert float(np.max(np.abs(np.diff(c.samples, 4)))) / 384.0 < 1e-8
    pts = c.points()
    assert pts.shape == (c.n, 2)


@pytest.mark.parametrize("n", [4, 5, 142, 257, 283])
def test_graph_curve_matches_cubic_spline(n):
    x0, x1 = -0.3, 1.7
    grid = np.linspace(x0, x1, n)
    w = np.sin(3.0 * grid) + 1e-3 * np.random.default_rng(n).standard_normal(n)
    c = GraphCurve(x0, x1, w)
    ref = CubicSpline(grid, w)
    x = np.linspace(x0, x1, 2001)
    assert np.max(np.abs(c(x) - ref(x))) <= 1e-14
    dref = ref(x, 1)
    assert np.max(np.abs(c.deriv(x) - dref)) <= 1e-12 * (1.0 + np.max(np.abs(dref)))


def _noisy_sine_curve(n):
    x0, x1 = -0.3, 1.7
    grid = np.linspace(x0, x1, n)
    w = np.sin(3.0 * grid) + 1e-3 * np.random.default_rng(n).standard_normal(n)
    return GraphCurve(x0, x1, w), CubicSpline(grid, w)


@pytest.mark.parametrize("n", [4, 5, 142, 257, 283])
def test_graph_curve_extrapolates_end_cubics(n):
    c, ref = _noisy_sine_curve(n)
    h = (c.x1 - c.x0) / (n - 1)
    for x in (np.linspace(c.x0 - h, c.x0, 101), np.linspace(c.x1, c.x1 + h, 101)):
        assert np.max(np.abs(c(x) - ref(x))) <= 1e-14


@pytest.mark.parametrize("n", [4, 5, 283])
def test_graph_curve_reproduces_samples_at_knots(n):
    # each knot but the last starts its own interval, where the cubic's
    # constant term is the sample itself
    c, _ = _noisy_sine_curve(n)
    assert np.array_equal(c(c.grid[:-1]), c.samples[:-1])


def test_graph_curve_points_are_batch_independent():
    c, _ = _noisy_sine_curve(283)
    h = (c.x1 - c.x0) / (c.n - 1)
    x = np.concatenate([c.grid, np.random.default_rng(5).uniform(c.x0 - h, c.x1 + h, 300)])
    for f in (c, c.deriv):
        batch = f(x)
        assert batch.shape == x.shape
        assert np.array_equal(batch, [f(xi) for xi in x])


@pytest.mark.parametrize("n", [4, 5, 142, 283])
def test_graph_curve_slope_inverse_inverts_the_system(n):
    a = 4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    a[0, 0] = a[-1, -1] = 1.0
    a[0, 1] = a[-1, -2] = 2.0
    inv = curves._not_a_knot_inverse(n)
    eps = np.finfo(float).eps
    assert np.max(np.abs(inv @ a - np.eye(n))) <= 4 * eps
    assert np.max(np.abs(a @ inv - np.eye(n))) <= 4 * eps


def test_graph_curve_slope_inverse_is_cached_read_only():
    inv = curves._not_a_knot_inverse(283)
    before = inv.copy()
    _noisy_sine_curve(283)
    assert curves._not_a_knot_inverse(283) is inv
    assert not inv.flags.writeable
    assert np.array_equal(inv, before)


def test_graph_curve_rejects_bad_input():
    with pytest.raises(ValueError):
        GraphCurve(1.0, 0.0, np.zeros(257))
    with pytest.raises(ValueError):
        GraphCurve(0.0, 1.0, np.array([0.0, np.nan, 0.0, 0.0]))


def test_graph_curve_samples_are_read_only():
    # the spline is solved on first evaluation, from the samples the curve
    # was built with: neither a write through the curve nor one to the
    # array it was built from reaches it
    w = np.sin(np.linspace(0.0, 1.0, 257))
    c = GraphCurve(0.0, 1.0, w)
    with pytest.raises(ValueError):
        c.samples[3] = 0.0
    w[3] = 5.0
    assert np.array_equal(c.samples, np.sin(c.grid))
    assert np.array_equal(c(c.grid[:-1]), c.samples[:-1])


def test_graph_curve_first_evaluation_keeps_the_bits():
    # twins, one first evaluated by deriv and one by __call__, solve one
    # spline each and agree bit for bit in both
    x = np.linspace(-0.4, 1.8, 777)
    (a, _), (b, _) = _noisy_sine_curve(283), _noisy_sine_curve(283)
    da, vb = a.deriv(x), b(x)
    assert np.array_equal(a(x), vb)
    assert np.array_equal(da, b.deriv(x))


def test_straight_curve_is_flat():
    c = straight_curve(-2.0, -1.0, 0.75)
    assert np.all(c(np.linspace(-2, -1, 55)) == 0.75)


# ---------------------------------------------------------------------------
# graph transform paths


def _wave_curve(x0=0.0, x1=1.0):
    x = np.linspace(x0, x1, curves._sample_count(x0, x1))
    return GraphCurve(x0, x1, 0.2 * np.sin(2 * np.pi * x) + 0.5)


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


def _bendy_map(nan_where=None):
    """A map whose x-rule reads y; its x-image is NaN wherever nan_where(x)
    holds."""
    def fwd(p):
        x = p[..., 0] + 0.1 * np.sin(p[..., 1])
        if nan_where is not None:
            x = np.where(nan_where(p[..., 0]), np.nan, x)
        return np.stack([x, p[..., 1] + 0.05 * p[..., 0]], axis=-1)

    def jac(p):
        o = np.ones(np.shape(p)[:-1])
        return np.stack([np.stack([o, 0.1 * np.cos(p[..., 1])], axis=-1),
                         np.stack([0.05 * o, o], axis=-1)], axis=-2)

    return separate_map("bendy", fwd, jac)


@pytest.mark.parametrize("nan_where", [
    lambda x: x > 0.95,                                     # at the last samples
], ids=["end-samples"])
def test_transform_nonfinite_x_image_raises(nan_where):
    with pytest.raises(RuntimeError, match="non-finite"):
        graph_transform(_bendy_map(nan_where), _wave_curve())


def test_transform_composition_property():
    f = shear_map(lambda x: 0.05 * np.sin(3 * x), lambda x: 0.15 * np.cos(3 * x))
    g = _affine("squeeze", -0.5, 0.7, -2.0, 0.2)
    c = _wave_curve()
    lhs = graph_transform(compose(f, g), c)
    rhs = graph_transform(f, graph_transform(g, c))
    assert curve_sup_diff(lhs, rhs) < 1e-8


def test_transform_evaluates_each_factor_once():
    # image and Jacobian come from one pass along the composite's chain
    calls = {}

    def counted(m):
        def ev(p, with_jac):
            calls[m.name] = calls.get(m.name, 0) + 1
            return m.ev(p, with_jac)
        return MapDescriptor(m.name, ev, m.inv)

    f = compose(counted(shear_map(lambda x: 0.05 * np.sin(3 * x),
                                  lambda x: 0.15 * np.cos(3 * x))),
                counted(_affine("squeeze", -0.5, 0.7, -2.0, 0.2)))
    graph_transform(f, _wave_curve())        # contraction: no resampling pass
    assert calls == {"S_psi": 1, "squeeze": 1}


def test_transform_vertical_tangency_raises():
    from islab.maps import quarter_turn
    c = _wave_curve()
    with pytest.raises(TransversalityError):
        graph_transform(quarter_turn(), c)


def test_transform_through_a_diagonal_contraction_solves_no_spline(monkeypatch):
    # J01 = 0 on every sample: the transversality test reads J00 alone, so
    # neither the curve nor its image is solved; a map with J01 != 0 reads w'
    solves = []
    solve = GraphCurve._solve
    monkeypatch.setattr(GraphCurve, "_solve", lambda self: solves.append(self) or solve(self))
    c = _wave_curve()
    out = graph_transform(_affine("fold-like", -0.5, 1.25, -2.0, 0.4), c)
    assert solves == []
    rising = GraphCurve(0.0, 1.0, c.grid + 1.0)
    graph_transform(_swap(), rising)
    assert solves == [rising]
    out(np.linspace(out.x0, out.x1, 5))
    assert solves[-1] is out


def test_transform_fold_raises_with_location():
    def fwd(p):
        return np.stack([(p[..., 0] - 0.5) ** 2, p[..., 1]], axis=-1)

    def jac(p):
        z = np.zeros(np.shape(p)[:-1])
        o = np.ones_like(z)
        return np.stack([np.stack([2 * (p[..., 0] - 0.5), z], axis=-1),
                         np.stack([z, o], axis=-1)], axis=-2)

    f = separate_map("parabola", fwd, jac)
    c = _wave_curve()
    with pytest.raises(TransversalityError):
        graph_transform(f, c)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_transform_translation_property(shift):
    c = _wave_curve()
    out = graph_transform(_affine("shift", 1.0, shift, 1.0, 0.0), c)
    x = np.linspace(out.x0 + 1e-9, out.x1 - 1e-9, 65)
    assert np.max(np.abs(out(x) - c(np.clip(x - shift, 0.0, 1.0)))) < 1e-12


# ---------------------------------------------------------------------------
# stacks: K functions or curves on one grid


def _assert_rows_match(stacked, singles):
    """Each row of a stacked result within 4 ulp of its row's scale."""
    singles = np.asarray(singles)
    assert stacked.shape == singles.shape
    scale = np.max(np.abs(singles.reshape(len(singles), -1)), axis=-1)
    tol = 4 * np.spacing(scale).reshape((-1,) + (1,) * (singles.ndim - 1))
    assert np.all(np.abs(stacked - singles) <= tol)


def _periodic_rows(n, k=5, seed=11):
    return 1e-2 * np.random.default_rng(seed).standard_normal((k, n))


@pytest.mark.parametrize("n", [128, 127])
def test_periodic_stack_matches_its_rows(n):
    rows = _periodic_rows(n)
    stack = PeriodicFn(0.8, rows, -0.35)
    singles = [PeriodicFn(0.8, r, -0.35) for r in rows]
    x = np.random.default_rng(n).uniform(-2.0, 2.0, 301)
    _assert_rows_match(stack(x), [f(x) for f in singles])
    _assert_rows_match(stack(x.reshape(7, 43)), [f(x.reshape(7, 43)) for f in singles])
    _assert_rows_match(stack(0.3), [f(0.3) for f in singles])
    _assert_rows_match(stack.mean(), [f.mean() for f in singles])
    _assert_rows_match(stack.derivative()(x), [f.derivative()(x) for f in singles])
    _assert_rows_match(stack.zero_mean().samples, [f.zero_mean().samples for f in singles])


@pytest.mark.parametrize("n", [128, 127])
def test_periodic_stack_sup_norms_are_their_rows(n):
    # bitwise: the restorations stop each row on these norms, and must stop
    # it where its one-row run stops
    rows = _periodic_rows(n)
    stack = PeriodicFn(0.8, rows, -0.35)
    singles = [PeriodicFn(0.8, r, -0.35) for r in rows]
    for norm in (lambda f: f.sup(), lambda f: f.deriv_sup(1), lambda f: f.deriv_sup(2),
                 lambda f: f.norm0()):
        got = norm(stack)
        assert got.shape == (len(rows),)
        solo = [norm(f) for f in singles]
        assert all(isinstance(v, float) for v in solo)
        assert np.array_equal(got, solo)


def test_bumpfn_stacked_height_rows_are_their_bumps():
    heights = np.array([0.7, -1e-3, 0.0])
    stack = BumpFn(0.0, 2.0, 0.3, height=heights)
    singles = [BumpFn(0.0, 2.0, 0.3, height=h) for h in heights]
    x = np.linspace(-0.5, 2.5, 301)
    xk = x + np.array([[0.0], [0.1], [-0.2]])
    for fn in ("__call__", "d1", "d2"):
        # one row shared by all three bumps, as (n,) or (1, n), and a row each
        for arg, rows in ((x, [x] * 3), (x[None], [x] * 3), (xk, xk)):
            got = getattr(stack, fn)(arg)
            assert got.shape == (3, x.size)
            assert np.array_equal(got, [getattr(b, fn)(r) for b, r in zip(singles, rows)])
    with pytest.raises(ValueError, match="height"):
        BumpFn(0.0, 2.0, 0.3, height=np.ones((2, 2)))


def test_masked_periodic_stack_matches_its_rows():
    rows = _periodic_rows(128)
    rho = PartitionBump(-0.2, 0.6, 0.8)
    stack = MaskedPeriodic(rho, PeriodicFn(0.8, rows, -0.35))
    singles = [MaskedPeriodic(rho, PeriodicFn(0.8, r, -0.35)) for r in rows]
    lo, hi = stack.support
    x = np.concatenate([np.linspace(lo - 0.5, hi + 0.5, 301), [lo, hi]])
    for vals, ref in ((stack(x), [m(x) for m in singles]),
                      (stack.d1(x), [m.d1(x) for m in singles])):
        _assert_rows_match(vals, ref)
        assert np.all(vals[:, (x <= lo) | (x >= hi)] == 0.0)


def _curve_rows(n=283, k=4, seed=3):
    grid = np.linspace(-0.3, 1.7, n)
    noise = 1e-3 * np.random.default_rng(seed).standard_normal((k, n))
    return np.sin(3.0 * grid) * np.linspace(0.5, 2.0, k)[:, None] + noise


def test_graph_curve_stack_matches_its_rows():
    rows = _curve_rows()
    stack = GraphCurve(-0.3, 1.7, rows)
    singles = [GraphCurve(-0.3, 1.7, r) for r in rows]
    h = (stack.x1 - stack.x0) / (stack.n - 1)
    x = np.concatenate([stack.grid, np.random.default_rng(5).uniform(-0.3 - h, 1.7 + h, 300)])
    _assert_rows_match(stack(x), [c(x) for c in singles])
    _assert_rows_match(stack.deriv(x), [c.deriv(x) for c in singles])
    pts = stack.points()
    assert pts.shape == (4, stack.n, 2)
    assert np.all(pts[..., 0] == stack.grid) and np.array_equal(pts[..., 1], rows)
    assert stack.points(x).shape == (4, x.size, 2)


@pytest.mark.parametrize("f", [
    shear_map(lambda x: 0.1 * np.cos(2 * np.pi * x),
              lambda x: -0.2 * np.pi * np.sin(2 * np.pi * x)),   # identity x-rule
    _affine("fold-like", -0.5, 1.25, -2.0, 0.4),                # affine contraction
    _affine("double", 2.0, 0.0, 1.0, 0.1),                      # affine expansion
], ids=["identity", "contraction", "expansion"])
def test_transform_stack_matches_its_rows(f):
    rows = 0.5 + 0.2 * np.sin(2 * np.pi * np.linspace(0.0, 1.0, 257)) * np.array([[1.0], [-0.5], [2.0]])
    out = graph_transform(f, GraphCurve(0.0, 1.0, rows))
    singles = [graph_transform(f, GraphCurve(0.0, 1.0, r)) for r in rows]
    assert all((out.x0, out.x1, out.n) == (c.x0, c.x1, c.n) for c in singles)
    _assert_rows_match(out.samples, [c.samples for c in singles])


def test_transform_stack_rows_with_different_x_images_raise():
    # the bendy map's x-rule reads y, so rows at different heights part in x
    rows = np.stack([_wave_curve().samples, _wave_curve().samples + 0.1])
    with pytest.raises(ValueError, match="different x-images"):
        graph_transform(_bendy_map(), GraphCurve(0.0, 1.0, rows))


def test_transform_non_affine_x_rule_raises():
    # a nonlinear x-rule that ignores y: every row of a stack shares its
    # x-image, and curve and stack alike raise, naming the map
    def fwd(p):
        return np.stack([p[..., 0] + 0.1 * np.sin(3 * p[..., 0]), p[..., 1]], axis=-1)

    def jac(p):
        J = np.zeros(np.shape(p)[:-1] + (2, 2))
        J[..., 0, 0] = 1.0 + 0.3 * np.cos(3 * p[..., 0])
        J[..., 1, 1] = 1.0
        return J

    f = separate_map("wavy-x", fwd, jac)
    c = _wave_curve()
    for curve in (c, GraphCurve(0.0, 1.0, np.stack([c.samples, c.samples + 0.1]))):
        with pytest.raises(ValueError, match="^graph_transform: wavy-x has an x-rule that "
                                             "is not affine"):
            graph_transform(f, curve)


def _swap():
    """(x, y) -> (y, x): the image is a graph over x where w' keeps a sign."""
    def jac(p):
        J = np.zeros(np.shape(p)[:-1] + (2, 2))
        J[..., 0, 1] = J[..., 1, 0] = 1.0
        return J

    return separate_map("swap", lambda p: p[..., ::-1].copy(), jac)


def test_transform_stack_reports_first_tangent_column():
    # w' vanishes at a knot: row 1 at x = 0.5, row 2 at 0.75; row 0 never
    grid = np.linspace(0.0, 1.0, 257)
    rows = np.stack([grid + 1.0, (grid - 0.5) ** 2, (grid - 0.75) ** 2])
    for stack in (rows, rows[[0, 2, 1]]):
        with pytest.raises(TransversalityError, match="tangency") as err:
            graph_transform(_swap(), GraphCurve(0.0, 1.0, stack))
        assert str(err.value).endswith(" near x = 0.5")


def test_transform_stack_reports_first_fold_column():
    # w' changes sign between knots: row 2 first at x = 0.3, row 0 at 0.6;
    # each row reports the first knot past its turn, and the stack the first
    grid = np.linspace(0.0, 1.0, 257)
    rows = np.stack([(grid - 0.6) ** 2, grid + 1.0, (grid - 0.3) ** 2])
    with pytest.raises(TransversalityError, match="fold") as err:
        graph_transform(_swap(), GraphCurve(0.0, 1.0, rows))
    assert str(err.value).endswith(f" near x = {float(grid[77])}")
    with pytest.raises(TransversalityError, match="fold") as err:
        graph_transform(_swap(), GraphCurve(0.0, 1.0, rows[0]))
    assert str(err.value).endswith(f" near x = {float(grid[154])}")
