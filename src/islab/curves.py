"""Graph curves, periodic functions, graph transforms, and bump partitions.

Two function objects back the manifold pipelines: curves given as graphs
y = w(x) over a closed interval (cubic interpolation on a uniform grid)
and tau-periodic functions (trigonometric interpolation on one period).
The graph transform re-parameterizes the image of a curve under a planar
map as a new graph over the image interval.
"""

import numpy as np
from scipy.interpolate import CubicSpline

DENSITY = 256  # graph-curve samples per unit of x-extent (257 per unit interval)
PERIODIC_SAMPLES = 128


class TransversalityError(ValueError):
    """A curve developed a vertical tangency under a graph transform."""

    def __init__(self, message, x=None):
        super().__init__(message)
        self.x = x


# ---------------------------------------------------------------------------
# smoothstep / bumps / partitions


def smoothstep(t):
    """Clamped quintic step: 0 for t <= 0, 1 for t >= 1, C^2 joins."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (6.0 * t - 15.0))


def smoothstep_d1(t):
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    tc = np.clip(t, 0.0, 1.0)
    u = 30.0 * tc * tc * (1.0 - tc) ** 2
    return np.where(inside, u, 0.0)


def smoothstep_d2(t):
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    tc = np.clip(t, 0.0, 1.0)
    u = 60.0 * tc * (1.0 - tc) * (1.0 - 2.0 * tc)
    return np.where(inside, u, 0.0)


class StepFn:
    """Smoothstep rising from 0 to 1 over [edge, edge + width]."""

    def __init__(self, edge, width):
        if width <= 0:
            raise ValueError("step width must be positive")
        self.edge = float(edge)
        self.width = float(width)

    def __call__(self, x):
        return smoothstep((np.asarray(x, dtype=float) - self.edge) / self.width)

    def d1(self, x):
        return smoothstep_d1((np.asarray(x, dtype=float) - self.edge) / self.width) / self.width

    def d2(self, x):
        return smoothstep_d2((np.asarray(x, dtype=float) - self.edge) / self.width) / self.width**2


class PartitionBump:
    """rho(x) = step(x) - step(x - tau), a bump with the exact partition
    property rho(x) + rho(x -+ tau) = 1 on the telescoping band.

    Both terms evaluate the same step function, and the shared argument is
    produced by the same single subtraction on either side of the identity,
    so the middle terms cancel exactly.  Support: [edge, edge + tau + width].
    """

    def __init__(self, edge, width, tau):
        if width > tau:
            raise ValueError("partition bump width must not exceed the period")
        self.step = StepFn(edge, width)
        self.tau = float(tau)
        self.support = (float(edge), float(edge) + float(tau) + float(width))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.step(x) - self.step(x - self.tau)

    def d1(self, x):
        x = np.asarray(x, dtype=float)
        return self.step.d1(x) - self.step.d1(x - self.tau)

    def d2(self, x):
        x = np.asarray(x, dtype=float)
        return self.step.d2(x) - self.step.d2(x - self.tau)


class BumpFn:
    """C^2 bump: 0 outside [lo, hi], 1 on [lo + width, hi - width]."""

    def __init__(self, lo, hi, width, height=1.0):
        if not lo + 2 * width <= hi:
            raise ValueError("bump needs lo + 2 width <= hi")
        self.up = StepFn(lo, width)
        self.down = StepFn(hi - width, width)
        self.height = float(height)
        self.support = (float(lo), float(hi))

    def __call__(self, x):
        return self.height * (self.up(x) - self.down(x))

    def d1(self, x):
        return self.height * (self.up.d1(x) - self.down.d1(x))

    def d2(self, x):
        return self.height * (self.up.d2(x) - self.down.d2(x))


# ---------------------------------------------------------------------------
# periodic functions


class PeriodicFn:
    """tau-periodic function from uniform samples, trigonometric interpolation.

    Samples sit at origin + j tau / n, j = 0..n-1.  Evaluation reduces the
    argument into one period first, so the function is exactly periodic.
    The mean is the exact quadrature of the samples (the c_0 coefficient).
    """

    def __init__(self, tau, samples, origin=0.0):
        if tau <= 0:
            raise ValueError("period must be positive")
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1 or samples.size < 4:
            raise ValueError("need a 1-d array of at least 4 samples")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        self.tau = float(tau)
        self.origin = float(origin)
        self.samples = samples
        self.n = samples.size
        self._coef = np.fft.rfft(samples) / self.n

    @classmethod
    def from_function(cls, fn, tau, n=PERIODIC_SAMPLES, origin=0.0):
        grid = origin + np.arange(n) * (tau / n)
        return cls(tau, np.asarray(fn(grid), dtype=float), origin)

    @property
    def grid(self):
        return self.origin + np.arange(self.n) * (self.tau / self.n)

    def mean(self):
        return float(np.mean(self.samples))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        t = x - self.origin
        t = t - self.tau * np.floor(t / self.tau)
        k = np.arange(self._coef.size)
        phase = np.exp(2j * np.pi * np.multiply.outer(t / self.tau, k))
        weights = np.full(self._coef.size, 2.0)
        weights[0] = 1.0
        if self.n % 2 == 0:
            weights[-1] = 1.0
        vals = np.real(phase @ (weights * self._coef))
        return vals if vals.shape else float(vals)

    def derivative(self, order=1):
        """Spectral derivative as a new PeriodicFn (Nyquist mode zeroed)."""
        k = np.arange(self._coef.size)
        factor = (2j * np.pi * k / self.tau) ** order
        coef = self._coef * factor
        if self.n % 2 == 0:
            coef[-1] = 0.0
        samples = np.fft.irfft(coef * self.n, n=self.n)
        return PeriodicFn(self.tau, samples, self.origin)

    def _fine_grid(self):
        """The sample grid refined 8 times, where sup norms are taken."""
        return self.origin + np.arange(self.n * 8) * (self.tau / (self.n * 8))

    def deriv_sup(self, order):
        return float(np.max(np.abs(self.derivative(order)(self._fine_grid()))))

    def norm0(self):
        """max(sup |f'|, sup |f''|)."""
        return max(self.deriv_sup(1), self.deriv_sup(2))

    def sup(self):
        return float(np.max(np.abs(self(self._fine_grid()))))

    def zero_mean(self):
        return PeriodicFn(self.tau, self.samples - np.mean(self.samples), self.origin)

    def _check_compatible(self, other):
        if not (self.tau == other.tau and self.n == other.n and self.origin == other.origin):
            raise ValueError("periodic functions have mismatched grids")

    def __add__(self, other):
        self._check_compatible(other)
        return PeriodicFn(self.tau, self.samples + other.samples, self.origin)

    def __sub__(self, other):
        self._check_compatible(other)
        return PeriodicFn(self.tau, self.samples - other.samples, self.origin)

    def __mul__(self, scalar):
        return PeriodicFn(self.tau, self.samples * float(scalar), self.origin)

    __rmul__ = __mul__

    def __neg__(self):
        return PeriodicFn(self.tau, -self.samples, self.origin)


def random_trig_poly(tau, harmonics=8, amplitude=1e-2, rng=None, zero_mean=False,
                     origin=0.0):
    """Random band-limited periodic function with coefficients <= amplitude."""
    rng = np.random.default_rng(rng)
    n = PERIODIC_SAMPLES
    grid = origin + np.arange(n) * (tau / n)
    samples = np.zeros(n)
    if not zero_mean:
        samples += amplitude * rng.uniform(-1.0, 1.0)
    for k in range(1, harmonics + 1):
        a, b = amplitude * rng.uniform(-1.0, 1.0, size=2) / k
        samples += a * np.cos(2 * np.pi * k * (grid - origin) / tau)
        samples += b * np.sin(2 * np.pi * k * (grid - origin) / tau)
    return PeriodicFn(tau, samples, origin)


class MaskedPeriodic:
    """Compactly supported product rho(x) * psi(x) of a bump and a periodic
    function; evaluable on the whole line, with first derivative."""

    def __init__(self, rho, psi):
        self.rho = rho
        self.psi = psi
        self.support = rho.support
        self._dpsi = psi.derivative() if hasattr(psi, "derivative") else None

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.rho(x) * self.psi(x)

    def d1(self, x):
        x = np.asarray(x, dtype=float)
        if self._dpsi is None:
            h = 1e-6 * (1.0 + np.abs(x))
            dpsi = (self.psi(x + h) - self.psi(x - h)) / (2.0 * h)
        else:
            dpsi = self._dpsi(x)
        return self.rho.d1(x) * self.psi(x) + self.rho(x) * dpsi


# ---------------------------------------------------------------------------
# graph curves


def _sample_count(x0, x1):
    return max(int(round(DENSITY * (x1 - x0))), 8) + 1


class GraphCurve:
    """A plane curve y = w(x) over [x0, x1]: uniform samples, cubic interpolant.

    The interpolation-error estimate (h^4 |w''''| / 384 scale, from fourth
    differences) is recorded on construction.
    """

    def __init__(self, x0, x1, samples):
        x0, x1 = float(x0), float(x1)
        if not x0 < x1:
            raise ValueError("curve interval must satisfy x0 < x1")
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1 or samples.size < 4:
            raise ValueError("need a 1-d array of at least 4 samples")
        if not np.all(np.isfinite(samples)):
            raise ValueError("curve samples must be finite")
        self.x0 = x0
        self.x1 = x1
        self.samples = samples
        self.n = samples.size
        self.grid = np.linspace(x0, x1, self.n)
        self._spline = CubicSpline(self.grid, samples)
        self._dspline = self._spline.derivative()
        if self.n >= 5:
            self.err_estimate = float(np.max(np.abs(np.diff(samples, 4)))) / 384.0
        else:
            self.err_estimate = 0.0

    @classmethod
    def from_function(cls, fn, x0, x1):
        grid = np.linspace(x0, x1, _sample_count(x0, x1))
        return cls(x0, x1, np.asarray(fn(grid), dtype=float))

    def __call__(self, x):
        return self._spline(x)

    def deriv(self, x):
        return self._dspline(x)

    def points(self, x=None):
        """Curve points (x, w(x)) stacked as (..., 2)."""
        if x is None:
            return np.stack([self.grid, self.samples], axis=-1)
        x = np.asarray(x, dtype=float)
        return np.stack([x, self._spline(x)], axis=-1)


def straight_curve(x0, x1, level):
    """The horizontal segment y = level over [x0, x1]."""
    return GraphCurve(x0, x1, np.full(_sample_count(x0, x1), float(level)))


def curve_sup_diff(c1, c2, a=None, b=None):
    """sup |c1 - c2| over the common interval (or [a, b])."""
    lo = max(c1.x0, c2.x0) if a is None else a
    hi = min(c1.x1, c2.x1) if b is None else b
    if not lo < hi:
        raise ValueError("curves have no common interval")
    x = np.linspace(lo, hi, 2049)
    return float(np.max(np.abs(c1(x) - c2(x))))


# ---------------------------------------------------------------------------
# graph transform


def _transversality(f, curve):
    J = f.jacobian(curve.points())
    s = J[..., 0, 0] + J[..., 0, 1] * curve.deriv(curve.grid)
    bad = np.abs(s) < 1e-10
    if np.any(bad):
        x = float(curve.grid[np.argmax(bad)])
        raise TransversalityError(
            f"{f.name}: vertical tangency along the transformed curve near x = {x}", x=x)
    if np.any(s > 0) and np.any(s < 0):
        x = float(curve.grid[np.argmax(s < 0) if s[0] > 0 else np.argmax(s > 0)])
        raise TransversalityError(
            f"{f.name}: image fails to be a graph (fold) near x = {x}", x=x)


def graph_transform(f, curve):
    """Image of a graph curve under the planar map f, as a graph curve.

    The image is re-parameterized over x.  When the x-rule is the identity
    on the samples the grid is reused unchanged; when it is affine the image
    samples are kept (contractions) or pulled back through the exact affine
    inverse onto a standard grid (expansions); otherwise each target x is
    solved by bisection bracketed by sample pairs plus two Newton steps.
    """
    _transversality(f, curve)
    img = np.asarray(f(curve.points()), dtype=float)
    tx, ty = img[..., 0], img[..., 1]

    d = np.diff(tx)
    if np.all(d == 0.0):
        raise TransversalityError(f"{f.name}: image collapses in x", x=float(curve.grid[0]))

    if np.array_equal(tx, curve.grid):
        return GraphCurve(curve.x0, curve.x1, ty)

    span = tx[-1] - tx[0]
    alpha = span / (curve.x1 - curve.x0)
    predicted = tx[0] + (curve.grid - curve.grid[0]) * alpha
    affine = np.max(np.abs(tx - predicted)) <= 1e-13 * max(abs(span), 1.0)

    if affine and abs(alpha) <= 1.0 + 1e-12:
        if alpha > 0:
            return GraphCurve(tx[0], tx[-1], ty)
        return GraphCurve(tx[-1], tx[0], ty[::-1])

    lo, hi = (tx[0], tx[-1]) if span > 0 else (tx[-1], tx[0])
    X = np.linspace(lo, hi, _sample_count(lo, hi))

    if affine:
        x_src = curve.grid[0] + (X - tx[0]) / alpha
        x_src = np.clip(x_src, curve.x0, curve.x1)
        out = np.asarray(f(curve.points(x_src)), dtype=float)
        return GraphCurve(lo, hi, out[..., 1])

    # general path: monotone bracket + bisection + two Newton polishing steps
    t_sorted = tx if span > 0 else tx[::-1]
    g_sorted = curve.grid if span > 0 else curve.grid[::-1]
    idx = np.clip(np.searchsorted(t_sorted, X) - 1, 0, curve.n - 2)
    a = np.minimum(g_sorted[idx], g_sorted[idx + 1])
    b = np.maximum(g_sorted[idx], g_sorted[idx + 1])
    sign = 1.0 if span > 0 else -1.0

    def img_x(x):
        return np.asarray(f(curve.points(x)), dtype=float)[..., 0]

    for _ in range(30):
        m = 0.5 * (a + b)
        below = sign * (img_x(m) - X) < 0
        a = np.where(below, m, a)
        b = np.where(below, b, m)
    x = 0.5 * (a + b)
    for _ in range(2):
        p = curve.points(x)
        J = f.jacobian(p)
        slope = J[..., 0, 0] + J[..., 0, 1] * curve.deriv(x)
        x = x - (np.asarray(f(p), dtype=float)[..., 0] - X) / slope
        x = np.clip(x, curve.x0, curve.x1)
    out = np.asarray(f(curve.points(x)), dtype=float)
    return GraphCurve(lo, hi, out[..., 1])
