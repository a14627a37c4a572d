"""Graph curves, periodic functions, graph transforms, and bump partitions.

Two function objects back the manifold pipelines: curves given as graphs
y = w(x) over a closed interval (cubic interpolation on a uniform grid)
and tau-periodic functions (trigonometric interpolation on one period).
The graph transform re-parameterizes the image of a curve under a planar
map with an affine x-rule as a new graph over the image interval.
"""

from functools import lru_cache

import numpy as np

DENSITY = 256  # graph-curve samples per unit of x-extent (257 per unit interval)
PERIODIC_SAMPLES = 128


class TransversalityError(ValueError):
    """A curve developed a vertical tangency under a graph transform."""


# ---------------------------------------------------------------------------
# the step, bumps and partitions


class StepFn:
    """Quintic smoothstep rising from 0 to 1 over [edge, edge + width], with
    C^2 joins: the package's one smoothstep.  The ramp coordinate is
    clamped to [0, 1], so outside the ramp the value is exactly 0 or 1 and
    the slope exactly 0."""

    def __init__(self, edge, width):
        if width <= 0:
            raise ValueError("step width must be positive")
        self.edge = float(edge)
        self.width = float(width)

    def _t(self, x):
        return (np.asarray(x, dtype=float) - self.edge) / self.width

    @staticmethod
    def _clamp(t):
        # np.clip's Python wrapper costs more than the clamp itself on the
        # island's arrays; unlike np.clip this turns a -0.0 into +0.0
        return np.minimum(np.maximum(t, 0.0), 1.0)

    @staticmethod
    def _value(t):
        return t * t * t * (10.0 + t * (6.0 * t - 15.0))

    @staticmethod
    def _slope(t):
        # 0 at t = 0 and t = 1, so the clamp alone zeroes it off the ramp
        return 30.0 * t * t * (1.0 - t) ** 2

    def __call__(self, x):
        return self._value(self._clamp(self._t(x)))

    def d1(self, x):
        return self._slope(self._clamp(self._t(x))) / self.width

    def value_and_d1(self, x):
        """self(x) and self.d1(x) from one clamp, bitwise both."""
        t = self._clamp(self._t(x))
        return self._value(t), self._slope(t) / self.width

    @staticmethod
    def _curvature(t):
        # the polynomial gives -0.0 at t = 1; the mask keeps +0.0
        u = 60.0 * t * (1.0 - t) * (1.0 - 2.0 * t)
        return np.where((t > 0.0) & (t < 1.0), u, 0.0)

    def d2(self, x):
        return self._curvature(self._clamp(self._t(x))) / self.width**2

    def jet(self, x):
        """self(x), self.d1(x) and self.d2(x) from one clamp, bitwise all
        three."""
        t = self._clamp(self._t(x))
        return self._value(t), self._slope(t) / self.width, self._curvature(t) / self.width**2


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


class BumpFn:
    """C^2 bump: 0 outside [lo, hi], `height` on [lo + width, hi - width].

    A (K,) height is a stack of K bumps, applied as a (K, 1) column: x of
    shape (n,) or (1, n) is one row that all K share, and x of shape (K, n)
    gives row k to bump k; either way the result is (K, n).
    """

    def __init__(self, lo, hi, width, height=1.0):
        if not lo + 2 * width <= hi:
            raise ValueError("bump needs lo + 2 width <= hi")
        height = np.asarray(height, dtype=float)
        if height.ndim > 1:
            raise ValueError("bump height must be a scalar or a (K,) stack")
        self.up = StepFn(lo, width)
        self.down = StepFn(hi - width, width)
        self.height = height[:, None] if height.ndim else float(height)
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
    argument into one period first, so the function is exactly periodic, and
    then sums the trigonometric polynomial by Horner's rule in
    z = exp(2 pi i t / tau) (Berrut & Trefethen, SIAM Rev. 46 (2004)).
    The mean is the exact quadrature of the samples (the c_0 coefficient).
    Samples (K, n) hold K functions on one grid: evaluation, mean, derivative,
    zero_mean and the sup norms work row by row, evaluation at x returning
    (K,) + x.shape and a norm (K,).
    """

    def __init__(self, tau, samples, origin=0.0):
        if tau <= 0:
            raise ValueError("period must be positive")
        samples = np.asarray(samples, dtype=float)
        if samples.ndim not in (1, 2) or samples.shape[-1] < 4:
            raise ValueError("need 1-d or (K, n) samples, at least 4 per row")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        self.tau = float(tau)
        self.origin = float(origin)
        self.samples = samples
        self.n = samples.shape[-1]
        self._coef = np.fft.rfft(samples) / self.n
        # f(t) = Re sum_k w_k c_k z^k: w_k = 2 but for the mean and, at even
        # n, the Nyquist mode, which are their own conjugates
        weights = np.full(self._coef.shape[-1], 2.0)
        weights[0] = 1.0
        if self.n % 2 == 0:
            weights[-1] = 1.0
        # mode first: Horner's rule steps through scalars, or (K, 1) columns
        w = weights * self._coef
        self._wcoef = w.T.reshape(w.shape[::-1] + (1,) * (w.ndim - 1))

    @classmethod
    def from_function(cls, fn, tau, n=None, origin=0.0):
        """Sample fn at n points of one period from origin; n defaults to
        PERIODIC_SAMPLES as it reads when called."""
        n = PERIODIC_SAMPLES if n is None else n
        grid = origin + np.arange(n) * (tau / n)
        return cls(tau, np.asarray(fn(grid), dtype=float), origin)

    def mean(self):
        m = np.mean(self.samples, axis=-1)
        return m if m.shape else float(m)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        # a 1-d working copy keeps every point's value independent of the
        # batch it comes in: numpy rounds 0-d and numpy-scalar products
        # differently, and a (1, 1) accumulator times a broadcast (1,) z too,
        # so a stack's z is copied out to the accumulator's own shape (a
        # contiguous copy also steps faster than a broadcast view).  The
        # Horner steps run in place, which rounds as the out-of-place step
        # does from two elements on; numpy's vectorized loops round an
        # in-place one-element complex product differently, so a
        # one-element accumulator steps out of place
        t = x.ravel() - self.origin
        t = t - self.tau * np.floor(t / self.tau)
        z = np.exp(2j * np.pi * (t / self.tau))
        stack = self.samples.shape[:-1]
        if stack:
            z = np.broadcast_to(z, stack + z.shape).copy()
        acc = np.full(z.shape, self._wcoef[-1])
        if acc.size > 1:
            for c in self._wcoef[-2::-1]:
                acc *= z
                acc += c
        else:
            for c in self._wcoef[-2::-1]:
                acc = acc * z + c
        vals = acc.real.reshape(stack + x.shape)
        return vals if vals.shape else float(vals)

    def _deriv_coef(self, order):
        """Coefficients of the order-th spectral derivative (Nyquist zeroed)."""
        k = np.arange(self._coef.shape[-1])
        coef = self._coef * (2j * np.pi * k / self.tau) ** order
        if self.n % 2 == 0:
            coef[..., -1] = 0.0
        return coef

    def derivative(self, order=1):
        """Spectral derivative as a new PeriodicFn (Nyquist mode zeroed)."""
        samples = np.fft.irfft(self._deriv_coef(order) * self.n, n=self.n)
        return PeriodicFn(self.tau, samples, self.origin)

    def _fine_sup(self, coef):
        """max |sum| of the trigonometric sum with coefficients coef on the
        sample grid refined 8 times, by a zero-padded inverse FFT: a float,
        or (K,) row by row for a stack."""
        modes = coef.shape[-1]
        spec = np.zeros(coef.shape[:-1] + (4 * self.n + 1,), dtype=complex)
        spec[..., :modes] = coef
        if self.n % 2 == 0:
            spec[..., modes - 1] *= 0.5   # irfft doubles every mode below its own Nyquist
        sup = np.max(np.abs(np.fft.irfft(spec, n=8 * self.n, norm="forward")), axis=-1)
        return sup if sup.ndim else float(sup)

    def deriv_sup(self, order):
        return self._fine_sup(self._deriv_coef(order))

    def norm0(self):
        """max(sup |f'|, sup |f''|), row by row for a stack."""
        n0 = np.maximum(self.deriv_sup(1), self.deriv_sup(2))
        return n0 if n0.ndim else float(n0)

    def sup(self):
        return self._fine_sup(self._coef)

    def zero_mean(self):
        mean = np.mean(self.samples, axis=-1, keepdims=True)
        return PeriodicFn(self.tau, self.samples - mean, self.origin)

    def __sub__(self, other):
        if not (self.tau == other.tau and self.n == other.n and self.origin == other.origin):
            raise ValueError("periodic functions have mismatched grids")
        return PeriodicFn(self.tau, self.samples - other.samples, self.origin)


def random_trig_poly(tau, harmonics=8, amplitude=1e-2, rng=None, zero_mean=False,
                     origin=0.0):
    """Random band-limited periodic function with coefficients <= amplitude.

    One `rng.uniform` call draws the mean (unless zero_mean) and then a_k,
    b_k for k = 1..harmonics, each scaled by amplitude and a_k, b_k by 1/k;
    the samples add the mean, then a_k cos and b_k sin of 2 pi k (x -
    origin)/tau in k order, both taken over one (harmonics, n) array."""
    rng = np.random.default_rng(rng)

    def samples(grid):
        draw = amplitude * rng.uniform(-1.0, 1.0, size=2 * harmonics + (not zero_mean))
        k = np.arange(1, harmonics + 1)
        coef = draw[draw.size - 2 * harmonics:].reshape(harmonics, 2) / k[:, None]
        arg = (2 * np.pi * k)[:, None] * (grid - origin) / tau
        out = np.zeros(grid.shape)
        if not zero_mean:
            out += draw[0]
        for (a, b), cos, sin in zip(coef, np.cos(arg), np.sin(arg)):
            out += a * cos
            out += b * sin
        return out

    return PeriodicFn.from_function(samples, tau, origin=origin)


class MaskedPeriodic:
    """Compactly supported product rho(x) * psi(x) of a bump and a periodic
    function; evaluable on the whole line, with first derivative.

    psi and its derivative are evaluated only strictly inside rho's support;
    everywhere else both the product and its derivative are exactly zero.
    psi is differentiated only when d1 needs it.  A stacked psi (K rows)
    gives shape (K,) + x.shape.
    """

    def __init__(self, rho, psi):
        self.rho = rho
        self.psi = psi
        self.support = rho.support
        self._stack = psi.samples.shape[:-1]

    def _split(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.support
        inside = (x > lo) & (x < hi)
        return np.zeros(self._stack + x.shape), inside, x[inside]

    def __call__(self, x):
        out, inside, xi = self._split(x)
        if xi.size:
            out[..., inside] = self.rho(xi) * self.psi(xi)
        return out

    def d1(self, x):
        out, inside, xi = self._split(x)
        if xi.size:
            dpsi = self.psi.derivative()
            out[..., inside] = self.rho.d1(xi) * self.psi(xi) + self.rho(xi) * dpsi(xi)
        return out


# ---------------------------------------------------------------------------
# graph curves


def _sample_count(x0, x1):
    return max(int(round(DENSITY * (x1 - x0))), 8) + 1


@lru_cache(maxsize=16)
def _not_a_knot_inverse(n):
    """Inverse of the not-a-knot slope system on n >= 4 uniform knots,
    read-only.

    The unknowns are m_j = h w'(x_j).  Interior rows read
    m_{j-1} + 4 m_j + m_{j+1}; the end rows, from a continuous third
    derivative across the second and the second-to-last knot, read
    m_0 + 2 m_1 and 2 m_{n-2} + m_{n-1}.  The system is tridiagonal, so
    its inverse is solved column-wise by Thomas elimination on the
    identity, in numpy alone: a LAPACK inverse costs 0.1-0.2 s per call
    when OpenBLAS starts its threads, against a few ms here.  Past the
    first pivot the rows are diagonally dominant, so no pivoting is needed.
    """
    x = np.eye(n)
    c = np.empty(n - 1)               # the superdiagonal, over each pivot
    c[0] = 2.0                        # row 0 has pivot 1
    for i in range(1, n):
        sub, diag = (2.0, 1.0) if i == n - 1 else (1.0, 4.0)
        den = diag - sub * c[i - 1]
        if i < n - 1:
            c[i] = 1.0 / den
        x[i] -= sub * x[i - 1]
        x[i] /= den
    for i in range(n - 2, -1, -1):
        x[i] -= c[i] * x[i + 1]
    x.flags.writeable = False
    return x


class GraphCurve:
    """A plane curve y = w(x) over [x0, x1]: uniform samples, cubic interpolant.

    The interpolant is the not-a-knot cubic spline on the uniform grid (de
    Boor, A Practical Guide to Splines, ch. IV), and it extrapolates the end
    cubics outside [x0, x1].  Samples (K, n) hold K curves on one grid:
    evaluation at x then returns shape (K,) + x.shape.

    The spline is solved on the first evaluation (`__call__` or `deriv`)
    and then kept, so a curve that is only read at its samples, or not at
    all, costs no solve.  The curve holds a read-only copy of its samples,
    so the spline solved later reads the samples it was built with.
    """

    def __init__(self, x0, x1, samples):
        x0, x1 = float(x0), float(x1)
        if not x0 < x1:
            raise ValueError("curve interval must satisfy x0 < x1")
        samples = np.array(samples, dtype=float)
        if samples.ndim not in (1, 2) or samples.shape[-1] < 4:
            raise ValueError("need 1-d or (K, n) samples, at least 4 per row")
        if not np.all(np.isfinite(samples)):
            raise ValueError("curve samples must be finite")
        samples.flags.writeable = False
        self.x0 = x0
        self.x1 = x1
        self.samples = samples
        self.n = samples.shape[-1]
        self.grid = np.linspace(x0, x1, self.n)
        self._coef = None

    def _solve(self):
        """The spline's coefficient table, (..., n - 1, 7): row j holds the
        cubic on [x_j, x_j+1] in powers 3, 2, 1, 0 of (x - x_j), then its
        derivative in powers 2, 1, 0."""
        samples = self.samples
        h = (self.x1 - self.x0) / (self.n - 1)
        d = np.diff(samples)
        dT = d.T  # sample axis first: the end rows are scalar arithmetic for one curve
        rhs = np.empty(samples.shape[::-1])
        rhs[1:-1] = 3.0 * (dT[:-1] + dT[1:])
        rhs[0] = 0.5 * (5.0 * dT[0] + dT[1])
        rhs[-1] = 0.5 * (dT[-2] + 5.0 * dT[-1])
        # a gemv per row, so each row of a stack keeps its own curve's bits
        m = (_not_a_knot_inverse(self.n) @ rhs.T[..., None])[..., 0]
        c3 = (m[..., :-1] + m[..., 1:] - 2.0 * d) / h**3
        c2 = (3.0 * d - 2.0 * m[..., :-1] - m[..., 1:]) / h**2
        c1 = m[..., :-1] / h
        return np.stack([c3, c2, c1, samples[..., :-1], 3 * c3, 2 * c2, c1], axis=-1)

    def _horner(self, x, first, last):
        """Horner's rule on coefficient columns first..last of each point's
        interval.  Points below grid[1] take the first cubic and points from
        grid[-2] on the last, so the end cubics extrapolate."""
        if self._coef is None:
            self._coef = self._solve()
        x = np.asarray(x, dtype=float)
        j = np.searchsorted(self.grid[1:-1], x, side="right")
        c = self._coef.take(j, axis=-2)
        t = x - self.grid.take(j)
        y = c[..., first] * t
        for k in range(first + 1, last):
            y += c[..., k]
            y *= t
        y += c[..., last]
        return y

    def __call__(self, x):
        return self._horner(x, 0, 3)

    def deriv(self, x):
        return self._horner(x, 4, 6)

    def points(self, x=None):
        """Curve points (x, w(x)) as (..., 2), at the samples by default; a
        stack shares the x column across its rows."""
        if x is None:
            x, y = self.grid, self.samples
        else:
            x = np.asarray(x, dtype=float)
            y = self(x)
        p = np.empty(y.shape + (2,))
        p[..., 0], p[..., 1] = x, y
        return p


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


def _transversality(f, curve, J):
    """Raise unless f, with Jacobian entries J on the curve's samples, maps
    the curve (each row of a stack) to a graph over x.  The error reports
    the x of the first grid column where some row fails.

    s = J00 + J01 w' is the rate of the image's x along the curve.  Where
    J01 is zero on every sample, s is J00 and w' is not read, so a curve
    that is only transformed solves no spline.  The two forms differ only in
    the sign of a zero, which the tangency test refuses either way."""
    if np.any(J[1]):
        s = J[0] + J[1] * curve.deriv(curve.grid)
    else:
        s = np.broadcast_to(J[0], np.broadcast_shapes(np.shape(J[0]), curve.samples.shape))
    bad = np.abs(s) < 1e-10
    if np.any(bad):
        x = float(curve.grid[np.argmax(np.any(bad.reshape(-1, curve.n), axis=0))])
        raise TransversalityError(
            f"{f.name}: vertical tangency along the transformed curve near x = {x}")
    flip = s * s[..., :1] < 0  # the image turns back against its start
    if np.any(flip):
        x = float(curve.grid[np.argmax(np.any(flip.reshape(-1, curve.n), axis=0))])
        raise TransversalityError(
            f"{f.name}: image fails to be a graph (fold) near x = {x}")


def graph_transform(f, curve):
    """Image of a graph curve under the planar map f, as a graph curve.

    The image is re-parameterized over x, and f's x-rule must be affine on
    the curve's samples.  The image samples are kept (contractions, the
    identity included: its image grid is the curve's own) or pulled back
    through the exact affine inverse onto a standard grid (expansions).  A
    stack of curves is mapped by one evaluation of f on all its points.

    Raises TransversalityError when the image is not a graph over x, and
    RuntimeError when the x-image is not finite.  Raises ValueError when
    the x-rule is not affine, or when a stack's rows do not share row 0's
    x-image.
    """
    img, J = f.ev(curve.points(), True)
    _transversality(f, curve, J)
    img = np.asarray(img, dtype=float)
    rows, ty = img[..., 0].reshape(-1, curve.n), img[..., 1]
    if not np.all(np.isfinite(rows)):
        raise RuntimeError(f"graph_transform: {f.name} gives a non-finite x-image")
    tx = rows[0]
    if np.any(rows != tx):
        raise ValueError(f"graph_transform: {f.name} gives the rows of a stack "
                         "different x-images")
    if np.all(np.diff(tx) == 0.0):
        raise TransversalityError(f"{f.name}: image collapses in x")

    span = tx[-1] - tx[0]
    alpha = span / (curve.x1 - curve.x0)
    predicted = tx[0] + (curve.grid - curve.grid[0]) * alpha
    if np.max(np.abs(tx - predicted)) > 1e-13 * max(abs(span), 1.0):
        raise ValueError(f"graph_transform: {f.name} has an x-rule that is not affine "
                         "on the curve")

    if abs(alpha) <= 1.0 + 1e-12:
        if alpha > 0:
            return GraphCurve(tx[0], tx[-1], ty)
        return GraphCurve(tx[-1], tx[0], ty[..., ::-1])

    lo, hi = (tx[0], tx[-1]) if span > 0 else (tx[-1], tx[0])
    X = np.linspace(lo, hi, _sample_count(lo, hi))
    x_src = np.clip(curve.grid[0] + (X - tx[0]) / alpha, curve.x0, curve.x1)
    out = np.asarray(f(curve.points(x_src)), dtype=float)
    return GraphCurve(lo, hi, out[..., 1])
