"""Graph curves, periodic functions, graph transforms, and bump partitions.

Two function objects back the manifold pipelines: curves given as graphs
y = w(x) over a closed interval (cubic interpolation on a uniform grid)
and tau-periodic functions (trigonometric interpolation on one period).
The graph transform re-parameterizes the image of a curve under a planar
map with an affine x-rule as a new graph over the image interval.  rtsafe,
the package's one safeguarded Newton, lives here too; its caller is
blowup's psi_inv.
"""

from functools import lru_cache

import numpy as np

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


def smoothstep_and_d1(t):
    """smoothstep(t) and smoothstep_d1(t) from one clip, bitwise both for
    finite t: the slope's polynomial is 0 at t = 0 and t = 1, so the clamp
    alone zeroes it outside (0, 1)."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (6.0 * t - 15.0)), 30.0 * t * t * (1.0 - t) ** 2


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


# ---------------------------------------------------------------------------
# periodic functions


class PeriodicFn:
    """tau-periodic function from uniform samples, trigonometric interpolation.

    Samples sit at origin + j tau / n, j = 0..n-1.  Evaluation reduces the
    argument into one period first, so the function is exactly periodic, and
    then sums the trigonometric polynomial by Horner's rule in
    z = exp(2 pi i t / tau) (Berrut & Trefethen, SIAM Rev. 46 (2004)).
    The mean is the exact quadrature of the samples (the c_0 coefficient).
    Samples (K, n) hold K functions on one grid: evaluation, mean, derivative
    and zero_mean work row by row, evaluation at x returning (K,) + x.shape.
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
    def from_function(cls, fn, tau, n=PERIODIC_SAMPLES, origin=0.0):
        grid = origin + np.arange(n) * (tau / n)
        return cls(tau, np.asarray(fn(grid), dtype=float), origin)

    @property
    def grid(self):
        return self.origin + np.arange(self.n) * (self.tau / self.n)

    def mean(self):
        m = np.mean(self.samples, axis=-1)
        return m if m.shape else float(m)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        # a 1-d working copy, and Horner steps that are not in place, keep
        # every point's value independent of the batch it comes in: numpy
        # rounds 0-d, numpy-scalar and in-place one-element products differently
        t = x.ravel() - self.origin
        t = t - self.tau * np.floor(t / self.tau)
        z = np.exp(2j * np.pi * (t / self.tau))
        stack = self.samples.shape[:-1]
        acc = np.full(stack + z.shape, self._wcoef[-1])
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
        sample grid refined 8 times, by a zero-padded inverse FFT."""
        spec = np.zeros(4 * self.n + 1, dtype=complex)
        spec[:coef.size] = coef
        if self.n % 2 == 0:
            spec[coef.size - 1] *= 0.5   # irfft doubles every mode below its own Nyquist
        return float(np.max(np.abs(np.fft.irfft(spec, n=8 * self.n, norm="forward"))))

    def deriv_sup(self, order):
        return self._fine_sup(self._deriv_coef(order))

    def norm0(self):
        """max(sup |f'|, sup |f''|)."""
        return max(self.deriv_sup(1), self.deriv_sup(2))

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
    """

    def __init__(self, x0, x1, samples):
        x0, x1 = float(x0), float(x1)
        if not x0 < x1:
            raise ValueError("curve interval must satisfy x0 < x1")
        samples = np.asarray(samples, dtype=float)
        if samples.ndim not in (1, 2) or samples.shape[-1] < 4:
            raise ValueError("need 1-d or (K, n) samples, at least 4 per row")
        if not np.all(np.isfinite(samples)):
            raise ValueError("curve samples must be finite")
        self.x0 = x0
        self.x1 = x1
        self.samples = samples
        self.n = samples.shape[-1]
        self.grid = np.linspace(x0, x1, self.n)
        h = (x1 - x0) / (self.n - 1)
        d = np.diff(samples)
        dT = d.T  # sample axis first: the end rows are scalar arithmetic for one curve
        rhs = np.empty(samples.shape[::-1])
        rhs[1:-1] = 3.0 * (dT[:-1] + dT[1:])
        rhs[0] = 0.5 * (5.0 * dT[0] + dT[1])
        rhs[-1] = 0.5 * (dT[-2] + 5.0 * dT[-1])
        # a gemv per row, so each row of a stack keeps its own curve's bits
        m = (_not_a_knot_inverse(self.n) @ rhs.T[..., None])[..., 0]
        # row j: the cubic on [x_j, x_j+1] in powers 3, 2, 1, 0 of (x - x_j),
        # then its derivative in powers 2, 1, 0
        c3 = (m[..., :-1] + m[..., 1:] - 2.0 * d) / h**3
        c2 = (3.0 * d - 2.0 * m[..., :-1] - m[..., 1:]) / h**2
        c1 = m[..., :-1] / h
        self._coef = np.stack([c3, c2, c1, samples[..., :-1], 3 * c3, 2 * c2, c1], axis=-1)

    def _horner(self, x, first, last):
        """Horner's rule on coefficient columns first..last of each point's
        interval.  Points below grid[1] take the first cubic and points from
        grid[-2] on the last, so the end cubics extrapolate."""
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
    """Raise unless f, with Jacobian J on the curve's samples, maps the
    curve (each row of a stack) to a graph over x.  The error reports the
    x of the first grid column where some row fails."""
    s = J[..., 0, 0] + J[..., 0, 1] * curve.deriv(curve.grid)
    bad = np.abs(s) < 1e-10
    if np.any(bad):
        x = float(curve.grid[np.argmax(np.any(bad.reshape(-1, curve.n), axis=0))])
        raise TransversalityError(
            f"{f.name}: vertical tangency along the transformed curve near x = {x}", x=x)
    flip = s * s[..., :1] < 0  # the image turns back against its start
    if np.any(flip):
        x = float(curve.grid[np.argmax(np.any(flip.reshape(-1, curve.n), axis=0))])
        raise TransversalityError(
            f"{f.name}: image fails to be a graph (fold) near x = {x}", x=x)


def rtsafe(resid, x, lo, hi, r_floor, x_floor, cap, name):
    """Roots of a batch of increasing 1-d functions by safeguarded Newton
    (rtsafe, Numerical Recipes section 9.4); blowup's psi_inv calls it.

    resid(x, rows) returns the residuals of entries `rows` at x, increasing
    in x, and their slopes.  x (the start) and the bracket [lo, hi] are 1-d
    arrays, updated in place; x is returned.  A Newton step that leaves the
    current bracket is replaced by bisection, and an entry freezes once
    |r| <= r_floor (a scalar or one value per entry), its step is at most
    x_floor(x), or its bracket has shrunk to 2 x_floor(x).

    Raises RuntimeError, naming `name`, if a residual is not finite or an
    entry is still active after `cap` iterations.
    """
    r_floor = np.broadcast_to(r_floor, x.shape)
    act = np.arange(x.size)
    for _ in range(cap):
        xa, la, ha = x[act], lo[act], hi[act]
        r, slope = resid(xa, act)
        if not np.all(np.isfinite(r)):
            raise RuntimeError(f"{name}: non-finite residual")
        done = np.abs(r) <= r_floor[act]
        la = np.where(r < 0, xa, la)
        ha = np.where(r > 0, xa, ha)
        xn = xa - r / slope
        xn = np.where((xn > la) & (xn < ha), xn, 0.5 * (la + ha))
        floor = x_floor(xa)
        tiny = (np.abs(xn - xa) <= floor) | (ha - la <= 2 * floor)
        x[act] = np.where(done, xa, xn)
        lo[act], hi[act] = la, ha
        act = act[~(done | tiny)]
        if act.size == 0:
            return x
    raise RuntimeError(f"{name}: {act.size} points unconverged after {cap} iterations")


def graph_transform(f, curve):
    """Image of a graph curve under the planar map f, as a graph curve.

    The image is re-parameterized over x, and f's x-rule must be affine on
    the curve's samples.  When it is the identity the grid is reused
    unchanged; otherwise the image samples are kept (contractions) or
    pulled back through the exact affine inverse onto a standard grid
    (expansions).  A stack of curves is mapped by one evaluation of f on
    all its points.

    Raises TransversalityError when the image is not a graph over x, and
    RuntimeError when the x-image is not finite.  Raises ValueError when
    the x-rule is not affine, or when a stack's rows do not share row 0's
    x-image.
    """
    img, J = f.value_and_jacobian(curve.points())
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
        raise TransversalityError(f"{f.name}: image collapses in x", x=float(curve.grid[0]))

    if np.array_equal(tx, curve.grid):
        return GraphCurve(curve.x0, curve.x1, ty)

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
