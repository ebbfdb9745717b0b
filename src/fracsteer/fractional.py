"""Discrete fractional integral operators on uniform grids.

The central object is the product-trapezoidal quadrature for integrals
with the weakly singular kernel (t - s)^(alpha - 1): the integrand is
replaced by its piecewise-linear interpolant on the grid and the kernel
moments are integrated exactly.  The same weights drive the memory
integrals of the mild solver and the controllability Grammian, so the
whole artifact is quadrature-consistent.

For a target node m the weights decompose into a first-node edge weight,
a lag-only convolution kernel for the interior nodes, and a constant
last-node edge weight; ``ConvolutionKernel`` stores that decomposition.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridMismatchError, InsufficientDataError
from .gammafn import gamma

_GRID_RTOL = 1e-9


@dataclass(frozen=True)
class FracOrder:
    """Fractional order restricted to the working range (0, 1]."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"fractional order must lie in (0, 1], got {self.alpha}")


def _as_alpha(order) -> float:
    if isinstance(order, FracOrder):
        return order.alpha
    return FracOrder(float(order)).alpha


@dataclass(frozen=True)
class SampledFunction:
    """Uniformly sampled scalar function on [t0, t0 + n*dt]."""

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.dt <= 0.0:
            raise DomainError(f"dt must be positive, got {self.dt}")
        if self.values.ndim != 1 or self.values.size < 2:
            raise InsufficientDataError("need at least 2 samples on a 1-d grid")

    @property
    def n_steps(self) -> int:
        return self.values.size - 1

    def grid(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.values.size)

    def index_of(self, t: float) -> int:
        """Grid index of t, or GridMismatchError if t is off-grid."""
        x = (t - self.t0) / self.dt
        i = int(round(x))
        if abs(x - i) > _GRID_RTOL * max(1.0, abs(x)) or not (0 <= i <= self.n_steps):
            raise GridMismatchError(f"t={t} is not on the grid (t0={self.t0}, dt={self.dt})")
        return i


@dataclass(frozen=True)
class ConvolutionKernel:
    """Lag decomposition of the product-trapezoidal weights.

    For target node m >= 1 the weight of node k is::

        k == 0        first_node[m]
        0 < k < m     lag[m - k]
        k == m        last_node

    All entries carry the dt^alpha scale and integrate (t-s)^(alpha-1)
    exactly against piecewise-linear hat functions (no 1/Gamma factor).
    """

    alpha: float
    dt: float
    n_steps: int
    first_node: np.ndarray
    lag: np.ndarray
    last_node: float

    def row(self, m: int) -> np.ndarray:
        """Dense weight vector for target node m (length m + 1)."""
        if not (1 <= m <= self.n_steps):
            raise DomainError(f"target node {m} outside 1..{self.n_steps}")
        w = np.empty(m + 1)
        w[0] = self.first_node[m]
        if m > 1:
            w[1:m] = self.lag[m - 1:0:-1]
        w[m] = self.last_node
        return w


def convolution_kernel(order, n_steps: int, dt: float) -> ConvolutionKernel:
    alpha = _as_alpha(order)
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    if dt <= 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    r = np.arange(n_steps + 2, dtype=float)
    pa = r ** alpha
    pa1 = r ** (alpha + 1.0)
    # d0[r] = int_{(r-1)dt}^{r dt} tau^{a-1} dtau / dt^a, similarly d1 for tau^a
    d0 = (pa[1:] - pa[:-1]) / alpha
    d1 = (pa1[1:] - pa1[:-1]) / (alpha + 1.0)
    rr = r[1:]
    g_left = d1 - (rr - 1.0) * d0   # weight of the left node of subinterval at lag r
    g_right = rr * d0 - d1          # weight of the right node
    scale = dt ** alpha
    first = np.empty(n_steps + 1)
    first[0] = 0.0
    first[1:] = scale * g_left[:n_steps]
    lag = np.empty(n_steps + 1)
    lag[0] = 0.0
    lag[1:] = scale * (g_left[:n_steps] + g_right[1:n_steps + 1])
    last = scale * g_right[0]
    return ConvolutionKernel(alpha, dt, n_steps, first, lag, last)


@dataclass(frozen=True)
class SingularWeights:
    """Product-trapezoidal weights for one target time t = n_steps * dt."""

    alpha: FracOrder
    n_steps: int
    dt: float
    weights: np.ndarray = field(repr=False)

    def apply(self, values: np.ndarray) -> float:
        values = np.asarray(values, dtype=float)
        if values.size != self.n_steps + 1:
            raise InsufficientDataError(
                f"need {self.n_steps + 1} samples, got {values.size}")
        return float(self.weights @ values)


def build_singular_weights(order, n_steps: int, dt: float) -> SingularWeights:
    """Weights w_k with sum_k w_k f(s_k) ~= int_0^t (t-s)^(a-1) f(s) ds, t = n dt."""
    kern = convolution_kernel(order, n_steps, dt)
    return SingularWeights(FracOrder(kern.alpha), n_steps, dt, kern.row(n_steps))


def frac_integral(f: SampledFunction, order, t: float) -> float:
    """Riemann-Liouville integral (I^alpha f)(t) at a grid time t > t0."""
    alpha = _as_alpha(order)
    m = f.index_of(t)
    if m < 1:
        raise GridMismatchError(f"t={t} must exceed the grid origin {f.t0}")
    w = build_singular_weights(alpha, m, f.dt)
    return w.apply(f.values[:m + 1]) / gamma(alpha)
