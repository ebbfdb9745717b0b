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

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _as_alpha(order) -> float:
    """The fractional order as a float, checked to lie in (0, 1]."""
    alpha = float(order)
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"fractional order must lie in (0, 1], got {alpha}")
    return alpha


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
    return ConvolutionKernel(n_steps, first, lag, last)

