"""Memory convolution of the lag-decomposed product quadrature.

The triangular lag convolution is the only superlinear loop in the
library; it runs as one numpy contraction per target node.
"""

import numpy as np

from .errors import GridMismatchError

# the convolution path, stamped into benchmark environment records
BACKEND_NAME = "numpy"


def memory_convolve(first, lag, last, efac, g):
    """Apply the lag-decomposed singular-kernel weights to a history.

    ``first``/``lag`` are the per-target edge weights and the lag kernel
    of a ConvolutionKernel, ``last`` its constant last-node weight;
    ``efac[j]`` holds the per-mode operator eigenfactors at lag j and
    ``g[k]`` the per-mode integrand at node k.  Returns the array of
    weighted sums, one row per target node (row 0 is zero)::

        out[i, m] = first[i] * efac[i, m] * g[0, m]
                  + sum_{j=1}^{i-1} lag[j] * efac[j, m] * g[i-j, m]
                  + last * efac[0, m] * g[i, m]
    """
    first = np.ascontiguousarray(first, dtype=float)
    lag = np.ascontiguousarray(lag, dtype=float)
    efac = np.ascontiguousarray(efac, dtype=float)
    g = np.ascontiguousarray(g, dtype=float)
    if g.ndim != 2 or efac.shape != g.shape:
        raise GridMismatchError(
            f"history shape {g.shape} does not match eigenfactor shape {efac.shape}")
    if first.shape[0] != g.shape[0] or lag.shape[0] != g.shape[0]:
        raise GridMismatchError(
            f"weight length {first.shape[0]} does not match history length {g.shape[0]}")
    last = float(last)
    n = g.shape[0] - 1
    out = np.zeros_like(g)
    for i in range(1, n + 1):
        out[i] = first[i] * efac[i] * g[0] + last * efac[0] * g[i]
        if i > 1:
            # rows i-1 .. 1 of g pair with lags 1 .. i-1
            out[i] += np.einsum("j,jm,jm->m", lag[1:i], efac[1:i], g[i - 1:0:-1])
    return out
