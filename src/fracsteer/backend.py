"""Memory convolution of the lag-decomposed product quadrature.

The interior lag sum is a strictly causal Toeplitz product per mode,
evaluated as the fast convolution of Hairer, Lubich & Schlichte (SIAM J.
Sci. Stat. Comput. 6, 1985).  The target range, padded to ``_BLOCK * 2**L``
rows, is split dyadically: rows within one block of ``_BLOCK`` are summed
directly, lag by lag, and at every level the sources of each left half
reach the targets of the right half through one real-FFT product.  A level
costs O(n log n) per mode, so a call costs O(n log^2 n) instead of O(n^2).

Each source row enters only blocks whose targets all lie after it, so
``out[i]`` reads ``g[k]`` for ``k <= i`` alone and is bitwise unchanged by
any later sample.  One FFT over the whole history would be cheaper still,
but its rounding would leak every later sample into every row.
"""

import numpy as np

from .errors import GridMismatchError

# the convolution path, stamped into benchmark environment records
BACKEND_NAME = "numpy"

# rows summed directly at the bottom of the dyadic split
_BLOCK = 64


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
    n = g.shape[0] - 1
    size = _BLOCK
    while size < n:
        size *= 2
    # y[i] is target row i + 1 and x[k] source row k + 1, each padded with
    # zero rows to a whole number of dyadic blocks; y[i] gets h[i - k] x[k]
    # for every k < i
    full = np.zeros((size + 1, g.shape[1]))
    out = full[:n + 1]
    out[1:] = first[1:, None] * efac[1:] * g[0] + float(last) * efac[0] * g[1:]
    y = full[1:]
    x = np.zeros_like(y)
    x[:n] = g[1:]
    h = lag[:, None] * efac
    # within each block, lag by lag; lags >= n reach only padding
    blocks = -(-n // _BLOCK)
    xb = x.reshape(-1, _BLOCK, x.shape[1])[:blocks]
    yb = y.reshape(-1, _BLOCK, y.shape[1])[:blocks]
    for d in range(1, min(n, _BLOCK)):
        yb[:, d:] += h[d] * xb[:, :-d]
    half = _BLOCK
    while half < size:
        # pairs of adjacent half-blocks; skip pairs whose targets are padding
        pairs = -(-(n - half) // (2 * half))
        xp = x.reshape(-1, 2, half, x.shape[1])[:pairs, 0]
        spec = np.fft.rfft(xp, 2 * half, axis=1)
        spec *= np.fft.rfft(h[:2 * half], 2 * half, axis=0)
        y.reshape(-1, 2, half, y.shape[1])[:pairs, 1] += (
            np.fft.irfft(spec, 2 * half, axis=1)[:, half:])
        half *= 2
    return out
