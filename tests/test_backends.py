"""Memory convolution of the lag-decomposed product quadrature."""

import numpy as np
import pytest

import fracsteer
from fracsteer.backend import memory_convolve
from fracsteer.errors import GridMismatchError
from fracsteer.fractional import convolution_kernel


def _random_case(n=64, modes=8, seed=0):
    rng = np.random.default_rng(seed)
    kern = convolution_kernel(0.5, n, 1.0 / n)
    efac = rng.random((n + 1, modes))
    g = rng.standard_normal((n + 1, modes))
    return kern, efac, g


def _dense_oracle(kern, efac, g):
    # out[i, m] = sum_k row(i)[k] * efac[i - k, m] * g[k, m], row 0 zero
    out = np.zeros_like(g)
    for i in range(1, kern.n_steps + 1):
        k = np.arange(i + 1)
        out[i] = kern.row(i) @ (efac[i - k] * g[k])
    return out


def test_backend_name_consistent():
    # the benchmark's environment stamp reads this constant on every run
    assert fracsteer.BACKEND_NAME == "numpy"


def test_matches_dense_row_oracle():
    for n, modes, seed in ((16, 1, 1), (64, 8, 2), (256, 32, 3)):
        kern, efac, g = _random_case(n, modes, seed)
        got = memory_convolve(kern.first_node, kern.lag, kern.last_node, efac, g)
        np.testing.assert_allclose(got, _dense_oracle(kern, efac, g),
                                   rtol=1e-13, atol=1e-14)


def test_shape_validation():
    kern, efac, g = _random_case()
    with pytest.raises(GridMismatchError):
        memory_convolve(kern.first_node, kern.lag, kern.last_node,
                        efac[:-1], g)
    with pytest.raises(GridMismatchError):
        memory_convolve(kern.first_node, kern.lag, kern.last_node,
                        efac, g[:, 0])
    with pytest.raises(GridMismatchError):
        memory_convolve(kern.first_node[:-1], kern.lag, kern.last_node,
                        efac, g)
