"""Memory convolution of the lag-decomposed product quadrature."""

import numpy as np
import pytest

import fracsteer
from fracsteer.backend import memory_convolve
from fracsteer.errors import GridMismatchError
from fracsteer.fractional import convolution_kernel
from fracsteer.solver import build_grid_operators
from fracsteer.spectral import ModelSpec


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


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 1000])
def test_matches_dense_row_oracle_across_block_edges(n):
    # sizes on either side of the direct block and of the dyadic splits
    kern, efac, g = _random_case(n, 4, n)
    got = memory_convolve(kern.first_node, kern.lag, kern.last_node, efac, g)
    np.testing.assert_allclose(got, _dense_oracle(kern, efac, g),
                               rtol=1e-13, atol=1e-14)


def test_matches_dense_row_oracle_on_stiff_eigenfactors():
    # the solver's own memory factors at alpha = 1: exp(-lam t) decays to
    # underflow across the history, so each spectrum mixes lags of every scale
    n = 1024
    m = ModelSpec(truncation=32, alpha=1.0, horizon=1.0,
                  u0=np.zeros(32), v0=np.zeros(32))
    ops = build_grid_operators(m, n)
    kern = convolution_kernel(1.0, n, ops.dt)
    g = np.random.default_rng(4).standard_normal((n + 1, 32))
    k = ops.kernel
    got = memory_convolve(k.first_node, k.lag, k.last_node, ops.efac_mem, g)
    want = _dense_oracle(kern, ops.efac_mem, g)
    assert np.max(np.abs(got - want) / np.max(np.abs(want), axis=0)) <= 1e-13


@pytest.mark.parametrize("n", [200, 1000, 4096])
def test_rows_are_bitwise_causal(n):
    # a bump from node c on leaves every earlier row bit for bit unchanged,
    # with c at the direct-block and dyadic-split edges
    kern, efac, g = _random_case(n, 3, n)
    base = memory_convolve(kern.first_node, kern.lag, kern.last_node, efac, g)
    for c in (64, 65, n // 2, n // 2 + 1, n - 1):
        bumped = g.copy()
        bumped[c:] += 1.0
        got = memory_convolve(kern.first_node, kern.lag, kern.last_node,
                              efac, bumped)
        assert np.array_equal(got[:c], base[:c]), c
        assert not np.array_equal(got[c:], base[c:]), c


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
