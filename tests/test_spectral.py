"""Spectral model: eigenfactor tables, multipliers, hypothesis checks."""

import math

import numpy as np
import pytest

from fracsteer import special
from fracsteer.errors import DomainError, ModelValidationError
from fracsteer.solver import _nonlinearity_rows, build_grid_operators
from fracsteer.spectral import (DelayFn, ModelSpec, NonlinearityFn,
                                synthesize_physical)


def _model(n=2, alpha=1.0, **kw):
    kw.setdefault("u0", np.zeros(n))
    kw.setdefault("v0", np.zeros(n))
    return ModelSpec(truncation=n, alpha=alpha, horizon=1.0, **kw)


class TestDelayFn:
    def test_vocabulary(self):
        assert DelayFn("identity")(0.7) == 0.7
        assert DelayFn("scaled_sine", 2.0)(1.0) == pytest.approx(math.sin(0.5))
        assert DelayFn("constant_lag", 0.25)(0.1) == 0.0
        assert DelayFn("constant_lag", 0.25)(1.0) == pytest.approx(0.75)
        with pytest.raises(ModelValidationError):
            DelayFn("cubic")
        with pytest.raises(ModelValidationError):
            DelayFn("scaled_sine", 0.0)

    def test_inversion(self):
        d = DelayFn("scaled_sine", 2.0)
        for t in (0.1, 0.9, 2.0):
            assert d.invert(d(t)) == pytest.approx(t, rel=1e-12)
        assert d.invertible_on == pytest.approx(math.pi)
        with pytest.raises(DomainError):
            d.invert(1.5)
        # a lag inverts on its increasing branch t >= ell, for every horizon
        lag = DelayFn("constant_lag", 0.5)
        assert lag.invert(0.3) == 0.8 and lag.invertible_on == math.inf
        for t in (0.5, 0.9, 3.0):
            assert lag.invert(lag(t)) == pytest.approx(t, rel=1e-15)


class TestNonlinearityFn:
    def test_vocabulary_and_bounds(self):
        f = NonlinearityFn("bounded_tanh", 0.1)
        avg = np.array([0.3, -2.0])
        assert np.allclose(f(avg), 0.1 * np.tanh(avg))
        # (H6): |F| <= |kappa| sqrt(N) for tanh, 0 for zero, none for feedback
        big = np.full(4, 1e6)
        assert np.linalg.norm(f(big)) <= 0.1 * math.sqrt(4)
        assert np.linalg.norm(f(big)) == pytest.approx(0.2)
        assert np.all(NonlinearityFn("zero")(big) == 0.0)
        assert np.linalg.norm(NonlinearityFn("linear_feedback", -0.5)(big)) == 1e6
        with pytest.raises(ModelValidationError):
            NonlinearityFn("cubic")


class TestModelValidation:
    def test_initial_states_checked(self):
        # a state's length and finiteness are checked where the model is
        # built, and the message names the field
        for field in ("u0", "v0"):
            for bad in (np.array([1.0, math.nan]), np.ones(3), np.ones((2, 1))):
                with pytest.raises(ModelValidationError, match=field):
                    _model(n=2, **{field: bad})
            m = _model(n=2, **{field: [3, 4]})
            assert getattr(m, field).dtype == float
            assert np.array_equal(getattr(m, field), [3.0, 4.0])

    def test_initial_sum_checked(self):
        # each state is finite, but the solver's offset u0 + v0 is not
        with pytest.raises(ModelValidationError, match=r"u0 \+ v0 overflows"):
            _model(n=2, u0=[1e308, 0.0], v0=[1e308, 0.0])
        assert _model(n=2, u0=[1e308, 0.0], v0=[-1e308, 1.0]).v0[0] == -1e308

    def test_eigenvalue_count_checked(self):
        with pytest.raises(ModelValidationError):
            _model(n=3, eigenvalues=[1.0, 4.0])
        with pytest.raises(ModelValidationError):
            _model(n=2, eigenvalues=[1.0, -4.0])

    def test_default_eigenvalues_are_squares(self):
        m = _model(n=4)
        assert np.allclose(m.eigenvalues, [1.0, 4.0, 9.0, 16.0])

    def test_delay_bound_rejection(self):
        # sin(t/tau) > t near 0 when tau < 1
        with pytest.raises(ModelValidationError) as e:
            _model(state_delays=(DelayFn("scaled_sine", 0.5),),
                   state_multipliers=(np.ones(2),))
        assert e.value.hypothesis == "(H5)"

    def test_nonlocal_time_ordering(self):
        _model(nonlocal_terms=((0.1, 0.25), (0.05, 0.5)))
        with pytest.raises(ModelValidationError):
            _model(nonlocal_terms=((0.1, 0.5), (0.05, 0.25)))
        with pytest.raises(ModelValidationError):
            _model(nonlocal_terms=((0.1, 1.5),))

    def test_multiplier_count_checked(self):
        with pytest.raises(ModelValidationError):
            _model(control_delays=(DelayFn("identity"),),
                   control_multipliers=(np.ones(2), np.ones(2)))

    def test_nonlinearity_bound_enforced(self):
        tanh = NonlinearityFn("bounded_tanh", 0.1)
        m = _model(state_delays=(DelayFn("identity"),), nonlinearity=tanh)
        states = np.linspace(-5.0, 5.0, 18).reshape(9, 2)
        rows = np.linalg.norm(
            _nonlinearity_rows(m, build_grid_operators(m, 8), states), axis=1)
        bound = 0.1 * math.sqrt(m.truncation)  # |kappa| sqrt(N), as (H6) asks
        assert np.all(rows <= bound)
        assert rows.max() > 0.5 * bound
        free = _model(nonlinearity=tanh)
        assert np.all(_nonlinearity_rows(
            free, build_grid_operators(free, 8), states) == 0.0)

    def test_unbounded_tanh_rejected(self):
        # |kappa| sqrt(N) overflows at 1e308 with N = 4: no finite (H6) bound
        with pytest.raises(ModelValidationError, match=r"sqrt\(4\)") as e:
            _model(n=4, nonlinearity=NonlinearityFn("bounded_tanh", 1e308))
        assert e.value.hypothesis == "(H6)" and e.value.key == "nonlinearity"
        assert _model(n=2, nonlinearity=NonlinearityFn("bounded_tanh", 1e308)).truncation == 2

    @pytest.mark.parametrize("alpha", [1e-4, 1e-300])
    def test_order_below_the_floor(self, alpha):
        # the Mittag-Leffler reduction of beta = alpha + 2 takes about
        # 1/alpha levels: below the floor the model cannot run
        with pytest.raises(DomainError, match="orders below 0.0005") as e:
            _model(alpha=alpha)
        assert e.value.key == "alpha"
        assert _model(alpha=special.ML_MIN_ALPHA).alpha == special.ML_MIN_ALPHA

    @pytest.mark.parametrize("kw, key", [
        ({"alpha": 1.5}, "alpha"),
        ({"truncation": 0}, "truncation"),
        ({"horizon": 0.0}, "horizon"),
        ({"eigenvalues": [1.0, -4.0]}, "eigenvalues"),
        ({"u0": [1.0, math.inf]}, "u0"),
        ({"u0": [1e308, 0.0], "v0": [1e308, 0.0]}, "v0"),
        ({"state_delays": (DelayFn("identity"),), "state_multipliers": (1.0, 1.0)},
         "state_multipliers"),
        ({"control_delays": (DelayFn("identity"),), "control_multipliers": (np.ones(3),)},
         "control_multipliers"),
        ({"nonlocal_terms": ((0.1, 1.5),)}, "nonlocal_terms"),
    ])
    def test_error_names_its_field(self, kw, key):
        args = {"truncation": 2, "alpha": 0.5, "horizon": 1.0, "u0": np.zeros(2),
                "v0": np.zeros(2), **kw}
        with pytest.raises((DomainError, ModelValidationError)) as e:
            ModelSpec(**args)
        assert e.value.key == key


class TestOperatorFamilies:
    def test_semigroup_example(self):
        # at alpha = 1 the S_alpha factors are the heat semigroup e^{-lambda t}
        f = _model(n=2).s_alpha_factors(1.0)
        assert f[0] == pytest.approx(0.36787944117144233, rel=1e-12)
        assert f[1] == pytest.approx(0.018315638888734179, rel=1e-12)

    def test_semigroup_law(self):
        m = _model(n=5)
        two_step = m.s_alpha_factors(0.4) * m.s_alpha_factors(0.35)
        assert np.allclose(two_step, m.s_alpha_factors(0.75),
                           rtol=1e-12, atol=1e-15)

    def test_identity_at_time_zero(self):
        m = _model(n=3, alpha=0.6)
        assert np.all(m.s_alpha_factors(0.0) == 1.0)
        assert np.all(m.t_alpha_factors(0.0) == 1.0 / math.gamma(0.6))

    def test_classical_limit_collapse(self):
        # at alpha = 1 both fractional families equal the semigroup
        m = _model(n=4, alpha=1.0)
        times = np.array([0.1, 0.5, 1.0])
        q = np.exp(-np.outer(times, m.eigenvalues))
        for table in (m.s_alpha_factors(times), m.t_alpha_factors(times)):
            assert np.allclose(table, q, rtol=1e-12, atol=1e-15)

    def test_half_order_factor(self):
        m = _model(n=1, alpha=0.5, eigenvalues=[1.0])
        # E_{1/2,1}(-1) = e * erfc(1)
        assert m.s_alpha_factors(1.0)[0] == pytest.approx(
            math.e * math.erfc(1.0), rel=1e-9)

    def test_uniform_bounds(self):
        for a in (0.4, 0.7, 1.0):
            m = _model(n=8, alpha=a)
            for t in np.linspace(0.0, 1.0, 30):
                assert np.all(np.abs(m.s_alpha_factors(t)) <= 1.0 + 1e-14)
                assert np.all(np.abs(m.t_alpha_factors(t))
                              <= 1.0 / math.gamma(a) + 1e-14)

    def test_truncation_mismatch_rejected(self):
        with pytest.raises(ModelValidationError):
            _model(n=2, u0=np.ones(3))


class TestFactorTables:
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_array_of_times_matches_scalar_calls(self, alpha):
        m = _model(n=6, alpha=alpha)
        times = np.concatenate([[0.0], np.linspace(0.0, 1.0, 33)[1:], [0.3]])
        for method in (m.s_alpha_factors, m.t_alpha_factors):
            table = method(times)
            assert table.shape == (times.size, 6)
            assert np.array_equal(table, np.stack([method(t) for t in times]))
        assert np.all(m.s_alpha_factors(times)[0] == 1.0)
        assert np.all(m.t_alpha_factors(times)[0] == 1.0 / math.gamma(alpha))

    def test_tables_are_read_only(self):
        m = _model(n=3, alpha=0.5)
        for f in (m.s_alpha_factors(0.0), m.t_alpha_factors(0.4),
                  m.t_alpha_factors(np.array([0.0, 0.4]))):
            with pytest.raises(ValueError):
                f[0] = 2.0

    def test_rebuild_makes_no_ml_calls(self, monkeypatch):
        m = _model(n=4, alpha=0.6, eigenvalues=np.array([1.0, 3.5, 8.0, 20.0]))
        special._ml_values.cache_clear()
        first = build_grid_operators(m, 16)
        calls = [0]
        inner = special.ml

        def counting(*args):
            calls[0] += 1
            return inner(*args)

        monkeypatch.setattr(special, "ml", counting)
        again = build_grid_operators(m, 16)
        assert calls[0] == 0
        assert np.array_equal(again.s_factors, first.s_factors)
        assert np.array_equal(again.efac_mem, first.efac_mem)


class TestMultipliers:
    def test_laplacian_default_state_multiplier(self):
        m = _model(n=3, state_delays=(DelayFn("identity"),))
        assert np.array_equal(m.state_multipliers[0], [-1.0, -4.0, -9.0])

    def test_control_multiplier_and_bounds(self):
        m = _model(n=2, control_delays=(DelayFn("identity"),) * 2,
                   control_multipliers=([2.0, 3.0], [1.0, -1.0]))
        assert np.array_equal(m.control_multipliers[0], [2.0, 3.0])
        default = _model(n=2, control_delays=(DelayFn("identity"),))
        assert np.array_equal(default.control_multipliers[0], [1.0, 1.0])
        with pytest.raises(ModelValidationError):
            _model(n=2, control_delays=(DelayFn("identity"),),
                   control_multipliers=([1.0, 2.0, 3.0],))


class TestPhysicalSynthesis:
    def test_single_mode_peak_and_boundaries(self):
        u = np.array([1.0])
        vals = synthesize_physical(u, [0.0, math.pi / 2.0, math.pi])
        assert vals[0] == pytest.approx(0.0, abs=1e-15)
        assert vals[1] == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-14)
        assert vals[2] == pytest.approx(0.0, abs=1e-13)

    def test_parseval(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal(16)
        x = np.linspace(0.0, math.pi, 20001)
        vals = synthesize_physical(u, x)
        l2 = np.sqrt(np.trapezoid(vals ** 2, x))
        assert l2 == pytest.approx(np.linalg.norm(u), rel=1e-4)
