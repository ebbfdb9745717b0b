"""Mild-solution solver: offsets, delayed sampling, Picard fixed point."""

import math

import numpy as np
import pytest

from fracsteer.errors import (DomainError, GridMismatchError,
                              PicardDivergenceError)
from fracsteer.gammafn import gamma
from fracsteer.solver import (SolverConfig, Trajectory, _interp_rows,
                              _interp_stencil, _nonlinearity_rows,
                              build_grid_operators, mild_residual,
                              nonlocal_offset_factor, nonlocal_offsets,
                              picard_solve)
from fracsteer.special import ml
from fracsteer.spectral import DelayFn, ModelSpec, NonlinearityFn


def _model(n=2, alpha=0.5, u0=None, **kw):
    u0 = np.zeros(n) if u0 is None else u0
    return ModelSpec(truncation=n, alpha=alpha, horizon=1.0, u0=u0,
                     v0=np.zeros(n), **kw)


def _const_traj(values, n_steps=16, dt=None):
    values = np.asarray(values, dtype=float)
    dt = dt if dt is not None else 1.0 / n_steps
    states = np.tile(values, (n_steps + 1, 1))
    return Trajectory(dt, states, np.zeros_like(states))


class TestSolverConfig:
    def test_validation(self):
        SolverConfig(n_steps=8)
        with pytest.raises(DomainError):
            SolverConfig(n_steps=4)
        with pytest.raises(DomainError):
            SolverConfig(picard_tol=0.0)
        with pytest.raises(DomainError):
            SolverConfig(picard_max_iters=0)


class TestTrajectory:
    def test_shape_checks(self):
        with pytest.raises(DomainError):
            Trajectory(0.1, np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(GridMismatchError):
            Trajectory(0.1, np.zeros((5, 3)), forcing=np.zeros((4, 3)))

    def test_interp(self):
        # the stencils that sample delayed states and controls
        states = np.array([[0.0], [1.0], [4.0]])
        lo, w = _interp_stencil(0.5, 2, [0.25, 0.75, 1.0, 1.5])
        got = _interp_rows(states, lo, w)[:, 0]
        assert got[:3] == pytest.approx([0.5, 2.5, 4.0])
        assert got[3] == 4.0  # clipped to the last node

    def test_properties(self):
        tr = _const_traj([1.0, 2.0], n_steps=10)
        assert tr.n_steps == 10
        assert tr.truncation == 2
        assert tr.horizon == pytest.approx(1.0)
        assert np.allclose(tr.grid(), np.linspace(0.0, 1.0, 11))


class TestNonlocalOffset:
    def test_no_terms_gives_initial_data(self):
        m = _model(u0=[1.0, -2.0])
        states = np.full((17, 2), 5.0)
        off = nonlocal_offsets(m, states, 1.0 / 16, nonlocal_offset_factor(0.5, 0.5))
        assert np.array_equal(off, [1.0, -2.0])
        rows = nonlocal_offsets(m, states, 1.0 / 16, np.linspace(0.0, 1.0, 17))
        assert rows.shape == (17, 2)
        assert np.all(rows == [1.0, -2.0])

    def test_constant_trajectory(self):
        # offset = u0 + v0 + t^{1-a}/Gamma(2-a) * sum_k c_k u(t_k)
        m = _model(u0=[1.0, 0.0], nonlocal_terms=((0.1, 0.25), (0.05, 0.5)))
        states = np.tile([2.0, -4.0], (17, 1))
        fac = nonlocal_offset_factor(0.5, 1.0)
        assert fac == pytest.approx(1.0 / gamma(1.5), rel=1e-14)
        off = nonlocal_offsets(m, states, 1.0 / 16, fac)
        assert np.allclose(off, [1.0 + fac * 0.15 * 2.0, fac * 0.15 * (-4.0)])
        facs = np.array([0.0, 0.5, fac])
        rows = nonlocal_offsets(m, states, 1.0 / 16, facs)
        assert np.array_equal(rows[2], off)
        assert np.array_equal(rows[0], [1.0, 0.0])

    def test_classical_factor_is_one(self):
        assert nonlocal_offset_factor(1.0, 0.37) == 1.0


class TestDelayedState:
    # linear_feedback(1) passes the delayed, multiplied state through F
    def _rows(self, delay, mult):
        m = _model(state_delays=(delay,), state_multipliers=(np.asarray(mult),),
                   nonlinearity=NonlinearityFn("linear_feedback", 1.0))
        states = np.outer(np.arange(5.0), [1.0, 1.0])
        return _nonlinearity_rows(m, build_grid_operators(m, 4), states), states

    def test_identity_delay_on_grid(self):
        rows, states = self._rows(DelayFn("identity"), [2.0, 3.0])
        assert np.array_equal(rows[2], [4.0, 6.0])
        assert np.array_equal(rows, states * [2.0, 3.0])

    def test_sine_delay_interpolates(self):
        rows, _ = self._rows(DelayFn("scaled_sine", 1.0), [1.0, 1.0])
        # states are linear in t, so interpolation at sin(1) is exact
        assert np.allclose(rows[4], 4.0 * math.sin(1.0))


class TestPicard:
    def test_zero_data_stays_zero(self):
        m = _model(n=3, state_delays=(DelayFn("scaled_sine", 1.0),),
                   nonlinearity=NonlinearityFn("bounded_tanh", 0.1),
                   nonlocal_terms=((0.1, 0.25),))
        tr = picard_solve(m, SolverConfig(n_steps=32))
        assert np.all(tr.states == 0.0)

    def test_single_mode_relaxation(self):
        # no delays, no forcing: u_1(t) = E_{a,1}(-t^a) u_1(0)
        for a in (0.5, 0.8):
            m = _model(n=1, alpha=a, u0=[1.0], eigenvalues=[1.0])
            tr = picard_solve(m, SolverConfig(n_steps=256))
            errs = [abs(tr.states[k, 0] - ml(a, 1.0, -(tr.dt * k) ** a))
                    for k in range(1, 257)]
            assert max(errs) < 1e-3

    def test_classical_relaxation(self):
        m = _model(n=2, alpha=1.0, u0=[1.0, 1.0])
        tr = picard_solve(m, SolverConfig(n_steps=256))
        exact = np.exp(-np.outer(tr.grid(), m.eigenvalues))
        assert np.max(np.abs(tr.states - exact)) < 1e-4

    def test_mild_residual_small(self):
        m = _model(n=4, state_delays=(DelayFn("scaled_sine", 1.0),),
                   u0=[1.0, 0.5, -0.3, 0.2],
                   nonlinearity=NonlinearityFn("bounded_tanh", 0.1),
                   nonlocal_terms=((0.1, 0.25),))
        cfg = SolverConfig(n_steps=64, picard_tol=1e-10)
        tr = picard_solve(m, cfg)
        assert mild_residual(m, tr) <= 2.0 * cfg.picard_tol

    def test_divergence_reported(self):
        # strong positive linear feedback makes the map expansive
        m = _model(n=1, alpha=0.5, u0=[1.0], eigenvalues=[1.0],
                   state_delays=(DelayFn("identity"),),
                   state_multipliers=(np.ones(1),),
                   nonlinearity=NonlinearityFn("linear_feedback", 50.0))
        with pytest.raises(PicardDivergenceError) as e:
            picard_solve(m, SolverConfig(n_steps=32, picard_max_iters=40))
        assert len(e.value.residual_history) == 40

    def test_causality(self):
        # perturbing a control sample in the future leaves every earlier
        # state bitwise unchanged
        m = _model(n=2, alpha=0.6, u0=[1.0, -0.5],
                   control_delays=(DelayFn("identity"),),
                   control_multipliers=(np.ones(2),))
        cfg = SolverConfig(n_steps=32)
        mu = np.zeros((33, 2))
        mu[:, 0] = 0.3
        base = picard_solve(m, cfg, control=[mu])
        bumped = mu.copy()
        bumped[20:, :] += 1.0
        pert = picard_solve(m, cfg, control=[bumped])
        assert np.array_equal(base.states[:20], pert.states[:20])
        assert not np.allclose(base.states[20:], pert.states[20:])

    def test_forcing_is_the_summed_realized_control(self):
        # two identity-delay channels: forcing = B_1 mu_1 + B_2 mu_2 on the grid
        b1, b2 = np.array([1.0, 2.0]), np.array([0.5, -1.0])
        m = _model(n=2, alpha=0.6,
                   control_delays=(DelayFn("identity"), DelayFn("identity")),
                   control_multipliers=(b1, b2))
        mu1 = np.outer(np.linspace(0.0, 1.0, 17), [1.0, 1.0])
        mu2 = np.full((17, 2), 0.25)
        tr = picard_solve(m, SolverConfig(n_steps=16), control=[mu1, mu2])
        assert np.array_equal(tr.forcing, b1 * mu1 + b2 * mu2)
        assert not np.any(picard_solve(m, SolverConfig(n_steps=16)).forcing)

    def test_control_shape_checked(self):
        m = _model(n=2, control_delays=(DelayFn("identity"),),
                   control_multipliers=(np.ones(2),))
        with pytest.raises(GridMismatchError):
            picard_solve(m, SolverConfig(n_steps=32),
                         control=[np.zeros((10, 2))])
