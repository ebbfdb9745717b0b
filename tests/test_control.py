"""Steering control: Grammian, resolvent, closed loop, beta sweeps."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fracsteer import control
from fracsteer.control import (ControlProblem, beta_sweep, closed_loop_solve,
                               compute_grammian, control_energy,
                               residual_p, resolvent_apply, synthesize_control)
from fracsteer.errors import (DomainError, ModelValidationError,
                              PicardDivergenceError)
from fracsteer.gammafn import gamma
from fracsteer.solver import SolverConfig, Trajectory, picard_solve
from fracsteer.special import ml
from fracsteer.spectral import DelayFn, ModelSpec

GAMMA_CLASSICAL = 0.5 * (1.0 - math.exp(-2.0))  # int_0^1 e^{-2(1-s)} ds


def _model(n=1, alpha=1.0, lam=None, u0=None, b=None, **kw):
    lam = lam if lam is not None else np.ones(n)
    b = b if b is not None else np.ones(n)
    return ModelSpec(
        truncation=n, alpha=alpha, horizon=1.0,
        u0=np.zeros(n) if u0 is None else u0, v0=np.zeros(n), eigenvalues=lam,
        control_delays=(DelayFn("identity"),), control_multipliers=(b,), **kw)


class TestGrammian:
    def test_zero_multiplier(self):
        # a channel that reaches no mode cannot steer: gamma_n = 0 is an error
        m = _model(n=3, b=np.zeros(3))
        with pytest.raises(ModelValidationError, match=r"on 3 of 3 modes \(n = 1, 2, 3\)"):
            compute_grammian(m, 64)
        # one dead mode of three is enough, and the message names it
        with pytest.raises(ModelValidationError, match=r"1 of 3 modes \(n = 2\)"):
            compute_grammian(_model(n=3, b=np.array([1.0, 0.0, 1.0])), 64)
        # a long list is cut after five modes
        with pytest.raises(ModelValidationError, match=r"\(n = 1, 2, 3, 4, 5, \.\.\.\)"):
            compute_grammian(_model(n=7, b=np.zeros(7)), 64)
        # a live channel that does not carry the law steers nothing either
        m = replace(_model(n=3), control_delays=(DelayFn("identity"),) * 2,
                    control_multipliers=(np.ones(3), np.zeros(3)))
        with pytest.raises(ModelValidationError, match=r"on 3 of 3 modes \(n = 1, 2, 3\)"):
            compute_grammian(m, 64)

    def test_classical_single_mode(self):
        # alpha=1, lambda=1: gamma = int_0^1 e^{-2(1-s)} ds = (1-e^{-2})/2
        g = compute_grammian(_model(), 2048)
        assert g[0] == pytest.approx(GAMMA_CLASSICAL, abs=1e-7)

    def test_only_the_steering_channel_counts(self):
        # the law drives the last channel; the first one carries zero samples
        m1 = _model(n=2, lam=[1.0, 4.0])
        m2 = replace(m1, control_delays=(DelayFn("identity"),) * 2,
                     control_multipliers=(np.ones(2), np.ones(2)))
        g1 = compute_grammian(m1, 128)
        g2 = compute_grammian(m2, 128)
        assert np.array_equal(g2, g1)

    def test_requires_control_channel(self):
        m = ModelSpec(truncation=1, alpha=0.5, horizon=1.0,
                      u0=np.zeros(1), v0=np.zeros(1))
        with pytest.raises(ModelValidationError, match="no control channel"):
            compute_grammian(m, 64)
        # the synthesis meets the same check through its Grammian
        cp = ControlProblem(model=m, target=np.zeros(1), beta=0.1)
        with pytest.raises(ModelValidationError, match="no control channel"):
            synthesize_control(cp, picard_solve(m, SolverConfig(n_steps=8)))

    def test_positive_semidefinite_symmetric(self):
        m = _model(n=6, alpha=0.6, lam=np.arange(1.0, 7.0) ** 2)
        g = compute_grammian(m, 128)
        # a real diagonal operator is symmetric; PSD means no negative entry
        assert g.shape == (6,)
        assert np.all(np.isfinite(g))
        assert np.all(g > 0.0)


class TestResolvent:
    def test_contraction(self):
        m = _model(n=4, alpha=0.7, lam=np.arange(1.0, 5.0) ** 2)
        g = compute_grammian(m, 128)
        v = np.ones(4)
        for beta in (1e-1, 1e-3):
            out = resolvent_apply(g, beta, v)
            # beta (beta I + Gamma)^{-1} has norm <= 1
            assert np.all(beta * np.abs(out) <= 1.0 + 1e-14)

    def test_strong_operator_decay(self):
        m = _model(n=4, alpha=0.7, lam=np.arange(1.0, 5.0) ** 2)
        g = compute_grammian(m, 128)
        v = np.ones(4)
        betas = [10.0 ** (-k) for k in range(6)]
        norms = [beta * np.max(np.abs(resolvent_apply(g, beta, v)))
                 for beta in betas]
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-3

    def test_validation(self):
        g = compute_grammian(_model(), 64)
        with pytest.raises(DomainError):
            resolvent_apply(g, 0.0, np.ones(1))


class TestResidualP:
    def test_zero_data_gives_target(self):
        m = _model(n=2, lam=[1.0, 4.0])
        cp = ControlProblem(model=m, target=np.array([0.5, -0.2]),
                            beta=0.1)
        traj = picard_solve(m, SolverConfig(n_steps=64))
        p = residual_p(cp, traj)
        assert np.allclose(p, [0.5, -0.2])

    def test_linear_free_response(self):
        # p_n = target_n - E_{a,1}(-lam a^a) u0_n when F = 0, h = 0
        m = _model(n=1, alpha=0.5, lam=[2.0], u0=[1.5])
        cp = ControlProblem(model=m, target=np.zeros(1), beta=0.1)
        traj = picard_solve(m, SolverConfig(n_steps=64))
        p = residual_p(cp, traj)
        assert p[0] == pytest.approx(-ml(0.5, 1.0, -2.0) * 1.5, rel=1e-9)

    def test_free_terminal_state_as_target(self):
        m = _model(n=2, alpha=0.6, lam=[1.0, 4.0], u0=[1.0, -0.5])
        traj = picard_solve(m, SolverConfig(n_steps=64))
        cp = ControlProblem(model=m, target=traj.states[64], beta=0.1)
        assert np.linalg.norm(residual_p(cp, traj)) < 1e-9


class TestSynthesis:
    def test_zero_gap_gives_zero_control(self):
        m = _model(n=2, lam=[1.0, 4.0])
        cp = ControlProblem(model=m, target=np.zeros(2), beta=0.1)
        traj = picard_solve(m, SolverConfig(n_steps=64))
        mu = synthesize_control(cp, traj)
        assert len(mu) == 1
        assert np.all(mu[0] == 0.0)

    def test_classical_law_shape(self):
        # alpha=1: mu(t) = e^{-(1-t)} p/(beta + gamma)
        m = _model(u0=[1.0])
        cp = ControlProblem(model=m, target=np.ones(1), beta=0.1)
        n = 2048
        traj = picard_solve(m, SolverConfig(n_steps=n))
        mu = synthesize_control(cp, traj)[0][:, 0]
        p = 1.0 - math.exp(-1.0)
        scale = p / (0.1 + GAMMA_CLASSICAL)
        assert scale == pytest.approx(1.8785257 * p, rel=1e-6)
        ts = np.linspace(0.0, 1.0, n + 1)
        assert np.allclose(mu, np.exp(-(1.0 - ts)) * scale, atol=1e-6)

    def test_terminal_value(self):
        # mu(a) = B * (1/Gamma(alpha)) * (beta I + Gamma)^{-1} p
        m = _model(n=1, alpha=0.5, u0=[1.0], b=np.array([2.0]))
        cp = ControlProblem(model=m, target=np.zeros(1), beta=0.2)
        traj = picard_solve(m, SolverConfig(n_steps=128))
        mu = synthesize_control(cp, traj)[0]
        g = compute_grammian(m, 128)
        p = residual_p(cp, traj)
        expect = 2.0 * (1.0 / gamma(0.5)) * p[0] / (0.2 + g[0])
        assert mu[-1, 0] == pytest.approx(expect, rel=1e-12)


class TestClosedLoop:
    @pytest.mark.parametrize("delays", [
        (DelayFn("identity"),),
        (DelayFn("identity"), DelayFn("identity")),
        (DelayFn("scaled_sine", 2.0),),
        (DelayFn("constant_lag", 0.1),),
    ], ids=["identity", "two-identity", "scaled_sine", "constant_lag"])
    def test_linear_residual_formula(self, delays):
        # linear system: terminal residual is exactly beta/(beta+gamma_n) p_n,
        # whichever channels and steering delay the law goes through
        lam = np.arange(1.0, 5.0) ** 2
        target = np.array([0.2, -0.1, 0.05, 0.3])
        cfg = SolverConfig(n_steps=64)
        for a in (0.5, 0.75, 1.0):
            m = replace(_model(n=4, alpha=a, lam=lam, u0=[1.0, 0.3, -0.2, 0.1]),
                        control_delays=delays,
                        control_multipliers=(np.ones(4),) * len(delays))
            free = picard_solve(m, cfg)
            g = compute_grammian(m, 64)
            for beta in (0.1, 1e-3, 1e-5):
                cp = ControlProblem(model=m, target=target, beta=beta)
                traj, res = closed_loop_solve(cp, cfg)
                p = residual_p(cp, free)
                expect = np.linalg.norm(beta / (beta + g) * p)
                assert res == pytest.approx(expect, rel=1e-11, abs=1e-15)

    def test_free_target_needs_no_control(self):
        m = _model(n=2, alpha=0.6, lam=[1.0, 4.0], u0=[1.0, -0.5])
        free = picard_solve(m, SolverConfig(n_steps=64))
        cp = ControlProblem(model=m, target=free.states[64], beta=1e-3)
        traj, res = closed_loop_solve(cp, SolverConfig(n_steps=64))
        assert res < 1e-8
        mu = synthesize_control(cp, traj)[-1]
        assert control_energy(traj.dt, mu) < 1e-7

    def test_heavy_regularization_near_gap(self):
        m = _model(n=1, u0=[1.0])
        target = np.array([1.0])
        cp = ControlProblem(model=m, target=target, beta=1e4)
        cfg = SolverConfig(n_steps=128)
        traj, res = closed_loop_solve(cp, cfg)
        free = picard_solve(m, cfg)
        gap = abs(free.states[-1, 0] - 1.0)
        assert res == pytest.approx(gap, rel=1e-3)

    def test_first_non_finite_change_ends_the_loop(self, monkeypatch):
        # a controlled solve that returns an overflowed trajectory ends the
        # alternation at once, without a numpy warning
        m = _model(n=1, u0=[1.0])
        cfg = SolverConfig(n_steps=16)
        free = picard_solve(m, cfg)
        blown = Trajectory(free.dt, np.full_like(free.states, math.inf),
                           free.forcing)
        monkeypatch.setattr(control, "picard_solve",
                            lambda m, cfg, control=None: free if control is None else blown)
        cp = ControlProblem(model=m, target=np.array([1.0]), beta=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PicardDivergenceError) as e:
                closed_loop_solve(cp, cfg)
        assert e.value.residual_history == [math.inf]
        assert "after 1 of 100 rounds" in str(e.value)


class TestControlProblem:
    def test_target_checked(self):
        # the target's length and finiteness are checked where the problem
        # is built, and the message names the field
        for bad in (np.array([1.0, math.nan]), np.ones(3), np.ones((2, 1))):
            with pytest.raises(ModelValidationError, match="target"):
                ControlProblem(model=_model(n=2), target=bad, beta=0.1)
        cp = ControlProblem(model=_model(n=2), target=[3, 4], beta=0.1)
        assert cp.target.dtype == float
        assert np.array_equal(cp.target, [3.0, 4.0])

    def test_target_norm_checked(self):
        # each coefficient is finite, the norm every residual measures is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelValidationError, match="norm of target overflows"):
                ControlProblem(model=_model(n=2), target=[1e308, 0.0], beta=0.1)


class TestBetaSweep:
    def test_outer_budget_validated(self):
        with pytest.raises(DomainError):
            ControlProblem(model=_model(), target=np.ones(1),
                           beta=0.1, outer_max_iters=0)

    def test_validation(self):
        m = _model()
        cp = ControlProblem(model=m, target=np.ones(1), beta=0.1)
        cfg = SolverConfig(n_steps=32)
        with pytest.raises(DomainError):
            beta_sweep(cp, [0.1, 0.1], cfg)
        with pytest.raises(DomainError):
            beta_sweep(cp, [0.01, 0.1], cfg)
        with pytest.raises(DomainError):
            beta_sweep(cp, [0.1, -0.01], cfg)

    def test_zero_problem(self):
        m = _model(n=2, lam=[1.0, 4.0])
        cp = ControlProblem(model=m, target=np.zeros(2), beta=0.1)
        rep = beta_sweep(cp, [0.1, 0.01], SolverConfig(n_steps=32))
        assert rep.uncontrolled_gap == 0.0
        assert rep.residuals == (0.0, 0.0)
        assert rep.converged == (True, True)

    def test_monotone_decrease(self):
        m = _model(n=2, alpha=0.6, lam=[1.0, 4.0], u0=[1.0, 0.3])
        cp = ControlProblem(model=m, target=np.array([0.4, 0.1]),
                            beta=0.1)
        rep = beta_sweep(cp, [1e-1, 1e-2, 1e-3], SolverConfig(n_steps=64))
        assert all(rep.converged)
        rs = rep.residuals
        assert rs[0] > rs[1] > rs[2]
        assert rs[-1] < rep.uncontrolled_gap
        es = rep.control_energies
        assert es[0] < es[1] < es[2]
