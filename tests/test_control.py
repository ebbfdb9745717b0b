"""Steering control: Grammian, resolvent, closed loop, beta sweeps."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fracsteer import config, control
from fracsteer.control import (ControlProblem, beta_sweep, closed_loop_solve,
                               compute_grammian, control_energy,
                               residual_p, resolvent_apply, synthesize_control)
from fracsteer.errors import (DomainError, ModelValidationError,
                              PicardDivergenceError)
from fracsteer.gammafn import gamma
from fracsteer.solver import (SolverConfig, Trajectory, build_grid_operators,
                              picard_solve)
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
        # B B overflows in the realized law: gamma_n is not finite, and
        # numpy warns of nothing before the error
        with pytest.raises(ModelValidationError, match=r"not finite on 2 of 2 modes"):
            compute_grammian(_model(n=2, b=np.full(2, 1e200)), 64)
        # channels whose multipliers cancel leave the one control no mode
        m = replace(_model(n=3), control_delays=(DelayFn("identity"),) * 2,
                    control_multipliers=(np.ones(3), -np.ones(3)))
        with pytest.raises(ModelValidationError, match=r"on 3 of 3 modes \(n = 1, 2, 3\)"):
            compute_grammian(m, 64)

    def test_live_channel_need_not_be_last(self):
        # a zero channel adds nothing, wherever it stands
        m = _model(n=3, lam=[1.0, 4.0, 9.0])
        g = compute_grammian(m, 64)
        for bs in ((np.ones(3), np.zeros(3)), (np.zeros(3), np.ones(3))):
            two = replace(m, control_delays=(DelayFn("identity"),) * 2,
                          control_multipliers=bs)
            assert np.array_equal(compute_grammian(two, 64), g)

    def test_classical_single_mode(self):
        # alpha=1, lambda=1: gamma = int_0^1 e^{-2(1-s)} ds = (1-e^{-2})/2
        g = compute_grammian(_model(), 2048)
        assert g[0] == pytest.approx(GAMMA_CLASSICAL, abs=1e-7)

    def test_every_channel_counts(self):
        # the one control is the sum of both channels' terms, and each
        # channel applies it: two identity channels of B = 1 give 2 * 2 gamma
        m1 = _model(n=2, lam=[1.0, 4.0])
        m2 = replace(m1, control_delays=(DelayFn("identity"),) * 2,
                     control_multipliers=(np.ones(2), np.ones(2)))
        g1 = compute_grammian(m1, 128)
        g2 = compute_grammian(m2, 128)
        assert np.array_equal(g2, 4.0 * g1)

    def test_lag_is_pre_compensated(self):
        # alpha = 1, lambda = 1, lag ell: the channel reads u(t - ell) =
        # e^{-(b - t)} on [ell, b] and u(0) = e^{-(b - ell)} before ell, so
        # gamma = e^{-(b-ell)} (e^{-(b-ell)} - e^{-b}) + (1 - e^{-2(b-ell)})/2
        # (the law sampled at t itself missed it by 22%)
        ell = 0.25
        m = replace(_model(), control_delays=(DelayFn("constant_lag", ell),))
        exact = (math.exp(ell - 1.0) * (math.exp(ell - 1.0) - math.exp(-1.0))
                 + 0.5 * (1.0 - math.exp(2.0 * (ell - 1.0))))
        assert compute_grammian(m, 512)[0] == pytest.approx(exact, rel=2e-6)

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
        u = synthesize_control(cp, traj)
        assert u.shape == (65, 2)
        assert np.all(u == 0.0)

    def test_classical_law_shape(self):
        # alpha=1: mu(t) = e^{-(1-t)} p/(beta + gamma)
        m = _model(u0=[1.0])
        cp = ControlProblem(model=m, target=np.ones(1), beta=0.1)
        n = 2048
        traj = picard_solve(m, SolverConfig(n_steps=n))
        mu = synthesize_control(cp, traj)[:, 0]
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
        mu = synthesize_control(cp, traj)
        g = compute_grammian(m, 128)
        p = residual_p(cp, traj)
        expect = 2.0 * (1.0 / gamma(0.5)) * p[0] / (0.2 + g[0])
        assert mu[-1, 0] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("delay, unread, energy", [
        ("scaled_sine(2)", 33, 1.3191712332987),
        ("constant_lag(0.1)", 6, 1.5628483908682),
    ], ids=["scaled_sine", "constant_lag"])
    def test_samples_no_stencil_reads_are_zero(self, delay, unread, energy):
        # sin(1/2) < 1 and 1 - 0.1 < 1: the samples past sigma(1) never
        # reach the system, so they carry neither control nor energy (the
        # energy at beta = 1e-4 was 7.12 and 24.2 with them; the lag's was
        # 1.80 before its law was pre-compensated)
        cfg = config.parse_config(
            "[model]\nalpha = 0.5\ntruncation = 32\nu0 = gaussian_bump(1.0, 0.35)\n"
            "state_delays = scaled_sine(1)\nstate_multipliers = laplacian\n"
            f"control_delays = {delay}\ncontrol_multipliers = identity\n"
            "nonlinearity = bounded_tanh(0.1)\n[solver]\nn_steps = 64\n[control]\n"
            "target = gaussian_bump(1.5707963267948966, 0.4)\nbetas = 1e-4\n")
        traj, _ = closed_loop_solve(cfg.problem, cfg.solver)
        mu = synthesize_control(cfg.problem, traj)
        lo, w = build_grid_operators(cfg.model, 64).control_stencils[0]
        read = np.zeros(65, dtype=bool)
        read[lo[w != 1.0]] = read[lo[w != 0.0] + 1] = True
        assert np.count_nonzero(~read) == unread
        assert np.all(mu[~read] == 0.0) and np.all(mu[read].any(axis=1))
        assert control_energy(traj.dt, mu) == pytest.approx(energy, rel=1e-9)


class TestClosedLoop:
    @pytest.mark.parametrize("delays", [
        (DelayFn("identity"),),
        (DelayFn("identity"), DelayFn("identity")),
        (DelayFn("scaled_sine", 2.0),),
        (DelayFn("constant_lag", 0.1),),
        (DelayFn("scaled_sine", 1.0), DelayFn("identity")),
        (DelayFn("constant_lag", 0.1), DelayFn("scaled_sine", 2.0)),
        (DelayFn("identity"), DelayFn("constant_lag", 0.3), DelayFn("scaled_sine", 1.5)),
    ], ids=["identity", "two-identity", "scaled_sine", "constant_lag",
            "sine-identity", "lag-sine", "identity-lag-sine"])
    def test_linear_residual_formula(self, delays):
        # linear system: terminal residual is exactly beta/(beta+gamma_n) p_n,
        # whichever delays the one control goes through, every channel live
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
        mu = synthesize_control(cp, traj)
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
