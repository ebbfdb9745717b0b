"""Regularized steering: Grammian, resolvent, control law, beta sweeps.

One control u enters through every delay, as sum_j B_j u(sigma_j(t)),
and its steering law is defined once.  The Grammian is the solver's own
terminal response to it with r = 1: every operator is diagonal per mode,
so that response is the diagonal, and the linear closed loop reproduces
beta/(beta + gamma_n) p_n for any channel layout and steering delays.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ModelValidationError, PicardDivergenceError
from .solver import (SolverConfig, Trajectory, _delay_stencil, _norm, _scaled,
                     _nonlinearity_rows, build_grid_operators, fixed_point,
                     memory_integral, nonlocal_offset_factor, nonlocal_offsets,
                     picard_solve, realize_controls)
from .spectral import ModelSpec, _state_vector


@dataclass(frozen=True)
class ControlProblem:
    model: ModelSpec
    target: np.ndarray
    beta: float
    outer_tol: float = 1e-8
    outer_max_iters: int = 100

    def __post_init__(self):
        if self.beta <= 0.0:
            raise DomainError(f"beta must be positive, got {self.beta}")
        object.__setattr__(self, "target", _state_vector(
            "target", self.target, self.model.truncation))
        # every terminal residual is a distance to the target
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(self.target))
        if not math.isfinite(norm):
            raise ModelValidationError("the norm of target overflows: it must be finite")
        if self.outer_tol <= 0.0:
            raise DomainError("outer_tol must be positive")
        if self.outer_max_iters < 1:
            raise DomainError(
                f"outer_max_iters must be >= 1, got {self.outer_max_iters}")


@dataclass(frozen=True)
class SweepReport:
    betas: tuple
    residuals: tuple
    control_energies: tuple
    converged: tuple
    uncontrolled_gap: float

    def __post_init__(self):
        n = len(self.betas)
        if not (len(self.residuals) == len(self.control_energies)
                == len(self.converged) == n):
            raise DomainError("sweep report columns have mismatched lengths")


def compute_grammian(m: ModelSpec, n_steps: int) -> np.ndarray:
    """Diagonal of the control-influence operator: the solver's terminal
    response to the steering law with r = 1, through the same delays,
    stencils and memory quadrature as every controlled solve."""
    if not m.control_delays:
        raise ModelValidationError("the model has no control channel")
    ops = build_grid_operators(m, n_steps)
    # an overflowing B_i B_j leaves gamma_n inf or nan: rejected, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        law = _steering_law(m, ops.dt, n_steps, np.ones(m.truncation))
        gram = memory_integral(ops, realize_controls(m, ops, law))[n_steps]
    dead = np.flatnonzero(~((0.0 < gram) & (gram < math.inf))) + 1
    if dead.size:
        shown = ", ".join(map(str, dead[:5])) + (", ..." if dead.size > 5 else "")
        raise ModelValidationError(
            f"gamma_n <= 0 or not finite on {dead.size} of {m.truncation} modes "
            f"(n = {shown}): the steering law needs a finite gamma_n > 0 on every mode")
    return gram


def residual_p(cp: ControlProblem, traj: Trajectory) -> np.ndarray:
    """u_a - S_alpha(a) u(0) - int_0^a (a-s)^{a-1} T_alpha(a-s) F ds."""
    m = cp.model
    if traj.n_steps < 1 or abs(traj.horizon - m.horizon) > 1e-9 * m.horizon:
        raise ModelValidationError(
            f"trajectory horizon {traj.horizon} != model horizon {m.horizon}")
    n = traj.n_steps
    ops = build_grid_operators(m, n)
    # the factor at the horizon itself, not the grid's factor at node n:
    # the last grid time (horizon / n) * n need not round back to horizon
    offset = nonlocal_offsets(m, traj.states, traj.dt,
                              nonlocal_offset_factor(m.alpha, m.horizon))
    free = ops.s_factors[n] * offset
    g = _nonlinearity_rows(m, ops, traj.states)
    mem = memory_integral(ops, g)
    return cp.target - free - mem[n]


def _steering_law(m: ModelSpec, dt: float, n: int, r: np.ndarray) -> np.ndarray:
    """(n+1, N) grid samples of the one control
    u(s) = sum_j B_j T_alpha(b - tau_j(s)) r.

    tau_j(s) = sigma_j^{-1}(min(s, sigma_j(b))) on the increasing branch,
    or s where that branch ends before b, clamped to [0, b]: re-sampled
    at sigma_j(t), term j applies the undelayed law.  A term is zero where
    its channel's stencil never reads; a zero B_j adds no term.
    """
    b = m.horizon
    grid = dt * np.arange(n + 1)
    u = np.zeros((n + 1, m.truncation))
    for sigma, mult in zip(m.control_delays, m.control_multipliers):
        if not mult.any():
            continue
        lead = grid
        if b <= sigma.invertible_on:
            top = sigma(b)
            lead = [sigma.invert(min(s, top)) for s in grid]
        lo, w = _delay_stencil(sigma, dt, grid)
        term = mult * m.t_alpha_factors(b - np.minimum(lead, b)) * r
        term[np.bincount(lo, 1.0 - w, n + 1) + np.bincount(lo + 1, w, n + 1) == 0.0] = 0.0
        u += term
    return u


def synthesize_control(cp: ControlProblem, traj: Trajectory) -> np.ndarray:
    """(n+1, N) grid samples of the one control u of the regularized
    steering law with r = (beta I + Gamma)^{-1} p(traj)."""
    m = cp.model
    n = traj.n_steps
    gram = compute_grammian(m, n)  # also rejects a model with no control channel
    r = residual_p(cp, traj) / (cp.beta + gram)
    return _steering_law(m, traj.dt, n, r)


def closed_loop_solve(cp: ControlProblem, cfg: SolverConfig):
    """Alternate control synthesis and trajectory solves to a fixed point.

    Returns (trajectory, terminal_residual) where the residual is the
    norm of the terminal state's distance to the target.  An inner solve
    or the alternation that does not settle raises PicardDivergenceError.
    """
    m = cp.model
    free = picard_solve(m, cfg, control=None)
    traj = fixed_point(lambda t: picard_solve(m, cfg, control=synthesize_control(cp, t)),
                       free, cp.outer_tol, cp.outer_max_iters,
                       "control/trajectory alternation did not settle after {} of {} rounds",
                       rows=lambda t: t.states)
    return traj, float(_norm(traj.states[-1] - cp.target))


def control_energy(dt: float, u: np.ndarray) -> float:
    """Time-L2 norm of grid-sampled control values (trapezoid rule)."""
    v, e = _scaled(u)
    sq = np.sum(v ** 2, axis=1)
    return math.ldexp(math.sqrt(dt * (np.sum(sq) - 0.5 * sq[0] - 0.5 * sq[-1])), e)


def beta_sweep(cp: ControlProblem, betas, cfg: SolverConfig) -> SweepReport:
    """Run the closed loop over a decreasing beta sequence (serial).

    Non-converged values are flagged and the sweep continues; the report
    also carries the uncontrolled terminal gap for scale.
    """
    bs = tuple(float(b) for b in betas)
    if any(b <= 0.0 for b in bs):
        raise DomainError("all beta values must be positive")
    if any(b2 >= b1 for b1, b2 in zip(bs, bs[1:])):
        raise DomainError("beta values must be strictly decreasing")
    free = picard_solve(cp.model, cfg, control=None)
    gap = float(_norm(free.states[-1] - cp.target))
    residuals, energies, flags = [], [], []
    for b in bs:
        cpb = replace(cp, beta=b)
        try:
            traj, res = closed_loop_solve(cpb, cfg)
            residuals.append(res)
            energies.append(control_energy(traj.dt, synthesize_control(cpb, traj)))
            flags.append(True)
        except PicardDivergenceError:
            residuals.append(math.nan)
            energies.append(math.nan)
            flags.append(False)
    return SweepReport(bs, tuple(residuals), tuple(energies), tuple(flags), gap)
