"""Regularized steering: Grammian, resolvent, control law, beta sweeps.

The control influence operator (Grammian) is diagonal for the built-in
model and is integrated with the same singular-kernel weights as the
solver, so the linear closed loop reproduces the per-mode residual
formula beta/(beta + gamma_n) * p_n to quadrature consistency.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ModelValidationError, PicardDivergenceError
from .solver import (SolverConfig, Trajectory, _nonlinearity_rows,
                     build_grid_operators, memory_integral,
                     nonlocal_offset_factor, nonlocal_offsets, picard_solve)
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
    """Diagonal of the control-influence operator, per mode
    gamma_n = (sum_j b_jn^2) int_0^a (a-s)^{a-1} E_aa(...)^2 ds."""
    if m.control_delay_count < 1:
        raise ModelValidationError("the model has no control channel")
    ops = build_grid_operators(m, n_steps)
    # quadrature weight of lag j, matching the solver's memory integral
    w_by_lag = np.empty(n_steps + 1)
    w_by_lag[0] = ops.last
    w_by_lag[1:n_steps] = ops.lag[1:n_steps]
    w_by_lag[n_steps] = ops.first[n_steps]
    base = np.einsum("j,jm,jm->m", w_by_lag, ops.efac_mem, ops.t_factors)
    return np.sum([b * b * base for b in m.control_multipliers], axis=0)


def resolvent_apply(g: np.ndarray, beta: float, v: np.ndarray) -> np.ndarray:
    """(beta I + Gamma)^{-1} v for the Grammian diagonal ``g``."""
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    return v / (beta + g)


def residual_p(cp: ControlProblem, traj: Trajectory) -> np.ndarray:
    """u_a - S_alpha(a) u(0) - int_0^a (a-s)^{a-1} T_alpha(a-s) F ds."""
    m = cp.model
    if traj.n_steps < 1 or abs(traj.horizon - m.horizon) > 1e-9 * m.horizon:
        raise ModelValidationError(
            f"trajectory horizon {traj.horizon} != model horizon {m.horizon}")
    n = traj.n_steps
    ops = build_grid_operators(m, n)
    # the factor at the horizon itself, not ops.offset_factors[n]: the
    # last grid time (horizon / n) * n need not round back to horizon
    offset = nonlocal_offsets(m, traj.states, traj.dt,
                              nonlocal_offset_factor(m.alpha, m.horizon))
    free = ops.s_factors[n] * offset
    g = _nonlinearity_rows(m, ops, traj.states)
    mem = memory_integral(ops, g)
    return cp.target - free - mem[n]


def _steering_times(m: ModelSpec, times: np.ndarray) -> np.ndarray:
    """Pre-compensation of the steering channel's delayed sampling.

    The grid samples of the steering control are chosen so that, after
    the solver re-samples them at sigma_q(t), the forcing seen by the
    system is the undelayed law B_q T_alpha(a - t) r.  For an invertible
    delay this means sampling at sigma_q^{-1}(t_k); the identity delay
    reduces to the plain law, and non-invertible delays fall back to it.
    """
    sigma = m.control_delays[-1]
    if sigma.kind == "identity" or m.horizon > sigma.invertible_on:
        return times
    if sigma.kind == "scaled_sine":
        top = sigma(m.horizon)
        return np.array([sigma.invert(min(t, top)) for t in times])
    return times


def synthesize_control(cp: ControlProblem, traj: Trajectory):
    """Per-channel control samples of the regularized steering law.

    Only the last control channel carries the control
    mu(t) = B_q T_alpha(a - t) (beta I + Gamma)^{-1} p(traj); the other
    channels are zero.
    """
    m = cp.model
    if m.control_delay_count < 1:
        raise ModelValidationError("the model has no control channel")
    n = traj.n_steps
    gram = compute_grammian(m, n)
    p = residual_p(cp, traj)
    r = resolvent_apply(gram, cp.beta, p)
    times = traj.dt * np.arange(n + 1)
    tq = _steering_times(m, times)
    bq = m.control_multipliers[-1]
    mu = bq * m.t_alpha_factors(m.horizon - tq) * r
    channels = [np.zeros((n + 1, m.truncation))
                for _ in range(m.control_delay_count - 1)]
    channels.append(mu)
    return channels


def closed_loop_solve(cp: ControlProblem, cfg: SolverConfig):
    """Alternate control synthesis and trajectory solves to a fixed point.

    Returns (trajectory, terminal_residual) where the residual is the
    norm of the terminal state's distance to the target.  An inner solve
    or the alternation that does not settle raises PicardDivergenceError.
    """
    m = cp.model
    traj = picard_solve(m, cfg, control=None)
    history = []
    # as in picard_solve, the first non-finite change ends the alternation
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cp.outer_max_iters):
            mu = synthesize_control(cp, traj)
            new = picard_solve(m, cfg, control=mu)
            change = float(np.max(np.linalg.norm(new.states - traj.states, axis=1)))
            history.append(change)
            traj = new
            if change < cp.outer_tol:
                residual = float(np.linalg.norm(traj.states[-1] - cp.target))
                return traj, residual
            if not math.isfinite(change):
                break
    raise PicardDivergenceError(
        f"control/trajectory alternation did not settle after {len(history)} "
        f"of {cp.outer_max_iters} rounds (last change {history[-1]:.3e})",
        residual_history=history)


def control_energy(dt: float, mu: np.ndarray) -> float:
    """Time-L2 norm of grid-sampled control values (trapezoid rule)."""
    sq = np.sum(np.asarray(mu, dtype=float) ** 2, axis=1)
    return math.sqrt(dt * (np.sum(sq) - 0.5 * sq[0] - 0.5 * sq[-1]))


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
    gap = float(np.linalg.norm(free.states[-1] - cp.target))
    residuals, energies, flags = [], [], []
    for b in bs:
        cpb = replace(cp, beta=b)
        try:
            traj, res = closed_loop_solve(cpb, cfg)
            mu = synthesize_control(cpb, traj)
            residuals.append(res)
            energies.append(control_energy(traj.dt, mu[-1]))
            flags.append(True)
        except PicardDivergenceError:
            residuals.append(math.nan)
            energies.append(math.nan)
            flags.append(False)
    return SweepReport(bs, tuple(residuals), tuple(energies), tuple(flags), gap)
