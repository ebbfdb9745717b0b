"""Regularized steering: Grammian, resolvent, control law, beta sweeps.

The steering law B_q T_alpha(a - t) r is defined once.  The Grammian is
the solver's own terminal response to it with r = 1: every operator is
diagonal per mode, so that response is the diagonal, and the linear
closed loop reproduces the per-mode residual beta/(beta + gamma_n) p_n
for any channel layout and steering delay.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ModelValidationError, PicardDivergenceError
from .solver import (SolverConfig, Trajectory, _nonlinearity_rows,
                     build_grid_operators, memory_integral,
                     nonlocal_offset_factor, nonlocal_offsets, picard_solve,
                     realize_controls)
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
    if m.control_delay_count < 1:
        raise ModelValidationError("the model has no control channel")
    ops = build_grid_operators(m, n_steps)
    law = _steering_law(m, ops.dt, n_steps, np.ones(m.truncation))
    gram = memory_integral(ops, realize_controls(m, ops, law))[n_steps]
    dead = np.flatnonzero(gram <= 0.0) + 1
    if dead.size:
        shown = ", ".join(map(str, dead[:5])) + (", ..." if dead.size > 5 else "")
        raise ModelValidationError(
            f"gamma_n <= 0 on {dead.size} of {m.truncation} modes (n = {shown}): "
            "the linear part is approximately controllable only if gamma_n > 0 "
            "on every mode")
    return gram


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
    # the factor at the horizon itself, not the grid's factor at node n:
    # the last grid time (horizon / n) * n need not round back to horizon
    offset = nonlocal_offsets(m, traj.states, traj.dt,
                              nonlocal_offset_factor(m.alpha, m.horizon))
    free = ops.s_factors[n] * offset
    g = _nonlinearity_rows(m, ops, traj.states)
    mem = memory_integral(ops, g)
    return cp.target - free - mem[n]


def _steering_law(m: ModelSpec, dt: float, n: int, r: np.ndarray):
    """Per-channel grid samples of the steering law B_q T_alpha(a - t) r.

    Only the last channel carries it, pre-compensated so that after the
    solver re-samples it at sigma_q(t) the system sees the undelayed law:
    an invertible sigma_q is sampled at sigma_q^{-1}(t_k), any other delay
    at t_k itself.  The other channels are zero.
    """
    sigma = m.control_delays[-1]
    tq = dt * np.arange(n + 1)
    if sigma.kind == "scaled_sine" and m.horizon <= sigma.invertible_on:
        top = sigma(m.horizon)
        tq = np.array([sigma.invert(min(t, top)) for t in tq])
    mu = m.control_multipliers[-1] * m.t_alpha_factors(m.horizon - tq) * r
    return [np.zeros((n + 1, m.truncation))
            for _ in range(m.control_delay_count - 1)] + [mu]


def synthesize_control(cp: ControlProblem, traj: Trajectory):
    """Per-channel control samples of the regularized steering law with
    r = (beta I + Gamma)^{-1} p(traj)."""
    m = cp.model
    n = traj.n_steps
    gram = compute_grammian(m, n)  # also rejects a model with no control channel
    r = resolvent_apply(gram, cp.beta, residual_p(cp, traj))
    return _steering_law(m, traj.dt, n, r)


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
    mu = np.asarray(mu, dtype=float)
    # squares taken at the scale of the largest |mu| cannot overflow; a
    # power of two scales exactly, so no other energy changes
    _, e = math.frexp(float(np.max(np.abs(mu))))
    sq = np.sum(np.ldexp(mu, -e) ** 2, axis=1)
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
