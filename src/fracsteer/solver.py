"""Mild-solution solver: Picard iteration on a uniform time grid.

The trajectory satisfies, at every grid time t,

    u(t) = S_alpha(t) * [u0 + v0 + (t^{1-a}/Gamma(2-a)) * sum_k c_k u(t_k)]
         + int_0^t (t-s)^{a-1} T_alpha(t-s) [F(s, W_delta(s)) + V_sigma(s)] ds,

with the singular memory integral discretized by the shared
product-trapezoidal weights and the operator families acting by
per-mode eigenfactors.  The fixed point is found by Picard iteration in
``fixed_point``, the one loop that also runs the closed loop; no contraction,
a stall at rounding and a non-finite iterate are reported, never accepted.
"""

import math
from dataclasses import dataclass

import numpy as np

from .backend import memory_convolve
from .errors import DomainError, GridMismatchError, PicardDivergenceError
from .fractional import ConvolutionKernel, convolution_kernel
from .gammafn import gamma
from .special import ml_array
from .spectral import ModelSpec

_GRID_RTOL = 1e-9
_STALL_EPS = 8  # a change within this many eps of the iterate's norm is rounding


@dataclass(frozen=True)
class SolverConfig:
    n_steps: int = 128
    picard_tol: float = 1e-10
    picard_max_iters: int = 200

    def __post_init__(self):
        if self.n_steps < 8:
            raise DomainError(f"n_steps must be >= 8, got {self.n_steps}")
        if self.picard_tol <= 0.0:
            raise DomainError(f"picard_tol must be positive, got {self.picard_tol}")
        if self.picard_max_iters < 1:
            raise DomainError("picard_max_iters must be >= 1")


@dataclass(frozen=True)
class Trajectory:
    """Grid-sampled states (one row per node) and, on the same rows, the
    realized delayed-control forcing sum_j B_j u(sigma_j(t)) of the one
    control u."""

    dt: float
    states: np.ndarray
    forcing: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.states, dtype=float)
        if s.ndim != 2 or s.shape[0] < 2:
            raise DomainError("trajectory needs at least 2 grid rows")
        f = np.asarray(self.forcing, dtype=float)
        if f.shape != s.shape:
            raise GridMismatchError(
                f"forcing shape {f.shape} != state shape {s.shape}")
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "forcing", f)

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def truncation(self) -> int:
        return self.states.shape[1]

    @property
    def horizon(self) -> float:
        return self.dt * self.n_steps

    def grid(self) -> np.ndarray:
        return self.dt * np.arange(self.states.shape[0])


def _interp_stencil(dt: float, n: int, times) -> tuple:
    """Index/weight pairs for linear interpolation at the given times."""
    x = np.clip(np.asarray(times, dtype=float) / dt, 0.0, float(n))
    lo = np.minimum(np.floor(x).astype(int), n - 1)
    w = x - lo
    # snap to exact nodes so on-grid sampling is bitwise exact
    exact = np.abs(w) < _GRID_RTOL
    w = np.where(exact, 0.0, w)
    return lo, w


def _delay_stencil(d, dt: float, times) -> tuple:
    """Stencil of the delayed times max(d(t), 0) at every node."""
    return _interp_stencil(dt, len(times) - 1, [max(d(t), 0.0) for t in times])


def _interp_rows(states: np.ndarray, lo: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (1.0 - w)[:, None] * states[lo] + w[:, None] * states[lo + 1]


def nonlocal_offset_factor(alpha: float, t: float) -> float:
    """Kernel factor t^{1-a}/Gamma(2-a) of the nonlocal integral."""
    if alpha == 1.0:
        return 1.0
    return t ** (1.0 - alpha) / gamma(2.0 - alpha)


def nonlocal_offsets(m: ModelSpec, states: np.ndarray, dt: float, factors):
    """u0 + v0 + factor * sum_k c_k u(t_k), the nonlocal offset.

    ``factors`` holds the kernel factor t^{1-a}/Gamma(2-a) of each wanted
    time: a 1-d array gives one row per entry, a scalar one vector.  The
    nonlocal states u(t_k) are linearly interpolated in ``states``.
    """
    base = m.u0 + m.v0
    if not m.nonlocal_terms:
        return np.broadcast_to(base, np.shape(factors) + base.shape)
    h = np.zeros(m.truncation)
    n = states.shape[0] - 1
    for c, tk in m.nonlocal_terms:
        lo, w = _interp_stencil(dt, n, [tk])
        h += c * _interp_rows(states, lo, w)[0]
    return base + np.multiply.outer(factors, h)


@dataclass(frozen=True)
class _GridOperators:
    """Everything that depends only on (model, grid), reused across iterations."""

    dt: float
    s_factors: np.ndarray       # (n+1, N): E_{a,1} factors at each grid lag
    kernel: ConvolutionKernel   # product-trapezoidal weights of the grid
    w0: np.ndarray              # (N,): exact lag-0 node weight of [0, dt]
    w1: np.ndarray              # (N,): exact lag-dt node weight of [0, dt]
    efac_mem: np.ndarray        # E_{a,a} factors per lag, rows 0/1 folded to w0/w1
    offset_factors: np.ndarray  # (n+1,): nonlocal kernel factor per node
    delay_stencils: tuple       # per state channel: (lo, w)
    control_stencils: tuple     # per control channel: (lo, w)


def time_grid(horizon: float, n_steps: int):
    """(dt, node times dt * k); the last node can round up past horizon."""
    dt = horizon / n_steps
    return dt, dt * np.arange(n_steps + 1)


def build_grid_operators(m: ModelSpec, n_steps: int) -> _GridOperators:
    dt, times = time_grid(m.horizon, n_steps)
    s_fac = m.s_alpha_factors(times)
    t_fac = m.t_alpha_factors(times)
    kern = convolution_kernel(m.alpha, n_steps, dt)
    a = m.alpha
    # exact kernel treatment of the first lag interval: the factor
    # E_{a,a}(-lam r^a) may collapse within r << dt for stiff modes, so
    # integrate r^{a-1} E_{a,a}(-lam r^a) times the linear hats in closed
    # form,  int_0^T r^{b-1} E_{a,b}(-lam r^a) dr = T^b E_{a,b+1}(-lam T^a):
    #   w0 = dt^a E_{a,a+2}(-x),  w1 = dt^a [E_{a,a+1}(-x) - E_{a,a+2}(-x)]
    # with x = lam dt^a; at lam = 0 these match the trapezoidal weights.
    x = m.eigenvalues * dt ** a
    e1 = ml_array(a, a + 1.0, -x)
    e2 = ml_array(a, a + 2.0, -x)
    w0 = dt ** a * e2
    w1 = dt ** a * (e1 - e2)
    efac_mem = t_fac.copy()
    efac_mem[0] = w0 / kern.last_node
    lag1_tail = kern.lag[1] - dt ** a / (a + 1.0)
    efac_mem[1] = (w1 + lag1_tail * t_fac[1]) / kern.lag[1]
    off = np.array([nonlocal_offset_factor(m.alpha, t) for t in times])
    dstencils = tuple(_delay_stencil(d, dt, times) for d in m.state_delays)
    cstencils = tuple(_delay_stencil(d, dt, times) for d in m.control_delays)
    return _GridOperators(dt, s_fac, kern, w0, w1, efac_mem, off,
                          dstencils, cstencils)


def memory_integral(ops: _GridOperators, g: np.ndarray) -> np.ndarray:
    """int_0^{t_i} (t_i-s)^{a-1} T_alpha(t_i-s) g(s) ds at every node.

    Product rule: linear interpolation of g on every step, with the full
    kernel (power times eigenfactor) handled exactly on the most recent
    step and product-trapezoidally beyond it.
    """
    k = ops.kernel
    mem = memory_convolve(k.first_node, k.lag, k.last_node, ops.efac_mem, g)
    if mem.shape[0] > 1:
        # the folded row-1 factor is only correct for targets i >= 2
        mem[1] = ops.w0 * g[1] + ops.w1 * g[0]
    return mem


def _nonlinearity_rows(m: ModelSpec, ops: _GridOperators, states: np.ndarray) -> np.ndarray:
    """F(s, W_delta(s)) at every grid node (rows)."""
    if not m.state_delays or m.nonlinearity.kind == "zero":
        return np.zeros_like(states)
    channels = np.stack([
        mult[None, :] * _interp_rows(states, lo, w)
        for mult, (lo, w) in zip(m.state_multipliers, ops.delay_stencils)])
    return m.nonlinearity(np.mean(channels, axis=0))


def realize_controls(m: ModelSpec, ops: _GridOperators, control) -> np.ndarray:
    """Realized forcing rows sum_j B_j u(sigma_j(t_k)) of the one control
    u, given by its (n+1, N) grid samples; zero for None."""
    shape = (len(ops.offset_factors), m.truncation)
    if control is None:
        return np.zeros(shape)
    u = np.asarray(control, dtype=float)
    if u.shape != shape:
        raise GridMismatchError(f"control sample shape {u.shape} does not match the grid")
    realized = [mult[None, :] * _interp_rows(u, lo, w)
                for mult, (lo, w) in zip(m.control_multipliers, ops.control_stencils)]
    return np.sum(realized, axis=0) if realized else np.zeros(shape)


def _picard_sweep(m, ops, states, forcing):
    """One application of the mild-solution map to the current iterate."""
    offsets = nonlocal_offsets(m, states, ops.dt, ops.offset_factors)
    g = _nonlinearity_rows(m, ops, states) + forcing
    return ops.s_factors * offsets + memory_integral(ops, g)


def _scaled(a):
    """``a`` over the power of two of its largest |a|, and that exponent:
    an exact scale at which no square overflows."""
    a = np.asarray(a, dtype=float)
    _, e = math.frexp(float(np.max(np.abs(a))))
    return np.ldexp(a, -e), e


def _norm(a, axis=None):
    """``np.linalg.norm(a, axis=axis)`` without overflow (Blue's scaling,
    ACM TOMS 4(1), 1978): every change and residual norm is this one."""
    v, e = _scaled(a)
    return np.ldexp(np.linalg.norm(v, axis=axis), e)


def fixed_point(step, x, tol: float, max_iters: int, failure: str, rows=np.asarray):
    """x <- step(x) until the largest row norm of the change of ``rows(x)``
    is below ``tol``.  A non-finite change (unwarned) or the budget raises
    PicardDivergenceError: ``failure`` formatted with the count and the
    budget, the last change, and a note when that change is rounding."""
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iters):
            new = step(x)
            change = float(np.max(_norm(rows(new) - rows(x), axis=1)))
            history.append(change)
            x = new
            if change < tol:
                return x
            if not math.isfinite(change):
                break
        size = float(np.max(_norm(rows(x), axis=1)))
    stalled = math.isfinite(size) and change <= _STALL_EPS * np.finfo(float).eps * size
    stall = (f"; it stalled at rounding, within {_STALL_EPS} eps of the iterate's "
             f"norm {size:.3e}" if stalled else "")
    raise PicardDivergenceError(
        failure.format(len(history), max_iters) + f" (last change {change:.3e}){stall}",
        residual_history=history)


def picard_solve(m: ModelSpec, cfg: SolverConfig, control=None) -> Trajectory:
    """Fixed point of the mild-solution map, from the free-response guess.

    ``control`` gives the (n+1, N) grid samples of the one control u (or
    None for the uncontrolled system); the forcing actually applied is
    V_sigma(t) = sum_j B_j u(sigma_j(t)) with linear interpolation at the
    delayed times.
    """
    ops = build_grid_operators(m, cfg.n_steps)
    forcing = realize_controls(m, ops, control)
    states = fixed_point(lambda s: _picard_sweep(m, ops, s, forcing),
                         ops.s_factors * (m.u0 + m.v0)[None, :], cfg.picard_tol,
                         cfg.picard_max_iters, "no contraction after {} of {} iterations")
    return Trajectory(ops.dt, states, forcing)


def mild_residual(m: ModelSpec, traj: Trajectory) -> float:
    """Sup-norm defect of the trajectory under one more map application."""
    ops = build_grid_operators(m, traj.n_steps)
    new = _picard_sweep(m, ops, traj.states, traj.forcing)
    return float(np.max(_norm(new - traj.states, axis=1)))
