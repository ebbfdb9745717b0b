"""Truncated spectral model: operator eigenfactors, delays, nonlinearities
and multipliers.

The state space is the span of the first N sine modes on [0, pi], and a
state is a plain float array of its N coefficients.  The generator is
diagonal with eigenvalues lambda_n (default n^2), so the fractional
operator families S_alpha and T_alpha act by per-mode scalar factors,
tabulated by ``ModelSpec.s_alpha_factors`` and ``t_alpha_factors``.
``ModelSpec`` bundles the generator data with the delay functions, the
per-mode state/control multipliers, the nonlocal weights, and the
nonlinearity descriptor, and validates the standing hypotheses at
construction time.  A state's length and finiteness are checked once,
by ``_state_vector``, where a ``ModelSpec`` (``u0``, ``v0``) or a
``ControlProblem`` (``target``) is built.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ModelValidationError
from .fractional import _as_alpha
from .special import ML_MIN_ALPHA, ml_array

_DELAY_KINDS = ("identity", "scaled_sine", "constant_lag")
_NONLINEARITY_KINDS = ("zero", "bounded_tanh", "linear_feedback")


def _state_vector(name: str, coeffs, n: int) -> np.ndarray:
    """A state of the model: ``coeffs`` as n finite floats, or an error
    naming the field ``name``."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (n,):
        raise ModelValidationError(
            f"{name} has shape {c.shape}, the model needs ({n},)", key=name)
    if not np.all(np.isfinite(c)):
        raise ModelValidationError(f"{name} coefficients must be finite", key=name)
    return c


@dataclass(frozen=True)
class DelayFn:
    """Named delay function from the closed vocabulary.

    identity: t -> t; scaled_sine(tau): t -> sin(t/tau);
    constant_lag(ell): t -> max(t - ell, 0).  Each keeps (H5), |delay(t)| <= t.
    """

    kind: str
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in _DELAY_KINDS:
            raise ModelValidationError(
                f"unknown delay kind {self.kind!r}; choose from {_DELAY_KINDS}")
        # |sin(t/tau)| <= t/tau <= t for tau >= 1; below, sin(t/tau) > t near 0
        if self.kind == "scaled_sine" and not self.param >= 1.0:
            raise ModelValidationError(
                f"scaled_sine needs a scale >= 1, got {self.param}", hypothesis="(H5)")
        if self.kind == "constant_lag" and self.param < 0.0:
            raise ModelValidationError(
                f"constant_lag needs a nonnegative lag, got {self.param}", hypothesis="(H5)")

    def __call__(self, t: float) -> float:
        if self.kind == "identity":
            return t
        if self.kind == "scaled_sine":
            return math.sin(t / self.param)
        return max(t - self.param, 0.0)

    @property
    def invertible_on(self) -> float:
        """Largest horizon b on which ``invert`` maps every delayed time
        of [0, b] back into [0, b] along one increasing branch (inf if
        every b)."""
        if self.kind == "scaled_sine":
            return 0.5 * math.pi * self.param
        return math.inf

    def invert(self, s: float) -> float:
        """t with delay(t) = s on the increasing branch: s for identity,
        tau asin(s) for scaled_sine, s + ell for constant_lag."""
        if self.kind == "identity":
            return s
        if self.kind == "scaled_sine":
            if not (0.0 <= s <= 1.0):
                raise DomainError(f"scaled_sine value {s} outside [0, 1]")
            return self.param * math.asin(s)
        return s + self.param


@dataclass(frozen=True)
class NonlinearityFn:
    """Named nonlinearity acting on the averaged delayed-state channels.

    zero: F = 0.  bounded_tanh(kappa): F = kappa * tanh per mode, with a
    finite norm bound kappa*sqrt(N).  linear_feedback(c): F = c * (the
    channel average), an unbounded test descriptor used by the
    grid-convergence oracles.
    """

    kind: str
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in _NONLINEARITY_KINDS:
            raise ModelValidationError(
                f"unknown nonlinearity {self.kind!r}; choose from {_NONLINEARITY_KINDS}")

    def __call__(self, avg: np.ndarray) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(avg)
        if self.kind == "bounded_tanh":
            return self.param * np.tanh(avg)
        return self.param * avg


@dataclass(frozen=True)
class ModelSpec:
    """Immutable model description; every check of its fields runs here,
    (H1), (H5) and (H6) among them, each error naming its field as ``key``."""

    truncation: int
    alpha: float
    horizon: float
    u0: np.ndarray
    v0: np.ndarray
    eigenvalues: np.ndarray = None
    state_delays: tuple = ()
    state_multipliers: tuple = ()
    control_delays: tuple = ()
    control_multipliers: tuple = ()
    nonlocal_terms: tuple = ()
    nonlinearity: NonlinearityFn = field(default_factory=lambda: NonlinearityFn("zero"))

    def __post_init__(self):
        n = int(self.truncation)
        if n < 1:
            raise ModelValidationError(f"truncation must be >= 1, got {self.truncation}",
                                       key="truncation")
        object.__setattr__(self, "truncation", n)
        object.__setattr__(self, "alpha", _as_alpha(self.alpha, key="alpha"))
        if self.alpha < ML_MIN_ALPHA:
            raise DomainError(f"orders below {ML_MIN_ALPHA:g} are not supported, "
                              f"got {self.alpha!r}", key="alpha")
        if self.horizon <= 0.0:
            raise ModelValidationError(f"horizon must be positive, got {self.horizon}",
                                       key="horizon")
        if self.eigenvalues is None:
            lam = np.arange(1, n + 1, dtype=float) ** 2
        else:
            lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.shape != (n,) or np.any(lam <= 0.0):
            raise ModelValidationError("need exactly one positive eigenvalue per mode",
                                       hypothesis="(H1)", key="eigenvalues")
        object.__setattr__(self, "eigenvalues", lam)
        for name in ("u0", "v0"):
            object.__setattr__(self, name, _state_vector(name, getattr(self, name), n))
        with np.errstate(over="ignore"):
            start = self.u0 + self.v0  # the solver's starting offset
        if not np.all(np.isfinite(start)):
            raise ModelValidationError("u0 + v0 overflows: their sum must be finite",
                                       key="v0")

        object.__setattr__(self, "state_delays", tuple(self.state_delays))
        object.__setattr__(self, "control_delays", tuple(self.control_delays))
        sm = tuple(np.asarray(a, dtype=float) for a in self.state_multipliers)
        cm = tuple(np.asarray(b, dtype=float) for b in self.control_multipliers)
        if not sm:
            sm = tuple(-lam for _ in self.state_delays)
        if not cm:
            cm = tuple(np.ones(n) for _ in self.control_delays)
        for kind, delays, mults in (("state", self.state_delays, sm),
                                    ("control", self.control_delays, cm)):
            key = f"{kind}_multipliers"
            if len(mults) != len(delays):
                raise ModelValidationError(
                    f"{len(delays)} {kind} delays but {len(mults)} multipliers", key=key)
            for a in mults:
                if a.shape != (n,):
                    raise ModelValidationError(
                        f"multiplier shape {a.shape} != ({n},)", key=key)
            object.__setattr__(self, key, mults)

        terms = tuple((float(c), float(tk)) for c, tk in self.nonlocal_terms)
        times = [tk for _, tk in terms]
        if any(not (0.0 < tk < self.horizon) for tk in times):
            raise ModelValidationError("nonlocal times must lie strictly inside "
                                       "(0, horizon)", key="nonlocal_terms")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ModelValidationError("nonlocal times must be strictly increasing",
                                       key="nonlocal_terms")
        object.__setattr__(self, "nonlocal_terms", terms)

        # (H6) asks for a finite bound on the norm of F: |kappa| sqrt(N) for tanh
        f = self.nonlinearity
        if f.kind == "bounded_tanh" and not math.isfinite(abs(f.param) * math.sqrt(n)):
            raise ModelValidationError(f"the norm bound |kappa| sqrt({n}) of "
                                       f"bounded_tanh({f.param!r}) is not finite",
                                       hypothesis="(H6)", key="nonlinearity")

    # --- per-mode eigenfactors -------------------------------------------

    def s_alpha_factors(self, t) -> np.ndarray:
        """E_{a,1}(-lambda_n t^a) per mode: shape (N,) for a scalar t,
        (len(t), N) for a 1-d array of times.  Read-only; memoized by
        value through ``ml_array``."""
        return self._alpha_factors(t, 1.0, 1.0)

    def t_alpha_factors(self, t) -> np.ndarray:
        """E_{a,a}(-lambda_n t^a) per mode: shape (N,) for a scalar t,
        (len(t), N) for a 1-d array of times.  Read-only; memoized by
        value through ``ml_array``."""
        return self._alpha_factors(t, self.alpha, 1.0 / math.gamma(self.alpha))

    def _alpha_factors(self, t, beta: float, at_zero: float) -> np.ndarray:
        times = np.asarray(t, dtype=float)
        flat = times.reshape(-1)
        nonzero = flat != 0.0
        # one scalar power per time: numpy's array power may differ from
        # the scalar pow in the last bit, which would change every output
        tpow = np.array([ti ** self.alpha for ti in flat[nonzero]])
        table = np.empty((flat.size, self.truncation))
        table[~nonzero] = at_zero
        table[nonzero] = ml_array(self.alpha, beta,
                                  -self.eigenvalues[None, :] * tpow[:, None])
        table.flags.writeable = False
        return table[0] if times.ndim == 0 else table


def synthesize_physical(coeffs: np.ndarray, x_grid) -> np.ndarray:
    """Evaluate sum_n c_n sqrt(2/pi) sin(n x) on the given x points."""
    x = np.asarray(x_grid, dtype=float)
    n = np.arange(1, len(coeffs) + 1)
    basis = math.sqrt(2.0 / math.pi) * np.sin(np.outer(x, n))
    return basis @ coeffs
