"""Line-oriented experiment configuration: parse, validate, re-emit.

Format: ``[section]`` headers with ``key = value`` lines; ``#`` starts a
comment.  Sections are model / solver / control / output.  List values
are comma-separated at the top level (parentheses protect their
arguments), named shapes and delay/multiplier/nonlinearity descriptors
use a small closed vocabulary.  Every key is declared once, in
``_KEYS``, with its parser, its canonical emitter and its default.
Parsing validates everything a ModelSpec and a ControlProblem would,
reporting the offending key and, where applicable, the violated
hypothesis; ``to_text`` re-emits a canonical form whose parse yields an
identical configuration.
"""

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .control import ControlProblem
from .errors import ConfigError, ModelValidationError
from .solver import SolverConfig, time_grid
from .special import ML_MIN_ALPHA, gauss_legendre
from .spectral import DelayFn, ModelSpec, NonlinearityFn

_GAUSS_NODES = 400
_BARE_KINDS = ("identity", "zero")  # descriptors written without a parameter


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ControlProblem  # the model and target, at the first beta
    solver: SolverConfig
    betas: tuple
    output_dir: str
    x_points: tuple
    sections: tuple  # canonical ((section, ((key, value), ...)), ...)

    @property
    def model(self) -> ModelSpec:
        return self.problem.model

    def to_text(self) -> str:
        lines = []
        for name, items in self.sections:
            lines.append(f"[{name}]")
            for k, v in items:
                lines.append(f"{k} = {v}")
            lines.append("")
        return "\n".join(lines)

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()


def _finite(text: str, n=None) -> float:
    """Every float of the format: NaN and infinities are rejected."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


def _order(text: str, n=None) -> float:
    alpha = _finite(text)
    if 0.0 < alpha < ML_MIN_ALPHA:  # (0, 1] itself is ModelSpec's check
        raise ValueError(f"orders below {ML_MIN_ALPHA:g} are not supported, got {alpha!r}")
    return alpha


def _int(text: str, n=None) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not a valid int: {text!r}") from None


def _positive(parse):
    def checked(text, n=None):
        value = parse(text)
        if not value > 0:
            raise ValueError(f"must be positive, got {value!r}")
        return value
    return checked


def _text(text: str, n=None) -> str:
    return text


def _given(value, text: str) -> str:
    return text


def _fmt(x, text=None) -> str:
    return str(x) if isinstance(x, int) else f"{x:.17g}"


def _split_top(text: str):
    """Split on commas that are not inside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses")
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError("unbalanced parentheses")
    last = "".join(cur).strip()
    if last:
        parts.append(last)
    return parts


def _listed(parse_one):
    """Comma-separated values of ``parse_one``, or ``none`` for ()."""
    def parse(text, n=None):
        if text == "none":
            return ()
        return tuple(parse_one(item, n) for item in _split_top(text))
    return parse


def _joined(text_one):
    def emit(values, text=None):
        return ", ".join(text_one(v) for v in values) or "none"
    return emit


def _call_form(text: str):
    """Parse ``name`` or ``name(a, b, ...)`` into (name, [floats])."""
    text = text.strip()
    if "(" not in text:
        return text, []
    if not text.endswith(")"):
        raise ValueError(f"malformed descriptor {text!r}")
    name, inner = text[:-1].split("(", 1)
    args = [_finite(a) for a in inner.split(",")] if inner.strip() else []
    return name.strip(), args


def synthesize_shape(spec: str, n: int) -> np.ndarray:
    """Coefficients of a named state shape on the first n sine modes."""
    name, args = _call_form(spec)
    if name == "zero":
        return np.zeros(n)
    if name == "single_mode":
        if len(args) != 2:
            raise ValueError("single_mode takes (mode, amplitude)")
        mode, amplitude = args
        if mode != int(mode) or not 1 <= mode <= n:
            raise ValueError(f"mode {mode:g} is not an integer in 1..{n}")
        c = np.zeros(n)
        c[int(mode) - 1] = amplitude
        return c
    if name == "gaussian_bump":
        if len(args) != 2:
            raise ValueError("gaussian_bump takes (center, width)")
        center, width = args
        if width <= 0.0:
            raise ValueError("gaussian_bump width must be positive")
        if not math.isfinite(2.0 * width * width):
            raise ValueError(
                f"gaussian_bump width {width!r} is too large: 2 width^2 overflows")
        s, w = gauss_legendre(_GAUSS_NODES)
        x, w = math.pi * s, math.pi * w
        # a width whose square underflows gives inf or 0/0 here, which
        # the state checks reject with the key; numpy need not warn first
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            f = np.exp(-((x - center) ** 2) / (2.0 * width ** 2))
        modes = np.arange(1, n + 1)
        basis = math.sqrt(2.0 / math.pi) * np.sin(np.outer(modes, x))
        return basis @ (w * f)
    raise ValueError(f"unknown shape {name!r}")


def _multiplier(spec: str, n: int) -> np.ndarray:
    name, args = _call_form(spec)
    modes = np.arange(1, n + 1, dtype=float)
    if args and name in ("laplacian", "identity", "zero"):
        raise ValueError(f"{name} takes no parameter")
    if name == "laplacian":
        return -(modes ** 2)
    if name == "identity":
        return np.ones(n)
    if name == "zero":
        return np.zeros(n)
    if name == "constant":
        if len(args) != 1:
            raise ValueError("constant takes one value")
        return np.full(n, args[0])
    raise ValueError(f"unknown multiplier {name!r}")


def _descriptor(cls):
    """Parser of a delay or nonlinearity written ``kind`` or ``kind(param)``."""
    def parse(text, n=None):
        name, args = _call_form(text)
        if name in _BARE_KINDS:
            if args:
                raise ValueError(f"{name} takes no parameter")
            return cls(name)
        if len(args) != 1:
            raise ValueError(f"{name} takes exactly one parameter")
        return cls(name, args[0])
    return parse


def _descriptor_text(d, text=None) -> str:
    return d.kind if d.kind in _BARE_KINDS else f"{d.kind}({_fmt(d.param)})"


def _nonlinearity(text: str, n: int) -> NonlinearityFn:
    f = _descriptor(NonlinearityFn)(text)
    # (H6) asks for a finite bound on the norm of F: |kappa| sqrt(N) for tanh
    if f.kind == "bounded_tanh" and not math.isfinite(abs(f.param) * math.sqrt(n)):
        raise ModelValidationError(
            f"the norm bound |kappa| sqrt({n}) of {text} is not finite",
            hypothesis="(H6)")
    return f


def _eigenvalues(text: str, n=None):
    return None if text == "default" else tuple(_finite(v) for v in _split_top(text))


def _eigenvalues_text(values, text=None) -> str:
    return "default" if values is None else _joined(_fmt)(values)


def _pair(text: str, n=None) -> tuple:
    """A nonlocal term ``coef:time``."""
    c, t = text.split(":")
    return _finite(c), _finite(t)


def _betas(text: str, n=None) -> tuple:
    """Tikhonov weights: positive and strictly decreasing, as the sweep needs."""
    betas = tuple(_finite(b) for b in _split_top(text))
    if not betas:
        raise ValueError("needs at least one value")
    if not all(b > 0.0 for b in betas):
        raise ValueError(f"all values must be positive, got {text!r}")
    if any(b2 >= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError(f"values must be strictly decreasing, got {text!r}")
    return betas


# section -> key -> (parse, emit, default text or None if required), in
# canonical order.  Every parser takes (text, truncation) and every emitter
# (value, text), most ignoring the second; a key whose parser needs the
# truncation comes after it.  The model and solver keys are the fields of
# ModelSpec and SolverConfig, the control keys those of ControlProblem
# (``betas`` gives its beta and the sweep's).
_SHAPE = (synthesize_shape, _given, "zero")
_DELAYS = (_listed(_descriptor(DelayFn)), _joined(_descriptor_text), "none")
_MULTIPLIERS = (_listed(_multiplier), _given, "none")
_KEYS = {
    "model": {
        "alpha": (_order, _fmt, None),
        "horizon": (_finite, _fmt, "1.0"),
        "truncation": (_positive(_int), _fmt, None),
        "eigenvalues": (_eigenvalues, _eigenvalues_text, "default"),
        "u0": _SHAPE,
        "v0": _SHAPE,
        "state_delays": _DELAYS,
        "state_multipliers": _MULTIPLIERS,
        "control_delays": _DELAYS,
        "control_multipliers": _MULTIPLIERS,
        "nonlocal_terms": (_listed(_pair), _joined(lambda p: ":".join(map(_fmt, p))),
                           "none"),
        "nonlinearity": (_nonlinearity, _descriptor_text, "zero"),
    },
    "solver": {
        "n_steps": (_int, _fmt, "128"),
        "picard_tol": (_finite, _fmt, "1e-10"),
        "picard_max_iters": (_int, _fmt, "200"),
    },
    "control": {
        "target": _SHAPE,
        "betas": (_betas, _joined(_fmt), "0.1, 0.01, 0.001, 0.0001"),
        "outer_tol": (_positive(_finite), _fmt, "1e-8"),
        "outer_max_iters": (_positive(_int), _fmt, "100"),
    },
    "output": {
        "dir": (_text, _given, "out"),
        "x_points": (_listed(_finite), _joined(_fmt), "none"),
    },
}


def _check_reach(model: dict, t: float, lines: dict):
    """Reject a model whose stiffest eigenfactor argument lambda_max t^alpha
    is not finite (a bad alpha or t is ModelSpec's)."""
    alpha, lam = model["alpha"], model["eigenvalues"]
    if not (0.0 < alpha <= 1.0 and t > 0.0):
        return
    try:  # a truncation past ~1.3e154 overflows its square
        lam_max = float(model["truncation"]) ** 2 if lam is None else max(lam, default=0.0)
    except OverflowError:
        lam_max = math.inf
    if not math.isfinite(lam_max * t ** alpha):
        key = "truncation" if lam is None else "eigenvalues"
        raise ConfigError(f"[model] {key}: the stiffest mode's Mittag-Leffler "
                          f"argument -lambda t^alpha overflows at t = {t!r}",
                          line=lines.get(("model", key)))


def _raw_sections(text: str):
    sections, keys = {}, {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _KEYS:
                raise ConfigError(f"unknown section [{current}]", line=lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        if current is None:
            raise ConfigError("key/value line before any [section]", line=lineno)
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _KEYS[current]:
            raise ConfigError(f"unknown key {key!r} in [{current}]", line=lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", line=lineno)
        sections[current][key] = value
        keys[(current, key)] = lineno
    return sections, keys


@contextmanager
def _reported(where: str, line=None):
    """Any ValueError as a ConfigError naming ``where`` and any hypothesis."""
    try:
        yield
    except ValueError as exc:
        hypothesis = getattr(exc, "hypothesis", None)
        hint = f" [violates {hypothesis}]" if hypothesis else ""
        raise ConfigError(f"{where}: {exc}{hint}", line=line) from None


def parse_config(text: str, overrides=None) -> ExperimentConfig:
    """Parse and fully validate an experiment configuration.

    ``overrides`` maps (section, key) to raw value text that replaces the
    text's value before validation, so it meets the same checks and enters
    the canonical form and digest.
    """
    raw, lines = _raw_sections(text)
    for (section, key), value in (overrides or {}).items():
        raw.setdefault(section, {})[key] = value.strip()
        lines.pop((section, key), None)
    values, sections = {}, []
    for section, keys in _KEYS.items():
        given, parsed, canonical = raw.get(section, {}), {}, []
        values[section] = parsed
        for key, (parse, emit, default) in keys.items():
            text = given.get(key, default)
            with _reported(f"[{section}] {key}", lines.get((section, key))):
                if text is None:
                    raise ValueError("required key is missing")
                parsed[key] = parse(text, values["model"].get("truncation"))
            canonical.append((key, emit(parsed[key], text)))
            if key == "eigenvalues":  # before any shape is built on the truncation
                _check_reach(parsed, parsed["horizon"], lines)
        sections.append((section, tuple(canonical)))
    with _reported("[model]"):
        spec = ModelSpec(**values["model"])
    with _reported("[solver]"):
        solver_cfg = SolverConfig(**values["solver"])
    # again at the last grid node, which can round past the horizon
    t_max = max(spec.horizon, float(time_grid(spec.horizon, solver_cfg.n_steps)[1][-1]))
    _check_reach(values["model"], t_max, lines)
    control = values["control"]
    with _reported("[control]"):  # the target's length, finiteness and norm
        problem = ControlProblem(spec, control["target"], control["betas"][0],
                                 control["outer_tol"], control["outer_max_iters"])
    output = values["output"]
    return ExperimentConfig(problem, solver_cfg, control["betas"],
                            output_dir=output["dir"], x_points=output["x_points"],
                            sections=tuple(sections))
