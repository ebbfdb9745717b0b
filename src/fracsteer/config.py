"""Line-oriented experiment configuration: parse, validate, re-emit.

Format: ``[section]`` headers with ``key = value`` lines; ``#`` starts a
comment.  Sections are model / solver / control / output.  List values
are comma-separated at the top level (parentheses protect their
arguments), named shapes and delay/multiplier/nonlinearity descriptors
use a small closed vocabulary.  Parsing validates everything a
ModelSpec would, reporting the offending key and, where applicable, the
violated hypothesis; ``to_text`` re-emits a canonical form whose parse
yields an identical configuration.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, ModelValidationError
from .solver import SolverConfig, time_grid
from .special import ML_NEG_Z_LIMIT
from .spectral import DelayFn, ModelSpec, NonlinearityFn, SpectralState

_SECTIONS = {
    "model": {"alpha", "horizon", "truncation", "eigenvalues", "u0", "v0",
              "state_delays", "state_multipliers", "control_delays",
              "control_multipliers", "nonlocal_terms", "nonlinearity"},
    "solver": {"n_steps", "picard_tol", "picard_max_iters"},
    "control": {"target", "betas", "outer_tol", "outer_max_iters"},
    "output": {"dir", "x_points"},
}

_GAUSS_NODES = 400


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    solver: SolverConfig
    target: SpectralState
    betas: tuple
    outer_tol: float
    outer_max_iters: int
    output_dir: str
    x_points: tuple
    sections: tuple  # canonical ((section, ((key, value), ...)), ...)

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


def _call_form(text: str):
    """Parse ``name`` or ``name(a, b, ...)`` into (name, [floats])."""
    text = text.strip()
    if "(" not in text:
        return text, []
    if not text.endswith(")"):
        raise ValueError(f"malformed descriptor {text!r}")
    name, inner = text[:-1].split("(", 1)
    args = [float(a) for a in inner.split(",")] if inner.strip() else []
    return name.strip(), args


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def synthesize_shape(spec: str, n: int) -> np.ndarray:
    """Coefficients of a named state shape on the first n sine modes."""
    name, args = _call_form(spec)
    if name == "zero":
        return np.zeros(n)
    if name == "single_mode":
        if len(args) != 2:
            raise ValueError("single_mode takes (mode, amplitude)")
        mode = int(args[0])
        if not (1 <= mode <= n):
            raise ValueError(f"mode {mode} outside 1..{n}")
        c = np.zeros(n)
        c[mode - 1] = args[1]
        return c
    if name == "gaussian_bump":
        if len(args) != 2:
            raise ValueError("gaussian_bump takes (center, width)")
        center, width = args
        if width <= 0.0:
            raise ValueError("gaussian_bump width must be positive")
        nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_NODES)
        x = 0.5 * math.pi * (nodes + 1.0)
        w = 0.5 * math.pi * weights
        f = np.exp(-((x - center) ** 2) / (2.0 * width ** 2))
        modes = np.arange(1, n + 1)
        basis = math.sqrt(2.0 / math.pi) * np.sin(np.outer(modes, x))
        return basis @ (w * f)
    raise ValueError(f"unknown shape {name!r}")


def _parse_delay(spec: str) -> DelayFn:
    name, args = _call_form(spec)
    if name == "identity":
        return DelayFn("identity")
    if len(args) != 1:
        raise ValueError(f"{name} takes exactly one parameter")
    return DelayFn(name, args[0])


def _delay_text(d: DelayFn) -> str:
    return "identity" if d.kind == "identity" else f"{d.kind}({_fmt(d.param)})"


def _parse_multiplier(spec: str, n: int) -> np.ndarray:
    name, args = _call_form(spec)
    modes = np.arange(1, n + 1, dtype=float)
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


def _parse_nonlinearity(spec: str) -> NonlinearityFn:
    name, args = _call_form(spec)
    if name == "zero":
        return NonlinearityFn("zero")
    if len(args) != 1:
        raise ValueError(f"{name} takes exactly one parameter")
    return NonlinearityFn(name, args[0])


def _nonlinearity_text(f: NonlinearityFn) -> str:
    return "zero" if f.kind == "zero" else f"{f.kind}({_fmt(f.param)})"


def _parse_pairs(text: str):
    """Nonlocal terms ``coef:time`` comma-separated, or ``none``."""
    if text.strip() == "none":
        return []
    pairs = []
    for item in _split_top(text):
        c, t = item.split(":")
        pairs.append((float(c), float(t)))
    return pairs


def _parse_betas(text: str) -> tuple:
    """Tikhonov weights: positive and strictly decreasing, as the sweep needs."""
    betas = tuple(float(b) for b in _split_top(text))
    if not betas:
        raise ValueError("needs at least one value")
    if not all(b > 0.0 for b in betas):
        raise ValueError(f"all values must be positive, got {text.strip()!r}")
    if any(b2 >= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError(f"values must be strictly decreasing, got {text.strip()!r}")
    return betas


def _raw_sections(text: str):
    sections, keys = {}, {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                raise ConfigError(f"unknown section [{current}]", line=lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        if current is None:
            raise ConfigError("key/value line before any [section]", line=lineno)
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _SECTIONS[current]:
            raise ConfigError(f"unknown key {key!r} in [{current}]", line=lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", line=lineno)
        sections[current][key] = value
        keys[(current, key)] = lineno
    return sections, keys


class _SectionReader:
    def __init__(self, name, values, lines):
        self.name = name
        self.values = values
        self.lines = lines

    def line(self, key):
        return self.lines.get((self.name, key))

    def get(self, key, default=None, required=False):
        if key not in self.values:
            if required:
                raise ConfigError(f"[{self.name}] is missing required key {key!r}")
            return default
        return self.values[key]

    def number(self, key, cast, default=None, required=False):
        raw = self.get(key, required=required)
        if raw is None:
            return default
        try:
            return cast(raw)
        except ValueError:
            raise ConfigError(
                f"[{self.name}] {key}: not a valid {cast.__name__}: {raw!r}",
                line=self.line(key)) from None


def parse_config(text: str, overrides=None) -> ExperimentConfig:
    """Parse and fully validate an experiment configuration.

    ``overrides`` maps (section, key) to raw value text that replaces the
    text's value before validation, so it meets the same checks and enters
    the canonical form and digest.
    """
    raw, lines = _raw_sections(text)
    for (section, key), value in (overrides or {}).items():
        raw.setdefault(section, {})[key] = value
        lines.pop((section, key), None)
    model = _SectionReader("model", raw.get("model", {}), lines)
    solver = _SectionReader("solver", raw.get("solver", {}), lines)
    control = _SectionReader("control", raw.get("control", {}), lines)
    output = _SectionReader("output", raw.get("output", {}), lines)

    alpha = model.number("alpha", float, required=True)
    horizon = model.number("horizon", float, default=1.0)
    n = model.number("truncation", int, required=True)

    def item(reader, key, fn, default=None, required=False):
        rawv = reader.get(key, required=required)
        if rawv is None:
            return default
        try:
            return fn(rawv)
        except (ValueError, DomainError) as exc:
            raise ConfigError(f"[{reader.name}] {key}: {exc}",
                              line=reader.line(key)) from None
        except ModelValidationError as exc:
            hint = f" [violates {exc.hypothesis}]" if exc.hypothesis else ""
            raise ConfigError(f"[{reader.name}] {key}: {exc}{hint}",
                              line=reader.line(key)) from None

    eig_raw = model.get("eigenvalues", default="default")
    eigenvalues = (None if eig_raw.strip() == "default"
                   else item(model, "eigenvalues",
                             lambda s: np.array([float(v) for v in _split_top(s)])))
    u0 = item(model, "u0", lambda s: SpectralState(synthesize_shape(s, n)),
              default=SpectralState.zero(n))
    v0 = item(model, "v0", lambda s: SpectralState(synthesize_shape(s, n)),
              default=SpectralState.zero(n))

    def delay_list(s):
        return (tuple() if s.strip() == "none"
                else tuple(_parse_delay(d) for d in _split_top(s)))

    def mult_list(s):
        return (tuple() if s.strip() == "none"
                else tuple(_parse_multiplier(m, n) for m in _split_top(s)))

    state_delays = item(model, "state_delays", delay_list, default=())
    state_mults = item(model, "state_multipliers", mult_list, default=())
    control_delays = item(model, "control_delays", delay_list, default=())
    control_mults = item(model, "control_multipliers", mult_list, default=())
    nonlocal_terms = item(model, "nonlocal_terms", _parse_pairs, default=())
    nonlinearity = item(model, "nonlinearity", _parse_nonlinearity,
                        default=NonlinearityFn("zero"))

    try:
        spec = ModelSpec(
            truncation=n, alpha=alpha, horizon=horizon, u0=u0, v0=v0,
            eigenvalues=eigenvalues,
            state_delays=state_delays, state_multipliers=state_mults,
            control_delays=control_delays, control_multipliers=control_mults,
            nonlocal_terms=tuple(nonlocal_terms), nonlinearity=nonlinearity)
    except ModelValidationError as exc:
        hint = f" [violates {exc.hypothesis}]" if exc.hypothesis else ""
        raise ConfigError(f"[model]: {exc}{hint}") from None
    except DomainError as exc:
        raise ConfigError(f"[model]: {exc}") from None
    try:
        solver_cfg = SolverConfig(
            n_steps=solver.number("n_steps", int, default=128),
            picard_tol=solver.number("picard_tol", float, default=1e-10),
            picard_max_iters=solver.number("picard_max_iters", int, default=200))
    except DomainError as exc:
        raise ConfigError(f"[solver]: {exc}") from None
    # the stiffest eigenfactor argument, -lambda_max t^alpha, must stay in
    # the validated Mittag-Leffler range at the largest time evaluated: the
    # horizon (steering law) or the last grid node, which can round past it
    t_max = max(spec.horizon, time_grid(spec.horizon, solver_cfg.n_steps)[1][-1])
    z_min = -float(np.max(spec.eigenvalues)) * t_max ** spec.alpha
    if z_min < -ML_NEG_Z_LIMIT:
        key = "truncation" if eigenvalues is None else "eigenvalues"
        raise ConfigError(
            f"[model] {key}: the stiffest mode reaches z = {z_min!r}, beyond "
            f"the supported Mittag-Leffler range z >= {-ML_NEG_Z_LIMIT:g}",
            line=model.line(key))

    target = item(control, "target",
                  lambda s: SpectralState(synthesize_shape(s, n)),
                  default=SpectralState.zero(n))
    betas = item(control, "betas", _parse_betas, default=(1e-1, 1e-2, 1e-3, 1e-4))
    outer_tol = control.number("outer_tol", float, default=1e-8)
    if not outer_tol > 0.0:
        raise ConfigError(f"[control] outer_tol: must be positive, got {outer_tol!r}",
                          line=control.line("outer_tol"))
    outer_max_iters = control.number("outer_max_iters", int, default=100)
    if outer_max_iters < 1:
        raise ConfigError(
            f"[control] outer_max_iters: must be >= 1, got {outer_max_iters}",
            line=control.line("outer_max_iters"))

    out_dir = output.get("dir", default="out")
    x_points = item(output, "x_points",
                    lambda s: (tuple() if s.strip() == "none"
                               else tuple(float(v) for v in _split_top(s))),
                    default=())

    canonical = (
        ("model", (
            ("alpha", _fmt(spec.alpha)),
            ("horizon", _fmt(spec.horizon)),
            ("truncation", str(spec.truncation)),
            ("eigenvalues", "default" if eig_raw.strip() == "default"
             else ", ".join(_fmt(v) for v in spec.eigenvalues)),
            ("u0", model.get("u0", default="zero").strip()),
            ("v0", model.get("v0", default="zero").strip()),
            ("state_delays",
             ", ".join(_delay_text(d) for d in spec.state_delays) or "none"),
            ("state_multipliers",
             model.get("state_multipliers", default="none").strip()),
            ("control_delays",
             ", ".join(_delay_text(d) for d in spec.control_delays) or "none"),
            ("control_multipliers",
             model.get("control_multipliers", default="none").strip()),
            ("nonlocal_terms",
             ", ".join(f"{_fmt(c)}:{_fmt(t)}" for c, t in spec.nonlocal_terms)
             or "none"),
            ("nonlinearity", _nonlinearity_text(spec.nonlinearity)),
        )),
        ("solver", (
            ("n_steps", str(solver_cfg.n_steps)),
            ("picard_tol", _fmt(solver_cfg.picard_tol)),
            ("picard_max_iters", str(solver_cfg.picard_max_iters)),
        )),
        ("control", (
            ("target", control.get("target", default="zero").strip()),
            ("betas", ", ".join(_fmt(b) for b in betas)),
            ("outer_tol", _fmt(outer_tol)),
            ("outer_max_iters", str(outer_max_iters)),
        )),
        ("output", (
            ("dir", out_dir),
            ("x_points", ", ".join(_fmt(x) for x in x_points) or "none"),
        )),
    )
    return ExperimentConfig(spec, solver_cfg, target, betas, outer_tol,
                            outer_max_iters, out_dir, x_points, canonical)
