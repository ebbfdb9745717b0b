"""Config space: whatever ``parse_config`` accepts must run.

The product grid covers the fractional order, the truncation, the step
count, the horizon, the three delay kinds (each used for the state and
the control delay alike) and nonlocal terms on and off.  Every
configuration must either be rejected by ``parse_config`` with a message
that names its key, or solve to a finite trajectory.  The 128-step slice
is marked ``slow``; run it with ``pytest -m slow``.

The control slice checks the paper's claim on the shipped model, steered
by one control through one delayed channel or through several live
ones: over beta = 1e-2, 1e-4, 1e-6 the closed loop converges, its
residual falls strictly and ends below 1% of the uncontrolled gap.  At
each fixed point it also checks the paper's identity behind that decay,
x_beta(b) - target = -beta (beta I + Gamma)^{-1} p(x_beta) mode by mode,
and that residual / beta settles (towards |Gamma^{-1} p|) as beta falls.

The generated configs draw every key at random, at scales up to 10^±300,
and run the CLI in-process: each must exit 0 with a finite CSV, exit 2
naming its key, or exit 1 with the failure record and one stderr line.
"""

import itertools
import math
import random
import re

import numpy as np
import pytest

from fracsteer import config, control
from fracsteer.cli import main
from fracsteer.config import parse_config
from fracsteer.control import beta_sweep, compute_grammian, residual_p
from fracsteer.errors import ConfigError
from fracsteer.solver import picard_solve

ALPHAS = (0.1, 0.3, 0.5, 0.9, 0.999, 0.9999, 1.0)
# the stiffest eigenfactor argument lambda_N t^alpha passes 1e4 through
# the truncation (512^2) and through the horizon (100^2 * 4^alpha)
TRUNCATIONS = (1, 32, 100, 512)
STEPS = (8, 16, 128)
HORIZONS = (0.5, 1.0, 4.0)
DELAYS = ("identity", "scaled_sine(1)", "constant_lag(0.1)")
NONLOCAL = ("none", "0.1:0.2, 0.05:0.4")

_TEMPLATE = """\
[model]
alpha = {alpha}
horizon = {horizon}
truncation = {truncation}
u0 = gaussian_bump(1.0, 0.35)
state_delays = {delay}
state_multipliers = laplacian
control_delays = {delay}
control_multipliers = identity
nonlocal_terms = {terms}
nonlinearity = bounded_tanh(0.1)

[solver]
n_steps = {n_steps}
"""


def _cases():
    # the last two factors vary fastest, so the six configurations that
    # share (alpha, truncation, n_steps, horizon) run back to back and
    # reuse the memoized eigenfactor tables
    for a, n, steps, h, delay, terms in itertools.product(
            ALPHAS, TRUNCATIONS, STEPS, HORIZONS, DELAYS, NONLOCAL):
        name = (f"a{a}-N{n}-n{steps}-h{h}-{delay.split('(')[0]}-"
                f"{'local' if terms == 'none' else 'nonlocal'}")
        marks = (pytest.mark.slow,) if steps > 16 else ()
        yield pytest.param(a, n, steps, h, delay, terms, id=name, marks=marks)


@pytest.mark.parametrize("alpha, truncation, n_steps, horizon, delay, terms",
                         list(_cases()))
def test_runs_or_is_rejected_with_its_key(alpha, truncation, n_steps, horizon,
                                          delay, terms):
    text = _TEMPLATE.format(alpha=alpha, truncation=truncation, n_steps=n_steps,
                            horizon=horizon, delay=delay, terms=terms)
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        assert re.match(r"\[\w+\] \w+: ", str(exc)), str(exc)
        return
    traj = picard_solve(cfg.model, cfg.solver)
    assert traj.states.shape == (n_steps + 1, truncation)
    assert np.all(np.isfinite(traj.states))


CONTROL_ALPHAS = (0.3, 0.5, 0.9, 1.0)
# (control_delays, control_multipliers): one channel of each kind, then
# layouts whose every channel is live
CONTROL_LAYOUTS = (("identity", "identity"),
                   ("scaled_sine(2)", "identity"),
                   ("constant_lag(0.1)", "identity"),
                   ("scaled_sine(1), identity", "identity, identity"),
                   ("constant_lag(0.1), scaled_sine(2)", "identity, constant(0.5)"))

_CONTROL_TEMPLATE = """\
[model]
alpha = {alpha}
truncation = 32
u0 = gaussian_bump(1.0, 0.35)
state_delays = scaled_sine(1)
state_multipliers = laplacian
control_delays = {delays}
control_multipliers = {multipliers}
nonlocal_terms = {terms}
nonlinearity = bounded_tanh(0.1)

[solver]
n_steps = 64

[control]
target = gaussian_bump(1.5707963267948966, 0.4)
betas = 1e-2, 1e-4, 1e-6
"""


def _control_cases():
    for a, (delays, mults), terms in itertools.product(
            CONTROL_ALPHAS, CONTROL_LAYOUTS, NONLOCAL):
        kinds = "-".join(d.split("(")[0] for d in delays.split(", "))
        name = f"a{a}-{kinds}-{'local' if terms == 'none' else 'nonlocal'}"
        # tier-1 keeps the cases that a Grammian of undelayed control on
        # every channel fails to steer
        slow = delays == "identity" or (delays == "scaled_sine(2)" and a == 1.0)
        marks = (pytest.mark.slow,) if slow else ()
        yield pytest.param(a, delays, mults, terms, id=name, marks=marks)


# the identity's defect comes from the outer tolerance (1e-8): over the
# whole slice it measured 2.3e-12 to 2.7e-10, and a Grammian off by a
# relative 1e-6 makes it at least 4.7e-7
IDENTITY_BOUND = 1e-9


@pytest.mark.parametrize("alpha, delays, multipliers, terms", list(_control_cases()))
def test_steering_approaches_the_target(alpha, delays, multipliers, terms, monkeypatch):
    cfg = parse_config(_CONTROL_TEMPLATE.format(alpha=alpha, delays=delays,
                                                multipliers=multipliers, terms=terms))
    loops = []

    def recorded(cp, solver_cfg, solve=control.closed_loop_solve):
        traj, residual = solve(cp, solver_cfg)
        loops.append((cp, traj))
        return traj, residual

    monkeypatch.setattr(control, "closed_loop_solve", recorded)
    rep = beta_sweep(cfg.problem, cfg.betas, cfg.solver)
    assert all(rep.converged)
    rs = rep.residuals
    assert all(b < a for a, b in zip(rs, rs[1:])), rs
    assert rs[-1] < 0.01 * rep.uncontrolled_gap, (rs[-1], rep.uncontrolled_gap)
    gram = compute_grammian(cfg.model, cfg.solver.n_steps)
    for cp, traj in loops:
        regularized = cp.beta * residual_p(cp, traj) / (cp.beta + gram)
        defect = np.max(np.abs(traj.states[-1] - cp.target + regularized))
        assert defect < IDENTITY_BOUND, (cp.beta, defect)
    # residual / beta = |p / (beta + Gamma)| grows to |Gamma^{-1} p|: its
    # relative steps measured 0.13-0.42, then 1.6e-3 to 8.6e-3, each at
    # least 49 times smaller
    q = [r / b for r, b in zip(rs, rep.betas)]
    steps = [(b - a) / b for a, b in zip(q, q[1:])]
    assert steps[0] > 0.0 and 0.0 < steps[1] < min(0.02, steps[0] / 20.0), q


# Generated configs: every key of the format drawn at random, at scales up
# to 10^±300.  Half the draws keep the shipped text, so 123 of the 300
# configs get past parsing, most with a key or two at an extreme.
# ``--steps 16`` replaces the drawn step count, and the integer budgets
# stay small, so each case runs in well under a second.
GENERATED = 300
GENERATED_TIER1 = 40  # the first cases; the rest are ``slow``
_CSV = {"simulate": "simulate.csv", "sweep": "sweep.csv", "synthesize": "control.csv"}


def _listed(items) -> str:
    return ", ".join(items) or "none"


def _number(rng, shipped: float) -> str:
    r = rng.random()
    if r < 0.5:
        return repr(shipped)
    if r < 0.85:
        return repr(shipped * rng.uniform(0.1, 2.0))
    value = 10.0 ** rng.uniform(-300.0, 300.0)
    return repr(-value if rng.random() < 0.25 else value)


def _shape(rng, n: int) -> str:
    kind = rng.choice(("zero", "single_mode", "gaussian_bump"))
    if kind == "zero":
        return kind
    if kind == "single_mode":
        return f"single_mode({rng.randint(1, n)}, {_number(rng, 1.0)})"
    return f"gaussian_bump({_number(rng, 1.5)}, {_number(rng, 0.4)})"


def _channels(rng):
    """(delays, multipliers) of up to two channels."""
    delays, mults = [], []
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(("identity", "scaled_sine", "constant_lag"))
        delays.append(kind if kind == "identity" else
                      f"{kind}({_number(rng, 1.0 if kind == 'scaled_sine' else 0.1)})")
        mults.append(rng.choice(("laplacian", "identity", "zero",
                                 f"constant({_number(rng, 1.0)})")))
    return _listed(delays), _listed(mults)


def _drawn_config(rng):
    """(config text, command) with a value drawn for every key of ``_KEYS``."""
    n = rng.randint(1, 48)
    sd, sm = _channels(rng)
    cd, cm = _channels(rng)
    lam = [_number(rng, float(k * k)) for k in range(1, n + 1)]
    betas = sorted({float(_number(rng, 0.01)) for _ in range(rng.randint(1, 3))},
                   reverse=True)
    kappa = _number(rng, 0.1)
    values = {
        "model": {
            "alpha": _number(rng, 0.5), "horizon": _number(rng, 1.0),
            "truncation": str(n),
            "eigenvalues": "default" if rng.random() < 0.7 else _listed(lam),
            "u0": _shape(rng, n), "v0": _shape(rng, n),
            "state_delays": sd, "state_multipliers": sm,
            "control_delays": cd, "control_multipliers": cm,
            "nonlocal_terms": _listed(f"{_number(rng, 0.1)}:{_number(rng, 0.25 * (k + 1))}"
                                      for k in range(rng.randint(0, 2))),
            "nonlinearity": rng.choice(("zero", f"bounded_tanh({kappa})",
                                        f"linear_feedback({kappa})")),
        },
        "solver": {"n_steps": str(rng.randint(8, 64)),
                   "picard_tol": _number(rng, 1e-10),
                   "picard_max_iters": str(rng.randint(1, 200))},
        "control": {"target": _shape(rng, n), "betas": _listed(map(repr, betas)),
                    "outer_tol": _number(rng, 1e-8),
                    "outer_max_iters": str(rng.randint(1, 30))},
        "output": {"dir": "out",
                   "x_points": _listed(_number(rng, 1.0) for _ in range(rng.randint(0, 2)))},
    }
    assert {s: list(keys) for s, keys in values.items()} == {
        s: list(keys) for s, keys in config._KEYS.items()}
    text = "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in values.items())
    return text, rng.choice(tuple(_CSV))


def _generated_cases():
    rng = random.Random(12345)
    for i in range(GENERATED):
        text, command = _drawn_config(rng)
        marks = () if i < GENERATED_TIER1 else (pytest.mark.slow,)
        yield pytest.param(text, command, id=f"g{i}-{command}", marks=marks)


def _key_lines(text) -> dict:
    """(section, key) -> the line of each key of a generated config."""
    lines, section = {}, None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("["):
            section = line[1:-1]
        else:
            lines[(section, line.split(" = ")[0])] = lineno
    return lines


def _finite_csv(path) -> bool:
    """Every row value and the residual or gap of a success CSV is finite."""
    lines = path.read_text().splitlines()
    values = [line.split(" = ")[1] for line in lines
              if line.startswith(("# terminal_residual", "# uncontrolled_gap"))]
    rows = [line for line in lines if not line.startswith("#")][1:]  # past the header
    values += [v for row in rows for v in row.split(",")]
    return all(math.isfinite(float(v)) for v in values)


@pytest.mark.parametrize("text, command", list(_generated_cases()))
def test_generated_config_ends_one_of_three_ways(text, command, tmp_path, capsys):
    # exit 0 with a finite CSV; exit 2 with a last line naming the key and
    # its line; or exit 1 with the failure record and one line (a sweep may
    # instead flag each beta that did not settle in its converged column,
    # with one line each).  A traceback or a RuntimeWarning (an error under
    # this suite's filter) fails the case
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    try:
        status = main(["--config", str(path), "--out", str(tmp_path), "--steps", "16",
                       command])
    except SystemExit as exc:
        status = exc.code
    lines = capsys.readouterr().err.splitlines()
    if status == 2:
        prefix = f"fracsteer: error: {path}: "
        assert lines[-1].startswith(prefix), lines[-1]
        line, section, key = re.match(r"(?:line (\d+): )?\[(\w+)\] (\w+): ",
                                      lines[-1][len(prefix):]).groups()
        assert key in config._KEYS[section], lines[-1]
        # every key is in the text, and --steps overrides its n_steps
        given = None if key == "n_steps" else _key_lines(text)[(section, key)]
        assert line == (given and str(given)), lines[-1]
        return
    csv = tmp_path / _CSV[command]
    if status == 0:
        assert lines == [] and _finite_csv(csv)
        return
    assert status == 1
    if "# error = " in csv.read_text():
        assert len(lines) == 1 and lines[0].startswith(f"{command}: "), lines
    else:
        assert command == "sweep"
        rows = [row.split(",") for row in csv.read_text().splitlines()
                if not row.startswith("#")][1:]  # past the header
        unsettled = [float(beta) for beta, _, _, converged in rows if converged == "0"]
        assert unsettled and len(lines) == len(unsettled), lines
        assert [float(re.match(r"sweep: beta = (\S+): ", line)[1])
                for line in lines] == unsettled
