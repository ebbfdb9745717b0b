"""Config space: whatever ``parse_config`` accepts must run.

The product grid covers the fractional order, the truncation, the step
count, the horizon, the three delay kinds (each used for the state and
the control delay alike) and nonlocal terms on and off.  Every
configuration must either be rejected by ``parse_config`` with a message
that names its key, or solve to a finite trajectory.  The 128-step slice
is marked ``slow``; run it with ``pytest -m slow``.

The control slice checks the paper's claim on the shipped model, steered
through one delayed channel: over beta = 1e-2, 1e-4, 1e-6 the closed loop
converges, its residual falls strictly and ends below 1% of the
uncontrolled gap.
"""

import itertools
import re

import numpy as np
import pytest

from fracsteer.config import parse_config
from fracsteer.control import beta_sweep
from fracsteer.errors import ConfigError
from fracsteer.solver import picard_solve

ALPHAS = (0.1, 0.3, 0.5, 0.9, 0.999, 0.9999, 1.0)
TRUNCATIONS = (1, 32, 100)
STEPS = (8, 16, 128)
HORIZONS = (0.5, 1.0)
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
CONTROL_DELAYS = ("identity", "scaled_sine(2)", "constant_lag(0.1)")

_CONTROL_TEMPLATE = """\
[model]
alpha = {alpha}
truncation = 32
u0 = gaussian_bump(1.0, 0.35)
state_delays = scaled_sine(1)
state_multipliers = laplacian
control_delays = {delay}
control_multipliers = identity
nonlocal_terms = {terms}
nonlinearity = bounded_tanh(0.1)

[solver]
n_steps = 64

[control]
target = gaussian_bump(1.5707963267948966, 0.4)
betas = 1e-2, 1e-4, 1e-6
"""


def _control_cases():
    for a, delay, terms in itertools.product(CONTROL_ALPHAS, CONTROL_DELAYS, NONLOCAL):
        name = (f"a{a}-{delay.split('(')[0]}-"
                f"{'local' if terms == 'none' else 'nonlocal'}")
        # tier-1 keeps the cases that a Grammian of undelayed control on
        # every channel fails to steer
        slow = delay == "identity" or (delay == "scaled_sine(2)" and a == 1.0)
        marks = (pytest.mark.slow,) if slow else ()
        yield pytest.param(a, delay, terms, id=name, marks=marks)


@pytest.mark.parametrize("alpha, delay, terms", list(_control_cases()))
def test_steering_approaches_the_target(alpha, delay, terms):
    cfg = parse_config(_CONTROL_TEMPLATE.format(alpha=alpha, delay=delay, terms=terms))
    rep = beta_sweep(cfg.problem, cfg.betas, cfg.solver)
    assert all(rep.converged)
    rs = rep.residuals
    assert all(b < a for a, b in zip(rs, rs[1:])), rs
    assert rs[-1] < 0.01 * rep.uncontrolled_gap, (rs[-1], rep.uncontrolled_gap)
