"""Config space: whatever ``parse_config`` accepts must run.

The product grid covers the fractional order, the truncation, the step
count, the horizon, the three delay kinds (each used for the state and
the control delay alike) and nonlocal terms on and off.  Every
configuration must either be rejected by ``parse_config`` with a message
that names its key, or solve to a finite trajectory.  The 128-step slice
is marked ``slow``; run it with ``pytest -m slow``.
"""

import itertools
import re

import numpy as np
import pytest

from fracsteer.config import parse_config
from fracsteer.errors import ConfigError
from fracsteer.solver import picard_solve

ALPHAS = (0.1, 0.3, 0.5, 0.9, 0.999, 1.0)
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
