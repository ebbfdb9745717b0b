"""Workload definitions: generated configs and the checks on their outputs.

Each workload is one CLI command on one generated configuration.  The
``--seed`` only moves the centers and widths of the two Gaussian bumps
(initial state ``u0`` and steering ``target``); seed 0 is exactly the
listed configuration, and for ``sweep-shipped`` that is the shipped
``default.cfg``.

Every CLI run is checked: exit status, the invariants of its CSV, and at
seed 0 agreement with the reference outputs in ``reference/``, recorded
from the unmodified library, within ``REL_TOL``.
"""

import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Relative tolerance of the seed-0 reference comparison.  Reordered
# floating-point sums change the last bits only (~1e-15); a different
# Mittag-Leffler route agrees to ~1e-12.  1e-8 of the largest magnitude
# in a row leaves room for both and still catches any modelling change.
REL_TOL = 1e-8

# Rows of a simulate trajectory kept in the reference: 17 evenly spaced.
REFERENCE_ROWS = 16

_TEMPLATE = """\
[model]
alpha = {alpha}
horizon = 1.0
truncation = {truncation}
eigenvalues = default
u0 = {u0}
v0 = zero
state_delays = scaled_sine(1)
state_multipliers = laplacian
control_delays = scaled_sine(1), identity
control_multipliers = zero, identity
nonlocal_terms = 0.1:0.25, 0.05:0.5
nonlinearity = bounded_tanh(0.1)

[solver]
n_steps = {n_steps}
picard_tol = 1e-10
picard_max_iters = 200

[control]
target = {target}
betas = 0.1, 0.01, 0.001, 0.0001
outer_tol = 1e-8
outer_max_iters = 100

[output]
dir = out
x_points = 0.78539816339744828, 1.5707963267948966, 2.3561944901923448
"""

_U0 = (1.0, 0.35)
_TARGET = (1.5707963267948966, 0.4)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    csv: str
    alpha: str
    truncation: int
    n_steps: int

    def config_text(self, seed: int) -> str:
        u0, target = _bumps(seed)
        return _TEMPLATE.format(alpha=self.alpha, truncation=self.truncation,
                                n_steps=self.n_steps, u0=u0, target=target)


WORKLOADS = {w.name: w for w in (
    Workload("sweep-shipped", "sweep", "sweep.csv", "0.5", 32, 128),
    Workload("simulate-fine-fractional", "simulate", "simulate.csv", "0.5", 100, 512),
    Workload("simulate-classical-long", "simulate", "simulate.csv", "1", 32, 4096),
    Workload("verify-kernels-shipped", "verify-kernels", "verify_kernels.csv", "0.5", 32, 128),
)}


def _bump(center: float, width: float) -> str:
    return f"gaussian_bump({center!r}, {width!r})"


def _bumps(seed: int):
    """(u0, target) descriptors; seed 0 gives the shipped ones verbatim.

    The moves are small (centers +-0.0075, widths +-0.0025) so that every
    seed does the same work: at +-0.15 the Picard iteration count of
    ``simulate-classical-long`` already flips between 9 and 10 with the
    seed, which is 11% of its run time.  Every seed's outputs still differ.
    """
    if seed == 0:
        return _bump(*_U0), _bump(*_TARGET)
    rng = random.Random(seed)

    def move(center, width):
        return (round(center + rng.uniform(-0.0075, 0.0075), 5),
                round(width + rng.uniform(-0.0025, 0.0025), 5))
    return _bump(*move(*_U0)), _bump(*move(*_TARGET))


def read_csv(path):
    """(meta dict, header list, rows of strings) of a fracsteer CSV."""
    meta, header, rows = {}, None, []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, value = line[1:].split("=", 1)
                meta[key.strip()] = value.strip()
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


def _close(got, ref) -> bool:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return False
    scale = np.max(np.abs(ref), axis=-1, keepdims=True)
    return bool(np.all(np.abs(got - ref) <= REL_TOL * scale))


def _load_reference(name):
    with open(os.path.join(REFERENCE_DIR, f"{name}.json")) as f:
        return json.load(f)


def summarize(workload: Workload, path: str) -> dict:
    """The part of an output CSV that the seed-0 reference records."""
    meta, header, rows = read_csv(path)
    if workload.command == "sweep":
        return {"uncontrolled_gap": float(meta["uncontrolled_gap"]),
                "rows": [[float(v) for v in r] for r in rows]}
    if workload.command == "simulate":
        step = max(1, (len(rows) - 1) // REFERENCE_ROWS)
        return {"header": header,
                "rows": [[float(v) for v in r] for r in rows[::step]]}
    return {"checks": [[r[0], float(r[2])] for r in rows]}


def check_output(workload: Workload, seed: int, config, path: str) -> list:
    """Problems found in one run's CSV (empty when the run is correct).

    ``config`` is the parsed ExperimentConfig of the run.
    """
    if not os.path.exists(path):
        return [f"{os.path.basename(path)} was not written"]
    meta, header, rows = read_csv(path)
    problems = []
    if meta.get("config_sha256") != config.digest():
        problems.append("config digest in the CSV header does not match")
    if workload.command == "sweep":
        problems += _check_sweep(config, meta, rows)
    elif workload.command == "simulate":
        problems += _check_simulate(config, header, rows)
    else:
        bad = [r[0] for r in rows if r[3] != "pass"]
        if not rows or bad:
            problems.append(f"verify-kernels rows not passing: {bad or 'none written'}")
    if seed == 0 and not problems:
        problems += _check_reference(workload, path)
    return problems


def _check_sweep(config, meta, rows):
    betas = [float(r[0]) for r in rows]
    residuals = [float(r[1]) for r in rows]
    gap = float(meta.get("uncontrolled_gap", "nan"))
    problems = []
    if betas != list(config.betas):
        problems.append(f"sweep betas {betas} != config betas {list(config.betas)}")
    if any(r[3] != "1" for r in rows):
        problems.append("a beta did not converge")
    if not all(b < a for a, b in zip(residuals, residuals[1:])):
        problems.append(f"residuals do not strictly decrease: {residuals}")
    if not (residuals and residuals[-1] < 0.01 * gap):
        problems.append(f"last residual is not below 1% of the uncontrolled gap {gap}")
    return problems


def _check_simulate(config, header, rows):
    n, modes = config.solver.n_steps, config.model.truncation
    width = 1 + modes + len(config.x_points)
    if len(rows) != n + 1 or len(header) != width:
        return [f"trajectory is {len(rows)} x {len(header)}, expected {n + 1} x {width}"]
    data = np.array(rows, dtype=float)
    problems = []
    if not np.all(np.isfinite(data)):
        problems.append("trajectory has non-finite entries")
    dt = config.model.horizon / n
    if not np.allclose(data[:, 0], dt * np.arange(n + 1), rtol=1e-12, atol=0.0):
        problems.append("time column is not the uniform grid")
    # the x_* columns are the sine series of the mode columns
    basis = math.sqrt(2.0 / math.pi) * np.sin(
        np.outer(np.arange(1, modes + 1), config.x_points))
    physical = data[:, 1:1 + modes] @ basis
    scale = np.max(np.abs(data[:, 1:1 + modes]))
    if not np.allclose(data[:, 1 + modes:], physical, rtol=0.0, atol=1e-12 * modes * scale):
        problems.append("x columns are not the sine series of the mode columns")
    return problems


def _check_reference(workload, path):
    ref = _load_reference(workload.name)
    got = summarize(workload, path)
    if workload.command == "sweep":
        ok = (math.isclose(got["uncontrolled_gap"], ref["uncontrolled_gap"],
                           rel_tol=REL_TOL)
              and _close(got["rows"], ref["rows"]))
    elif workload.command == "simulate":
        ok = got["header"] == ref["header"] and _close(got["rows"], ref["rows"])
    else:
        ok = got["checks"] == ref["checks"]
    return [] if ok else [f"seed-0 output differs from reference/{workload.name}.json"]
