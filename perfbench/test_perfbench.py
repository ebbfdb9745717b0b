"""Tests of the benchmark itself: configs, output checks, trace aggregation.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import os
import subprocess
import sys
from importlib import resources

import pytest

from fracsteer.config import parse_config
from layers import COUNTS, aggregate
from workloads import WORKLOADS, check_output

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _sections(cfg):
    return {(name, key): value for name, items in cfg.sections for key, value in items}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", range(6))
def test_generated_config_parses(name, seed):
    w = WORKLOADS[name]
    text = w.config_text(seed)
    assert text == w.config_text(seed)
    cfg = parse_config(text)
    assert cfg.model.alpha == float(w.alpha)
    assert cfg.model.truncation == w.truncation
    assert cfg.solver.n_steps == w.n_steps


def test_seed_zero_sweep_is_the_shipped_config():
    shipped = (resources.files("fracsteer") / "data" / "default.cfg").read_text()
    ours = parse_config(WORKLOADS["sweep-shipped"].config_text(0))
    assert ours.digest() == parse_config(shipped).digest()


def test_seed_moves_only_the_bumps():
    w = WORKLOADS["simulate-fine-fractional"]
    base, moved = _sections(parse_config(w.config_text(0))), _sections(parse_config(w.config_text(7)))
    changed = {k for k in base if base[k] != moved[k]}
    assert changed == {("model", "u0"), ("control", "target")}


def _sweep_csv(path, cfg, residuals, converged="1"):
    lines = [f"# config_sha256 = {cfg.digest()}", "# uncontrolled_gap = 0.64",
             "beta,residual,control_energy,converged"]
    lines += [f"{b!r},{r!r},0.5,{converged}" for b, r in zip(cfg.betas, residuals)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_sweep_check_rejects_bad_outputs(tmp_path):
    w = WORKLOADS["sweep-shipped"]
    cfg = parse_config(w.config_text(3))
    good = [0.3, 0.1, 0.01, 0.001]
    assert check_output(w, 3, cfg, _sweep_csv(tmp_path / "a.csv", cfg, good)) == []
    assert check_output(w, 3, cfg, _sweep_csv(tmp_path / "b.csv", cfg, [0.3, 0.3, 0.01, 0.001]))
    assert check_output(w, 3, cfg, _sweep_csv(tmp_path / "c.csv", cfg, [0.3, 0.1, 0.05, 0.01]))
    assert check_output(w, 3, cfg, _sweep_csv(tmp_path / "d.csv", cfg, good, converged="0"))
    # seed 0 is also held to the recorded reference values
    assert check_output(w, 0, parse_config(w.config_text(0)),
                        _sweep_csv(tmp_path / "e.csv", parse_config(w.config_text(0)), good))
    assert check_output(w, 3, cfg, str(tmp_path / "missing.csv"))


def test_aggregate_counts_iterations_rounds_and_self_time():
    # name, parent, start, end
    spans = [
        ["config.parse_config", -1, 1.0, 1.1],
        ["cli.run_sweep", -1, 1.1, 9.9],
        ["control.closed_loop_solve", 1, 1.2, 9.2],
        ["solver.picard_solve", 2, 1.2, 3.2],
        ["solver.build_grid_operators", 3, 1.2, 2.2],
        ["backend.memory_convolve", 3, 2.3, 2.5],
        ["backend.memory_convolve", 3, 2.5, 2.7],
        ["control.synthesize_control", 2, 3.2, 5.2],
        ["solver.picard_solve", 2, 5.2, 9.2],
        ["solver.build_grid_operators", 8, 5.2, 6.2],
        ["backend.memory_convolve", 8, 6.3, 6.5],
    ]
    record = {"import": [0.0, 1.0], "spans": spans,
              "counts": {"special.ml": 5, "gammafn.log_gamma": 50},
              "ml_integral_cache": {"hits": 2, "misses": 3}}
    m = aggregate(record, wall=10.0)
    assert m["solver.picard_iterations"] == 3
    assert m["solver.picard_iteration_s"] == pytest.approx((1.0 + 3.0) / 3)
    assert m["control.outer_rounds"] == 1
    assert m["control.outer_round_s"] == pytest.approx(6.0)
    assert m["solver.build_grid_operators_calls"] == 2
    assert m["cli.output_s"] == pytest.approx(8.8 - 8.0)
    assert m["trace.coverage"] == pytest.approx((1.0 + 0.1 + 8.8) / 10.0)
    assert m["special.ml_integral_cache_misses"] == 3


TINY = """
[model]
alpha = 0.6
truncation = 2
eigenvalues = 1, 4
u0 = single_mode(1, 1.0)
control_delays = identity
control_multipliers = identity

[solver]
n_steps = 16

[control]
target = single_mode(2, 0.5)
betas = 0.1, 0.001
"""


def _traced(tmp_path, tag):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    trace = tmp_path / f"{tag}.json"
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, os.path.join(HERE, "traced_cli.py"), str(trace),
                    "--config", str(cfg), "--out", str(tmp_path / tag), "sweep"],
                   env=env, check=True, timeout=120)
    return json.loads(trace.read_text())


def test_traced_counts_repeat_exactly(tmp_path):
    first, second = _traced(tmp_path, "a"), _traced(tmp_path, "b")
    m1, m2 = aggregate(first, wall=1.0), aggregate(second, wall=1.0)
    assert {k: m1[k] for k in COUNTS} == {k: m2[k] for k in COUNTS}
    # build_grid_operators is wrapped where control imported it too
    parents = {first["spans"][p][0] for name, p, _, _ in first["spans"]
               if name == "solver.build_grid_operators"}
    assert {"solver.picard_solve", "control.compute_grammian",
            "control.residual_p"} <= parents
    assert m1["solver.picard_iterations"] > m1["solver.picard_solve_calls"] > 0
    assert m1["control.outer_rounds"] > 0 and m1["special.ml_calls"] > 0
