"""Experiment runner CLI.

Subcommands: ``simulate`` (uncontrolled trajectory), ``synthesize``
(closed-loop control for one beta), ``sweep`` (residual decay over a
beta sequence), ``verify-kernels`` (numerical property suite of the
quadrature and special-function layers).  All outputs are deterministic
CSV files with a ``#`` metadata header; exit status is 0 only if every
requested run converged / every verification passed.
"""

import argparse
import os
import sys
from importlib import resources

import numpy as np

from . import config as configmod
from .control import beta_sweep, closed_loop_solve, synthesize_control
from .errors import (ConfigError, DomainError, ModelValidationError,
                     PicardDivergenceError)
from .solver import picard_solve
from .spectral import synthesize_physical

_ENV_OUT = "FRACSTEER_OUT"


def _fmt(x) -> str:
    if type(x) is float:
        return f"{x:.17g}"
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _write_csv(path, meta, header, rows, trailer=()):
    with open(path, "w", newline="\n") as f:
        for k, v in meta:
            f.write(f"# {k} = {v}\n")
        if header:
            f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")
        for k, v in trailer:
            f.write(f"# {k} = {v}\n")


def _load_config(args, parser) -> configmod.ExperimentConfig:
    """Parse the config with the command-line overrides merged in, so they
    meet the same checks and enter the digest; errors exit with status 2."""
    if args.config:
        try:
            with open(args.config) as f:
                text = f.read()
        except OSError as exc:
            parser.error(f"cannot read config file {args.config!r}: {exc.strerror}")
        except UnicodeDecodeError as exc:
            parser.error(f"cannot read config file {args.config!r}: {exc.reason}")
    else:
        text = (resources.files("fracsteer") / "data" / "default.cfg").read_text()
    overrides = {}
    if args.steps is not None:
        overrides[("solver", "n_steps")] = str(args.steps)
    if args.beta is not None:
        overrides[("control", "betas")] = args.beta
    try:
        return configmod.parse_config(text, overrides)
    except ConfigError as exc:
        parser.error(f"{args.config}: {exc}" if args.config else str(exc))


def _out_dir(cfg, args) -> str:
    d = args.out or os.environ.get(_ENV_OUT) or cfg.output_dir
    os.makedirs(d, exist_ok=True)
    return d


def _meta(cfg) -> list:
    return [("config_sha256", cfg.digest()),
            ("alpha", _fmt(cfg.model.alpha)),
            ("truncation", cfg.model.truncation),
            ("n_steps", cfg.solver.n_steps)]


def run_simulate(cfg, path) -> int:
    traj = picard_solve(cfg.model, cfg.solver)
    header = (["t"] + [f"mode_{i}" for i in range(1, traj.truncation + 1)]
              + [f"x_{_fmt(x)}" for x in cfg.x_points])
    # Python floats, so each value formats directly
    rows = []
    for k, t in enumerate(traj.grid().tolist()):
        phys = (synthesize_physical(traj.states[k], cfg.x_points).tolist()
                if cfg.x_points else [])
        rows.append([t, *traj.states[k].tolist(), *phys])
    _write_csv(path, _meta(cfg), header, rows)
    return 0


def run_synthesize(cfg, path) -> int:
    cp = cfg.problem  # at the first beta
    traj, residual = closed_loop_solve(cp, cfg.solver)
    u = synthesize_control(cp, traj)
    header = ["t"] + [f"mode_{i}" for i in range(1, traj.truncation + 1)]
    rows = [[t, *u[k]] for k, t in enumerate(traj.grid())]
    _write_csv(path, _meta(cfg) + [("beta", _fmt(cp.beta))], header, rows,
               trailer=[("terminal_residual", _fmt(residual))])
    return 0


def run_sweep(cfg, path) -> int:
    # only the uncontrolled solve's divergence escapes; each beta flags its own
    report = beta_sweep(cfg.problem, cfg.betas, cfg.solver)
    rows = list(zip(report.betas, report.residuals,
                    report.control_energies, report.converged))
    _write_csv(path, _meta(cfg) + [("uncontrolled_gap", _fmt(report.uncontrolled_gap))],
               ["beta", "residual", "control_energy", "converged"], rows)
    return 0 if all(report.converged) else 1


def run_verify_kernels(cfg, path) -> int:
    from .verify import kernel_checks  # the oracles load for this command only
    rows = kernel_checks()
    table = [(name, err, thr, "pass" if err <= thr else "fail")
             for name, err, thr in rows]
    _write_csv(path, _meta(cfg), ["check", "measured_error", "threshold", "status"],
               table)
    failures = [r for r in table if r[3] == "fail"]
    for name, err, thr, _ in failures:
        print(f"verify-kernels: {name} error {err:.3e} > {thr:.3e}",
              file=sys.stderr)
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracsteer",
        description="Fractional multi-delay evolution systems: simulation "
                    "and regularized steering")
    parser.add_argument("--config", help="configuration file (default: built-in)")
    parser.add_argument("--out", help="output directory (overrides config and env)")
    parser.add_argument("--steps", type=int, help="override solver n_steps")
    parser.add_argument("--beta", help="override beta list (comma-separated)")
    parser.add_argument("command", choices=["simulate", "synthesize", "sweep",
                                            "verify-kernels"])
    args = parser.parse_args(argv)

    cfg = _load_config(args, parser)
    # the one place that names each command's CSV; built per call, so a
    # runner rebound on the module (as perfbench's tracer does) is the one run
    runner, csv_name = {
        "simulate": (run_simulate, "simulate.csv"),
        "synthesize": (run_synthesize, "control.csv"),
        "sweep": (run_sweep, "sweep.csv"),
        "verify-kernels": (run_verify_kernels, "verify_kernels.csv"),
    }[args.command]
    path = os.path.join(_out_dir(cfg, args), csv_name)
    try:
        return runner(cfg, path)
    except (DomainError, ModelValidationError, PicardDivergenceError) as exc:
        # a run that stops after parsing leaves its CSV (metadata, any
        # iteration history, the error's name) and one line, not a traceback
        history = getattr(exc, "residual_history", ())
        _write_csv(path, _meta(cfg), ["iteration", "change"] if history else (),
                   enumerate(history),
                   trailer=[("error", type(exc).__name__)])
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
