"""Experiment runner CLI.

Subcommands: ``simulate`` (uncontrolled trajectory), ``synthesize``
(closed-loop control for one beta), ``sweep`` (residual decay over a
beta sequence), ``verify-kernels`` (numerical property suite of the
quadrature and special-function layers).  All outputs are deterministic
CSV files with a ``#`` metadata header; exit status is 0 only if every
requested run converged / every verification passed.
"""

import argparse
import math
import os
import sys
from importlib import resources

import numpy as np

from . import config as configmod
from .control import ControlProblem, beta_sweep, closed_loop_solve, synthesize_control
from .errors import ConfigError, OuterLoopDivergenceError, PicardDivergenceError
from .fractional import SampledFunction, convolution_kernel, frac_integral
from .gammafn import gamma
from .solver import picard_solve
from .spectral import synthesize_physical
from .special import (ml, s_alpha_route_quadrature, t_alpha_route_quadrature,
                      underflow_cutoff, wright_moment, wright_pdf)

_ENV_OUT = "FRACSTEER_OUT"


def _fmt(x) -> str:
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


def run_simulate(cfg, out_dir) -> int:
    try:
        traj = picard_solve(cfg.model, cfg.solver)
    except PicardDivergenceError as exc:
        _write_csv(os.path.join(out_dir, "simulate.csv"), _meta(cfg),
                   ["iteration", "picard_change"],
                   list(enumerate(exc.residual_history)),
                   trailer=[("error", "picard-divergence")])
        print(f"simulate: {exc}", file=sys.stderr)
        return 1
    header = (["t"] + [f"mode_{i}" for i in range(1, traj.truncation + 1)]
              + [f"x_{_fmt(x)}" for x in cfg.x_points])
    rows = []
    for k, t in enumerate(traj.grid()):
        phys = (synthesize_physical(traj.state_at(k), cfg.x_points)
                if cfg.x_points else [])
        rows.append([t, *traj.states[k], *phys])
    _write_csv(os.path.join(out_dir, "simulate.csv"), _meta(cfg), header, rows)
    return 0


def run_synthesize(cfg, out_dir) -> int:
    beta = cfg.betas[0]
    cp = ControlProblem(model=cfg.model, target=cfg.target, beta=beta,
                        outer_tol=cfg.outer_tol,
                        outer_max_iters=cfg.outer_max_iters)
    path = os.path.join(out_dir, "control.csv")
    try:
        traj, residual = closed_loop_solve(cp, cfg.solver)
    except (PicardDivergenceError, OuterLoopDivergenceError) as exc:
        _write_csv(path, _meta(cfg) + [("beta", _fmt(beta))],
                   ["iteration", "change"],
                   list(enumerate(exc.residual_history)),
                   trailer=[("error", type(exc).__name__)])
        print(f"synthesize: {exc}", file=sys.stderr)
        return 1
    mu = synthesize_control(cp, traj)[-1]
    header = ["t"] + [f"mode_{i}" for i in range(1, traj.truncation + 1)]
    rows = [[t, *mu[k]] for k, t in enumerate(traj.grid())]
    _write_csv(path, _meta(cfg) + [("beta", _fmt(beta))], header, rows,
               trailer=[("terminal_residual", _fmt(residual))])
    return 0


def run_sweep(cfg, out_dir) -> int:
    cp = ControlProblem(model=cfg.model, target=cfg.target, beta=cfg.betas[0],
                        outer_tol=cfg.outer_tol,
                        outer_max_iters=cfg.outer_max_iters)
    report = beta_sweep(cp, cfg.betas, cfg.solver)
    rows = list(zip(report.betas, report.residuals,
                    report.control_energies, report.converged))
    _write_csv(os.path.join(out_dir, "sweep.csv"),
               _meta(cfg) + [("uncontrolled_gap", _fmt(report.uncontrolled_gap))],
               ["beta", "residual", "control_energy", "converged"], rows)
    return 0 if all(report.converged) else 1


def _kernel_checks():
    """(name, measured_error, threshold) rows for the property suite."""
    from scipy.integrate import quad

    rows = []
    for a in (0.3, 0.5, 0.7, 0.9):
        cut = underflow_cutoff(a, 45.0)
        val, _ = quad(lambda th: wright_pdf(a, th), 0.0, cut,
                      epsabs=1e-9, epsrel=1e-9, limit=300)
        rows.append((f"density_normalization_alpha_{a}", abs(val - 1.0), 1e-6))

    thetas = np.linspace(0.05, 5.0, 50)
    closed = np.exp(-thetas ** 2 / 4.0) / math.sqrt(math.pi)
    got = np.array([wright_pdf(0.5, th) for th in thetas])
    rows.append(("density_half_order_closed_form",
                 float(np.max(np.abs(got - closed))), 1e-8))

    grid = np.linspace(0.01, 20.0, 500)
    worst = 0.0
    for a in (0.3, 0.5, 0.7, 0.9):
        vals = np.array([wright_pdf(a, th) for th in grid])
        worst = max(worst, float(max(0.0, -vals.min())))
    rows.append(("density_nonnegative", worst, 0.0))

    for nu in (0.5, 1.0, 2.0):
        cut = underflow_cutoff(0.7, 45.0)
        val, _ = quad(lambda th: th ** nu * wright_pdf(0.7, th), 0.0, cut,
                      epsabs=1e-9, epsrel=1e-9, limit=300)
        rows.append((f"density_moment_nu_{nu}",
                     abs(val - wright_moment(0.7, nu)), 1e-6))

    for a, x in ((0.5, 1.0), (0.7, 2.0)):
        rows.append((f"bridge_first_kind_alpha_{a}",
                     abs(s_alpha_route_quadrature(a, x) - ml(a, 1.0, -x)), 1e-7))
        rows.append((f"bridge_second_kind_alpha_{a}",
                     abs(t_alpha_route_quadrature(a, x) - ml(a, a, -x)), 1e-7))

    # singular weights exact on linear integrands
    worst = 0.0
    for a in (0.3, 0.5, 0.8, 1.0):
        n, dt = 64, 1.0 / 64
        s = dt * np.arange(n + 1)
        t = 1.0
        got = convolution_kernel(a, n, dt).row(n) @ (2.0 + 3.0 * s)
        exact = (2.0 * t ** a / a
                 + 3.0 * (t ** (a + 1.0) / a - t ** (a + 1.0) / (a + 1.0)))
        worst = max(worst, abs(got - exact) / abs(exact))
    rows.append(("singular_weights_linear_exactness", worst, 1e-12))

    f = SampledFunction(0.0, 1.0 / 128, np.ones(129))
    rows.append(("fractional_integral_constant",
                 abs(frac_integral(f, 0.5, 1.0) - 1.0 / gamma(1.5)), 1e-12))

    worst1 = worst2 = 0.0
    for a in (0.5, 0.75, 0.9):
        for x in (0.1, 1.0, 10.0, 100.0):
            worst1 = max(worst1, ml(a, 1.0, -x) - 1.0, -ml(a, 1.0, -x))
            worst2 = max(worst2, ml(a, a, -x) - 1.0 / gamma(a))
    rows.append(("ml_first_kind_bound", max(0.0, worst1), 0.0))
    rows.append(("ml_second_kind_bound", max(0.0, worst2), 0.0))
    return rows


def run_verify_kernels(cfg, out_dir) -> int:
    rows = _kernel_checks()
    table = [(name, err, thr, "pass" if err <= thr else "fail")
             for name, err, thr in rows]
    _write_csv(os.path.join(out_dir, "verify_kernels.csv"), _meta(cfg),
               ["check", "measured_error", "threshold", "status"], table)
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
    out_dir = _out_dir(cfg, args)
    runner = {"simulate": run_simulate, "synthesize": run_synthesize,
              "sweep": run_sweep, "verify-kernels": run_verify_kernels}
    return runner[args.command](cfg, out_dir)


if __name__ == "__main__":
    sys.exit(main())
