"""End-to-end acceptance criteria.

Each test checks one shipping criterion at its stated tolerance and
reports a single pass/fail line through the ``acceptance_report``
fixture (echoed in the terminal summary).
"""

import math
import os
import time
from importlib import resources

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from fracsteer import config as configmod
from fracsteer.cli import main as cli_main
from fracsteer.control import (ControlProblem, closed_loop_solve,
                               compute_grammian, residual_p)
from fracsteer.gammafn import gamma
from fracsteer.solver import SolverConfig, mild_residual, picard_solve
from fracsteer.special import ml, underflow_cutoff, wright_pdf
from fracsteer.spectral import DelayFn, ModelSpec, NonlinearityFn, SpectralState
from fracsteer.verify import route_quadrature


def _default_text():
    return (resources.files("fracsteer") / "data" / "default.cfg").read_text()


@pytest.fixture(scope="module")
def default_sweep(tmp_path_factory):
    """One CLI sweep of the shipped configuration, with its wall time."""
    out = str(tmp_path_factory.mktemp("sweep_a"))
    t0 = time.perf_counter()
    code = cli_main(["--out", out, "sweep"])
    elapsed = time.perf_counter() - t0
    return code, os.path.join(out, "sweep.csv"), elapsed


def _read_csv(path):
    meta, header, rows = {}, None, []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                k, v = line[1:].split("=", 1)
                meta[k.strip()] = v.strip()
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return meta, rows


def test_criterion_1_density_properties(acceptance_report):
    t0 = time.perf_counter()
    ok = True
    for a in (0.3, 0.5, 0.7, 0.9):
        cut = underflow_cutoff(a, 45.0)
        total, _ = quad(lambda th: wright_pdf(a, th), 0.0, cut,
                        epsabs=1e-9, epsrel=1e-9, limit=300)
        ok &= abs(total - 1.0) <= 1e-6
        thetas = np.linspace(cut / 2000.0, cut, 2000)
        ok &= all(wright_pdf(a, th) >= 0.0 for th in thetas)
    for th in np.linspace(0.05, 5.0, 50):
        exact = math.exp(-th * th / 4.0) / math.sqrt(math.pi)
        ok &= abs(wright_pdf(0.5, th) - exact) <= 1e-8
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    assert acceptance_report(1, "density normalization/positivity", ok)


def test_criterion_2_operator_family_bounds(acceptance_report):
    ok = True
    for a in (0.5, 0.75, 1.0):
        m = ModelSpec(truncation=32, alpha=a, horizon=1.0,
                      u0=SpectralState.zero(32), v0=SpectralState.zero(32))
        ok &= np.max(np.abs(m.s_alpha_factors(0.0) - 1.0)) <= 1e-12
        ok &= np.max(np.abs(m.t_alpha_factors(0.0) - 1.0 / gamma(a))) <= 1e-12
        for t in np.linspace(0.0, 1.0, 100):
            ok &= bool(np.all(np.abs(m.s_alpha_factors(t)) <= 1.0 + 1e-14))
            ok &= bool(np.all(np.abs(m.t_alpha_factors(t))
                              <= 1.0 / gamma(a) + 1e-14))
    assert acceptance_report(2, "uniform operator bounds", ok)


def test_criterion_3_density_route_bridge(acceptance_report):
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(20):
        a = rng.uniform(0.35, 0.95)
        lam = rng.uniform(0.1, 50.0)
        t = rng.uniform(0.05, 2.0)
        x = lam * t ** a
        ok &= abs(route_quadrature(a, x, 0) - ml(a, 1.0, -x)) <= 1e-7
        ok &= abs(route_quadrature(a, x, 1) - ml(a, a, -x)) <= 1e-7
    assert acceptance_report(3, "quadrature/series bridge", ok)


def test_criterion_4_relaxation_convergence(acceptance_report):
    t0 = time.perf_counter()
    a = 0.5
    # pure relaxation: the solver reproduces E_{a,1}(-t^a) u0
    m = ModelSpec(truncation=1, alpha=a, horizon=1.0,
                  u0=SpectralState(np.ones(1)), v0=SpectralState.zero(1),
                  eigenvalues=[1.0])
    tr = picard_solve(m, SolverConfig(n_steps=512))
    exact = np.array([ml(a, 1.0, -(tr.dt * k) ** a) for k in range(513)])
    relax_err = float(np.max(np.abs(tr.states[:, 0] - exact)))
    # grid order, measured where the memory quadrature actually carries
    # error: split the eigenvalue into a linear feedback term so the
    # fixed point is still E_{a,1}(-t^a) but reached through the kernel
    errs = []
    steps = (64, 128, 256, 512)
    for n in steps:
        ms = ModelSpec(truncation=1, alpha=a, horizon=1.0,
                       u0=SpectralState(np.ones(1)), v0=SpectralState.zero(1),
                       eigenvalues=[0.5],
                       state_delays=(DelayFn("identity"),),
                       state_multipliers=(np.ones(1),),
                       nonlinearity=NonlinearityFn("linear_feedback", -0.5))
        trs = picard_solve(ms, SolverConfig(n_steps=n))
        ex = np.array([ml(a, 1.0, -(trs.dt * k) ** a) for k in range(n + 1)])
        # the fixed point has a sqrt(t) layer at 0; measure past it
        errs.append(float(np.max(np.abs(trs.states[n // 8:, 0] - ex[n // 8:]))))
    slope = np.polyfit(np.log2(steps), np.log2(errs), 1)[0]
    elapsed = time.perf_counter() - t0
    ok = (relax_err <= 1e-4 and errs[-1] <= 1e-4 and -slope >= 1.0
          and elapsed < 30.0)
    assert acceptance_report(4, "relaxation accuracy and order", ok)


def test_criterion_5_classical_delay_oracle(acceptance_report):
    # alpha = 1 with one constant-lag state channel and a tanh term:
    # compare the fixed-point solver against a method-of-steps ODE solve
    lag, kappa = 0.25, 0.1
    lam = np.array([1.0, 4.0, 9.0, 16.0])
    u0 = np.array([1.0, 0.5, -0.3, 0.2])
    m = ModelSpec(truncation=4, alpha=1.0, horizon=1.0,
                  u0=SpectralState(u0), v0=SpectralState.zero(4),
                  state_delays=(DelayFn("constant_lag", lag),),
                  state_multipliers=(np.ones(4),),
                  nonlinearity=NonlinearityFn("bounded_tanh", kappa))
    n = 512
    tr = picard_solve(m, SolverConfig(n_steps=n))

    segments = []  # dense interpolants covering [0, j*lag]

    def history(t):
        if t <= 0.0:
            return u0
        for t1, sol in segments:
            if t <= t1 + 1e-12:
                return sol(t)
        return segments[-1][1](segments[-1][0])

    def rhs(t, u):
        return -lam * u + kappa * np.tanh(history(max(t - lag, 0.0)))

    start, u = 0.0, u0
    while start < 1.0 - 1e-12:
        stop = min(start + lag, 1.0)
        sol = solve_ivp(rhs, (start, stop), u, rtol=1e-10, atol=1e-12,
                        dense_output=True, max_step=lag / 8.0)
        segments.append((stop, sol.sol))
        u = sol.y[:, -1]
        start = stop

    grid = tr.grid()
    exact = np.array([history(t) if t > 0.0 else u0 for t in grid])
    err = float(np.max(np.abs(tr.states - exact)))
    ok = err <= 1e-4
    assert acceptance_report(5, "classical delay pipeline vs ODE oracle", ok)


def test_criterion_6_linear_residual_formula(acceptance_report):
    # single classical mode, identity steering: the closed-loop terminal
    # residual equals beta/(beta + gamma) * |p| with gamma = (1-e^{-2})/2
    m = ModelSpec(truncation=1, alpha=1.0, horizon=1.0,
                  u0=SpectralState.zero(1), v0=SpectralState.zero(1),
                  eigenvalues=[1.0],
                  control_delays=(DelayFn("identity"),),
                  control_multipliers=(np.ones(1),))
    n = 2048
    cfg = SolverConfig(n_steps=n)
    target = SpectralState(np.ones(1))
    gamma_exact = 0.5 * (1.0 - math.exp(-2.0))
    gram = compute_grammian(m, n)
    qtol = abs(gram[0] - gamma_exact) / gamma_exact
    # beta/(beta + gamma) to six significant digits, gamma = (1-e^{-2})/2
    table = {1e-1: "0.187853", 1e-2: "0.0226074",
             1e-3: "0.0023077", 1e-4: "0.00023125"}
    ok = True
    for beta, expect_6g in table.items():
        cp = ControlProblem(model=m, target=target, beta=beta)
        traj, res = closed_loop_solve(cp, cfg)
        p = residual_p(cp, picard_solve(m, cfg))
        exact = beta / (beta + gamma_exact) * abs(p.coeffs[0])
        ok &= abs(res - exact) <= 10.0 * qtol * exact + 1e-14
        ok &= f"{res:.6g}" == expect_6g == f"{exact:.6g}"
    assert acceptance_report(6, "regularized residual formula", ok)


def test_criterion_7_default_sweep(acceptance_report, default_sweep):
    code, path, elapsed = default_sweep
    meta, rows = _read_csv(path)
    gap = float(meta["uncontrolled_gap"])
    residuals = [r[1] for r in rows]
    ok = (code == 0
          and all(b < a for a, b in zip(residuals, residuals[1:]))
          and residuals[-1] < 0.01 * gap
          and all(r[3] == 1.0 for r in rows)
          and elapsed < 300.0)
    assert acceptance_report(7, "shipped-config residual decay", ok)


def test_criterion_8_mild_residual(acceptance_report):
    cfg = configmod.parse_config(_default_text())
    tol = cfg.solver.picard_tol
    free = picard_solve(cfg.model, cfg.solver)
    ok = mild_residual(cfg.model, free) <= 2.0 * tol
    cp = ControlProblem(model=cfg.model, target=cfg.target, beta=1e-2,
                        outer_tol=cfg.outer_tol,
                        outer_max_iters=cfg.outer_max_iters)
    traj, _ = closed_loop_solve(cp, cfg.solver)
    ok &= mild_residual(cfg.model, traj) <= 2.0 * tol
    assert acceptance_report(8, "mild-solution defect", ok)


def test_criterion_9_deterministic_output(acceptance_report, default_sweep,
                                          tmp_path):
    _, path, _ = default_sweep
    out2 = str(tmp_path / "sweep_b")
    code = cli_main(["--out", out2, "sweep"])
    first = open(path, "rb").read()
    second = open(os.path.join(out2, "sweep.csv"), "rb").read()
    ok = code == 0 and first == second
    assert acceptance_report(9, "byte-identical rerun", ok)
