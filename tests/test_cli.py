"""Command-line runner: exit codes, CSV artifacts, determinism."""

import math
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

import fracsteer
from fracsteer import cli, config, verify
from fracsteer.cli import main
from fracsteer.errors import (DomainError, ModelValidationError,
                              PicardDivergenceError)
from fracsteer.config import parse_config
from fracsteer.special import gauss_legendre

SRC = os.path.dirname(os.path.dirname(fracsteer.__file__))

SMALL = """
[model]
alpha = 0.6
truncation = 2
eigenvalues = 1, 4
u0 = single_mode(1, 1.0)
control_delays = identity
control_multipliers = identity

[solver]
n_steps = 32

[control]
target = single_mode(2, 0.5)
betas = 0.1, 0.001

[output]
dir = out
x_points = 1.5707963267948966
"""

TABLE = """
[model]
alpha = 1.0
truncation = 1
eigenvalues = 1
u0 = zero
control_delays = identity
control_multipliers = identity

[solver]
n_steps = 2048

[control]
target = single_mode(1, 1.0)
betas = 0.1, 0.01, 0.001, 0.0001
"""

DIVERGENT = """
[model]
alpha = 0.5
truncation = 1
eigenvalues = 1
u0 = single_mode(1, 1.0)
state_delays = identity
state_multipliers = identity
nonlinearity = linear_feedback(50.0)

[solver]
n_steps = 32
picard_max_iters = 40
"""


def _cfg_file(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


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
                rows.append(line.split(","))
    return meta, header, rows


class TestSimulate:
    def test_writes_trajectory(self, tmp_path):
        cfg = _cfg_file(tmp_path, SMALL)
        out = str(tmp_path / "o")
        assert main(["--config", cfg, "--out", out, "simulate"]) == 0
        meta, header, rows = _read_csv(os.path.join(out, "simulate.csv"))
        assert meta["n_steps"] == "32"
        assert header == ["t", "mode_1", "mode_2", "x_1.5707963267948966"]
        assert len(rows) == 33
        assert float(rows[0][1]) == 1.0  # initial coefficient
        # physical column is sqrt(2/pi) sin(x) * mode_1 at x = pi/2
        assert float(rows[0][3]) == pytest.approx(math.sqrt(2.0 / math.pi))

    def test_zero_data_gives_zero_columns(self, tmp_path):
        cfg = _cfg_file(tmp_path, SMALL.replace("u0 = single_mode(1, 1.0)",
                                                "u0 = zero"))
        out = str(tmp_path / "o")
        assert main(["--config", cfg, "--out", out, "simulate"]) == 0
        _, _, rows = _read_csv(os.path.join(out, "simulate.csv"))
        vals = np.array([[float(v) for v in r[1:]] for r in rows])
        assert np.all(vals == 0.0)

    def test_divergence_exit_code_and_diagnostic(self, tmp_path, capsys):
        cfg = _cfg_file(tmp_path, DIVERGENT)
        out = str(tmp_path / "o")
        assert main(["--config", cfg, "--out", out, "simulate"]) == 1
        meta, header, rows = _read_csv(os.path.join(out, "simulate.csv"))
        assert meta["error"] == "PicardDivergenceError"
        assert header == ["iteration", "change"]
        assert len(rows) == 40
        assert "simulate" in capsys.readouterr().err


class TestSynthesize:
    def test_writes_control(self, tmp_path):
        cfg = _cfg_file(tmp_path, SMALL)
        out = str(tmp_path / "o")
        assert main(["--config", cfg, "--out", out, "synthesize"]) == 0
        meta, header, rows = _read_csv(os.path.join(out, "control.csv"))
        assert float(meta["beta"]) == 0.1
        assert "terminal_residual" in meta
        assert len(rows) == 33


class TestSweep:
    def test_residual_columns(self, tmp_path):
        cfg = _cfg_file(tmp_path, SMALL)
        out = str(tmp_path / "o")
        assert main(["--config", cfg, "--out", out, "sweep"]) == 0
        meta, header, rows = _read_csv(os.path.join(out, "sweep.csv"))
        assert header == ["beta", "residual", "control_energy", "converged"]
        assert float(meta["uncontrolled_gap"]) > 0.0
        res = [float(r[1]) for r in rows]
        assert res[1] < res[0] < float(meta["uncontrolled_gap"])
        assert all(r[3] == "1" for r in rows)

    def test_free_solve_divergence_exit_code_and_diagnostic(self, tmp_path, capsys):
        # the uncontrolled solve runs before the per-beta loop; its
        # divergence is reported as simulate reports it
        cfg = _cfg_file(tmp_path, DIVERGENT)
        out = str(tmp_path / "o")
        assert main(["--config", cfg, "--out", out, "sweep"]) == 1
        meta, header, rows = _read_csv(os.path.join(out, "sweep.csv"))
        assert meta["error"] == "PicardDivergenceError"
        assert header == ["iteration", "change"]
        assert len(rows) == 40
        err = capsys.readouterr().err
        assert err.startswith("sweep: ") and err.count("\n") == 1

    def test_byte_identical_reruns(self, tmp_path):
        cfg = _cfg_file(tmp_path, SMALL)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["--config", cfg, "--out", out1, "sweep"]) == 0
        assert main(["--config", cfg, "--out", out2, "sweep"]) == 0
        b1 = open(os.path.join(out1, "sweep.csv"), "rb").read()
        b2 = open(os.path.join(out2, "sweep.csv"), "rb").read()
        assert b1 == b2

    def test_classical_residual_table(self, tmp_path):
        # single classical mode: residual(beta) = beta/(beta + gamma) with
        # gamma = (1 - e^{-2})/2, to six significant digits
        cfg = _cfg_file(tmp_path, TABLE)
        out = str(tmp_path / "o")
        assert main(["--config", cfg, "--out", out, "sweep"]) == 0
        _, _, rows = _read_csv(os.path.join(out, "sweep.csv"))
        g = 0.5 * (1.0 - math.exp(-2.0))
        for row in rows:
            beta, res = float(row[0]), float(row[1])
            assert f"{res:.6g}" == f"{beta / (beta + g):.6g}"

    def test_classical_shipped_model_on_a_coarse_grid(self, tmp_path):
        # alpha = 1 with lambda_max * dt = 1024 / 16 = 64, far past the
        # series range of the first-lag weights E_{1,2} and E_{1,3}
        text = (resources.files("fracsteer") / "data" / "default.cfg").read_text()
        cfg = _cfg_file(tmp_path, text.replace("alpha = 0.5", "alpha = 1.0"))
        out = str(tmp_path / "o")
        for command in ("simulate", "sweep"):
            assert main(["--config", cfg, "--out", out, "--steps", "16",
                         command]) == 0
        _, _, rows = _read_csv(os.path.join(out, "sweep.csv"))
        assert all(r[3] == "1" for r in rows)

    def test_beta_override(self, tmp_path):
        cfg = _cfg_file(tmp_path, SMALL)
        out = str(tmp_path / "o")
        assert main(["--config", cfg, "--out", out,
                     "--beta", "0.5,0.05", "sweep"]) == 0
        _, _, rows = _read_csv(os.path.join(out, "sweep.csv"))
        assert [float(r[0]) for r in rows] == [0.5, 0.05]


class TestVerifyKernels:
    def test_all_checks_pass(self, tmp_path):
        out = str(tmp_path / "o")
        cfg = _cfg_file(tmp_path, SMALL)
        assert main(["--config", cfg, "--out", out, "verify-kernels"]) == 0
        _, header, rows = _read_csv(os.path.join(out, "verify_kernels.csv"))
        assert header == ["check", "measured_error", "threshold", "status"]
        assert rows and all(r[3] == "pass" for r in rows)


class TestOutputSelection:
    def test_steps_override_in_metadata(self, tmp_path):
        cfg = _cfg_file(tmp_path, SMALL)
        out = str(tmp_path / "o")
        assert main(["--config", cfg, "--out", out,
                     "--steps", "64", "simulate"]) == 0
        meta, _, rows = _read_csv(os.path.join(out, "simulate.csv"))
        assert meta["n_steps"] == "64"
        assert len(rows) == 65

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        cfg = _cfg_file(tmp_path, SMALL)
        env_dir = str(tmp_path / "envout")
        monkeypatch.setenv("FRACSTEER_OUT", env_dir)
        assert main(["--config", cfg, "simulate"]) == 0
        assert os.path.exists(os.path.join(env_dir, "simulate.csv"))
        # an explicit --out flag wins over the environment
        flag_dir = str(tmp_path / "flagout")
        assert main(["--config", cfg, "--out", flag_dir, "simulate"]) == 0
        assert os.path.exists(os.path.join(flag_dir, "simulate.csv"))


def _run_cli(*args):
    """The CLI in a fresh interpreter: (exit status, stdout + stderr)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-m", "fracsteer.cli", *args],
                          env=env, capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout + done.stderr


class TestUsageErrors:
    @pytest.mark.parametrize("flag, value, key", [
        ("--steps", "4", "n_steps"),
        ("--beta", "0.01,0.1", "betas"),
        ("--beta", "0.1,abc", "betas"),
        ("--beta", "inf,0.1", "betas"),
    ])
    def test_bad_override_exits_2(self, tmp_path, flag, value, key):
        status, output = _run_cli("--out", str(tmp_path), flag, value, "simulate")
        assert status == 2
        assert key in output
        assert "Traceback" not in output

    def test_bad_config_exits_2(self, tmp_path):
        cfg = _cfg_file(tmp_path, SMALL.replace("alpha = 0.6", "alpha = 2"))
        status, output = _run_cli("--config", cfg, "--out", str(tmp_path), "simulate")
        assert status == 2
        assert f"{cfg}: [model]: fractional order must lie in (0, 1], got 2.0" in output
        assert "Traceback" not in output

    @pytest.mark.parametrize("content", [None, b"\xff\xfe[model]\n"])
    def test_unreadable_config_file_exits_2(self, tmp_path, content):
        path = tmp_path / "exp.cfg"
        if content is not None:
            path.write_bytes(content)
        status, output = _run_cli("--config", str(path), "simulate")
        assert status == 2
        assert str(path) in output
        assert "Traceback" not in output

    def test_override_enters_digest(self, tmp_path):
        shipped = (resources.files("fracsteer") / "data" / "default.cfg").read_text()
        assert "n_steps = 128\n" in shipped
        expect = parse_config(shipped.replace("n_steps = 128\n", "n_steps = 16\n"))
        status, output = _run_cli("--out", str(tmp_path), "--steps", "16", "simulate")
        assert status == 0, output
        meta, _, rows = _read_csv(os.path.join(tmp_path, "simulate.csv"))
        assert meta["config_sha256"] == expect.digest()
        assert meta["config_sha256"] != parse_config(shipped).digest()
        assert len(rows) == 17


TINY_ALPHA = """
[model]
alpha = 0.0009
truncation = 1
u0 = single_mode(1, 1.0)
state_delays = scaled_sine(1)
nonlinearity = bounded_tanh(0.1)

[solver]
n_steps = 8
"""


class TestAcceptedConfigs:
    def test_tiny_alpha_runs(self, tmp_path):
        # the memory weights need E_{a,a+1} and E_{a,a+2}, whose reduction
        # to beta < 1 + a takes about 1/a steps, more than the interpreter's
        # recursion limit allows
        cfg = _cfg_file(tmp_path, TINY_ALPHA)
        assert main(["--config", cfg, "--out", str(tmp_path), "simulate"]) == 0
        _, _, rows = _read_csv(os.path.join(tmp_path, "simulate.csv"))
        assert len(rows) == 9
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    @pytest.mark.parametrize("old, new, key", [
        ("alpha = 0.5", "alpha = 1e-300", "alpha"),
        ("gaussian_bump(1.0, 0.35)", "single_mode(1.5, 1.0)", "u0"),
        ("bounded_tanh(0.1)", "bounded_tanh(1e308)", "nonlinearity"),
        # a parameterless kind with a parameter ran without it
        ("scaled_sine(1), identity", "scaled_sine(1), identity(3)", "control_delays"),
        ("bounded_tanh(0.1)", "zero(2)", "nonlinearity"),
        # (H5) fails only for t below about 7.7e-4: sin(t/tau) > t there
        ("state_delays = scaled_sine(1)", "state_delays = scaled_sine(0.9999999)",
         "state_delays"),
    ])
    def test_config_that_cannot_run_exits_2(self, tmp_path, capsys, old, new, key):
        shipped = (resources.files("fracsteer") / "data" / "default.cfg").read_text()
        assert old in shipped
        cfg = _cfg_file(tmp_path, shipped.replace(old, new, 1))
        with pytest.raises(SystemExit) as e:
            main(["--config", cfg, "--out", str(tmp_path), "--steps", "16", "simulate"])
        assert e.value.code == 2
        assert f"[model] {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "synthesize"])
    def test_last_node_past_the_horizon(self, tmp_path, capsys, command):
        # (0.9 / 14) * 14 rounds up past 0.9: the law's lead times are
        # clamped to the horizon, so T_alpha never sees a negative time
        assert (0.9 / 14) * 14 > 0.9
        shipped = (resources.files("fracsteer") / "data" / "default.cfg").read_text()
        cfg = _cfg_file(tmp_path, shipped.replace("horizon = 1.0", "horizon = 0.9"))
        assert main(["--config", cfg, "--out", str(tmp_path), "--steps", "14",
                     command]) == 0
        assert capsys.readouterr().err == ""

    def test_live_channel_first_reproduces_the_shipped_sweep(self, tmp_path):
        # one control through every delay: swapping the channels, with
        # their multipliers, leaves the sweep as it was
        shipped = (resources.files("fracsteer") / "data" / "default.cfg").read_text()
        flipped = shipped.replace(
            "control_delays = scaled_sine(1), identity\ncontrol_multipliers = zero, identity",
            "control_delays = identity, scaled_sine(1)\ncontrol_multipliers = identity, zero")
        assert flipped != shipped
        tables = []
        for name, text in (("shipped", shipped), ("flipped", flipped)):
            out = str(tmp_path / name)
            assert main(["--config", _cfg_file(tmp_path, text, name + ".cfg"),
                         "--out", out, "--steps", "16", "sweep"]) == 0
            meta, _, rows = _read_csv(os.path.join(out, "sweep.csv"))
            tables.append((meta["uncontrolled_gap"], rows))
        assert tables[0] == tables[1]


class TestRunErrors:
    # every way a run stops after parsing writes one record: the metadata,
    # any iteration history, the error's name, and one line on stderr
    @pytest.mark.parametrize("command, target, csv_name", [
        ("simulate", "picard_solve", "simulate.csv"),
        ("sweep", "beta_sweep", "sweep.csv"),
        ("synthesize", "closed_loop_solve", "control.csv"),
    ])
    @pytest.mark.parametrize("error", [DomainError, ModelValidationError,
                                       PicardDivergenceError])
    def test_failure_after_parsing_exits_1_with_a_trailer(
            self, tmp_path, capsys, monkeypatch, command, target, csv_name, error):
        history = [0.5, 0.25] if error is PicardDivergenceError else []

        def fail(*args, **kwargs):
            if history:
                raise error("factor out of range", residual_history=history)
            raise error("factor out of range")

        monkeypatch.setattr(cli, target, fail)
        out = str(tmp_path / "o")
        assert main(["--out", out, command]) == 1
        meta, header, rows = _read_csv(os.path.join(out, csv_name))
        assert list(meta) == ["config_sha256", "alpha", "truncation", "n_steps",
                              "error"]
        assert meta["error"] == error.__name__
        if history:
            assert header == ["iteration", "change"]
            assert rows == [["0", "0.5"], ["1", "0.25"]]
        else:
            assert header is None and rows == []
        err = capsys.readouterr().err
        assert err == f"{command}: factor out of range\n"

    @pytest.mark.parametrize("command, module, target", [
        ("simulate", cli, "picard_solve"),
        ("synthesize", cli, "closed_loop_solve"),
        ("sweep", cli, "beta_sweep"),
        ("verify-kernels", verify, "kernel_checks"),
    ])
    def test_success_and_failure_write_the_same_file(
            self, tmp_path, monkeypatch, command, module, target):
        monkeypatch.setattr(verify, "kernel_checks", lambda: [("check", 0.0, 1.0)])
        cfg = _cfg_file(tmp_path, SMALL)
        ok, failed = str(tmp_path / "ok"), str(tmp_path / "failed")
        assert main(["--config", cfg, "--out", ok, command]) == 0

        def fail(*args, **kwargs):
            raise DomainError("factor out of range")

        monkeypatch.setattr(module, target, fail)
        assert main(["--config", cfg, "--out", failed, command]) == 1
        assert len(os.listdir(ok)) == 1
        assert os.listdir(failed) == os.listdir(ok)
        assert _read_csv(os.path.join(failed, *os.listdir(ok)))[0]["error"] == "DomainError"

    def test_closed_loop_out_of_rounds(self, tmp_path, capsys):
        text = (resources.files("fracsteer") / "data" / "default.cfg").read_text()
        assert "outer_max_iters = 100\n" in text
        cfg = _cfg_file(tmp_path, text.replace("outer_max_iters = 100\n",
                                               "outer_max_iters = 1\n"))
        out = str(tmp_path / "o")
        assert main(["--config", cfg, "--out", out, "--steps", "16",
                     "synthesize"]) == 1
        meta, header, rows = _read_csv(os.path.join(out, "control.csv"))
        assert meta["error"] == "PicardDivergenceError"
        assert "beta" not in meta
        assert header == ["iteration", "change"]
        assert len(rows) == 1 and rows[0][0] == "0" and float(rows[0][1]) > 0.0
        err = capsys.readouterr().err
        assert err.startswith("synthesize: ") and err.count("\n") == 1


class TestOverflowEndsInOneLine:
    # each config overflows or underflows a double on the way; the run ends
    # in its one error line, and numpy warns of nothing before it.  A stiff
    # model whose eigenfactor arguments stay finite runs, with nothing on
    # stderr, and so does a layout whose live channel is not the last
    SHIPPED = (resources.files("fracsteer") / "data" / "default.cfg").read_text()
    NODE = math.pi * float(gauss_legendre(config._GAUSS_NODES)[0][0])

    def _run(self, tmp_path, old, new, command):
        assert old in self.SHIPPED
        cfg = _cfg_file(tmp_path, self.SHIPPED.replace(old, new))
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "fracsteer.cli",
             "--config", cfg, "--out", str(tmp_path), "--steps", "16", command],
            env=env, capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("old, new, command, status, message", [
        # 2 w^2 underflows, and the bump is 0/0 on its centre node
        ("target = gaussian_bump(1.5707963267948966, 0.4)",
         f"target = gaussian_bump({NODE!r}, 1e-300)", "simulate", 2,
         "[control]: target coefficients must be finite"),
        # each state is finite, their sum is not
        ("u0 = gaussian_bump(1.0, 0.35)\nv0 = zero",
         "u0 = single_mode(1, 1e308)\nv0 = single_mode(1, 1e308)", "simulate", 2,
         "[model]: u0 + v0 overflows"),
        # bounded, but the first change of the iterate overflows its norm
        ("bounded_tanh(0.1)", "bounded_tanh(1e300)", "simulate", 1,
         "simulate: no contraction after 1 of 200 iterations (last change inf)"),
        # each coefficient is finite, the norm every residual measures is not
        ("target = gaussian_bump(1.5707963267948966, 0.4)",
         "target = single_mode(1, 1e308)", "sweep", 2,
         "[control]: the norm of target overflows"),
        # the steering multiplier squared underflows: gamma_n = 0 everywhere
        ("control_multipliers = zero, identity",
         "control_multipliers = zero, constant(1e-300)", "sweep", 1,
         "sweep: gamma_n <= 0 or not finite on 32 of 32 modes"),
        ("control_multipliers = zero, identity",
         "control_multipliers = zero, constant(1e-300)", "synthesize", 1,
         "synthesize: gamma_n <= 0 or not finite on 32 of 32 modes"),
        # ... or overflows: gamma_n is not finite
        ("control_multipliers = zero, identity",
         "control_multipliers = zero, constant(1e200)", "sweep", 1,
         "sweep: gamma_n <= 0 or not finite on 32 of 32 modes"),
        # the one control reaches the system through the first channel
        ("control_multipliers = zero, identity",
         "control_multipliers = identity, zero", "sweep", 0, None),
        ("control_multipliers = zero, identity",
         "control_multipliers = identity, zero", "synthesize", 0, None),
        # 2 w^2 overflows
        ("u0 = gaussian_bump(1.0, 0.35)", "u0 = gaussian_bump(1.0, 1e300)",
         "simulate", 2, "line 10: [model] u0: gaussian_bump width 1e+300 is too large"),
        # the stiffest argument reaches -4e6
        ("truncation = 32", "truncation = 2000", "simulate", 0, None),
        # and -1e300 * 2^0.5, then -1e308 * 2^0.5, both finite
        ("horizon = 1.0\ntruncation = 32\neigenvalues = default",
         "horizon = 2.0\ntruncation = 2\neigenvalues = 1, 1e300", "simulate", 0, None),
        ("horizon = 1.0\ntruncation = 32\neigenvalues = default",
         "horizon = 2.0\ntruncation = 2\neigenvalues = 1, 1e308", "simulate", 0, None),
        # -1e308 * 2 overflows
        ("alpha = 0.5\nhorizon = 1.0\ntruncation = 32\neigenvalues = default",
         "alpha = 1.0\nhorizon = 2.0\ntruncation = 2\neigenvalues = 1, 1e308",
         "simulate", 2, "line 9: [model] eigenvalues: the stiffest mode's "
         "Mittag-Leffler argument -lambda t^alpha overflows at t = 2.0"),
    ], ids=["underflowing-bump", "overflowing-start", "huge-tanh",
            "overflowing-target-norm", "underflowing-grammian-sweep",
            "underflowing-grammian-synthesize", "overflowing-grammian-sweep",
            "unsteered-channel-sweep", "unsteered-channel-synthesize",
            "overflowing-bump-width", "truncation-2000",
            "eigenvalue-1e300", "eigenvalue-1e308", "overflowing-eigenvalue"])
    def test_one_line_without_warnings(self, tmp_path, old, new, command, status,
                                       message):
        done = self._run(tmp_path, old, new, command)
        assert done.returncode == status, done.stderr
        if status == 0:
            assert done.stderr == ""
            return
        assert "Warning" not in done.stderr and "Traceback" not in done.stderr
        lines = done.stderr.splitlines()
        assert message in lines[-1]
        if status == 1:
            assert len(lines) == 1

    def test_huge_target_energies_stay_finite(self, tmp_path):
        # the control is about 1e154 / (beta + gamma_n): its squares overflow
        # a double, its energy does not
        done = self._run(tmp_path, "target = gaussian_bump(1.5707963267948966, 0.4)",
                         "target = single_mode(1, 1e154)", "sweep")
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        _, header, rows = _read_csv(os.path.join(tmp_path, "sweep.csv"))
        energies = [float(r[header.index("control_energy")]) for r in rows]
        assert len(energies) == 4
        assert all(math.isfinite(e) and e > 1e153 for e in energies)


class TestImports:
    def test_parsing_leaves_quadrature_unimported(self):
        code = ("import sys\n"
                "from importlib import resources\n"
                "import fracsteer.cli\n"
                "from fracsteer.config import parse_config\n"
                "parse_config((resources.files('fracsteer') / 'data'"
                " / 'default.cfg').read_text())\n"
                "print('scipy.integrate' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        assert done.stdout.strip() == "False"

    @pytest.mark.parametrize("command",
                             ["simulate", "synthesize", "sweep", "verify-kernels"])
    def test_shipped_config_runs_without_scipy(self, tmp_path, command):
        # at alpha = 0.5 the Mittag-Leffler band goes to the numpy contour
        # rule, and the density and its oracle integrals use fixed
        # Gauss-Legendre rules.  The oracle module itself loads for
        # verify-kernels only.
        cfg = str(resources.files("fracsteer") / "data" / "default.cfg")
        code = ("import sys\n"
                "import fracsteer.cli\n"
                f"fracsteer.cli.main(['--config', {cfg!r}, '--out',"
                f" {str(tmp_path)!r}, '--steps', '16', {command!r}])\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
                "print('fracsteer.verify' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        assert done.stdout.split("\n")[-3:-1] == [
            "[]", str(command == "verify-kernels")]

    @pytest.mark.parametrize("command", ["simulate", "synthesize", "sweep"])
    def test_band_config_runs_without_scipy(self, tmp_path, command):
        # past alpha = 0.999 the band below the expansion's reach goes to
        # the negative-axis integral, a Gauss-Legendre panel rule in numpy
        text = (resources.files("fracsteer") / "data" / "default.cfg").read_text()
        cfg = _cfg_file(tmp_path, text.replace("alpha = 0.5", "alpha = 0.9995"))
        code = ("import sys\n"
                "import fracsteer.cli\n"
                "from fracsteer import special\n"
                f"fracsteer.cli.main(['--config', {cfg!r}, '--out',"
                f" {str(tmp_path)!r}, '--steps', '16', {command!r}])\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
                "print(special._ml_integral_neg.cache_info().misses > 0)\n")
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        assert done.stdout.split("\n")[-3:-1] == ["[]", "True"]

    def test_simulate_leaves_scipy_fft_unimported(self, tmp_path):
        # the memory convolution runs on numpy.fft, which loads on first
        # use; scipy.fft would add tens of MB of resident memory.  At
        # alpha = 1 no quadrature runs (scipy.integrate itself pulls in
        # scipy.fft), and 128 steps reach past the 64-row direct blocks.
        text = (resources.files("fracsteer") / "data" / "default.cfg").read_text()
        cfg = _cfg_file(tmp_path, text.replace("alpha = 0.5", "alpha = 1"))
        code = ("import sys\n"
                "import fracsteer.cli\n"
                "print('numpy.fft' in sys.modules)\n"
                f"fracsteer.cli.main(['--config', {cfg!r}, '--out',"
                f" {str(tmp_path)!r}, '--steps', '128', 'simulate'])\n"
                "print('numpy.fft' in sys.modules,"
                " 'scipy.fft' in sys.modules, 'scipy.signal' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        assert done.stdout.split("\n")[:2] == ["False", "True False False"]
