"""Command-line runner: exit codes, CSV artifacts, determinism."""

import math
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

import fracsteer
from fracsteer.cli import main
from fracsteer.config import parse_config

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
        assert meta["error"] == "picard-divergence"
        assert header == ["iteration", "picard_change"]
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
