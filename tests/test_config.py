"""Configuration text: parsing, validation diagnostics, canonical re-emit."""

import math
import pathlib
import re
from importlib import resources

import numpy as np
import pytest

from fracsteer import config
from fracsteer.config import parse_config, synthesize_shape
from fracsteer.errors import ConfigError
from fracsteer.solver import picard_solve
from fracsteer.special import gauss_legendre

MINIMAL = """
[model]
alpha = 0.5
truncation = 4
"""


def _default_text():
    return (resources.files("fracsteer") / "data" / "default.cfg").read_text()


class TestParsing:
    def test_minimal(self):
        cfg = parse_config(MINIMAL)
        assert cfg.model.alpha == 0.5
        assert cfg.model.truncation == 4
        assert cfg.model.horizon == 1.0
        assert np.allclose(cfg.model.eigenvalues, [1.0, 4.0, 9.0, 16.0])
        assert cfg.solver.n_steps == 128
        assert cfg.betas == (1e-1, 1e-2, 1e-3, 1e-4)
        assert cfg.output_dir == "out"

    def test_shipped_default(self):
        cfg = parse_config(_default_text())
        m = cfg.model
        assert m.alpha == 0.5
        assert m.truncation == 32
        assert len(m.state_delays) == 1
        assert len(m.control_delays) == 2
        assert m.nonlocal_terms == ((0.1, 0.25), (0.05, 0.5))
        assert m.nonlinearity.kind == "bounded_tanh"
        assert np.all(m.control_multipliers[0] == 0.0)
        assert np.all(m.control_multipliers[1] == 1.0)
        assert len(cfg.x_points) == 3

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# leading comment\n\n[model]\nalpha = 0.5 # tail\n"
                           "truncation = 2\n")
        assert cfg.model.alpha == 0.5


class TestDiagnostics:
    def test_unknown_section_with_line(self):
        with pytest.raises(ConfigError) as e:
            parse_config("[model]\nalpha = 0.5\ntruncation = 2\n\n[extras]\n")
        assert e.value.line == 5
        assert "extras" in str(e.value)

    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigError) as e:
            parse_config("[model]\nalpha = 0.5\ntruncation = 2\nomega = 3\n")
        assert e.value.line == 4
        assert "omega" in str(e.value)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError) as e:
            parse_config("[model]\nalpha = 0.5\nalpha = 0.6\ntruncation = 2\n")
        assert e.value.line == 3

    def test_missing_required_key(self):
        with pytest.raises(ConfigError) as e:
            parse_config("[model]\ntruncation = 2\n")
        assert "alpha" in str(e.value)

    def test_malformed_line(self):
        with pytest.raises(ConfigError) as e:
            parse_config("[model]\nalpha 0.5\n")
        assert e.value.line == 2

    def test_key_before_section(self):
        with pytest.raises(ConfigError) as e:
            parse_config("alpha = 0.5\n")
        assert e.value.line == 1

    def test_hypothesis_hint_in_message(self):
        bad = MINIMAL + "state_delays = scaled_sine(0.5)\n"
        with pytest.raises(ConfigError) as e:
            parse_config(bad)
        assert "(H5)" in str(e.value)

    def test_bad_number(self):
        with pytest.raises(ConfigError) as e:
            parse_config("[model]\nalpha = fast\ntruncation = 2\n")
        assert "alpha" in str(e.value)

    def test_bad_descriptor(self):
        with pytest.raises(ConfigError) as e:
            parse_config(MINIMAL + "nonlinearity = cubic(2)\n")
        assert "nonlinearity" in str(e.value)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_truncation_below_one(self, value):
        # the shapes are built on the truncation, so it is checked first
        with pytest.raises(ConfigError) as e:
            parse_config(f"[model]\nalpha = 0.5\ntruncation = {value}\n")
        assert "[model] truncation: " in str(e.value)
        assert e.value.line == 3

    @pytest.mark.parametrize("value", ["1e-300", "0.0004"])
    def test_order_below_the_floor(self, value):
        # the Mittag-Leffler reduction of beta = alpha + 2 takes about
        # 1/alpha steps, and at 1e-300 none of them moves beta
        with pytest.raises(ConfigError) as e:
            parse_config(f"[model]\nalpha = {value}\ntruncation = 4\n")
        assert "[model] alpha: orders below 0.0005" in str(e.value)
        assert e.value.line == 2
        assert parse_config("[model]\nalpha = 0.0005\ntruncation = 4\n").model.alpha == 5e-4

    @pytest.mark.parametrize("section, key", [
        ("model", "u0"), ("model", "v0"), ("control", "target")])
    def test_non_integer_mode(self, section, key):
        # a mode is an integer: 1.5 may not run on mode 1 with 1.5 in the digest
        text = MINIMAL + f"[{section}]\n{key} = single_mode(1.5, 1.0)\n"
        with pytest.raises(ConfigError) as e:
            parse_config(text)
        assert f"[{section}] {key}: " in str(e.value)
        assert "1.5" in str(e.value)
        assert e.value.line == 6

    @pytest.mark.parametrize("key, value", [
        ("state_delays", "identity(3)"),
        ("control_delays", "scaled_sine(1), identity(3)"),
        ("nonlinearity", "zero(2)"),
        ("state_multipliers", "laplacian(2)"),
        ("control_multipliers", "identity(0.5)"),
    ])
    def test_parameterless_kind_with_a_parameter(self, key, value):
        # these ran as the bare kind and dropped the parameter
        with pytest.raises(ConfigError) as e:
            parse_config(MINIMAL + f"{key} = {value}\n")
        assert f"[model] {key}: " in str(e.value)
        assert "takes no parameter" in str(e.value)
        assert e.value.line == 5

    @pytest.mark.parametrize("key", ["state_delays", "control_delays"])
    def test_sine_delay_with_a_scale_below_one(self, key):
        # (H5) fails only for t below about 7.7e-4: sin(t/tau) > t there
        with pytest.raises(ConfigError) as e:
            parse_config(MINIMAL + f"{key} = scaled_sine(0.9999999)\n")
        assert str(e.value).startswith(f"line 5: [model] {key}: ")
        assert str(e.value).endswith(" [violates (H5)]")

    @pytest.mark.parametrize("key", ["state_delays", "control_delays"])
    def test_negative_lag(self, key):
        # delay(t) = t + 0.1 > t breaks |delay(t)| <= t at every t
        with pytest.raises(ConfigError) as e:
            parse_config(MINIMAL + f"{key} = constant_lag(-0.1)\n")
        assert str(e.value).startswith(f"line 5: [model] {key}: ")
        assert str(e.value).endswith(" [violates (H5)]")

    def test_unbounded_tanh_bound(self):
        # |kappa| sqrt(N) overflows to inf, which would switch off the
        # solver's (H6) check; at 1e300 the bound stays finite
        with pytest.raises(ConfigError) as e:
            parse_config(_default_text().replace("bounded_tanh(0.1)",
                                                 "bounded_tanh(1e308)"))
        assert "[model] nonlinearity: " in str(e.value)
        assert "[violates (H6)]" in str(e.value)
        assert e.value.line == 17
        cfg = parse_config(_default_text().replace("bounded_tanh(0.1)",
                                                   "bounded_tanh(1e300)"))
        assert cfg.model.nonlinearity.param == 1e300


class TestNonFiniteNumbers:
    # every float of the format goes through one check; before it, these
    # diverged, failed inside the solver or ran to NaN columns
    @pytest.mark.parametrize("key, old, new", [
        ("alpha", "alpha = 0.5", "alpha = nan"),
        ("horizon", "horizon = 1.0", "horizon = inf"),
        ("eigenvalues", "eigenvalues = default", "eigenvalues = nan, 4, 9"),
        ("u0", "gaussian_bump(1.0, 0.35)", "gaussian_bump(inf, 0.35)"),
        ("state_delays", "state_delays = scaled_sine(1)",
         "state_delays = scaled_sine(nan)"),
        ("control_delays", "control_delays = scaled_sine(1), identity",
         "control_delays = constant_lag(nan), identity"),
        ("nonlocal_terms", "0.1:0.25", "nan:0.25"),
        ("nonlinearity", "bounded_tanh(0.1)", "bounded_tanh(nan)"),
        ("picard_tol", "picard_tol = 1e-10", "picard_tol = inf"),
        ("betas", "betas = 0.1,", "betas = inf,"),
        ("outer_tol", "outer_tol = 1e-8", "outer_tol = inf"),
        ("x_points", "x_points = 0.78539816339744828", "x_points = nan"),
        ("x_points", "x_points = 0.78539816339744828", "x_points = -inf"),
    ])
    def test_rejected_with_key(self, key, old, new):
        text = _default_text()
        assert old in text
        with pytest.raises(ConfigError) as e:
            parse_config(text.replace(old, new, 1))
        assert key in str(e.value)
        assert "finite" in str(e.value)

    @pytest.mark.parametrize("section, key", [
        ("model", "u0"), ("model", "v0"), ("control", "target")])
    def test_shape_that_evaluates_to_nan(self, section, key):
        # a bump of width 1e-300 centred on a quadrature node divides 0 by 0;
        # the state check of ModelSpec or ControlProblem rejects it at parse
        center = math.pi * float(gauss_legendre(config._GAUSS_NODES)[0][0])
        text = MINIMAL + f"[{section}]\n{key} = gaussian_bump({center!r}, 1e-300)\n"
        with np.errstate(all="ignore"), pytest.raises(ConfigError) as e:
            parse_config(text)
        assert f"[{section}]: {key} coefficients must be finite" in str(e.value)


class TestControlValues:
    @pytest.mark.parametrize("key, value", [
        ("betas", "0.01, 0.1"),
        ("betas", "0.1, 0"),
        ("betas", "0.1, -0.01"),
        ("outer_tol", "0"),
        ("outer_max_iters", "0"),
    ])
    def test_rejected_with_key_and_line(self, key, value):
        text = MINIMAL + f"\n[control]\ntarget = zero\n{key} = {value}\n"
        with pytest.raises(ConfigError) as e:
            parse_config(text)
        assert key in str(e.value)
        assert e.value.line == 8

    def test_decreasing_positive_betas_accepted(self):
        cfg = parse_config(MINIMAL + "\n[control]\nbetas = 0.5, 0.05\n"
                           "outer_tol = 1e-9\nouter_max_iters = 1\n")
        assert cfg.betas == (0.5, 0.05)
        assert cfg.problem.outer_max_iters == 1
        assert cfg.problem.outer_tol == 1e-9
        assert cfg.problem.beta == 0.5


class TestMittagLefflerRange:
    # the eigenfactors take any finite argument -lambda t^alpha; the one
    # bound left is the double range: parsing rejects a stiffest argument
    # that overflows
    @pytest.mark.parametrize("truncation", [101, 512])
    def test_any_truncation_runs(self, truncation):
        cfg = parse_config(f"[model]\nalpha = 0.9\ntruncation = {truncation}\n"
                           "u0 = single_mode(1, 1.0)\n[solver]\nn_steps = 8\n")
        traj = picard_solve(cfg.model, cfg.solver)
        assert np.all(np.isfinite(traj.states))

    def test_truncation_past_the_bound_rejected(self):
        # 2e154 squared overflows; 1e400 does not even convert to a double
        for n in (2 * 10 ** 154, 10 ** 400):
            with pytest.raises(ConfigError) as e:
                parse_config(f"[model]\nalpha = 0.9\ntruncation = {n}\n")
            assert "[model] truncation: " in str(e.value)
            assert "overflows" in str(e.value)
            assert e.value.line == 3

    def test_horizon_counts_toward_the_bound(self):
        # 1e308 * 2^0.5 is finite, 1e308 * 4^0.5 is not
        text = ("[model]\nalpha = 0.5\nhorizon = {h}\ntruncation = 2\n"
                "eigenvalues = 1, 1e308\n")
        parse_config(text.format(h=2.0))
        with pytest.raises(ConfigError) as e:
            parse_config(text.format(h=4.0))
        assert "[model] eigenvalues: " in str(e.value)
        assert "overflows at t = 4.0" in str(e.value)

    def test_rejected_before_any_shape_is_built(self, monkeypatch):
        # an N x 400 basis per Gaussian bump: at N = 20000 the shipped
        # bumps took the parse to 157 MB; a truncation whose square
        # overflows is rejected before the first one
        built = []
        monkeypatch.setattr(config, "gauss_legendre",
                            lambda nodes: built.append(nodes))
        with pytest.raises(ConfigError) as e:
            parse_config(_default_text().replace("truncation = 32",
                                                 f"truncation = {10 ** 160}"))
        assert ("[model] truncation: the stiffest mode's Mittag-Leffler argument "
                "-lambda t^alpha overflows at t = 1.0" in str(e.value))
        assert e.value.line == 8
        assert built == []

    def test_given_eigenvalues_named(self):
        with pytest.raises(ConfigError) as e:
            parse_config("[model]\nalpha = 1.0\nhorizon = 2.0\ntruncation = 2\n"
                         "eigenvalues = 1, 1e308\n")
        assert "[model] eigenvalues: " in str(e.value)
        assert e.value.line == 5
        # past the former 1e4 limit, and through the 0.999 < alpha < 1 band
        cfg = parse_config("[model]\nalpha = 0.9995\nhorizon = 2.0\ntruncation = 2\n"
                           "eigenvalues = 1, 1e300\nu0 = single_mode(1, 1.0)\n"
                           "[solver]\nn_steps = 8\n")
        traj = picard_solve(cfg.model, cfg.solver)
        assert np.all(np.isfinite(traj.states))

    def test_last_grid_node_counts_toward_the_bound(self):
        # (1.3 / 77) * 77 rounds up to 1.3000000000000003, where this
        # eigenvalue's argument overflows; at 1.3 itself it does not
        text = ("[model]\nalpha = 1.0\nhorizon = 1.3\ntruncation = 1\n"
                "eigenvalues = 1.382840872971012e308\nu0 = single_mode(1, 1.0)\n"
                "[solver]\nn_steps = {n}\n")
        with pytest.raises(ConfigError) as e:
            parse_config(text.format(n=77))
        assert "eigenvalues" in str(e.value)
        assert "t = 1.3000000000000003" in str(e.value)
        assert e.value.line == 5
        cfg = parse_config(text.format(n=10))  # (1.3 / 10) * 10 == 1.3
        traj = picard_solve(cfg.model, cfg.solver)
        assert np.all(np.isfinite(traj.states))


class TestCanonicalForm:
    @pytest.mark.parametrize("text, digest", [
        (None, "1c31f78a938acd272edb9e451dcade8faaa4fc2d350efae4bb61663b1a4a6d4b"),
        (MINIMAL, "202b765a1504a0ed09fd2ee58cc78587859348ece771dc69d780d09cd68850e0"),
        (MINIMAL + "state_delays = scaled_sine(2)\n",
         "f95dea939b955b520f1687290f63ffd2a05cf3fb2e0ef76f27014ccf82b42537"),
    ])
    def test_pinned_digests(self, text, digest):
        # the digest stamps every CSV: a change to the canonical text is a
        # change to every output's metadata
        assert parse_config(text or _default_text()).digest() == digest

    def test_round_trip_is_lossless(self):
        cfg = parse_config(_default_text())
        again = parse_config(cfg.to_text())
        assert again.sections == cfg.sections
        assert again.digest() == cfg.digest()
        assert np.array_equal(again.model.u0, cfg.model.u0)
        assert np.array_equal(again.problem.target, cfg.problem.target)
        assert again.betas == cfg.betas

    def test_digest_tracks_content(self):
        cfg = parse_config(_default_text())
        other = parse_config(_default_text().replace("alpha = 0.5",
                                                     "alpha = 0.6"))
        assert cfg.digest() != other.digest()

    def test_none_values_round_trip(self):
        cfg = parse_config(MINIMAL + "nonlocal_terms = none\n")
        again = parse_config(cfg.to_text())
        assert again.model.nonlocal_terms == ()
        assert again.sections == cfg.sections


class TestShapes:
    def test_zero_and_single_mode(self):
        assert np.all(synthesize_shape("zero", 3) == 0.0)
        c = synthesize_shape("single_mode(2, 1.5)", 3)
        assert np.allclose(c, [0.0, 1.5, 0.0])
        for mode in ("5", "0", "1.5", "0.999"):
            with pytest.raises(ValueError, match="not an integer in 1..3"):
                synthesize_shape(f"single_mode({mode}, 1.0)", 3)

    def test_gaussian_bump_coefficients(self):
        # compare the projection against a dense trapezoid quadrature
        n = 8
        c = synthesize_shape("gaussian_bump(1.0, 0.35)", n)
        x = np.linspace(0.0, math.pi, 40001)
        f = np.exp(-((x - 1.0) ** 2) / (2.0 * 0.35 ** 2))
        for k in range(1, n + 1):
            phi = math.sqrt(2.0 / math.pi) * np.sin(k * x)
            assert c[k - 1] == pytest.approx(np.trapezoid(f * phi, x),
                                             abs=1e-8)

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            synthesize_shape("sawtooth(1)", 4)


class TestReadme:
    def test_key_table_matches_the_declarations(self):
        # README's table of keys lists exactly the keys of ``_KEYS``, in
        # order, with their defaults
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| (required|`[^`]*`) \|",
                          readme.read_text(), flags=re.MULTILINE)
        documented = [(section, key, None if default == "required" else default[1:-1])
                      for section, key, default in rows]
        declared = [(section, key, entry[2])
                    for section, keys in config._KEYS.items()
                    for key, entry in keys.items()]
        assert documented == declared
