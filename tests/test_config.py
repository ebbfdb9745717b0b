"""Configuration text: parsing, validation diagnostics, canonical re-emit."""

import math
from importlib import resources

import numpy as np
import pytest

from fracsteer.config import parse_config, synthesize_shape
from fracsteer.errors import ConfigError
from fracsteer.solver import picard_solve

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
        assert m.state_delay_count == 1
        assert m.control_delay_count == 2
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
        assert cfg.outer_max_iters == 1


class TestMittagLefflerRange:
    def test_truncation_at_the_bound_runs(self):
        # lambda_max * horizon^alpha = 100^2 = 1e4 exactly
        cfg = parse_config("[model]\nalpha = 0.9\ntruncation = 100\n"
                           "u0 = single_mode(1, 1.0)\n[solver]\nn_steps = 8\n")
        traj = picard_solve(cfg.model, cfg.solver)
        assert np.all(np.isfinite(traj.states))

    def test_truncation_past_the_bound_rejected(self):
        with pytest.raises(ConfigError) as e:
            parse_config("[model]\nalpha = 0.9\ntruncation = 101\n")
        assert "truncation" in str(e.value)
        assert e.value.line == 3

    def test_horizon_counts_toward_the_bound(self):
        text = "[model]\nalpha = 0.5\nhorizon = {h}\ntruncation = 50\n"
        parse_config(text.format(h=16.0))  # 2500 * 16^0.5 = 1e4
        with pytest.raises(ConfigError) as e:
            parse_config(text.format(h=16.5))
        assert "truncation" in str(e.value)

    def test_given_eigenvalues_named(self):
        with pytest.raises(ConfigError) as e:
            parse_config("[model]\nalpha = 0.5\ntruncation = 2\n"
                         "eigenvalues = 1, 10000.5\n")
        assert "eigenvalues" in str(e.value)
        assert e.value.line == 4
        parse_config("[model]\nalpha = 0.5\ntruncation = 2\n"
                     "eigenvalues = 1, 10000\n")

    def test_last_grid_node_counts_toward_the_bound(self):
        # (0.1 / 11) * 11 rounds up to 0.10000000000000002, so the last
        # grid node would reach z = -10000.000000000002
        text = ("[model]\nalpha = 1.0\nhorizon = 0.1\ntruncation = 1\n"
                "eigenvalues = 100000\nu0 = single_mode(1, 1.0)\n"
                "[solver]\nn_steps = {n}\n")
        with pytest.raises(ConfigError) as e:
            parse_config(text.format(n=11))
        assert "eigenvalues" in str(e.value)
        assert "-10000.000000000002" in str(e.value)
        assert e.value.line == 5
        cfg = parse_config(text.format(n=10))  # (0.1 / 10) * 10 == 0.1
        traj = picard_solve(cfg.model, cfg.solver)
        assert np.all(np.isfinite(traj.states))


class TestCanonicalForm:
    def test_round_trip_is_lossless(self):
        cfg = parse_config(_default_text())
        again = parse_config(cfg.to_text())
        assert again.sections == cfg.sections
        assert again.digest() == cfg.digest()
        assert np.array_equal(again.model.u0.coeffs, cfg.model.u0.coeffs)
        assert np.array_equal(again.target.coeffs, cfg.target.coeffs)
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
        with pytest.raises(ValueError):
            synthesize_shape("single_mode(5, 1.0)", 3)

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
