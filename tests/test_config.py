import json

import pytest
from numpy.testing import assert_allclose

from onebit_mimo import ConfigError, default_config, emit_config, load_config, parse_config
from onebit_mimo.cli import main


def issue_lines(excinfo, key):
    return [ln for ln, k, _ in excinfo.value.issues if k == key]


class TestDefaults:
    def test_fast_profile(self):
        cfg = default_config()
        assert cfg.M == 32 and cfg.trials == 500
        assert cfg.K == 8 and cfg.tau == 8
        assert cfg.estimators == ("blmmse", "kfb")
        assert cfg.correlation_knowledge == "true"
        assert cfg.sample_count is None

    def test_paper_profile(self):
        cfg = default_config(profile="paper")
        assert cfg.M == 128 and cfg.trials == 1000

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            default_config(profile="huge")

    def test_speed_broadcast(self):
        cfg = default_config()
        assert cfg.speeds() == (3.0,) * cfg.K


class TestParsing:
    def test_file_overrides_base(self):
        cfg = parse_config("M = 64\nsnr_db = [-5, 0, 5]\n", base=default_config())
        assert cfg.M == 64
        assert cfg.snr_db == (-5.0, 0.0, 5.0)
        assert cfg.K == 8

    def test_comments_and_blank_lines(self):
        text = "# scenario size\n\nM = 16  # antennas\n"
        cfg = parse_config(text, base=default_config())
        assert cfg.M == 16

    def test_scientific_notation(self):
        cfg = parse_config("f_c = 3.5e9\n", base=default_config())
        assert_allclose(cfg.f_c, 3.5e9)

    def test_scalar_coerces_to_list(self):
        cfg = parse_config("estimators = kfb\nuser_speeds_kmh = 7\n", base=default_config())
        assert cfg.estimators == ("kfb",)
        assert cfg.speeds() == (7.0,) * 8

    def test_overrides_beat_file(self):
        cfg = parse_config("seed = 3\n", base=default_config(), overrides={"seed": 11})
        assert cfg.seed == 11

    def test_sampled_correlation(self):
        cfg = parse_config("correlation_knowledge = sampled(200)\n", base=default_config())
        assert cfg.sample_count == 200

    def test_missing_keys_without_base(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("M = 8\n")
        assert any(msg == "missing required key" for _, _, msg in excinfo.value.issues)


class TestValidationErrors:
    def test_unknown_key_carries_line(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("mode = nmse\nM = 16\nbogus = 3\n", base=default_config())
        assert issue_lines(excinfo, "bogus") == [3]

    def test_non_integer_antennas(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("M = 3.5\n", base=default_config())
        assert issue_lines(excinfo, "M") == [1]

    def test_boolean_is_not_an_integer(self):
        with pytest.raises(ConfigError):
            parse_config("M = true\n", base=default_config())

    def test_pilot_length_cross_check(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("tau = 4\nK = 8\n", base=default_config())
        assert issue_lines(excinfo, "tau") == [1]
        assert "at least K" in str(excinfo.value)

    def test_speed_count_cross_check(self):
        with pytest.raises(ConfigError):
            parse_config("user_speeds_kmh = [3, 5]\n", base=default_config())

    def test_theory_needs_common_speed(self):
        text = "mode = theory\nK = 2\ntau = 2\nuser_speeds_kmh = [3, 5]\n"
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text, base=default_config())
        assert "common speed" in str(excinfo.value)

    def test_negative_temporal_coefficient_names_speed_line(self):
        """Past the first zero of J0 the Jakes coefficient is negative (40 km/h: -0.228)."""
        with pytest.raises(ConfigError) as excinfo:
            parse_config("mode = nmse\nuser_speeds_kmh = [3, 40]\nK = 2\ntau = 2\n",
                         base=default_config())
        assert issue_lines(excinfo, "user_speeds_kmh") == [2]
        assert "speed 40 km/h" in str(excinfo.value) and "-0.228" in str(excinfo.value)

    def test_negative_temporal_coefficient_from_carrier(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("f_c = 5e10\n", base=default_config())
        assert issue_lines(excinfo, "user_speeds_kmh") == [0]
        assert "speed 3 km/h" in str(excinfo.value)

    def test_validate_config_rejects_negative_temporal_coefficient(self, tmp_path, capsys):
        path = tmp_path / "fast.cfg"
        path.write_text("user_speeds_kmh = 40\n", encoding="utf-8")
        assert main(["validate-config", "--config", str(path)]) == 2
        issues = json.loads(capsys.readouterr().err)["issues"]
        assert [(i["line"], i["key"]) for i in issues] == [(1, "user_speeds_kmh")]

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("M = 8\nM = 16\n", base=default_config())
        ln, key, msg = excinfo.value.issues[0]
        assert (ln, key) == (2, "M")
        assert "line 1" in msg

    def test_unterminated_list(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("snr_db = [1, 2\n", base=default_config())
        assert "unterminated" in str(excinfo.value)

    def test_empty_list(self):
        with pytest.raises(ConfigError):
            parse_config("snr_db = []\n", base=default_config())

    def test_unknown_estimator(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("estimators = [blmmse, bogus]\n", base=default_config())
        assert "unknown estimator" in str(excinfo.value)

    def test_estimator_listed_twice(self):
        with pytest.raises(ConfigError):
            parse_config("estimators = [kfb, kfb]\n", base=default_config())

    def test_correlation_knowledge_forms(self):
        with pytest.raises(ConfigError):
            parse_config("correlation_knowledge = maybe\n", base=default_config())
        with pytest.raises(ConfigError):
            parse_config("correlation_knowledge = sampled(0)\n", base=default_config())

    def test_spatial_magnitude_range(self):
        with pytest.raises(ConfigError):
            parse_config("r_spatial = 1.0\n", base=default_config())
        cfg = parse_config("r_spatial = 0.0\n", base=default_config())
        assert cfg.r_spatial == 0.0

    def test_expansion_scale_open_interval(self):
        with pytest.raises(ConfigError):
            parse_config("tpe.alpha = 2.0\n", base=default_config())
        with pytest.raises(ConfigError):
            parse_config("tpe.order = -1\n", base=default_config())

    def test_seed_range(self):
        with pytest.raises(ConfigError):
            parse_config(f"seed = {2**64}\n", base=default_config())

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("M 16\n", base=default_config())
        assert issue_lines(excinfo, "<syntax>") == [1]

    def test_malformed_key(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("3x = 5\n", base=default_config())
        assert "malformed key" in str(excinfo.value)

    def test_all_issues_collected(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("M = 0\nK = -1\nbogus = 2\n", base=default_config())
        assert len(excinfo.value.issues) == 3


class TestRoundTrip:
    @pytest.mark.parametrize("profile", ["fast", "paper"])
    def test_emit_parse_identity(self, profile):
        cfg = default_config(mode="rate", profile=profile)
        assert parse_config(emit_config(cfg)) == cfg

    def test_round_trip_preserves_every_field(self):
        cfg = parse_config(
            "mode = theory\nsnr_db = [-10, 0, 12.5]\ncorrelation_knowledge = sampled(64)\n"
            "estimators = [ls, tpe]\ntpe.alpha = 0.75\nseed = 42\n",
            base=default_config(),
        )
        assert parse_config(emit_config(cfg)) == cfg

    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("M = 24\nseed = 5\n", encoding="utf-8")
        cfg = load_config(path, base=default_config())
        assert cfg.M == 24 and cfg.seed == 5
