import json
import os

import pytest

from ksplab import ConfigError, parse_config, validate_config
from ksplab.config import read_document


class TestParseConfig:
    def test_minimal_linear_compare_fills_defaults(self):
        cfg = parse_config(json.dumps({"scenario": "linear_compare"}))
        assert cfg.scenario == "linear_compare"
        assert cfg["dt"] == 1e-3
        assert cfg["n_particles"] == 10_000
        assert cfg["n_grid"] == 801
        assert cfg["x_lo"] == -6.0
        assert cfg.seed == 12345

    def test_negative_dt_names_key_and_range(self):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps({"scenario": "linear_compare", "dt": -0.1}))
        msg = "\n".join(err.value.violations)
        assert "dt" in msg
        assert "minimum" in msg

    def test_document_reader_shared_by_file_and_cli(self):
        # one reader: malformed JSON, a non-object, and a scenario mismatch
        for text, token in (
            ('{"seed": 7,', "not valid JSON"),
            ("[1, 2]", "JSON object"),
            ('{"seed": 7}', "missing required key 'scenario'"),
        ):
            with pytest.raises(ConfigError, match=token):
                parse_config(text)
        with pytest.raises(ConfigError, match="declares scenario 'master_demo'"):
            read_document('{"scenario": "master_demo"}', "linear_compare")
        assert read_document('{"seed": 7}', "linear_compare") == ("linear_compare", {"seed": 7})

    def test_unknown_key_listed(self):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps({"scenario": "linear_compare", "foo": 1}))
        assert any("foo" in v for v in err.value.violations)

    def test_all_violations_reported_at_once(self):
        doc = {"scenario": "linear_compare", "foo": 1, "bar": 2, "dt": -1.0, "n_particles": 1}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        joined = "\n".join(err.value.violations)
        assert len(err.value.violations) >= 4
        for token in ("foo", "bar", "dt", "n_particles"):
            assert token in joined

    def test_wrong_type_reported(self):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps({"scenario": "heston_demo", "kappa": "fast"}))
        assert any("kappa" in v for v in err.value.violations)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps({"scenario": "mystery"}))
        assert any("mystery" in v for v in err.value.violations)

    def test_missing_scenario(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"dt": 0.1}))

    def test_invalid_json(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    def test_overrides_beat_file_values(self):
        cfg = parse_config(
            json.dumps({"scenario": "linear_compare", "dt": 0.01}), overrides={"dt": 0.02}
        )
        assert cfg["dt"] == 0.02

    def test_int_promoted_to_float_keys(self):
        cfg = parse_config(json.dumps({"scenario": "linear_compare", "horizon": 2}))
        assert cfg["horizon"] == 2.0
        assert isinstance(cfg["horizon"], float)


class TestCrossKeyChecks:
    @pytest.mark.parametrize("x_lo, x_hi", [(1.0, 1.0), (2.0, -2.0)])
    def test_grid_range_must_be_increasing(self, x_lo, x_hi):
        with pytest.raises(ConfigError) as err:
            validate_config("linear_compare", {"x_lo": x_lo, "x_hi": x_hi})
        assert len(err.value.violations) == 1
        assert "'x_lo'" in err.value.violations[0] and "'x_hi'" in err.value.violations[0]

    def test_window_must_be_below_the_sample_count(self):
        # horizon 0.05 at dt 1e-3 is 50 steps, 51 samples
        base = {"horizon": 0.05, "dt": 1e-3}
        assert validate_config("heston_demo", {**base, "window": 50})["window"] == 50
        for window in (51, 500):
            with pytest.raises(ConfigError) as err:
                validate_config("heston_demo", {**base, "window": window})
            assert err.value.violations == [
                f"key 'window' = {window} must be below the path's 51 samples "
                "(ceil(horizon / dt) + 1)"
            ]

    def test_reported_with_the_other_violations(self):
        with pytest.raises(ConfigError) as err:
            validate_config("linear_compare", {"x_lo": 3.0, "x_hi": -3.0, "dt": -1.0, "foo": 1})
        joined = "\n".join(err.value.violations)
        assert len(err.value.violations) == 3
        for token in ("x_lo", "dt", "foo"):
            assert token in joined

    def test_skipped_when_a_member_key_is_invalid(self):
        with pytest.raises(ConfigError) as err:
            validate_config("heston_demo", {"dt": "small", "window": 10**9})
        assert len(err.value.violations) == 1
        assert "'dt'" in err.value.violations[0]

    def test_shipped_novikov_config_validates(self):
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "novikov_check.json")
        with open(path) as fh:
            cfg = parse_config(fh.read())
        assert (cfg["horizon"], cfg["dt"]) == (1.0, 0.01)

    @pytest.mark.parametrize(
        "horizon, dt", [(1.0, 0.1), (3.0, 0.1), (0.7, 0.1), (1.0, 1 / 3), (1.0, 1.0)]
    )
    def test_novikov_whole_steps_accepted(self, horizon, dt):
        cfg = validate_config("novikov_check", {"horizon": horizon, "dt": dt})
        assert (cfg["horizon"], cfg["dt"]) == (horizon, dt)

    @pytest.mark.parametrize("dt", [1.5, 1.0 + 1e-10])
    def test_novikov_dt_must_not_exceed_horizon(self, dt):
        with pytest.raises(ConfigError) as err:
            validate_config("novikov_check", {"horizon": 1.0, "dt": dt})
        assert err.value.violations == [f"key 'dt' = {dt!r} must not exceed 'horizon' = 1.0"]

    @pytest.mark.parametrize("dt, n_steps", [(0.3, 4), (0.0099, 102)])
    def test_novikov_partial_last_step_rejected(self, dt, n_steps):
        # 4 steps of 0.3 would integrate to 1.2 and fail the closed form falsely
        with pytest.raises(ConfigError) as err:
            validate_config("novikov_check", {"horizon": 1.0, "dt": dt})
        assert len(err.value.violations) == 1
        message = err.value.violations[0]
        assert message.startswith(f"key 'horizon' = 1.0 must be a whole number of 'dt' = {dt!r}")
        assert f"= {n_steps} steps" in message

    def test_novikov_steps_skipped_when_dt_invalid(self):
        with pytest.raises(ConfigError) as err:
            validate_config("novikov_check", {"horizon": 1.0, "dt": "coarse"})
        assert len(err.value.violations) == 1
        assert "expects float" in err.value.violations[0]

    def test_shipped_linear_compare_config_validates(self):
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "linear_compare.json")
        with open(path) as fh:
            cfg = parse_config(fh.read())
        assert (cfg["horizon"], cfg["dt"]) == (1.0, 0.001)

    @pytest.mark.parametrize("horizon, dt", [(0.1, 0.5), (0.5, 0.5 + 1e-10), (0.002, 0.003)])
    def test_linear_compare_dt_must_not_exceed_horizon(self, horizon, dt):
        # this used to pass validation and die in sde._n_steps at run time
        with pytest.raises(ConfigError) as err:
            validate_config("linear_compare", {}, {"horizon": horizon, "dt": dt})
        assert err.value.violations == [
            f"key 'dt' = {dt!r} must not exceed 'horizon' = {horizon!r}"
        ]

    @pytest.mark.parametrize("horizon, dt", [(1.0, 1.0), (0.1, 0.1), (1.0, 0.3)])
    def test_linear_compare_dt_up_to_horizon_accepted(self, horizon, dt):
        # a coarse dt or a partial last step still runs, and the scenario's checks
        # judge the result; only dt > horizon cannot run
        cfg = validate_config("linear_compare", {}, {"horizon": horizon, "dt": dt})
        assert (cfg["horizon"], cfg["dt"]) == (horizon, dt)

    @pytest.mark.parametrize("horizon, dt", [(0.1, 0.5), (0.5, 0.5 + 1e-10), (0.002, 0.003)])
    def test_heston_dt_must_not_exceed_horizon(self, horizon, dt):
        # reported as the step rule it breaks, not as a window above the path's samples
        with pytest.raises(ConfigError) as err:
            validate_config("heston_demo", {}, {"horizon": horizon, "dt": dt})
        assert err.value.violations == [
            f"key 'dt' = {dt!r} must not exceed 'horizon' = {horizon!r}"
        ]

    def test_shipped_master_config_validates(self):
        path = os.path.join(os.path.dirname(__file__), "..", "configs", "master_demo.json")
        with open(path) as fh:
            cfg = parse_config(fh.read())
        assert cfg["rates"] == [[0, 1, 1.0], [1, 0, 3.0]]

    @pytest.mark.parametrize(
        "rates, problem",
        [
            ([[-1, 0, 2.0], [0, 1, 1.0]], "rate entry 0 has state indices (-1, 0)"),
            ([[0, 1, 1.0], [0.7, 1, 2.0]], "rate entry 1 has state indices (0.7, 1)"),
            ([[0, 1, 1.0], [1, 0]], "rate entry 1 is not an (i, j, rate) triple"),
            ([[0, 3000, 1.0], [3000, 0, 1.0]], "rate entry 0 has state indices (0, 3000)"),
        ],
    )
    def test_master_malformed_rates_rejected(self, rates, problem):
        # as an index, -1 would wrap to the last state and 0.7 truncate to state 0
        with pytest.raises(ConfigError) as err:
            validate_config("master_demo", {"rates": rates})
        assert len(err.value.violations) == 1
        assert err.value.violations[0].startswith(f"key 'rates': {problem}")

    def test_linear_compare_dt_rule_skipped_when_horizon_invalid(self):
        with pytest.raises(ConfigError) as err:
            validate_config("linear_compare", {"horizon": -1.0, "dt": 0.5})
        assert len(err.value.violations) == 1
        assert "'horizon'" in err.value.violations[0]


class TestSubstreamLimits:
    """Runs that would ask an RngStream for a substream index of 2**20 or more
    are refused at validation; these tests validate only, running no scenario."""

    DT = 2.0**-20  # exact in binary, so horizon / dt is an exact step count

    @pytest.mark.parametrize("name", ["linear_compare", "heston_demo"])
    def test_shipped_configs_validate(self, name):
        path = os.path.join(os.path.dirname(__file__), "..", "configs", f"{name}.json")
        with open(path) as fh:
            assert parse_config(fh.read()).scenario == name

    def test_linear_compare_last_admissible_step_count(self):
        # step k draws from substream k + 1, so 2**20 - 1 steps is the most
        horizon = (2**20 - 1) * self.DT
        cfg = validate_config("linear_compare", {"horizon": horizon, "dt": self.DT})
        assert cfg["horizon"] == horizon

    @pytest.mark.parametrize(
        "horizon, dt, n_steps", [(1.0, 2.0**-20, 2**20), (1.1, 1e-6, 1_100_000)]
    )
    def test_linear_compare_too_many_steps_rejected(self, horizon, dt, n_steps):
        with pytest.raises(ConfigError) as err:
            validate_config("linear_compare", {"horizon": horizon, "dt": dt})
        assert err.value.violations == [
            f"key 'horizon' = {horizon!r} at 'dt' = {dt!r} is {n_steps} steps; the particle "
            f"filter draws each step from its own substream, so at most {2**20 - 1} steps can run"
        ]

    def test_heston_last_admissible_priced_sample(self):
        # stride 1: 2**19 samples, the last priced at k = 2**19 - 1 draws from 2**20 - 1
        horizon = (2**19 - 1) * self.DT
        params = {"horizon": horizon, "dt": self.DT, "filter_stride": 1, "maturity": 2.0}
        assert validate_config("heston_demo", params)["horizon"] == horizon

    @pytest.mark.parametrize("stride", [1, 2])
    def test_heston_too_many_priced_samples_rejected(self, stride):
        # 2**19 * stride steps give 2**19 + 1 samples; the last would need 2**20 + 1
        horizon = 0.5 * stride
        params = {"horizon": horizon, "dt": self.DT, "filter_stride": stride, "maturity": 2.0}
        with pytest.raises(ConfigError) as err:
            validate_config("heston_demo", params)
        assert err.value.violations == [
            f"key 'horizon' = {horizon!r} at 'dt' = {self.DT!r} and 'filter_stride' = {stride} "
            f"gives {2**19 + 1} filter samples; pricing at sample k draws from substream "
            "2k + 1, so at most 524288 samples can be priced"
        ]

    @pytest.mark.parametrize("override", [{"maturity": 0.5}, {"n_price_times": 1}])
    def test_heston_limit_only_where_pricing_reaches_it(self, override):
        # no pricing when the maturity is not past the horizon; a single
        # priced time is the first sample
        params = {"horizon": 0.5, "dt": self.DT, "filter_stride": 1, "maturity": 2.0}
        cfg = validate_config("heston_demo", {**params, **override})
        assert cfg["horizon"] == 0.5

    def test_pricing_last_admissible_particle_count(self):
        # filtered_option_price draws particle i from substream i
        assert validate_config("pricing_demo", {"n_particles": 2**20})["n_particles"] == 2**20

    def test_pricing_too_many_particles_rejected(self):
        with pytest.raises(ConfigError) as err:
            validate_config("pricing_demo", {"n_particles": 2**20 + 1})
        assert err.value.violations == [
            f"key 'n_particles' = {2**20 + 1} above admissible maximum {2**20}"
        ]


class TestConfigHash:
    def test_hash_ignores_output_dir(self):
        a = validate_config("master_demo", {}, {"output_dir": "x"})
        b = validate_config("master_demo", {}, {"output_dir": "y"})
        assert a.config_hash() == b.config_hash()

    def test_hash_sensitive_to_numeric_change(self):
        a = validate_config("master_demo", {}, {})
        b = validate_config("master_demo", {"tau_a": 0.4}, {})
        assert a.config_hash() != b.config_hash()
