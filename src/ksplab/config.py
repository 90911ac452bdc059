"""Experiment configuration: JSON documents, schemas, and validation.

Each scenario owns a schema of typed, range-checked keys with defaults.
Validation reports *all* violations at once (unknown keys, wrong types,
out-of-range values, missing required keys, and cross-key constraints among
keys that are valid on their own), not just the first.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .markov import rate_matrix_from_triplets
from .rng import _SUBSTREAM_FACTOR
from .sde import _n_steps


class ConfigError(ValueError):
    """Invalid configuration; ``violations`` lists every problem found."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.violations))


@dataclass(frozen=True)
class Key:
    """One schema entry: expected type, default (``None``: required), admissible range."""

    type: type
    default: object = None
    lo: float | None = None
    hi: float | None = None

    def check(self, name: str, value) -> str | None:
        if self.type is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, self.type) or isinstance(value, bool):
            return f"key '{name}' expects {self.type.__name__}, got {value!r}"
        if self.lo is not None and value < self.lo:
            return f"key '{name}' = {value!r} below admissible minimum {self.lo}"
        if self.hi is not None and value > self.hi:
            return f"key '{name}' = {value!r} above admissible maximum {self.hi}"
        return None


_COMMON = {
    "seed": Key(int, default=12345),
    "output_dir": Key(str, default="out"),
}

SCENARIO_SCHEMAS: dict[str, dict[str, Key]] = {
    "linear_compare": {
        **_COMMON,
        "F": Key(float, default=-1.0),
        "f0": Key(float, default=0.0),
        "sigma": Key(float, default=1.0),
        "H": Key(float, default=1.0),
        "h0": Key(float, default=0.0),
        "prior_mean": Key(float, default=0.0),
        "prior_var": Key(float, default=1.0, lo=1e-12),
        "horizon": Key(float, default=1.0, lo=1e-6),
        "dt": Key(float, default=1e-3, lo=1e-9, hi=1.0),
        "n_particles": Key(int, default=10_000, lo=2),
        "n_grid": Key(int, default=801, lo=11),
        "x_lo": Key(float, default=-6.0),
        "x_hi": Key(float, default=6.0),
        "resample_threshold": Key(float, default=0.5, lo=0.0, hi=1.0),
    },
    "master_demo": {
        **_COMMON,
        "rates": Key(list, default=[[0, 1, 1.0], [1, 0, 3.0]]),
        "tau_a": Key(float, default=0.3, lo=0.0),
        "tau_b": Key(float, default=0.7, lo=0.0),
        "horizon": Key(float, default=1.0, lo=1e-6),
        "n_ode_steps": Key(int, default=10_000, lo=10),
    },
    "heston_demo": {
        **_COMMON,
        "kappa": Key(float, default=2.0, lo=0.0),
        "m": Key(float, default=0.04, lo=0.0),
        "gamma": Key(float, default=0.3, lo=0.0),
        "mu": Key(float, default=0.05),
        "x0": Key(float, default=0.04, lo=0.0),
        "s0": Key(float, default=100.0, lo=1e-12),
        "horizon": Key(float, default=1.0, lo=1e-6),
        "dt": Key(float, default=1e-5, lo=1e-9, hi=1.0),
        "filter_stride": Key(int, default=10, lo=1),
        "n_particles": Key(int, default=2000, lo=2),
        "window": Key(int, default=1000, lo=2),
        "strike": Key(float, default=100.0, lo=1e-12),
        "maturity": Key(float, default=2.0, lo=1e-6),
        "rate": Key(float, default=0.0),
        "inner_paths": Key(int, default=64, lo=2),
        "n_price_times": Key(int, default=8, lo=1),
    },
    "pricing_demo": {
        **_COMMON,
        "kappa": Key(float, default=1.0, lo=0.0),
        "m": Key(float, default=0.04, lo=0.0),
        "gamma": Key(float, default=0.3, lo=0.0),
        "mu": Key(float, default=0.0),
        "x0": Key(float, default=0.04, lo=0.0),
        "s0": Key(float, default=100.0, lo=1e-12),
        "strike": Key(float, default=100.0, lo=1e-12),
        "maturity": Key(float, default=1.0, lo=1e-6),
        "rate": Key(float, default=0.0),
        # filtered_option_price draws particle i from substream i
        "n_particles": Key(int, default=500, lo=2, hi=_SUBSTREAM_FACTOR),
        "inner_paths": Key(int, default=64, lo=2),
        "inner_dt": Key(float, default=5e-3, lo=1e-9),
    },
    "novikov_check": {
        **_COMMON,
        "horizon": Key(float, default=1.0, lo=1e-6),
        "dt": Key(float, default=0.01, lo=1e-9),
        "n_paths": Key(int, default=100_000, lo=100),
        "h_const": Key(float, default=1.0),
        "ou_theta": Key(float, default=1.0, lo=0.0),
    },
}


def _cross_key_violations(scenario: str, p: dict, invalid: set) -> list[str]:
    """Constraints between keys, checked where every key involved is valid on its own."""
    found = []
    if scenario == "linear_compare" and invalid.isdisjoint({"x_lo", "x_hi"}):
        if p["x_lo"] >= p["x_hi"]:
            found.append(f"key 'x_lo' = {p['x_lo']!r} must be below 'x_hi' = {p['x_hi']!r}")
    if scenario == "linear_compare" and "H" not in invalid and p["H"] == 0:
        # the innovation-gain check divides by the Kalman gain R H
        found.append(
            f"key 'H' = {p['H']!r} must be nonzero: the innovation gain is compared "
            "relative to the Kalman gain R H"
        )
    if scenario == "master_demo" and "rates" not in invalid:
        try:
            rate_matrix_from_triplets(p["rates"])
        except ValueError as exc:
            found.append(f"key 'rates': {exc}")
    stepped = ("linear_compare", "novikov_check", "heston_demo")
    if scenario not in stepped or not invalid.isdisjoint({"horizon", "dt"}):
        return found
    # each simulates sde._n_steps(horizon, dt) steps, which needs dt <= horizon
    horizon, dt = p["horizon"], p["dt"]
    try:
        n_steps = _n_steps(horizon, dt)
    except ValueError:
        return found + [f"key 'dt' = {dt!r} must not exceed 'horizon' = {horizon!r}"]
    if scenario == "heston_demo" and "window" not in invalid and p["window"] >= n_steps + 1:
        found.append(
            f"key 'window' = {p['window']!r} must be below the path's {n_steps + 1} samples "
            "(ceil(horizon / dt) + 1)"
        )
    heston_keys = {"filter_stride", "maturity", "n_price_times"}
    if scenario == "heston_demo" and invalid.isdisjoint(heston_keys):
        # pricing at coarse index k draws from substream 2k + 1 (when the
        # maturity lies past the horizon), and the last priced index is the
        # last coarse sample unless only one time is priced
        n_coarse = n_steps // p["filter_stride"] + 1
        if n_coarse < 2:
            found.append(
                f"key 'filter_stride' = {p['filter_stride']!r} must not exceed the path's "
                f"{n_steps} steps (ceil(horizon / dt)): the filter needs two samples"
            )
        last = n_coarse - 1 if p["n_price_times"] > 1 else 0
        if p["maturity"] > p["horizon"] and 2 * last + 1 >= _SUBSTREAM_FACTOR:
            found.append(
                f"key 'horizon' = {p['horizon']!r} at 'dt' = {p['dt']!r} and 'filter_stride' = "
                f"{p['filter_stride']!r} gives {n_coarse} filter samples; pricing at sample k "
                f"draws from substream 2k + 1, so at most {_SUBSTREAM_FACTOR // 2} samples "
                "can be priced"
            )
    if scenario == "linear_compare" and n_steps >= _SUBSTREAM_FACTOR:
        # the particle filter draws step k from substream k + 1
        found.append(
            f"key 'horizon' = {horizon!r} at 'dt' = {dt!r} is {n_steps} steps; the "
            f"particle filter draws each step from its own substream, so at most "
            f"{_SUBSTREAM_FACTOR - 1} steps can run"
        )
    if scenario == "novikov_check" and n_steps * dt > horizon * (1 + 1e-9):
        # the sum must take whole steps, as a partial last step would
        # integrate past the horizon
        found.append(
            f"key 'horizon' = {horizon!r} must be a whole number of 'dt' = {dt!r} steps "
            f"(ceil(horizon / dt) = {n_steps} steps reach {n_steps * dt:.6g})"
        )
    return found


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    params: dict = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return self.params["seed"]

    @property
    def output_dir(self) -> str:
        return self.params["output_dir"]

    def __getitem__(self, key: str):
        return self.params[key]

    def canonical_json(self) -> str:
        # output_dir is excluded: the hash identifies the numerical
        # configuration, not where its files land
        params = {k: v for k, v in self.params.items() if k != "output_dir"}
        return json.dumps({"scenario": self.scenario, **params}, sort_keys=True)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def validate_config(scenario: str, raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Merge defaults < file values < overrides and range-check everything."""
    violations: list[str] = []
    if scenario not in SCENARIO_SCHEMAS:
        raise ConfigError(
            [f"unknown scenario '{scenario}'; choose from {sorted(SCENARIO_SCHEMAS)}"]
        )
    schema = SCENARIO_SCHEMAS[scenario]

    merged = {name: key.default for name, key in schema.items() if key.default is not None}
    for source in (raw, overrides or {}):
        for name, value in source.items():
            if name not in schema:
                violations.append(f"unknown key '{name}'")
            else:
                merged[name] = value

    invalid = set()
    for name, key in schema.items():
        if name not in merged:  # no default and not given
            violations.append(f"missing required key '{name}'")
            invalid.add(name)
            continue
        problem = key.check(name, merged[name])
        if problem:
            violations.append(problem)
            invalid.add(name)
        elif key.type is float:
            merged[name] = float(merged[name])

    violations += _cross_key_violations(scenario, merged, invalid)

    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(scenario=scenario, params=merged)


def read_document(text: str, scenario: str | None = None) -> tuple[str, dict]:
    """Split a JSON config document into its scenario and its other keys.

    A document without a 'scenario' key takes ``scenario``; with ``scenario``
    given, a document that declares another scenario is rejected.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"not valid JSON: {exc}"])
    if not isinstance(raw, dict):
        raise ConfigError(["top-level document must be a JSON object"])
    declared = raw.pop("scenario", scenario)
    if declared is None:
        raise ConfigError(["missing required key 'scenario'"])
    if scenario is not None and declared != scenario:
        raise ConfigError([f"config declares scenario '{declared}' but '{scenario}' was requested"])
    return declared, raw


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse a JSON config document; the 'scenario' key selects the schema."""
    scenario, raw = read_document(text)
    return validate_config(scenario, raw, overrides)
