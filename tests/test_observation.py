import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ksplab import (
    ObservationModel,
    ObservationPath,
    RngStream,
    SamplePath,
    SimulationDivergenceError,
    check_novikov,
    girsanov_log_weight,
    girsanov_log_weights_batch,
    simulate_ensemble,
    simulate_observation,
    simulate_path,
)

from conftest import (
    brownian_motion,
    constant_sensor,
    deterministic_model,
    identity_sensor,
    ornstein_uhlenbeck,
    planar_model,
    planar_sensor,
    stored_euler_ensemble,
)


def constant_state_path(value, horizon, dt):
    model = deterministic_model(lambda x: np.zeros_like(np.asarray(x, dtype=float)), value)
    return simulate_path(model, horizon, dt, RngStream(0))


class TestSimulateObservation:
    def test_zero_sensor_gives_pure_noise_variance(self):
        # each unit-dt increment is an independent draw of a unit-time
        # Wiener endpoint: 1e5 of them pin Var(Y_T)/T within 2%
        path = constant_state_path(0.0, 100_000.0, 1.0)
        obs = simulate_observation(constant_sensor(0.0), path, RngStream(3, 1))
        v = np.var(obs.increments[:, 0])
        assert abs(v - 1.0) < 0.02

    def test_constant_sensor_noise_off(self):
        path = constant_state_path(0.0, 1.0, 0.01)
        obs = simulate_observation(constant_sensor(1.0), path, RngStream(0), noise_off=True)
        assert abs(obs.values[-1, 0] - 1.0) < 1e-12

    def test_identity_sensor_constant_state(self):
        path = constant_state_path(2.0, 3.0, 0.01)
        obs = simulate_observation(identity_sensor(), path, RngStream(0), noise_off=True)
        assert abs(obs.values[-1, 0] - 6.0) < 1e-10

    def test_zero_sensor_equals_noise_component(self):
        path = constant_state_path(0.0, 1.0, 0.1)
        obs = simulate_observation(constant_sensor(0.0), path, RngStream(9, 2))
        expected = RngStream(9, 2).generator().standard_normal((10, 1)) * math.sqrt(0.1)
        assert np.array_equal(obs.increments, expected)

    def test_increment_cache_consistency(self):
        path = constant_state_path(1.0, 1.0, 0.05)
        obs = simulate_observation(identity_sensor(), path, RngStream(4))
        rebuilt = np.cumsum(obs.increments, axis=0)
        assert np.max(np.abs(rebuilt - obs.values[1:])) < 1e-12
        assert np.all(obs.values[0] == 0.0)

    def test_dim_obs_cannot_exceed_dim_state(self):
        path = constant_state_path(0.0, 1.0, 0.1)
        wide = ObservationModel(dim_obs=2, sensor=lambda x: np.concatenate([x, x], axis=-1))
        with pytest.raises(ValueError):
            simulate_observation(wide, path, RngStream(0))

    def test_sensor_dim_mismatch_rejected(self):
        path = constant_state_path(0.0, 1.0, 0.1)
        bad = ObservationModel(dim_obs=1, sensor=lambda x: np.concatenate([x, x], axis=-1))
        with pytest.raises(ValueError):
            simulate_observation(bad, path, RngStream(0))

    def test_inconsistent_increments_rejected(self):
        with pytest.raises(ValueError):
            ObservationPath(
                times=np.array([0.0, 0.1, 0.2]),
                values=np.array([[0.0], [1.0], [2.0]]),
                increments=np.array([[1.0], [0.5]]),
            )


class TestGirsanovWeight:
    def test_zero_sensor_unit_weight(self):
        path = constant_state_path(0.0, 1.0, 0.1)
        dw = RngStream(1).generator().standard_normal((10, 1)) * math.sqrt(0.1)
        assert girsanov_log_weight(constant_sensor(0.0), path, dw) == 0.0

    def test_constant_sensor_noise_off_closed_form(self):
        # Z = exp(-c^2 T / 2) when the noise part vanishes
        path = constant_state_path(0.0, 1.0, 0.01)
        dw = np.zeros((100, 1))
        logz = girsanov_log_weight(constant_sensor(1.0), path, dw)
        assert abs(math.exp(logz) - math.exp(-0.5)) < 1e-12

    def test_martingale_mean_one_constant_sensor(self):
        # E[Z_T] = 1 holds exactly in discrete time; 1e5 paths, 3 se bound
        n, steps, dt = 100_000, 10, 0.1
        obs = constant_sensor(1.0)
        states = np.zeros((steps + 1, n, 1))
        dw = RngStream(17).generator().standard_normal((steps, n, 1)) * math.sqrt(dt)
        z = np.exp(girsanov_log_weights_batch(obs, states, dw, dt))
        stderr = z.std(ddof=1) / math.sqrt(n)
        assert abs(z.mean() - 1.0) < 3 * stderr

    def test_batch_matches_scalar_op(self):
        model = ornstein_uhlenbeck()
        obs = identity_sensor()
        dt, steps, n = 0.05, 20, 5
        _, states = simulate_ensemble(model, n, 1.0, dt, RngStream(8, 1))
        dw = RngStream(8, 2).generator().standard_normal((steps, n, 1)) * math.sqrt(dt)
        batch = girsanov_log_weights_batch(obs, states, dw, dt)
        for i in range(n):
            path = SamplePath(times=np.arange(steps + 1) * dt, states=states[:, i, :])
            single = girsanov_log_weight(obs, path, dw[:, i, :])
            assert abs(batch[i] - single) < 1e-12

    def test_grid_mismatch_rejected(self):
        path = constant_state_path(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            girsanov_log_weight(identity_sensor(), path, np.zeros((7, 1)))


class TestCheckNovikov:
    def test_zero_sensor_exactly_one(self):
        rep = check_novikov(constant_sensor(0.0), brownian_motion(), 1.0, 200, RngStream(0))
        assert rep.estimate == 1.0
        assert rep.stderr == 0.0
        assert rep.finite

    def test_constant_sensor_deterministic_integrand(self):
        rep = check_novikov(constant_sensor(1.0), brownian_motion(), 1.0, 500, RngStream(1))
        assert abs(rep.estimate - math.exp(0.5)) < 1e-9
        assert rep.finite

    def test_linear_sensor_on_ou_vs_independent_mc(self):
        # same functional, independently coded estimator on a finer grid
        # and a different stream; the two estimates agree within 3 combined
        # standard errors plus a small discretization allowance
        obs = identity_sensor()
        model = ornstein_uhlenbeck()
        rep = check_novikov(obs, model, 1.0, 40_000, RngStream(100), dt=1 / 256)
        assert rep.finite

        n, dt = 40_000, 1 / 1024
        steps = int(round(1.0 / dt))
        gen = RngStream(777).generator()
        x = np.zeros(n)
        acc = np.zeros(n)
        for _ in range(steps):
            acc += x * x * dt
            x = x - x * dt + gen.standard_normal(n) * math.sqrt(dt)
        vals = np.exp(0.5 * acc)
        oracle = vals.mean()
        oracle_se = vals.std(ddof=1) / math.sqrt(n)
        gap = abs(rep.estimate - oracle)
        assert gap < 3 * math.sqrt(rep.stderr**2 + oracle_se**2) + 0.01 * oracle

    def test_requires_enough_paths(self):
        with pytest.raises(ValueError):
            check_novikov(constant_sensor(0.0), brownian_motion(), 1.0, 50, RngStream(0))


def stored_check_novikov(obs, model, horizon, n_paths, rng, dt=None):
    """Reference copy of the store-then-sum Novikov estimate."""
    dt = horizon / 256 if dt is None else dt
    _, states = stored_euler_ensemble(model, n_paths, horizon, dt, rng)
    h = obs.sensor_values(states[:-1])
    integral = np.sum(h * h, axis=-1).sum(axis=0) * dt
    with np.errstate(over="ignore"):
        vals = np.exp(0.5 * integral)
    finite = bool(np.all(np.isfinite(vals)))
    estimate = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(n_paths))
    return estimate, stderr, finite and bool(np.isfinite(estimate))


class TestStreamedNovikov:
    @pytest.mark.parametrize(
        "obs, model, horizon, dt",
        [
            # the three sensor/model pairs of the novikov_check scenario
            (constant_sensor(0.0), brownian_motion(), 1.0, 0.01),
            (constant_sensor(1.0), brownian_motion(), 1.0, 0.01),
            (identity_sensor(), ornstein_uhlenbeck(), 1.0, 0.01),
            (identity_sensor(), ornstein_uhlenbeck(), 1.0, None),
            (planar_sensor(), planar_model(), 0.5, 0.01),
            (identity_sensor(), ornstein_uhlenbeck(), 0.5, 0.5),  # one-step horizon
        ],
    )
    def test_equals_store_then_sum(self, obs, model, horizon, dt):
        rep = check_novikov(obs, model, horizon, 2_000, RngStream(71, 2), dt=dt)
        ref = stored_check_novikov(obs, model, horizon, 2_000, RngStream(71, 2), dt=dt)
        assert np.array_equal([rep.estimate, rep.stderr], ref[:2])
        assert rep.finite is True  # a plain bool, not np.True_
        assert ref[2]

    @pytest.mark.parametrize("c", [1e200, 1e150])
    def test_overflow_sets_flag_without_warning(self, c):
        # 1e200 overflows at h * h, 1e150 only in the accumulated sum
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_novikov(constant_sensor(c), brownian_motion(), 1.0, 200, RngStream(0))
        assert rep.finite is False
        assert rep.estimate == math.inf

    def test_divergence_raises_at_reference_step(self):
        model = deterministic_model(lambda x: np.asarray(x, dtype=float) ** 3, 10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationDivergenceError) as ref:
                stored_check_novikov(constant_sensor(0.0), model, 5.0, 100, RngStream(0), dt=0.5)
            with pytest.raises(SimulationDivergenceError) as err:
                check_novikov(constant_sensor(0.0), model, 5.0, 100, RngStream(0), dt=0.5)
        assert err.value.step == ref.value.step >= 1

    def test_non_finite_sensor_raises_before_later_divergence(self):
        # the sensor turns NaN past 1e3, steps before the state overflows:
        # checked step by step, the sensor's ValueError now comes first
        model = deterministic_model(lambda x: np.asarray(x, dtype=float) ** 3, 10.0)
        obs = ObservationModel(dim_obs=1, sensor=lambda x: np.where(np.abs(x) > 1e3, np.nan, x))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationDivergenceError):
                stored_check_novikov(obs, model, 5.0, 100, RngStream(0), dt=0.5)
            with pytest.raises(ValueError, match="sensor must return finite values"):
                check_novikov(obs, model, 5.0, 100, RngStream(0), dt=0.5)

    def test_memory_is_linear_in_paths(self):
        # storing the ensemble would need (256 + 1) * n_paths * 8 bytes for
        # the states alone, more than 10x this bound
        n_paths = 20_000
        tracemalloc.start()
        try:
            check_novikov(identity_sensor(), ornstein_uhlenbeck(), 1.0, n_paths, RngStream(9), dt=1 / 256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * n_paths * 8
