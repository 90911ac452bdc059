import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ksplab import (
    GaussianBelief,
    InitialLaw,
    LinearModel,
    ObservationPath,
    RiccatiConvergenceError,
    RngStream,
    kalman_step,
    linear_drift,
    riccati_rhs,
    run_kalman,
    simulate_observation,
    simulate_path,
    steady_state_cov,
)


def scalar_model(F=0.0, f0=0.0, sigma=1.0, H=1.0, h0=0.0):
    return LinearModel(F=[[F]], f0=[f0], sigma=[[sigma]], H=[[H]], h0=[h0])


def zero_observation_path(n_steps, dt, dim=1):
    times = np.arange(n_steps + 1) * dt
    return ObservationPath.from_increments(times, np.zeros((n_steps, dim)))


class TestRiccatiRhs:
    def test_steady_state_is_zero(self):
        assert riccati_rhs(scalar_model(), np.array([[1.0]]))[0, 0] == 0.0

    def test_only_noise_term_at_zero(self):
        assert riccati_rhs(scalar_model(), np.array([[0.0]]))[0, 0] == 1.0

    def test_hand_evaluated_value(self):
        # 2 - 0.5 - 0.5 - 0.25 = 0.75
        model = scalar_model(F=-1.0, sigma=math.sqrt(2.0))
        assert abs(riccati_rhs(model, np.array([[0.5]]))[0, 0] - 0.75) < 1e-14

    def test_output_symmetrized(self):
        model = LinearModel(
            F=[[0.0, 1.0], [0.0, 0.0]],
            f0=[0.0, 0.0],
            sigma=np.eye(2),
            H=[[1.0, 0.0]],
            h0=[0.0],
        )
        out = riccati_rhs(model, np.eye(2))
        assert np.array_equal(out, out.T)

    def test_asymmetric_R_rejected(self):
        with pytest.raises(ValueError):
            riccati_rhs(scalar_model(), np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestKalmanStep:
    def test_zero_gain_zero_drift_mean_unchanged(self):
        model = scalar_model(F=0.0, H=0.0)
        belief = GaussianBelief([1.3], [[2.0]])
        out = kalman_step(model, belief, [5.0], 0.1)
        assert out.mean[0] == 1.3

    @pytest.mark.parametrize("r0", [0.0, 4.0])
    def test_variance_converges_to_unit_root(self, r0):
        # positive root of 1 - R^2 = 0 regardless of the start
        model = scalar_model()
        belief = GaussianBelief([0.0], [[r0]])
        dt = 1e-3
        for _ in range(20_000):
            belief = kalman_step(model, belief, [0.0], dt)
        assert abs(belief.cov[0, 0] - 1.0) < 1e-5

    def test_variance_converges_to_sqrt3_minus_1(self):
        model = scalar_model(F=-1.0, sigma=math.sqrt(2.0))
        belief = GaussianBelief([0.0], [[1.0]])
        dt = 1e-3
        for _ in range(20_000):
            belief = kalman_step(model, belief, [0.0], dt)
        assert abs(belief.cov[0, 0] - (math.sqrt(3.0) - 1.0)) < 1e-6

    def test_invalid_dt_rejected(self):
        with pytest.raises(ValueError):
            kalman_step(scalar_model(), GaussianBelief([0.0], [[1.0]]), [0.0], 0.0)


class TestRunKalman:
    def test_decoupled_lyapunov_growth(self):
        # H = 0: mean frozen, covariance grows linearly as sigma^2 t
        model = scalar_model(F=0.0, H=0.0, sigma=2.0)
        obs = zero_observation_path(100, 0.01)
        beliefs = run_kalman(model, obs, GaussianBelief([0.7], [[0.0]]))
        assert len(beliefs) == 101
        assert all(b.mean[0] == 0.7 for b in beliefs)
        assert abs(beliefs[-1].cov[0, 0] - 4.0 * 1.0) < 1e-10

    def test_mean_follows_ode_when_uninformative(self):
        # H = 0: xhat' = F xhat + f0, Euler-exact comparison
        model = scalar_model(F=-0.5, f0=0.2, H=0.0)
        dt, n = 0.01, 200
        obs = zero_observation_path(n, dt)
        beliefs = run_kalman(model, obs, GaussianBelief([1.0], [[1.0]]))
        x = 1.0
        for _ in range(n):
            x = x + (-0.5 * x + 0.2) * dt
        assert abs(beliefs[-1].mean[0] - x) < 1e-12

    def test_richardson_self_consistency(self):
        # halving dt moves the terminal mean by O(dt)
        model = scalar_model(F=-1.0)
        law = InitialLaw.gaussian([0.0], [[1.0]])
        fine = simulate_path(model.as_diffusion_model(law), 1.0, 5e-4, RngStream(5, 1))
        obs_fine = simulate_observation(model.as_observation_model(), fine, RngStream(5, 2))
        # aggregate pairs of fine increments into the coarse record
        inc = obs_fine.increments
        coarse_inc = inc[0::2] + inc[1::2]
        obs_coarse = ObservationPath.from_increments(fine.times[::2], coarse_inc)

        b0 = GaussianBelief([0.0], [[1.0]])
        terminal_fine = run_kalman(model, obs_fine, b0)[-1].mean[0]
        terminal_coarse = run_kalman(model, obs_coarse, b0)[-1].mean[0]
        assert abs(terminal_fine - terminal_coarse) < 10 * 5e-4 + 1e-3

    def test_tracking_error_matches_conditional_variance(self):
        # R is the conditional MSE: time-averaged (xhat - X)^2 over many
        # replications within 10% of time-averaged R.  The replication
        # ensemble is advanced with a vectorized copy of the mean update,
        # verified against run_kalman below.
        model = scalar_model(F=-1.0)
        law = InitialLaw.gaussian([0.0], [[1.0]])
        dt, T, n = 1e-3, 5.0, 400
        steps = int(round(T / dt))
        times = np.arange(steps + 1) * dt

        gen = RngStream(70, 1).generator()
        X = np.empty((steps + 1, n))
        X[0] = law.sample(n, gen)[:, 0]
        for k in range(steps):
            X[k + 1] = X[k] - X[k] * dt + gen.standard_normal(n) * math.sqrt(dt)
        dY = X[:-1] * dt + RngStream(70, 2).generator().standard_normal((steps, n)) * math.sqrt(dt)

        # R_t does not depend on the record; take it from the production filter
        obs0 = zero_observation_path(steps, dt)
        r_series = np.array(
            [b.cov[0, 0] for b in run_kalman(model, obs0, GaussianBelief([0.0], [[1.0]]))]
        )

        xh = np.zeros(n)
        mse = np.empty(steps + 1)
        mse[0] = np.mean((xh - X[0]) ** 2)
        for k in range(steps):
            xh = xh + (-xh) * dt + r_series[k] * (dY[k] - xh * dt)
            mse[k + 1] = np.mean((xh - X[k + 1]) ** 2)
        ratio = mse.mean() / r_series.mean()
        assert abs(ratio - 1.0) < 0.10

        # the vectorized recursion reproduces run_kalman on single records
        for i in (0, n - 1):
            obs = ObservationPath.from_increments(times, dY[:, i : i + 1])
            beliefs = run_kalman(model, obs, GaussianBelief([0.0], [[1.0]]))
            xh_i = 0.0
            for k in range(steps):
                xh_i = xh_i + (-xh_i) * dt + r_series[k] * (dY[k, i] - xh_i * dt)
            assert abs(beliefs[-1].mean[0] - xh_i) < 1e-10

    def test_covariance_stays_symmetric_psd(self):
        model = LinearModel(
            F=[[-1.0, 0.3], [0.0, -0.5]],
            f0=[0.0, 0.0],
            sigma=np.eye(2),
            H=[[1.0, 0.0]],
            h0=[0.0],
        )
        law = InitialLaw.gaussian([0.0, 0.0], np.eye(2))
        truth = simulate_path(model.as_diffusion_model(law), 1.0, 1e-3, RngStream(8, 1))
        obs = simulate_observation(model.as_observation_model(), truth, RngStream(8, 2))
        beliefs = run_kalman(model, obs, GaussianBelief([0.0, 0.0], np.eye(2)))
        for b in beliefs:
            assert np.max(np.abs(b.cov - b.cov.T)) < 1e-10
            assert np.min(np.linalg.eigvalsh(b.cov)) >= -1e-10


class TestSteadyStateCov:
    def test_unit_root(self):
        assert abs(steady_state_cov(scalar_model())[0, 0] - 1.0) < 1e-6

    def test_quadratic_formula_root(self):
        model = scalar_model(F=-1.0, sigma=math.sqrt(2.0))
        expected = math.sqrt(3.0) - 1.0  # positive root of 2 - 2R - R^2
        assert abs(steady_state_cov(model)[0, 0] - expected) < 1e-6

    def test_two_dim_diagonal(self):
        model = LinearModel(F=-np.eye(2), f0=np.zeros(2), sigma=np.eye(2), H=np.eye(2), h0=np.zeros(2))
        expected = (math.sqrt(2.0) - 1.0) * np.eye(2)
        assert np.max(np.abs(steady_state_cov(model) - expected)) < 1e-6

    def test_residual_below_tolerance_at_output(self):
        model = scalar_model(F=-1.0, sigma=math.sqrt(2.0))
        R = steady_state_cov(model)
        assert np.max(np.abs(riccati_rhs(model, R))) < 1e-10

    def test_nonconvergence_raises(self):
        # undetectable and unstable: R grows without bound
        model = scalar_model(F=1.0, H=0.0)
        with pytest.raises(RiccatiConvergenceError):
            steady_state_cov(model, dt=1e-2, max_steps=2000)

    def test_riccati_matches_finite_differences(self):
        # dR/dt from the update rule equals the analytic right-hand side
        model = scalar_model(F=-1.0, sigma=math.sqrt(2.0))
        belief = GaussianBelief([0.0], [[0.5]])
        dt = 1e-5
        stepped = kalman_step(model, belief, [0.0], dt)
        fd = (stepped.cov - belief.cov) / dt
        assert abs(fd[0, 0] - riccati_rhs(model, belief.cov)[0, 0]) < 1e-8


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestDotPathCallbacks:
    """linear_drift and the linear sensor multiply with np.dot; at d = 1 each
    entry is one product, so the bits must equal ``x @ M.T + c``."""

    @settings(max_examples=80, deadline=None)
    @given(
        x=hnp.arrays(np.float64, st.tuples(st.integers(1, 400), st.just(1)), elements=_FINITE),
        coef=_FINITE,
        offset=_FINITE,
    )
    def test_equal_to_matmul_at_d1(self, x, coef, offset):
        M, c = np.array([[coef]]), np.array([offset])
        drift = linear_drift(M, c)
        sensor = scalar_model(F=-1.0, H=coef, h0=offset).as_observation_model().sensor
        with np.errstate(over="ignore", invalid="ignore"):
            expected = x @ M.T + c
            for f in (drift, sensor):
                assert np.array_equal(f(x), expected, equal_nan=True)
                # one state, and states stacked on two leading axes
                assert np.array_equal(f(x[0]), x[0] @ M.T + c, equal_nan=True)
                stacked = np.stack([x, -x])
                assert np.array_equal(f(stacked), stacked @ M.T + c, equal_nan=True)
