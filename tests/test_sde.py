import math

import numpy as np
import pytest
import sympy

from ksplab import (
    DiffusionModel,
    InitialLaw,
    RngStream,
    SimulationDivergenceError,
    apply_generator,
    constant_diffusion,
    ensemble_martingale_residuals,
    fd_grad,
    fd_hess,
    martingale_residual,
    simulate_ensemble,
    simulate_path,
    wiener_increments,
)

from conftest import (
    brownian_motion,
    deterministic_model,
    ornstein_uhlenbeck,
    planar_model,
    stored_euler_ensemble,
)


class TestWienerIncrements:
    def test_mean_over_many_streams(self):
        # one N(0,1) draw per stream; CLT bound 3/sqrt(N)
        n = 1_000_000
        vals = np.empty(n)
        for i in range(n):
            vals[i] = wiener_increments(1.0, 1, 1, RngStream(2024, i))[0, 0]
        assert abs(vals.mean()) < 3e-3

    def test_variance_matches_dt(self):
        draws = wiener_increments(0.25, 1_000_000, 1, RngStream(7))
        assert abs(np.var(draws) - 0.25) < 0.01 * 0.25

    def test_deterministic_given_stream(self):
        a = wiener_increments(0.1, 50, 3, RngStream(9, 4))
        b = wiener_increments(0.1, 50, 3, RngStream(9, 4))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = wiener_increments(0.1, 50, 3, RngStream(9, 4))
        b = wiener_increments(0.1, 50, 3, RngStream(9, 5))
        assert not np.array_equal(a, b)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            wiener_increments(0.0, 1, 1, RngStream(0))
        with pytest.raises(ValueError):
            wiener_increments(-1.0, 1, 1, RngStream(0))


class TestSimulatePath:
    def test_no_dynamics_constant_path(self):
        model = DiffusionModel(
            dim_state=1,
            drift=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            diffusion_factor=constant_diffusion([[0.0]]),
            initial_law=InitialLaw.point_mass([1.0]),
        )
        path = simulate_path(model, 1.0, 0.1, RngStream(0))
        assert np.array_equal(path.states, np.ones((11, 1)))

    def test_unit_drift_integrates_exactly(self):
        model = deterministic_model(lambda x: np.ones_like(np.asarray(x, dtype=float)), 0.0)
        path = simulate_path(model, 1.0, 0.01, RngStream(0))
        assert abs(path.states[-1, 0] - 1.0) < 1e-12

    def test_exponential_growth_oracle(self):
        # exact ODE x' = x, x(0)=1 has x(1) = e
        model = deterministic_model(lambda x: np.asarray(x, dtype=float), 1.0)
        path = simulate_path(model, 1.0, 1e-4, RngStream(0))
        assert abs(path.states[-1, 0] - math.e) / math.e < 2e-4

    def test_path_shape_and_grid(self):
        model = brownian_motion()
        path = simulate_path(model, 1.0, 0.3, RngStream(5))
        assert path.states.shape == (5, 1)  # ceil(1/0.3)+1
        assert path.times[0] == 0.0

    def test_reproducible(self):
        model = ornstein_uhlenbeck()
        a = simulate_path(model, 1.0, 0.01, RngStream(3, 1))
        b = simulate_path(model, 1.0, 0.01, RngStream(3, 1))
        assert np.array_equal(a.states, b.states)

    def test_divergence_names_step(self):
        model = deterministic_model(lambda x: np.asarray(x, dtype=float) ** 3, 10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationDivergenceError) as err:
                simulate_path(model, 5.0, 0.5, RngStream(0))
        assert err.value.step >= 1

    def test_invalid_horizon_dt(self):
        model = brownian_motion()
        with pytest.raises(ValueError):
            simulate_path(model, -1.0, 0.1, RngStream(0))
        with pytest.raises(ValueError):
            simulate_path(model, 1.0, 2.0, RngStream(0))


class TestApplyGenerator:
    def test_driftfree_constant_hessian(self):
        # b = 2 everywhere, f = x^2: A f = 2
        model = DiffusionModel(
            dim_state=1,
            drift=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            diffusion_factor=constant_diffusion([[math.sqrt(2.0)]]),
            initial_law=InitialLaw.point_mass([0.0]),
        )
        for x in (-3.0, 0.0, 1.7):
            val = apply_generator(model, lambda x: 2 * x, lambda x: 2 * np.eye(1), [x])
            assert abs(val - 2.0) < 1e-14

    def test_pure_transport(self):
        model = deterministic_model(lambda x: np.asarray(x, dtype=float), 0.0)
        val = apply_generator(model, lambda x: 2 * x, lambda x: 2 * np.eye(1), [3.0])
        assert abs(val - 18.0) < 1e-12

    def test_against_symbolic_oracle(self):
        # OU drift -x, b = 1, f = x^2 at x = 2: sympy computes a f' + b f''/2
        xs = sympy.Symbol("x")
        f = xs**2
        expected = float((-xs * sympy.diff(f, xs) + sympy.Rational(1, 2) * sympy.diff(f, xs, 2)).subs(xs, 2))
        model = ornstein_uhlenbeck()
        val = apply_generator(model, lambda x: 2 * x, lambda x: 2 * np.eye(1), [2.0])
        assert abs(val - expected) < 1e-12
        assert expected == -7.0

    def test_linearity_in_f(self):
        # A(alpha f + beta g) = alpha A f + beta A g for f = x^2, g = x^3
        model = ornstein_uhlenbeck()
        alpha, beta = 2.0, -0.7
        f = (lambda x: 2 * x, lambda x: 2 * np.eye(1))
        g = (lambda x: 3 * x**2, lambda x: 6 * x[0] * np.eye(1))
        for x in np.random.default_rng(11).normal(size=5):
            a_f = apply_generator(model, *f, [x])
            a_g = apply_generator(model, *g, [x])
            a_combo = apply_generator(
                model,
                lambda y: alpha * 2 * y + beta * 3 * y**2,
                lambda y: alpha * 2 * np.eye(1) + beta * 6 * y[0] * np.eye(1),
                [x],
            )
            assert abs(a_combo - (alpha * a_f + beta * a_g)) < 1e-12

    def test_dimension_mismatch_rejected(self):
        model = ornstein_uhlenbeck()
        with pytest.raises(ValueError):
            apply_generator(model, lambda x: np.ones(2), lambda x: np.eye(1), [1.0])
        with pytest.raises(ValueError):
            apply_generator(model, lambda x: np.ones(1), lambda x: np.eye(3), [1.0])

    def test_finite_difference_fallback(self):
        f = lambda x: float(np.sin(x[0]) * x[1] ** 2)
        x = np.array([0.3, -1.2])
        g = fd_grad(f, x)
        h = fd_hess(f, x)
        assert abs(g[0] - math.cos(0.3) * 1.44) < 1e-8
        assert abs(g[1] - math.sin(0.3) * -2.4) < 1e-8
        assert abs(h[0, 1] - math.cos(0.3) * -2.4) < 1e-6
        assert abs(h[1, 1] - 2 * math.sin(0.3)) < 1e-6


def _poly_callbacks(degree):
    if degree == 1:
        return (
            lambda x: x[..., 0],
            lambda x: np.ones_like(np.asarray(x, dtype=float)),
            lambda x: np.zeros(np.asarray(x).shape + (1,)),
        )
    if degree == 2:
        return (
            lambda x: x[..., 0] ** 2,
            lambda x: 2 * np.asarray(x, dtype=float),
            lambda x: 2 * np.ones(np.asarray(x).shape + (1,)),
        )
    return (
        lambda x: x[..., 0] ** 3,
        lambda x: 3 * np.asarray(x, dtype=float) ** 2,
        lambda x: 6 * np.asarray(x, dtype=float)[..., None],
    )


class TestMartingaleResidual:
    def test_constant_function_zero(self):
        model = brownian_motion()
        path = simulate_path(model, 1.0, 0.05, RngStream(1))
        res = martingale_residual(
            model,
            lambda x: 4.2,
            lambda x: np.zeros(1),
            lambda x: np.zeros((1, 1)),
            path,
        )
        assert res == 0.0

    def test_identity_on_bm_is_terminal_noise(self):
        # A x = 0 for BM, so the residual equals W_T; MC mean within 3 se
        model = brownian_motion()
        n = 100_000
        _, states = simulate_ensemble(model, n, 1.0, 0.01, RngStream(21))
        f, g, h = _poly_callbacks(1)
        res = ensemble_martingale_residuals(model, f, g, h, states, 0.01)
        assert abs(res.mean()) < 3.0 * math.sqrt(1.0) / math.sqrt(n)

    def test_square_on_bm_chi_square_oracle(self):
        # residual = W_T^2 - T with variance 2 T^2
        model = brownian_motion()
        n = 100_000
        T = 1.0
        _, states = simulate_ensemble(model, n, T, 0.01, RngStream(22))
        f, g, h = _poly_callbacks(2)
        res = ensemble_martingale_residuals(model, f, g, h, states, 0.01)
        assert abs(res.mean()) < 3.0 * math.sqrt(2.0) * T / math.sqrt(n)

    def test_batch_matches_single_path(self):
        model = ornstein_uhlenbeck()
        path = simulate_path(model, 0.5, 0.05, RngStream(33))
        f, g, h = _poly_callbacks(2)
        batch = ensemble_martingale_residuals(
            model, f, g, h, path.states[:, None, :], 0.05
        )[0]
        single = martingale_residual(
            model,
            lambda x: float(x[0] ** 2),
            lambda x: 2 * x,
            lambda x: 2 * np.eye(1),
            path,
        )
        assert abs(batch - single) < 1e-10

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("make_model", [brownian_motion, ornstein_uhlenbeck])
    def test_martingale_property_polynomials(self, degree, make_model):
        # spec invariant: polynomials up to cubic stay within 3 standard errors
        model = make_model()
        n = 20_000
        _, states = simulate_ensemble(model, n, 1.0, 0.01, RngStream(40 + degree))
        f, g, h = _poly_callbacks(degree)
        res = ensemble_martingale_residuals(model, f, g, h, states, 0.01)
        stderr = res.std(ddof=1) / math.sqrt(n)
        assert abs(res.mean()) < 3.0 * stderr


class TestEnsembleStepper:
    """``simulate_ensemble`` stores what the shared stepper yields; pin it to
    the store-as-you-step reference bit for bit."""

    @pytest.mark.parametrize(
        "make_model, horizon, dt",
        [
            (brownian_motion, 1.0, 0.01),
            (ornstein_uhlenbeck, 1.0, 1 / 256),
            (planar_model, 0.5, 0.01),
            (ornstein_uhlenbeck, 0.25, 0.25),  # one-step horizon
        ],
    )
    def test_states_equal_stored_reference(self, make_model, horizon, dt):
        model = make_model()
        times, states = simulate_ensemble(model, 500, horizon, dt, RngStream(61, 3))
        ref_times, ref_states = stored_euler_ensemble(model, 500, horizon, dt, RngStream(61, 3))
        assert np.array_equal(times, ref_times)
        assert states.shape == ref_states.shape
        assert np.array_equal(states, ref_states)

    def test_divergence_at_same_step_as_reference(self):
        model = deterministic_model(lambda x: np.asarray(x, dtype=float) ** 3, 10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationDivergenceError) as ref:
                stored_euler_ensemble(model, 4, 5.0, 0.5, RngStream(0))
            with pytest.raises(SimulationDivergenceError) as err:
                simulate_ensemble(model, 4, 5.0, 0.5, RngStream(0))
        assert err.value.step == ref.value.step >= 1


class TestWeakEulerConsistency:
    def test_ou_mean_matches_exponential_decay(self):
        theta, x0, T, dt = 1.0, 1.0, 1.0, 0.01
        model = ornstein_uhlenbeck(theta=theta, x0=x0)
        n = 100_000
        _, states = simulate_ensemble(model, n, T, dt, RngStream(55))
        terminal = states[-1, :, 0]
        stderr = terminal.std(ddof=1) / math.sqrt(n)
        bias_bound = 2 * dt
        assert abs(terminal.mean() - x0 * math.exp(-theta * T)) < 3 * stderr + bias_bound


class TestInitialLaw:
    def test_point_mass_copies(self):
        law = InitialLaw.point_mass([2.0, -1.0])
        draws = law.sample(4, RngStream(0).generator())
        assert np.array_equal(draws, np.tile([2.0, -1.0], (4, 1)))

    def test_gaussian_requires_pd(self):
        with pytest.raises(ValueError):
            InitialLaw.gaussian([0.0], [[-1.0]])

    def test_gaussian_moments(self):
        law = InitialLaw.gaussian([1.0], [[4.0]])
        draws = law.sample(200_000, RngStream(1).generator())
        assert abs(draws.mean() - 1.0) < 3 * 2.0 / math.sqrt(200_000)
        assert abs(draws.var() - 4.0) < 0.05

    def test_empirical_weight_validation(self):
        with pytest.raises(ValueError):
            InitialLaw.empirical([[0.0], [1.0]], [0.6, 0.5])
        with pytest.raises(ValueError):
            InitialLaw.empirical([[0.0], [1.0]], [-0.1, 1.1])

    def test_empirical_degenerate_weight(self):
        law = InitialLaw.empirical([[0.0], [1.0]], [1.0, 0.0])
        draws = law.sample(50, RngStream(2).generator())
        assert np.array_equal(draws, np.zeros((50, 1)))
