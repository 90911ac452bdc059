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
    linear_drift,
    martingale_residual,
    simulate_ensemble,
    simulate_path,
    wiener_increments,
)

from conftest import (
    brownian_motion,
    deterministic_model,
    identity_sensor,
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


def parent_simulate_path(model, horizon, dt, rng):
    """In-test copy of simulate_path's own loop before it ran the ensemble
    stepper: one (n, q) increment block drawn up front, sigma dV summed by @."""
    from ksplab.sde import _n_steps

    n = _n_steps(horizon, dt)
    gen = rng.generator()
    x0 = model.initial_law.sample(1, gen)[0]
    model.validate_at(x0)
    q = model.noise_dim(x0)
    dv = gen.standard_normal((n, q)) * np.sqrt(dt)
    states = np.empty((n + 1, model.dim_state))
    states[0] = x0
    x = x0
    for k in range(n):
        sig = np.asarray(model.diffusion_factor(x))
        x = x + np.asarray(model.drift(x)) * dt + sig @ dv[k]
        if not np.all(np.isfinite(x)):
            raise SimulationDivergenceError(k + 1)
        states[k + 1] = x
    return np.arange(n + 1) * dt, states


def linear_model(F, sigma, mean, cov):
    """dX = F X dt + sigma dV with a Gaussian start."""
    return DiffusionModel(
        dim_state=len(mean),
        drift=linear_drift(F, np.zeros(len(mean))),
        diffusion_factor=constant_diffusion(sigma),
        initial_law=InitialLaw.gaussian(mean, cov),
    )


def coupled_one_noise():
    return linear_model([[-1.0, 0.5], [0.0, -2.0]], [[0.3], [1.0]], [0.1, -0.2], np.eye(2))


def coupled_three_noises():
    sigma = [[0.3, 0.1, -0.2], [0.05, 0.7, 0.4]]
    return linear_model([[-1.0, 0.3], [-0.2, -0.5]], sigma, [0.2, 0.1], np.eye(2))


class TestSimulatePathIsOnePathEnsemble:
    """simulate_path is simulate_ensemble with one path.  With one noise
    (q = 1) it keeps the bits of its own old loop; with q >= 2 sigma dV is
    summed by einsum instead of @, within 1e-15 of the old loop."""

    @pytest.mark.parametrize(
        "make_model, horizon, dt",
        [
            (brownian_motion, 1.0, 0.01),
            (ornstein_uhlenbeck, 1.0, 1 / 256),
            (lambda: ornstein_uhlenbeck(theta=2.0, x0=0.5), 0.25, 0.25),  # one step
            (coupled_one_noise, 1.0, 1e-3),
        ],
    )
    def test_one_noise_keeps_old_bits(self, make_model, horizon, dt):
        model = make_model()
        path = simulate_path(model, horizon, dt, RngStream(62, 1))
        times, states = parent_simulate_path(model, horizon, dt, RngStream(62, 1))
        assert np.array_equal(path.times, times)
        assert np.array_equal(path.states, states)

    @pytest.mark.parametrize("make_model", [planar_model, coupled_three_noises])
    def test_several_noises_equal_one_path_ensemble(self, make_model):
        model = make_model()
        path = simulate_path(model, 1.0, 1e-3, RngStream(63, 1))
        times, states = simulate_ensemble(model, 1, 1.0, 1e-3, RngStream(63, 1))
        assert np.array_equal(path.times, times)
        assert np.array_equal(path.states, states[:, 0])
        _, old = parent_simulate_path(model, 1.0, 1e-3, RngStream(63, 1))
        assert np.max(np.abs(path.states - old)) <= 1e-15

    def test_divergence_at_same_step_as_old_loop(self):
        model = deterministic_model(lambda x: np.asarray(x, dtype=float) ** 3, 10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationDivergenceError) as ref:
                parent_simulate_path(model, 5.0, 0.5, RngStream(0))
            with pytest.raises(SimulationDivergenceError) as err:
                simulate_path(model, 5.0, 0.5, RngStream(0))
        assert err.value.step == ref.value.step >= 1


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


def _stacked_b(sig):
    return sig @ np.swapaxes(sig, -1, -2)


def _with_factor(factor, d):
    return DiffusionModel(
        dim_state=d,
        drift=lambda x: -np.asarray(x, dtype=float),
        diffusion_factor=factor,
        initial_law=InitialLaw.point_mass(np.zeros(d)),
    )


class TestDiffusionMatrix:
    """A broadcast constant factor is multiplied once; the bits must be the stacked matmul's."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_broadcast_constant_equals_stacked_matmul(self, d, q):
        rng = np.random.default_rng(100 * d + q)
        for _ in range(10):
            sigma = rng.normal(size=(d, q)) * rng.lognormal(size=(d, 1))
            factor = constant_diffusion(sigma)
            model = _with_factor(factor, d)
            for lead in [(7,), (3, 5), (1,)]:
                x = rng.normal(size=lead + (d,))
                b = model.diffusion_matrix(x)
                expected = _stacked_b(np.asarray(factor(x)))
                assert b.shape == lead + (d, d)
                assert np.array_equal(b, expected)
                assert not b.flags.writeable  # a view of the one product

    def test_state_dependent_factor_takes_stacked_path(self):
        factor = lambda x: np.asarray(x)[..., :, None] * np.array([[1.0, 0.5], [0.2, -1.0]])
        model = _with_factor(factor, 2)
        x = np.random.default_rng(5).normal(size=(6, 2))
        b = model.diffusion_matrix(x)
        assert np.array_equal(b, _stacked_b(factor(x)))
        assert b.flags.writeable

    def test_single_state_is_plain_matmul(self):
        sigma = np.array([[1.0, 0.3], [0.0, 2.0]])
        b = _with_factor(constant_diffusion(sigma), 2).diffusion_matrix([0.1, 0.2])
        assert np.array_equal(b, sigma @ sigma.T)
        assert b.flags.writeable

    def test_zero_length_leading_axis(self):
        model = _with_factor(constant_diffusion(np.ones((2, 3))), 2)
        b = model.diffusion_matrix(np.empty((0, 2)))
        assert b.shape == (0, 2, 2)

    def test_dependent_results_unchanged(self):
        # the same constant factor copied into a fresh array takes the stacked
        # path; every consumer must get the same bits from both models
        from ksplab.filters import GridDensity, _grid_stepper, stability_dt_bound
        from ksplab.sde import generator_values

        factor = constant_diffusion([[0.8]])
        fast = _with_factor(factor, 1)
        stacked = _with_factor(lambda x: np.array(factor(x)), 1)
        nodes = np.linspace(-4.0, 4.0, 161)
        x = nodes[:, None]
        assert np.array_equal(fast.diffusion_matrix(x), stacked.diffusion_matrix(x))
        for model in (fast, stacked):
            model.validate_at(x[:8])
        dens = GridDensity(nodes, np.exp(-0.5 * nodes**2))
        bound = stability_dt_bound(dens, fast)
        assert bound == stability_dt_bound(dens, stacked)
        grad, hess = (lambda y: 2 * y), (lambda y: 2 * np.ones(y.shape + (1,)))
        assert np.array_equal(
            generator_values(fast, grad, hess, x), generator_values(stacked, grad, hess, x)
        )
        p_fast, p_stacked = (
            _grid_stepper(m, identity_sensor(), nodes, 0.5 * bound, 1e-8)(dens.values, 0.01, 3)
            for m in (fast, stacked)
        )
        assert np.array_equal(p_fast, p_stacked)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_validate_at_still_rejects_non_finite_constant(self, bad):
        model = _with_factor(constant_diffusion([[1.0, 0.0], [bad, 1.0]]), 2)
        with pytest.raises(ValueError, match="finite"):
            model.validate_at(np.zeros((8, 2)))


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
