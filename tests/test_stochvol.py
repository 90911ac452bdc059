import math

import numpy as np
import pytest
from scipy.integrate import quad

from ksplab import _kernels
from ksplab import (
    CallSpec,
    HestonModel,
    InitialLaw,
    ParticleEnsemble,
    RngStream,
    bs_call_price,
    filtered_option_price,
    heston_filter,
    realized_qv,
    simulate_heston,
    vol_recovery,
)


def default_heston(**overrides):
    params = dict(kappa=2.0, m=0.04, gamma=0.3, mu=0.05, x0=0.04, s0=100.0)
    params.update(overrides)
    return HestonModel(**params)


def point_ensemble(x0, n=2):
    return ParticleEnsemble(
        positions=np.full((n, 1), float(x0)),
        log_weights=np.full(n, -math.log(n)),
        normalized=True,
    )


class TestSimulateHeston:
    def test_deterministic_variance_ode(self):
        # gamma = 0: X solves the linear ODE m + (x0 - m) exp(-kappa t)
        model = default_heston(kappa=1.0, gamma=0.0, x0=0.09)
        paths = simulate_heston(model, 1.0, 1e-4, RngStream(0))
        expected = 0.04 + 0.05 * math.exp(-1.0)
        assert abs(paths.variance[-1] - expected) < 1e-4

    def test_frozen_variance(self):
        model = default_heston(kappa=0.0, gamma=0.0, x0=0.07)
        paths = simulate_heston(model, 0.5, 1e-3, RngStream(1))
        assert np.all(paths.variance == 0.07)

    def test_zero_variance_freezes_price(self):
        model = default_heston(kappa=0.0, gamma=0.0, m=0.0, mu=0.0, x0=0.0)
        paths = simulate_heston(model, 0.5, 1e-3, RngStream(2))
        assert np.all(paths.log_price == paths.log_price[0])
        assert np.all(paths.price == paths.price[0])

    def test_variance_nonnegative_and_price_consistent(self):
        model = default_heston(gamma=0.9)  # Feller violated on purpose
        paths = simulate_heston(model, 1.0, 1e-4, RngStream(3))
        assert np.all(paths.variance >= 0.0)
        assert np.max(np.abs(np.log(paths.price) - paths.log_price)) < 1e-12

    def test_reproducible(self):
        model = default_heston()
        a = simulate_heston(model, 0.3, 1e-4, RngStream(4, 2))
        b = simulate_heston(model, 0.3, 1e-4, RngStream(4, 2))
        assert np.array_equal(a.log_price, b.log_price)

    def test_ito_drift_regression_slope(self):
        # regress dY on (mu - X/2) dt: slope 1 within 3 standard errors
        model = default_heston()
        paths = simulate_heston(model, 1.0, 1e-5, RngStream(5))
        dy = np.diff(paths.log_price)
        xp = np.maximum(paths.variance[:-1], 0.0)
        d = (model.mu - 0.5 * xp) * 1e-5
        slope = float(d @ dy / (d @ d))
        resid = dy - slope * d
        se = math.sqrt(float(resid @ resid) / (len(d) - 1) / float(d @ d))
        assert abs(slope - 1.0) < 3 * se


class TestRealizedQv:
    def test_constant_path_zero(self):
        qv = realized_qv(np.full(100, 3.7))
        assert np.all(qv == 0.0)

    def test_nondecreasing(self):
        y = RngStream(6).generator().standard_normal(1000).cumsum()
        qv = realized_qv(y)
        assert np.all(np.diff(qv) >= 0.0)
        assert qv[0] == 0.0

    def test_constant_vol_matches_integrated_variance(self):
        # z = 0.2 frozen: QV_T averaged over 50 seeds within 5% of 0.04
        model = default_heston(kappa=0.0, gamma=0.0, x0=0.04)
        terminals = []
        for seed in range(50):
            paths = simulate_heston(model, 1.0, 1e-5, RngStream(100 + seed))
            terminals.append(realized_qv(paths.log_price)[-1])
        assert abs(np.mean(terminals) - 0.04) < 0.05 * 0.04


class TestVolRecovery:
    def test_linear_qv_recovers_constant(self):
        qv = 0.3 * np.arange(500) * 1e-3
        rec = vol_recovery(qv, 50, 1e-3)
        assert np.max(np.abs(rec - 0.3)) < 1e-12

    def test_heston_recovery_within_10pct(self):
        model = default_heston()
        paths = simulate_heston(model, 1.0, 1e-5, RngStream(7))
        rec = vol_recovery(realized_qv(paths.log_price), 1000, 1e-5)
        rel = np.mean(np.abs(rec - paths.variance)) / np.mean(paths.variance)
        assert rel <= 0.10

    def test_refinement_does_not_inflate_variance(self):
        # same window time at twice the resolution: error variance improves
        model = default_heston(kappa=0.0, gamma=0.0, x0=0.04)

        def error_variance(dt, window, seed):
            paths = simulate_heston(model, 1.0, dt, RngStream(seed))
            rec = vol_recovery(realized_qv(paths.log_price), window, dt)
            return float(np.var(rec - 0.04))

        base = error_variance(1e-4, 100, 8)
        refined = error_variance(5e-5, 200, 9)
        assert refined <= 2.0 * base

    def test_window_validation(self):
        with pytest.raises(ValueError):
            vol_recovery(np.zeros(10), 1, 0.1)
        with pytest.raises(ValueError):
            vol_recovery(np.zeros(10), 10, 0.1)


def quad_norm_cdf(z):
    # independent normal CDF: quadrature of the density, not erf
    val, _ = quad(lambda u: math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi), -12.0, z)
    return val


def quad_bs_price(spot, strike, rate, tau, total_var):
    if total_var == 0.0:
        return max(spot - strike * math.exp(-rate * tau), 0.0)
    sd = math.sqrt(total_var)
    d1 = (math.log(spot / strike) + rate * tau + 0.5 * total_var) / sd
    return spot * quad_norm_cdf(d1) - strike * math.exp(-rate * tau) * quad_norm_cdf(d1 - sd)


class TestBsCallPrice:
    def test_vanishing_strike_limit(self):
        spec = CallSpec(strike=1e-10, maturity=1.0)
        assert abs(bs_call_price(100.0, spec, 0.04) - 100.0) < 1e-7

    def test_zero_variance_intrinsic(self):
        spec = CallSpec(strike=100.0, maturity=1.0)
        assert bs_call_price(90.0, spec, 0.0) == 0.0
        assert bs_call_price(110.0, spec, 0.0) == 10.0

    def test_benchmark_value_against_quadrature_oracle(self):
        # S = K = 100, Z = 0.04, tau = 1, r = 0
        spec = CallSpec(strike=100.0, maturity=1.0)
        ours = bs_call_price(100.0, spec, 0.04)
        oracle = quad_bs_price(100.0, 100.0, 0.0, 1.0, 0.04)
        assert abs(oracle - 7.9656) < 1e-4
        assert abs(ours - oracle) < 1e-9

    def test_monotone_in_variance_and_spot(self):
        spec = CallSpec(strike=100.0, maturity=2.0, rate=0.01)
        spots = np.linspace(50.0, 150.0, 11)
        zs = np.linspace(0.0, 0.25, 11)
        for z in zs:
            prices = [bs_call_price(s, spec, z) for s in spots]
            assert np.all(np.diff(prices) >= -1e-10)
        for s in spots:
            prices = [bs_call_price(s, spec, z) for z in zs]
            assert np.all(np.diff(prices) >= -1e-10)

    def test_no_arbitrage_lower_bound(self):
        spec = CallSpec(strike=80.0, maturity=1.5, rate=0.02)
        intrinsic = lambda s: max(s - 80.0 * math.exp(-0.02 * 1.5), 0.0)
        for s in (40.0, 79.0, 81.0, 160.0):
            for z in (0.0, 0.01, 0.2):
                assert bs_call_price(s, spec, z) >= intrinsic(s) - 1e-10

    def test_negative_inputs_rejected(self):
        spec = CallSpec(strike=100.0, maturity=1.0)
        with pytest.raises(ValueError):
            bs_call_price(-1.0, spec, 0.04)
        with pytest.raises(ValueError):
            bs_call_price(100.0, spec, -0.04)
        with pytest.raises(ValueError):
            CallSpec(strike=-5.0, maturity=1.0)


class TestFilteredOptionPrice:
    def test_constant_variance_reduction_exact(self):
        # kappa = gamma = 0: every inner path is frozen at x0
        model = default_heston(kappa=0.0, gamma=0.0, x0=0.04, mu=0.0)
        spec = CallSpec(strike=100.0, maturity=1.0)
        price = filtered_option_price(point_ensemble(0.04), model, spec, 100.0, 8, RngStream(10))
        assert abs(price - bs_call_price(100.0, spec, 0.04)) <= 1e-6

    def test_deterministic_variance_reduction_euler_rate(self):
        # gamma = 0, kappa > 0: the only error is the O(dt) inner quadrature
        model = default_heston(kappa=1.0, gamma=0.0, x0=0.09, mu=0.0)
        spec = CallSpec(strike=100.0, maturity=1.0)
        z = model.m + (model.x0 - model.m) * (1 - math.exp(-1.0))
        direct = bs_call_price(100.0, spec, z)
        price = filtered_option_price(
            point_ensemble(0.09), model, spec, 100.0, 4, RngStream(11), inner_dt=1e-3
        )
        assert abs(price - direct) < 2e-3

    def test_two_atom_mixture(self):
        model = default_heston(kappa=0.0, gamma=0.0, mu=0.0)
        spec = CallSpec(strike=100.0, maturity=1.0)
        ens = ParticleEnsemble(
            positions=np.array([[0.01], [0.09]]),
            log_weights=np.full(2, -math.log(2.0)),
            normalized=True,
        )
        price = filtered_option_price(ens, model, spec, 100.0, 8, RngStream(12))
        direct = 0.5 * (bs_call_price(100.0, spec, 0.01) + bs_call_price(100.0, spec, 0.09))
        assert abs(price - direct) <= 1e-6

    def test_inner_doubling_within_mc_error(self):
        model = default_heston()
        spec = CallSpec(strike=100.0, maturity=1.0)
        law = InitialLaw.gaussian([0.04], [[0.0001]])
        positions = np.abs(law.sample(100, RngStream(13).generator()))
        ens = ParticleEnsemble(
            positions=positions, log_weights=np.full(100, -math.log(100.0)), normalized=True
        )
        reps = [
            filtered_option_price(ens, model, spec, 100.0, 32, RngStream(14, r), inner_dt=5e-3)
            for r in range(8)
        ]
        doubled = filtered_option_price(ens, model, spec, 100.0, 64, RngStream(15), inner_dt=5e-3)
        # error of the difference: one run at n, one at 2n (half the variance)
        se_diff = np.std(reps, ddof=1) * math.sqrt(1.0 + 0.5)
        assert abs(doubled - np.mean(reps)) <= 2 * se_diff

    def test_deterministic_given_stream(self):
        model = default_heston()
        spec = CallSpec(strike=100.0, maturity=1.0)
        ens = point_ensemble(0.05, n=3)
        a = filtered_option_price(ens, model, spec, 100.0, 16, RngStream(16, 4))
        b = filtered_option_price(ens, model, spec, 100.0, 16, RngStream(16, 4))
        assert a == b


def per_particle_price(ens, model, spec, spot, inner_paths, rng, t_now=0.0, inner_dt=None):
    """Reference: one kernel call per particle, on the particle's own substream."""
    tau = spec.maturity - t_now
    inner_dt = tau / 200 if inner_dt is None else inner_dt
    n_steps = int(np.ceil(tau / inner_dt - 1e-9))
    dt = tau / n_steps
    half = (inner_paths + 1) // 2
    prices = np.empty(ens.n)
    for i, x0 in enumerate(ens.positions[:, 0]):
        z = rng.substream(i).generator().standard_normal((n_steps, half)) * np.sqrt(dt)
        db = np.concatenate([z, -z], axis=1)[:, :inner_paths]
        x, _ = _kernels.heston_paths(
            np.full(inner_paths, float(x0)), np.zeros(inner_paths), db, np.zeros_like(db),
            dt, model.kappa, model.m, model.gamma, 0.0,
        )
        zbar = float(np.mean(np.sum(np.maximum(x[:-1], 0.0), axis=0) * dt / tau))
        prices[i] = bs_call_price(spot, spec, zbar, t_now)
    return float(ens.weights @ prices)


class TestBatchedInnerMonteCarlo:
    """The chunked inner Monte Carlo equals per-particle evaluation bit for bit."""

    @pytest.mark.parametrize(
        "n, inner_paths, t_now, inner_dt",
        [
            (200, 64, 0.0, None),  # several 4-particle chunks
            (7, 64, 0.0, None),  # a particle count that is no multiple of the chunk
            (80, 7, 0.0, None),  # odd path count: the antithetic block is cut
            (3, 300, 0.0, None),  # more paths than a chunk's columns: one particle each
            (25, 16, 0.3, 1e-2),  # explicit inner step after the valuation time
        ],
    )
    def test_equals_per_particle_reference(self, n, inner_paths, t_now, inner_dt):
        # gamma large enough that the inner paths hit the truncation at zero
        model = default_heston(kappa=1.5, m=0.04, gamma=0.6)
        spec = CallSpec(strike=95.0, maturity=1.0, rate=0.01)
        gen = RngStream(21, n).generator()
        positions = gen.uniform(0.0, 0.12, (n, 1))
        w = gen.uniform(0.1, 1.0, n)
        ens = ParticleEnsemble(positions=positions, log_weights=np.log(w / w.sum()), normalized=True)
        args = (ens, model, spec, 101.0, inner_paths, RngStream(22, n))
        kwargs = dict(t_now=t_now, inner_dt=inner_dt)
        assert filtered_option_price(*args, **kwargs) == per_particle_price(*args, **kwargs)


class TestHestonFilter:
    def test_gamma_zero_tracks_ode(self):
        # deterministic variance: posterior mean within 1% of the ODE path
        # after a burn-in of 0.1 T
        model = default_heston(kappa=3.0, gamma=0.0, x0=0.09)
        dt, horizon = 1e-4, 3.0
        paths = simulate_heston(model, horizon, dt, RngStream(20, 1))
        est = heston_filter(model, paths.log_price, dt, 4000, RngStream(20, 2))
        ode = model.m + (model.x0 - model.m) * np.exp(-model.kappa * est.times)
        burn = est.times.size // 10
        rel = np.mean(np.abs(est.moments["x"][burn:] - ode[burn:])) / np.mean(ode[burn:])
        assert rel <= 0.01

    def test_posterior_tracks_recovery(self):
        # two independent estimates of the same realized variance path
        model = default_heston()
        dt = 1e-5
        paths = simulate_heston(model, 1.0, dt, RngStream(21, 1))
        rec = vol_recovery(realized_qv(paths.log_price), 1000, dt)
        stride = 10
        est = heston_filter(model, paths.log_price[::stride], dt * stride, 2000, RngStream(21, 2))
        burn = est.times.size // 10
        rel = np.mean(np.abs(est.moments["x"][burn:] - rec[::stride][burn:])) / np.mean(
            rec[::stride][burn:]
        )
        assert rel <= 0.15

    def test_uninformative_record_keeps_mutation_variance(self):
        # increments equal to their model mean: the posterior variance must
        # not collapse below the one-step mutation injection
        model = default_heston(x0=0.05)
        dt, n = 1e-3, 400
        times = np.arange(n + 1) * dt
        x_ode = model.m + (model.x0 - model.m) * np.exp(-model.kappa * times[:-1])
        y = np.concatenate([[0.0], np.cumsum((model.mu - 0.5 * x_ode) * dt)])
        est = heston_filter(model, y, dt, 2000, RngStream(22))
        post_var = est.moments["x2"] - est.moments["x"] ** 2
        floor = 0.5 * model.gamma**2 * est.moments["x"] * dt
        assert np.all(post_var[1:] >= floor[1:])

    def test_snapshots_are_posteriors(self):
        model = default_heston()
        paths = simulate_heston(model, 0.1, 1e-3, RngStream(23, 1))
        est, snaps = heston_filter(
            model, paths.log_price, 1e-3, 500, RngStream(23, 2), snapshot_indices=[0, 50]
        )
        assert set(snaps) == {0, 50}
        for k, ens in snaps.items():
            mean = float(ens.weights @ ens.positions[:, 0])
            assert abs(mean - est.moments["x"][k]) < 1e-12
