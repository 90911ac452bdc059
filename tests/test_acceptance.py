"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s``) and
asserts the criterion.  Run:

    pytest tests/test_acceptance.py -v
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad

from ksplab import (
    CallSpec,
    DistributionVector,
    GaussianBelief,
    GridDensity,
    HestonModel,
    InitialLaw,
    LinearModel,
    ObservationModel,
    ParticleEnsemble,
    RngStream,
    bs_call_price,
    constant_diffusion,
    ensemble_martingale_residuals,
    evolve_kernel,
    filtered_option_price,
    generator_from_rates,
    girsanov_log_weights_batch,
    ksp_residual,
    rate_matrix_from_triplets,
    realized_qv,
    riccati_rhs,
    run_grid_filter,
    run_kalman,
    run_particle_filter,
    simulate_ensemble,
    simulate_heston,
    simulate_observation,
    simulate_path,
    stationary_distribution,
    steady_state_cov,
    taylor_kernel_check,
    validate_config,
    vol_recovery,
)
from ksplab.harness import RUNNERS, run_scenario
from ksplab.markov import master_rhs

from conftest import brownian_motion, ornstein_uhlenbeck

SEED = 20_240_901


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def scalar_linear():
    return LinearModel(F=[[-1.0]], f0=[0.0], sigma=[[1.0]], H=[[1.0]], h0=[0.0])


KSP_PHI_X = (
    lambda x: x[..., 0],
    lambda x: np.ones_like(np.asarray(x, dtype=float)),
    lambda x: np.zeros(np.asarray(x).shape + (1,)),
)


@pytest.fixture(scope="module")
def linear_gaussian_study():
    """Default linear-Gaussian scenario: 20 seeds of PF vs Kalman, one grid run."""
    model = scalar_linear()
    law = InitialLaw.gaussian([0.0], [[1.0]])
    sm = model.as_diffusion_model(law)
    om = model.as_observation_model()
    dt, T, n_particles = 1e-3, 1.0, 10_000
    belief0 = GaussianBelief([0.0], [[1.0]])

    t_start = time.perf_counter()
    rmses = []
    first = {}
    for k in range(20):
        truth = simulate_path(sm, T, dt, RngStream(SEED + k, 1))
        obs = simulate_observation(om, truth, RngStream(SEED + k, 2))
        beliefs = run_kalman(model, obs, belief0)
        kal_mean = np.array([b.mean[0] for b in beliefs])
        est = run_particle_filter(
            sm, om, obs, n_particles, RngStream(SEED + k, 3), ksp_phi=KSP_PHI_X
        )
        rmses.append(float(np.sqrt(np.mean((est.moments["x"] - kal_mean) ** 2))))
        if k == 0:
            first = {
                "obs": obs,
                "kal_mean": kal_mean,
                "kal_var": np.array([b.cov[0, 0] for b in beliefs]),
                "pf": est,
                "beliefs": beliefs,
            }

    grid = run_grid_filter(sm, om, first["obs"], -6.0, 6.0, 801)
    elapsed = time.perf_counter() - t_start
    return {
        "rmses": rmses,
        "grid": grid,
        "elapsed": elapsed,
        "model": model,
        **first,
    }


class TestCriterion01KspKalmanCollapse:
    def test_particle_rmse(self, linear_gaussian_study):
        avg = float(np.mean(linear_gaussian_study["rmses"]))
        report(
            "criterion-1a pf mean RMSE vs Kalman (20 seeds, N=1e4, dt=1e-3)",
            avg <= 0.05,
            f"avg rmse={avg:.5f} <= 0.05",
        )

    def test_grid_mean_and_variance(self, linear_gaussian_study):
        s = linear_gaussian_study
        mean = s["grid"].moments["x"]
        var = s["grid"].moments["x2"] - mean**2
        # the mean crosses zero: normalize its error by the posterior spread
        mean_err = float(np.mean(np.abs(mean - s["kal_mean"])) / np.mean(np.sqrt(s["kal_var"])))
        var_err = float(np.mean(np.abs(var - s["kal_var"]) / s["kal_var"]))
        report(
            "criterion-1b grid mean within 2% (spread-normalized)",
            mean_err <= 0.02,
            f"rel err={mean_err:.5f}",
        )
        report("criterion-1c grid variance within 2%", var_err <= 0.02, f"rel err={var_err:.5f}")

    def test_runtime_budget(self, linear_gaussian_study):
        elapsed = linear_gaussian_study["elapsed"]
        report("criterion-1d runtime <= 60 s", elapsed <= 60.0, f"{elapsed:.1f} s")


class TestCriterion02InnovationGain:
    def test_gain_tracks_kalman_gain(self, linear_gaussian_study):
        s = linear_gaussian_study
        pf = s["pf"]
        gain = pf.moments["phi_h"] - pf.moments["phi"] * pf.moments["h"]
        kal_gain = s["kal_var"]  # R H with H = 1
        burn = len(kal_gain) // 10
        rel = float(np.mean(np.abs(gain[burn:] - kal_gain[burn:]) / kal_gain[burn:]))
        report(
            "criterion-2 innovation coefficient tracks R_t H within 5%",
            rel <= 0.05,
            f"rel err={rel:.5f}",
        )

    def test_ksp_residual_refines(self, linear_gaussian_study):
        # supporting check: the identity residual is first-order small
        s = linear_gaussian_study
        r = ksp_residual(s["pf"], s["obs"])
        assert np.mean(np.abs(r)) < 5e-3


class TestCriterion03Riccati:
    def test_steady_states_match_roots(self):
        model1 = LinearModel(F=[[0.0]], f0=[0.0], sigma=[[1.0]], H=[[1.0]], h0=[0.0])
        r1 = steady_state_cov(model1)[0, 0]
        model2 = LinearModel(F=[[-1.0]], f0=[0.0], sigma=[[math.sqrt(2.0)]], H=[[1.0]], h0=[0.0])
        r2 = steady_state_cov(model2)[0, 0]
        err = max(abs(r1 - 1.0), abs(r2 - (math.sqrt(3.0) - 1.0)))
        report(
            "criterion-3a steady-state covariances match closed-form roots",
            err <= 1e-6,
            f"max err={err:.2e} (roots 1 and sqrt(3)-1)",
        )

    def test_covariance_symmetric_psd_along_run(self, linear_gaussian_study):
        worst_sym, worst_eig = 0.0, 0.0
        for b in linear_gaussian_study["beliefs"]:
            worst_sym = max(worst_sym, float(np.max(np.abs(b.cov - b.cov.T))))
            worst_eig = min(worst_eig, float(np.min(np.linalg.eigvalsh(b.cov))))
        ok = worst_sym < 1e-10 and worst_eig >= -1e-10
        report(
            "criterion-3b R_t symmetric PSD at every step",
            ok,
            f"max asym={worst_sym:.2e}, min eig={worst_eig:.2e}",
        )


class TestCriterion04GirsanovMartingale:
    N = 100_000

    def test_zero_sensor(self):
        obs = ObservationModel(dim_obs=1, sensor=lambda x: np.zeros(x.shape[:-1] + (1,)))
        states = np.zeros((101, self.N, 1))
        dw = RngStream(SEED, 12).generator().standard_normal((100, self.N, 1)) * 0.1
        z = np.exp(girsanov_log_weights_batch(obs, states, dw, 0.01))
        report("criterion-4a E[Z]=1 for h=0", bool(np.all(z == 1.0)), "Z identically 1")

    def test_constant_sensor(self):
        obs = ObservationModel(dim_obs=1, sensor=lambda x: np.ones(x.shape[:-1] + (1,)))
        states = np.zeros((101, self.N, 1))
        dw = RngStream(SEED, 13).generator().standard_normal((100, self.N, 1)) * 0.1
        z = np.exp(girsanov_log_weights_batch(obs, states, dw, 0.01))
        gap = abs(z.mean() - 1.0)
        bound = 3 * z.std(ddof=1) / math.sqrt(self.N)
        report("criterion-4b E[Z]=1 for h=1 (3 se)", gap < bound, f"gap={gap:.2e} < {bound:.2e}")

    def test_linear_sensor_on_ou(self):
        obs = ObservationModel(dim_obs=1, sensor=lambda x: np.asarray(x, dtype=float))
        _, states = simulate_ensemble(ornstein_uhlenbeck(), self.N, 1.0, 0.01, RngStream(SEED, 14))
        dw = RngStream(SEED, 15).generator().standard_normal((100, self.N, 1)) * 0.1
        z = np.exp(girsanov_log_weights_batch(obs, states, dw, 0.01))
        gap = abs(z.mean() - 1.0)
        bound = 3 * z.std(ddof=1) / math.sqrt(self.N)
        report(
            "criterion-4c E[Z]=1 for h=x on OU (3 se)", gap < bound, f"gap={gap:.2e} < {bound:.2e}"
        )


POLY = {
    1: (
        lambda x: x[..., 0],
        lambda x: np.ones_like(np.asarray(x, dtype=float)),
        lambda x: np.zeros(np.asarray(x).shape + (1,)),
    ),
    2: (
        lambda x: x[..., 0] ** 2,
        lambda x: 2 * np.asarray(x, dtype=float),
        lambda x: 2 * np.ones(np.asarray(x).shape + (1,)),
    ),
    3: (
        lambda x: x[..., 0] ** 3,
        lambda x: 3 * np.asarray(x, dtype=float) ** 2,
        lambda x: 6 * np.asarray(x, dtype=float)[..., None],
    ),
}


class TestCriterion05MartingaleResidual:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["bm", "ou"])
    def test_residual_mean_within_three_se(self, degree, kind):
        model = brownian_motion() if kind == "bm" else ornstein_uhlenbeck()
        n = 10_000
        _, states = simulate_ensemble(
            model, n, 1.0, 0.01, RngStream(SEED, 20 + degree + (0 if kind == "bm" else 3))
        )
        res = ensemble_martingale_residuals(model, *POLY[degree], states, 0.01)
        gap = abs(res.mean())
        bound = 3 * res.std(ddof=1) / math.sqrt(n)
        report(
            f"criterion-5 martingale residual f=x^{degree} on {kind} (3 se)",
            gap < bound,
            f"gap={gap:.2e} < {bound:.2e}",
        )


class TestCriterion06MasterEquation:
    def test_probability_conservation(self):
        W = rate_matrix_from_triplets([(0, 1, 1.0), (1, 0, 3.0), (1, 2, 0.5), (2, 0, 0.8)])
        G = generator_from_rates(W)
        p = np.array([1.0, 0.0, 0.0])
        drift = 0.0
        for _ in range(10_000):
            p = np.maximum(p + (p @ G) * 1e-4, 0.0)
            drift = max(drift, abs(float(p.sum()) - 1.0))
        report("criterion-6a conservation drift < 1e-10", drift < 1e-10, f"drift={drift:.2e}")

    def test_chapman_kolmogorov(self):
        W = rate_matrix_from_triplets([(0, 1, 1.2), (1, 0, 0.4), (1, 2, 2.0), (2, 0, 0.7)])
        G = generator_from_rates(W)
        residual = float(
            np.max(np.abs(evolve_kernel(G, 1.0).Q - evolve_kernel(G, 0.7).Q @ evolve_kernel(G, 0.3).Q))
        )
        report("criterion-6b Chapman-Kolmogorov residual < 1e-10", residual < 1e-10, f"{residual:.2e}")

    def test_two_state_stationary_exact(self):
        pi = stationary_distribution(rate_matrix_from_triplets([(0, 1, 1.0), (1, 0, 3.0)]))
        err = float(np.max(np.abs(pi.p - np.array([0.75, 0.25]))))
        report("criterion-6c 2-state stationary law exact to 1e-12", err <= 1e-12, f"err={err:.2e}")

    def test_taylor_kernel_slope(self):
        rep = taylor_kernel_check(
            rate_matrix_from_triplets([(0, 1, 1.0), (1, 0, 1.0)]), [1e-1, 1e-2, 1e-3]
        )
        ok = abs(rep.slope - 1.0) <= 0.15
        report("criterion-6d Taylor kernel slope 1.0 +- 0.15", ok, f"slope={rep.slope:.4f}")

    def test_master_rhs_consistent_with_generator(self):
        # the ODE above uses p G; master_rhs computes the same vector
        W = rate_matrix_from_triplets([(0, 1, 1.0), (1, 0, 3.0), (1, 2, 0.5), (2, 0, 0.8)])
        G = generator_from_rates(W)
        p = np.array([0.3, 0.45, 0.25])
        assert np.max(np.abs(master_rhs(W, DistributionVector(p=p)) - p @ G)) < 1e-15


class TestCriterion07ZakaiLinearity:
    def test_superposition(self):
        model = scalar_linear()
        law = InitialLaw.gaussian([0.0], [[1.0]])
        sm = model.as_diffusion_model(law)
        om = model.as_observation_model()
        truth = simulate_path(sm, 0.05, 1e-3, RngStream(SEED, 30))
        obs = simulate_observation(om, truth, RngStream(SEED, 31))
        alpha = 0.35

        def final_values(initial):
            _, final = run_grid_filter(
                sm, om, obs, -6.0, 6.0, 201, renormalize=False,
                initial=initial, return_final=True,
            )
            return final.values

        p1 = GridDensity.from_initial_law(InitialLaw.gaussian([-0.4], [[0.36]]), -6.0, 6.0, 201)
        p2 = GridDensity.from_initial_law(InitialLaw.gaussian([0.7], [[1.0]]), -6.0, 6.0, 201)
        mix = GridDensity(p1.nodes, alpha * p1.values + (1 - alpha) * p2.values)
        gap = float(
            np.max(np.abs(final_values(mix) - (alpha * final_values(p1) + (1 - alpha) * final_values(p2))))
        )
        report("criterion-7 unnormalized superposition within 1e-10", gap < 1e-10, f"gap={gap:.2e}")


class TestCriterion08QuadraticVariation:
    def test_constant_vol_qv(self):
        model = HestonModel(kappa=0.0, m=0.04, gamma=0.0, mu=0.05, x0=0.04, s0=100.0)
        terminals = [
            realized_qv(simulate_heston(model, 1.0, 1e-5, RngStream(SEED + s, 40)).log_price)[-1]
            for s in range(50)
        ]
        err = abs(float(np.mean(terminals)) - 0.04) / 0.04
        report(
            "criterion-8a constant-vol QV within 5% of sigma^2 T (dt=1e-5, 50 seeds)",
            err <= 0.05,
            f"rel err={err:.4f}",
        )

    def test_heston_spot_variance_recovery(self):
        model = HestonModel(kappa=2.0, m=0.04, gamma=0.3, mu=0.05, x0=0.04, s0=100.0)
        paths = simulate_heston(model, 1.0, 1e-5, RngStream(SEED, 41))
        rec = vol_recovery(realized_qv(paths.log_price), 1000, 1e-5)
        rel = float(np.mean(np.abs(rec - paths.variance)) / np.mean(paths.variance))
        report(
            "criterion-8b spot-variance recovery <= 10% (dt=1e-5, window 1000)",
            rel <= 0.10,
            f"rel err={rel:.4f}",
        )


class TestCriterion09FilteredPricing:
    def test_pointmass_reduction(self):
        model = HestonModel(kappa=0.0, m=0.04, gamma=0.0, mu=0.0, x0=0.04, s0=100.0)
        spec = CallSpec(strike=100.0, maturity=1.0)
        ens = ParticleEnsemble(
            positions=np.full((2, 1), 0.04), log_weights=np.full(2, -math.log(2.0))
        )
        price = filtered_option_price(ens, model, spec, 100.0, 8, RngStream(SEED, 50))
        gap = abs(price - bs_call_price(100.0, spec, 0.04))
        report("criterion-9a point-mass reduction within 1e-6", gap <= 1e-6, f"gap={gap:.2e}")

    def test_benchmark_value_via_quadrature_oracle(self):
        def phi_quad(z):
            val, _ = quad(lambda u: math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi), -12.0, z)
            return val

        sd = 0.2
        d1 = 0.5 * sd
        oracle = 100.0 * (phi_quad(d1) - phi_quad(d1 - sd))
        gap_benchmark = abs(oracle - 7.9656)
        spec = CallSpec(strike=100.0, maturity=1.0)
        gap_impl = abs(bs_call_price(100.0, spec, 0.04) - oracle)
        report(
            "criterion-9b benchmark 7.9656 within 1e-4 (quadrature oracle)",
            gap_benchmark <= 1e-4 and gap_impl <= 1e-9,
            f"oracle gap={gap_benchmark:.2e}, impl vs oracle={gap_impl:.2e}",
        )


SMALL_CONFIGS = {
    "linear_compare": {"n_particles": 400, "horizon": 0.2, "n_grid": 201},
    "master_demo": {},
    "heston_demo": {"dt": 1e-4, "horizon": 0.3, "n_particles": 400, "window": 300,
                    "filter_stride": 1, "n_price_times": 2, "inner_paths": 8},
    "pricing_demo": {"n_particles": 50, "inner_paths": 16, "inner_dt": 2e-2},
    "novikov_check": {"n_paths": 2000},
}


class TestCriterion10Determinism:
    @pytest.mark.parametrize("scenario", sorted(RUNNERS))
    def test_reruns_byte_identical(self, scenario, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / tag)
            params = dict(SMALL_CONFIGS[scenario], output_dir=out, seed=17)
            run_scenario(validate_config(scenario, params, {}))
            outs.append(out)
        identical = True
        for name in sorted(os.listdir(outs[0])):
            if name == "timing.json":
                continue
            with open(os.path.join(outs[0], name), "rb") as fa, open(
                os.path.join(outs[1], name), "rb"
            ) as fb:
                if fa.read() != fb.read():
                    identical = False
        report(
            f"criterion-10 {scenario} rerun byte-identical",
            identical,
            "all data files match" if identical else "data files differ",
        )
