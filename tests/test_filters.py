import math
import re
import tracemalloc

import numpy as np
import pytest

from ksplab import (
    DiffusionModel,
    EnsembleCollapseError,
    GaussianBelief,
    GridDensity,
    InitialLaw,
    LinearModel,
    ObservationModel,
    ObservationPath,
    ParticleEnsemble,
    RngStream,
    constant_diffusion,
    default_test_functions,
    ess,
    ksp_moment_functions,
    ksp_residual,
    pf_estimate,
    pf_init,
    pf_step,
    resample_systematic,
    run_grid_filter,
    run_kalman,
    run_particle_filter,
    simulate_observation,
    simulate_path,
    stability_dt_bound,
    zakai_grid_step,
)

from ksplab import _kernels
from ksplab.filters import _grid_stepper, _log_norm

from conftest import (
    brownian_motion,
    constant_sensor,
    deterministic_model,
    identity_sensor,
    planar_model,
    planar_sensor,
    reference_fd_substep,
)


def scalar_linear(F=-1.0, sigma=1.0, H=1.0):
    return LinearModel(F=[[F]], f0=[0.0], sigma=[[sigma]], H=[[H]], h0=[0.0])


def linear_setup(seed, F=-1.0, horizon=1.0, dt=1e-3):
    model = scalar_linear(F=F)
    law = InitialLaw.gaussian([0.0], [[1.0]])
    sm = model.as_diffusion_model(law)
    om = model.as_observation_model()
    truth = simulate_path(sm, horizon, dt, RngStream(seed, 1))
    obs = simulate_observation(om, truth, RngStream(seed, 2))
    return model, sm, om, truth, obs


def two_particles(positions, weights):
    return ParticleEnsemble(
        positions=np.asarray(positions, dtype=float).reshape(-1, 1),
        log_weights=np.log(np.asarray(weights, dtype=float)),
    )


KSP_PHI_X = (
    lambda x: x[..., 0],
    lambda x: np.ones_like(np.asarray(x, dtype=float)),
    lambda x: np.zeros(np.asarray(x).shape + (1,)),
)


class TestPfInit:
    def test_point_mass(self):
        ens = pf_init(InitialLaw.point_mass([3.0]), 50, RngStream(0))
        assert np.all(ens.positions == 3.0)
        assert abs(np.sum(ens.weights) - 1.0) < 1e-12

    def test_gaussian_clt(self):
        n = 100_000
        ens = pf_init(InitialLaw.gaussian([0.0], [[1.0]]), n, RngStream(1))
        assert abs(pf_estimate(ens, lambda x: x[:, 0])) < 3.0 / math.sqrt(n)

    def test_empirical_degenerate(self):
        law = InitialLaw.empirical([[5.0], [7.0]], [1.0, 0.0])
        ens = pf_init(law, 20, RngStream(2))
        assert np.all(ens.positions == 5.0)

    def test_needs_two_particles(self):
        with pytest.raises(ValueError):
            pf_init(InitialLaw.point_mass([0.0]), 1, RngStream(0))


class TestPfEstimateAndEss:
    def test_normalization_moment(self):
        ens = pf_init(InitialLaw.gaussian([0.0], [[1.0]]), 100, RngStream(3))
        assert abs(pf_estimate(ens, lambda x: np.ones(len(x))) - 1.0) < 1e-14

    def test_degenerate_positions(self):
        ens = pf_init(InitialLaw.point_mass([2.5]), 10, RngStream(0))
        assert abs(pf_estimate(ens, lambda x: x[:, 0]) - 2.5) < 1e-15

    def test_symmetric_two_atoms(self):
        ens = two_particles([-1.0, 1.0], [0.5, 0.5])
        assert abs(pf_estimate(ens, lambda x: x[:, 0] ** 2) - 1.0) < 1e-15

    def test_ess_uniform(self):
        ens = pf_init(InitialLaw.point_mass([0.0]), 100, RngStream(0))
        assert abs(ess(ens) - 100.0) < 1e-9

    def test_ess_one_hot(self):
        lw = np.full(10, -np.inf)
        lw[3] = 0.0
        ens = ParticleEnsemble(positions=np.zeros((10, 1)), log_weights=lw)
        assert abs(ess(ens) - 1.0) < 1e-12

    def test_ess_three_quarters(self):
        ens = two_particles([0.0, 1.0], [0.75, 0.25])
        assert abs(ess(ens) - 1.6) < 1e-12

    def test_exchangeability(self):
        ens = pf_init(InitialLaw.gaussian([0.0], [[1.0]]), 1000, RngStream(5))
        perm = RngStream(6).generator().permutation(1000)
        permuted = ParticleEnsemble(
            positions=ens.positions[perm], log_weights=ens.log_weights[perm]
        )
        for phi in (lambda x: x[:, 0], lambda x: x[:, 0] ** 2):
            assert abs(pf_estimate(ens, phi) - pf_estimate(permuted, phi)) < 1e-12


class TestResampling:
    def test_uniform_weights_preserve_multiset(self):
        ens = pf_init(InitialLaw.gaussian([0.0], [[1.0]]), 64, RngStream(7))
        out = resample_systematic(ens, RngStream(8))
        assert sorted(out.positions[:, 0]) == pytest.approx(sorted(ens.positions[:, 0]))

    def test_one_hot_collapses(self):
        ens = two_particles([4.0, 9.0], [1.0, 1e-300])
        out = resample_systematic(ens, RngStream(9))
        assert np.all(out.positions == 4.0)

    def test_offspring_counts_within_one(self):
        # 10 offspring over atoms weighted (0.5, 0.3, 0.2); N w = (5, 3, 2)
        positions = np.arange(10.0).reshape(-1, 1)
        weights = np.full(10, 1e-300)
        weights[:3] = [0.5, 0.3, 0.2]
        ens = ParticleEnsemble(
            positions=positions, log_weights=np.log(weights)
        )
        for seed in range(5):
            out = resample_systematic(ens, RngStream(seed))
            counts = [int(np.sum(out.positions[:, 0] == v)) for v in (0.0, 1.0, 2.0)]
            assert abs(counts[0] - 5) <= 1
            assert abs(counts[1] - 3) <= 1
            assert abs(counts[2] - 2) <= 1
            assert sum(counts) == 10

    def test_deterministic_given_stream(self):
        ens = pf_init(InitialLaw.gaussian([0.0], [[1.0]]), 32, RngStream(1))
        a = resample_systematic(ens, RngStream(2))
        b = resample_systematic(ens, RngStream(2))
        assert np.array_equal(a.positions, b.positions)


class TestPfStep:
    def test_zero_sensor_keeps_weights(self):
        model = brownian_motion()
        ens = ParticleEnsemble(
            positions=np.zeros((10, 1)),
            log_weights=np.log(np.linspace(1, 4, 10) / np.linspace(1, 4, 10).sum()),
        )
        out = pf_step(model, constant_sensor(0.0), ens, [0.3], 0.1, RngStream(3), resample_threshold=0.0)
        assert np.max(np.abs(out.weights - ens.weights)) < 1e-12

    def test_two_atom_bayes_by_hand(self):
        # weights proportional to (1, exp(0.1 - 0.05)) -> (0.4875, 0.5125)
        model = deterministic_model(lambda x: np.zeros_like(np.asarray(x, dtype=float)), 0.0)
        ens = two_particles([0.0, 1.0], [0.5, 0.5])
        out = pf_step(model, identity_sensor(), ens, [0.1], 0.1, RngStream(4), resample_threshold=0.0)
        w1 = math.exp(0.05)
        expected = np.array([1.0, w1]) / (1.0 + w1)
        assert np.max(np.abs(np.sort(out.weights) - np.sort(expected))) < 1e-4
        assert abs(out.weights[0] - expected[0]) < 1e-12

    def test_tracks_kalman_oracle(self):
        for seed in (11, 12, 13):
            model, sm, om, truth, obs = linear_setup(seed)
            beliefs = run_kalman(model, obs, GaussianBelief([0.0], [[1.0]]))
            kal_mean = np.array([b.mean[0] for b in beliefs])
            est = run_particle_filter(sm, om, obs, 10_000, RngStream(seed, 3))
            rmse = math.sqrt(np.mean((est.moments["x"] - kal_mean) ** 2))
            assert rmse <= 0.05

    def test_normalization_invariant_along_run(self):
        model, sm, om, truth, obs = linear_setup(21, horizon=0.2)
        est = run_particle_filter(
            sm, om, obs, 500, RngStream(21, 3), phis={"one": lambda x: np.ones(len(x))}
        )
        assert np.max(np.abs(est.moments["one"] - 1.0)) < 1e-10
        assert np.all(est.ess >= 1.0)
        assert np.all(est.ess <= 500.0 + 1e-9)

    def test_deterministic_given_streams(self):
        model, sm, om, truth, obs = linear_setup(31, horizon=0.1)
        a = run_particle_filter(sm, om, obs, 200, RngStream(31, 3))
        b = run_particle_filter(sm, om, obs, 200, RngStream(31, 3))
        assert np.array_equal(a.moments["x"], b.moments["x"])

    def test_collapse_raises(self):
        model = brownian_motion()
        ens = two_particles([1e200, -1e200], [0.5, 0.5])
        with pytest.raises(EnsembleCollapseError):
            pf_step(model, identity_sensor(), ens, [0.0], 0.1, RngStream(0))


def reference_particle_filter(sm, om, obs, n_particles, rng, ksp_phi=None, resample_threshold=0.5):
    """run_particle_filter as a plain fold of pf_step, recorded with pf_estimate and ess."""
    phis = default_test_functions()
    if ksp_phi is not None:
        phis.update(ksp_moment_functions(sm, om, *ksp_phi))
    ens = pf_init(sm.initial_law, n_particles, rng.substream(0))
    rows = [({name: pf_estimate(ens, phi) for name, phi in phis.items()}, ess(ens))]
    for k, dy in enumerate(obs.increments):
        ens = pf_step(sm, om, ens, dy, obs.dt, rng.substream(k + 1), resample_threshold)
        rows.append(({name: pf_estimate(ens, phi) for name, phi in phis.items()}, ess(ens)))
    moments = {name: np.array([m[name] for m, _ in rows]) for name in phis}
    return moments, np.array([e for _, e in rows])


class TestLogNorm:
    def test_all_minus_inf_is_a_collapse(self):
        with pytest.raises(EnsembleCollapseError):
            _log_norm(np.array([-np.inf, -np.inf]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_plus_inf_is_a_value_error(self, bad):
        with pytest.raises(ValueError, match="log weights contain") as info:
            _log_norm([0.0, bad])
        assert not isinstance(info.value, EnsembleCollapseError)


def parent_models(F=-0.7, f0=0.2, H=1.3, h0=-0.1):
    """Linear state and sensor callbacks written with ``@`` on the transposed
    coefficient, as the package wrote them before the dot path."""
    Fm, f0v, Hm, h0v = np.array([[F]]), np.array([f0]), np.array([[H]]), np.array([h0])
    sm = DiffusionModel(
        dim_state=1,
        drift=lambda x: np.asarray(x) @ Fm.T + f0v,
        diffusion_factor=constant_diffusion([[0.8]]),
        initial_law=InitialLaw.gaussian([0.3], [[0.5]]),
    )
    om = ObservationModel(dim_obs=1, sensor=lambda x: np.asarray(x) @ Hm.T + h0v)
    model = LinearModel(F=[[F]], f0=[f0], sigma=[[0.8]], H=[[H]], h0=[h0])
    return model, sm, om


def parent_particle_filter(sm, om, obs, n_particles, rng, phis, resample_threshold):
    """In-test copy of the particle filter before the array cycle: a fold of
    the old pf_step, which built a ParticleEnsemble every step, took ess() on
    it and resampled through _resample_with_offset, recorded with the weights
    taken once."""
    ens = pf_init(sm.initial_law, n_particles, rng.substream(0))
    moments = {name: np.empty(obs.times.size) for name in phis}
    ess_series = np.empty(obs.times.size)

    def record(k, e):
        w = e.weights
        for name, phi in phis.items():
            moments[name][k] = float(w @ np.asarray(phi(e.positions), dtype=float))
        ess_series[k] = float(1.0 / np.sum(w**2))

    record(0, ens)
    dt = obs.dt
    for k, dy in enumerate(obs.increments):
        gen = rng.substream(k + 1).generator()
        dY = np.atleast_1d(np.asarray(dy, dtype=float))
        q = sm.noise_dim(ens.positions[0])
        dv = gen.standard_normal((ens.n, q)) * np.sqrt(dt)
        sig = np.asarray(sm.diffusion_factor(ens.positions))
        positions = (
            ens.positions
            + np.asarray(sm.drift(ens.positions)) * dt
            + np.einsum("...ij,...j->...i", sig, dv)
        )
        h = om.sensor_values(positions)
        with np.errstate(over="ignore"):
            log_incr = h @ dY - 0.5 * np.sum(h * h, axis=-1) * dt
        lw = ens.log_weights + log_incr
        m = np.max(lw)
        lw = lw - (np.log(np.sum(np.exp(lw - m))) + m)
        ens = ParticleEnsemble(positions=positions, log_weights=lw)
        if ess(ens) < resample_threshold * ens.n:
            cw = np.cumsum(ens.weights)
            cw[-1] = 1.0
            idx = _kernels.resample_indices(cw, float(gen.uniform()), ens.n)
            ens = ParticleEnsemble(
                positions=ens.positions[idx],
                log_weights=np.full(ens.n, -np.log(ens.n)),
            )
        record(k + 1, ens)
    return moments, ess_series


class TestArrayCycleEqualsEnsembleLoop:
    """run_particle_filter on bare arrays (with the dot-path callbacks of
    LinearModel) must give the bits of the per-step ensemble loop with
    ``@``-written callbacks."""

    @pytest.mark.parametrize("threshold", [0.99, 0.0])
    @pytest.mark.parametrize("ksp_phi", [None, KSP_PHI_X])
    def test_bit_identical(self, ksp_phi, threshold):
        model, parent_sm, parent_om = parent_models()
        sm = model.as_diffusion_model(parent_sm.initial_law)
        om = model.as_observation_model()
        truth = simulate_path(sm, 0.2, 1e-3, RngStream(71, 1))
        obs = simulate_observation(om, truth, RngStream(71, 2))
        n = 400
        est = run_particle_filter(
            sm, om, obs, n, RngStream(71, 3), ksp_phi=ksp_phi, resample_threshold=threshold
        )
        phis = default_test_functions()
        if ksp_phi is not None:
            phis.update(ksp_moment_functions(parent_sm, parent_om, *ksp_phi))
        moments, ess_ref = parent_particle_filter(
            parent_sm, parent_om, obs, n, RngStream(71, 3), phis, threshold
        )
        assert set(est.moments) == set(moments)
        for name in moments:
            assert np.array_equal(est.moments[name], moments[name]), name
        assert np.array_equal(est.ess, ess_ref)
        resampled = np.sum(np.isclose(est.ess[1:], n, rtol=1e-12))
        assert resampled > 0 if threshold > 0 else resampled == 0


class TestParticleRecording:
    """Recording takes the weights once per step; the moments and ESS must be
    the bits pf_estimate and ess give."""

    @pytest.mark.parametrize("ksp_phi", [None, KSP_PHI_X])
    def test_equals_fold_with_pf_estimate(self, ksp_phi):
        model, sm, om, truth, obs = linear_setup(61, horizon=0.1)
        n = 300
        est = run_particle_filter(
            sm, om, obs, n, RngStream(61, 3), ksp_phi=ksp_phi, resample_threshold=0.99
        )
        moments, ess_ref = reference_particle_filter(
            sm, om, obs, n, RngStream(61, 3), ksp_phi=ksp_phi, resample_threshold=0.99
        )
        assert set(est.moments) == set(moments)
        for name in moments:
            assert np.array_equal(est.moments[name], moments[name]), name
        assert np.array_equal(est.ess, ess_ref)
        # the threshold resampled the ensemble to uniform weights on some steps
        assert np.sum(np.isclose(est.ess[1:], n, rtol=1e-12)) > 0

    def test_phi_shape_still_checked(self):
        model, sm, om, truth, obs = linear_setup(62, horizon=0.01)
        with pytest.raises(ValueError, match="phi must return shape"):
            run_particle_filter(sm, om, obs, 50, RngStream(62, 3), phis={"bad": lambda x: x})


KSP_PHI_PLANAR = (
    lambda x: np.sin(x[..., 0]) + x[..., 1] ** 2,
    lambda x: np.stack([np.cos(x[..., 0]), 2.0 * x[..., 1]], axis=-1),
    lambda x: np.stack(
        [
            np.stack([-np.sin(x[..., 0]), np.zeros_like(x[..., 0])], axis=-1),
            np.stack([np.zeros_like(x[..., 0]), np.full_like(x[..., 0], 2.0)], axis=-1),
        ],
        axis=-2,
    ),
)


class TestPlanarBitIdentity:
    """Beyond the shipped 1-D models: d = q = 2 with a state-dependent
    diffusion factor (diffusion_matrix's stacked matmul) and a nonlinear
    2-D sensor.  Reusing a(x), sigma(x) and h(x) within a step must give
    the bits of the pf_step fold, which evaluates every callback afresh."""

    @pytest.mark.parametrize("seed", [81, 82])
    @pytest.mark.parametrize("threshold", [0.99, 0.0])
    def test_equals_fold_of_pf_step(self, seed, threshold):
        sm, om = planar_model(), planar_sensor()
        x = sm.initial_law.sample(4, np.random.default_rng(0))
        sig = np.asarray(sm.diffusion_factor(x))
        assert any(sig.strides[:-2])  # not the broadcast constant path
        truth = simulate_path(sm, 0.2, 1e-3, RngStream(seed, 1))
        obs = simulate_observation(om, truth, RngStream(seed, 2))
        n = 300
        est = run_particle_filter(
            sm, om, obs, n, RngStream(seed, 3), ksp_phi=KSP_PHI_PLANAR, resample_threshold=threshold
        )
        moments, ess_ref = reference_particle_filter(
            sm, om, obs, n, RngStream(seed, 3), ksp_phi=KSP_PHI_PLANAR, resample_threshold=threshold
        )
        assert list(est.moments) == list(moments)
        for name in moments:
            assert np.array_equal(est.moments[name], moments[name]), name
        assert np.array_equal(est.ess, ess_ref)
        resampled = np.sum(np.isclose(est.ess[1:], n, rtol=1e-12))
        assert resampled > 0 if threshold > 0 else resampled == 0


def counted(fn, counts, key):
    def wrapper(x):
        counts[key] += 1
        return fn(x)

    return wrapper


class TestCallbackCounts:
    """Each callback is evaluated once per step at the particles: a(x_k)
    and sigma(x_k) serve both the recorded moment and the next Euler step,
    and the reweight's sensor values serve "phi_h" and "h" unless the step
    resampled."""

    def counting_models(self):
        model, sm, om, truth, obs = linear_setup(91, horizon=0.2)
        counts = dict.fromkeys(("drift", "diffusion", "sensor"), 0)
        csm = DiffusionModel(
            dim_state=1,
            drift=counted(sm.drift, counts, "drift"),
            diffusion_factor=counted(sm.diffusion_factor, counts, "diffusion"),
            initial_law=sm.initial_law,
        )
        com = ObservationModel(dim_obs=1, sensor=counted(om.sensor, counts, "sensor"))
        return csm, com, obs, counts

    @pytest.mark.parametrize("threshold", [0.99, 0.0])
    @pytest.mark.parametrize("ksp_phi", [KSP_PHI_X, None])
    def test_once_per_step(self, monkeypatch, ksp_phi, threshold):
        sm, om, obs, counts = self.counting_models()
        resamples = []
        resample_indices = _kernels.resample_indices

        def counting_resample(*args):
            resamples.append(1)
            return resample_indices(*args)

        monkeypatch.setattr(_kernels, "resample_indices", counting_resample)
        run_particle_filter(
            sm, om, obs, 400, RngStream(91, 3), ksp_phi=ksp_phi, resample_threshold=threshold
        )
        n_steps = obs.increments.shape[0]
        # 0.99 resamples on some steps and not on others
        assert 0 < len(resamples) < n_steps if threshold > 0 else not resamples
        if ksp_phi is not None:
            # beyond one per step: noise_dim's sigma at one particle, a and
            # sigma at the last recorded x_n (no step follows), h at x_0
            # (recorded before any step), h at the copies after a resampling
            assert counts == {
                "drift": n_steps + 1,
                "diffusion": n_steps + 2,
                "sensor": n_steps + 1 + len(resamples),
            }
        else:
            assert counts == {"drift": n_steps, "diffusion": n_steps + 1, "sensor": n_steps}


def gaussian_grid(mean, var, x_lo=-6.0, x_hi=6.0, n=801):
    law = InitialLaw.gaussian([mean], [[var]])
    return GridDensity.from_initial_law(law, x_lo, x_hi, n)


class TestZakaiGridStep:
    def test_static_model_fixed_point(self):
        model = deterministic_model(lambda x: np.zeros_like(np.asarray(x, dtype=float)), 0.0)
        dens = gaussian_grid(0.0, 0.25)
        out = zakai_grid_step(model, constant_sensor(0.0), dens, 0.0, 1e-3)
        assert np.array_equal(out.values, dens.values)

    def test_heat_kernel_variance(self):
        # pure diffusion from N(0, 0.25): after t = 0.5 the variance is 0.75
        model = brownian_motion()
        obs = constant_sensor(0.0)
        dens = gaussian_grid(0.0, 0.25)
        dt = 0.8 * stability_dt_bound(dens, model)
        steps = int(np.ceil(0.5 / dt))
        dt = 0.5 / steps
        for _ in range(steps):
            dens = zakai_grid_step(model, obs, dens, 0.0, dt)
        dens = dens.normalized()
        mean = dens.moment(lambda x: x)
        var = dens.moment(lambda x: x**2) - mean**2
        assert abs(var - 0.75) < 0.02 * 0.75

    def test_mass_conserved_by_transport(self):
        model = brownian_motion()
        obs = constant_sensor(0.0)
        dens = gaussian_grid(0.0, 1.0)
        m0 = dens.mass()
        dt = 0.9 * stability_dt_bound(dens, model)
        for _ in range(500):
            dens = zakai_grid_step(model, obs, dens, 0.0, dt)
        assert abs(dens.mass() - m0) < 1e-6

    def test_stability_bound_enforced(self):
        model = brownian_motion()
        dens = gaussian_grid(0.0, 1.0)
        bound = stability_dt_bound(dens, model)
        with pytest.raises(ValueError) as err:
            zakai_grid_step(model, constant_sensor(0.0), dens, 0.0, 2 * bound)
        assert f"{bound:.6e}" in str(err.value)

    def test_values_stay_nonnegative(self):
        model, sm, om, truth, obs = linear_setup(41, horizon=0.05)
        series, final = run_grid_filter(sm, om, obs, -6.0, 6.0, 201, return_final=True)
        assert np.all(final.values >= 0.0)

    def test_matches_kalman_two_percent(self):
        model, sm, om, truth, obs = linear_setup(42)
        beliefs = run_kalman(model, obs, GaussianBelief([0.0], [[1.0]]))
        kal_mean = np.array([b.mean[0] for b in beliefs])
        kal_var = np.array([b.cov[0, 0] for b in beliefs])
        est = run_grid_filter(sm, om, obs, -6.0, 6.0, 801)
        mean = est.moments["x"]
        var = est.moments["x2"] - mean**2
        assert np.mean(np.abs(mean - kal_mean)) / np.mean(np.sqrt(kal_var)) <= 0.02
        assert np.mean(np.abs(var - kal_var) / kal_var) <= 0.02

    def test_unnormalized_evolution_is_linear(self):
        # superposition of unnormalized runs within 1e-10
        model, sm, om, truth, obs = linear_setup(43, horizon=0.05)
        alpha = 0.3
        p1 = gaussian_grid(-0.5, 0.49, n=201)
        p2 = gaussian_grid(0.8, 1.0, n=201)
        mix = GridDensity(p1.nodes, alpha * p1.values + (1 - alpha) * p2.values)

        def run(initial):
            series, final = run_grid_filter(
                sm, om, obs, -6.0, 6.0, 201,
                renormalize=False, initial=initial, return_final=True,
            )
            return final.values

        v1, v2, vmix = run(p1), run(p2), run(mix)
        assert np.max(np.abs(vmix - (alpha * v1 + (1 - alpha) * v2))) < 1e-10

    def test_grid_ess_column_in_range(self):
        model, sm, om, truth, obs = linear_setup(44, horizon=0.02)
        est = run_grid_filter(sm, om, obs, -6.0, 6.0, 101)
        assert np.all(est.ess >= 1.0)
        assert np.all(est.ess <= 101.0)


def reference_grid_filter(
    model, obs_model, obs_path, x_lo, x_hi, n_grid, ksp_phi=None, renormalize=True, initial=None
):
    """run_grid_filter written out as one-substep updates: every substep checks
    the stability bound, evaluates drift, diffusion and sensor afresh, floors,
    multiplies by exp(h dY - h^2 dt / 2) and builds a GridDensity, normalizing
    on the last substep of each observation step."""
    phis = default_test_functions(max(abs(x_lo), abs(x_hi)))
    if ksp_phi is not None:
        phis.update(ksp_moment_functions(model, obs_model, *ksp_phi))
    dens = initial if initial is not None else GridDensity.from_initial_law(
        model.initial_law, x_lo, x_hi, n_grid
    )
    dt = obs_path.dt
    n_sub = max(1, int(np.ceil(dt / stability_dt_bound(dens, model) - 1e-12)))
    floor_cap = 1e-6 / (n_sub * max(1, obs_path.increments.shape[0]))
    rows = []

    def record(d):
        dn = d.normalized()
        w = dn.values / np.sum(dn.values)
        moments = {
            name: dn.moment(lambda nodes, phi=phi: phi(nodes[:, None])) for name, phi in phis.items()
        }
        rows.append((moments, 1.0 / np.sum(w**2)))

    record(dens)
    nodes_col = dens.nodes[:, None]
    sub_dt = dt / n_sub
    for dy in obs_path.increments:
        dY = float(dy[0]) / n_sub
        for j in range(n_sub):
            assert sub_dt <= stability_dt_bound(dens, model) * (1 + 1e-12)
            a_nodes = np.asarray(model.drift(nodes_col))[:, 0]
            b_nodes = model.diffusion_matrix(nodes_col)[..., 0, 0]
            p = reference_fd_substep(dens.values, a_nodes, b_nodes, sub_dt, dens.cell)
            neg = p < 0
            if np.any(neg):
                floored = -float(np.sum(p[neg]))
                total = float(np.sum(np.abs(p)))
                assert not (total > 0 and floored > floor_cap * total)
                p = np.where(neg, 0.0, p)
            h = obs_model.sensor_values(nodes_col)[:, 0]
            p = p * np.exp(h * dY - 0.5 * h * h * sub_dt)
            dens = GridDensity(dens.nodes, p)
            if renormalize and j == n_sub - 1:
                dens = dens.normalized()
        record(dens)
    moments = {name: np.array([m[name] for m, _ in rows]) for name in phis}
    return moments, np.array([e for _, e in rows]), dens, n_sub


class TestPreparedGridStepper:
    """The grid filter prepares drift, diffusion, sensor, the stability check
    and the exp factor once; its outputs must be the bits of the per-substep loop."""

    @pytest.mark.parametrize(
        "n_grid, renormalize, use_initial, ksp_phi",
        [
            (801, True, False, None),  # 12 substeps per observation step
            (801, False, False, KSP_PHI_X),
            (201, True, True, KSP_PHI_X),  # one substep, given initial density
            (401, False, True, None),
        ],
    )
    def test_equals_per_substep_reference(self, n_grid, renormalize, use_initial, ksp_phi):
        model, sm, om, truth, obs = linear_setup(63, horizon=0.03)
        initial = gaussian_grid(0.4, 0.5, n=n_grid) if use_initial else None
        series, final = run_grid_filter(
            sm, om, obs, -6.0, 6.0, n_grid, ksp_phi=ksp_phi,
            renormalize=renormalize, initial=initial, return_final=True,
        )
        moments, ess_ref, final_ref, n_sub = reference_grid_filter(
            sm, om, obs, -6.0, 6.0, n_grid, ksp_phi=ksp_phi,
            renormalize=renormalize, initial=initial,
        )
        if n_grid == 801:
            assert n_sub == 12
        assert set(series.moments) == set(moments)
        for name in moments:
            assert np.array_equal(series.moments[name], moments[name]), name
        assert np.array_equal(series.ess, ess_ref)
        assert np.array_equal(final.values, final_ref.values)

    def test_zakai_grid_step_equals_one_reference_substep(self):
        model, sm, om, truth, obs = linear_setup(64, horizon=0.01)
        dens = gaussian_grid(0.2, 0.3, n=201)
        dt = 0.5 * stability_dt_bound(dens, sm)
        nodes_col = dens.nodes[:, None]
        p = reference_fd_substep(
            dens.values,
            np.asarray(sm.drift(nodes_col))[:, 0],
            sm.diffusion_matrix(nodes_col)[..., 0, 0],
            dt,
            dens.cell,
        )
        h = om.sensor_values(nodes_col)[:, 0]
        expected = p * np.exp(h * 0.03 - 0.5 * h * h * dt)
        out = zakai_grid_step(sm, om, dens, 0.03, dt)
        assert np.array_equal(out.values, expected)


def drift_against_weak_diffusion():
    """Strong constant drift, weak diffusion: upwind of a spike the central
    flux goes negative, so the substep produces negative mass."""
    return DiffusionModel(
        dim_state=1,
        drift=lambda x: np.full_like(np.asarray(x, dtype=float), 5.0),
        diffusion_factor=constant_diffusion([[0.1]]),
        initial_law=InitialLaw.point_mass([0.0]),
    )


class TestFlooringCap:
    def test_zakai_grid_step_raises_past_the_cap(self):
        model = drift_against_weak_diffusion()
        dens = GridDensity.from_initial_law(model.initial_law, -6.0, 6.0, 201)
        with pytest.raises(RuntimeError, match="flooring removed"):
            zakai_grid_step(model, constant_sensor(0.0), dens, 0.0, 1e-3, max_floored_fraction=0.0)

    def test_loose_cap_floors_to_nonnegative(self):
        model = drift_against_weak_diffusion()
        dens = GridDensity.from_initial_law(model.initial_law, -6.0, 6.0, 201)
        nodes_col = dens.nodes[:, None]
        raw = reference_fd_substep(
            dens.values,
            np.asarray(model.drift(nodes_col))[:, 0],
            model.diffusion_matrix(nodes_col)[..., 0, 0],
            1e-3,
            dens.cell,
        )
        assert np.any(raw < 0)
        out = zakai_grid_step(model, constant_sensor(0.0), dens, 0.0, 1e-3, max_floored_fraction=1.0)
        assert np.all(out.values >= 0.0)
        assert np.array_equal(out.values, np.where(raw < 0, 0.0, raw))

    def test_run_grid_filter_raises(self):
        model = drift_against_weak_diffusion()
        times = np.arange(11) * 1e-3
        obs = ObservationPath.from_increments(times, np.zeros((10, 1)))
        with pytest.raises(RuntimeError, match="flooring removed"):
            run_grid_filter(model, constant_sensor(0.0), obs, -6.0, 6.0, 201)


def reference_advance(p, a_nodes, b_nodes, factor, dt, cell, cap):
    """One substep with the flooring test written as ``np.any(p < 0)``."""
    p = reference_fd_substep(p, a_nodes, b_nodes, dt, cell)
    neg = p < 0
    if np.any(neg):
        floored = -float(np.sum(p[neg]))
        total = float(np.sum(np.abs(p)))
        assert not (total > 0 and floored > cap * total)
        p = np.where(neg, 0.0, p)
    return p * factor


class TestGridStepperInPlace:
    """advance() copies its input once and runs every substep in place on the
    copy, through one workspace made when the stepper is prepared."""

    def prepared(self, n_grid=801):
        model, sm, om, truth, obs = linear_setup(66, horizon=0.01)
        dens = gaussian_grid(0.1, 0.4, n=n_grid)
        dt = 1e-3 / 12
        return _grid_stepper(sm, om, dens.nodes, dt, 1e-6), dens.values

    def test_input_never_written(self):
        advance, p = self.prepared()
        before = p.copy()
        out = advance(p, 0.01, 12)
        assert out is not p
        assert np.array_equal(p, before)
        assert not np.array_equal(out, before)

    def test_zero_substeps_return_a_copy(self):
        advance, p = self.prepared()
        out = advance(p, 0.01, 0)
        assert out is not p and np.array_equal(out, p)

    def test_one_call_peaks_at_a_few_node_arrays(self):
        # the output copy and the exp factor's two temporaries; each substep
        # that allocated its own temporaries again would peak near 8 arrays
        advance, p = self.prepared()
        advance(p, 0.01, 12)  # warm up numpy's lazily built state
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            advance(p, 0.01, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 4 * p.nbytes


class TestGridTestFunctions:
    """Each test function is evaluated at the nodes once, checked as the
    particle filter checks it, and integrated in one batched trapezoid."""

    @pytest.mark.parametrize(
        "phi, shape",
        [(lambda x: x, "(201, 1)"), (lambda x: 1.0, "()"), (lambda x: x[:-1, 0], "(200,)")],
    )
    def test_wrong_shape_rejected_at_set_up(self, phi, shape):
        model, sm, om, truth, obs = linear_setup(67, horizon=0.01)
        with pytest.raises(ValueError, match=re.escape(f"phi must return shape (201,), got {shape}")):
            run_grid_filter(sm, om, obs, -6.0, 6.0, 201, phis={"bad": phi})
        # the particle filter refuses the same function with the same message
        with pytest.raises(ValueError, match=r"phi must return shape \(50,\)"):
            run_particle_filter(sm, om, obs, 50, RngStream(67, 3), phis={"bad": phi})

    def test_no_test_functions(self):
        model, sm, om, truth, obs = linear_setup(67, horizon=0.01)
        series = run_grid_filter(sm, om, obs, -6.0, 6.0, 201, phis={})
        assert series.moments == {}
        assert series.ess.shape == obs.times.shape

    def test_batched_rows_equal_one_dimensional_integrals(self):
        model, sm, om, truth, obs = linear_setup(68, horizon=0.02)
        phis = {
            "x": lambda x: x[..., 0],
            "int": lambda x: np.arange(x.shape[0]),
            "bump": lambda x: np.exp(-x[..., 0] ** 2),
        }
        series, final = run_grid_filter(
            sm, om, obs, -6.0, 6.0, 401, phis=phis, return_final=True
        )
        dn = final.normalized()
        for name, phi in phis.items():
            one = dn.moment(lambda nodes, phi=phi: phi(nodes[:, None]))
            assert series.moments[name][-1] == one, name


class TestGridErrorPaths:
    """run_grid_filter checks bare node values once per step with GridDensity's messages."""

    def test_overflowing_density_raises_finite(self):
        model, sm, om, truth, obs = linear_setup(65, horizon=0.01)
        huge = ObservationPath.from_increments(obs.times, np.full_like(obs.increments, 1e6))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="finite"):
                run_grid_filter(sm, om, huge, -6.0, 6.0, 201)

    def test_vanishing_density_cannot_be_normalized(self):
        model = brownian_motion()
        times = np.arange(4) * 1e-3
        obs = ObservationPath.from_increments(times, np.full((3, 1), -1e6))
        with pytest.raises(ValueError, match="cannot normalize a zero density"):
            run_grid_filter(model, constant_sensor(1e3), obs, -6.0, 6.0, 201)

    @pytest.mark.parametrize("with_negative", [False, True])
    def test_nan_node_takes_the_old_flooring_path(self, with_negative):
        model = drift_against_weak_diffusion() if with_negative else brownian_motion()
        dens = gaussian_grid(0.0, 0.5, n=201)
        p = dens.values.copy()
        p[100] = np.nan
        dt = 0.5 * stability_dt_bound(dens, model)
        obs = identity_sensor()
        advance = _grid_stepper(model, obs, dens.nodes, dt, 1.0)
        nodes_col = dens.nodes[:, None]
        h = obs.sensor_values(nodes_col)[:, 0]
        a_nodes = np.asarray(model.drift(nodes_col))[:, 0]
        b_nodes = model.diffusion_matrix(nodes_col)[..., 0, 0]
        factor = np.exp(h * 0.02 - 0.5 * h * h * dt)
        expected = p
        for _ in range(3):
            expected = reference_advance(expected, a_nodes, b_nodes, factor, dt, dens.cell, 1.0)
        out = advance(p, 0.02, 3)
        assert np.isnan(out).any()
        assert np.any(out < 0) == np.any(expected < 0)
        assert np.array_equal(out, expected, equal_nan=True)


class TestGridInitialLaw:
    """Atoms go to their nearest node; one outside the grid is refused, not
    moved onto an end node."""

    @pytest.mark.parametrize(
        "law",
        [
            InitialLaw.point_mass([10.0]),
            InitialLaw.point_mass([-6.5]),
            InitialLaw.empirical([[0.0], [7.0]], [0.5, 0.5]),
        ],
    )
    def test_atom_outside_the_grid_rejected(self, law):
        with pytest.raises(ValueError, match="outside the grid"):
            GridDensity.from_initial_law(law, -6.0, 6.0, 121)

    def test_atoms_on_the_ends_accepted(self):
        law = InitialLaw.empirical([[-6.0], [6.0]], [0.25, 0.75])
        dens = GridDensity.from_initial_law(law, -6.0, 6.0, 121)
        assert dens.values[0] > 0 and dens.values[-1] == 3 * dens.values[0]
        assert np.count_nonzero(dens.values) == 2
        point = GridDensity.from_initial_law(InitialLaw.point_mass([6.0]), -6.0, 6.0, 121)
        assert np.nonzero(point.values)[0].tolist() == [120]


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_grid_density_values(self, bad):
        nodes = np.linspace(-1.0, 1.0, 5)
        values = np.ones(5)
        values[2] = bad
        with pytest.raises(ValueError, match="finite"):
            GridDensity(nodes, values)

    def test_grid_density_decreasing_nodes(self):
        # a decreasing grid would give a negative cell and a negative mass
        with pytest.raises(ValueError, match="increasing"):
            GridDensity(np.linspace(1.0, -1.0, 11), np.ones(11))
        with pytest.raises(ValueError, match="increasing"):
            GridDensity.from_initial_law(InitialLaw.gaussian([0.0], [[1.0]]), 1.0, -1.0, 11)

    def test_normalized_ensemble_nan_log_weight(self):
        with pytest.raises(ValueError, match="normalized weights sum"):
            ParticleEnsemble(
                positions=np.zeros((3, 1)),
                log_weights=np.array([np.log(0.5), np.log(0.5), np.nan]),
            )


class TestEnsembleAlwaysNormalized:
    @pytest.mark.parametrize("n", [2, 10])
    def test_unnormalized_weights_rejected(self, n):
        with pytest.raises(ValueError, match="normalized weights sum"):
            ParticleEnsemble(positions=np.zeros((n, 1)), log_weights=np.zeros(n))

    @pytest.mark.parametrize("n", [2, 3, 200, 10_000])
    def test_uniform_equals_hand_built_weights(self, n):
        # the hand-written forms that ParticleEnsemble.uniform replaced
        positions = RngStream(40, n).generator().standard_normal((n, 1))
        ens = ParticleEnsemble.uniform(positions)
        assert np.array_equal(ens.positions, positions)
        for lw in (
            np.full(n, -np.log(n)),
            np.full(n, -np.log(float(n))),
            np.full(n, -math.log(n)),
        ):
            assert np.array_equal(ens.log_weights, lw)
        assert np.array_equal(ens.weights, np.exp(np.full(n, -np.log(n))))


class TestKspResidual:
    def test_constant_phi_zero_residual_covariance_form(self):
        model, sm, om, truth, obs = linear_setup(51, horizon=0.2)
        const_phi = (
            lambda x: np.ones(np.asarray(x).shape[:-1]),
            lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            lambda x: np.zeros(np.asarray(x).shape + (1,)),
        )
        est = run_particle_filter(sm, om, obs, 300, RngStream(51, 3), ksp_phi=const_phi)
        r_cov = ksp_residual(est, obs, gain_form="covariance")
        assert np.max(np.abs(r_cov)) < 1e-10
        # the squared-mean variant printed elsewhere is measurably nonzero
        r_sq = ksp_residual(est, obs, gain_form="squared_mean")
        assert np.max(np.abs(r_sq)) > 1e-4

    def test_innovation_gain_matches_kalman(self):
        model, sm, om, truth, obs = linear_setup(52)
        beliefs = run_kalman(model, obs, GaussianBelief([0.0], [[1.0]]))
        kal_gain = np.array([b.cov[0, 0] for b in beliefs])  # R H with H = 1
        est = run_particle_filter(sm, om, obs, 10_000, RngStream(52, 3), ksp_phi=KSP_PHI_X)
        pf_gain = est.moments["phi_h"] - est.moments["phi"] * est.moments["h"]
        burn = len(kal_gain) // 10
        rel = np.mean(np.abs(pf_gain[burn:] - kal_gain[burn:]) / kal_gain[burn:])
        assert rel <= 0.05

    def test_first_order_refinement(self):
        # grid-filter residuals shrink by at least 1.8x when dt halves
        model = scalar_linear()
        law = InitialLaw.gaussian([0.0], [[1.0]])
        sm = model.as_diffusion_model(law)
        om = model.as_observation_model()
        dt_fine = 5e-4
        truth = simulate_path(sm, 0.5, dt_fine, RngStream(53, 1))
        obs_fine = simulate_observation(om, truth, RngStream(53, 2))
        inc = obs_fine.increments
        obs_coarse = ObservationPath.from_increments(
            truth.times[::2], inc[0::2] + inc[1::2]
        )

        def mean_abs_residual(obs_path):
            est = run_grid_filter(sm, om, obs_path, -6.0, 6.0, 401, ksp_phi=KSP_PHI_X)
            return float(np.mean(np.abs(ksp_residual(est, obs_path))))

        ratio = mean_abs_residual(obs_coarse) / mean_abs_residual(obs_fine)
        assert ratio >= 1.8

    def test_requires_registered_moments(self):
        model, sm, om, truth, obs = linear_setup(54, horizon=0.02)
        est = run_particle_filter(sm, om, obs, 100, RngStream(54, 3))
        with pytest.raises(ValueError):
            ksp_residual(est, obs)

    def test_grid_mismatch_rejected(self):
        model, sm, om, truth, obs = linear_setup(55, horizon=0.02)
        est = run_particle_filter(sm, om, obs, 100, RngStream(55, 3), ksp_phi=KSP_PHI_X)
        other = ObservationPath.from_increments(
            obs.times[:-1], obs.increments[:-1]
        )
        with pytest.raises(ValueError):
            ksp_residual(est, other)
