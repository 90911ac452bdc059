"""Scenario runners: seeded experiments, CSV emission, cross-method reports.

Each runner consumes a validated :class:`~ksplab.config.ExperimentConfig`,
writes its data files plus a manifest into the output directory, and
returns a report carrying pass/fail checks.  All randomness derives from
the master seed through fixed labeled stream offsets, so adding a scenario
never perturbs existing ones and reruns with an equal manifest produce
byte-identical data files.  Wall-clock timings go to ``timing.json``,
which is the one file excluded from the byte-identity guarantee.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from ._kernels import BACKEND
# Unused here since thinning moved to filters; kept as a module attribute
# because the scenario benchmark's span tracer (perfbench/spans.py) wraps
# ksplab.harness.resample_indices and its tests require every target to exist.
from ._kernels import resample_indices  # noqa: F401
from .config import ExperimentConfig
from .csvio import (
    beliefs_to_csv,
    estimates_to_csv,
    matrix_to_csv,
    observation_to_csv,
    path_to_csv,
    rate_matrix_to_csv,
    write_csv,
)
from .filters import (
    EnsembleCollapseError,
    ParticleEnsemble,
    _resample_with_offset,
    run_grid_filter,
    run_particle_filter,
)
from .kalman import GaussianBelief, LinearModel, run_kalman
from .markov import (
    evolve_kernel,
    generator_from_rates,
    rate_matrix_from_triplets,
    stationary_distribution,
    taylor_kernel_check,
)
from .observation import ObservationModel, check_novikov, simulate_observation
from .rng import RngStream
from .sde import DiffusionModel, InitialLaw, constant_diffusion, simulate_path
from .stochvol import (
    CallSpec,
    HestonModel,
    bs_call_price,
    filtered_option_price,
    heston_filter,
    realized_qv,
    simulate_heston,
    vol_recovery,
)

# Labeled stream offsets per module; fixed forever so results are stable.
STREAM_TRUTH = 1
STREAM_OBS = 2
STREAM_PF = 3
STREAM_HESTON = 5
STREAM_FILTER = 6
STREAM_PRICING = 7
STREAM_NOVIKOV = 8


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


@dataclass
class ScenarioReport:
    scenario: str
    checks: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append(Check(name, bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self):
        return next((c for c in self.checks if not c.passed), None)


@dataclass
class ComparisonReport(ScenarioReport):
    """Linear-compare report: per-method series, RMSEs, ESS stats, runtimes."""

    times: np.ndarray | None = None
    series: dict = field(default_factory=dict)
    rmse: dict = field(default_factory=dict)
    ess_stats: dict = field(default_factory=dict)
    runtime: dict = field(default_factory=dict)


def _write_manifest(cfg: ExperimentConfig, out_dir: str) -> None:
    manifest = {
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "config_hash": cfg.config_hash(),
        "version": __version__,
        "backend": BACKEND,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_timing(runtimes: dict, out_dir: str) -> None:
    with open(os.path.join(out_dir, "timing.json"), "w", newline="\n") as fh:
        json.dump(runtimes, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _prepare_dir(cfg: ExperimentConfig) -> str:
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    _write_manifest(cfg, out)
    return out


def _run_with_collapse_recovery(run, n_particles: int):
    """Degenerate-weight policy: rerun once with 10x particles, never perturb weights."""
    try:
        return run(n_particles), n_particles
    except EnsembleCollapseError:
        return run(10 * n_particles), 10 * n_particles


# ---------------------------------------------------------------------------
# linear_compare


def run_linear_compare(cfg: ExperimentConfig) -> ComparisonReport:
    """Kalman-Bucy oracle vs particle and grid filters on one shared record."""
    out = _prepare_dir(cfg)
    report = ComparisonReport(scenario=cfg.scenario)
    seed = cfg.seed

    model = LinearModel(
        F=[[cfg["F"]]], f0=[cfg["f0"]], sigma=[[cfg["sigma"]]], H=[[cfg["H"]]], h0=[cfg["h0"]]
    )
    law = InitialLaw.gaussian([cfg["prior_mean"]], [[cfg["prior_var"]]])
    state_model = model.as_diffusion_model(law)
    obs_model = model.as_observation_model()

    t0 = time.perf_counter()
    truth = simulate_path(state_model, cfg["horizon"], cfg["dt"], RngStream(seed, STREAM_TRUTH))
    obs = simulate_observation(obs_model, truth, RngStream(seed, STREAM_OBS))
    sim_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    beliefs = run_kalman(model, obs, GaussianBelief(mean=law.params["mean"], cov=law.params["cov"]))
    kal_time = time.perf_counter() - t0
    kal_mean = np.array([b.mean[0] for b in beliefs])
    kal_var = np.array([b.cov[0, 0] for b in beliefs])

    phi = (lambda x: x[..., 0], lambda x: np.ones_like(x), lambda x: np.zeros(x.shape + (1,)))
    t0 = time.perf_counter()
    pf, n_used = _run_with_collapse_recovery(
        lambda n: run_particle_filter(
            state_model,
            obs_model,
            obs,
            n,
            RngStream(seed, STREAM_PF),
            ksp_phi=phi,
            resample_threshold=cfg["resample_threshold"],
        ),
        cfg["n_particles"],
    )
    pf_time = time.perf_counter() - t0
    pf_mean = pf.moments["x"]
    pf_var = pf.moments["x2"] - pf_mean**2
    pf_gain = pf.moments["phi_h"] - pf.moments["phi"] * pf.moments["h"]

    t0 = time.perf_counter()
    grid = run_grid_filter(
        state_model, obs_model, obs, cfg["x_lo"], cfg["x_hi"], cfg["n_grid"]
    )
    grid_time = time.perf_counter() - t0
    grid_mean = grid.moments["x"]
    grid_var = grid.moments["x2"] - grid_mean**2

    rmse_pf = float(np.sqrt(np.mean((pf_mean - kal_mean) ** 2)))
    rmse_grid = float(np.sqrt(np.mean((grid_mean - kal_mean) ** 2)))
    spread = float(np.mean(np.sqrt(kal_var)))
    grid_mean_err = float(np.mean(np.abs(grid_mean - kal_mean)) / spread)
    grid_var_err = float(np.mean(np.abs(grid_var - kal_var) / kal_var))

    # innovation coefficient vs Kalman gain R H after a short burn-in
    burn = max(1, kal_mean.size // 10)
    kal_gain = kal_var * cfg["H"]
    gain_err = float(
        np.mean(np.abs(pf_gain[burn:] - kal_gain[burn:]) / np.abs(kal_gain[burn:]))
    )

    report.times = obs.times
    report.series = {
        "kalman_mean": kal_mean,
        "kalman_var": kal_var,
        "pf_mean": pf_mean,
        "pf_var": pf_var,
        "grid_mean": grid_mean,
        "grid_var": grid_var,
        "pf_gain": pf_gain,
        "kalman_gain": kal_gain,
    }
    report.rmse = {"pf_mean": rmse_pf, "grid_mean": rmse_grid}
    report.ess_stats = {"min": float(np.min(pf.ess)), "mean": float(np.mean(pf.ess))}
    report.runtime = {
        "simulate": sim_time,
        "kalman": kal_time,
        "particle": pf_time,
        "grid": grid_time,
    }
    report.metrics = {
        "rmse_pf_mean": rmse_pf,
        "rmse_grid_mean": rmse_grid,
        "grid_mean_err_rel": grid_mean_err,
        "grid_var_err_rel": grid_var_err,
        "gain_err_rel": gain_err,
    }

    # accuracy thresholds are calibrated at the reference particle count
    # 10^4 (Monte Carlo error scales like 1/sqrt(N))
    clt = math.sqrt(10_000.0 / n_used)
    report.add(
        f"pf_mean_rmse<={0.05 * clt:.3g}", rmse_pf <= 0.05 * clt, f"rmse={rmse_pf:.5f}"
    )
    report.add("grid_mean_within_2pct", grid_mean_err <= 0.02, f"rel_err={grid_mean_err:.5f}")
    report.add("grid_var_within_2pct", grid_var_err <= 0.02, f"rel_err={grid_var_err:.5f}")
    report.add(
        f"innovation_gain_within_{0.05 * clt:.3g}",
        gain_err <= 0.05 * clt,
        f"rel_err={gain_err:.5f}",
    )

    path_to_csv(truth, os.path.join(out, "truth.csv"))
    observation_to_csv(obs, os.path.join(out, "observations.csv"))
    beliefs_to_csv(obs.times, beliefs, os.path.join(out, "kalman.csv"))
    estimates_to_csv(pf, os.path.join(out, "pf_estimates.csv"))
    estimates_to_csv(grid, os.path.join(out, "grid_estimates.csv"))
    write_csv(
        os.path.join(out, "report.csv"),
        ["t"] + list(report.series),
        np.column_stack([obs.times] + [report.series[k] for k in report.series]),
    )
    write_csv(
        os.path.join(out, "summary.csv"),
        list(report.metrics),
        [list(report.metrics.values())],
    )
    _write_timing(report.runtime, out)
    return report


# ---------------------------------------------------------------------------
# master_demo


def run_master_demo(cfg: ExperimentConfig) -> ScenarioReport:
    """Transition-kernel semigroup, gain-loss ODE, and stationarity checks."""
    out = _prepare_dir(cfg)
    report = ScenarioReport(scenario=cfg.scenario)
    t_start = time.perf_counter()

    W = rate_matrix_from_triplets(cfg["rates"])
    G = generator_from_rates(W)
    tau_a, tau_b = cfg["tau_a"], cfg["tau_b"]
    Qa, Qb = evolve_kernel(G, tau_a).Q, evolve_kernel(G, tau_b).Q
    Qab = evolve_kernel(G, tau_a + tau_b).Q
    ck_residual = float(np.max(np.abs(Qab - Qb @ Qa)))

    pi = stationary_distribution(W)
    stat_residual = float(np.max(np.abs(pi.p @ G)))
    fixed_point_err = float(np.max(np.abs(pi.p @ Qab - pi.p)))

    # explicit Euler on the gain-loss ODE from a vertex of the simplex;
    # p @ G is the same gain-minus-loss vector master_rhs computes
    n_steps = cfg["n_ode_steps"]
    dtau = cfg["horizon"] / n_steps
    p = np.zeros(W.n_states)
    p[0] = 1.0
    max_drift = 0.0
    min_entry = 0.0
    for _ in range(n_steps):
        p = p + (p @ G) * dtau
        min_entry = min(min_entry, float(p.min()))
        p = np.maximum(p, 0.0)
        max_drift = max(max_drift, abs(float(p.sum()) - 1.0))

    taylor = taylor_kernel_check(W, [1e-1, 1e-2, 1e-3])

    report.metrics = {
        "ck_residual": ck_residual,
        "stationary_residual": stat_residual,
        "fixed_point_err": fixed_point_err,
        "conservation_drift": max_drift,
        "min_entry_before_floor": min_entry,
        "taylor_slope": taylor.slope,
    }
    report.add("chapman_kolmogorov<1e-10", ck_residual < 1e-10, f"residual={ck_residual:.2e}")
    report.add("stationary_residual<1e-12", stat_residual < 1e-12, f"residual={stat_residual:.2e}")
    report.add("stationary_fixed_point<1e-10", fixed_point_err < 1e-10, f"err={fixed_point_err:.2e}")
    report.add("probability_conservation<1e-10", max_drift < 1e-10, f"drift={max_drift:.2e}")
    report.add("nonnegative_after_floor", min_entry > -1e-14, f"min={min_entry:.2e}")
    report.add(
        "taylor_slope_1.0+-0.15",
        math.isnan(taylor.slope) or abs(taylor.slope - 1.0) <= 0.15,
        f"slope={taylor.slope:.4f}",
    )

    rate_matrix_to_csv(W, os.path.join(out, "rates.csv"))
    matrix_to_csv(Qab, os.path.join(out, "kernel.csv"))
    write_csv(os.path.join(out, "stationary.csv"), ["p"], [[v] for v in pi.p])
    write_csv(
        os.path.join(out, "taylor_check.csv"),
        ["tau", "error"],
        np.column_stack([taylor.taus, taylor.errors]),
    )
    write_csv(os.path.join(out, "summary.csv"), list(report.metrics), [list(report.metrics.values())])
    _write_timing({"total": time.perf_counter() - t_start}, out)
    return report


# ---------------------------------------------------------------------------
# heston_demo


def _heston_scenario_objects(cfg: ExperimentConfig):
    model = HestonModel(
        kappa=cfg["kappa"], m=cfg["m"], gamma=cfg["gamma"], mu=cfg["mu"], x0=cfg["x0"], s0=cfg["s0"]
    )
    spec = CallSpec(strike=cfg["strike"], maturity=cfg["maturity"], rate=cfg["rate"])
    return model, spec


def run_heston_demo(cfg: ExperimentConfig) -> ScenarioReport:
    """Latent-variance tracking: simulation, QV recovery, filtering, pricing."""
    out = _prepare_dir(cfg)
    report = ScenarioReport(scenario=cfg.scenario)
    t_start = time.perf_counter()
    seed = cfg.seed
    model, spec = _heston_scenario_objects(cfg)

    paths = simulate_heston(model, cfg["horizon"], cfg["dt"], RngStream(seed, STREAM_HESTON))
    qv = realized_qv(paths.log_price)
    recovery = vol_recovery(qv, cfg["window"], cfg["dt"])

    stride = cfg["filter_stride"]
    y_coarse = paths.log_price[::stride]
    dt_coarse = cfg["dt"] * stride
    n_coarse = y_coarse.size
    price_idx = np.unique(
        np.linspace(0, n_coarse - 1, cfg["n_price_times"], dtype=int)
    )
    (est, snapshots), n_used = _run_with_collapse_recovery(
        lambda n: heston_filter(
            model,
            y_coarse,
            dt_coarse,
            n,
            RngStream(seed, STREAM_FILTER),
            snapshot_indices=price_idx,
        ),
        cfg["n_particles"],
    )

    truth_coarse = paths.variance[::stride]
    recovery_coarse = recovery[::stride]
    burn = max(1, n_coarse // 10)

    recovery_err = float(
        np.mean(np.abs(recovery - paths.variance)) / np.mean(paths.variance)
    )
    post_mean = est.moments["x"]
    post_var = est.moments["x2"] - post_mean**2
    filter_vs_recovery = float(
        np.mean(np.abs(post_mean[burn:] - recovery_coarse[burn:]))
        / np.mean(recovery_coarse[burn:])
    )

    report.metrics = {
        "recovery_vs_truth_rel": recovery_err,
        "filter_vs_recovery_rel": filter_vs_recovery,
        "ess_min": float(np.min(est.ess)),
    }
    report.add(
        "qv_recovery_within_10pct", recovery_err <= 0.10, f"rel_err={recovery_err:.4f}"
    )
    if cfg["gamma"] > 0:
        report.add(
            "filter_vs_recovery_within_15pct",
            filter_vs_recovery <= 0.15,
            f"rel_diff={filter_vs_recovery:.4f}",
        )
    else:
        # deterministic variance: the posterior mean must lock onto the ODE path
        ode = model.m + (model.x0 - model.m) * np.exp(-model.kappa * est.times)
        ode_err = float(
            np.mean(np.abs(post_mean[burn:] - ode[burn:])) / np.mean(ode[burn:])
        )
        report.metrics["filter_vs_ode_rel"] = ode_err
        report.add("filter_vs_ode_within_1pct", ode_err <= 0.01, f"rel_err={ode_err:.5f}")

    prices = np.full(n_coarse, np.nan)
    if spec.maturity > cfg["horizon"]:
        pricing_base = RngStream(seed, STREAM_PRICING)
        for k in price_idx:
            u0 = float(pricing_base.substream(2 * int(k)).generator().uniform())
            ens = _resample_with_offset(snapshots[k], u0, min(200, n_used))
            prices[k] = filtered_option_price(
                ens,
                model,
                spec,
                spot=float(paths.price[k * stride]),
                inner_paths=cfg["inner_paths"],
                rng=pricing_base.substream(2 * int(k) + 1),
                t_now=float(est.times[k]),
            )

    write_csv(
        os.path.join(out, "stochvol.csv"),
        ["t", "x_true", "x_post_mean", "x_post_var", "qv_recovery", "option_price"],
        np.column_stack([est.times, truth_coarse, post_mean, post_var, recovery_coarse, prices]),
    )
    write_csv(os.path.join(out, "summary.csv"), list(report.metrics), [list(report.metrics.values())])
    _write_timing({"total": time.perf_counter() - t_start}, out)
    return report


# ---------------------------------------------------------------------------
# pricing_demo


def run_pricing_demo(cfg: ExperimentConfig) -> ScenarioReport:
    """Filtered pricing reductions and Monte Carlo self-consistency."""
    out = _prepare_dir(cfg)
    report = ScenarioReport(scenario=cfg.scenario)
    t_start = time.perf_counter()
    seed = cfg.seed
    model, spec = _heston_scenario_objects(cfg)
    spot = cfg["s0"]
    inner_dt = cfg["inner_dt"]

    # point-mass reduction at constant variance: no Monte Carlo noise at all
    const_model = HestonModel(kappa=0.0, m=model.m, gamma=0.0, mu=model.mu, x0=model.x0, s0=model.s0)
    point = ParticleEnsemble(
        positions=np.array([[model.x0], [model.x0]]),
        log_weights=np.full(2, -np.log(2.0)),
        normalized=True,
    )
    p_reduced = filtered_option_price(
        point, const_model, spec, spot, cfg["inner_paths"], RngStream(seed, STREAM_PRICING), inner_dt=inner_dt
    )
    p_direct = bs_call_price(spot, spec, model.x0)
    reduction_err = abs(p_reduced - p_direct)

    # two-atom mixture with frozen variances
    atoms = np.array([[0.01], [0.09]])
    two = ParticleEnsemble(
        positions=atoms, log_weights=np.full(2, -np.log(2.0)), normalized=True
    )
    p_mix = filtered_option_price(
        two,
        HestonModel(kappa=0.0, m=model.m, gamma=0.0, mu=model.mu, x0=model.x0, s0=model.s0),
        spec,
        spot,
        cfg["inner_paths"],
        RngStream(seed, STREAM_PRICING).substream(1),
        inner_dt=inner_dt,
    )
    p_mix_direct = 0.5 * (
        bs_call_price(spot, spec, 0.01) + bs_call_price(spot, spec, 0.09)
    )
    mixture_err = abs(p_mix - p_mix_direct)

    # Monte Carlo self-consistency under the full model from a prior ensemble
    law = InitialLaw.gaussian([model.x0], [[max(0.25 * model.x0, 1e-4) ** 2]])
    gen = RngStream(seed, STREAM_PRICING).substream(2).generator()
    positions = np.abs(law.sample(cfg["n_particles"], gen))
    prior = ParticleEnsemble(
        positions=positions,
        log_weights=np.full(cfg["n_particles"], -np.log(float(cfg["n_particles"]))),
        normalized=True,
    )
    reps = np.array(
        [
            filtered_option_price(
                prior, model, spec, spot, cfg["inner_paths"],
                RngStream(seed, STREAM_PRICING).substream(3 + r), inner_dt=inner_dt,
            )
            for r in range(8)
        ]
    )
    p_double = filtered_option_price(
        prior, model, spec, spot, 2 * cfg["inner_paths"],
        RngStream(seed, STREAM_PRICING).substream(11), inner_dt=inner_dt,
    )
    # error of the difference: one estimate at n inner paths, one at 2n
    stderr = float(np.std(reps, ddof=1)) * math.sqrt(1.0 + 0.5)
    mc_gap = abs(p_double - float(np.mean(reps)))

    report.metrics = {
        "price_reduced": p_reduced,
        "price_direct": p_direct,
        "reduction_err": reduction_err,
        "mixture_err": mixture_err,
        "price_full_model": float(np.mean(reps)),
        "price_double_inner": p_double,
        "mc_gap": mc_gap,
        "mc_stderr": stderr,
    }
    report.add("pointmass_reduction<=1e-6", reduction_err <= 1e-6, f"err={reduction_err:.2e}")
    report.add("two_atom_mixture<=1e-6", mixture_err <= 1e-6, f"err={mixture_err:.2e}")
    report.add(
        "inner_doubling_within_2se",
        mc_gap <= 2.0 * max(stderr, 1e-12),
        f"gap={mc_gap:.2e}, stderr={stderr:.2e}",
    )

    write_csv(os.path.join(out, "summary.csv"), list(report.metrics), [list(report.metrics.values())])
    _write_timing({"total": time.perf_counter() - t_start}, out)
    return report


# ---------------------------------------------------------------------------
# novikov_check


def run_novikov_check(cfg: ExperimentConfig) -> ScenarioReport:
    """Exponential-moment estimates for the three standard sensors."""
    out = _prepare_dir(cfg)
    report = ScenarioReport(scenario=cfg.scenario)
    t_start = time.perf_counter()
    seed = cfg.seed
    horizon, dt, n_paths = cfg["horizon"], cfg["dt"], cfg["n_paths"]
    c = cfg["h_const"]
    theta = cfg["ou_theta"]

    bm = DiffusionModel(
        dim_state=1,
        drift=lambda x: np.zeros_like(x),
        diffusion_factor=constant_diffusion([[1.0]]),
        initial_law=InitialLaw.point_mass([0.0]),
    )
    ou = DiffusionModel(
        dim_state=1,
        drift=lambda x: -theta * np.asarray(x),
        diffusion_factor=constant_diffusion([[1.0]]),
        initial_law=InitialLaw.point_mass([0.0]),
    )
    zero_h = ObservationModel(dim_obs=1, sensor=lambda x: np.zeros(x.shape[:-1] + (1,)))
    const_h = ObservationModel(
        dim_obs=1, sensor=lambda x: np.full(x.shape[:-1] + (1,), c)
    )
    linear_h = ObservationModel(dim_obs=1, sensor=lambda x: np.asarray(x))

    cases = [
        ("h_zero", zero_h, bm, 1.0),
        ("h_const", const_h, bm, math.exp(0.5 * c * c * horizon)),
        ("h_linear_ou", linear_h, ou, None),
    ]
    rows = []
    for i, (name, h, mdl, expected) in enumerate(cases):
        rep = check_novikov(h, mdl, horizon, n_paths, RngStream(seed, STREAM_NOVIKOV).substream(i), dt=dt)
        rows.append([rep.estimate, rep.stderr, 1.0 if rep.finite else 0.0])
        report.metrics[f"{name}_estimate"] = rep.estimate
        report.metrics[f"{name}_stderr"] = rep.stderr
        report.add(f"{name}_finite", rep.finite, f"estimate={rep.estimate:.6g}")
        if expected is not None:
            # deterministic integrand: the left sum is exact, so match tightly
            err = abs(rep.estimate - expected)
            report.add(f"{name}_matches_closed_form", err <= 1e-9, f"err={err:.2e}")

    with open(os.path.join(out, "novikov.csv"), "w", newline="\n") as fh:
        fh.write("case,estimate,stderr,finite\n")
        for (name, _, _, _), row in zip(cases, rows):
            fh.write(f"{name},{row[0]!r},{row[1]!r},{row[2]!r}\n")
    write_csv(os.path.join(out, "summary.csv"), list(report.metrics), [list(report.metrics.values())])
    _write_timing({"total": time.perf_counter() - t_start}, out)
    return report


RUNNERS = {
    "linear_compare": run_linear_compare,
    "master_demo": run_master_demo,
    "heston_demo": run_heston_demo,
    "pricing_demo": run_pricing_demo,
    "novikov_check": run_novikov_check,
}


def run_scenario(cfg: ExperimentConfig) -> ScenarioReport:
    return RUNNERS[cfg.scenario](cfg)
