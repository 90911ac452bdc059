"""Scenario runners: seeded experiments, CSV emission, cross-method reports.

Each runner consumes a validated :class:`~ksplab.config.ExperimentConfig`
and returns a report carrying pass/fail checks.  The frame
:func:`_scenario` owns that report: it builds it and hands it to the
scenario's body, which writes its data files and fills in the checks, the
metrics and the wall time of each layer it wraps in ``report.timed``.  The
frame then writes the files every scenario shares: ``manifest.json``,
``summary.csv`` (the report's metrics) and ``timing.json`` (wall-clock
``total`` plus the layer splits), the one file excluded from the
byte-identity guarantee.  All
randomness derives from the master seed through fixed labeled stream
offsets, so adding a scenario never perturbs existing ones and reruns with
an equal manifest produce byte-identical data files.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from ._fork import _alongside
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
    _step_noise,
    _substream_noise,
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
    runtime: dict = field(default_factory=dict)  # wall-clock splits for timing.json
    # linear_compare's particle ESS summary; perfbench's worker reads it
    # through getattr for its filters.ess_mean_frac metric
    ess_stats: dict = field(default_factory=dict)

    @contextmanager
    def timed(self, name: str):
        """Add the wall time of the ``with`` block to ``runtime[name]``."""
        t0 = time.perf_counter()
        yield
        self.runtime[name] = self.runtime.get(name, 0.0) + time.perf_counter() - t0

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append(Check(name, bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self):
        return next((c for c in self.checks if not c.passed), None)


def _write_json(path: str, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _scenario(body):
    """Frame a runner ``body(cfg, out, report)`` with the shared outputs.

    Writes ``manifest.json`` (which records the Python and numpy versions
    next to the package version and backend), then hands the body a fresh
    :class:`ScenarioReport` to fill in, then writes ``summary.csv`` from
    ``report.metrics`` and ``timing.json`` as the body's wall-clock
    ``total`` merged with ``report.runtime``, and returns the report.
    """

    @functools.wraps(body)
    def run(cfg: ExperimentConfig) -> ScenarioReport:
        out = cfg.output_dir
        os.makedirs(out, exist_ok=True)
        manifest = {
            "scenario": cfg.scenario,
            "seed": cfg.seed,
            "config_hash": cfg.config_hash(),
            "version": __version__,
            "backend": BACKEND,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        }
        _write_json(os.path.join(out, "manifest.json"), manifest)
        report = ScenarioReport(scenario=cfg.scenario)
        t_start = time.perf_counter()
        body(cfg, out, report)
        metrics = report.metrics
        write_csv(os.path.join(out, "summary.csv"), list(metrics), [list(metrics.values())])
        timing = {"total": time.perf_counter() - t_start, **report.runtime}
        _write_json(os.path.join(out, "timing.json"), timing)
        return report

    return run


def _run_with_collapse_recovery(run, n_particles: int):
    """Degenerate-weight policy: rerun once with 10x particles, never perturb weights."""
    try:
        return run(n_particles), n_particles
    except EnsembleCollapseError:
        return run(10 * n_particles), 10 * n_particles


def _noise_from_child(child, rng: RngStream, dt: float, n_times: int):
    """A noise source for :func:`run_particle_filter` that hands its drawing to ``child``.

    Step k's noise is drawn here (``filters._substream_noise``) until a
    poll, made at each step without waiting, finds the child's value.  That
    step makes the generators of substreams k + 1 to ``n_times - 1`` here
    and asks the child for their noise, sending their states and the
    particle shape; the child (serving :func:`_noise_frames`) draws each
    step's increments and uniform from its state with the same helper and
    sends them as one ``(dv, u)`` item, which this process reads at that
    step.  So the noise is the same whichever process draws it.
    The handoff step depends on timing, but this process makes every step's
    generator whatever step it comes at, so the work it does at that layer
    (``RngStream.generator``, which perfbench counts) repeats from run to
    run; the set-up takes about 16 of the 150 us a step's noise costs.  An
    attempt made after a handoff (a collapse rerun) stops the child and
    draws its own noise.  Without a child (``None``) this process draws it
    all.
    """
    handed_off = False

    def source(shape):
        own = _substream_noise(rng, shape, dt)
        if handed_off:
            child.stop()
            return own

        def draw(k):
            nonlocal handed_off
            if handed_off:
                return child.item()
            if child is not None and k + 1 < n_times and child.poll():
                states = []  # PCG64's (state, inc), a fraction of its state dict's size
                for j in range(k + 1, n_times):
                    pcg = rng.substream(j).generator().bit_generator.state["state"]
                    states.append((pcg["state"], pcg["inc"]))
                child.request(states, shape, dt)
                handed_off = True
            return own(k)

        return draw

    return source


def _noise_frames(states: list, shape: tuple, dt: float):
    """The child's half of :func:`_noise_from_child`: one ``(dv, u)`` item per generator state.

    Each item is the step's increments and uniform, drawn by
    ``filters._step_noise`` from a generator set to the step's fresh PCG64
    ``(state, inc)``, as ``filters._substream_noise`` draws them from a
    fresh generator of the step's substream.
    """
    bits = np.random.PCG64()
    gen = np.random.Generator(bits)
    dv = np.empty(shape)
    for state, inc in states:
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        u = _step_noise(gen, dv, dt)
        yield dv, u


# ---------------------------------------------------------------------------
# linear_compare


@_scenario
def run_linear_compare(cfg: ExperimentConfig, out: str, report: ScenarioReport) -> None:
    """Kalman-Bucy oracle vs particle and grid filters on one shared record.

    Once the record is drawn the three layers share nothing: a forked child
    runs the Kalman oracle and then the grid filter while this process runs
    the particle filter (``_alongside``).  Once it has sent its oracles, the
    child draws the particle filter's noise for the steps this process has
    not reached and streams it here (``_noise_from_child``); step k's noise
    comes from substream k wherever it is drawn, so every file keeps its
    bytes.  Every file is written here.
    """
    seed = cfg.seed

    model = LinearModel(
        F=[[cfg["F"]]], f0=[cfg["f0"]], sigma=[[cfg["sigma"]]], H=[[cfg["H"]]], h0=[cfg["h0"]]
    )
    law = InitialLaw.gaussian([cfg["prior_mean"]], [[cfg["prior_var"]]])
    state_model = model.as_diffusion_model(law)
    obs_model = model.as_observation_model()

    with report.timed("simulate"):
        truth = simulate_path(state_model, cfg["horizon"], cfg["dt"], RngStream(seed, STREAM_TRUTH))
        obs = simulate_observation(obs_model, truth, RngStream(seed, STREAM_OBS))

    prior = GaussianBelief(mean=law.params["mean"], cov=law.params["cov"])
    pf_rng = RngStream(seed, STREAM_PF)

    def oracles(_emit):
        with report.timed("kalman"):
            beliefs = run_kalman(model, obs, prior)
            # two stacked arrays travel back smaller than a belief object per time
            kalman = np.array([b.mean for b in beliefs]), np.array([b.cov for b in beliefs])
        with report.timed("grid"):
            grid = run_grid_filter(
                state_model, obs_model, obs, cfg["x_lo"], cfg["x_hi"], cfg["n_grid"]
            )
        return kalman, grid

    phi = (lambda x: x[..., 0], lambda x: np.ones_like(x), lambda x: np.zeros(x.shape + (1,)))

    def particle(child):
        noise = _noise_from_child(child, pf_rng, obs.dt, obs.times.size)
        with report.timed("particle"):
            return _run_with_collapse_recovery(
                lambda n: run_particle_filter(
                    state_model,
                    obs_model,
                    obs,
                    n,
                    pf_rng,
                    ksp_phi=phi,
                    resample_threshold=cfg["resample_threshold"],
                    noise=noise,
                ),
                cfg["n_particles"],
            )

    ((kal_means, kal_covs), grid), (pf, n_used) = _alongside(
        oracles, particle, report.runtime, serve=_noise_frames
    )
    kal_mean = kal_means[:, 0]
    kal_var = kal_covs[:, 0, 0]
    pf_mean = pf.moments["x"]
    pf_var = pf.moments["x2"] - pf_mean**2
    pf_gain = pf.moments["phi_h"] - pf.moments["phi"] * pf.moments["h"]
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

    report.ess_stats = {"min": float(np.min(pf.ess)), "mean": float(np.mean(pf.ess))}
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
    beliefs_to_csv(obs.times, kal_means, kal_covs, os.path.join(out, "kalman.csv"))
    estimates_to_csv(pf, os.path.join(out, "pf_estimates.csv"))
    estimates_to_csv(grid, os.path.join(out, "grid_estimates.csv"))
    series = {
        "kalman_mean": kal_mean,
        "kalman_var": kal_var,
        "pf_mean": pf_mean,
        "pf_var": pf_var,
        "grid_mean": grid_mean,
        "grid_var": grid_var,
        "pf_gain": pf_gain,
        "kalman_gain": kal_gain,
    }
    write_csv(
        os.path.join(out, "report.csv"),
        ["t"] + list(series),
        np.column_stack([obs.times] + list(series.values())),
    )


# ---------------------------------------------------------------------------
# master_demo


@_scenario
def run_master_demo(cfg: ExperimentConfig, out: str, report: ScenarioReport) -> None:
    """Transition-kernel semigroup, gain-loss ODE, and stationarity checks."""
    W = rate_matrix_from_triplets(cfg["rates"])
    G = generator_from_rates(W)
    tau_a, tau_b = cfg["tau_a"], cfg["tau_b"]
    # the first evolve_kernel call pays the one-time scipy import
    with report.timed("kernels"):
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
    with report.timed("ode"):
        for _ in range(n_steps):
            p = p + (p @ G) * dtau
            min_entry = min(min_entry, float(p.min()))
            p = np.maximum(p, 0.0)
            max_drift = max(max_drift, abs(float(p.sum()) - 1.0))

    with report.timed("taylor"):
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


# ---------------------------------------------------------------------------
# heston_demo


def _heston_scenario_objects(cfg: ExperimentConfig):
    model = HestonModel(
        kappa=cfg["kappa"], m=cfg["m"], gamma=cfg["gamma"], mu=cfg["mu"], x0=cfg["x0"], s0=cfg["s0"]
    )
    spec = CallSpec(strike=cfg["strike"], maturity=cfg["maturity"], rate=cfg["rate"])
    return model, spec


@_scenario
def run_heston_demo(cfg: ExperimentConfig, out: str, report: ScenarioReport) -> None:
    """Latent-variance tracking: simulation, QV recovery, filtering, pricing.

    Once the path is drawn, a forked child runs the filter, collapse rerun
    included, and sends each posterior snapshot to be priced the moment it
    is recorded, while this process recovers the variance from the QV and
    then prices each snapshot as it arrives (``_alongside``), so pricing
    overlaps the filter.  A rerun sends its snapshots again and their
    prices replace the first ones; pricing at index k draws only from
    substreams 2k and 2k + 1, so every file keeps its bytes.  Every file is
    written here.
    """
    seed = cfg.seed
    model, spec = _heston_scenario_objects(cfg)

    with report.timed("simulate"):
        paths = simulate_heston(model, cfg["horizon"], cfg["dt"], RngStream(seed, STREAM_HESTON))

    stride = cfg["filter_stride"]
    y_coarse = paths.log_price[::stride]
    dt_coarse = cfg["dt"] * stride
    n_coarse = y_coarse.size
    times = np.arange(n_coarse) * dt_coarse  # the filter's own time grid
    price_idx = ()
    if spec.maturity > cfg["horizon"]:
        price_idx = np.unique(np.linspace(0, n_coarse - 1, cfg["n_price_times"], dtype=int))

    def filter_child(emit):
        with report.timed("filter"):
            est, _ = _run_with_collapse_recovery(
                lambda n: heston_filter(
                    model,
                    y_coarse,
                    dt_coarse,
                    n,
                    RngStream(seed, STREAM_FILTER),
                    snapshot_indices=price_idx,
                    on_snapshot=emit,
                ),
                cfg["n_particles"],
            )
        return est

    def recover(_child):
        with report.timed("recovery"):
            return vol_recovery(realized_qv(paths.log_price), cfg["window"], cfg["dt"])

    prices = np.full(n_coarse, np.nan)
    pricing_base = RngStream(seed, STREAM_PRICING)
    report.runtime["pricing"] = 0.0  # each price() call adds its time; none may be made

    def price(k, ens):
        with report.timed("pricing"):
            u0 = float(pricing_base.substream(2 * k).generator().uniform())
            prices[k] = filtered_option_price(
                _resample_with_offset(ens, u0, min(200, ens.n)),
                model,
                spec,
                spot=float(paths.price[k * stride]),
                inner_paths=cfg["inner_paths"],
                rng=pricing_base.substream(2 * k + 1),
                t_now=float(times[k]),
            )

    est, recovery = _alongside(filter_child, recover, report.runtime, price)

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

    write_csv(
        os.path.join(out, "stochvol.csv"),
        ["t", "x_true", "x_post_mean", "x_post_var", "qv_recovery", "option_price"],
        np.column_stack([est.times, truth_coarse, post_mean, post_var, recovery_coarse, prices]),
    )


# ---------------------------------------------------------------------------
# pricing_demo


@_scenario
def run_pricing_demo(cfg: ExperimentConfig, out: str, report: ScenarioReport) -> None:
    """Filtered pricing reductions and Monte Carlo self-consistency."""
    model, spec = _heston_scenario_objects(cfg)
    spot = cfg["s0"]
    base = RngStream(cfg.seed, STREAM_PRICING)

    def price(ens, mdl, rng, inner_paths=cfg["inner_paths"]):
        return filtered_option_price(
            ens, mdl, spec, spot, inner_paths, rng, inner_dt=cfg["inner_dt"]
        )

    with report.timed("reductions"):
        # point-mass reduction at constant variance: no Monte Carlo noise at all
        const_model = replace(model, kappa=0.0, gamma=0.0)
        point = ParticleEnsemble.uniform(np.array([[model.x0], [model.x0]]))
        p_reduced = price(point, const_model, base)
        # two-atom mixture with frozen variances
        two = ParticleEnsemble.uniform(np.array([[0.01], [0.09]]))
        p_mix = price(two, const_model, base.substream(1))
    p_direct = bs_call_price(spot, spec, model.x0)
    reduction_err = abs(p_reduced - p_direct)
    p_mix_direct = 0.5 * (bs_call_price(spot, spec, 0.01) + bs_call_price(spot, spec, 0.09))
    mixture_err = abs(p_mix - p_mix_direct)

    # Monte Carlo self-consistency under the full model from a prior ensemble
    gen = base.substream(2).generator()
    prior = ParticleEnsemble.uniform(np.abs(model.variance_prior().sample(cfg["n_particles"], gen)))
    with report.timed("replicates"):
        reps = np.array([price(prior, model, base.substream(3 + r)) for r in range(8)])
        p_double = price(prior, model, base.substream(11), inner_paths=2 * cfg["inner_paths"])
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


# ---------------------------------------------------------------------------
# novikov_check


@_scenario
def run_novikov_check(cfg: ExperimentConfig, out: str, report: ScenarioReport) -> None:
    """Exponential-moment estimates for the three standard sensors, run concurrently.

    The cases share nothing (each has its own model, sensor and substream)
    and their work is numpy draws and ufuncs that release the GIL, so the
    calling thread runs case 0 while a pool of ``len(cases) - 1`` threads
    runs the rest.  Results are taken in case order, so every file is the
    same bytes as running the cases one after another.  Each case's
    ``timing.json`` split is its own wall time: the splits overlap and sum
    to more than ``total``.  If a case raises, the others still finish and
    the first failure in case order propagates.
    """
    # imported here, not at the top: it loads logging into every scenario
    from concurrent.futures import ThreadPoolExecutor

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
    base = RngStream(cfg.seed, STREAM_NOVIKOV)

    def run_case(i):
        name, h, mdl, _ = cases[i]
        with report.timed(name):
            return check_novikov(h, mdl, horizon, n_paths, base.substream(i), dt=dt)

    with ThreadPoolExecutor(len(cases) - 1) as pool:
        futures = [pool.submit(run_case, i) for i in range(1, len(cases))]
        reps = [run_case(0)] + [f.result() for f in futures]

    for (name, _, _, expected), rep in zip(cases, reps):
        report.metrics[f"{name}_estimate"] = rep.estimate
        report.metrics[f"{name}_stderr"] = rep.stderr
        report.add(f"{name}_finite", rep.finite, f"estimate={rep.estimate:.6g}")
        if expected is not None:
            # deterministic integrand: the left sum is exact, so match tightly
            err = abs(rep.estimate - expected)
            report.add(f"{name}_matches_closed_form", err <= 1e-9, f"err={err:.2e}")

    with open(os.path.join(out, "novikov.csv"), "w", newline="\n") as fh:
        fh.write("case,estimate,stderr,finite\n")
        for (name, _, _, _), rep in zip(cases, reps):
            fh.write(f"{name},{rep.estimate!r},{rep.stderr!r},{1.0 if rep.finite else 0.0!r}\n")


RUNNERS = {
    "linear_compare": run_linear_compare,
    "master_demo": run_master_demo,
    "heston_demo": run_heston_demo,
    "pricing_demo": run_pricing_demo,
    "novikov_check": run_novikov_check,
}


def run_scenario(cfg: ExperimentConfig) -> ScenarioReport:
    return RUNNERS[cfg.scenario](cfg)
