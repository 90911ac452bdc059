"""Latent-variance equity model, variance recovery, and filtered call pricing.

The square-root variance process and the log price evolve as

    dX = kappa (m - X) dt + gamma sqrt(X) dB
    dY = (mu - X/2) dt + sqrt(X) dW,        S = exp(Y),

discretized with full-truncation Euler (the clipped variance max(X, 0)
enters the drift, the square root, and the log-price drift), so the Feller
condition is never assumed.  The quadratic variation of Y recovers the
integrated variance, a particle filter tracks the latent variance from the
log-price record, and call prices are filtering expectations of the
Black-Scholes value over the posterior variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .filters import FilterEstimate, ParticleEnsemble, _log_norm, _resample_with_offset
from .rng import RngStream
from .sde import InitialLaw, SimulationDivergenceError


@dataclass(frozen=True)
class HestonModel:
    """Square-root variance dynamics plus equity drift."""

    kappa: float
    m: float
    gamma: float
    mu: float
    x0: float
    s0: float

    def __post_init__(self):
        if self.kappa < 0 or self.m < 0 or self.gamma < 0:
            raise ValueError("kappa, m, gamma must be nonnegative")
        if self.x0 < 0:
            raise ValueError("initial variance must be nonnegative")
        if self.s0 <= 0:
            raise ValueError("initial price must be positive")


@dataclass(frozen=True)
class EquityPaths:
    """Joint record of variance, price, and log price on a uniform grid."""

    times: np.ndarray
    variance: np.ndarray
    price: np.ndarray
    log_price: np.ndarray

    def __post_init__(self):
        if np.any(self.variance < 0):
            raise ValueError("variance path must be nonnegative after truncation")
        if np.any(self.price <= 0):
            raise ValueError("prices must be positive")
        if np.max(np.abs(np.log(self.price) - self.log_price)) > 1e-12:
            raise ValueError("log_price inconsistent with price")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


@dataclass(frozen=True)
class CallSpec:
    """European call: strike, absolute maturity, continuously compounded rate."""

    strike: float
    maturity: float
    rate: float = 0.0

    def __post_init__(self):
        if self.strike <= 0:
            raise ValueError("strike must be positive")
        if self.maturity <= 0:
            raise ValueError("maturity must be positive")


def simulate_heston(
    model: HestonModel, horizon: float, dt: float, rng: RngStream
) -> EquityPaths:
    """Full-truncation Euler simulation of one (variance, log-price) pair.

    Two internal substreams of ``rng`` drive the variance and price noises
    so the pair is independent.
    """
    if dt <= 0 or horizon <= 0:
        raise ValueError("horizon and dt must be positive")
    n = int(np.ceil(horizon / dt - 1e-9))
    db = rng.substream(0).generator().standard_normal((n, 1)) * np.sqrt(dt)
    dw = rng.substream(1).generator().standard_normal((n, 1)) * np.sqrt(dt)
    x, y = _kernels.heston_paths(
        np.array([model.x0]),
        np.array([math.log(model.s0)]),
        db,
        dw,
        dt,
        model.kappa,
        model.m,
        model.gamma,
        model.mu,
    )
    x, y = x[:, 0], y[:, 0]
    bad = ~np.isfinite(x) | ~np.isfinite(y)
    if np.any(bad):
        raise SimulationDivergenceError(int(np.argmax(bad)))
    return EquityPaths(
        times=np.arange(n + 1) * dt,
        variance=np.maximum(x, 0.0),
        price=np.exp(y),
        log_price=y,
    )


def realized_qv(log_price: np.ndarray) -> np.ndarray:
    """Cumulative sum of squared log-price increments (nondecreasing, QV_0 = 0)."""
    y = np.asarray(log_price, dtype=float)
    qv = np.empty_like(y)
    qv[0] = 0.0
    np.cumsum(np.diff(y) ** 2, out=qv[1:])
    return qv


def vol_recovery(qv: np.ndarray, window: int, dt: float) -> np.ndarray:
    """Spot variance from a sliding difference quotient of the QV series.

    Centered windows of half-width window//2 in the interior, one-sided at
    the edges.  Estimates the instantaneous slope d[QV]/dt, i.e. the
    squared volatility.
    """
    qv = np.asarray(qv, dtype=float)
    n = qv.size
    if window < 2:
        raise ValueError("window must be at least 2")
    if window >= n:
        raise ValueError(f"window {window} must be smaller than the series length {n}")
    half = window // 2
    idx = np.arange(n)
    hi = np.minimum(idx + half, n - 1)
    lo = np.maximum(idx - half, 0)
    return (qv[hi] - qv[lo]) / ((hi - lo) * dt)


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def bs_call_price(spot: float, spec: CallSpec, mean_variance: float, t_now: float = 0.0) -> float:
    """Black-Scholes call value with total variance mean_variance * (T - t).

    At zero variance the discounted intrinsic value is returned.
    """
    if spot < 0 or mean_variance < 0:
        raise ValueError("spot and mean_variance must be nonnegative")
    tau = spec.maturity - t_now
    if tau <= 0:
        raise ValueError("maturity must lie after the valuation time")
    discount = math.exp(-spec.rate * tau)
    if spot == 0.0:
        return 0.0
    total_var = mean_variance * tau
    if total_var == 0.0:
        return max(spot - spec.strike * discount, 0.0)
    sd = math.sqrt(total_var)
    d1 = (math.log(spot / spec.strike) + spec.rate * tau + 0.5 * total_var) / sd
    d2 = d1 - sd
    return spot * _norm_cdf(d1) - spec.strike * discount * _norm_cdf(d2)


# Kernel columns per inner Monte Carlo call: bounds the chunk's arrays at
# about 4 x 8 x 256 x (n_steps + 1) bytes while keeping nearly all the gain
# of batching (peak memory grows with the column count).
_INNER_COLUMNS = 256


def simulate_variance_paths(
    model: HestonModel, x0: np.ndarray, n_paths: int, n_steps: int, dt: float,
    gens: list[np.random.Generator],
) -> np.ndarray:
    """Antithetic variance paths for several starting values in one kernel call.

    Starting value ``x0[i]`` gets ``n_paths`` columns driven by its own
    generator ``gens[i]``: half a block of normals and its negation, cut to
    ``n_paths``.  The blocks sit side by side, so the result has shape
    (n_steps+1, len(x0) * n_paths) with value i in columns
    ``i*n_paths : (i+1)*n_paths``.
    """
    half = (n_paths + 1) // 2
    blocks = []
    for gen in gens:
        z = gen.standard_normal((n_steps, half)) * np.sqrt(dt)
        blocks.append(np.concatenate([z, -z], axis=1)[:, :n_paths])
    db = np.concatenate(blocks, axis=1)
    x, _ = _kernels.heston_paths(
        np.repeat(x0, n_paths),
        np.zeros(db.shape[1]),
        db,
        np.zeros_like(db),
        dt,
        model.kappa,
        model.m,
        model.gamma,
        0.0,
    )
    return x


def filtered_option_price(
    ens: ParticleEnsemble,
    model: HestonModel,
    spec: CallSpec,
    spot: float,
    inner_paths: int,
    rng: RngStream,
    t_now: float = 0.0,
    inner_dt: float | None = None,
) -> float:
    """Posterior-averaged Black-Scholes price over the variance ensemble.

    For each particle the average variance to maturity is estimated by an
    antithetic inner Monte Carlo, plugged into the Black-Scholes formula,
    and averaged with the particle weights.

    The inner Monte Carlo runs in chunks of ``max(1, 256 // inner_paths)``
    particles, one kernel call per chunk, so the chunk's arrays never hold
    more than 256 columns (or one particle's ``inner_paths``) of
    ``n_steps + 1`` values.  The result equals evaluating each particle on
    its own, bit for bit: particle i draws from its own substream
    ``rng.substream(i)`` (so the result does not depend on evaluation
    order or chunking), and the full-truncation Euler step, the quadrature
    sum and the mean over a particle's paths do the same arithmetic on each
    column whatever its neighbours are.
    """
    if not ens.normalized:
        raise ValueError("ensemble must be normalized")
    if ens.dim != 1:
        raise ValueError("variance ensembles are 1-D")
    if inner_paths < 2:
        raise ValueError("need at least 2 inner paths")
    tau = spec.maturity - t_now
    if tau <= 0:
        raise ValueError("maturity must lie after the valuation time")
    inner_dt = tau / 200 if inner_dt is None else inner_dt
    n_steps = int(np.ceil(tau / inner_dt - 1e-9))
    dt = tau / n_steps

    x0s = ens.positions[:, 0]
    chunk = max(1, _INNER_COLUMNS // inner_paths)
    zbar = np.empty(ens.n)
    for lo in range(0, ens.n, chunk):
        hi = min(lo + chunk, ens.n)
        gens = [rng.substream(i).generator() for i in range(lo, hi)]
        x = simulate_variance_paths(model, x0s[lo:hi], inner_paths, n_steps, dt, gens)
        # left-point quadrature of the truncated variance over [t, T]
        path_avg = np.sum(np.maximum(x[:-1], 0.0), axis=0) * dt / tau
        zbar[lo:hi] = path_avg.reshape(hi - lo, inner_paths).mean(axis=1)
    prices = np.array([bs_call_price(spot, spec, float(z), t_now) for z in zbar])
    return float(ens.weights @ prices)


def heston_filter(
    model: HestonModel,
    log_price: np.ndarray,
    dt: float,
    n_particles: int,
    rng: RngStream,
    initial_law: InitialLaw | None = None,
    resample_threshold: float = 0.5,
    x_floor: float = 1e-8,
    snapshot_indices=None,
):
    """Particle filter for the latent variance given a log-price record.

    The observed increment dY_k is Gaussian with mean (mu - x/2) dt and
    variance max(x, x_floor) dt given the pre-step variance x, so each step
    weights with that density at the current particles, resamples if the
    effective sample size degenerates, then mutates through the variance
    dynamics.  Moments "x" (posterior mean) and "x2" are recorded on the
    record grid; estimates at t_k use observations up to t_k.

    Returns the moment series; with ``snapshot_indices`` given, also a dict
    mapping each requested time index to the posterior ensemble there.
    """
    y = np.asarray(log_price, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise ValueError("log_price must be a 1-D series with at least two points")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if initial_law is None:
        spread = max(0.25 * model.x0, 1e-4)
        initial_law = InitialLaw.gaussian([model.x0], [[spread**2]])

    gen = rng.generator()
    x = initial_law.sample(n_particles, gen)[:, 0]
    lw = np.full(n_particles, -np.log(n_particles))

    n = y.size
    mean_series = np.empty(n)
    m2_series = np.empty(n)
    ess_series = np.empty(n)
    wanted = set(int(i) for i in snapshot_indices) if snapshot_indices is not None else set()
    snapshots = {}

    def record(k):
        w = np.exp(lw)
        mean_series[k] = w @ x
        m2_series[k] = w @ x**2
        ess_series[k] = 1.0 / np.sum(w**2)
        if k in wanted:
            snapshots[k] = ParticleEnsemble(
                positions=x[:, None].copy(), log_weights=lw.copy(), normalized=True
            )

    record(0)
    dy = np.diff(y)
    for k in range(n - 1):
        # weight with the transition density of the observed increment
        var = np.maximum(x, x_floor) * dt
        resid = dy[k] - (model.mu - 0.5 * x) * dt
        log_incr = -0.5 * (resid**2 / var + np.log(2 * np.pi * var))
        lw, _ = _log_norm(lw + log_incr)

        if 1.0 / np.sum(np.exp(lw) ** 2) < resample_threshold * n_particles:
            ens = ParticleEnsemble(positions=x[:, None], log_weights=lw, normalized=True)
            ens = _resample_with_offset(ens, float(gen.uniform()))
            x, lw = ens.positions[:, 0], ens.log_weights

        # mutate through the variance dynamics (full truncation)
        xp = np.maximum(x, 0.0)
        x = x + model.kappa * (model.m - xp) * dt + model.gamma * np.sqrt(xp) * (
            gen.standard_normal(n_particles) * np.sqrt(dt)
        )
        record(k + 1)

    est = FilterEstimate(
        times=np.arange(n) * dt,
        moments={"x": mean_series, "x2": m2_series},
        ess=ess_series,
    )
    return (est, snapshots) if snapshot_indices is not None else est
