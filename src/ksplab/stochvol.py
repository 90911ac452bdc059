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
from .filters import (
    FilterEstimate,
    ParticleEnsemble,
    _ParticleBuffers,
    _reweight,
    _uniform_log_weights,
)
from .rng import RngStream
from .sde import InitialLaw, SimulationDivergenceError, _n_steps


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

    def variance_prior(self) -> InitialLaw:
        """Gaussian prior on the variance: mean x0, sd max(x0 / 4, 1e-4)."""
        return InitialLaw.gaussian([self.x0], [[max(0.25 * self.x0, 1e-4) ** 2]])


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
    n = _n_steps(horizon, dt)
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


# Inner Monte Carlo memory.  A group of particles keeps its paths' state at
# once, x, acc and variance_step's three scratch arrays: 40 bytes a column,
# 0.66 MB at the cap, which holds heston_demo's 200 particles x 64 paths in one
# group.  Time is drawn in slabs of rows, so the draw buffer holds at most
# about _SLAB_VALUES values (0.8 MB), or one row, whatever the step count.
_INNER_COLUMNS = 16_384
_SLAB_VALUES = 102_400


def simulate_variance_paths(
    model: HestonModel, x0: np.ndarray, n_paths: int, n_steps: int, dt: float,
    gens: list[np.random.Generator],
) -> np.ndarray:
    """Summed antithetic variance paths for several starting values, stepped as one array.

    Starting value ``x0[i]`` gets ``n_paths`` columns driven by its own
    generator ``gens[i]``: half a block of normals and its negation, cut to
    ``n_paths``.  The paths of all starting values advance together through
    ``_kernels.heston_variance_sum``, one ``variance_step`` per time step on
    every column, and time is drawn in slabs of a few rows: each slab,
    ``gens[i]`` fills its part ``buf[i, 0]`` of one buffer shaped
    ``(len(x0), 2, rows, half)`` in place, and one ``np.negative`` writes
    every antithetic half ``buf[:, 1]``.  A generator's successive slabs are
    the rows of the one ``(n_steps, half)`` block it would fill at once, so
    the draws do not depend on the slab size.  An odd ``n_paths`` steps one
    spare antithetic column per value, which is dropped.

    Returns the ``(len(x0), n_paths)`` array of each column's sum over
    steps ``0..n_steps-1`` of the truncated variance ``max(X_k, 0)``; no path
    matrix is built.
    """
    half = (n_paths + 1) // 2
    shape = (len(gens), 2, half)
    x = np.empty(shape)
    x[...] = x0[:, None, None]
    acc = np.zeros(shape)
    scratch = [np.empty(shape) for _ in range(3)]
    rows = max(1, min(n_steps, _SLAB_VALUES // x.size))
    buf = np.empty((len(gens), 2, rows, half))
    sqrt_dt = math.sqrt(dt)
    for lo in range(0, n_steps, rows):
        slab = buf[:, :, :min(rows, n_steps - lo)]
        for i, gen in enumerate(gens):
            gen.standard_normal(out=slab[i, 0])
        slab[:, 0] *= sqrt_dt
        np.negative(slab[:, 0], out=slab[:, 1])
        _kernels.heston_variance_sum(
            x, acc, np.moveaxis(slab, 2, 0), dt, model.kappa, model.m, model.gamma, *scratch
        )
    return acc.reshape(len(gens), 2 * half)[:, :n_paths]


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

    The inner Monte Carlo steps all particles' paths as one wide array: the
    particles are split into groups of at most ``_INNER_COLUMNS`` columns
    (one group when ``n * inner_paths`` fits, at least one particle each),
    and ``simulate_variance_paths`` steps a group's columns together, one
    kernel row per time step, drawing time in slabs of
    ``_SLAB_VALUES // columns`` rows.  Memory is O(group columns) plus one
    slab buffer, whatever the step count.  The kernel returns each column's
    summed truncated variance, ``acc``, and ``acc * dt / tau`` is the
    left-point average.  The result equals evaluating each particle on its
    own with ``heston_paths`` and an axis-0 sum, bit for bit: particle i
    draws from its own substream ``rng.substream(i)`` (so the result does
    not depend on evaluation order, grouping or slab size), and the
    full-truncation Euler step, the quadrature sum and the mean over a
    particle's paths do the same arithmetic on each column whatever its
    neighbours are.
    """
    if ens.dim != 1:
        raise ValueError("variance ensembles are 1-D")
    if inner_paths < 2:
        raise ValueError("need at least 2 inner paths")
    tau = spec.maturity - t_now
    if tau <= 0:
        raise ValueError("maturity must lie after the valuation time")
    inner_dt = tau / 200 if inner_dt is None else inner_dt
    if inner_dt <= 0:
        raise ValueError("inner_dt must be positive")
    n_steps = int(np.ceil(tau / inner_dt - 1e-9))
    dt = tau / n_steps

    x0s = ens.positions[:, 0]
    # an odd path count steps one spare antithetic column per particle
    group = max(1, _INNER_COLUMNS // (inner_paths + inner_paths % 2))
    zbar = np.empty(ens.n)
    for lo in range(0, ens.n, group):
        hi = min(lo + group, ens.n)
        gens = [rng.substream(i).generator() for i in range(lo, hi)]
        acc = simulate_variance_paths(model, x0s[lo:hi], inner_paths, n_steps, dt, gens)
        # left-point quadrature of the truncated variance over [t, T]
        zbar[lo:hi] = (acc * dt / tau).mean(axis=1)
    prices = np.array([bs_call_price(spot, spec, float(z), t_now) for z in zbar])
    return float(ens.weights @ prices)


_X_FLOOR = 1e-8  # keeps heston_filter's observation density finite at x <= 0


def heston_filter(
    model: HestonModel,
    log_price: np.ndarray,
    dt: float,
    n_particles: int,
    rng: RngStream,
    resample_threshold: float = 0.5,
    snapshot_indices=(),
    on_snapshot=None,
) -> FilterEstimate:
    """Particle filter for the latent variance given a log-price record.

    The particles start from ``model.variance_prior()``.  The observed
    increment dY_k is Gaussian with mean (mu - x/2) dt and variance
    max(x, _X_FLOOR) dt given the pre-step variance x, so each step weights
    with that density at the current particles, resamples if the effective
    sample size degenerates, then mutates the particles in place through the
    variance dynamics, ``_kernels.variance_step``.  Moments "x" (posterior
    mean) and "x2" are recorded on the record grid; estimates at t_k use
    observations up to t_k.

    The particles live as bare arrays in float64 buffers made once per run
    (``filters._ParticleBuffers`` plus the scratch of
    ``variance_step``): the log-likelihood increment is written in place
    with the operations, in the order, of
    ``-0.5 * (resid**2 / var + log(2 pi var))``, and the reweight /
    normalize / resample step is ``filters._reweight`` on the same buffers,
    the cycle ``pf_step`` runs.  An ensemble is built only for a requested
    snapshot.

    Returns the moment series.  At each time index in ``snapshot_indices``,
    which must lie in ``[0, len(log_price))``, the posterior ensemble there
    (a copy) is handed to ``on_snapshot(k, ensemble)`` the moment it is
    recorded, in increasing ``k``, while the filter runs on; to collect
    them, pass ``on_snapshot=snapshots.__setitem__`` for a dict
    ``snapshots``.
    """
    y = np.asarray(log_price, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise ValueError("log_price must be a 1-D series with at least two points")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_particles < 2:
        raise ValueError("need at least 2 particles")
    n = y.size
    wanted = set(int(i) for i in snapshot_indices)
    outside = sorted(i for i in wanted if not 0 <= i < n)
    if outside:
        raise ValueError(f"snapshot_indices outside [0, {n}): {outside}")
    if wanted and on_snapshot is None:
        raise ValueError("snapshot_indices given without an on_snapshot callback")

    gen = rng.generator()
    buffers = _ParticleBuffers((n_particles,))
    x = buffers.positions[0]
    x[:] = model.variance_prior().sample(n_particles, gen)[:, 0]
    lw = _uniform_log_weights(n_particles)
    xp, drift, vol, db = (np.empty(n_particles) for _ in range(4))

    mean_series = np.empty(n)
    m2_series = np.empty(n)
    ess_series = np.empty(n)

    def record(k, x, lw, w, n_eff):
        mean_series[k] = np.dot(w, x)
        m2_series[k] = np.dot(w, np.square(x, out=xp))  # xp is free between steps
        ess_series[k] = n_eff
        if k in wanted:
            on_snapshot(k, ParticleEnsemble(positions=x[:, None].copy(), log_weights=lw.copy()))

    w = np.exp(lw)
    record(0, x, lw, w, 1.0 / np.sum(w**2))
    dy = np.diff(y)
    sqrt_dt = math.sqrt(dt)
    two_pi = 2 * np.pi
    var, incr = buffers.tmp, buffers.incr
    for k in range(n - 1):
        # weight with the transition density of the observed increment, in
        # place: as the plain expression it gave the same bits but about 3%
        # more heston_pipeline wall time (6 of 6 perfbench pairs)
        np.maximum(x, _X_FLOOR, out=var)
        var *= dt
        np.multiply(0.5, x, out=incr)
        np.subtract(model.mu, incr, out=incr)
        incr *= dt
        np.subtract(dy[k], incr, out=incr)
        np.square(incr, out=incr)
        incr /= var
        var *= two_pi
        incr += np.log(var, out=var)
        incr *= -0.5
        x, lw, w, n_eff = _reweight(x, lw, incr, gen, resample_threshold, buffers)

        # mutate through the variance dynamics in place; the weights do not
        # change, so the cycle's w and ESS are those of the new x
        gen.standard_normal(out=db)
        db *= sqrt_dt
        _kernels.variance_step(x, db, dt, model.kappa, model.m, model.gamma, xp, drift, vol)
        record(k + 1, x, lw, w, n_eff)

    return FilterEstimate(
        times=np.arange(n) * dt,
        moments={"x": mean_series, "x2": m2_series},
        ess=ess_series,
    )
