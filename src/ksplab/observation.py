"""Integrated observation process and the change-of-measure weight.

The observation accumulates the sensor reading plus unit-intensity noise,

    Y_t = integral_0^t h(X_s) ds + W_t,   Y_0 = 0,

with W a Wiener process independent of the state.  The exponential weight

    Z_T = exp(-sum_k h(X_k).dW_k - 1/2 sum_k |h(X_k)|^2 dt)

is the discrete Radon-Nikodym density that makes Y a pure Wiener process
under the tilted measure; it is a mean-one martingale, which the test suite
verifies by Monte Carlo.  Weights are kept in the log domain throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import RngStream
from .sde import DiffusionModel, SamplePath, _check_time_grid, _ensemble_states, _n_steps
# Unused here since check_novikov streams the states; kept importable
# because perfbench's tracer wraps ``ksplab.observation.simulate_ensemble``
# and reports a target that stops resolving as absent.
from .sde import simulate_ensemble  # noqa: F401


@dataclass(frozen=True)
class ObservationModel:
    """Sensor map h with unit-intensity additive observation noise.

    ``sensor`` must be a deterministic function of the state alone, because
    its values are reused: the grid solver evaluates it once per run at its
    nodes, and the particle filter once per step for both the weights and
    the recorded "h" and "phi_h" moments.  The particle filter calls it on
    the whole (N, d) ensemble every step, so, as for the drift, prefer
    elementwise ops or ``np.dot`` to ``x @ M``, which is 6-10x slower with
    a trailing dimension of 1 (see ``sde.DiffusionModel``).
    """

    dim_obs: int
    sensor: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.dim_obs < 1:
            raise ValueError("dim_obs must be a positive integer")

    def sensor_values(self, x: np.ndarray) -> np.ndarray:
        """h over a batch of states (..., d) -> (..., m), shape-checked."""
        h = np.asarray(self.sensor(np.asarray(x, dtype=float)), dtype=float)
        if h.shape[-1] != self.dim_obs:
            raise ValueError(f"sensor returned trailing dimension {h.shape[-1]}, expected {self.dim_obs}")
        if not np.all(np.isfinite(h)):
            raise ValueError("sensor must return finite values")
        return h


@dataclass(frozen=True)
class ObservationPath:
    """Observation record on a uniform grid from 0; increments are cached."""

    times: np.ndarray
    values: np.ndarray
    increments: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        dv = np.asarray(self.increments, dtype=float)
        _check_time_grid(t)
        if v.ndim != 2 or v.shape[0] != t.size:
            raise ValueError("values must be (n_times, dim_obs)")
        if np.any(v[0] != 0.0):
            raise ValueError("observation path must start at 0")
        if dv.shape != (t.size - 1, v.shape[1]):
            raise ValueError("increments must be (n_times-1, dim_obs)")
        if np.max(np.abs(np.cumsum(dv, axis=0) - v[1:])) > 1e-12:
            raise ValueError("cached increments inconsistent with values")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "increments", dv)

    @classmethod
    def from_increments(cls, times: np.ndarray, increments: np.ndarray) -> "ObservationPath":
        increments = np.atleast_2d(np.asarray(increments, dtype=float))
        values = np.vstack([np.zeros((1, increments.shape[1])), np.cumsum(increments, axis=0)])
        return cls(times=np.asarray(times, dtype=float), values=values, increments=increments)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def simulate_observation(
    obs: ObservationModel,
    state_path: SamplePath,
    rng: RngStream,
    noise_off: bool = False,
) -> ObservationPath:
    """Generate dY_k = h(X_k) dt + dW_k on the state grid.

    ``rng`` must be a different stream from the one driving the state path
    (the observation noise is independent of the state); this is the
    caller's responsibility.  ``noise_off`` is a test hook that zeroes dW.
    """
    if obs.dim_obs > state_path.dim:
        raise ValueError("observation dimension must not exceed the state dimension")
    h = obs.sensor_values(state_path.states[:-1])
    dt = state_path.dt
    if noise_off:
        dw = np.zeros_like(h)
    else:
        gen = rng.generator()
        dw = gen.standard_normal(h.shape) * np.sqrt(dt)
    return ObservationPath.from_increments(state_path.times, h * dt + dw)


def girsanov_log_weight(
    obs: ObservationModel, state_path: SamplePath, wiener_increments: np.ndarray
) -> float:
    """log Z_T = -sum_k h(X_k).dW_k - 1/2 sum_k |h(X_k)|^2 dt (left-point sums)."""
    dw = np.atleast_2d(np.asarray(wiener_increments, dtype=float))
    n = state_path.states.shape[0]
    if dw.shape != (n - 1, obs.dim_obs):
        raise ValueError(
            f"wiener increments shape {dw.shape} does not match grid ({n - 1}, {obs.dim_obs})"
        )
    h = obs.sensor_values(state_path.states[:-1])
    dt = state_path.dt
    return float(-np.sum(h * dw) - 0.5 * np.sum(h * h) * dt)


def girsanov_log_weights_batch(
    obs: ObservationModel, states: np.ndarray, wiener_increments: np.ndarray, dt: float
) -> np.ndarray:
    """Vectorized log Z_T over an ensemble.

    states: (n_steps+1, n_paths, d); wiener_increments: (n_steps, n_paths, m).
    Matches :func:`girsanov_log_weight` path by path.
    """
    h = obs.sensor_values(states[:-1])
    dw = np.asarray(wiener_increments, dtype=float)
    if dw.shape != h.shape:
        raise ValueError(f"wiener increments shape {dw.shape} does not match sensor grid {h.shape}")
    return -(h * dw).sum(axis=(0, 2)) - 0.5 * (h * h).sum(axis=(0, 2)) * dt


@dataclass(frozen=True)
class NovikovReport:
    estimate: float
    stderr: float
    finite: bool


def check_novikov(
    obs: ObservationModel,
    model: DiffusionModel,
    horizon: float,
    n_paths: int,
    rng: RngStream,
    dt: float | None = None,
) -> NovikovReport:
    """Monte Carlo estimate of E[exp(1/2 int |h(X_s)|^2 ds)].

    Advisory only: a finite sample cannot prove the exponential moment is
    finite, but overflow shows up in the ``finite`` flag (a plain ``bool``)
    and raises no warning; the stderr of an overflowed run is NaN.  ``dt``
    defaults to horizon/256.

    The Euler ensemble is streamed, never stored: at each state ``x_k``,
    ``k < n``, the squared sensor is summed into one ``(n_paths,)``
    accumulator, so memory is O(n_paths) rather than the
    O(n_steps * n_paths) of :func:`simulate_ensemble`.  The rows are added
    in the order numpy's axis-0 sum of the stored ensemble adds them, so
    the estimate and stderr are the same bits as storing and summing.

    Order of errors: the sensor is checked at each state before the next
    step is taken, so a non-finite sensor value raises its ``ValueError``
    ahead of a :class:`SimulationDivergenceError` at a later (or the very
    next) step.  A divergence on a run whose sensor stays finite raises at
    the same step as :func:`simulate_ensemble`.
    """
    if n_paths < 100:
        raise ValueError("need at least 100 paths for a meaningful estimate")
    dt = horizon / 256 if dt is None else dt
    n = _n_steps(horizon, dt)
    acc = np.zeros(n_paths)  # squares are >= +0, so 0.0 + first row is that row
    # overflow to inf (and the NaN stderr that inf values leave) is what the
    # finite flag reports; the model's own callbacks stay outside errstate
    for k, x in enumerate(_ensemble_states(model, n_paths, n, dt, rng)):
        if k == n:  # x_n is drawn only to check the last step
            break
        h = obs.sensor_values(x)  # (n_paths, m)
        with np.errstate(over="ignore"):
            acc += np.sum(h * h, axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.exp(0.5 * (acc * dt))
        finite = bool(np.all(np.isfinite(vals)))
        estimate = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / np.sqrt(n_paths))
    return NovikovReport(estimate=estimate, stderr=stderr, finite=finite and bool(np.isfinite(estimate)))
