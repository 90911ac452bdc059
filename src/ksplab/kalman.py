"""Kalman-Bucy filter for linear state and sensor maps.

With state drift F x + f0, constant noise loading sigma, and sensor
H x + h0 observed through unit-intensity noise, the conditional law stays
Gaussian.  Its mean and covariance solve

    d xhat = (F xhat + f0) dt + R H^T (dY - (H xhat + h0) dt)
    dR/dt  = sigma sigma^T + F R + R F^T - R H^T H R

which this module integrates with explicit Euler on the observation grid.
The exact Gaussian solution is the oracle the nonlinear filters are
validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .observation import ObservationModel, ObservationPath
from .sde import DiffusionModel, InitialLaw, constant_diffusion, linear_drift


class RiccatiConvergenceError(RuntimeError):
    """Riccati integration failed to reach a steady state."""

    def __init__(self, residual: float, steps: int):
        self.residual = residual
        self.steps = steps
        super().__init__(f"no steady state after {steps} steps, residual {residual:.3e}")


@dataclass(frozen=True)
class LinearModel:
    """Coefficients (F, f0, sigma, H, h0), held constant over a run."""

    F: np.ndarray
    f0: np.ndarray
    sigma: np.ndarray
    H: np.ndarray
    h0: np.ndarray

    def __post_init__(self):
        F = np.atleast_2d(np.asarray(self.F, dtype=float))
        d = F.shape[0]
        f0 = np.atleast_1d(np.asarray(self.f0, dtype=float))
        sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        h0 = np.atleast_1d(np.asarray(self.h0, dtype=float))
        if F.shape != (d, d):
            raise ValueError("F must be square")
        if f0.shape != (d,):
            raise ValueError("f0 must match the state dimension")
        if sigma.shape[0] != d:
            raise ValueError("sigma must have one row per state")
        if H.shape[1] != d:
            raise ValueError("H must have one column per state")
        if h0.shape != (H.shape[0],):
            raise ValueError("h0 must match the observation dimension")
        for name, arr in (("F", F), ("f0", f0), ("sigma", sigma), ("H", H), ("h0", h0)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "h0", h0)

    @property
    def dim_state(self) -> int:
        return self.F.shape[0]

    @property
    def dim_obs(self) -> int:
        return self.H.shape[0]

    def as_diffusion_model(self, initial_law: InitialLaw) -> DiffusionModel:
        return DiffusionModel(
            dim_state=self.dim_state,
            drift=linear_drift(self.F, self.f0),
            diffusion_factor=constant_diffusion(self.sigma),
            initial_law=initial_law,
        )

    def as_observation_model(self) -> ObservationModel:
        # the sensor x -> H x + h0 is the same affine callback as the drift
        return ObservationModel(dim_obs=self.dim_obs, sensor=linear_drift(self.H, self.h0))


@dataclass(frozen=True)
class GaussianBelief:
    """Conditional mean and covariance of the state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape must match mean")
        if np.max(np.abs(cov - cov.T)) > 1e-10:
            raise ValueError("covariance must be symmetric within 1e-10")
        if np.min(np.linalg.eigvalsh(cov)) < -1e-10:
            raise ValueError("covariance must be PSD within eigenvalue tolerance 1e-10")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def riccati_rhs(model: LinearModel, R: np.ndarray) -> np.ndarray:
    """sigma sigma^T + F R + R F^T - R H^T H R, symmetrized."""
    R = np.atleast_2d(np.asarray(R, dtype=float))
    d = model.dim_state
    if R.shape != (d, d):
        raise ValueError(f"R must be {d}x{d}")
    if np.max(np.abs(R - R.T)) > 1e-8:
        raise ValueError("R must be symmetric")
    HtH = model.H.T @ model.H
    rhs = model.sigma @ model.sigma.T + model.F @ R + R @ model.F.T - R @ HtH @ R
    return 0.5 * (rhs + rhs.T)


def _floor_psd(cov: np.ndarray) -> np.ndarray:
    # eigenvalue floor at 0; exact pass-through when already PSD
    w = np.linalg.eigvalsh(cov)
    if w[0] >= 0.0:
        return cov
    w, v = np.linalg.eigh(cov)
    return (v * np.maximum(w, 0.0)) @ v.T


def kalman_step(
    model: LinearModel, belief: GaussianBelief, dY: np.ndarray, dt: float
) -> GaussianBelief:
    """One explicit Euler step of the mean SDE and the Riccati ODE."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    dY = np.atleast_1d(np.asarray(dY, dtype=float))
    if dY.shape != (model.dim_obs,):
        raise ValueError("dY must match the observation dimension")
    x, R = belief.mean, belief.cov
    innovation = dY - (model.H @ x + model.h0) * dt
    mean = x + (model.F @ x + model.f0) * dt + R @ model.H.T @ innovation
    cov = R + riccati_rhs(model, R) * dt
    cov = _floor_psd(0.5 * (cov + cov.T))
    return GaussianBelief(mean=mean, cov=cov)


def run_kalman(
    model: LinearModel, obs: ObservationPath, belief0: GaussianBelief
) -> list[GaussianBelief]:
    """Fold kalman_step over the observation increments; length = n_times."""
    beliefs = [belief0]
    dt = obs.dt
    for dy in obs.increments:
        beliefs.append(kalman_step(model, beliefs[-1], dy, dt))
    return beliefs


def steady_state_cov(
    model: LinearModel,
    dt: float = 1e-2,
    tol: float = 1e-12,
    max_steps: int = 10**6,
) -> np.ndarray:
    """Integrate the Riccati ODE to its fixed point.

    Stops when the max-norm of dR/dt drops below ``tol``; raises
    :class:`RiccatiConvergenceError` (with the last residual) otherwise.
    """
    R = model.sigma @ model.sigma.T
    residual = np.inf
    for _ in range(max_steps):
        rhs = riccati_rhs(model, R)
        residual = float(np.max(np.abs(rhs)))
        if residual < tol:
            return R
        R = 0.5 * ((R + rhs * dt) + (R + rhs * dt).T)
    raise RiccatiConvergenceError(residual, max_steps)
