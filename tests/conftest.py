import numpy as np
import pytest

from ksplab import DiffusionModel, InitialLaw, ObservationModel, constant_diffusion


def brownian_motion(x0=0.0):
    """dX = dV from a point mass."""
    return DiffusionModel(
        dim_state=1,
        drift=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        diffusion_factor=constant_diffusion([[1.0]]),
        initial_law=InitialLaw.point_mass([x0]),
    )


def ornstein_uhlenbeck(theta=1.0, x0=0.0):
    """dX = -theta X dt + dV from a point mass."""
    return DiffusionModel(
        dim_state=1,
        drift=lambda x: -theta * np.asarray(x, dtype=float),
        diffusion_factor=constant_diffusion([[1.0]]),
        initial_law=InitialLaw.point_mass([x0]),
    )


def deterministic_model(drift, x0):
    return DiffusionModel(
        dim_state=1,
        drift=drift,
        diffusion_factor=constant_diffusion([[0.0]]),
        initial_law=InitialLaw.point_mass([x0]),
    )


def identity_sensor():
    return ObservationModel(dim_obs=1, sensor=lambda x: np.asarray(x, dtype=float))


def constant_sensor(c):
    return ObservationModel(
        dim_obs=1, sensor=lambda x: np.full(np.asarray(x).shape[:-1] + (1,), float(c))
    )


@pytest.fixture
def tmp_out(tmp_path):
    return str(tmp_path / "out")


def stored_euler_ensemble(model, n_paths, horizon, dt, rng):
    """Reference copy of the store-every-state Euler ensemble.

    Kept verbatim from the implementation that allocated the whole
    ``(n_steps+1, n_paths, d)`` array up front, so the streamed stepper can
    be pinned to it bit for bit.
    """
    from ksplab.sde import SimulationDivergenceError, _n_steps

    n = _n_steps(horizon, dt)
    gen = rng.generator()
    x = model.initial_law.sample(n_paths, gen)
    model.validate_at(x[: min(n_paths, 8)])
    q = model.noise_dim(x[0])
    sqdt = np.sqrt(dt)

    states = np.empty((n + 1, n_paths, model.dim_state))
    states[0] = x
    for k in range(n):
        dv = gen.standard_normal((n_paths, q)) * sqdt
        sig = np.asarray(model.diffusion_factor(x))
        x = x + np.asarray(model.drift(x)) * dt + np.einsum("...ij,...j->...i", sig, dv)
        if not np.all(np.isfinite(x)):
            raise SimulationDivergenceError(k + 1)
        states[k + 1] = x
    return np.arange(n + 1) * dt, states


def planar_model():
    """2-D state with state-dependent 2x2 noise loading and a Gaussian start."""

    def drift(x):
        x = np.asarray(x, dtype=float)
        return np.stack([x[..., 1], -np.sin(x[..., 0]) - 0.5 * x[..., 1]], axis=-1)

    def factor(x):
        x = np.asarray(x, dtype=float)
        sig = np.zeros(x.shape[:-1] + (2, 2))
        sig[..., 0, 0] = 0.3
        sig[..., 1, 0] = 0.1 * np.cos(x[..., 0])
        sig[..., 1, 1] = 0.5 + 0.1 * np.tanh(x[..., 1])
        return sig

    return DiffusionModel(
        dim_state=2,
        drift=drift,
        diffusion_factor=factor,
        initial_law=InitialLaw.gaussian([0.5, -0.2], [[0.2, 0.05], [0.05, 0.1]]),
    )


def planar_sensor():
    """2-D elementwise sensor on the 2-D state."""
    return ObservationModel(
        dim_obs=2,
        sensor=lambda x: np.stack([np.sin(x[..., 0]) + x[..., 1], x[..., 0] * x[..., 1]], axis=-1),
    )
