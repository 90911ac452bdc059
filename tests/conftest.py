import math
import os
import signal
import threading

import numpy as np
import pytest

from ksplab import DiffusionModel, InitialLaw, ObservationModel, constant_diffusion

# The CLI tests start `python -m ksplab` in a fresh interpreter: give it the
# checkout's sources, as pyproject's `pythonpath` gives them to pytest.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


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


def reference_fd_substep(p, a_nodes, b_nodes, dt, cell):
    """Frozen reference: the grid-transport stencil as it was written before it
    took a workspace, allocating every temporary and updating the two boundary
    nodes on their own.  ``_kernels.fd_substep`` must equal it bit for bit."""
    p = np.asarray(p, dtype=float)
    ap = a_nodes * p
    bp = b_nodes * p
    denom = 2.0 * cell
    flux = 0.5 * (ap[:-1] + ap[1:]) - (bp[1:] - bp[:-1]) / denom
    coef = dt / cell
    out = np.empty_like(p)
    out[0] = p[0] - coef * flux[0]
    out[1:-1] = p[1:-1] - coef * (flux[1:] - flux[:-1])
    out[-1] = p[-1] - coef * (0.0 - flux[-1])
    return out


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread alive, such as a pool never shut down."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running: {left}"


# a fork test takes seconds; one still running after this is stuck
HANG_SECONDS = 120


@pytest.fixture
def hang_guard():
    """Fail a test still running after ``HANG_SECONDS`` instead of hanging the suite.

    Armed around the tests that fork: a pipe deadlocked between parent and
    child would block them forever.  The alarm raises ``TimeoutError`` in the
    blocked call, and the fork helper then kills and reaps its child.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test still running after {HANG_SECONDS} s: deadlocked?")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(HANG_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


def reference_heston_filter(
    model, log_price, dt, n_particles, rng, resample_threshold, snapshot_indices
):
    """Frozen reference: ``stochvol.heston_filter``'s loop as it was written
    before it took a workspace, allocating every temporary, with the shared
    reweight / normalize / resample step written out inline.  The filter
    must equal it bit for bit: moments, ESS and snapshots."""
    from ksplab import _kernels
    from ksplab.filters import ParticleEnsemble
    from ksplab.stochvol import _X_FLOOR

    y = np.asarray(log_price, dtype=float)
    n = y.size
    wanted = set(int(i) for i in snapshot_indices)
    gen = rng.generator()
    x = model.variance_prior().sample(n_particles, gen)[:, 0]
    lw = np.full(n_particles, -np.log(n_particles))
    mean_series, m2_series, ess_series = np.empty(n), np.empty(n), np.empty(n)
    snapshots = {}

    def record(k, x, lw, w, n_eff):
        mean_series[k] = np.dot(w, x)
        m2_series[k] = np.dot(w, x**2)
        ess_series[k] = n_eff
        if k in wanted:
            snapshots[k] = ParticleEnsemble(positions=x[:, None].copy(), log_weights=lw.copy())

    w = np.exp(lw)
    record(0, x, lw, w, 1.0 / np.sum(w**2))
    dy = np.diff(y)
    sqrt_dt = math.sqrt(dt)
    xp, drift, vol = np.empty(n_particles), np.empty(n_particles), np.empty(n_particles)
    for k in range(n - 1):
        var = np.maximum(x, _X_FLOOR) * dt
        resid = dy[k] - (model.mu - 0.5 * x) * dt
        log_incr = -0.5 * (resid**2 / var + np.log(2 * np.pi * var))
        lw = lw + log_incr
        m = lw.max()
        lw = lw - (np.log(np.exp(lw - m).sum()) + m)
        w = np.exp(lw)
        n_eff = 1.0 / (w**2).sum()
        if n_eff < resample_threshold * n_particles:
            cw = np.cumsum(w)
            cw[-1] = 1.0
            x = x[_kernels.resample_indices(cw, float(gen.uniform()), n_particles)]
            lw = np.full(n_particles, -np.log(n_particles))
            w = np.exp(lw)
            n_eff = 1.0 / (w**2).sum()
        db = gen.standard_normal(n_particles)
        db *= sqrt_dt
        _kernels.variance_step(x, db, dt, model.kappa, model.m, model.gamma, xp, drift, vol)
        record(k + 1, x, lw, w, n_eff)
    return {"x": mean_series, "x2": m2_series}, ess_series, snapshots
