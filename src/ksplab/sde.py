"""Diffusion state models, path simulation, and generator diagnostics.

A state process is described by its drift ``a(x)``, a diffusion factor
``sigma(x)`` with ``b = sigma sigma^T``, and an initial law.  The associated
second-order generator is

    A f(x) = a(x) . grad f(x) + 1/2 trace(b(x) hess f(x))

and ``f(X_T) - f(X_0) - integral of A f`` is a martingale for smooth ``f``;
:func:`martingale_residual` measures how well simulated paths respect that.

Array convention: drift and diffusion callbacks take states with the state
dimension on the *last* axis and must broadcast over leading axes, i.e.
``drift: (..., d) -> (..., d)`` and ``diffusion_factor: (..., d) -> (..., d, q)``.
This lets ensembles of particles be advanced in single vectorized calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import RngStream


class SimulationDivergenceError(RuntimeError):
    """A simulated path produced a non-finite value."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(message or f"non-finite state at step {step}")


class InitialLaw:
    """Initial distribution of the state: point mass, Gaussian, or empirical."""

    def __init__(self, kind, **params):
        self.kind = kind
        self.params = params

    @classmethod
    def point_mass(cls, x0) -> "InitialLaw":
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        return cls("point_mass", x0=x0)

    @classmethod
    def gaussian(cls, mean, cov) -> "InitialLaw":
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"covariance shape {cov.shape} does not match mean size {mean.size}")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("gaussian initial law requires a positive-definite covariance")
        return cls("gaussian", mean=mean, cov=cov, chol=chol)

    @classmethod
    def empirical(cls, points, weights) -> "InitialLaw":
        points = np.atleast_2d(np.asarray(points, dtype=float))
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (points.shape[0],):
            raise ValueError("one weight per atom required")
        if np.any(weights < 0):
            raise ValueError("empirical weights must be nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"empirical weights sum to {weights.sum()!r}, expected 1 within 1e-12")
        return cls("empirical", points=points, weights=weights)

    @property
    def dim(self) -> int:
        if self.kind == "point_mass":
            return self.params["x0"].size
        if self.kind == "gaussian":
            return self.params["mean"].size
        return self.params["points"].shape[1]

    def sample(self, n: int, gen: np.random.Generator) -> np.ndarray:
        """Draw ``n`` i.i.d. states, shape ``(n, d)``."""
        if self.kind == "point_mass":
            return np.tile(self.params["x0"], (n, 1))
        if self.kind == "gaussian":
            z = gen.standard_normal((n, self.dim))
            return self.params["mean"] + z @ self.params["chol"].T
        idx = gen.choice(self.params["points"].shape[0], size=n, p=self.params["weights"])
        return self.params["points"][idx]


@dataclass(frozen=True)
class DiffusionModel:
    """Drift/diffusion pair plus initial law.

    ``diffusion_factor`` returns the noise loading ``sigma(x)`` of shape
    ``(..., d, q)``; the diffusion matrix ``b = sigma sigma^T`` is therefore
    symmetric PSD by construction (checked on sampled points at simulation
    start, mostly to catch NaNs and shape bugs early).

    ``drift`` and ``diffusion_factor`` must be deterministic functions of
    the state alone (no time, no randomness, no hidden state), because
    their values are reused: the grid solver evaluates them once per run at
    its nodes for every substep, and the particle filter evaluates them
    once per step at the particles, for both the recorded generator moment
    and the next Euler step.

    The particle filter calls them on the whole (N, d) ensemble every step,
    so their per-call cost is paid once per step: write them with
    elementwise ops or ``np.dot``.  ``x @ M`` with a trailing dimension of
    1 is 6-10x slower than ``np.dot`` on 10^4 particles (numpy 2.4);
    :func:`linear_drift` takes the dot path.
    """

    dim_state: int
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion_factor: Callable[[np.ndarray], np.ndarray]
    initial_law: InitialLaw

    def __post_init__(self):
        if self.dim_state < 1:
            raise ValueError("dim_state must be a positive integer")
        if self.initial_law.dim != self.dim_state:
            raise ValueError(
                f"initial law dimension {self.initial_law.dim} != dim_state {self.dim_state}"
            )

    def noise_dim(self, x) -> int:
        sig = np.asarray(self.diffusion_factor(np.asarray(x, dtype=float)))
        if sig.shape[-2] != self.dim_state:
            raise ValueError(
                f"diffusion_factor returned shape {sig.shape}, expected (..., {self.dim_state}, q)"
            )
        return sig.shape[-1]

    def diffusion_matrix(self, x) -> np.ndarray:
        """b(x) = sigma(x) sigma(x)^T, shape (..., d, d).

        A factor broadcast over the states (every leading stride 0, as
        :func:`constant_diffusion` returns) is multiplied once, and the
        result is a read-only ``np.broadcast_to`` view of that one product;
        its bits equal the stacked matmul.  Any other factor takes the
        stacked matmul and returns a fresh array.
        """
        return _factor_product(self.diffusion_factor(np.asarray(x, dtype=float)))

    def validate_at(self, x) -> None:
        """Runtime invariant check on a sampled point: finite a, sigma; b symmetric PSD."""
        x = np.asarray(x, dtype=float)
        a = np.asarray(self.drift(x))
        if a.shape[-1] != self.dim_state or not np.all(np.isfinite(a)):
            raise ValueError("drift must return finite values of the state dimension")
        b = self.diffusion_matrix(x)
        if not np.all(np.isfinite(b)):
            raise ValueError("diffusion_factor must return finite values")
        bmat = b.reshape(-1, self.dim_state, self.dim_state)
        for m in bmat:
            if not np.allclose(m, m.T, atol=1e-10):
                raise ValueError("b(x) not symmetric")
            if np.min(np.linalg.eigvalsh(m)) < -1e-10:
                raise ValueError("b(x) not positive semidefinite")


def _factor_product(sig) -> np.ndarray:
    """b = sigma sigma^T from diffusion-factor values, as ``diffusion_matrix`` returns it."""
    sig = np.asarray(sig)
    if sig.ndim > 2 and sig.size > 0 and not any(sig.strides[:-2]):
        s0 = sig[(0,) * (sig.ndim - 2)]
        return np.broadcast_to(s0 @ s0.T, sig.shape[:-1] + sig.shape[-2:-1])
    return sig @ np.swapaxes(sig, -1, -2)


def _check_time_grid(t: np.ndarray) -> None:
    """Reject a record grid that one step ``dt = t[1] - t[0]`` does not walk."""
    if t.ndim != 1 or t.size < 2:
        raise ValueError("times must be a 1-D vector with at least two points")
    if t[0] != 0.0:
        raise ValueError("times must start at 0")
    steps = np.diff(t)
    if np.any(steps <= 0):
        raise ValueError("times must be strictly increasing")
    if np.max(np.abs(steps - steps[0])) > 1e-12 * max(steps[0], 1.0):
        raise ValueError("time grid must be uniform")


@dataclass(frozen=True)
class SamplePath:
    """Discrete path on a uniform grid: times (n,), states (n, d)."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.states, dtype=float)
        _check_time_grid(t)
        if x.ndim != 2 or x.shape[0] != t.size:
            raise ValueError("states must be (n_times, dim_state)")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", x)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def wiener_increments(dt: float, n_steps: int, dim: int, rng: RngStream) -> np.ndarray:
    """Draw i.i.d. N(0, dt) increments, shape (n_steps, dim), deterministic in rng."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if n_steps < 1 or dim < 1:
        raise ValueError("n_steps and dim must be at least 1")
    gen = rng.generator()
    return gen.standard_normal((n_steps, dim)) * np.sqrt(dt)


def _n_steps(horizon: float, dt: float) -> int:
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if dt <= 0 or dt > horizon * (1 + 1e-12):
        raise ValueError(f"require 0 < dt <= horizon, got dt={dt}, horizon={horizon}")
    # ceil with a guard against 0.1*10 != 1.0 artifacts
    return int(np.ceil(horizon / dt - 1e-9))


def simulate_path(model: DiffusionModel, horizon: float, dt: float, rng: RngStream) -> SamplePath:
    """Euler-Maruyama simulation of one path: :func:`simulate_ensemble` with one path.

    X_{k+1} = X_k + a(X_k) dt + sigma(X_k) dV_k, starting from a draw of the
    initial law.  Draw order: initial state first, then one ``(1, q)``
    increment block per step, so identical streams give identical paths.
    """
    times, states = simulate_ensemble(model, 1, horizon, dt, rng)
    return SamplePath(times=times, states=states[:, 0])


def _euler_increments(gen: np.random.Generator, dv: np.ndarray, dt: float) -> np.ndarray:
    """Fill ``dv`` with N(0, dt) Euler increments drawn from ``gen``; return it.

    ``gen.standard_normal(out=dv)``, then ``dv *= sqrt(dt)``: every Euler
    step's noise is drawn this one way, so a caller that draws it ahead of
    the step, or in another process, gets the same bits.
    """
    gen.standard_normal(out=dv)
    dv *= math.sqrt(dt)
    return dv


def _euler_step(
    x: np.ndarray,
    a: np.ndarray,
    sig: np.ndarray,
    dt: float,
    dv: np.ndarray,
    out: np.ndarray | None = None,
    noise: np.ndarray | None = None,
) -> np.ndarray:
    """One vectorized Euler-Maruyama step of ``(N, d)`` states.

    ``a`` and ``sig`` are a(x) and sigma(x), and ``dv`` the ``(N, q)``
    increments, all given by the caller: the step draws nothing, and its
    callers draw ``dv`` through :func:`_euler_increments`.  Returns
    ``x + a dt + sig dv`` in ``out``.  The caller checks the result for
    finiteness and raises its own error.

    ``out`` and ``noise`` (``(N, d)``) are C-contiguous float64 buffers for
    the result and sigma dv; each one not given is allocated.  ``out`` must
    not share memory with ``x``, ``a``, ``sig`` or ``dv``.  The sums are
    those of ``x + a * dt + einsum(sig, dv)``, in that order.
    """
    noise = np.einsum("...ij,...j->...i", np.asarray(sig), dv, out=noise)
    out = np.multiply(a, dt, out=np.empty(x.shape) if out is None else out)
    np.add(x, out, out=out)
    out += noise
    return out


def _ensemble_states(model: DiffusionModel, n_paths: int, n: int, dt: float, rng: RngStream):
    """Yield the ensemble states ``x_0, ..., x_n``, each a fresh ``(n_paths, d)`` array.

    Draw order: the initial states, then one ``(n_paths, q)`` block of
    increments per step, into one buffer made here.  Raises
    :class:`SimulationDivergenceError` ``(k + 1)`` when step ``k`` leaves
    the finite range, before yielding that state.
    """
    gen = rng.generator()
    x = model.initial_law.sample(n_paths, gen)
    model.validate_at(x[: min(n_paths, 8)])
    dv = np.empty((n_paths, model.noise_dim(x[0])))
    yield x
    for k in range(n):
        x = _euler_step(
            x, model.drift(x), model.diffusion_factor(x), dt, _euler_increments(gen, dv, dt)
        )
        if not np.all(np.isfinite(x)):
            raise SimulationDivergenceError(k + 1)
        yield x


def simulate_ensemble(
    model: DiffusionModel, n_paths: int, horizon: float, dt: float, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Euler-Maruyama over many paths from one stream.

    Returns ``(times (n+1,), states (n+1, n_paths, d))``.  Relies on the
    broadcasting convention for drift/diffusion callbacks.  Every path is
    stepped by ``_euler_step``, which sums sigma dV with ``einsum``;
    :func:`simulate_path` is the ``n_paths = 1`` case.  Stores every
    state, so memory is O(n_steps * n_paths * d); a caller that only folds
    the states into per-path numbers can iterate the same stepper instead
    (as :func:`ksplab.observation.check_novikov` does) and get the same bits
    in O(n_paths * d).
    """
    n = _n_steps(horizon, dt)
    states = np.empty((n + 1, n_paths, model.dim_state))
    for k, x in enumerate(_ensemble_states(model, n_paths, n, dt, rng)):
        states[k] = x
    return np.arange(n + 1) * dt, states


def apply_generator(
    model: DiffusionModel,
    f_grad: Callable[[np.ndarray], np.ndarray],
    f_hess: Callable[[np.ndarray], np.ndarray],
    x,
) -> float:
    """Evaluate A f(x) = a(x).grad f(x) + 1/2 trace(b(x) hess f(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (model.dim_state,):
        raise ValueError(f"x must have shape ({model.dim_state},), got {x.shape}")
    g = np.asarray(f_grad(x), dtype=float).reshape(-1)
    h = np.atleast_2d(np.asarray(f_hess(x), dtype=float))
    if g.shape != (model.dim_state,):
        raise ValueError(f"gradient shape {g.shape} does not match state dimension")
    if h.shape != (model.dim_state, model.dim_state):
        raise ValueError(f"hessian shape {h.shape} does not match state dimension")
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(h))):
        raise ValueError("gradient/hessian must be finite at x")
    a = np.asarray(model.drift(x), dtype=float).reshape(-1)
    b = model.diffusion_matrix(x)
    return float(a @ g + 0.5 * np.trace(b @ h))


def generator_values(
    model: DiffusionModel,
    f_grad: Callable[[np.ndarray], np.ndarray],
    f_hess: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
) -> np.ndarray:
    """Vectorized A f over a batch of states ``x`` with shape (..., d)."""
    x = np.asarray(x, dtype=float)
    return _generator_form(model.drift(x), model.diffusion_factor(x), f_grad(x), f_hess(x))


def _generator_form(a, sig, g, h) -> np.ndarray:
    """A f = a.g + 1/2 trace(b h) from a(x), sigma(x), grad f(x), hess f(x) already evaluated.

    ``b = sigma sigma^T`` as :meth:`DiffusionModel.diffusion_matrix` makes
    it.  :func:`generator_values` and the particle filter's recorded
    generator moment both evaluate A f through this one form.
    """
    a, g, h = np.asarray(a), np.asarray(g), np.asarray(h)
    drift_part = np.einsum("...i,...i->...", a, g)
    diffusion_part = np.einsum("...ij,...ji->...", _factor_product(sig), h)
    # a.g + 0.5 * tr(b h), finished in place in einsum's two fresh results
    diffusion_part *= 0.5
    drift_part += diffusion_part
    return drift_part


def martingale_residual(
    model: DiffusionModel,
    f: Callable[[np.ndarray], float],
    f_grad: Callable[[np.ndarray], np.ndarray],
    f_hess: Callable[[np.ndarray], np.ndarray],
    path: SamplePath,
) -> float:
    """M_{f,T} = f(X_T) - f(X_0) - sum_k A f(X_k) dt (left-point quadrature).

    Zero in expectation when the path solves the martingale problem for
    (A; initial law); the Monte Carlo mean over many paths is the test
    statistic used by the suite.
    """
    if path.dim != model.dim_state:
        raise ValueError("path dimension does not match model")
    dt = path.dt
    total = 0.0
    for k in range(path.states.shape[0] - 1):
        total += apply_generator(model, f_grad, f_hess, path.states[k]) * dt
    return float(f(path.states[-1]) - f(path.states[0]) - total)


def ensemble_martingale_residuals(
    model: DiffusionModel,
    f: Callable[[np.ndarray], np.ndarray],
    f_grad: Callable[[np.ndarray], np.ndarray],
    f_hess: Callable[[np.ndarray], np.ndarray],
    states: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Vectorized residuals over an ensemble, states shape (n+1, n_paths, d).

    Callbacks must follow the broadcasting convention: f -> (...,),
    f_grad -> (..., d), f_hess -> (..., d, d).
    """
    av = generator_values(model, f_grad, f_hess, states[:-1])
    return np.asarray(f(states[-1])) - np.asarray(f(states[0])) - av.sum(axis=0) * dt


def fd_grad(f: Callable, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient fallback, step 1e-5 * (1 + |x_i|) per axis."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = np.empty_like(x)
    for i in range(x.size):
        h = 1e-5 * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def fd_hess(f: Callable, x: np.ndarray) -> np.ndarray:
    """Central-difference Hessian fallback (symmetric by construction)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = x.size
    hess = np.empty((d, d))
    steps = 1e-5 * (1.0 + np.abs(x))
    f0 = f(x)
    for i in range(d):
        hi = steps[i]
        xp, xm = x.copy(), x.copy()
        xp[i] += hi
        xm[i] -= hi
        hess[i, i] = (f(xp) - 2 * f0 + f(xm)) / hi**2
        for j in range(i + 1, d):
            hj = steps[j]
            xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
            xpp[[i, j]] += [hi, hj]
            xpm[i] += hi
            xpm[j] -= hj
            xmp[i] -= hi
            xmp[j] += hj
            xmm[[i, j]] -= [hi, hj]
            hess[i, j] = hess[j, i] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4 * hi * hj)
    return hess


def linear_drift(F, f0) -> Callable[[np.ndarray], np.ndarray]:
    """Affine callback x -> F x + f0 following the broadcasting convention.

    ``F`` may be rectangular, so the linear sensor x -> H x + h0 is the same
    callback.  The states are flattened to rows and multiplied by ``np.dot``
    against a contiguous copy of F^T made once: on (10^4, 1) particles
    numpy's ``x @ F.T`` takes a slow path for the trailing dimension of 1,
    6-10x slower than ``np.dot`` (and ``np.dot`` itself is slow on more
    than two axes, hence the flattening).  At d = 1 each entry is one
    product, so the bits equal ``x @ F.T + f0``; at d >= 2 a single row can
    differ from ``@`` in the last bits.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    f0 = np.atleast_1d(np.asarray(f0, dtype=float))
    FT = np.ascontiguousarray(F.T)

    def drift(x):
        x = np.asarray(x)
        rows = np.dot(x.reshape(-1, FT.shape[0]), FT)
        rows += f0
        return rows.reshape(x.shape[:-1] + (FT.shape[1],))

    return drift


def constant_diffusion(sigma) -> Callable[[np.ndarray], np.ndarray]:
    """Diffusion-factor callback returning a constant matrix, broadcast over x."""
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))

    def factor(x):
        x = np.asarray(x)
        return np.broadcast_to(sigma, x.shape[:-1] + sigma.shape)

    return factor
