"""Numerical approximations of the conditional state distribution.

Two complementary devices:

* a weighted particle filter: particles mutate under the state dynamics,
  pick up the multiplicative likelihood factor exp(h.dY - |h|^2 dt / 2)
  read against the observed increment, and are renormalized (the Bayes
  step turning the unnormalized measure into the conditional one), with
  systematic resampling when the effective sample size degenerates.  The
  reweight / normalize / resample step works on bare position and
  log-weight arrays and is shared with ``stochvol.heston_filter``;

* a 1-D grid solver: a conservative forward-Kolmogorov half step followed
  by the same multiplicative update, i.e. an operator splitting of the
  linear unnormalized evolution equation.  Left unnormalized it is linear
  in the density (superposition holds exactly); renormalizing each step
  yields the conditional density.

``ksp_residual`` checks the discrete innovation identity

    d pi(phi) = pi(A phi) dt + (pi(phi h) - pi(phi) pi(h)) (dY - pi(h) dt)

on any moment series produced by either filter.  The innovation gain is
computed in covariance form; a comparison mode with the squared-mean
variant (pi(phi h) - pi(h)^2) is available to measure the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .observation import ObservationModel, ObservationPath
from .rng import RngStream
from .sde import (
    DiffusionModel,
    InitialLaw,
    _euler_increments,
    _euler_step,
    _generator_form,
    generator_values,
)


_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 fallback


class EnsembleCollapseError(RuntimeError):
    """All particle weights underflowed to zero."""


def _log_norm(log_weights: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Normalize log weights by their log-sum-exp.

    Every weight at -inf is a collapse (:class:`EnsembleCollapseError`, which
    the harness answers with a rerun); a NaN or +inf weight is a fault in the
    likelihood, not a collapse, and raises ``ValueError``.  ``out`` (which
    may be ``log_weights``) and ``scratch`` are optional float64 buffers
    shaped like the weights, for the result and the exponentials.
    """
    log_weights = np.asarray(log_weights, dtype=float)
    m = log_weights.max()
    if m == -np.inf:
        raise EnsembleCollapseError("all particle weights underflowed to -inf")
    if not np.isfinite(m):
        raise ValueError(f"log weights contain {float(m)!r}")
    e = np.exp(np.subtract(log_weights, m, out=scratch), out=scratch)
    return np.subtract(log_weights, np.log(e.sum()) + m, out=out)


def _check_normalized(w: np.ndarray) -> None:
    total = w.sum()
    if not abs(total - 1.0) <= 1e-10:  # also rejects a NaN total
        raise ValueError(f"normalized weights sum to {total!r}")


def _uniform_log_weights(n: int) -> np.ndarray:
    """Log weights of n equally weighted particles, -log(n) each."""
    return np.full(n, -np.log(n))


@dataclass(frozen=True)
class ParticleEnsemble:
    """Weighted point masses approximating the normalized conditional law.

    Log weights dodge underflow; their exponentials must sum to 1 within
    1e-10, so every ensemble is a probability measure.  (A grid filter's
    :class:`GridDensity` is the unnormalized Zakai measure until
    :meth:`GridDensity.normalized` is called.)
    """

    positions: np.ndarray
    log_weights: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        lw = np.asarray(self.log_weights, dtype=float)
        if pos.shape[0] < 2:
            raise ValueError("need at least 2 particles")
        if lw.shape != (pos.shape[0],):
            raise ValueError("one log weight per particle required")
        if not np.all(np.isfinite(pos)):
            raise ValueError("particle positions must be finite")
        _check_normalized(np.exp(lw))
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "log_weights", lw)

    @classmethod
    def uniform(cls, positions: np.ndarray) -> "ParticleEnsemble":
        """Equally weighted particles at ``positions`` (one per leading row)."""
        return cls(positions=positions, log_weights=_uniform_log_weights(len(positions)))

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)


def _check_density_values(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("density values must be finite")
    if np.any(values < 0):
        raise ValueError("density values must be nonnegative")


def _normalized_values(values: np.ndarray, cell: float) -> np.ndarray:
    """Divide node values by their trapezoidal mass; refuse a zero density."""
    m = float(_trapezoid(values, dx=cell))
    if m <= 0:
        raise ValueError("cannot normalize a zero density")
    return values / m


@dataclass(frozen=True)
class GridDensity:
    """Density values on a uniform 1-D grid."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise ValueError("need at least 3 grid nodes")
        steps = np.diff(nodes)
        if not np.all(steps > 0):
            raise ValueError("grid nodes must be strictly increasing")
        if np.max(np.abs(steps - steps[0])) > 1e-12 * max(abs(steps[0]), 1.0):
            raise ValueError("grid must be uniform")
        if values.shape != nodes.shape:
            raise ValueError("one value per node required")
        _check_density_values(values)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    @property
    def cell(self) -> float:
        return float(self.nodes[1] - self.nodes[0])

    def mass(self) -> float:
        return float(_trapezoid(self.values, dx=self.cell))

    def normalized(self) -> "GridDensity":
        return GridDensity(self.nodes, _normalized_values(self.values, self.cell))

    def moment(self, g: Callable[[np.ndarray], np.ndarray]) -> float:
        """Trapezoidal integral of g(x) against the density (as stored)."""
        return float(_trapezoid(np.asarray(g(self.nodes)) * self.values, dx=self.cell))

    @classmethod
    def from_initial_law(cls, law: InitialLaw, x_lo: float, x_hi: float, n_grid: int) -> "GridDensity":
        """Project a 1-D initial law onto the grid and renormalize.

        An atom goes to its nearest node, and must lie in ``[x_lo, x_hi]``.
        """
        if law.dim != 1:
            raise ValueError("grid densities are 1-D")
        nodes = np.linspace(x_lo, x_hi, n_grid)
        cell = nodes[1] - nodes[0]
        if law.kind == "gaussian":
            mu = law.params["mean"][0]
            var = law.params["cov"][0, 0]
            vals = np.exp(-0.5 * (nodes - mu) ** 2 / var) / np.sqrt(2 * np.pi * var)
        else:
            if law.kind == "point_mass":
                atoms, weights = law.params["x0"], (1.0,)
            else:
                atoms, weights = law.params["points"][:, 0], law.params["weights"]
            outside = ~((atoms >= x_lo) & (atoms <= x_hi))  # NaN is outside
            if np.any(outside):
                raise ValueError(
                    f"initial atom {atoms[outside][0]:g} lies outside the grid [{x_lo:g}, {x_hi:g}]"
                )
            vals = np.zeros(n_grid)
            for point, w in zip(atoms, weights):
                vals[int(np.argmin(np.abs(nodes - point)))] += w / cell
        return cls(nodes, vals).normalized()


@dataclass(frozen=True)
class FilterEstimate:
    """Moment series pi_t(phi) for registered test functions, plus ESS."""

    times: np.ndarray
    moments: dict
    ess: np.ndarray


def default_test_functions(half_width: float = 6.0) -> dict:
    """Registered defaults: x, x^2, and x clipped to +-half_width."""
    k = float(half_width)
    return {
        "x": lambda x: x[..., 0],
        "x2": lambda x: x[..., 0] ** 2,
        "clip": lambda x: np.clip(x[..., 0], -k, k),
    }


# ---------------------------------------------------------------------------
# particle filter


def pf_init(law: InitialLaw, n_particles: int, rng: RngStream) -> ParticleEnsemble:
    """I.i.d. draws from the initial law with uniform weights."""
    if n_particles < 2:
        raise ValueError("need at least 2 particles")
    return ParticleEnsemble.uniform(law.sample(n_particles, rng.generator()))


def _checked_values(vals, n: int) -> np.ndarray:
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (n,):
        raise ValueError(f"phi must return shape ({n},), got {vals.shape}")
    return vals


def pf_estimate(ens: ParticleEnsemble, phi: Callable[[np.ndarray], np.ndarray]) -> float:
    """Weighted mean sum_i w_i phi(x_i); phi maps (n, d) -> (n,)."""
    return float(ens.weights @ _checked_values(phi(ens.positions), ens.n))


def ess(ens: ParticleEnsemble) -> float:
    """Effective sample size 1 / sum w_i^2."""
    return float(1.0 / np.sum(ens.weights**2))


def resample_systematic(ens: ParticleEnsemble, rng: RngStream) -> ParticleEnsemble:
    """Systematic resampling to uniform weights (one shared uniform offset)."""
    u0 = float(rng.generator().uniform())
    return _resample_with_offset(ens, u0)


def _systematic_indices(w: np.ndarray, u0: float, n_out: int, cw=None) -> np.ndarray:
    """Parent indices of n_out systematic draws from normalized weights w.

    ``cw``, a float64 buffer shaped like ``w``, takes the cumulative weights.
    """
    cw = np.cumsum(w, out=cw)
    cw[-1] = 1.0  # guard against rounding in the final cumulative weight
    return _kernels.resample_indices(cw, u0, n_out)


def _resample_with_offset(
    ens: ParticleEnsemble, u0: float, n_out: int | None = None
) -> ParticleEnsemble:
    """Systematic resampling to n_out (default ens.n) uniformly weighted atoms."""
    n_out = ens.n if n_out is None else n_out
    return ParticleEnsemble.uniform(ens.positions[_systematic_indices(ens.weights, u0, n_out)])


class _ParticleBuffers:
    """The float64 arrays a particle run writes every step, made once.

    ``positions`` holds two buffers shaped like the particles: a mutation
    or a resampling writes into the one its input does not occupy
    (:meth:`spare`), so the two alternate.  ``lw``, ``w``, ``incr`` and
    ``tmp`` hold one value per particle: the log weights, the weights, the
    log-likelihood increment and scratch.
    """

    def __init__(self, shape: tuple):
        self.positions = (np.empty(shape), np.empty(shape))
        n = shape[0]
        self.lw, self.w, self.incr, self.tmp = (np.empty(n) for _ in range(4))

    def spare(self, x: np.ndarray) -> np.ndarray:
        """The position buffer that does not hold ``x``."""
        return self.positions[x is self.positions[0]]


def _reweight(
    x: np.ndarray,
    lw: np.ndarray,
    log_incr: np.ndarray,
    uniform: Callable[[], float],
    resample_threshold: float,
    buffers: _ParticleBuffers,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Reweight / normalize / maybe resample particles held as bare arrays.

    The weighting cycle of both particle filters (``pf_step`` and
    ``run_particle_filter`` here, ``stochvol.heston_filter``).  ``x`` holds
    one particle per leading row, ``lw`` their normalized log weights and
    ``log_incr`` the log-likelihood increment.  The weights are
    exponentiated once: they carry the sum-to-one check that every
    :class:`ParticleEnsemble` makes and give the ESS.  When ESS <
    resample_threshold * N, systematic resampling with the offset
    ``uniform()`` returns copies the chosen particles into
    ``buffers.spare(x)`` and sets the log weights to -log N.

    Everything is written into ``buffers``, a :class:`_ParticleBuffers` for
    particles shaped like ``x``; ``x``, ``lw`` and ``log_incr`` may be its
    arrays, and ``tmp`` is overwritten.  Returns ``(x, lw, w, ess)`` after the
    cycle: ``x`` is the input or, after resampling, the spare buffer, and
    ``lw`` and ``w`` are ``buffers.lw`` and ``buffers.w``.  The bits equal
    building a :class:`ParticleEnsemble` and calling ``ess`` and
    ``_resample_with_offset`` on it.
    """
    lw = _log_norm(np.add(lw, log_incr, out=buffers.lw), out=buffers.lw, scratch=buffers.tmp)
    w = np.exp(lw, out=buffers.w)
    _check_normalized(w)
    n = x.shape[0]
    n_eff = 1.0 / np.square(w, out=buffers.tmp).sum()
    if n_eff < resample_threshold * n:
        idx = _systematic_indices(w, float(uniform()), n, cw=buffers.tmp)
        # the indices lie in [0, n), so "clip" changes none of them; it
        # spares the temporary copy that take makes for out= under "raise"
        x = np.take(x, idx, axis=0, out=buffers.spare(x), mode="clip")
        lw.fill(-np.log(n))
        np.exp(lw, out=w)
        n_eff = 1.0 / np.square(w, out=buffers.tmp).sum()
    return x, lw, w, n_eff


def _step_noise(gen: np.random.Generator, dv: np.ndarray, dt: float) -> float:
    """Draw one particle step's noise from ``gen``.

    The Euler increments go into ``dv`` (:func:`sde._euler_increments`),
    and the uniform drawn right after them, which a resampling at that step
    takes as its offset, is returned.
    """
    _euler_increments(gen, dv, dt)
    return float(gen.uniform())


def _substream_noise(rng: RngStream, shape: tuple, dt: float) -> Callable[[int], tuple]:
    """The noise of :func:`run_particle_filter`, drawn from ``rng.substream(k)``.

    Returns ``draw(k) -> (dv, u)``: step k's ``shape`` = ``(N, q)`` Euler
    increments and resampling uniform, drawn by :func:`_step_noise` from a
    fresh generator of substream k.  So step k's noise depends on k alone,
    and any process can draw it.  ``dv`` is one buffer made here, valid
    until the next call.
    """
    dv = np.empty(shape)

    def draw(k):
        return dv, _step_noise(rng.substream(k).generator(), dv, dt)

    return draw


def _particle_stepper(
    obs: ObservationModel,
    shape: tuple,
    dt: float,
    resample_threshold: float,
) -> Callable:
    """Prepare mutate / reweight / maybe-resample cycles of particles shaped ``shape``.

    Every float64 array a cycle writes is made here once: the
    :class:`_ParticleBuffers`, sigma dV and h^2.  The returned
    ``step(x, lw, a, sig, dY, dv, u)`` takes the positions, their
    normalized log weights, a(x) and sigma(x) evaluated by the caller, and
    the step's noise as :func:`_step_noise` draws it: the ``(N, q)`` Euler
    increments ``dv`` and the resampling uniform ``u``.  It mutates by one
    :func:`sde._euler_step` into the spare position buffer, evaluates the
    sensor once at the new positions, writes the log-weight increment
    h.dY - |h|^2 dt / 2 in place and runs :func:`_reweight` on the same
    buffers.  It returns ``(x, lw, w, ess, h)``: ``h`` is the sensor at the
    returned ``x``, or ``None`` after a resampling, whose positions the
    sensor has not seen.  ``x`` and ``h`` are valid until the next call,
    which writes into the buffer ``x`` does not hold.
    """
    buffers = _ParticleBuffers(shape)
    n = shape[0]
    noise = np.empty(shape)
    hh = np.empty((n, obs.dim_obs))
    finite = np.empty(shape, dtype=bool)

    def step(x, lw, a, sig, dY, dv, u):
        x = _euler_step(x, a, sig, dt, dv, buffers.spare(x), noise)
        if not np.isfinite(x, out=finite).all():
            raise ValueError("particle mutation produced non-finite positions")
        h = obs.sensor_values(x)
        incr, half = buffers.incr, buffers.tmp
        with np.errstate(over="ignore"):  # overflow in |h|^2 means weight -> 0
            np.dot(h, dY, out=incr)
            np.sum(np.multiply(h, h, out=hh), axis=-1, out=half)
            np.multiply(0.5, half, out=half)
            half *= dt
            incr -= half
        x_new, lw, w, n_eff = _reweight(x, lw, incr, lambda: u, resample_threshold, buffers)
        return x_new, lw, w, n_eff, (h if x_new is x else None)

    return step


def pf_step(
    model: DiffusionModel,
    obs: ObservationModel,
    ens: ParticleEnsemble,
    dY: np.ndarray,
    dt: float,
    rng: RngStream,
    resample_threshold: float = 0.5,
) -> ParticleEnsemble:
    """One mutate / reweight / renormalize / maybe-resample cycle.

    Mutation is an Euler step of the state model; the log-weight increment
    h(x).dY - |h(x)|^2 dt / 2 is the likelihood factor of the observed
    increment; renormalization is the Bayes step; systematic resampling
    triggers when ESS < resample_threshold * N.  ``ens`` is normalized by
    construction, and so is the returned ensemble.  One step of the
    :func:`_particle_stepper` that :func:`run_particle_filter` prepares once
    per run, and draws its noise from ``rng`` by the same
    :func:`_step_noise`; it builds only the returned ensemble.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    dY = np.atleast_1d(np.asarray(dY, dtype=float))
    x = ens.positions
    step = _particle_stepper(obs, x.shape, dt, resample_threshold)
    dv = np.empty((ens.n, model.noise_dim(x[0])))
    u = _step_noise(rng.generator(), dv, dt)
    a, sig = model.drift(x), model.diffusion_factor(x)
    x, lw, _, _, _ = step(x, ens.log_weights, a, sig, dY, dv, u)
    return ParticleEnsemble(positions=x, log_weights=lw)


def run_particle_filter(
    model: DiffusionModel,
    obs_model: ObservationModel,
    obs_path: ObservationPath,
    n_particles: int,
    rng: RngStream,
    phis: dict | None = None,
    ksp_phi: tuple | None = None,
    resample_threshold: float = 0.5,
    noise: Callable[[tuple], Callable[[int], tuple]] | None = None,
) -> FilterEstimate:
    """Fold the pf_step cycle over an observation record, recording moment series.

    ``phis`` maps names to batched test functions (n, d) -> (n,).  If
    ``ksp_phi = (f, grad, hess)`` is given, the four moment series needed
    by :func:`ksp_residual` are registered under "phi", "A_phi", "phi_h",
    "h".  Deterministic given (rng, n_particles, record).

    The particles live as bare position and log-weight arrays between steps,
    in the buffers of one :func:`_particle_stepper` made for the run: only
    the initial ensemble is built.  Step k (from 1) takes its Euler
    increments and resampling uniform from a noise source,
    ``noise(shape)``, called once with the ``(n_particles, q)`` shape of the
    increments, which returns ``draw(k) -> (dv, u)``.  By default
    :func:`_substream_noise` draws them from ``rng.substream(k)``, exactly as
    ``pf_step`` draws from the stream it is given; another source must
    return the same bits (``harness.run_linear_compare`` reads them from a
    process that drew them ahead).  Each callback is evaluated once per step:
    a(x_k) and sigma(x_k) feed both the recorded "A_phi" (through
    ``sde._generator_form``, the form :func:`generator_values` uses) and
    the next Euler step, and the sensor values of the reweight give "phi_h"
    and "h"; a step that resamples evaluates the sensor again at the new
    positions.  So drift, diffusion factor and sensor must be deterministic
    functions of the state (see :class:`~ksplab.sde.DiffusionModel`).  Each
    recorded moment and ESS uses the weights the cycle exponentiated once,
    so the series equal a fold of ``pf_step`` recorded with ``pf_estimate``
    (and :func:`ksp_moment_functions`) and ``ess``, bit for bit.
    """
    phis = dict(phis if phis is not None else default_test_functions())
    if ksp_phi is not None:
        phis.update(dict.fromkeys(_KSP_KEYS))  # no callable: these come from _ksp_values

    ens = pf_init(model.initial_law, n_particles, rng.substream(0))
    n_times = obs_path.times.size
    moments = {name: np.empty(n_times) for name in phis}
    ess_series = np.empty(n_times)
    dt = obs_path.dt
    if dt <= 0:
        raise ValueError("dt must be positive")
    x, lw = ens.positions, ens.log_weights
    step = _particle_stepper(obs_model, x.shape, dt, resample_threshold)
    shape = (n_particles, model.noise_dim(x[0]))
    draw = _substream_noise(rng, shape, dt) if noise is None else noise(shape)

    w = ens.weights
    n_eff = 1.0 / np.sum(w**2)
    a = sig = h = None
    for k in range(n_times):
        if k:
            x, lw, w, n_eff, h = step(x, lw, a, sig, obs_path.increments[k - 1], *draw(k))
        if ksp_phi is not None or k + 1 < n_times:
            a, sig = model.drift(x), model.diffusion_factor(x)
        values = {name: phi(x) for name, phi in phis.items() if phi is not None}
        if ksp_phi is not None:
            if h is None:
                h = obs_model.sensor_values(x)
            values.update(_ksp_values(*ksp_phi, x, a, sig, h))
        for name, vals in values.items():
            moments[name][k] = float(np.dot(w, _checked_values(vals, x.shape[0])))
        ess_series[k] = n_eff
    return FilterEstimate(times=obs_path.times.copy(), moments=moments, ess=ess_series)


# ---------------------------------------------------------------------------
# grid solver


def _dt_bound(b_nodes: np.ndarray, cell: float) -> float:
    bmax = float(np.max(b_nodes))
    if bmax == 0.0:
        return np.inf
    return 0.4 * cell**2 / bmax


def stability_dt_bound(dens: GridDensity, model: DiffusionModel) -> float:
    """Largest admissible step 0.4 cell^2 / max b(x) for the explicit scheme."""
    return _dt_bound(model.diffusion_matrix(dens.nodes[:, None])[..., 0, 0], dens.cell)


def _grid_stepper(
    model: DiffusionModel,
    obs: ObservationModel,
    nodes: np.ndarray,
    dt: float,
    max_floored_fraction: float,
) -> Callable[[np.ndarray, float, int], np.ndarray]:
    """Prepare Zakai substeps of length ``dt`` on fixed grid nodes.

    Drift, diffusion and sensor depend on the state alone, so they, the
    stability check, h^2 dt / 2 and the stencil's workspace
    (``_kernels.fd_workspace``) are made here once.  The returned
    ``advance(p, dY, n_sub)`` makes ``n_sub`` substeps on bare node values:
    each is the forward-Kolmogorov stencil, the flooring check and cap, and
    multiplication by exp(h dY - h^2 dt / 2), a factor computed once per
    call because every substep takes the same increment ``dY``.  A call
    copies ``p`` once (the caller's array is never written) and runs every
    substep in place on that copy, which it returns; a substep allocates
    nothing unless it has negative values to floor.
    """
    if model.dim_state != 1:
        raise ValueError("grid solver handles 1-D state models only")
    if obs.dim_obs != 1:
        raise ValueError("grid solver handles scalar observations only")
    if dt <= 0:
        raise ValueError("dt must be positive")
    cell = float(nodes[1] - nodes[0])
    nodes_col = nodes[:, None]
    b_nodes = model.diffusion_matrix(nodes_col)[..., 0, 0]
    bound = _dt_bound(b_nodes, cell)
    if dt > bound * (1 + 1e-12):
        raise ValueError(
            f"dt={dt} violates the stability bound; largest admissible dt is {bound:.6e}"
        )
    a_nodes = np.asarray(model.drift(nodes_col))[:, 0]
    h = obs.sensor_values(nodes_col)[:, 0]
    half_h2_dt = 0.5 * h * h * dt
    work = _kernels.fd_workspace(nodes.size)

    def advance(p: np.ndarray, dY: float, n_sub: int = 1) -> np.ndarray:
        factor = np.exp(h * dY - half_h2_dt)
        p = np.array(p, dtype=float)
        for _ in range(n_sub):
            _kernels.fd_substep(p, a_nodes, b_nodes, dt, cell, out=p, work=work)
            if not p.min() >= 0.0:  # also true when p holds a NaN
                neg = p < 0
                floored = -float(np.sum(p[neg]))
                total = float(np.sum(np.abs(p)))
                if total > 0 and floored > max_floored_fraction * total:
                    raise RuntimeError(
                        f"flooring removed {floored / total:.3e} of the mass "
                        f"(limit {max_floored_fraction})"
                    )
                p[neg] = 0.0
            p *= factor
        return p

    return advance


def zakai_grid_step(
    model: DiffusionModel,
    obs: ObservationModel,
    dens: GridDensity,
    dY: float,
    dt: float,
    max_floored_fraction: float = 1e-8,
) -> GridDensity:
    """Operator splitting: forward-Kolmogorov substep, then exp(h dY - h^2 dt / 2).

    One step of the unnormalized Zakai measure; the conditional density is
    ``zakai_grid_step(...).normalized()``.  Raises if ``dt`` violates the
    explicit stability bound (the message carries the admissible step) or
    if flooring negative values removes more than ``max_floored_fraction``
    of the total mass.
    """
    advance = _grid_stepper(model, obs, dens.nodes, dt, max_floored_fraction)
    return GridDensity(dens.nodes, advance(dens.values, float(dY)))


def run_grid_filter(
    model: DiffusionModel,
    obs_model: ObservationModel,
    obs_path: ObservationPath,
    x_lo: float,
    x_hi: float,
    n_grid: int,
    phis: dict | None = None,
    ksp_phi: tuple | None = None,
    renormalize: bool = True,
    initial: GridDensity | None = None,
    return_final: bool = False,
):
    """Drive the grid solver over an observation record.

    Each observation increment is split into the number of substeps the
    stability bound requires; the multiplicative update factorizes exactly
    over substeps (dY/n_sub with dt/n_sub each), so the composition equals
    one full update.  With ``renormalize=False`` the density evolves as the
    unnormalized measure (moments are still reported against the
    normalized copy).

    Prepared once per run: drift, diffusion and sensor at the nodes, the
    stability check, h^2 dt / 2, the stencil's workspace (see
    :func:`_grid_stepper`) and every test function at the nodes, stacked
    into one (n_phi, n_grid) array; each test function must map the
    (n_grid, 1) nodes to shape (n_grid,), as the particle filter requires.
    The factor exp(h dY - h^2 dt / 2) is made once per observation
    increment.  Each substep runs only the forward-Kolmogorov stencil, the
    flooring check and cap, and the multiplication by that factor, in place.
    The density lives as bare node values: once per observation step they
    get the finiteness and non-negativity checks of :class:`GridDensity`
    (with its messages), are normalized if ``renormalize``, and all moments
    are one batched trapezoidal integral against a normalized copy.  Each row
    is summed as a 1-D integral is, so every moment has the bits of
    :meth:`GridDensity.moment` on :meth:`GridDensity.normalized`.  A
    :class:`GridDensity` is built only for ``return_final``.
    """
    phis = dict(phis if phis is not None else default_test_functions(max(abs(x_lo), abs(x_hi))))
    if ksp_phi is not None:
        phis.update(ksp_moment_functions(model, obs_model, *ksp_phi))

    dens = initial if initial is not None else GridDensity.from_initial_law(
        model.initial_law, x_lo, x_hi, n_grid
    )
    bound = stability_dt_bound(dens, model)
    dt = obs_path.dt
    n_sub = max(1, int(np.ceil(dt / bound - 1e-12)))
    # per-step flooring cap sized so that the whole run loses < 1e-6 of mass
    floor_cap = 1e-6 / (n_sub * max(1, obs_path.increments.shape[0]))
    nodes, cell = dens.nodes, dens.cell
    advance = _grid_stepper(model, obs_model, nodes, dt / n_sub, floor_cap)
    phi_nodes = np.array(
        [_checked_values(phi(nodes[:, None]), nodes.size) for phi in phis.values()]
    ).reshape(len(phis), nodes.size)
    phi_density = np.empty_like(phi_nodes)

    n_times = obs_path.times.size
    moment_rows = np.empty((len(phis), n_times))
    ess_series = np.empty(n_times)

    def record(k, p):
        pn = _normalized_values(p, cell)
        np.multiply(phi_nodes, pn, out=phi_density)
        moment_rows[:, k] = _trapezoid(phi_density, dx=cell, axis=-1)
        # weight-concentration measure on cell masses, in [1, n_grid]
        w = pn / np.sum(pn)
        ess_series[k] = 1.0 / np.sum(w**2)

    p = dens.values
    record(0, p)
    for k, dy in enumerate(obs_path.increments):
        p = advance(p, float(dy[0]) / n_sub, n_sub)
        _check_density_values(p)
        if renormalize:
            p = _normalized_values(p, cell)
        record(k + 1, p)
    moments = dict(zip(phis, moment_rows))
    series = FilterEstimate(times=obs_path.times.copy(), moments=moments, ess=ess_series)
    return (series, GridDensity(nodes, p)) if return_final else series


# ---------------------------------------------------------------------------
# innovation-identity diagnostic


def ksp_moment_functions(
    model: DiffusionModel,
    obs_model: ObservationModel,
    phi: Callable[[np.ndarray], np.ndarray],
    phi_grad: Callable[[np.ndarray], np.ndarray],
    phi_hess: Callable[[np.ndarray], np.ndarray],
) -> dict:
    """Pointwise integrands whose moment series feed :func:`ksp_residual`.

    Keys: "phi", "A_phi", "phi_h", "h" (scalar observation).  Each entry
    evaluates the callbacks it needs at its states; :func:`_ksp_values`
    gives the same values from a(x), sigma(x) and h(x) evaluated once.
    """
    def h_scalar(x):
        return obs_model.sensor_values(x)[..., 0]

    return {
        "phi": phi,
        "A_phi": lambda x: generator_values(model, phi_grad, phi_hess, x),
        "phi_h": lambda x: np.asarray(phi(x)) * h_scalar(x),
        "h": h_scalar,
    }


_KSP_KEYS = ("phi", "A_phi", "phi_h", "h")


def _ksp_values(phi, phi_grad, phi_hess, x, a, sig, h) -> dict:
    """The :func:`ksp_moment_functions` integrands at ``x``, from a(x), sigma(x), h(x).

    The bits of those entries, for deterministic callbacks: "A_phi" is
    ``sde._generator_form``, which :func:`generator_values` evaluates.
    """
    phi_x = np.asarray(phi(x))
    h_x = h[..., 0]
    return {
        "phi": phi_x,
        "A_phi": _generator_form(a, sig, phi_grad(x), phi_hess(x)),
        "phi_h": phi_x * h_x,
        "h": h_x,
    }


def ksp_residual(
    series: FilterEstimate,
    obs_path: ObservationPath,
    gain_form: str = "covariance",
) -> np.ndarray:
    """Per-step residual of the discrete innovation identity.

    r_k = pi_{k+1}(phi) - pi_k(phi) - pi_k(A phi) dt
          - gain_k (dY_k - pi_k(h) dt)

    with gain_k = pi_k(phi h) - pi_k(phi) pi_k(h) ("covariance", default) or
    pi_k(phi h) - pi_k(h)^2 ("squared_mean", comparison mode).  The series
    must carry the moments registered by ``ksp_moment_functions``.
    """
    for key in ("phi", "A_phi", "phi_h", "h"):
        if key not in series.moments:
            raise ValueError(f"series lacks the '{key}' moment; run the filter with ksp_phi=...")
    if series.times.size != obs_path.times.size or np.max(
        np.abs(series.times - obs_path.times)
    ) > 1e-12:
        raise ValueError("series and observation record are on different grids")
    if gain_form not in ("covariance", "squared_mean"):
        raise ValueError(f"unknown gain form: {gain_form!r}")

    dt = obs_path.dt
    phi = series.moments["phi"]
    a_phi = series.moments["A_phi"]
    phi_h = series.moments["phi_h"]
    h = series.moments["h"]
    dy = obs_path.increments[:, 0]

    if gain_form == "covariance":
        gain = phi_h[:-1] - phi[:-1] * h[:-1]
    else:
        gain = phi_h[:-1] - h[:-1] ** 2
    return phi[1:] - phi[:-1] - a_phi[:-1] * dt - gain * (dy - h[:-1] * dt)
