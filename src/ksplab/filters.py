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
from .sde import DiffusionModel, InitialLaw, _euler_step, generator_values


_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 fallback


class EnsembleCollapseError(RuntimeError):
    """All particle weights underflowed to zero."""


def _log_norm(log_weights: np.ndarray) -> np.ndarray:
    """Normalize log weights by their log-sum-exp.

    Every weight at -inf is a collapse (:class:`EnsembleCollapseError`, which
    the harness answers with a rerun); a NaN or +inf weight is a fault in the
    likelihood, not a collapse, and raises ``ValueError``.
    """
    log_weights = np.asarray(log_weights, dtype=float)
    m = log_weights.max()
    if m == -np.inf:
        raise EnsembleCollapseError("all particle weights underflowed to -inf")
    if not np.isfinite(m):
        raise ValueError(f"log weights contain {float(m)!r}")
    return log_weights - (np.log(np.exp(log_weights - m).sum()) + m)


def _check_normalized(w: np.ndarray) -> None:
    total = w.sum()
    if not abs(total - 1.0) <= 1e-10:  # also rejects a NaN total
        raise ValueError(f"normalized weights sum to {total!r}")


@dataclass(frozen=True)
class ParticleEnsemble:
    """Weighted point masses; log weights to dodge underflow."""

    positions: np.ndarray
    log_weights: np.ndarray
    normalized: bool

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        lw = np.asarray(self.log_weights, dtype=float)
        if pos.shape[0] < 2:
            raise ValueError("need at least 2 particles")
        if lw.shape != (pos.shape[0],):
            raise ValueError("one log weight per particle required")
        if not np.all(np.isfinite(pos)):
            raise ValueError("particle positions must be finite")
        if self.normalized:
            _check_normalized(np.exp(lw))
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "log_weights", lw)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)


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
        if np.max(np.abs(steps - steps[0])) > 1e-12 * max(abs(steps[0]), 1.0):
            raise ValueError("grid must be uniform")
        if values.shape != nodes.shape:
            raise ValueError("one value per node required")
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    @property
    def cell(self) -> float:
        return float(self.nodes[1] - self.nodes[0])

    def mass(self) -> float:
        return float(_trapezoid(self.values, dx=self.cell))

    def normalized(self) -> "GridDensity":
        m = self.mass()
        if m <= 0:
            raise ValueError("cannot normalize a zero density")
        return GridDensity(self.nodes, self.values / m)

    def moment(self, g: Callable[[np.ndarray], np.ndarray]) -> float:
        """Trapezoidal integral of g(x) against the density (as stored)."""
        return float(_trapezoid(np.asarray(g(self.nodes)) * self.values, dx=self.cell))

    @classmethod
    def from_initial_law(cls, law: InitialLaw, x_lo: float, x_hi: float, n_grid: int) -> "GridDensity":
        """Project a 1-D initial law onto the grid and renormalize."""
        if law.dim != 1:
            raise ValueError("grid densities are 1-D")
        nodes = np.linspace(x_lo, x_hi, n_grid)
        cell = nodes[1] - nodes[0]
        if law.kind == "gaussian":
            mu = law.params["mean"][0]
            var = law.params["cov"][0, 0]
            vals = np.exp(-0.5 * (nodes - mu) ** 2 / var) / np.sqrt(2 * np.pi * var)
        elif law.kind == "point_mass":
            vals = np.zeros(n_grid)
            vals[int(np.argmin(np.abs(nodes - law.params["x0"][0])))] = 1.0 / cell
        else:
            vals = np.zeros(n_grid)
            for point, w in zip(law.params["points"][:, 0], law.params["weights"]):
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
    positions = law.sample(n_particles, rng.generator())
    lw = np.full(n_particles, -np.log(n_particles))
    return ParticleEnsemble(positions=positions, log_weights=lw, normalized=True)


def _phi_values(x: np.ndarray, phi: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    vals = np.asarray(phi(x), dtype=float)
    if vals.shape != (x.shape[0],):
        raise ValueError(f"phi must return shape ({x.shape[0]},), got {vals.shape}")
    return vals


def pf_estimate(ens: ParticleEnsemble, phi: Callable[[np.ndarray], np.ndarray]) -> float:
    """Weighted mean sum_i w_i phi(x_i); phi maps (n, d) -> (n,)."""
    if not ens.normalized:
        raise ValueError("ensemble must be normalized")
    return float(ens.weights @ _phi_values(ens.positions, phi))


def ess(ens: ParticleEnsemble) -> float:
    """Effective sample size 1 / sum w_i^2."""
    if not ens.normalized:
        raise ValueError("ensemble must be normalized")
    return float(1.0 / np.sum(ens.weights**2))


def resample_systematic(ens: ParticleEnsemble, rng: RngStream) -> ParticleEnsemble:
    """Systematic resampling to uniform weights (one shared uniform offset)."""
    if not ens.normalized:
        raise ValueError("ensemble must be normalized")
    u0 = float(rng.generator().uniform())
    return _resample_with_offset(ens, u0)


def _systematic_indices(w: np.ndarray, u0: float, n_out: int) -> np.ndarray:
    """Parent indices of n_out systematic draws from normalized weights w."""
    cw = np.cumsum(w)
    cw[-1] = 1.0  # guard against rounding in the final cumulative weight
    return _kernels.resample_indices(cw, u0, n_out)


def _resample_with_offset(
    ens: ParticleEnsemble, u0: float, n_out: int | None = None
) -> ParticleEnsemble:
    """Systematic resampling to n_out (default ens.n) uniformly weighted atoms."""
    n_out = ens.n if n_out is None else n_out
    idx = _systematic_indices(ens.weights, u0, n_out)
    lw = np.full(n_out, -np.log(n_out))
    return ParticleEnsemble(positions=ens.positions[idx], log_weights=lw, normalized=True)


def _reweight(
    x: np.ndarray,
    lw: np.ndarray,
    log_incr: np.ndarray,
    gen: np.random.Generator,
    resample_threshold: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Reweight / normalize / maybe resample particles held as bare arrays.

    The weighting cycle of both particle filters (``pf_step`` and
    ``run_particle_filter`` here, ``stochvol.heston_filter``).  ``x`` holds
    one particle per leading row, ``lw`` their normalized log weights and
    ``log_incr`` the log-likelihood increment.  The weights are
    exponentiated once: they carry the normalized-sum check of a normalized
    :class:`ParticleEnsemble` and give the ESS.  When ESS <
    resample_threshold * N, systematic resampling with one
    ``gen.uniform()`` offset replaces the particles by uniformly weighted
    copies.  Returns ``(x, lw, w, ess)`` after the cycle, the same bits as
    building a :class:`ParticleEnsemble` and calling ``ess`` and
    ``_resample_with_offset`` on it.
    """
    lw = _log_norm(lw + log_incr)
    w = np.exp(lw)
    _check_normalized(w)
    n = x.shape[0]
    n_eff = 1.0 / (w**2).sum()
    if n_eff < resample_threshold * n:
        x = x[_systematic_indices(w, float(gen.uniform()), n)]
        lw = np.full(n, -np.log(n))
        w = np.exp(lw)
        n_eff = 1.0 / (w**2).sum()
    return x, lw, w, n_eff


def _pf_cycle(
    model: DiffusionModel,
    obs: ObservationModel,
    x: np.ndarray,
    lw: np.ndarray,
    dY: np.ndarray,
    dt: float,
    q: int,
    gen: np.random.Generator,
    resample_threshold: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Mutate bare (N, d) positions by one :func:`sde._euler_step`, then :func:`_reweight`."""
    x = _euler_step(model, x, dt, q, gen)
    if not np.all(np.isfinite(x)):
        raise ValueError("particle mutation produced non-finite positions")

    h = obs.sensor_values(x)
    with np.errstate(over="ignore"):  # overflow in |h|^2 means weight -> 0
        log_incr = np.dot(h, dY) - 0.5 * np.sum(h * h, axis=-1) * dt
    return _reweight(x, lw, log_incr, gen, resample_threshold)


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
    triggers when ESS < resample_threshold * N.  A wrapper over the array
    cycle that :func:`run_particle_filter` drives directly: it builds only
    the returned ensemble.
    """
    if not ens.normalized:
        raise ValueError("ensemble must be normalized")
    if dt <= 0:
        raise ValueError("dt must be positive")
    dY = np.atleast_1d(np.asarray(dY, dtype=float))
    x, lw, _, _ = _pf_cycle(
        model, obs, ens.positions, ens.log_weights, dY, dt,
        model.noise_dim(ens.positions[0]), rng.generator(), resample_threshold,
    )
    return ParticleEnsemble(positions=x, log_weights=lw, normalized=True)


def run_particle_filter(
    model: DiffusionModel,
    obs_model: ObservationModel,
    obs_path: ObservationPath,
    n_particles: int,
    rng: RngStream,
    phis: dict | None = None,
    ksp_phi: tuple | None = None,
    resample_threshold: float = 0.5,
) -> FilterEstimate:
    """Fold the pf_step cycle over an observation record, recording moment series.

    ``phis`` maps names to batched test functions (n, d) -> (n,).  If
    ``ksp_phi = (f, grad, hess)`` is given, the four moment series needed
    by :func:`ksp_residual` are registered under "phi", "A_phi", "phi_h",
    "h".  Deterministic given (rng, n_particles, record).

    The particles live as bare position and log-weight arrays between steps:
    only the initial ensemble is built.  Step k draws from
    ``rng.substream(k + 1)`` exactly as ``pf_step`` does, and each recorded
    moment and ESS uses the weights the cycle exponentiated once, so the
    series equal a fold of ``pf_step`` recorded with ``pf_estimate`` and
    ``ess``, bit for bit.
    """
    phis = dict(phis if phis is not None else default_test_functions())
    if ksp_phi is not None:
        phis.update(ksp_moment_functions(model, obs_model, *ksp_phi))

    ens = pf_init(model.initial_law, n_particles, rng.substream(0))
    n_times = obs_path.times.size
    moments = {name: np.empty(n_times) for name in phis}
    ess_series = np.empty(n_times)

    def record(k, x, w, n_eff):
        for name, phi in phis.items():
            moments[name][k] = float(np.dot(w, _phi_values(x, phi)))
        ess_series[k] = n_eff

    x, lw = ens.positions, ens.log_weights
    w = ens.weights
    record(0, x, w, 1.0 / np.sum(w**2))
    dt = obs_path.dt
    if dt <= 0:
        raise ValueError("dt must be positive")
    q = model.noise_dim(x[0])
    for k, dy in enumerate(obs_path.increments):
        x, lw, w, n_eff = _pf_cycle(
            model, obs_model, x, lw, dy, dt, q, rng.substream(k + 1).generator(), resample_threshold
        )
        record(k + 1, x, w, n_eff)
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
    stability check and h^2 dt / 2 are evaluated here once.  The returned
    ``advance(p, dY, n_sub)`` makes ``n_sub`` substeps on bare node values:
    each is the forward-Kolmogorov stencil, the flooring check and cap, and
    multiplication by exp(h dY - h^2 dt / 2), a factor computed once per
    call because every substep takes the same increment ``dY``.
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

    def advance(p: np.ndarray, dY: float, n_sub: int = 1) -> np.ndarray:
        factor = np.exp(h * dY - half_h2_dt)
        for _ in range(n_sub):
            p = _kernels.fd_substep(p, a_nodes, b_nodes, dt, cell)
            neg = p < 0
            if np.any(neg):
                floored = -float(np.sum(p[neg]))
                total = float(np.sum(np.abs(p)))
                if total > 0 and floored > max_floored_fraction * total:
                    raise RuntimeError(
                        f"flooring removed {floored / total:.3e} of the mass "
                        f"(limit {max_floored_fraction})"
                    )
                p = np.where(neg, 0.0, p)
            p = p * factor
        return p

    return advance


def zakai_grid_step(
    model: DiffusionModel,
    obs: ObservationModel,
    dens: GridDensity,
    dY: float,
    dt: float,
    normalize: bool = False,
    max_floored_fraction: float = 1e-8,
) -> GridDensity:
    """Operator splitting: forward-Kolmogorov substep, then exp(h dY - h^2 dt / 2).

    Raises if ``dt`` violates the explicit stability bound (the message
    carries the admissible step) or if flooring negative values removes
    more than ``max_floored_fraction`` of the total mass.
    """
    advance = _grid_stepper(model, obs, dens.nodes, dt, max_floored_fraction)
    out = GridDensity(dens.nodes, advance(dens.values, float(dY)))
    return out.normalized() if normalize else out


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
    stability check, and h^2 dt / 2; the factor exp(h dY - h^2 dt / 2) once
    per observation increment.  Each substep runs only the
    forward-Kolmogorov stencil, the flooring check and cap, and the
    multiplication by that factor.  The density is validated (and, with
    ``renormalize``, normalized) once per observation step.
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
    advance = _grid_stepper(model, obs_model, dens.nodes, dt / n_sub, floor_cap)

    n_times = obs_path.times.size
    moments = {name: np.empty(n_times) for name in phis}
    ess_series = np.empty(n_times)

    def record(k, d: GridDensity):
        dn = d.normalized()
        for name, phi in phis.items():
            moments[name][k] = dn.moment(lambda nodes: phi(nodes[:, None]))
        # weight-concentration measure on cell masses, in [1, n_grid]
        w = dn.values / np.sum(dn.values)
        ess_series[k] = 1.0 / np.sum(w**2)

    record(0, dens)
    for k, dy in enumerate(obs_path.increments):
        dens = GridDensity(dens.nodes, advance(dens.values, float(dy[0]) / n_sub, n_sub))
        if renormalize:
            dens = dens.normalized()
        record(k + 1, dens)
    series = FilterEstimate(times=obs_path.times.copy(), moments=moments, ess=ess_series)
    return (series, dens) if return_final else series


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

    Keys: "phi", "A_phi", "phi_h", "h" (scalar observation).
    """
    def h_scalar(x):
        return obs_model.sensor_values(x)[..., 0]

    return {
        "phi": phi,
        "A_phi": lambda x: generator_values(model, phi_grad, phi_hess, x),
        "phi_h": lambda x: np.asarray(phi(x)) * h_scalar(x),
        "h": h_scalar,
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
