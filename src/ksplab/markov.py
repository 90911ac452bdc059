"""Finite-state Markov chains: rate matrices, kernels, and the gain-loss balance.

Rates use the row convention ``rates[i][j]`` = transition rate i -> j per
unit time (applied uniformly across the module).  The generator adds the
negative total outflow on the diagonal, the transition kernel over a lag
tau is the matrix exponential exp(tau G), and the distribution ODE is the
gain-loss balance

    dp_j/dtau = sum_i rates[i][j] p_i - alpha0(j) p_j,

whose fixed point (gain balances loss) is the stationary distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ReducibleChainError(ValueError):
    """The positive-rate graph is not strongly connected."""

    def __init__(self, state: int, direction: str):
        self.state = state
        super().__init__(f"state {state} is {direction}; the chain is reducible")


@dataclass(frozen=True)
class RateMatrix:
    """Off-diagonal transition rates; the diagonal is ignored."""

    rates: np.ndarray

    def __post_init__(self):
        r = np.atleast_2d(np.asarray(self.rates, dtype=float))
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("rates must be a square matrix")
        if not np.all(np.isfinite(r)):
            raise ValueError("rates must be finite")
        off = r[~np.eye(r.shape[0], dtype=bool)]
        if np.any(off < 0):
            raise ValueError("off-diagonal rates must be nonnegative")
        object.__setattr__(self, "rates", r)

    @property
    def n_states(self) -> int:
        return self.rates.shape[0]


@dataclass(frozen=True)
class DistributionVector:
    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if np.any(p < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, expected 1 within 1e-12")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class TransitionKernel:
    """Row-stochastic kernel Q[i][j] = P(j at lag tau | i now)."""

    Q: np.ndarray

    def __post_init__(self):
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        row_err = np.max(np.abs(Q.sum(axis=1) - 1.0))
        if row_err > 1e-10:
            raise ValueError(f"rows must sum to 1 within 1e-10 (max drift {row_err:.3e})")
        if np.any(Q < -1e-12) or np.any(Q > 1 + 1e-12):
            raise ValueError("entries must lie in [0, 1] within 1e-12")
        object.__setattr__(self, "Q", np.clip(Q, 0.0, 1.0))


def generator_from_rates(W: RateMatrix) -> np.ndarray:
    """G with off-diagonal rates and diagonal -alpha0(i); rows sum to 0 exactly."""
    G = W.rates.copy()
    np.fill_diagonal(G, 0.0)
    alpha0 = G.sum(axis=1)
    G[np.diag_indices_from(G)] = -alpha0
    return G


def evolve_kernel(G: np.ndarray, tau: float) -> TransitionKernel:
    """Q_tau = exp(tau G) via scaling-and-squaring (Pade core).

    A row-sum drift beyond 1e-10 is treated as an error, never silently
    renormalized.

    This is the package's only use of scipy, so ``scipy.linalg`` is
    imported here rather than at module top: ``import ksplab`` and every
    scenario but ``master_demo`` never load it. The first call in a process
    pays the one-time import, so ``master_demo``'s ``timing.json`` total
    includes it while the process as a whole takes no longer.
    """
    from scipy.linalg import expm

    if tau < 0:
        raise ValueError("tau must be nonnegative")
    G = np.asarray(G, dtype=float)
    Q = expm(tau * G)
    if not np.all(np.isfinite(Q)):
        raise FloatingPointError("matrix exponential did not converge to finite values")
    return TransitionKernel(Q=Q)


def master_rhs(W: RateMatrix, p: DistributionVector) -> np.ndarray:
    """Gain-minus-loss vector: (dp/dtau)_j = sum_i W[i,j] p_i - alpha0(j) p_j."""
    rates = W.rates.copy()
    np.fill_diagonal(rates, 0.0)
    gain = rates.T @ p.p
    loss = rates.sum(axis=1) * p.p
    return gain - loss


def _reachable(adjacency: np.ndarray, start: int = 0) -> np.ndarray:
    seen = np.zeros(adjacency.shape[0], dtype=bool)
    stack = [start]
    seen[start] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(adjacency[i])[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(j)
    return seen


def stationary_distribution(W: RateMatrix) -> DistributionVector:
    """Solve p^T G = 0 with sum(p) = 1 via the null space of G^T.

    Requires an irreducible chain (checked by reachability on the
    positive-rate graph, both directions); the residual max-norm of p^T G
    must come out below 1e-12.
    """
    adj = W.rates > 0
    np.fill_diagonal(adj, False)
    fwd = _reachable(adj)
    if not fwd.all():
        raise ReducibleChainError(int(np.nonzero(~fwd)[0][0]), "unreachable from state 0")
    bwd = _reachable(adj.T)
    if not bwd.all():
        raise ReducibleChainError(int(np.nonzero(~bwd)[0][0]), "unable to reach state 0")

    G = generator_from_rates(W)
    _, _, vt = np.linalg.svd(G.T)
    p = vt[-1]
    p = np.abs(p) / np.abs(p).sum()
    residual = float(np.max(np.abs(p @ G)))
    if residual >= 1e-12:
        raise RuntimeError(f"stationary solve residual {residual:.3e} exceeds 1e-12")
    return DistributionVector(p=p)


@dataclass(frozen=True)
class TaylorKernelReport:
    taus: np.ndarray
    errors: np.ndarray
    slope: float


def taylor_kernel_check(W: RateMatrix, tau_seq) -> TaylorKernelReport:
    """Verify (Q_tau - I)/tau -> G linearly in tau; report the observed slope.

    The slope is the least-squares fit of log error against log tau (1.0
    for a first-order Taylor remainder); with all rates zero the error is
    identically 0 and the slope is reported as NaN.
    """
    taus = np.asarray(tau_seq, dtype=float)
    if np.any(taus <= 0) or np.any(np.diff(taus) >= 0):
        raise ValueError("tau_seq must be positive and strictly decreasing")
    G = generator_from_rates(W)
    errors = np.array(
        [np.max(np.abs((evolve_kernel(G, t).Q - np.eye(W.n_states)) / t - G)) for t in taus]
    )
    if np.all(errors > 0):
        slope = float(np.polyfit(np.log(taus), np.log(errors), 1)[0])
    else:
        slope = float("nan")
    return TaylorKernelReport(taus=taus, errors=errors, slope=slope)


def rate_matrix_from_triplets(triplets) -> RateMatrix:
    """Build a RateMatrix from (i, j, rate) rows, 0-indexed.

    Each row holds exactly three entries, and i and j are nonnegative whole
    numbers (``1.0`` counts, so the float rows of a CSV table parse).  A
    malformed row raises ``ValueError`` with its position.
    """
    entries = []
    for k, row in enumerate(triplets):
        try:
            i, j, rate = (float(v) for v in row)
        except (TypeError, ValueError):
            raise ValueError(f"rate entry {k} is not an (i, j, rate) triple") from None
        if not all(v >= 0 and v.is_integer() for v in (i, j)):
            raise ValueError(
                f"rate entry {k} has state indices ({i:g}, {j:g}); both must be "
                "nonnegative whole numbers"
            )
        entries.append((int(i), int(j), rate))
    if not entries:
        raise ValueError("no rate entries given")
    n = 1 + max(max(i, j) for i, j, _ in entries)
    rates = np.zeros((n, n))
    for i, j, rate in entries:
        if i != j:  # diagonal ignored by convention
            rates[i, j] = rate
    return RateMatrix(rates=rates)
