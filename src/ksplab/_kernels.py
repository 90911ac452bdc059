"""Hot numerical kernels: Heston path stepping, the grid-transport stencil
and systematic resampling, in numpy.

These are the reference semantics; the filters, the Heston simulation and
inner pricing call them through this module.  The full-truncation Euler step
of the Heston model has one implementation per kind of state.  Both do the
same IEEE operations in the same order, so they give a column the same bits,
and a NaN variance propagates on both:

- ``heston_paths`` steps each column of the variance/log-price pair in plain
  Python floats (``_heston_column``): numpy's per-call overhead dominates a
  step over a handful of elements (one column of 1e5 steps: about 1.5 s as
  1-element arrays, 0.05 s as floats).
- ``variance_step`` advances a variance array in place; inner pricing
  (``heston_variance_sum``, on a whole ensemble's paths at once) and the
  Heston particle filter step with it.

The grid-transport stencil ``fd_substep`` is a handful of numpy calls on a
few hundred nodes, so its time is per-call overhead: a grid filter run makes
about 12,000 of them.  It writes into caller-owned buffers (``out`` and a
workspace from ``fd_workspace``, built once per run), so a substep
allocates and slices nothing.

``BACKEND`` names the implementation; it is always ``"numpy"`` and stamps
each run's manifest.
"""

import math
from array import array

import numpy as np

BACKEND = "numpy"


def _heston_column(x0, y0, db, dw, dt, kappa, m, gamma, mu):
    """One column of ``heston_paths`` in plain floats, as two ``array('d')``.

    ``xp`` reproduces ``np.maximum(xk, 0.0)``: +0.0 for either zero, and NaN
    propagates.
    """
    sqrt = math.sqrt
    xs = array("d", (x0,))
    ys = array("d", (y0,))
    x_append, y_append = xs.append, ys.append
    xk, yk = x0, y0
    for b, w in zip(db, dw):
        xp = xk if (xk > 0.0 or xk != xk) else 0.0
        vol = sqrt(xp)
        xk = xk + kappa * (m - xp) * dt + gamma * vol * b
        yk = yk + (mu - 0.5 * xp) * dt + vol * w
        x_append(xk)
        y_append(yk)
    return xs, ys


def heston_paths(x0, y0, db, dw, dt, kappa, m, gamma, mu):
    """Full-truncation Euler for the variance/log-price pair.

    x0, y0: (n,) initial variance and log price; db, dw: (steps, n) Wiener
    increments (already scaled by sqrt(dt)).  Returns (X, Y) each of shape
    (steps+1, n).  The truncated variance max(x, 0) enters the drift, the
    volatility sqrt, and the log-price drift.
    """
    db = np.asarray(db, dtype=float)
    dw = np.asarray(dw, dtype=float)
    steps, n = db.shape
    x = np.empty((steps + 1, n))
    y = np.empty((steps + 1, n))
    x[0] = x0
    y[0] = y0
    params = (float(dt), float(kappa), float(m), float(gamma), float(mu))
    for j in range(n):
        xs, ys = _heston_column(
            float(x[0, j]),
            float(y[0, j]),
            memoryview(np.ascontiguousarray(db[:, j])),
            memoryview(np.ascontiguousarray(dw[:, j])),
            *params,
        )
        x[:, j] = np.frombuffer(xs)
        y[:, j] = np.frombuffer(ys)
    return x, y


def variance_step(x, db, dt, kappa, m, gamma, xp, drift, vol):
    """One full-truncation Euler step of the variance, in place.

    Updates the float array ``x`` (any shape; ``db`` broadcasts to it) to
    ``x + kappa * (m - xp) * dt + gamma * sqrt(xp) * db`` with
    ``xp = max(x, 0)``, operation by operation as ``heston_paths`` does.
    ``xp``, ``drift`` and ``vol`` are scratch shaped like ``x``; afterwards
    ``xp`` holds the truncated pre-step variance.
    """
    np.maximum(x, 0.0, out=xp)
    np.sqrt(xp, out=vol)
    np.subtract(m, xp, out=drift)
    drift *= kappa
    drift *= dt
    x += drift
    vol *= gamma
    vol *= db
    x += vol


def heston_variance_sum(x, acc, db, dt, kappa, m, gamma, xp, drift, vol):
    """Step the variance of ``heston_paths`` through ``db``, summing it in place.

    Steps only the variance of ``heston_paths`` (the log price never feeds
    back into it): each row ``db[k]`` (shaped like ``x``, already scaled by
    sqrt(dt)) advances ``x`` by one ``variance_step``, and
    ``acc += max(X_k, 0)`` adds the truncated pre-step variance, in step
    order.  ``xp``, ``drift`` and ``vol`` are ``variance_step``'s scratch,
    shaped like ``x``.  ``x`` and ``acc`` carry over between calls, so
    stepping consecutive row slabs of ``db`` gives the bits of one call over
    all of it.  Started from ``acc = 0``, a (steps, n) ``db`` leaves
    ``acc = sum_{k < steps} max(X_k, 0)`` per column; numpy sums a
    C-contiguous (steps, n) array along axis 0 row by row in that same
    order, so for n >= 2 columns this equals
    ``np.sum(np.maximum(X[:-1], 0.0), axis=0)`` bit for bit (a single
    column is summed pairwise by numpy and may differ in the last bits).
    Memory is O(n): no (steps+1, n) path matrix is kept.
    """
    for dbk in db:
        variance_step(x, dbk, dt, kappa, m, gamma, xp, drift, vol)
        acc += xp


def fd_workspace(n):
    """Scratch for ``fd_substep`` on ``n`` nodes: its buffers and their views.

    ``flux`` has n + 1 entries; ``fd_substep`` writes the n - 1 interior face
    fluxes into ``flux[1:-1]`` and the two end entries stay 0.0, the zero-flux
    boundaries.  Build it once and pass it to every substep on that grid.
    """
    ap = np.empty(n)
    bp = np.empty(n)
    flux = np.zeros(n + 1)
    return (ap, bp, ap[:-1], ap[1:], bp[:-1], bp[1:], flux[1:-1], flux[:-1], flux[1:])


def fd_substep(p, a_nodes, b_nodes, dt, cell, out, work):
    """One conservative forward-Kolmogorov step with zero-flux boundaries.

    Face fluxes J_{i+1/2} = (ap_i + ap_{i+1})/2 - (bp_{i+1} - bp_i)/(2 cell)
    discretize a p - (1/2) d(b p)/dx; the divergence update conserves the
    plain sum of p exactly.  The fluxes sit between two zero end fluxes, so
    one ``p - coef * (J_right - J_left)`` updates every node, the boundary
    nodes included (``x - 0.0`` and ``0.0 - x`` are exact).

    ``p`` is an (n,) float64 array, ``work`` an ``fd_workspace(n)`` and
    ``out`` an (n,) float64 array, which may be ``p`` itself; the substep
    allocates nothing.  Returns ``out``.
    """
    ap, bp, ap_lo, ap_hi, bp_lo, bp_hi, inner, flux_lo, flux_hi = work
    np.multiply(a_nodes, p, out=ap)
    np.multiply(b_nodes, p, out=bp)
    np.add(ap_lo, ap_hi, out=inner)
    inner *= 0.5
    # ap is spent: its first n - 1 entries take the diffusive part, then all
    # n entries the flux divergence
    np.subtract(bp_hi, bp_lo, out=ap_lo)
    ap_lo /= 2.0 * cell
    inner -= ap_lo
    np.subtract(flux_hi, flux_lo, out=ap)
    ap *= dt / cell
    np.subtract(p, ap, out=out)
    return out


def resample_indices(cum_weights, u0, n_out):
    """Systematic-resampling ancestor indices.

    cum_weights: nondecreasing cumulative weights with last entry 1;
    u0: single uniform offset in [0, 1).  Index i gets the first atom j
    with cum_weights[j] >= (i + u0)/n_out.
    """
    cw = np.asarray(cum_weights, dtype=float)
    u = (np.arange(n_out) + u0) / n_out
    return np.searchsorted(cw, u, side="left").astype(np.int64)
