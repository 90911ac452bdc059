"""Frozen calibration kernels: a fixed measure of how fast the host runs now.

The benchmark host is shared, and its speed drifts by tens of percent over
minutes, more for some kinds of work than for others.  Each workload
therefore names a kernel here that does the same kind of numpy work as its
scenario: a particle and grid filter step loop (small and medium arrays in
Python loops, as in ``linear_compare`` and ``heston_demo``) or a wide Euler
ensemble (large arrays, as in ``novikov_check``).  The worker times the kernel
right after each scenario run and scales the run's wall time by how much
slower or faster the kernel ran than its nominal time; it scales each set-up
time by the filter kernel the same way.

The kernels use numpy only and import nothing from the package, so a change
to the package cannot change them.  They are not meant to be optimised: a
change here changes every reported ``wall_s`` and ``setup_s``.
"""

from __future__ import annotations

import time

import numpy as np

# wall_s and setup_s are in seconds of a notional host on which every kernel
# takes this long.  On a shared 2-vCPU x86-64 container they take 0.13-0.4 s,
# depending on the host's load at the time.
NOMINAL_S = 0.25


def filter_kernel():
    """A bootstrap particle filter on 1e4 particles next to an 801-node grid
    filter with conservative flux substeps, as in ``linear_compare``."""
    rng = np.random.Generator(np.random.PCG64(20160512))
    n, nodes, steps, substeps, dt = 10_000, 801, 400, 12, 1e-3
    x = rng.standard_normal(n)
    grid = np.linspace(-6.0, 6.0, nodes)
    cell = grid[1] - grid[0]
    p = np.exp(-0.5 * grid * grid)
    p /= p.sum()
    drift = -grid
    t0 = time.perf_counter()
    for k in range(steps):
        y = 0.1 * np.sin(k)
        x = x - x * dt + np.sqrt(dt) * rng.standard_normal(n)
        logw = -0.5 * (y - x) ** 2 * dt
        w = np.exp(logw - logw.max())
        w /= w.sum()
        if 1.0 / float(w @ w) < 0.5 * n:
            edges = np.cumsum(w)
            edges[-1] = 1.0
            x = x[np.searchsorted(edges, (rng.random() + np.arange(n)) / n)]
        for _ in range(substeps):
            ap = drift * p
            flux = 0.5 * (ap[:-1] + ap[1:]) - (p[1:] - p[:-1]) / (2.0 * cell)
            out = np.empty_like(p)
            out[0] = p[0] - dt / substeps / cell * flux[0]
            out[1:-1] = p[1:-1] - dt / substeps / cell * (flux[1:] - flux[:-1])
            out[-1] = p[-1] + dt / substeps / cell * flux[-1]
            p = out
        p *= np.exp(-0.5 * (y - grid) ** 2 * dt)
        p /= p.sum()
    return time.perf_counter() - t0


def ensemble_kernel():
    """A 1e5-path Euler ensemble kept in full and integrated afterwards, as
    ``check_novikov`` does with ``simulate_ensemble``."""
    rng = np.random.Generator(np.random.PCG64(20160512))
    n, steps, dt = 100_000, 60, 0.01
    t0 = time.perf_counter()
    states = np.empty((steps + 1, n, 1))
    states[0] = 0.0
    for k in range(steps):
        x = states[k]
        states[k + 1] = x - 0.5 * x * dt + np.sqrt(dt) * rng.standard_normal((n, 1))
    h = states[:-1]
    integral = np.sum(h * h, axis=-1).sum(axis=0) * dt
    float(np.mean(np.exp(0.5 * integral)))
    return time.perf_counter() - t0


KERNELS = {
    "filter": filter_kernel,
    "ensemble": ensemble_kernel,
}
