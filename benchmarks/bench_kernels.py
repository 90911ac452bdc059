"""Benchmark the compiled kernel core against the numpy fallback.

Run:  python benchmarks/bench_kernels.py

Prints per-kernel timings (best of `repeat` runs) and speedups, and checks
that both backends produce identical outputs on the benchmark inputs.  The
one-column Heston case runs the numpy fallback's scalar path for narrow
calls.  A last line times the variance-only ``heston_variance_sum`` (numpy
on every backend) against the ``heston_paths`` call plus axis-0 sum it
replaces in inner pricing, and checks that both give the same bits.
"""

import time

import numpy as np

from ksplab._kernels import BACKEND, backends, heston_paths, heston_variance_sum


def best_time(fn, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_heston(mod, x0, y0, db, dw):
    return lambda: mod.heston_paths(x0, y0, db, dw, 1e-5, 2.0, 0.04, 0.3, 0.05)


def variance_sum_via_paths(x0, db):
    x, _ = heston_paths(x0, np.zeros(x0.size), db, np.zeros_like(db), 5e-3, 1.0, 0.04, 0.3, 0.0)
    return np.sum(np.maximum(x[:-1], 0.0), axis=0)


def bench_fd(mod, p, a, b):
    def run():
        q = p
        for _ in range(2000):
            q = mod.fd_substep(q, a, b, 8e-5, 0.015)
        return q

    return run


def bench_resample(mod, cw):
    def run():
        for _ in range(200):
            idx = mod.resample_indices(cw, 0.37, cw.size)
        return idx

    return run


def main():
    mods = backends()
    print(f"selected backend: {BACKEND}; available: {sorted(mods)}")
    rng = np.random.default_rng(0)

    # Heston: 50 paths x 1e5 steps (the QV study workload)
    steps, n = 100_000, 50
    x0 = rng.uniform(0.01, 0.1, n)
    y0 = np.zeros(n)
    db = rng.normal(size=(steps, n)) * np.sqrt(1e-5)
    dw = rng.normal(size=(steps, n)) * np.sqrt(1e-5)

    # one long column (the simulated Heston record), i.e. the narrow-call path
    x1, y1, db1, dw1 = x0[:1], y0[:1], db[:, :1].copy(), dw[:, :1].copy()

    # inner pricing: 1024 columns x 200 steps, variance only
    xv = rng.uniform(0.0, 0.12, 1024)
    dbv = rng.normal(size=(200, 1024)) * np.sqrt(5e-3)

    # grid transport: 801 nodes x 2000 substeps (one filtering run)
    p = rng.uniform(0.0, 1.0, 801)
    a = rng.normal(size=801)
    b = rng.uniform(0.5, 1.5, 801)

    # resampling: 1e5 particles x 200 rounds
    w = rng.uniform(0.0, 1.0, 100_000)
    cw = np.cumsum(w / w.sum())
    cw[-1] = 1.0

    cases = [
        ("heston_paths (1e5 x 50)", bench_heston, (x0, y0, db, dw)),
        ("heston_paths (1e5 x 1)", bench_heston, (x1, y1, db1, dw1)),
        ("fd_substep   (801 x 2000)", bench_fd, (p, a, b)),
        ("resample     (1e5 x 200)", bench_resample, (cw,)),
    ]

    print(f"{'kernel':<28}{'numpy [s]':>12}{'cython [s]':>12}{'speedup':>10}")
    for name, factory, args in cases:
        t_np = best_time(factory(mods["numpy"], *args))
        if "cython" in mods:
            t_cy = best_time(factory(mods["cython"], *args))
            print(f"{name:<28}{t_np:>12.4f}{t_cy:>12.4f}{t_np / t_cy:>9.1f}x")
        else:
            print(f"{name:<28}{t_np:>12.4f}{'-':>12}{'-':>10}")

    t_sum = best_time(lambda: heston_variance_sum(xv, dbv, 5e-3, 1.0, 0.04, 0.3))
    t_paths = best_time(lambda: variance_sum_via_paths(xv, dbv))
    same = np.array_equal(
        heston_variance_sum(xv, dbv, 5e-3, 1.0, 0.04, 0.3), variance_sum_via_paths(xv, dbv)
    )
    print(
        f"heston_variance_sum (200 x 1024): {t_sum:.4f} s; heston_paths + axis-0 sum "
        f"({BACKEND}): {t_paths:.4f} s; {t_paths / t_sum:.1f}x; bit-identical: {same}"
    )

    if "cython" in mods:
        xa, ya = bench_heston(mods["numpy"], x0, y0, db, dw)()
        xb, yb = bench_heston(mods["cython"], x0, y0, db, dw)()
        xa1, ya1 = bench_heston(mods["numpy"], x1, y1, db1, dw1)()
        xb1, yb1 = bench_heston(mods["cython"], x1, y1, db1, dw1)()
        pa = bench_fd(mods["numpy"], p, a, b)()
        pb = bench_fd(mods["cython"], p, a, b)()
        ia = bench_resample(mods["numpy"], cw)()
        ib = bench_resample(mods["cython"], cw)()
        same = (
            np.array_equal(xa, xb)
            and np.array_equal(ya, yb)
            and np.array_equal(xa1, xb1)
            and np.array_equal(ya1, yb1)
            and np.array_equal(pa, pb)
            and np.array_equal(ia, ib)
        )
        print(f"backends bit-identical on benchmark inputs: {same}")


if __name__ == "__main__":
    main()
