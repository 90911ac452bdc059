"""Benchmark the compiled kernel core against the numpy fallback.

Run:  python benchmarks/bench_kernels.py

Prints per-kernel timings (best of `repeat` runs) and speedups, and checks
that both backends produce identical outputs on the benchmark inputs.
"""

import time

import numpy as np

from ksplab._kernels import BACKEND, backends


def best_time(fn, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_heston(mod, x0, y0, db, dw):
    return lambda: mod.heston_paths(x0, y0, db, dw, 1e-5, 2.0, 0.04, 0.3, 0.05)


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

    if "cython" in mods:
        xa, ya = bench_heston(mods["numpy"], x0, y0, db, dw)()
        xb, yb = bench_heston(mods["cython"], x0, y0, db, dw)()
        pa = bench_fd(mods["numpy"], p, a, b)()
        pb = bench_fd(mods["cython"], p, a, b)()
        ia = bench_resample(mods["numpy"], cw)()
        ib = bench_resample(mods["cython"], cw)()
        same = (
            np.array_equal(xa, xb)
            and np.array_equal(ya, yb)
            and np.array_equal(pa, pb)
            and np.array_equal(ia, ib)
        )
        print(f"backends bit-identical on benchmark inputs: {same}")


if __name__ == "__main__":
    main()
