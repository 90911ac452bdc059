"""Scenario benchmark: wall time, peak memory and set-up time of shipped scenarios.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each invocation starts fresh processes:
``SETUP_SAMPLES - 1`` that only import the package and validate the config,
then one that does the same and runs the scenario in a closed loop with one
client for ``S`` seconds (always at least one run), gating every run on its
oracle checks, its expected output files and byte-identical reruns, and
timing a calibration kernel after each run and each set-up to take the
host's speed drift out of ``wall_s`` and ``setup_s`` (``calibrate.py``).

With ``--trace 0`` the last line reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` its per-layer metrics, taken from two
traced runs whose counts must agree.  The line before it stamps the result
with the backend, the interpreter and numpy versions, the CPU count, the
thread caps, the seed and the config hash.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
TIME_LIMIT_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env():
    """PYTHONPATH on the checkout's sources; BLAS/OpenMP threads capped at one.

    One client on a shared host of a few cores: a second BLAS thread would
    measure the scheduler, not the program.
    """
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    for var in THREAD_VARS:
        env[var] = "1"
    return env, nproc


def worker(argv, env, deadline):
    """Run worker.py in a fresh process and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.exit(f"worker {argv} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    # turn SIGTERM into an exception, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    workload = WORKLOADS[args.workload]
    needed = [os.path.join("src", "ksplab", "__init__.py"), workload.config, "BENCHMARK.json"]
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"not a ksplab checkout, missing: {missing}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    env, nproc = child_env()
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        base = ["--workload", args.workload, "--seed", str(args.seed),
                "--out", os.path.join(scratch, "out")]
        setups = [worker(base + ["--setup-only"], env, deadline) for _ in range(SETUP_SAMPLES - 1)]
        run = worker(
            base + ["--seconds", str(args.seconds)] + (["--trace"] if args.trace else []),
            env, deadline,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    setups.append(run)
    walls = run["walls"]
    if args.trace:
        values = run["layers"]
        if run["absent"]:
            print(f"absent layers, reported as 0: {run['absent']}", file=sys.stderr)
        for key in run["mismatched_counts"]:
            print(f"count differs between two traced runs: {key}", file=sys.stderr)
    else:
        values = {
            "wall_s": run["wall_s"],
            "peak_rss_mb": run["peak_rss_mb"],
            "setup_s": statistics.median(p["setup_scaled_s"] for p in setups),
        }
    stamp = dict(
        run["stamp"],
        workload=args.workload,
        seed=args.seed,
        nproc=nproc,
        threads={var: env[var] for var in THREAD_VARS},
        wall_samples=walls,
        kernel_samples=run.get("kernel_s", []),
        setup_samples=[p["setup_s"] for p in setups],
        setup_kernel_samples=[p["setup_kernel_s"] for p in setups],
    )
    print(json.dumps({"stamp": stamp}))
    correct = run["failed"] == 0 and bool(walls) and not run.get("mismatched_counts")
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
