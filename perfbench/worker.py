"""One fresh benchmark process: set-up timing, then closed-loop scenario runs.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--seconds S] [--trace] [--setup-only]

Expects ``src`` on ``PYTHONPATH`` and the BLAS/OpenMP thread caps already in
the environment (``run.py`` sets both).  Nothing from numpy or the package is
imported before the set-up clock starts.  Prints one JSON object as its last
line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

import spans
from workloads import TIMING_FILE, WORKLOADS


def load_config(root, workload, seed, out_dir):
    """Import the package and validate the workload's config, as a CLI call does.

    Returns (config, import seconds, import + validate seconds).
    """
    t0 = time.perf_counter()
    import ksplab.config

    t_import = time.perf_counter() - t0
    with open(os.path.join(root, workload.config), encoding="utf-8") as fh:
        raw = json.load(fh)
    scenario = raw.pop("scenario")
    cfg = ksplab.config.validate_config(scenario, raw, {"seed": seed, "output_dir": out_dir})
    return cfg, t_import, time.perf_counter() - t0


@dataclass
class Outcome:
    wall: float | None  # None when the run failed
    reason: str = ""
    digest: str = ""
    output_bytes: int = 0
    report: object = None


def run_once(cfg, workload) -> Outcome:
    """Time one ``run_scenario`` call and gate it on its checks and outputs."""
    import ksplab.harness

    # a stale file from an earlier run must not satisfy the output check
    shutil.rmtree(cfg.output_dir, ignore_errors=True)
    t0 = time.perf_counter()
    try:
        report = ksplab.harness.run_scenario(cfg)
    except Exception as exc:  # any raise is a failed operation, not a crash
        return Outcome(None, f"raised {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    if not report.passed:
        return Outcome(None, f"check failed: {report.first_failure().line()}", report=report)
    missing = [
        name for name in workload.outputs
        if not os.path.isfile(os.path.join(cfg.output_dir, name))
        or os.path.getsize(os.path.join(cfg.output_dir, name)) == 0
    ]
    if missing:
        return Outcome(None, f"missing outputs: {missing}", report=report)
    digest = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(cfg.output_dir)):
        if name == TIMING_FILE:
            continue
        with open(os.path.join(cfg.output_dir, name), "rb") as fh:
            data = fh.read()
        digest.update(name.encode() + b"\0" + data)
        size += len(data)
    return Outcome(wall, digest=digest.hexdigest(), output_bytes=size, report=report)


class Gate:
    """Counts attempted and failed runs; reruns at one seed must match byte for byte."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def record(self, outcome: Outcome) -> Outcome:
        self.attempted += 1
        if outcome.wall is not None:
            if self.reference is None:
                self.reference = outcome.digest
            elif outcome.digest != self.reference:
                outcome.wall = None
                outcome.reason = "data files differ from the first run at this seed"
        if outcome.wall is None:
            self.failed += 1
            print(f"run {self.attempted} failed: {outcome.reason}", file=sys.stderr)
        return outcome


def closed_loop(cfg, workload, gate, seconds, min_runs=1, kernel=None):
    """One client: start the next run when the previous one ends, for ``seconds``.

    A run is started only if, at the pace of the last one, it ends within
    ``seconds`` (``min_runs`` are always made).  With a calibration ``kernel``
    each passing run is followed by one kernel timing.  Returns (scenario
    walls of the passing runs, kernel time after each of them).
    """
    walls, kernel_s = [], []
    start = time.perf_counter()
    runs = 0
    last = 0.0
    while runs < min_runs or time.perf_counter() - start + last < seconds:
        t0 = time.perf_counter()
        outcome = gate.record(run_once(cfg, workload))
        runs += 1
        if outcome.wall is not None:
            walls.append(outcome.wall)
            if kernel is not None:
                kernel_s.append(kernel())
        last = time.perf_counter() - t0
    return walls, kernel_s


def scaled_wall(walls, kernel_s):
    """Median scenario wall time at the pinned host speed: the median over
    runs of a run's wall time over the kernel time right after it, times the
    kernel's nominal time."""
    import calibrate

    ratios = [w / k for w, k in zip(walls, kernel_s)]
    return statistics.median(ratios) * calibrate.NOMINAL_S if ratios else None


def traced_run(cfg, workload, gate):
    """One run with every layer wrapped; returns (metrics, absent span names)."""
    import ksplab.config

    tracer = spans.Tracer()
    cpu0 = time.process_time()
    with spans.traced(tracer) as absent:
        traced_cfg = ksplab.config.validate_config(cfg.scenario, dict(cfg.params))
        outcome = gate.record(run_once(traced_cfg, workload))
    cpu = time.process_time() - cpu0
    metrics = tracer.layer_metrics()
    metrics["harness.output_bytes"] = outcome.output_bytes
    metrics["process.cpu_s"] = cpu
    report = outcome.report
    ess_stats = getattr(report, "ess_stats", None)
    pf_args = tracer.last_args.get("filters.run_particle_filter")
    metrics["filters.ess_mean_frac"] = 0.0
    if ess_stats and pf_args:
        # particles actually used: the last call's count, 10x after a collapse rerun
        args, kwargs = pf_args
        n_used = args[3] if len(args) > 3 else kwargs["n_particles"]
        metrics["filters.ess_mean_frac"] = ess_stats["mean"] / n_used
    return metrics, absent


def trace_mode(cfg, workload, gate, seconds):
    """An untraced run (warm-up, and the baseline of the tracing overhead), two
    traced runs whose counts must agree, then untraced runs for what is left
    of ``seconds`` as more baseline.

    Returns (untraced walls, per-layer metrics, mismatched counts, absent spans).
    """
    start = time.perf_counter()
    walls, _ = closed_loop(cfg, workload, gate, 0.0)
    (first, absent), (second, _) = [traced_run(cfg, workload, gate) for _ in range(2)]
    walls += closed_loop(cfg, workload, gate, seconds - (time.perf_counter() - start), 0)[0]
    counts = [k for k in first if k.rsplit(".", 1)[-1] in spans.DETERMINISTIC_QUANTITIES]
    layers = {k: statistics.median([first[k], second[k]]) for k in first}
    layers.update({k: first[k] for k in counts})
    layers["trace.overhead_s"] = (
        layers["harness.run_scenario.s"] - statistics.median(walls) if walls else None
    )
    return walls, layers, [k for k in counts if first[k] != second[k]], absent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="scenario output directory")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workload = WORKLOADS[args.workload]
    cfg, import_s, setup_s = load_config(root, workload, args.seed, args.out)
    import calibrate

    # set-up time scaled to the pinned host speed as wall_s is, by the filter
    # kernel timed right after it
    kernel_s = calibrate.filter_kernel()
    result = {
        "setup_s": setup_s,
        "setup_kernel_s": kernel_s,
        "setup_scaled_s": setup_s / kernel_s * calibrate.NOMINAL_S,
        "import_s": import_s,
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    import numpy
    import ksplab

    gate = Gate()
    result["stamp"] = {
        "backend": ksplab.BACKEND,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "config_hash": cfg.config_hash(),
    }
    if args.trace:
        walls, result["layers"], result["mismatched_counts"], result["absent"] = trace_mode(
            cfg, workload, gate, args.seconds
        )
        result["layers"]["process.import_s"] = import_s
    else:
        kernel = calibrate.KERNELS[workload.kernel]
        kernel()  # warm-up; a slower first scenario run is left to the median
        walls, kernel_s = closed_loop(cfg, workload, gate, args.seconds, kernel=kernel)
        result.update(kernel_s=kernel_s, wall_s=scaled_wall(walls, kernel_s))
    result.update(
        walls=walls,
        attempted=gate.attempted,
        failed=gate.failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
