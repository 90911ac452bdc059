"""The benchmark's workloads: one shipped scenario config each.

Every workload runs a file from ``configs/`` unchanged except for two keys:
``seed`` (the benchmark's ``--seed``) and ``output_dir`` (a temporary
directory).  ``outputs`` lists the files a successful run must leave behind;
a missing or empty one counts the run as failed.
"""

from __future__ import annotations

from dataclasses import dataclass

# timing.json holds wall-clock times, the one output outside the byte-identity
# guarantee; every other output must repeat exactly across runs at one seed.
TIMING_FILE = "timing.json"


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # path relative to the checkout root
    outputs: tuple[str, ...]
    kernel: str  # calibration kernel of the same kind of work, see calibrate.py
    why: str


_COMMON_OUTPUTS = ("summary.csv", "manifest.json", TIMING_FILE)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "linear_filter",
            "configs/linear_compare.json",
            ("truth.csv", "observations.csv", "kalman.csv", "pf_estimates.csv",
             "grid_estimates.csv", "report.csv") + _COMMON_OUTPUTS,
            "filter",
            "Kalman oracle, 1e4-particle and 801-node grid filters on one record; "
            "mostly filters, never enters stochvol",
        ),
        Workload(
            "heston_pipeline",
            "configs/heston_demo.json",
            ("stochvol.csv",) + _COMMON_OUTPUTS,
            # a Heston Euler kernel short enough to time between runs jitters
            # by +-25%; the filter kernel follows the same drift more steadily
            "filter",
            "one 1e5-step Heston path, a 2000-particle variance filter and 1600 inner "
            "pricing calls: long narrow and short wide heston_paths calls; the pricing "
            "layers' only workload",
        ),
        Workload(
            "novikov_ensemble",
            "configs/novikov_check.json",
            ("novikov.csv",) + _COMMON_OUTPUTS,
            "ensemble",
            "three 1e5-path Euler ensembles: simulate_ensemble and check_novikov, "
            "memory mostly the program's own arrays",
        ),
    )
}
