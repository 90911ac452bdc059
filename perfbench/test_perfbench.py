"""Tests of the scenario benchmark itself: gate, tracer and declared metrics.

    PYTHONPATH=src python3 -m pytest -q perfbench

Small configs keep the suite to a few seconds.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calibrate  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from ksplab import validate_config  # noqa: E402

LINEAR = WORKLOADS["linear_filter"]
SMALL_LINEAR = {"horizon": 0.2, "n_grid": 201, "n_particles": 400}
SMALL_PRICING = {"n_particles": 20, "inner_paths": 8, "inner_dt": 2e-2}


def linear_config(out_dir, **extra):
    return validate_config("linear_compare", {**SMALL_LINEAR, **extra, "seed": 7, "output_dir": out_dir})


def test_passing_runs_are_timed_and_rerun_identically(tmp_path):
    gate = worker.Gate()
    walls, kernel_s = worker.closed_loop(
        linear_config(str(tmp_path)), LINEAR, gate, 0.0, min_runs=2, kernel=lambda: 0.5
    )
    assert (gate.attempted, gate.failed) == (2, 0)
    assert len(walls) == 2 and all(w > 0 for w in walls)
    assert kernel_s == [0.5, 0.5]


def test_wall_time_is_scaled_by_the_kernel_time_after_each_run():
    ratios_median = 4.0  # 2/0.5, 4/1, 6/1
    assert worker.scaled_wall([2.0, 4.0, 6.0], [0.5, 1.0, 1.0]) == ratios_median * calibrate.NOMINAL_S
    assert worker.scaled_wall([], []) is None


def test_setup_time_is_scaled_by_the_filter_kernel(tmp_path, capsys):
    worker.main(["--workload", "linear_filter", "--seed", "7", "--out", str(tmp_path), "--setup-only"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    scaled = result["setup_s"] / result["setup_kernel_s"] * calibrate.NOMINAL_S
    assert result["setup_scaled_s"] == pytest.approx(scaled)


def test_every_workload_names_a_calibration_kernel():
    for workload in WORKLOADS.values():
        assert calibrate.KERNELS[workload.kernel]() > 0


def test_failed_check_counts_as_failed_and_is_not_timed(tmp_path):
    # a grid truncated to [-1, 1] cannot match the Kalman moments
    cfg = linear_config(str(tmp_path), x_lo=-1.0, x_hi=1.0)
    gate = worker.Gate()
    walls, kernel_s = worker.closed_loop(cfg, LINEAR, gate, 0.0, kernel=lambda: 0.5)
    assert (gate.attempted, gate.failed, walls, kernel_s) == (1, 1, [], [])


def test_raising_run_counts_as_failed(tmp_path):
    # an 11-node grid floors more negative mass than the run allows and raises
    outcome = worker.Gate().record(worker.run_once(linear_config(str(tmp_path), n_grid=11), LINEAR))
    assert outcome.wall is None and outcome.reason.startswith("raised")


def test_missing_output_counts_as_failed(tmp_path):
    expects_more = dataclasses.replace(LINEAR, outputs=LINEAR.outputs + ("absent.csv",))
    outcome = worker.run_once(linear_config(str(tmp_path)), expects_more)
    assert outcome.wall is None and "absent.csv" in outcome.reason


def test_changed_outputs_count_as_failed():
    gate = worker.Gate()
    gate.record(worker.Outcome(1.0, digest="a"))
    assert gate.record(worker.Outcome(1.0, digest="b")).wall is None
    assert (gate.attempted, gate.failed) == (2, 1)


def _current(targets):
    return {
        (module, path): vars(resolved[0])[resolved[1]]
        for places in targets.values()
        for module, path in places
        if (resolved := spans._resolve(module, path)) is not None
    }


def test_wrappers_are_restored_and_missing_targets_reported_absent():
    targets = dict(spans.TARGETS, **{"stochvol.gone": [("ksplab.stochvol", "gone")]})
    before = _current(targets)
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Tracer(), targets) as absent:
            assert absent == ["stochvol.gone"]
            assert all(_current(targets)[key] is not fn for key, fn in before.items())
            raise RuntimeError("run failed mid-trace")
    assert _current(targets) == before
    assert len(before) == sum(len(places) for places in spans.TARGETS.values())


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["inner", 5.0, 6.0, 0]]
    totals = tracer.totals()
    assert totals["outer"] == {"s": 10.0, "self_s": 6.0, "calls": 1}
    assert totals["inner"]["calls"] == 2 and totals["inner"]["s"] == 4.0


@pytest.mark.parametrize(
    "scenario, overrides, layer, calls",
    [
        ("linear_compare", SMALL_LINEAR, "filters.zakai_grid_step.calls", None),
        ("pricing_demo", SMALL_PRICING, "stochvol.simulate_variance_paths.calls", 4 + 9 * 20),
    ],
)
def test_traced_counts_repeat_exactly(tmp_path, scenario, overrides, layer, calls):
    cfg = validate_config(scenario, {**overrides, "seed": 7, "output_dir": str(tmp_path)})
    # pricing_demo has no workload, so no expected outputs are checked for it
    workload = LINEAR if scenario == "linear_compare" else dataclasses.replace(
        LINEAR, name=scenario, config=f"configs/{scenario}.json", outputs=()
    )
    gate = worker.Gate()
    first, _ = worker.traced_run(cfg, workload, gate)
    second, _ = worker.traced_run(cfg, workload, gate)
    assert gate.failed == 0
    counted = [k for k in first if k.rsplit(".", 1)[-1] in spans.DETERMINISTIC_QUANTITIES]
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
    assert first[layer] > 0 and (calls is None or first[layer] == calls)
    assert first["harness.run_scenario.self_s"] < first["harness.run_scenario.s"]


def test_declared_metrics_match_what_the_benchmark_reports(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    metrics, _ = worker.traced_run(linear_config(str(tmp_path)), LINEAR, worker.Gate())
    reported = set(metrics) | {"trace.overhead_s", "process.import_s"}
    assert {m["name"] for m in declared["per_layer"]} == reported
    assert [m["name"] for m in declared["end_to_end"]] == ["wall_s", "peak_rss_mb", "setup_s"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "linear_filter", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
