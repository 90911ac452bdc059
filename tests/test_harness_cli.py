import json
import math
import os
import platform
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from ksplab import (
    DiffusionModel,
    EnsembleCollapseError,
    InitialLaw,
    ObservationPath,
    RngStream,
    constant_diffusion,
    run_particle_filter,
    validate_config,
)
from ksplab import harness
from ksplab.csvio import read_csv, write_csv
from ksplab.filters import _log_norm
from ksplab.harness import (
    RUNNERS,
    STREAM_NOVIKOV,
    _run_with_collapse_recovery,
    run_heston_demo,
    run_linear_compare,
    run_master_demo,
    run_novikov_check,
    run_pricing_demo,
    run_scenario,
)
from ksplab.observation import check_novikov

from conftest import brownian_motion, constant_sensor, identity_sensor, ornstein_uhlenbeck

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALL = {
    "linear_compare": {"n_particles": 400, "horizon": 0.2, "n_grid": 201},
    "master_demo": {},
    "heston_demo": {"dt": 1e-4, "horizon": 0.3, "n_particles": 400, "window": 300,
                    "filter_stride": 1, "n_price_times": 2, "inner_paths": 8},
    "pricing_demo": {"n_particles": 50, "inner_paths": 16, "inner_dt": 2e-2},
    "novikov_check": {"n_paths": 2000},
}

# the per-layer splits each scenario writes to timing.json besides "total"
TIMING_SPLITS = {
    "linear_compare": {"simulate", "kalman", "particle", "grid"},
    "master_demo": {"kernels", "ode", "taylor"},
    "heston_demo": {"simulate", "recovery", "filter", "pricing"},
    "pricing_demo": {"reductions", "replicates"},
    "novikov_check": {"h_zero", "h_const", "h_linear_ou"},
}


def small_config(scenario, out_dir, seed=3, **extra):
    params = dict(SMALL[scenario])
    params.update(extra)
    params["output_dir"] = out_dir
    params["seed"] = seed
    return validate_config(scenario, params, {})


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "ksplab", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestRunners:
    def test_linear_compare_report(self, tmp_out):
        report = run_linear_compare(small_config("linear_compare", tmp_out))
        assert report.passed, report.first_failure()
        assert report.metrics["rmse_pf_mean"] >= 0.0
        assert set(report.runtime) == {"simulate", "kalman", "particle", "grid"}
        for name in ("truth.csv", "observations.csv", "kalman.csv", "pf_estimates.csv",
                     "grid_estimates.csv", "report.csv", "summary.csv", "manifest.json",
                     "timing.json"):
            assert os.path.exists(os.path.join(tmp_out, name)), name

    def test_linear_compare_series_lengths_equal(self, tmp_out):
        run_linear_compare(small_config("linear_compare", tmp_out))
        _, obs = read_csv(os.path.join(tmp_out, "observations.csv"))
        _, series = read_csv(os.path.join(tmp_out, "report.csv"))
        assert series.shape == (len(obs), 9)
        assert np.array_equal(series[:, 0], obs[:, 0])

    def test_master_demo_checks(self, tmp_out):
        report = run_master_demo(small_config("master_demo", tmp_out))
        assert report.passed, report.first_failure()
        stationary = np.loadtxt(os.path.join(tmp_out, "stationary.csv"), skiprows=1)
        assert np.max(np.abs(stationary - [0.75, 0.25])) < 1e-12

    def test_master_demo_four_state_symmetric(self, tmp_out):
        rates = [[i, j, 1.0] for i in range(4) for j in range(4) if i != j]
        report = run_master_demo(small_config("master_demo", tmp_out, rates=rates))
        assert report.passed
        stationary = np.loadtxt(os.path.join(tmp_out, "stationary.csv"), skiprows=1)
        assert np.max(np.abs(stationary - 0.25)) < 1e-12

    def test_heston_demo_small(self, tmp_out):
        cfg = small_config("heston_demo", tmp_out)
        report = run_heston_demo(cfg)
        # the qv/filter tolerances are calibrated to the default sizes; the
        # small run only has to produce the full schema and finite series
        path = os.path.join(tmp_out, "stochvol.csv")
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["t", "x_true", "x_post_mean", "x_post_var", "qv_recovery", "option_price"]
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.all(np.isfinite(data[:, :5]))
        assert np.isfinite(data[:, 5]).sum() >= 1  # priced rows

    def test_pricing_demo_checks(self, tmp_out):
        report = run_pricing_demo(small_config("pricing_demo", tmp_out))
        assert report.passed, report.first_failure()
        assert report.metrics["reduction_err"] <= 1e-6
        assert report.metrics["mixture_err"] <= 1e-6

    def test_novikov_check(self, tmp_out):
        report = run_novikov_check(small_config("novikov_check", tmp_out))
        assert report.passed, report.first_failure()
        assert abs(report.metrics["h_const_estimate"] - np.exp(0.5)) < 1e-9

    @pytest.mark.parametrize("scenario", sorted(RUNNERS))
    def test_rerun_byte_identical(self, scenario, tmp_path):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        run_scenario(small_config(scenario, out_a))
        run_scenario(small_config(scenario, out_b))
        files_a = sorted(os.listdir(out_a))
        assert files_a == sorted(os.listdir(out_b))
        for name in files_a:
            if name == "timing.json":  # wall-clock, excluded from identity
                continue
            with open(os.path.join(out_a, name), "rb") as fa, open(
                os.path.join(out_b, name), "rb"
            ) as fb:
                assert fa.read() == fb.read(), f"{scenario}/{name} differs"

    @pytest.mark.parametrize("scenario", sorted(RUNNERS))
    def test_shared_output_contract(self, scenario, tmp_out):
        report = RUNNERS[scenario](small_config(scenario, tmp_out))
        with open(os.path.join(tmp_out, "manifest.json")) as fh:
            assert set(json.load(fh)) == {
                "scenario", "seed", "config_hash", "version", "backend", "python", "numpy"
            }
        with open(os.path.join(tmp_out, "summary.csv")) as fh:
            assert fh.readline().rstrip("\n").split(",") == list(report.metrics)
        with open(os.path.join(tmp_out, "timing.json")) as fh:
            timing = json.load(fh)
        assert timing["total"] > 0.0
        assert set(timing) == {"total"} | TIMING_SPLITS[scenario]

    def test_collapse_recovery_reruns_with_ten_times_particles(self):
        calls = []

        def run(n):
            calls.append(n)
            if len(calls) == 1:
                raise EnsembleCollapseError("all weights gone")
            return "ok"

        result, n_used = _run_with_collapse_recovery(run, 500)
        assert result == "ok"
        assert calls == [500, 5000]
        assert n_used == 5000

    def test_forced_collapse_reruns_once_then_propagates(self):
        # particles at +-1e200 under an identity sensor: |h|^2 overflows, so
        # every log weight is -inf on the first step, at N and at 10 N
        model = DiffusionModel(
            dim_state=1,
            drift=lambda x: np.zeros_like(x),
            diffusion_factor=constant_diffusion([[1.0]]),
            initial_law=InitialLaw.empirical([[1e200], [-1e200]], [0.5, 0.5]),
        )
        obs = ObservationPath.from_increments(np.arange(4) * 0.1, np.full((3, 1), 0.05))
        phis = {"x": lambda x: x[..., 0]}
        calls = []

        def run(n):
            calls.append(n)
            return run_particle_filter(model, identity_sensor(), obs, n, RngStream(0, 3), phis)

        with pytest.raises(EnsembleCollapseError):
            _run_with_collapse_recovery(run, 50)
        assert calls == [50, 500]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_log_weight_is_not_rerun(self, bad):
        calls = []

        def run(n):
            calls.append(n)
            return _log_norm(np.array([0.0, bad]))

        with pytest.raises(ValueError, match="log weights contain"):
            _run_with_collapse_recovery(run, 500)
        assert calls == [500]

    def test_rmse_halves_when_particles_quadruple(self, tmp_path):
        # Monte Carlo rate 1/sqrt(N): expect a factor ~2, accept [1.6, 2.6]
        # (the coarse grid keeps the oracle comparison cheap; the ratio only
        # concerns the particle side)
        def avg_rmse(n_particles):
            rmses = []
            for k in range(10):
                cfg = small_config(
                    "linear_compare",
                    str(tmp_path / f"r{n_particles}_{k}"),
                    seed=100 + k,
                    n_particles=n_particles,
                    horizon=1.0,
                    n_grid=101,
                )
                rmses.append(run_linear_compare(cfg).metrics["rmse_pf_mean"])
            return float(np.mean(rmses))

        ratio = avg_rmse(2500) / avg_rmse(10_000)
        assert 1.6 <= ratio <= 2.6

    def test_heston_demo_gamma_zero_tracks_ode(self, tmp_out):
        cfg = small_config(
            "heston_demo",
            tmp_out,
            seed=12345,
            gamma=0.0,
            kappa=3.0,
            x0=0.09,
            dt=1e-4,
            horizon=3.0,
            filter_stride=1,
            n_particles=4000,
            window=1000,
            maturity=4.0,
            n_price_times=1,
        )
        report = run_heston_demo(cfg)
        assert report.passed, report.first_failure()
        assert report.metrics["filter_vs_ode_rel"] <= 0.01

    def test_manifest_contents(self, tmp_out):
        cfg = small_config("master_demo", tmp_out)
        run_master_demo(cfg)
        with open(os.path.join(tmp_out, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["scenario"] == "master_demo"
        assert manifest["seed"] == 3
        assert manifest["config_hash"] == cfg.config_hash()
        assert manifest["version"]
        assert manifest["backend"] == "numpy"
        assert manifest["python"] == platform.python_version() == sys.version.split()[0]
        assert manifest["numpy"] == np.__version__


def serial_novikov_check(cfg, out):
    """Reference copy of the one-case-at-a-time ``novikov_check`` runner.

    Calls ``check_novikov`` per case in case order on the calling thread and
    writes ``novikov.csv`` and ``summary.csv`` as the runner does; returns
    the check names in order.
    """
    horizon, dt, n_paths, c = cfg["horizon"], cfg["dt"], cfg["n_paths"], cfg["h_const"]
    cases = [
        ("h_zero", constant_sensor(0.0), brownian_motion(), 1.0),
        ("h_const", constant_sensor(c), brownian_motion(), math.exp(0.5 * c * c * horizon)),
        ("h_linear_ou", identity_sensor(), ornstein_uhlenbeck(cfg["ou_theta"]), None),
    ]
    base = RngStream(cfg.seed, STREAM_NOVIKOV)
    metrics, checks, lines = {}, [], ["case,estimate,stderr,finite"]
    for i, (name, h, mdl, expected) in enumerate(cases):
        rep = check_novikov(h, mdl, horizon, n_paths, base.substream(i), dt=dt)
        metrics[f"{name}_estimate"] = rep.estimate
        metrics[f"{name}_stderr"] = rep.stderr
        checks.append(f"{name}_finite")
        if expected is not None:
            checks.append(f"{name}_matches_closed_form")
        lines.append(f"{name},{rep.estimate!r},{rep.stderr!r},{1.0 if rep.finite else 0.0!r}")
    os.makedirs(out)
    with open(os.path.join(out, "novikov.csv"), "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    write_csv(os.path.join(out, "summary.csv"), list(metrics), [list(metrics.values())])
    return checks


def read_bytes(*parts):
    with open(os.path.join(*parts), "rb") as fh:
        return fh.read()


def assert_same_data_files(dir_a, dir_b):
    names = sorted(os.listdir(dir_a))
    assert names == sorted(os.listdir(dir_b))
    for name in names:
        if name != "timing.json":
            assert read_bytes(dir_a, name) == read_bytes(dir_b, name), name


class TestNovikovConcurrency:
    """The three Novikov cases run on three threads with the serial runner's bytes."""

    @pytest.mark.parametrize("seed", [7, 12])
    def test_matches_serial_reference(self, seed, tmp_path):
        cfg = small_config("novikov_check", str(tmp_path / "threads"), seed=seed)
        report = run_novikov_check(cfg)
        ref = str(tmp_path / "serial")
        ref_checks = serial_novikov_check(cfg, ref)
        assert [c.name for c in report.checks] == ref_checks
        for name in ("novikov.csv", "summary.csv"):
            assert read_bytes(cfg.output_dir, name) == read_bytes(ref, name), name

    @pytest.mark.parametrize("failing", [0, 2])  # the calling thread, a pool worker
    def test_failing_case_raises_after_the_others_finish(self, failing, tmp_out, monkeypatch):
        cfg = small_config("novikov_check", tmp_out)
        base = RngStream(cfg.seed, STREAM_NOVIKOV)
        case_of = {base.substream(i): i for i in range(3)}
        finished, on_main = [], {}
        real = harness.check_novikov

        class CaseFailed(RuntimeError):
            pass

        def check(obs, model, horizon, n_paths, rng, dt=None):
            case = case_of[rng]
            on_main[case] = threading.current_thread() is threading.main_thread()
            if case == failing:
                raise CaseFailed(case)
            rep = real(obs, model, horizon, n_paths, rng, dt=dt)
            finished.append(case)
            return rep

        monkeypatch.setattr(harness, "check_novikov", check)
        before = threading.enumerate()
        with pytest.raises(CaseFailed) as err:
            run_novikov_check(cfg)
        assert err.value.args == (failing,)
        assert sorted(finished) == sorted({0, 1, 2} - {failing})
        assert on_main == {0: True, 1: False, 2: False}
        assert set(threading.enumerate()) == set(before)


def assert_no_child_left():
    # waitpid(-1) raises only when this process has no child at all, zombies included
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class LayerFailed(ValueError):
    """Raised by a patched filter layer; module level, so it pickles."""


@pytest.mark.usefixtures("hang_guard")
class TestOracleChild:
    """linear_compare runs Kalman and the grid in a forked child while the
    particle filter runs in the calling process."""

    def test_timing_splits_and_no_child_left(self, tmp_out):
        report = run_linear_compare(small_config("linear_compare", tmp_out))
        assert report.passed, report.first_failure()
        assert_no_child_left()
        with open(os.path.join(tmp_out, "timing.json")) as fh:
            timing = json.load(fh)
        for name in ("simulate", "kalman", "particle", "grid"):
            assert timing[name] > 0.0, name

    def test_child_exception_raised_with_its_type_and_message(self, tmp_out, monkeypatch):
        def grid(*args, **kwargs):
            raise LayerFailed(f"grid failed in {os.getpid()}")

        monkeypatch.setattr(harness, "run_grid_filter", grid)
        with pytest.raises(LayerFailed) as err:
            run_linear_compare(small_config("linear_compare", tmp_out))
        message = str(err.value)
        assert message.startswith("grid failed in ")
        assert int(message.rsplit(" ", 1)[1]) != os.getpid()  # raised in the child
        assert_no_child_left()
        assert not os.path.exists(os.path.join(tmp_out, "report.csv"))

    def test_unpicklable_child_exception_named_in_a_runtime_error(self, tmp_out, monkeypatch):
        class LocalFailure(ValueError):
            pass

        def grid(*args, **kwargs):
            raise LocalFailure("grid failed")

        monkeypatch.setattr(harness, "run_grid_filter", grid)
        with pytest.raises(RuntimeError, match="^LocalFailure: grid failed$"):
            run_linear_compare(small_config("linear_compare", tmp_out))
        assert_no_child_left()

    def test_particle_failure_kills_and_reaps_the_child(self, tmp_out, monkeypatch):
        def particle(*args, **kwargs):
            raise LayerFailed("particle filter failed")

        monkeypatch.setattr(harness, "run_particle_filter", particle)
        with pytest.raises(LayerFailed, match="^particle filter failed$"):
            run_linear_compare(small_config("linear_compare", tmp_out))
        assert_no_child_left()

    def test_inline_without_fork_writes_the_same_bytes(self, tmp_path, monkeypatch):
        forked = str(tmp_path / "forked")
        run_linear_compare(small_config("linear_compare", forked))
        monkeypatch.delattr(os, "fork")
        inline = str(tmp_path / "inline")
        report = run_linear_compare(small_config("linear_compare", inline))
        assert set(report.runtime) == TIMING_SPLITS["linear_compare"]
        assert_same_data_files(forked, inline)


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


needs_proc_fd = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)


def collapse_first_attempt(monkeypatch, emit_first):
    """Patch the runner's heston_filter so that its first attempt raises
    ``EnsembleCollapseError``, after running in full and emitting its
    snapshots if ``emit_first``, before emitting anything otherwise."""
    real, attempts = harness.heston_filter, []

    def heston_filter(*args, **kwargs):
        attempts.append(args[3])
        if len(attempts) > 1:
            return real(*args, **kwargs)
        if emit_first:
            real(*args, **kwargs)
        raise EnsembleCollapseError("forced on the first attempt")

    monkeypatch.setattr(harness, "heston_filter", heston_filter)


def counted_pricing(monkeypatch):
    """Patch the runner's filtered_option_price to count its calls here."""
    real, calls = harness.filtered_option_price, []

    def filtered_option_price(*args, **kwargs):
        calls.append(kwargs["t_now"])
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "filtered_option_price", filtered_option_price)
    return calls


@pytest.mark.usefixtures("hang_guard")
class TestFilterChild:
    """heston_demo runs its filter in a forked child that streams each
    posterior snapshot to this process, which prices it as it arrives."""

    def test_timing_splits_and_no_child_left(self, tmp_out, monkeypatch):
        calls = counted_pricing(monkeypatch)
        report = run_heston_demo(small_config("heston_demo", tmp_out))
        assert report.checks
        assert_no_child_left()
        assert len(calls) == 2  # priced here, where the patch counts
        for name in ("simulate", "recovery", "filter", "pricing"):
            assert report.runtime[name] > 0.0, name

    def test_first_snapshot_priced_while_the_filter_runs(self, tmp_out, tmp_path, monkeypatch):
        # the child holds the filter after its first snapshot until this
        # process has priced it, so pricing only after the filter ends fails
        priced = tmp_path / "priced"
        real_filter, real_price = harness.heston_filter, harness.filtered_option_price

        def heston_filter(*args, on_snapshot, **kwargs):
            def hold_until_priced(k, ens):
                on_snapshot(k, ens)
                deadline = time.monotonic() + 60.0
                while not priced.exists():
                    if time.monotonic() > deadline:
                        raise LayerFailed(f"snapshot {k} was not priced while the filter ran")
                    time.sleep(0.002)

            return real_filter(*args, on_snapshot=hold_until_priced, **kwargs)

        def filtered_option_price(*args, **kwargs):
            value = real_price(*args, **kwargs)
            priced.touch()
            return value

        monkeypatch.setattr(harness, "heston_filter", heston_filter)
        monkeypatch.setattr(harness, "filtered_option_price", filtered_option_price)
        run_heston_demo(small_config("heston_demo", tmp_out))
        assert_no_child_left()

    def test_child_exception_raised_with_its_type_and_message(self, tmp_out, monkeypatch):
        real = harness.heston_filter

        def heston_filter(*args, on_snapshot, **kwargs):
            def first_then_fail(k, ens):
                on_snapshot(k, ens)
                raise LayerFailed(f"filter failed in {os.getpid()}")

            return real(*args, on_snapshot=first_then_fail, **kwargs)

        monkeypatch.setattr(harness, "heston_filter", heston_filter)
        calls = counted_pricing(monkeypatch)
        with pytest.raises(LayerFailed) as err:
            run_heston_demo(small_config("heston_demo", tmp_out))
        message = str(err.value)
        assert message.startswith("filter failed in ")
        assert int(message.rsplit(" ", 1)[1]) != os.getpid()  # raised in the child
        assert len(calls) == 1  # the snapshot sent before the failure was priced here
        assert_no_child_left()
        assert not os.path.exists(os.path.join(tmp_out, "stochvol.csv"))

    def test_pricing_failure_kills_and_reaps_the_child(self, tmp_out, monkeypatch):
        def filtered_option_price(*args, **kwargs):
            raise LayerFailed("pricing failed")

        monkeypatch.setattr(harness, "filtered_option_price", filtered_option_price)
        with pytest.raises(LayerFailed, match="^pricing failed$"):
            run_heston_demo(small_config("heston_demo", tmp_out))
        assert_no_child_left()

    def test_rerun_prices_replace_the_collapsed_attempts(self, tmp_path, monkeypatch):
        # the reference's first attempt sends nothing, as the filter did when
        # it returned its snapshots only at the end
        runs = {"reference": (False, False), "inline": (False, True), "forked": (True, True)}
        for name, (fork, emit_first) in runs.items():
            monkeypatch.undo()
            if not fork:
                monkeypatch.delattr(os, "fork")
            collapse_first_attempt(monkeypatch, emit_first)
            calls = counted_pricing(monkeypatch)
            run_heston_demo(small_config("heston_demo", str(tmp_path / name)))
            # two snapshots an attempt, each priced as it arrives
            assert len(calls) == (4 if emit_first else 2), name
        assert_no_child_left()
        for name in ("inline", "forked"):
            assert_same_data_files(str(tmp_path / "reference"), str(tmp_path / name))

    def test_inline_without_fork_writes_the_same_bytes(self, tmp_path, monkeypatch):
        forked = str(tmp_path / "forked")
        run_heston_demo(small_config("heston_demo", forked))
        monkeypatch.delattr(os, "fork")
        inline = str(tmp_path / "inline")
        report = run_heston_demo(small_config("heston_demo", inline))
        assert set(report.runtime) == TIMING_SPLITS["heston_demo"]
        assert_same_data_files(forked, inline)
        # in sequence, filter leaves out the pricing done while it ran
        with open(os.path.join(inline, "timing.json")) as fh:
            timing = json.load(fh)
        assert 0.0 < timing["filter"] and sum(report.runtime.values()) <= timing["total"]

    def test_inline_filter_split_leaves_the_pricing_out(self, tmp_out, monkeypatch):
        # the snapshots are priced once the filter returns: were they priced
        # inside it, filter and pricing would overlap and sum to more than total
        real, pause = harness.filtered_option_price, 0.3

        def slow_price(*args, **kwargs):
            time.sleep(pause)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "filtered_option_price", slow_price)
        monkeypatch.delattr(os, "fork")
        report = run_heston_demo(small_config("heston_demo", tmp_out))
        assert set(report.runtime) == TIMING_SPLITS["heston_demo"]
        with open(os.path.join(tmp_out, "timing.json")) as fh:
            timing = json.load(fh)
        assert timing["pricing"] >= 2 * pause
        assert 0.0 < timing["filter"] and timing["filter"] + timing["pricing"] <= timing["total"]


@needs_proc_fd
@pytest.mark.usefixtures("hang_guard")
class TestNoLeaks:
    """No pipe end, other descriptor or child process outlives a run."""

    @pytest.mark.parametrize("scenario", sorted(RUNNERS))
    def test_descriptors_and_children_after_a_run(self, scenario, tmp_out):
        before = open_fds()
        report = run_scenario(small_config(scenario, tmp_out))
        assert report.checks
        assert open_fds() == before
        assert_no_child_left()


class TestCli:
    def test_list_enumerates_scenarios(self):
        proc = run_cli("list")
        assert proc.returncode == 0
        assert set(proc.stdout.split()) == set(RUNNERS)

    def test_scenario_run_exit_zero(self, tmp_path):
        out = str(tmp_path / "out")
        proc = run_cli(
            "master_demo", "--seed", "5", "--out", out,
        )
        assert proc.returncode == 0, proc.stderr
        assert "[PASS]" in proc.stdout
        assert os.path.exists(os.path.join(out, "manifest.json"))

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"scenario": "master_demo", "seed": 1, "tau_a": 0.4}))
        out = str(tmp_path / "out")
        proc = run_cli("master_demo", "--config", str(cfg_file), "--seed", "9", "--out", out)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["seed"] == 9  # flag beats file

    def test_bad_config_lists_all_violations_exit_2(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(
            json.dumps({"scenario": "linear_compare", "dt": -1.0, "bogus": 3})
        )
        proc = run_cli("linear_compare", "--config", str(cfg_file))
        assert proc.returncode == 2
        assert "dt" in proc.stderr
        assert "bogus" in proc.stderr
        # a malformed or non-UTF-8 document is a config error too, not a traceback
        for data, token in ((b'{"seed": 7,', "not valid JSON"), (b'\xff{"seed": 7}', "utf-8")):
            cfg_file.write_bytes(data)
            proc = run_cli("linear_compare", "--config", str(cfg_file))
            assert proc.returncode == 2
            assert proc.stderr.startswith("config error:") and token in proc.stderr
            assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "scenario, sets, token",
        [
            ("linear_compare", ["x_lo=2.0", "x_hi=-2.0"], "x_lo"),
            ("heston_demo", ["horizon=0.05", "dt=1e-3", "window=51"], "window"),
            ("linear_compare", ["H=0"], "'H'"),
        ],
    )
    def test_cross_key_violation_exit_2(self, scenario, sets, token, tmp_path):
        args = [scenario, "--out", str(tmp_path / "out")]
        for item in sets:
            args += ["--set", item]
        proc = run_cli(*args)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error:")
        assert token in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_env_var_output_dir(self, tmp_path):
        out = str(tmp_path / "env_out")
        proc = run_cli("master_demo", env_extra={"KSP_LAB_OUT": out})
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(os.path.join(out, "manifest.json"))

    def test_failed_criterion_nonzero_exit_named(self, tmp_path):
        # an undersized heston run misses its accuracy criteria
        out = str(tmp_path / "out")
        proc = run_cli(
            "heston_demo", "--out", out,
            "--set", "dt=1e-3", "--set", "horizon=0.05", "--set", "n_particles=50",
            "--set", "window=10", "--set", "filter_stride=1", "--set", "n_price_times=1",
            "--set", "inner_paths=4",
        )
        assert proc.returncode == 1
        assert "FAILED criterion" in proc.stderr

    def test_raising_run_names_the_exception_type(self, tmp_path):
        # without diffusion the grid's central advection floors too much mass
        # and raises RuntimeError in the forked child; the CLI reports it
        proc = run_cli(
            "linear_compare", "--out", str(tmp_path / "out"),
            "--set", "sigma=0", "--set", "prior_var=0.01", "--set", "horizon=0.2",
            "--set", "n_grid=201", "--set", "n_particles=400",
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("linear_compare failed with RuntimeError: flooring removed")
        assert "builtins" not in proc.stderr and "Traceback" not in proc.stderr

    def test_set_flag_overrides(self, tmp_path):
        out = str(tmp_path / "out")
        proc = run_cli("master_demo", "--out", out, "--set", "tau_a=0.5")
        assert proc.returncode == 0, proc.stderr

    def test_shipped_example_configs_validate(self, tmp_path):
        import glob

        from ksplab import parse_config

        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        paths = sorted(glob.glob(os.path.join(root, "*.json")))
        assert len(paths) == 5
        for p in paths:
            with open(p, encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
            assert cfg.scenario in RUNNERS

    def test_shipped_master_config_runs(self, tmp_path):
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        out = str(tmp_path / "out")
        proc = run_cli("master_demo", "--config", os.path.join(root, "master_demo.json"), "--out", out)
        assert proc.returncode == 0, proc.stderr


def loaded_after(module, code, *args):
    """Run ``code`` in a fresh interpreter; return whether it left ``module`` loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\nprint({module!r} in sys.modules)", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


RUN_SMALL = """
import json
from ksplab import validate_config
from ksplab.harness import run_scenario
run_scenario(validate_config(sys.argv[1], json.loads(sys.argv[2]), {}))
"""


def small_params(scenario, out_dir):
    return json.dumps({**SMALL[scenario], "output_dir": out_dir, "seed": 3})


class TestColdImport:
    """scipy is loaded only by `evolve_kernel`, so only `master_demo` pays for it;
    the thread pool (and the logging it loads) only by a `novikov_check` run."""

    @pytest.mark.parametrize("code", ["import ksplab", "import ksplab.harness, ksplab.cli"])
    def test_import_leaves_scipy_unloaded(self, code):
        assert not loaded_after("scipy", code)

    @pytest.mark.parametrize(
        "scenario", ["linear_compare", "heston_demo", "pricing_demo", "novikov_check"]
    )
    def test_scenario_leaves_scipy_unloaded(self, scenario, tmp_path):
        assert not loaded_after("scipy", RUN_SMALL, scenario, small_params(scenario, str(tmp_path)))

    @pytest.mark.parametrize("module", ["concurrent.futures", "logging"])
    def test_import_leaves_thread_pool_unloaded(self, module):
        # novikov_check imports its executor when it runs, not at import
        assert not loaded_after(module, "import ksplab.harness, ksplab.cli")

    def test_master_demo_loads_scipy(self, tmp_path):
        assert loaded_after("scipy", RUN_SMALL, "master_demo", small_params("master_demo", str(tmp_path)))
