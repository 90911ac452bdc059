"""The fork layer (ksplab._fork) and linear_compare's noise handoff.

``_alongside`` runs one function in a forked child while this process runs
another; every message the child sends through its
``multiprocessing.connection`` pipe is one pickle of ``(kind, body)``.
Once linear_compare's child has sent its oracles, it serves the particle
filter's noise for the steps this process has not reached.
"""

import os
import signal
import struct
import threading
import time

import numpy as np
import pytest

from ksplab import (
    EnsembleCollapseError,
    InitialLaw,
    RngStream,
    run_particle_filter,
    validate_config,
)
from ksplab import filters, harness
from ksplab._fork import _alongside, _Child
from ksplab.config import read_document
from ksplab.harness import RUNNERS, run_linear_compare
from ksplab.kalman import LinearModel
from ksplab.observation import simulate_observation
from ksplab.sde import simulate_path

from test_harness_cli import (
    ROOT,
    SMALL,
    TIMING_SPLITS,
    LayerFailed,
    assert_no_child_left,
    assert_same_data_files,
    needs_proc_fd,
    open_fds,
    small_config,
)


def shipped_linear_config(out_dir, **extra):
    with open(os.path.join(ROOT, "configs", "linear_compare.json"), encoding="utf-8") as fh:
        _, raw = read_document(fh.read(), "linear_compare")
    return validate_config("linear_compare", {**raw, **extra}, {"output_dir": out_dir})


def unread(fd):
    """The number of bytes written to the pipe ``fd`` reads and not yet read."""
    import fcntl, termios  # Unix only, as os.fork is

    return struct.unpack("i", fcntl.ioctl(fd, termios.FIONREAD, b"\0" * 4))[0]


def wait_for_value(child):
    deadline = time.monotonic() + 60.0
    while not child.poll():
        assert time.monotonic() < deadline, "the child's value never arrived"
        time.sleep(0.001)


class HandoffAt:
    """A child link whose value shows at the K-th poll and not before (never
    for K = None).  The noise source polls once a step from step 1 until the
    handoff, so the handoff comes at step K; it counts the items read."""

    def __init__(self, child, K):
        self.child, self.K, self.polls, self.items = child, K, 0, 0

    def poll(self):
        self.polls += 1
        if self.K is None or self.polls < self.K:
            return False
        wait_for_value(self.child)
        return True

    def item(self):
        self.items += 1
        return self.child.item()

    def __getattr__(self, name):
        return getattr(self.child, name)


def counted_items(monkeypatch):
    """Patch _Child.item to record the shape of each noise item this process reads."""
    real, shapes = _Child.item, []

    def item(self):
        dv, u = real(self)
        shapes.append(dv.shape)
        return dv, u

    monkeypatch.setattr(_Child, "item", item)
    return shapes


def counted_generators(monkeypatch):
    """Patch RngStream.generator to record each stream this process makes a generator of."""
    real, made = RngStream.generator, []

    def generator(self):
        made.append(self)
        return real(self)

    monkeypatch.setattr(RngStream, "generator", generator)
    return made


def stream_ids(streams):
    return sorted(s.stream_id for s in streams)


def handoff_at(monkeypatch, K):
    """Patch linear_compare's noise source so that its handoff comes at step K."""
    real, links = harness._noise_from_child, []

    def noise_from_child(child, *args):
        links.append(HandoffAt(child, K))
        return real(links[-1], *args)

    monkeypatch.setattr(harness, "_noise_from_child", noise_from_child)
    return links


@pytest.mark.usefixtures("hang_guard")
class TestNoiseHandoff:
    """Once linear_compare's child has sent its oracles, it draws the particle
    filter's noise for the steps this process has not reached and streams it
    here; the noise is the same whichever process draws it."""

    N = 300

    @pytest.fixture(scope="class")
    def record(self):
        model = LinearModel(F=[[-1.0]], f0=[0.0], sigma=[[1.0]], H=[[1.0]], h0=[0.0])
        sm = model.as_diffusion_model(InitialLaw.gaussian([0.0], [[1.0]]))
        om = model.as_observation_model()
        obs = simulate_observation(om, simulate_path(sm, 0.1, 1e-3, RngStream(5, 1)), RngStream(5, 2))
        return sm, om, obs

    @pytest.mark.parametrize("where", ["1", "n/2", "n-1", "never"])
    def test_resampling_every_step_keeps_its_bits(self, record, where, monkeypatch):
        # with resample_threshold near 1 almost every step resamples, so the
        # uniform the child draws after the increments is used
        sm, om, obs = record
        real_indices, resampled = filters._kernels.resample_indices, []

        def resample_indices(cw, u0, n_out):
            resampled.append(u0)
            return real_indices(cw, u0, n_out)

        monkeypatch.setattr(filters._kernels, "resample_indices", resample_indices)
        rng, n_steps = RngStream(5, 3), obs.times.size - 1
        K = {"1": 1, "n/2": n_steps // 2, "n-1": n_steps - 1, "never": None}[where]

        def particle(n_particles, noise=None):
            return run_particle_filter(
                sm, om, obs, n_particles, rng, resample_threshold=0.99999, noise=noise
            )

        made = counted_generators(monkeypatch)
        ref = particle(self.N)
        assert len(resampled) > 0.8 * n_steps
        assert made == [rng.substream(k) for k in range(n_steps + 1)]
        made.clear()
        links = []

        def work(child):
            links.append(HandoffAt(child, K))
            return particle(self.N, harness._noise_from_child(links[0], rng, obs.dt, n_steps + 1))

        oracle, est = _alongside(lambda emit: "oracles", work, {}, serve=harness._noise_frames)
        assert oracle == "oracles"
        assert links[0].items == (0 if K is None else n_steps - K)
        # this process makes every step's generator wherever the noise is drawn
        assert stream_ids(made) == stream_ids(rng.substream(k) for k in range(n_steps + 1))
        np.testing.assert_array_equal(est.ess, ref.ess)
        assert est.moments.keys() == ref.moments.keys()
        for name in ref.moments:
            np.testing.assert_array_equal(est.moments[name], ref.moments[name], err_msg=name)
        assert_no_child_left()

    def test_shipped_config_resampling_same_bytes_without_fork(self, tmp_path, monkeypatch):
        links, made = handoff_at(monkeypatch, 500), counted_generators(monkeypatch)
        forked = str(tmp_path / "forked")
        assert run_linear_compare(shipped_linear_config(forked, resample_threshold=0.999)).passed
        assert links[0].items == 1000 - 500
        forked_made = list(made)
        monkeypatch.undo()
        monkeypatch.delattr(os, "fork")
        made = counted_generators(monkeypatch)
        inline = str(tmp_path / "inline")
        run_linear_compare(shipped_linear_config(inline, resample_threshold=0.999))
        assert_same_data_files(forked, inline)
        assert stream_ids(forked_made) == stream_ids(made)

    @needs_proc_fd
    def test_child_not_asked_reads_eof_and_serves_nothing(self, tmp_path):
        served = tmp_path / "served"

        def serve(*args):
            served.touch()
            yield (np.zeros(1),)

        def slow_oracles(emit):
            time.sleep(0.05)
            return "oracles"

        before = open_fds()
        assert _alongside(slow_oracles, lambda child: "particle", {}, serve=serve) == (
            "oracles",
            "particle",
        )
        assert not served.exists()
        assert open_fds() == before
        assert_no_child_left()

    def test_exception_while_serving_raised_here(self):
        def serve(start):
            yield (np.full(2, float(start)),)
            raise LayerFailed(f"serving failed in {os.getpid()}")

        def work(child):
            wait_for_value(child)
            child.request(4)
            (values,) = child.item()
            assert list(values) == [4.0, 4.0]
            child.item()

        with pytest.raises(LayerFailed) as err:
            _alongside(lambda emit: None, work, {}, serve=serve)
        assert int(str(err.value).rsplit(" ", 1)[1]) != os.getpid()
        assert_no_child_left()

    def test_grid_failure_stops_the_particle_layer_early(self, tmp_out, tmp_path, monkeypatch):
        # a prior mean of 100 validates, but puts no mass on the grid [-6, 6]
        grid_pid = tmp_path / "grid_pid"
        real_grid, real_noise, steps = harness.run_grid_filter, harness._substream_noise, []

        def run_grid_filter(*args, **kwargs):
            grid_pid.write_text(str(os.getpid()))
            return real_grid(*args, **kwargs)

        def slow_noise(rng, shape, dt):
            draw = real_noise(rng, shape, dt)

            def counted(k):
                steps.append(k)
                time.sleep(0.002)  # 2 s for the 1000 steps, if none stopped them
                return draw(k)

            return counted

        monkeypatch.setattr(harness, "run_grid_filter", run_grid_filter)
        monkeypatch.setattr(harness, "_substream_noise", slow_noise)
        cfg = small_config("linear_compare", tmp_out, prior_mean=100.0, horizon=1.0)
        with pytest.raises(ValueError) as err:
            run_linear_compare(cfg)
        assert type(err.value) is ValueError
        assert str(err.value) == "cannot normalize a zero density"
        assert int(grid_pid.read_text()) != os.getpid()  # raised in the child
        assert 0 < len(steps) < 500
        assert_no_child_left()
        assert not os.path.exists(os.path.join(tmp_out, "report.csv"))

    @needs_proc_fd
    def test_collapse_after_the_handoff_writes_the_sequential_bytes(self, tmp_path, monkeypatch):
        for name in ("sequential", "forked"):
            monkeypatch.undo()
            if name == "sequential":
                monkeypatch.delattr(os, "fork")
            items = counted_items(monkeypatch)
            real_pf, real_source, children, attempts = (
                harness.run_particle_filter, harness._noise_from_child, [], [],
            )

            def noise_from_child(child, *args):
                children.append(child)
                return real_source(child, *args)

            def run_particle_filter(*args, noise, **kwargs):
                attempts.append(args[3])
                if len(attempts) > 1:
                    return real_pf(*args, noise=noise, **kwargs)
                if children[0] is not None:
                    wait_for_value(children[0])  # so the handoff comes at step 1
                real_pf(*args, noise=noise, **kwargs)
                raise EnsembleCollapseError("forced after the handoff")

            monkeypatch.setattr(harness, "_noise_from_child", noise_from_child)
            monkeypatch.setattr(harness, "run_particle_filter", run_particle_filter)
            before = open_fds()
            run_linear_compare(small_config("linear_compare", str(tmp_path / name)))
            assert open_fds() == before
            assert_no_child_left()
            assert attempts == [400, 4000]
            n_steps = round(SMALL["linear_compare"]["horizon"] / 1e-3)
            # the first attempt read all but step 1 from the child, the rerun none
            assert items == ([] if name == "sequential" else [(400, 1)] * (n_steps - 1)), name
        assert_same_data_files(str(tmp_path / "sequential"), str(tmp_path / "forked"))


@pytest.mark.usefixtures("hang_guard")
class TestTransport:
    """What the child sends: its items, its value with the runtime entries it
    recorded, or the exception it raised."""

    @needs_proc_fd
    def test_unpicklable_item_raised_here_with_its_type(self):
        def child_work(emit):
            emit(threading.Lock())
            return "never sent"

        def on_item(*item):
            raise AssertionError(f"unexpected item {item!r}")

        before = open_fds()
        with pytest.raises(TypeError, match="^cannot pickle '_thread.lock' object$"):
            _alongside(child_work, lambda child: "work", {}, on_item)
        assert open_fds() == before
        assert_no_child_left()

    def test_child_runtime_entries_merged_with_its_value(self):
        runtime = {"before": 1.0, "parent": 2.0}

        def child_work(emit):
            assert runtime == {}  # the child sends back only its own entries
            runtime["child"] = 3.0
            return "value"

        def work(child):
            runtime["parent"] = 4.0
            return "work"

        assert _alongside(child_work, work, runtime) == ("value", "work")
        assert runtime == {"before": 1.0, "parent": 4.0, "child": 3.0}
        assert_no_child_left()

    def test_poll_hands_items_over_without_waiting_for_the_value(self):
        go_r, go_w = os.pipe()
        got, polls = [], []

        def child_work(emit):
            for k in range(5):
                emit(k, f"item {k}")
            os.read(go_r, 1)  # works on until this process has seen every item
            return "value"

        def work(child):
            deadline = time.monotonic() + 60.0
            while len(got) < 5:
                assert time.monotonic() < deadline, "the items never arrived"
                polls.append(child.poll())
                time.sleep(0.001)
            polls.append(child.poll())
            os.write(go_w, b"x")
            wait_for_value(child)
            return "work"

        try:
            assert _alongside(child_work, work, {}, lambda *item: got.append(item)) == (
                "value",
                "work",
            )
        finally:
            os.close(go_r)
            os.close(go_w)
        assert got == [(k, f"item {k}") for k in range(5)]
        assert polls and not any(polls)
        assert_no_child_left()

    def test_value_larger_than_the_pipe_arrives_whole(self):
        def expected():
            return np.random.default_rng(3).standard_normal(3 << 17)  # 3 MiB

        def serve():  # never asked; given so that the data pipe is 1 MiB
            yield ()

        value, _ = _alongside(lambda emit: expected(), lambda child: None, {}, serve=serve)
        assert value.dtype == np.float64
        assert value.tobytes() == expected().tobytes()
        assert_no_child_left()

    @needs_proc_fd
    def test_child_exit_without_a_value_raises_child_process_error(self):
        pids = []
        before = open_fds()
        with pytest.raises(ChildProcessError) as err:
            _alongside(lambda emit: os._exit(0), lambda child: pids.append(child.pid), {})
        assert str(err.value) == f"forked child {pids[0]} ended without a result"
        assert open_fds() == before
        assert_no_child_left()

    @needs_proc_fd
    def test_child_killed_within_a_message_raises_child_process_error(self):
        pids = []

        def child_work(emit):
            emit(np.zeros(1 << 20))  # 8 MiB, more than the pipe holds
            return "never sent"

        def work(child):
            pids.append(child.pid)
            deadline = time.monotonic() + 60.0
            # more than the 4-byte length in the pipe: the item's body is
            # being written, and cannot fit, so the child is blocked in it
            while unread(child._data.fileno()) <= 4:
                assert time.monotonic() < deadline, "the item was never written"
                time.sleep(0.001)
            os.kill(child.pid, signal.SIGKILL)

        def on_item(*item):
            raise AssertionError("an item cut short was handed over")

        before = open_fds()
        with pytest.raises(ChildProcessError) as err:
            _alongside(child_work, work, {}, on_item)
        assert str(err.value) == f"forked child {pids[0]} ended without a result"
        assert open_fds() == before
        assert_no_child_left()


@pytest.mark.usefixtures("hang_guard")
class TestForkOnlyWhenSafe:
    """With another thread running, _alongside runs both layers here: a fork
    copies only the calling thread, so a lock another one holds would stay
    held in the child."""

    @pytest.mark.parametrize("scenario", ["linear_compare", "heston_demo"])
    def test_live_thread_runs_inline_with_the_same_bytes(self, scenario, tmp_path, monkeypatch):
        real_fork, forks = os.fork, []

        def counted_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        forked = str(tmp_path / "forked")
        RUNNERS[scenario](small_config(scenario, forked))
        assert len(forks) == 1

        def refuse():
            raise AssertionError("forked while another thread was running")

        monkeypatch.setattr(os, "fork", refuse)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            inline = str(tmp_path / "inline")
            report = RUNNERS[scenario](small_config(scenario, inline))
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert set(report.runtime) == TIMING_SPLITS[scenario]
        assert_same_data_files(forked, inline)
        assert_no_child_left()
