"""The kernel properties callers rely on: column independence (batching),
conservation of the plain sum (the grid stepper), and sorted, in-range
systematic-resampling indices with copy counts within 1 of n w_i.  The
scalar column stepper of heston_paths, the in-place variance step and the
variance-only accumulating stepper must equal the array reference below bit
for bit, the accumulating stepper whatever slabs of rows it is fed, and a NaN
variance start propagates.  ``aligned_empty`` buffers start on a 64-byte
boundary and are independent, writable float64 arrays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksplab._kernels import (
    aligned_empty,
    fd_substep,
    fd_workspace,
    heston_paths,
    heston_variance_sum,
    resample_indices,
    variance_step,
)

from conftest import reference_fd_substep


def array_heston_paths(x0, y0, db, dw, dt, kappa, m, gamma, mu):
    """Reference: the full-truncation Euler step on whole rows of columns,
    as heston_paths stepped 24 columns or more before it became one column
    stepper."""
    steps, n = db.shape
    x = np.empty((steps + 1, n))
    y = np.empty((steps + 1, n))
    x[0] = x0
    y[0] = y0
    for k in range(steps):
        xp = np.maximum(x[k], 0.0)
        vol = np.sqrt(xp)
        x[k + 1] = x[k] + kappa * (m - xp) * dt + gamma * vol * db[k]
        y[k + 1] = y[k] + (mu - 0.5 * xp) * dt + vol * dw[k]
    return x, y


class TestNumpyKernelSemantics:
    def test_fd_substep_conserves_sum(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.0, 1.0, 101)
        a = rng.normal(size=101)
        b = rng.uniform(0.5, 1.5, 101)
        out = fd_substep(p, a, b, 1e-5, 0.1, np.empty(101), fd_workspace(101))
        assert abs(out.sum() - p.sum()) < 1e-12 * p.sum()

    def test_resample_matches_searchsorted_contract(self):
        cw = np.array([0.2, 0.5, 1.0])
        idx = resample_indices(cw, 0.5, 5)
        # u = (0.1, 0.3, 0.5, 0.7, 0.9) -> atoms (0, 1, 1, 2, 2)
        assert idx.tolist() == [0, 1, 1, 2, 2]

    def test_heston_truncation_zeroes_negative_variance(self):
        x0 = np.array([-0.5])
        y0 = np.array([0.0])
        db = np.zeros((1, 1))
        dw = np.zeros((1, 1))
        x, y = heston_paths(x0, y0, db, dw, 0.1, 1.0, 0.04, 0.3, 0.0)
        # truncated variance is 0: drift pulls toward m, Y drifts by mu dt
        assert x[1, 0] == pytest.approx(-0.5 + 0.1 * 0.04)
        assert y[1, 0] == 0.0

    @pytest.mark.parametrize("n", [2, 24])
    def test_nan_variance_start_propagates(self, n):
        # the truncation max(x, 0) keeps a NaN variance NaN: it is not mapped to 0
        x0 = np.full(n, 0.04)
        x0[0] = np.nan
        db, dw = _increments(9, 50, n, 1e-2)
        x, y = heston_paths(x0, np.zeros(n), db, dw, 1e-2, 2.0, 0.04, 0.3, 0.05)
        assert np.all(np.isnan(x[1:, 0])) and np.all(np.isnan(y[1:, 0]))
        assert np.all(np.isfinite(x[:, 1:])) and np.all(np.isfinite(y[:, 1:]))


class TestHestonColumnBlocks:
    """Columns never interact: a batch of column blocks run side by side in one
    call equals the blocks run separately, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        widths=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        steps=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        dt=st.floats(1e-4, 0.1),
        kappa=st.floats(0.0, 5.0),
        m=st.floats(0.0, 0.2),
        gamma=st.floats(0.0, 3.0),  # large gamma drives x below 0: truncation active
        mu=st.floats(-0.2, 0.2),
    )
    def test_side_by_side_blocks_equal_separate_calls(self, widths, steps, seed, dt, kappa, m, gamma, mu):
        rng = np.random.default_rng(seed)
        n = sum(widths)
        x0 = rng.uniform(-0.05, 0.2, n)
        y0 = rng.normal(size=n)
        db = rng.normal(size=(steps, n)) * np.sqrt(dt)
        dw = rng.normal(size=(steps, n)) * np.sqrt(dt)
        bounds = np.cumsum([0] + widths)
        x, y = heston_paths(x0, y0, db, dw, dt, kappa, m, gamma, mu)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            xb, yb = heston_paths(
                x0[lo:hi], y0[lo:hi], db[:, lo:hi], dw[:, lo:hi], dt, kappa, m, gamma, mu
            )
            assert np.array_equal(x[:, lo:hi], xb)
            assert np.array_equal(y[:, lo:hi], yb)


_START = st.one_of(st.just(-0.0), st.just(0.0), st.just(float("nan")), st.floats(-0.05, 0.2))
_HESTON_PARAMS = dict(
    steps=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    dt=st.floats(1e-4, 0.1),
    kappa=st.floats(0.0, 5.0),
    m=st.floats(0.0, 0.2),
    gamma=st.floats(0.0, 3.0),  # large gamma drives x below 0: truncation active
)


def _increments(seed, steps, n, dt):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(steps, n)) * np.sqrt(dt), rng.normal(size=(steps, n)) * np.sqrt(dt))


def _same_bits(a, b):
    """Equal values, NaN where the other has NaN, and the same sign on zeros."""
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


class TestNarrowHestonPath:
    """heston_paths steps each column as plain floats; at every width that
    equals the array reference bit for bit, including the truncation, a
    signed zero and a NaN start."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 48),
        starts=st.lists(_START, min_size=4, max_size=4),
        mu=st.floats(-0.2, 0.2),
        **_HESTON_PARAMS,
    )
    def test_scalar_path_equals_array_path(self, n, starts, mu, steps, seed, dt, kappa, m, gamma):
        db, dw = _increments(seed, steps, n, dt)
        rng = np.random.default_rng(seed + 1)
        x0 = rng.uniform(-0.05, 0.2, n)
        y0 = rng.normal(size=n)
        x0[: len(starts)] = starts[:n]
        y0[-1] = starts[0]
        args = (x0, y0, db, dw, dt, kappa, m, gamma, mu)
        x, y = heston_paths(*args)
        xa, ya = array_heston_paths(*args)
        assert _same_bits(x, xa)
        assert _same_bits(y, ya)

    def test_scalar_start_broadcasts(self):
        db, dw = _increments(5, 30, 3, 1e-2)
        x, y = heston_paths(0.04, 0.0, db, dw, 1e-2, 2.0, 0.04, 0.3, 0.05)
        xa, ya = heston_paths(np.full(3, 0.04), np.zeros(3), db, dw, 1e-2, 2.0, 0.04, 0.3, 0.05)
        assert np.array_equal(x, xa) and np.array_equal(y, ya)


class TestVarianceStep:
    """Each variance_step updates x in place to the array reference's next
    variance row, bit for bit, and leaves max(x, 0) of the pre-step x in xp."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 48),
        starts=st.lists(_START, min_size=4, max_size=4),
        **_HESTON_PARAMS,
    )
    def test_steps_equal_array_reference(self, n, starts, steps, seed, dt, kappa, m, gamma):
        db, _ = _increments(seed, steps, n, dt)
        x0 = np.random.default_rng(seed + 1).uniform(-0.05, 0.2, n)
        x0[: len(starts)] = starts[:n]
        xa, _ = array_heston_paths(x0, np.zeros(n), db, np.zeros_like(db), dt, kappa, m, gamma, 0.0)
        x = x0.copy()
        xp, drift, vol = np.empty(n), np.empty(n), np.empty(n)
        for k in range(steps):
            variance_step(x, db[k], dt, kappa, m, gamma, xp, drift, vol)
            assert _same_bits(x, xa[k + 1])
            assert _same_bits(xp, np.maximum(xa[k], 0.0))

    def test_nan_and_negative_zero_starts(self):
        x0 = np.array([np.nan, -0.0, 0.0, -0.01, 0.04])
        db = np.full((1, 5), 0.1)
        xa, _ = array_heston_paths(
            x0, np.zeros(5), db, np.zeros_like(db), 1e-2, 2.0, 0.04, 0.3, 0.0
        )
        x = x0.copy()
        xp, drift, vol = np.empty(5), np.empty(5), np.empty(5)
        variance_step(x, db[0], 1e-2, 2.0, 0.04, 0.3, xp, drift, vol)
        assert _same_bits(x, xa[1])
        assert np.isnan(x[0]) and np.isnan(xp[0])
        assert not np.any(np.signbit(xp[1:]))  # max(-0.0, 0.0) is +0.0


def summed_variance(x0, db_slabs, dt, kappa, m, gamma):
    """heston_variance_sum from x0 and acc = 0, called once per slab of rows."""
    x = np.array(x0, dtype=float)
    acc = np.zeros_like(x)
    scratch = [np.empty_like(x) for _ in range(3)]
    for db in db_slabs:
        heston_variance_sum(x, acc, db, dt, kappa, m, gamma, *scratch)
    return x, acc


class TestHestonVarianceSum:
    """heston_variance_sum is the per-column axis-0 sum of the truncated
    variance of heston_paths (run with mu = 0 and dw = 0), bit for bit, and
    carries its state across slabs of rows."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), starts=st.lists(_START, min_size=3, max_size=3), **_HESTON_PARAMS)
    def test_equals_summed_heston_paths(self, n, starts, steps, seed, dt, kappa, m, gamma):
        db, _ = _increments(seed, steps, n, dt)
        x0 = np.random.default_rng(seed + 1).uniform(-0.05, 0.2, n)
        x0[: len(starts)] = starts[:n]
        _, acc = summed_variance(x0, [db], dt, kappa, m, gamma)
        x, _ = heston_paths(x0, np.zeros(n), db, np.zeros_like(db), dt, kappa, m, gamma, 0.0)
        xp = np.maximum(x[:-1], 0.0)
        folded = np.zeros(n)
        for row in xp:  # step order
            folded += row
        assert _same_bits(acc, folded)
        if n >= 2:  # numpy sums a single column pairwise, not row by row
            assert _same_bits(acc, np.sum(xp, axis=0))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        starts=st.lists(_START, min_size=3, max_size=3),
        cuts=st.lists(st.integers(0, 60), max_size=6),
        **_HESTON_PARAMS,
    )
    def test_row_slabs_equal_one_call(self, n, starts, cuts, steps, seed, dt, kappa, m, gamma):
        # consecutive slabs of any sizes, empty ones included
        db, _ = _increments(seed, steps, n, dt)
        x0 = np.random.default_rng(seed + 1).uniform(-0.05, 0.2, n)
        x0[: len(starts)] = starts[:n]
        bounds = [0, *sorted(min(c, steps) for c in cuts), steps]
        slabs = [db[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        x_whole, acc_whole = summed_variance(x0, [db], dt, kappa, m, gamma)
        x_slabs, acc_slabs = summed_variance(x0, slabs, dt, kappa, m, gamma)
        assert _same_bits(acc_slabs, acc_whole)
        assert _same_bits(x_slabs, x_whole)


def _stencil_inputs(seed, n, a_scale, b_scale, cell, dt_frac):
    """Spiky nonnegative p with zeros; where the drift scale dwarfs the
    diffusion scale, the central flux pushes some outputs below zero."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, 1.0, n) * rng.integers(0, 2, n)
    a = rng.normal(size=n) * a_scale
    b = rng.uniform(0.0, 1.0, n) * b_scale
    dt = dt_frac * 0.4 * cell**2 / max(float(np.max(b)), 1e-12)
    return p, a, b, dt


class TestFdSubstepConservation:
    """The grid stepper floors and reweights after the stencil, so the stencil
    itself must conserve the plain sum, to within rounding."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(3, 300),
        seed=st.integers(0, 2**32 - 1),
        a_scale=st.floats(0.0, 20.0),
        b_scale=st.floats(0.0, 5.0),
        cell=st.floats(1e-3, 1.0),
        dt_frac=st.floats(0.0, 1.0),
    )
    def test_plain_sum_conserved(self, n, seed, a_scale, b_scale, cell, dt_frac):
        p, a, b, dt = _stencil_inputs(seed, n, a_scale, b_scale, cell, dt_frac)
        # rounding scale: every term that enters the sum
        scale = np.sum(p) + dt / cell * np.sum(np.abs(a * p) + np.abs(b * p) / cell)
        out = fd_substep(p, a, b, dt, cell, np.empty(n), fd_workspace(n))
        assert abs(np.sum(out) - np.sum(p)) <= 1e-13 * n * scale


class TestFdSubstepWorkspace:
    """The workspace stencil (zero-padded fluxes, caller-owned buffers) must
    equal the allocating reference bit for bit into a fresh ``out``, with
    ``out`` aliasing ``p``, and when one workspace serves many substeps."""

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(3, 300),
        seed=st.integers(0, 2**32 - 1),
        a_scale=st.floats(0.0, 50.0),
        b_scale=st.floats(0.0, 5.0),
        cell=st.floats(1e-3, 1.0),
        dt_frac=st.floats(0.0, 1.0),
    )
    def test_every_call_form_equals_reference(self, n, seed, a_scale, b_scale, cell, dt_frac):
        p, a, b, dt = _stencil_inputs(seed, n, a_scale, b_scale, cell, dt_frac)
        expected = reference_fd_substep(p, a, b, dt, cell)
        p_before = p.copy()
        work = fd_workspace(n)
        out = np.full(n, np.nan)
        assert fd_substep(p, a, b, dt, cell, out, work) is out
        assert _same_bits(out, expected)
        assert _same_bits(p, p_before)
        # the same workspace again, left dirty by the call above
        q = p.copy()
        assert fd_substep(q, a, b, dt, cell, q, work) is q
        assert _same_bits(q, expected)

    @pytest.mark.parametrize("n", [3, 4, 801])
    def test_outputs_below_zero(self, n):
        p = np.zeros(n)
        p[n // 2] = 1.0
        a = np.full(n, 40.0)
        b = np.full(n, 0.01)
        expected = reference_fd_substep(p, a, b, 1e-3, 0.1)
        assert np.any(expected < 0)
        q = p.copy()
        fd_substep(q, a, b, 1e-3, 0.1, out=q, work=fd_workspace(n))
        assert _same_bits(q, expected)

    @pytest.mark.parametrize("n", [3, 801])
    @pytest.mark.parametrize("a_scale", [0.0, 40.0])
    def test_one_workspace_many_substeps(self, n, a_scale):
        p, a, b, dt = _stencil_inputs(11, n, a_scale, 2.0, 0.05, 0.9)
        work = fd_workspace(n)
        q = p.copy()
        expected = p
        for _ in range(40):
            expected = reference_fd_substep(expected, a, b, dt, 0.05)
            fd_substep(q, a, b, dt, 0.05, out=q, work=work)
            assert _same_bits(q, expected)


class TestResampleIndicesProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=60),
        n_out=st.integers(1, 200),
        u0=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_sorted_in_range_and_counts_within_one(self, weights, n_out, u0):
        w = np.asarray(weights)
        if w.sum() == 0.0:
            w[0] = 1.0
        cw = np.cumsum(w / w.sum())
        cw[-1] = 1.0
        # the interval each atom owns on the cumulative scale
        owned = np.diff(cw, prepend=0.0)
        idx = resample_indices(cw, u0, n_out)
        assert idx.shape == (n_out,)
        assert np.all(np.diff(idx) >= 0)
        assert idx[0] >= 0 and idx[-1] < w.size
        # systematic resampling: each atom's copy count is within 1 of n w_i
        counts = np.bincount(idx, minlength=w.size)
        assert np.all(np.abs(counts - n_out * owned) <= 1.0 + 1e-9)


class TestAlignedEmpty:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 3000), q=st.integers(1, 5), kind=st.sampled_from(["n", "n1", "nq"]))
    def test_aligned_independent_writable_float64(self, n, q, kind):
        shape = {"n": (n,), "n1": (n, 1), "nq": (n, q)}[kind]
        buffers = [aligned_empty(shape) for _ in range(3)]
        for buf in buffers:
            assert buf.ctypes.data % 64 == 0
            assert buf.dtype == np.float64
            assert buf.shape == shape
            assert buf.flags.c_contiguous and buf.flags.writeable
        for i, buf in enumerate(buffers):
            buf.fill(float(i))
        for i, buf in enumerate(buffers):
            assert np.all(buf == float(i))
            for other in buffers[i + 1:]:
                assert not np.shares_memory(buf, other)
