"""The compiled core and the numpy fallback must agree bit for bit, and the
kernels' column independence, which batching relies on, must hold on both."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksplab._kernels import BACKEND, backends, fd_substep, heston_paths, resample_indices
from ksplab._kernels import _numpy

needs_ext = pytest.mark.skipif(BACKEND != "cython", reason="extension not built")


def _pair():
    mods = backends()
    return mods["numpy"], mods["cython"]


@needs_ext
class TestBackendEquivalence:
    def test_heston_paths_bitwise(self):
        np_mod, cy_mod = _pair()
        rng = np.random.default_rng(0)
        x0 = rng.uniform(0.0, 0.2, 13)
        y0 = rng.normal(size=13)
        db = rng.normal(size=(400, 13)) * 0.01
        dw = rng.normal(size=(400, 13)) * 0.01
        for kwargs in (
            dict(dt=1e-4, kappa=2.0, m=0.04, gamma=0.3, mu=0.05),
            dict(dt=1e-3, kappa=0.0, m=0.0, gamma=0.0, mu=-0.1),
            dict(dt=1e-2, kappa=5.0, m=0.1, gamma=2.0, mu=0.0),  # hits truncation
        ):
            xa, ya = np_mod.heston_paths(x0, y0, db, dw, **kwargs)
            xb, yb = cy_mod.heston_paths(x0, y0, db, dw, **kwargs)
            assert np.array_equal(xa, xb)
            assert np.array_equal(ya, yb)

    def test_fd_substep_bitwise_composed(self):
        np_mod, cy_mod = _pair()
        rng = np.random.default_rng(1)
        p = rng.uniform(0.0, 1.0, 801)
        a = rng.normal(size=801)
        b = rng.uniform(0.5, 1.5, 801)
        pa, pb = p.copy(), p.copy()
        for _ in range(3000):
            pa = np_mod.fd_substep(pa, a, b, 8e-5, 0.015)
            pb = cy_mod.fd_substep(pb, a, b, 8e-5, 0.015)
        assert np.array_equal(pa, pb)

    def test_resample_indices_exact(self):
        np_mod, cy_mod = _pair()
        rng = np.random.default_rng(2)
        for n in (2, 3, 100, 10_000):
            w = rng.uniform(0.0, 1.0, n)
            cw = np.cumsum(w / w.sum())
            cw[-1] = 1.0
            for u0 in (0.0, 0.25, 0.999999):
                ia = np_mod.resample_indices(cw, u0, n)
                ib = cy_mod.resample_indices(cw, u0, n)
                assert np.array_equal(ia, ib)


class TestNumpyKernelSemantics:
    def test_fd_substep_conserves_sum(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.0, 1.0, 101)
        a = rng.normal(size=101)
        b = rng.uniform(0.5, 1.5, 101)
        out = _numpy.fd_substep(p, a, b, 1e-5, 0.1)
        assert abs(out.sum() - p.sum()) < 1e-12 * p.sum()

    def test_resample_matches_searchsorted_contract(self):
        cw = np.array([0.2, 0.5, 1.0])
        idx = _numpy.resample_indices(cw, 0.5, 5)
        # u = (0.1, 0.3, 0.5, 0.7, 0.9) -> atoms (0, 1, 1, 2, 2)
        assert idx.tolist() == [0, 1, 1, 2, 2]

    def test_heston_truncation_zeroes_negative_variance(self):
        x0 = np.array([-0.5])
        y0 = np.array([0.0])
        db = np.zeros((1, 1))
        dw = np.zeros((1, 1))
        x, y = _numpy.heston_paths(x0, y0, db, dw, 0.1, 1.0, 0.04, 0.3, 0.0)
        # truncated variance is 0: drift pulls toward m, Y drifts by mu dt
        assert x[1, 0] == pytest.approx(-0.5 + 0.1 * 0.04)
        assert y[1, 0] == 0.0


class TestHestonColumnBlocks:
    """Columns never interact: a batch of column blocks run side by side in one
    call equals the blocks run separately, bit for bit, on every backend."""

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
        for mod in backends().values():
            x, y = mod.heston_paths(x0, y0, db, dw, dt, kappa, m, gamma, mu)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                xb, yb = mod.heston_paths(
                    x0[lo:hi], y0[lo:hi], db[:, lo:hi], dw[:, lo:hi], dt, kappa, m, gamma, mu
                )
                assert np.array_equal(x[:, lo:hi], xb)
                assert np.array_equal(y[:, lo:hi], yb)
