import math

import numpy as np
import pytest
import scipy.linalg

from ksplab import (
    DistributionVector,
    RateMatrix,
    ReducibleChainError,
    TransitionKernel,
    evolve_kernel,
    generator_from_rates,
    master_rhs,
    rate_matrix_from_triplets,
    stationary_distribution,
    taylor_kernel_check,
)


def two_state(lam, mu):
    return RateMatrix(rates=np.array([[0.0, lam], [mu, 0.0]]))


def three_cycle():
    return rate_matrix_from_triplets([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])


class TestGenerator:
    def test_symmetric_two_state(self):
        G = generator_from_rates(two_state(1.0, 1.0))
        assert np.array_equal(G, np.array([[-1.0, 1.0], [1.0, -1.0]]))

    def test_rows_sum_to_zero_exactly(self):
        rng = np.random.default_rng(3)
        W = RateMatrix(rates=rng.uniform(0, 5, size=(6, 6)))
        G = generator_from_rates(W)
        # diagonal set to the negated off-diagonal sum: row sums vanish
        for i in range(6):
            off = np.delete(G[i], i).sum()
            assert G[i, i] == -off

    def test_three_cycle_structure(self):
        G = generator_from_rates(three_cycle())
        assert np.array_equal(np.diag(G), [-1.0, -1.0, -1.0])
        assert np.count_nonzero(G > 0) == 3

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            RateMatrix(rates=np.array([[0.0, -1.0], [1.0, 0.0]]))


class TestEvolveKernel:
    def test_zero_lag_identity(self):
        G = generator_from_rates(two_state(1.0, 1.0))
        assert np.max(np.abs(evolve_kernel(G, 0.0).Q - np.eye(2))) < 1e-14

    def test_two_state_closed_form(self):
        # Q(1->1) = (1 + exp(-2 tau)) / 2 for unit symmetric rates
        G = generator_from_rates(two_state(1.0, 1.0))
        Q = evolve_kernel(G, 0.5).Q
        assert abs(Q[0, 0] - 0.5 * (1 + math.exp(-1.0))) < 1e-12

    def test_chapman_kolmogorov(self):
        G = generator_from_rates(rate_matrix_from_triplets(
            [(0, 1, 1.2), (1, 0, 0.4), (1, 2, 2.0), (2, 0, 0.7)]
        ))
        Qa = evolve_kernel(G, 0.3).Q
        Qb = evolve_kernel(G, 0.7).Q
        Qab = evolve_kernel(G, 1.0).Q
        assert np.max(np.abs(Qab - Qb @ Qa)) < 1e-10

    def test_semigroup_over_lag_grid(self):
        G = generator_from_rates(two_state(1.0, 3.0))
        for ta in (0.1, 0.5, 1.5):
            for tb in (0.2, 0.9):
                err = np.max(np.abs(evolve_kernel(G, ta + tb).Q - evolve_kernel(G, tb).Q @ evolve_kernel(G, ta).Q))
                assert err < 1e-10

    @pytest.mark.parametrize("tau", [0.0, 0.05, 1.0, 7.5])
    @pytest.mark.parametrize("W", [
        two_state(1.0, 3.0),
        three_cycle(),
        rate_matrix_from_triplets([(0, 1, 1.2), (1, 0, 0.4), (1, 2, 2.0), (2, 0, 0.7)]),
        RateMatrix(rates=np.random.default_rng(5).uniform(0, 5, size=(6, 6))),
    ], ids=["two_state", "three_cycle", "sparse3", "dense6"])
    def test_bits_equal_scipy_expm(self, W, tau):
        G = generator_from_rates(W)
        assert np.array_equal(evolve_kernel(G, tau).Q, scipy.linalg.expm(tau * G))

    def test_row_stochastic_validation(self):
        with pytest.raises(ValueError):
            TransitionKernel(Q=np.array([[0.9, 0.2], [0.3, 0.7]]))


class TestMasterRhs:
    def test_stationary_point(self):
        W = two_state(1.0, 3.0)
        pi = stationary_distribution(W)
        assert np.max(np.abs(master_rhs(W, pi))) < 1e-12

    def test_hand_evaluated_two_state(self):
        W = two_state(1.0, 2.0)
        out = master_rhs(W, DistributionVector(p=np.array([1.0, 0.0])))
        assert np.array_equal(out, np.array([-1.0, 1.0]))

    def test_components_sum_to_zero(self):
        rng = np.random.default_rng(5)
        W = RateMatrix(rates=rng.uniform(0, 2, size=(5, 5)))
        for _ in range(5):
            p = rng.dirichlet(np.ones(5))
            p = p / p.sum()
            out = master_rhs(W, DistributionVector(p=p))
            assert abs(out.sum()) < 1e-12

    def test_matches_generator_product(self):
        W = two_state(1.3, 0.2)
        G = generator_from_rates(W)
        p = np.array([0.25, 0.75])
        assert np.max(np.abs(master_rhs(W, DistributionVector(p=p)) - p @ G)) < 1e-15


class TestStationaryDistribution:
    def test_symmetric_uniform(self):
        W = RateMatrix(rates=np.array(
            [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
        ))
        pi = stationary_distribution(W)
        assert np.max(np.abs(pi.p - 1.0 / 3.0)) < 1e-12

    def test_detailed_balance_two_state(self):
        pi = stationary_distribution(two_state(1.0, 3.0))
        assert np.max(np.abs(pi.p - np.array([0.75, 0.25]))) < 1e-12

    def test_cycle_uniform(self):
        pi = stationary_distribution(three_cycle())
        assert np.max(np.abs(pi.p - 1.0 / 3.0)) < 1e-12

    def test_reducible_chain_names_state(self):
        W = rate_matrix_from_triplets([(0, 1, 1.0), (1, 0, 1.0), (1, 2, 0.0), (2, 1, 0.0)])
        with pytest.raises(ReducibleChainError) as err:
            stationary_distribution(W)
        assert "state 2" in str(err.value)

    def test_fixed_point_of_kernel(self):
        W = two_state(0.7, 2.2)
        pi = stationary_distribution(W)
        G = generator_from_rates(W)
        for tau in (0.1, 1.0, 10.0):
            assert np.max(np.abs(pi.p @ evolve_kernel(G, tau).Q - pi.p)) < 1e-10


class TestOdeConservation:
    def test_probability_conserved_over_long_run(self):
        # 1e4 Euler steps: nonnegative after a 1e-14 floor, sum drift < 1e-10
        W = rate_matrix_from_triplets(
            [(0, 1, 1.0), (1, 0, 3.0), (1, 2, 0.5), (2, 0, 0.8)]
        )
        G = generator_from_rates(W)
        p = np.array([1.0, 0.0, 0.0])
        dtau = 1e-4
        for _ in range(10_000):
            p = p + (p @ G) * dtau
            assert p.min() > -1e-14
            p = np.maximum(p, 0.0)
        assert abs(p.sum() - 1.0) < 1e-10

    def test_ode_route_agrees_with_kernel_route(self):
        # evolving by the ODE and by p Q_tau agree to O(dtau)
        W = two_state(1.0, 3.0)
        G = generator_from_rates(W)
        tau, n = 1.0, 10_000
        dtau = tau / n
        p = np.array([1.0, 0.0])
        for _ in range(n):
            p = p + (p @ G) * dtau
        kernel_route = np.array([1.0, 0.0]) @ evolve_kernel(G, tau).Q
        assert np.max(np.abs(p - kernel_route)) < 5 * dtau


class TestTaylorKernelCheck:
    def test_first_order_convergence(self):
        report = taylor_kernel_check(two_state(1.0, 1.0), [1e-1, 1e-2, 1e-3])
        # error contracts ~10x per decade
        assert report.errors[0] / report.errors[1] > 5
        assert report.errors[1] / report.errors[2] > 5
        assert abs(report.slope - 1.0) <= 0.15

    def test_zero_rates_exact(self):
        W = RateMatrix(rates=np.zeros((3, 3)))
        report = taylor_kernel_check(W, [1e-1, 1e-2])
        assert np.max(report.errors) < 1e-14
        assert math.isnan(report.slope)

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            taylor_kernel_check(two_state(1.0, 1.0), [1e-3, 1e-2])
        with pytest.raises(ValueError):
            taylor_kernel_check(two_state(1.0, 1.0), [0.1, 0.0])


class TestTripletsRoundTrip:
    def test_from_triplets(self):
        W = rate_matrix_from_triplets([(0, 1, 2.0), (2, 0, 0.5)])
        assert W.n_states == 3
        assert W.rates[0, 1] == 2.0
        assert W.rates[2, 0] == 0.5

    def test_whole_float_indices_accepted(self):
        W = rate_matrix_from_triplets([(0.0, 1.0, 2.0), (np.int64(1), np.float64(0.0), 0.5)])
        assert W.rates.tolist() == [[0.0, 2.0], [0.5, 0.0]]

    @pytest.mark.parametrize(
        "triplets",
        [
            [(-1, 0, 2.0), (0, 1, 1.0)],
            [(0.7, 1, 2.0)],
            [(0, 1.5, 2.0)],
            [(0, 1, 2.0), (1, float("nan"), 1.0)],
            [("a", 0, 1.0)],
            [(0, 1)],
            [(0, 1, 2.0, 3.0)],
            [(0, 1, None)],
            [5],
        ],
    )
    def test_malformed_rows_rejected(self, triplets):
        with pytest.raises(ValueError, match="rate entry"):
            rate_matrix_from_triplets(triplets)

    def test_diagonal_entries_ignored(self):
        W = rate_matrix_from_triplets([(0, 0, 9.0), (0, 1, 1.0), (1, 0, 1.0)])
        assert W.rates[0, 0] == 0.0
