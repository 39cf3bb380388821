import math

import numpy as np
import pytest
from scipy.integrate import quad

from cpbs import (
    Cluster,
    ClusteredDataset,
    ModelParams,
    bs_log_density,
    bs_mean,
    bs_variance,
    cluster_log_pmf,
    compute_mu,
    gcd_one_step,
    log_likelihood,
    model_moments,
    pearson_residuals,
    q_score_beta,
    simulate_dataset,
)
from cpbs.simulate import simulate_responses
from conftest import S5_TRUTH, random_cluster
from oracles import cluster_log_pmf_quad

# frozen quadrature values (see oracles.py for the integrals)
PBS_P0_MU1_PHI045 = 0.3691341184373275  # p(y=0 | mu=1, phi=0.45)


def make_data(X_by_cluster, y_by_cluster):
    clusters = tuple(
        Cluster(id=f"c{k}", y=np.asarray(y), X=np.asarray(X, dtype=float))
        for k, (X, y) in enumerate(zip(X_by_cluster, y_by_cluster))
    )
    return ClusteredDataset(clusters)


class TestComputeMu:
    def test_zero_coefficients_give_unit_means(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 3))
        data = make_data([X[:3], X[3:]], [[0, 1, 2], [3, 0, 1]])
        mu = compute_mu(data, ModelParams(beta=np.zeros(3), phi=1.0))
        np.testing.assert_allclose(mu, 1.0)

    def test_benchmark_design_value(self):
        # log link at x = (1, 3.7, 0) with the benchmark coefficients
        data = make_data([[[1.0, 3.7, 0.0]]], [[0]])
        mu = compute_mu(data, S5_TRUTH)
        assert mu[0] == pytest.approx(math.exp(3.0 - 1.25 * 3.7), rel=1e-14)
        assert mu[0] == pytest.approx(math.exp(-1.625), rel=1e-14)

    def test_column_scaling_invariance(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(8, 2))
        data = make_data([X], [np.zeros(8, dtype=int)])
        beta = np.array([0.4, -0.9])
        mu1 = compute_mu(data, ModelParams(beta=beta, phi=1.0))
        c = 3.7
        data2 = make_data([X * [1.0, c]], [np.zeros(8, dtype=int)])
        mu2 = compute_mu(data2, ModelParams(beta=beta / [1.0, c], phi=1.0))
        np.testing.assert_allclose(mu1, mu2, rtol=1e-12)

    def test_dimension_mismatch(self):
        data = make_data([[[1.0, 0.5]]], [[0]])
        with pytest.raises(ValueError):
            compute_mu(data, ModelParams(beta=np.zeros(3), phi=1.0))

    def test_nonfinite_predictor(self):
        data = make_data([[[1.0, 1e300]]], [[0]])
        with pytest.raises(ValueError):
            compute_mu(data, ModelParams(beta=np.array([0.0, 1e10]), phi=1.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "call",
        [
            lambda data, params: simulate_responses(data, params, np.random.default_rng(0)),
            pearson_residuals,
            lambda data, params: gcd_one_step(data, params, np.ones(data.q)),
            lambda data, params: q_score_beta(data, params, np.ones(data.q)),
        ],
        ids=["simulate_responses", "pearson_residuals", "gcd_one_step", "q_score_beta"],
    )
    def test_overflowing_means_raise_everywhere(self, call):
        # every user of the log-link means refuses them where exp(x'beta) overflows
        data = simulate_dataset(3, 4, ModelParams([1, 0.5, -0.3], 0.5), seed=1)
        with pytest.raises(ValueError, match="non-positive or non-finite means"):
            call(data, ModelParams(np.array([800.0, 0.0, 0.0]), 0.5))


class TestBsDensity:
    def test_value_at_one(self):
        # exponent vanishes at t=1, leaving -log(sqrt(2 pi) phi)
        for phi in (0.2, 0.45, 1.3):
            assert bs_log_density(1.0, phi) == pytest.approx(
                -math.log(math.sqrt(2 * math.pi) * phi), rel=1e-14
            )

    def test_normalizes(self):
        val, _ = quad(lambda t: math.exp(bs_log_density(t, 0.45)), 0, np.inf, limit=300)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_mean_matches_formula(self):
        val, _ = quad(lambda t: t * math.exp(bs_log_density(t, 0.45)), 0, np.inf, limit=300)
        assert val == pytest.approx(1.0 + 0.45**2 / 2.0, abs=1e-9)
        assert bs_mean(0.45) == 1.10125

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bs_log_density(-1.0, 0.45)
        with pytest.raises(ValueError):
            bs_log_density(1.0, 0.0)


class TestClusterLogPmf:
    def test_frozen_singleton_value(self):
        assert math.exp(cluster_log_pmf([0], [1.0], 0.45)) == pytest.approx(
            PBS_P0_MU1_PHI045, rel=1e-12
        )

    def test_pair_normalization(self):
        total = math.fsum(
            math.exp(cluster_log_pmf([y1, y2], [0.5, 0.8], 0.6))
            for y1 in range(61)
            for y2 in range(61)
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_exchangeability_exact(self):
        mu = (0.7, 1.9)
        a = cluster_log_pmf((2, 5), mu, 0.5)
        b = cluster_log_pmf((5, 2), mu[::-1], 0.5)
        assert a == b

    def test_quadrature_oracle_battery(self):
        rng = np.random.default_rng(20250401)
        for _ in range(30):
            y, mu, phi = random_cluster(rng)
            got = cluster_log_pmf(y, mu, phi)
            ref = cluster_log_pmf_quad(y, mu, phi)
            assert abs(math.exp(got - ref) - 1.0) <= 1e-8, (y, mu, phi)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cluster_log_pmf([1, 2], [0.5], 0.4)
        with pytest.raises(ValueError):
            cluster_log_pmf([-1], [0.5], 0.4)
        with pytest.raises(ValueError):
            cluster_log_pmf([1], [0.0], 0.4)
        with pytest.raises(ValueError):
            cluster_log_pmf([1], [0.5], -0.1)


class TestLogLikelihood:
    def test_single_cluster_equals_pmf(self):
        X = np.array([[1.0, 0.2], [1.0, -0.4], [1.0, 1.1]])
        y = [1, 0, 4]
        params = ModelParams(beta=np.array([0.1, 0.3]), phi=0.7)
        data = make_data([X], [y])
        mu = np.exp(X @ params.beta)
        assert log_likelihood(data, params) == pytest.approx(
            cluster_log_pmf(y, mu, params.phi), rel=1e-14
        )

    def test_independent_clusters_add(self):
        X1 = np.array([[1.0, 0.5]])
        X2 = np.array([[1.0, -0.3], [1.0, 0.9]])
        params = ModelParams(beta=np.array([0.2, 0.4]), phi=0.5)
        d12 = make_data([X1, X2], [[2], [0, 3]])
        d1 = make_data([X1], [[2]])
        d2 = make_data([X2], [[0, 3]])
        assert log_likelihood(d12, params) == pytest.approx(
            log_likelihood(d1, params) + log_likelihood(d2, params), rel=1e-14
        )

    def test_truth_beats_perturbation_usually(self):
        # consistency: at large n_k the likelihood at the truth dominates a
        # fixed offset of the coefficients in nearly every replication
        wins = 0
        reps = 100
        for r in range(reps):
            data = simulate_dataset(3, 120, S5_TRUTH, seed=5000 + r)
            perturbed = ModelParams(beta=S5_TRUTH.beta + 0.5, phi=S5_TRUTH.phi)
            if log_likelihood(data, S5_TRUTH) > log_likelihood(data, perturbed):
                wins += 1
        assert wins >= 95


class TestModelMoments:
    def test_poisson_limit(self):
        mean, var, cov = model_moments(2.0, 3.0, 1e-9)
        assert mean == pytest.approx(2.0, rel=1e-12)
        assert var == pytest.approx(2.0, rel=1e-8)
        assert cov == pytest.approx(0.0, abs=1e-12)

    def test_frozen_values(self):
        mean, var, cov = model_moments(2.0, 2.0, 0.45)
        assert mean == pytest.approx(2.2025, rel=1e-14)
        assert var == pytest.approx(2.2025 + 4 * 0.2025 * 1.253125, rel=1e-14)
        assert var == pytest.approx(3.21753125, rel=1e-14)

    def test_overdispersion_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            mu = float(rng.uniform(0.05, 8.0))
            phi = float(rng.uniform(0.01, 2.0))
            mean, var, cov = model_moments(mu, mu, phi)
            assert var - mean == pytest.approx(mu**2 * phi**2 * (1 + 1.25 * phi**2), rel=1e-12)
            assert var > mean
            assert cov >= 0.0

    def test_variance_helpers(self):
        assert bs_variance(0.45) == pytest.approx(0.2025 * 1.253125, rel=1e-14)


class TestNormalizationProperty:
    def test_truncated_sums_reach_one(self):
        # randomized small (mu, phi); cutoffs expanded until the target mass
        rng = np.random.default_rng(99)
        for _ in range(10):
            n_k = int(rng.integers(1, 4))
            mu = rng.uniform(0.05, 0.8, size=n_k)
            phi = float(rng.uniform(0.1, 0.9))
            cutoff = 30
            while True:
                grids = np.meshgrid(*[np.arange(cutoff + 1)] * n_k, indexing="ij")
                ys = np.stack([g.ravel() for g in grids], axis=1)
                total = math.fsum(math.exp(cluster_log_pmf(y, mu, phi)) for y in ys)
                if total >= 1.0 - 1e-6 or cutoff > 200:
                    break
                cutoff *= 2
            assert total == pytest.approx(1.0, abs=1e-6)
            assert total <= 1.0 + 1e-9
