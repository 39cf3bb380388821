import math

import numpy as np
import pytest
from scipy.stats import chi2

from cpbs import (
    ModelParams,
    bs_log_density,
    bs_mean,
    bs_variance,
    cluster_log_pmf,
    model_moments,
    sample_bs,
    sample_cluster,
    simulate_dataset,
)
from cpbs.data import PHI_FLOOR, ClusteredDataset
from cpbs.simulate import _SCALAR_ROWS, CovariateColumn, default_covariate_spec, generate_design, simulate_responses
from cpbs.exceptions import ConfigSchemaError
from oracles import bs_cdf_grid


class TestSampleBs:
    def test_moments_match_formulas(self):
        rng = np.random.default_rng(101)
        phi = 0.45
        t = sample_bs(phi, rng, size=1_000_000)
        se_mean = t.std(ddof=1) / math.sqrt(t.size)
        assert abs(t.mean() - bs_mean(phi)) <= 4 * se_mean
        v = t.var(ddof=1)
        centered = (t - t.mean()) ** 2
        se_var = centered.std(ddof=1) / math.sqrt(t.size)
        assert abs(v - bs_variance(phi)) <= 4 * se_var
        assert bs_mean(phi) == pytest.approx(1.10125)

    def test_kolmogorov_smirnov_vs_quadrature_cdf(self):
        rng = np.random.default_rng(55)
        phi = 0.45
        n = 100_000
        t = np.sort(sample_bs(phi, rng, size=n))
        grid, cdf = bs_cdf_grid(phi)
        F = np.interp(t, grid, cdf)
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - F), np.max(F - (i - 1) / n))
        crit_1pct = math.sqrt(-0.5 * math.log(0.005)) / math.sqrt(n)
        assert ks < crit_1pct

    def test_scalar_draw(self):
        rng = np.random.default_rng(0)
        t = sample_bs(0.3, rng)
        assert isinstance(t, float) and t > 0

    @pytest.mark.parametrize("phi", [1e-6, 0.45, 5.0, 40.0])
    def test_scalar_draws_equal_the_array_form_on_the_same_stream(self, phi):
        # every seeded dataset takes its T from the scalar form
        scalar_rng, array_rng = np.random.default_rng(11), np.random.default_rng(11)
        scalar = [sample_bs(phi, scalar_rng) for _ in range(2000)]
        assert np.array(scalar).tobytes() == sample_bs(phi, array_rng, size=2000).tobytes()

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_bs(0.0, np.random.default_rng(0))


class TestSampleCluster:
    def test_poisson_limit_chi_square(self):
        # dispersion at the floor: marginal counts are plain Poisson
        rng = np.random.default_rng(12)
        mu = 1.7
        draws = np.concatenate(
            [sample_cluster([mu], PHI_FLOOR, rng) for _ in range(100_000)]
        )
        kmax = 9
        obs = np.bincount(np.minimum(draws, kmax), minlength=kmax + 1)
        pk = np.array([math.exp(-mu) * mu**k / math.factorial(k) for k in range(kmax)])
        probs = np.append(pk, 1.0 - pk.sum())
        expected = probs * draws.size
        stat = float(np.sum((obs - expected) ** 2 / expected))
        assert stat < chi2.ppf(0.99, df=kmax)

    def test_within_cluster_covariance(self):
        rng = np.random.default_rng(13)
        mu = np.array([1.0, 2.0])
        phi = 0.6
        n = 1_000_000
        t = sample_bs(phi, rng, size=n)
        y1 = rng.poisson(mu[0] * t)
        y2 = rng.poisson(mu[1] * t)
        prod = (y1 - y1.mean()) * (y2 - y2.mean())
        cov = prod.mean()
        se = prod.std(ddof=1) / math.sqrt(n)
        _, _, cov_model = model_moments(mu[0], mu[1], phi)
        assert abs(cov - cov_model) <= 4 * se

    def test_pmf_cell_frequencies(self):
        rng = np.random.default_rng(14)
        mu = np.array([0.4, 0.7])
        phi = 0.5
        n = 200_000
        draws = np.array([sample_cluster(mu, phi, rng) for _ in range(n)])
        for cell in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]:
            p = math.exp(cluster_log_pmf(np.array(cell), mu, phi))
            freq = np.mean(np.all(draws == cell, axis=1))
            se = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 4 * se, cell


class TestDesignGeneration:
    def test_default_spec_columns(self):
        cols = default_covariate_spec()
        assert cols[0].kind == "normal" and cols[0].mean == 3.7 and cols[0].sd == 0.2
        assert cols[1].kind == "bernoulli" and cols[1].p == 0.45

    def test_deterministic_given_seed(self):
        params = ModelParams(beta=np.array([3.0, -1.25, 0.75]), phi=0.45)
        d1 = simulate_dataset(3, 10, params, seed=9)
        d2 = simulate_dataset(3, 10, params, seed=9)
        assert np.array_equal(d1.X_stacked, d2.X_stacked)
        assert np.array_equal(d1.y_stacked, d2.y_stacked)

    def test_shapes_and_intercept(self):
        rng = np.random.default_rng(1)
        data = generate_design(4, 25, rng)
        assert data.q == 4 and data.n == 100 and data.p == 3
        np.testing.assert_array_equal(data.X_stacked[:, 0], 1.0)
        x2 = data.X_stacked[:, 2]
        assert set(np.unique(x2)) <= {0.0, 1.0}

    def test_covariate_spec_validation(self):
        with pytest.raises(ConfigSchemaError):
            CovariateColumn("normal", mean=0.0, sd=-1.0)
        with pytest.raises(ConfigSchemaError):
            CovariateColumn("uniform", lo=0, hi=1)
        with pytest.raises(ConfigSchemaError):
            CovariateColumn("bernoulli", p=1.5)
        with pytest.raises(ConfigSchemaError):
            CovariateColumn("bernoulli", p=0.5, extra=1)

    def test_round_trip_dict(self):
        col = CovariateColumn("normal", mean=3.7, sd=0.2)
        assert CovariateColumn.from_dict(col.to_dict()).to_dict() == col.to_dict()


class TestSimulatedDatasets:
    def test_content_hash_is_pinned(self):
        # fit reports record this digest; a change here makes every stored
        # report fail check_matches against its own data
        data = simulate_dataset(5, 60, ModelParams(beta=np.array([3.0, -1.25, 0.75]), phi=0.45), seed=1205)
        assert data.content_hash() == "4187b6e42b20c168a4321cdfc3c17400443dc0977b19a1636cebd226db5e2164"

    @staticmethod
    def per_cluster_draws(design, truth, rng):
        # the draw order every seeded dataset depends on: per cluster, one
        # normal for T, then the cluster's Poisson counts by one array call
        want = []
        for c in design.clusters:
            half = 0.5 * truth.phi * rng.standard_normal()
            root = half + math.sqrt(half * half + 1.0)
            want.append(rng.poisson(np.exp(c.X @ truth.beta) * (root * root)))
        return np.concatenate(want)

    @pytest.mark.parametrize("q, n_k, seed", [
        (7, 300, 1), (1000, 5, 1), (5, 60, 1205), (1, 50, 2),
        (40, _SCALAR_ROWS, 3), (40, _SCALAR_ROWS + 1, 4), (300, 1, 5),
    ])
    def test_responses_match_per_cluster_draws(self, q, n_k, seed):
        truth = ModelParams(beta=np.array([3.0, -1.25, 0.75]), phi=0.45)
        design = generate_design(q, n_k, np.random.default_rng(seed))
        got = simulate_responses(design, truth, np.random.default_rng(seed + 1))
        want = self.per_cluster_draws(design, truth, np.random.default_rng(seed + 1))
        assert got.y_stacked.dtype == want.dtype
        assert np.array_equal(got.y_stacked, want)
        assert got.X_stacked is design.X_stacked and got.ids == design.ids

    def test_unequal_cluster_sizes_across_the_cut_off_keep_the_stream(self):
        # sizes on both sides of the scalar/array cut-off in one dataset, and
        # means of 20 to 400, so numpy's PTRS sampler (mean >= 10) runs
        sizes = [1, _SCALAR_ROWS, _SCALAR_ROWS + 1, 300, 2, _SCALAR_ROWS + 1, 1]
        rng = np.random.default_rng(12)
        X = np.column_stack([np.ones(sum(sizes)), rng.uniform(0.0, 3.0, sum(sizes))])
        design = ClusteredDataset.from_columns(
            [f"k{i}" for i in range(len(sizes))], np.zeros(sum(sizes), dtype=np.int64), X,
            np.concatenate([[0], np.cumsum(sizes)]),
        )
        truth = ModelParams(beta=np.array([3.0, 1.0]), phi=0.3)
        for seed in range(5):
            got = simulate_responses(design, truth, np.random.default_rng(seed))
            want = self.per_cluster_draws(design, truth, np.random.default_rng(seed))
            assert np.array_equal(got.y_stacked, want)
            rng = np.random.default_rng(seed)
            for c in design.clusters:
                mu = np.exp(c.X @ truth.beta)
                assert np.array_equal(sample_cluster(mu, truth.phi, rng), want[:c.n])
                want = want[c.n:]


@pytest.mark.parametrize("phi", [math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda phi: sample_bs(phi, np.random.default_rng(0)),
        lambda phi: sample_bs(phi, np.random.default_rng(0), size=3),
        lambda phi: sample_cluster([1.0, 2.0], phi, np.random.default_rng(0)),
        lambda phi: bs_log_density(1.0, phi),
    ],
    ids=["sample_bs", "sample_bs_array", "sample_cluster", "bs_log_density"],
)
def test_nan_and_infinite_dispersion_are_refused(call, phi):
    with pytest.raises(ValueError, match="phi must be positive and finite"):
        call(phi)
