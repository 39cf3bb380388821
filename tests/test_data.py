import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from cpbs import Cluster, ClusteredDataset, ModelParams, bootstrap_se, em_fit, simulate_dataset
from cpbs import data as data_module
from cpbs.mc import McConfig, run_mc_study
from cpbs.simulate import CovariateColumn
from conftest import S5_TRUTH

# an intercept and Bernoulli columns only: rows of one cluster share X, so the
# counts decide their canonical order
TIES_COVARIATES = [CovariateColumn("bernoulli", p=0.45), CovariateColumn("bernoulli", p=0.3)]
TIES_TRUTH = ModelParams(beta=np.array([1.0, 0.5, -0.7]), phi=0.6)


def lexsort_perm(data: ClusteredDataset) -> np.ndarray:
    """The canonical row order as one lexsort of all rows by (cluster by id, X, y)."""
    order = np.argsort(np.array(list(map(str, data.ids))), kind="stable")
    rank = np.empty(data.q, dtype=np.int64)
    rank[order] = np.arange(data.q)
    X = data.X_stacked
    return np.lexsort((data.y_stacked, *(X[:, j] for j in range(X.shape[1] - 1, -1, -1)), rank[data.cluster_index]))


def assert_same_canonical(a: ClusteredDataset, b: ClusteredDataset):
    ca, cb = a.canonical, b.canonical
    for field in ("y", "X", "perm", "starts", "sizes", "cluster_order", "y_tot", "lgamma"):
        x, y = getattr(ca, field), getattr(cb, field)
        assert x.dtype == y.dtype and x.shape == y.shape, field
        assert x.tobytes() == y.tobytes(), field


class TestCountChecks:
    @pytest.mark.parametrize("bad", [[1.5, 2.0], [0.9, 3.0], [1.0, np.inf], [np.nan, 1.0], [1e30, 1.0]])
    def test_non_integer_or_non_finite_counts_are_refused(self, bad):
        X = np.ones((2, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast warning before the error
            with pytest.raises(ValueError, match=r"^cluster 'a': counts must be finite integers$"):
                Cluster("a", bad, X)
            with pytest.raises(ValueError, match=r"^cluster 'b': counts must be finite integers$"):
                ClusteredDataset.from_columns(["a", "b"], [0, 1, *bad], np.ones((4, 1)), [0, 2, 4])
            data = ClusteredDataset.from_columns(["a", "b"], [0, 1, 2, 3], np.ones((4, 1)), [0, 2, 4])
            with pytest.raises(ValueError, match=r"^cluster 'b': counts must be finite integers$"):
                data.with_responses(np.array([0.0, 1.0, *bad]))

    def test_integer_valued_floats_are_accepted(self):
        c = Cluster("a", [1.0, 2.0, 0.0], np.ones((3, 1)))
        assert c.y.dtype == np.int64 and c.y.tolist() == [1, 2, 0]
        data = ClusteredDataset.from_columns(["a"], np.array([3.0, 4.0]), np.ones((2, 1)), [0, 2])
        assert data.y_stacked.dtype == np.int64 and data.y_stacked.tolist() == [3, 4]
        assert data.with_responses(np.array([5.0, 0.0])).y_stacked.tolist() == [5, 0]

    def test_negative_counts_still_name_the_cluster(self):
        with pytest.raises(ValueError, match=r"^cluster 'b': counts must be non-negative$"):
            ClusteredDataset.from_columns(["a", "b"], [0, 1, -1.0, 2], np.ones((4, 1)), [0, 2, 4])
        data = ClusteredDataset.from_columns(["a", "b"], [0, 1, 2, 3], np.ones((4, 1)), [0, 2, 4])
        with pytest.raises(ValueError, match=r"^cluster 'a': counts must be non-negative$"):
            data.with_responses(np.array([-1, 1, 2, 3]))


class TestSharedDesign:
    @pytest.mark.parametrize("q, n_k, seed", [(20, 30, 3), (200, 6, 4)])
    def test_replicate_canonical_matches_a_fresh_dataset_with_ties(self, q, n_k, seed):
        data = simulate_dataset(q, n_k, TIES_TRUTH, seed=seed, covariates=TIES_COVARIATES)
        assert data._design.groups is not None  # the counts break ties here
        for rep in range(3):
            y = np.random.default_rng([seed, rep]).poisson(3.0, size=data.n)
            replicate = data.with_responses(y)
            assert replicate._design is data._design
            fresh = ClusteredDataset.from_columns(data.ids, y, data.X_stacked, data.offsets)
            assert_same_canonical(replicate, fresh)
            assert np.array_equal(replicate.canonical.perm, lexsort_perm(fresh))

    def test_fits_on_a_tied_design_are_reorder_invariant(self):
        data = simulate_dataset(20, 30, TIES_TRUTH, seed=3, covariates=TIES_COVARIATES)
        replicate = data.with_responses(np.random.default_rng(9).poisson(np.exp(data.X_stacked @ TIES_TRUTH.beta)))
        rng = np.random.default_rng(10)
        shuffled = ClusteredDataset(tuple(
            Cluster(id=c.id, y=c.y[perm], X=c.X[perm])
            for c, perm in ((replicate.clusters[k], rng.permutation(replicate.clusters[k].n))
                            for k in rng.permutation(replicate.q))
        ))
        fresh = ClusteredDataset.from_columns(replicate.ids, replicate.y_stacked, data.X_stacked, data.offsets)
        fits = [em_fit(d) for d in (replicate, fresh, shuffled)]
        assert fits[0].converged
        for fit in fits[1:]:
            assert np.array_equal(fit.params.as_array(), fits[0].params.as_array())
            assert fit.loglik == fits[0].loglik

    def test_signed_zeros_in_a_tie_keep_their_rows(self):
        # -0.0 and 0.0 compare equal, so they tie; the canonical X must still
        # carry each row's own bits
        X = np.array([[1.0, 0.0], [1.0, -0.0], [1.0, 1.0], [1.0, -0.0]])
        for y in ([3, 1, 2, 0], [0, 1, 2, 3]):
            fresh = ClusteredDataset.from_columns(["a"], [0, 0, 0, 0], X, [0, 4]).with_responses(np.array(y))
            perm = lexsort_perm(fresh)
            assert np.array_equal(fresh.canonical.perm, perm)
            assert fresh.canonical.X.tobytes() == X[perm].tobytes()


class TestDesignWorkPerDesign:
    """Replicates share their design's sort and rank; only a new design builds them."""

    @pytest.fixture
    def counted(self, monkeypatch):
        counts = {"design": 0, "matrix_rank": 0}
        design_cls, matrix_rank = data_module._Design, np.linalg.matrix_rank

        class Counted(design_cls):
            def __init__(self, *args):
                counts["design"] += 1
                super().__init__(*args)

        def counted_rank(*args, **kwargs):
            counts["matrix_rank"] += 1
            return matrix_rank(*args, **kwargs)

        monkeypatch.setattr(data_module, "_Design", Counted)
        monkeypatch.setattr(np.linalg, "matrix_rank", counted_rank)
        return counts

    def test_bootstrap_replicates_build_no_design(self, counted):
        data = simulate_dataset(40, 5, S5_TRUTH, seed=7)
        fit = em_fit(data)
        assert counted == {"design": 1, "matrix_rank": 1}
        bootstrap_se(data, "log", fit, B=5, seed=1, workers=1)
        assert counted == {"design": 1, "matrix_rank": 1}

    def test_mc_study_builds_its_design_once(self, counted):
        report = run_mc_study(McConfig(q=40, n_k=5, theta_true=S5_TRUTH, reps=5, seed=3), workers=1)
        assert report.n_failed == 0
        assert counted == {"design": 1, "matrix_rank": 1}


class TestLogFactorial:
    def test_matches_mpmath_loggamma(self):
        ys = list(range(3001)) + [10**6, 2**40 - 1, 2**40]
        got = data_module._log_factorial(np.array(ys, dtype=np.int64))
        assert got.dtype == np.float64 and got.shape == (len(ys),)
        with mpmath.workdps(40):
            for y, v in zip(ys, got.tolist()):
                ref = mpmath.loggamma(y + 1)
                if ref == 0:
                    assert v == 0.0, y  # 0! = 1! = 1
                else:
                    assert abs(mpmath.mpf(v) / ref - 1) <= 1e-15, y

    def test_order_and_repeats_do_not_matter(self):
        y = np.array([7, 0, 7, 2**40, 1, 7, 0, 300])
        got = data_module._log_factorial(y)
        assert got.tolist() == [math.lgamma(v + 1.0) for v in y.tolist()]

    @pytest.mark.parametrize("q,n_k,seed", [(7, 300, 2), (1000, 5, 1), (20, 50, 3)])
    def test_canonical_lgamma_is_the_cluster_sum(self, q, n_k, seed):
        canon = simulate_dataset(q, n_k, S5_TRUTH, seed=seed).canonical
        bounds = np.append(canon.starts, canon.y.size).tolist()
        ref = [math.fsum(math.lgamma(v + 1.0) for v in canon.y[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
        # the sum runs in row order; it is within a few ulps of the exactly rounded sum
        np.testing.assert_allclose(canon.lgamma, ref, rtol=1e-15, atol=0)

    def test_a_huge_count_allocates_nothing_of_its_size(self):
        data = ClusteredDataset.from_columns(["a", "b"], [2**40, 3, 0, 2**40 - 5], np.ones((4, 1)), [0, 2, 4])
        tracemalloc.start()
        try:
            lgamma = data.canonical.lgamma
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        np.testing.assert_allclose(
            lgamma, [math.lgamma(2.0**40 + 1.0) + math.log(6.0), math.lgamma(2.0**40 - 4.0)], rtol=1e-15
        )
