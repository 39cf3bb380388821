import math

import numpy as np
import pytest

from cpbs import (
    Cluster,
    ClusteredDataset,
    EmConfig,
    ModelParams,
    PHI_FLOOR,
    bootstrap_se,
    conditional_moment,
    direct_ml_fit,
    em_fit,
    log_likelihood,
    m_step_beta,
    m_step_phi,
    posterior_moments,
    q_function,
    q_score_beta,
    q_score_phi,
    simulate_dataset,
)
from cpbs import estimation
from cpbs.estimation import ConditionalMoments, _louis_pass
from cpbs.exceptions import MStepConvergenceError, RankDeficiencyError
from conftest import S5_TRUTH, random_cluster, toy_dataset
from oracles import conditional_moment_quad

# frozen quadrature values for y=0, mu=1, phi=0.45
DELTA_Y0 = 0.9096017357077971
GAMMA_Y0 = 1.295163479556485


class TestConditionalMoment:
    def test_orders_beyond_two_match_quadrature(self):
        # the kernel serves s = -2..2; other orders come from the recurrence table
        rng = np.random.default_rng(20250403)
        for _ in range(4):
            y, mu, phi = random_cluster(rng)
            for s in (3, -3, 5, -4):
                got = conditional_moment(y, mu, phi, s)
                ref = conditional_moment_quad(y, mu, phi, s)
                assert got == pytest.approx(ref, rel=1e-8), (y, mu, phi, s)

    def test_s_zero_exactly_one(self):
        assert conditional_moment([3, 1], [0.5, 0.9], 0.7, 0) == 1.0

    def test_frozen_singleton_values(self):
        assert conditional_moment([0], [1.0], 0.45, 1) == pytest.approx(DELTA_Y0, rel=1e-10)
        assert conditional_moment([0], [1.0], 0.45, -1) == pytest.approx(GAMMA_Y0, rel=1e-10)

    def test_cauchy_schwarz_product(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            y, mu, phi = random_cluster(rng)
            d = conditional_moment(y, mu, phi, 1)
            g = conditional_moment(y, mu, phi, -1)
            assert d * g >= 1.0 - 1e-12

    def test_quadrature_battery(self):
        rng = np.random.default_rng(20250402)
        for _ in range(25):
            y, mu, phi = random_cluster(rng)
            for s in (1, -1, 2, -2):
                got = conditional_moment(y, mu, phi, s)
                ref = conditional_moment_quad(y, mu, phi, s)
                assert got == pytest.approx(ref, rel=1e-8), (y, mu, phi, s)


class TestQFunction:
    def test_beta_gradient_matches_analytic(self):
        rng = np.random.default_rng(23)
        data = toy_dataset(rng, q=4, n_k=10)
        for _ in range(5):
            beta = rng.normal(scale=0.5, size=2)
            phi = float(rng.uniform(0.2, 1.0))
            params = ModelParams(beta=beta, phi=phi)
            moments = posterior_moments(data, params)
            analytic = q_score_beta(data, params, moments.delta)
            fd = np.empty_like(beta)
            for i in range(beta.size):
                h = 1e-6 * (1.0 + abs(beta[i]))
                bp, bm = beta.copy(), beta.copy()
                bp[i] += h
                bm[i] -= h
                fd[i] = (
                    q_function(data, ModelParams(beta=bp, phi=phi), moments)
                    - q_function(data, ModelParams(beta=bm, phi=phi), moments)
                ) / (2 * h)
            np.testing.assert_allclose(analytic, fd, rtol=1e-6)

    def test_phi_score_negative_at_unit_moments(self):
        # with delta = gamma = 1 the dispersion score is negative for every
        # phi > 0, so the closed-form update lands on the floor
        moments = ConditionalMoments(delta=np.ones(4), gamma=np.ones(4))
        for phi in (0.01, 0.45, 3.0):
            assert q_score_phi(ModelParams(beta=np.zeros(1), phi=phi), moments) < 0.0
        assert m_step_phi(moments) == PHI_FLOOR


class TestMStepBeta:
    def test_unit_delta_reduces_to_poisson(self, s5_small):
        beta_pois = m_step_beta(s5_small, np.ones(s5_small.q), np.zeros(3))
        # Poisson score at the solution
        mu = np.exp(s5_small.X_stacked @ beta_pois)
        score = s5_small.X_stacked.T @ (s5_small.y_stacked - mu)
        assert np.max(np.abs(score)) <= 1e-8

    def test_intercept_only_closed_form(self):
        y = np.array([3, 0, 4, 2, 1])
        data = ClusteredDataset((Cluster(id="a", y=y, X=np.ones((5, 1))),))
        delta = np.array([1.7])
        beta = m_step_beta(data, delta, np.zeros(1))
        assert beta[0] == pytest.approx(math.log(y.sum() / (5 * 1.7)), rel=1e-12)

    def test_known_delta_zeroes_score(self):
        data = simulate_dataset(4, 80, S5_TRUTH, seed=2024)
        rng = np.random.default_rng(4)
        delta = rng.uniform(0.5, 2.0, size=4)
        beta = m_step_beta(data, delta, np.zeros(3))
        score = q_score_beta(data, ModelParams(beta=beta, phi=1.0), delta)
        assert np.max(np.abs(score)) <= 1e-8

    def test_rank_deficiency_raises(self):
        X = np.column_stack([np.ones(6), np.arange(6.0), np.arange(6.0)])
        data = ClusteredDataset((Cluster(id="a", y=np.arange(6), X=X),))
        with pytest.raises(RankDeficiencyError):
            m_step_beta(data, np.ones(1), np.zeros(3))


class TestMStepPhi:
    def test_unit_moments_floor(self):
        assert m_step_phi(ConditionalMoments(np.ones(3), np.ones(3))) == PHI_FLOOR

    def test_arithmetic_example(self):
        moments = ConditionalMoments(delta=np.full(6, 2.0), gamma=np.ones(6))
        assert m_step_phi(moments) == pytest.approx(1.0, rel=1e-14)

    def test_moments_below_the_cauchy_schwarz_bound_raise(self):
        # delta * gamma >= 1 for any posterior, so delta + gamma < 2 is a fault
        # upstream; the check is a raise, not an assert that python -O strips
        with pytest.raises(ValueError, match="delta \\+ gamma"):
            m_step_phi(ConditionalMoments(np.full(3, 0.5), np.full(3, 0.5)))


class TestEmFit:
    @pytest.mark.parametrize("bad", [{"epsilon": 0.0}, {"epsilon": math.inf}, {"epsilon": math.nan}, {"max_iter": 0},
                                     {"init": "moments"}])
    def test_config_rejects_bad_controls(self, bad):
        with pytest.raises(ValueError):
            EmConfig(**bad)

    def test_fixed_point_terminates_immediately(self, s5_small, s5_small_fit):
        refit = em_fit(s5_small, config=EmConfig(init=s5_small_fit.params))
        assert refit.converged
        assert refit.iterations == 1
        np.testing.assert_allclose(
            refit.params.as_array(), s5_small_fit.params.as_array(), atol=1e-7
        )

    def test_ascent_on_random_instances(self):
        rng = np.random.default_rng(31)
        for r in range(20):
            data = toy_dataset(rng, q=int(rng.integers(2, 5)), n_k=int(rng.integers(5, 25)))
            fit = em_fit(data, config=EmConfig(max_iter=300))
            d = np.diff(fit.loglik_trace)
            assert np.all(d >= -1e-10), r

    def test_nonconvergence_flag_preserves_trace(self, s5_small):
        fit = em_fit(s5_small, config=EmConfig(max_iter=3))
        assert not fit.converged
        assert fit.iterations == 3
        assert fit.loglik_trace.shape == (4,)
        assert fit.message != ""

    def test_score_small_at_tight_convergence(self):
        data = simulate_dataset(4, 40, S5_TRUTH, seed=77)
        fit = em_fit(data, config=EmConfig(epsilon=1e-12, max_iter=5000))
        assert fit.converged
        assert fit.params.phi > PHI_FLOOR * 10  # interior
        moments = posterior_moments(data, fit.params)
        score_b = q_score_beta(data, fit.params, moments.delta)
        score_p = q_score_phi(fit.params, moments)
        assert np.max(np.abs(score_b)) <= 1e-6
        assert abs(score_p) <= 1e-6

    def test_permutation_invariance_bit_for_bit(self):
        data = simulate_dataset(4, 25, S5_TRUTH, seed=303)
        fit = em_fit(data)

        # permute rows within each cluster
        rng = np.random.default_rng(1)
        shuffled = []
        for c in data.clusters:
            perm = rng.permutation(c.n)
            shuffled.append(Cluster(id=c.id, y=c.y[perm], X=c.X[perm]))
        fit_rows = em_fit(ClusteredDataset(tuple(shuffled)))

        # permute cluster order
        order = rng.permutation(data.q)
        fit_clusters = em_fit(ClusteredDataset(tuple(data.clusters[k] for k in order)))

        assert np.array_equal(fit.params.as_array(), fit_rows.params.as_array())
        assert np.array_equal(fit.params.as_array(), fit_clusters.params.as_array())
        assert fit.loglik == fit_rows.loglik == fit_clusters.loglik

    def test_permutation_invariance_bit_for_bit_many_clusters(self):
        data = simulate_dataset(1000, 5, S5_TRUTH, seed=1)
        rng = np.random.default_rng(2)
        shuffled = ClusteredDataset(tuple(
            Cluster(id=c.id, y=c.y[perm], X=c.X[perm])
            for c, perm in ((data.clusters[k], rng.permutation(data.clusters[k].n)) for k in rng.permutation(data.q))
        ))
        params = ModelParams(beta=np.array([3.1, -1.3, 0.7]), phi=0.4)
        a, b = _louis_pass(data, params), _louis_pass(shuffled, params)
        assert a.loglik == b.loglik
        assert np.array_equal(a.score, b.score) and np.array_equal(a.hessian, b.hessian)
        assert np.array_equal(a.delta, b.delta) and np.array_equal(a.gamma, b.gamma)
        fit, fit_shuffled = em_fit(data), em_fit(shuffled)
        assert np.array_equal(fit.params.as_array(), fit_shuffled.params.as_array())
        assert fit.loglik == fit_shuffled.loglik

    def test_estep_matches_public_moments(self, s5_small):
        params = ModelParams(beta=np.array([2.5, -1.0, 0.5]), phi=0.5)
        moments = posterior_moments(s5_small, params)
        cur = _louis_pass(s5_small, params)
        assert cur.loglik == log_likelihood(s5_small, params)
        order = np.array(s5_small.canonical.cluster_order)
        np.testing.assert_allclose(cur.delta, moments.delta[order], rtol=1e-12)
        np.testing.assert_allclose(cur.gamma, moments.gamma[order], rtol=1e-12)
        for k, c in enumerate(s5_small.clusters):
            mu = np.exp(c.X @ params.beta)
            assert moments.delta[k] == pytest.approx(
                conditional_moment(c.y, mu, params.phi, 1), rel=1e-10
            )
            assert moments.gamma[k] == pytest.approx(
                conditional_moment(c.y, mu, params.phi, -1), rel=1e-10
            )


def _sparse_dataset():
    """Singleton clusters, mostly zeros, plus four all-zero clusters of five rows."""
    rng = np.random.default_rng(5)
    X = np.column_stack([np.ones(60), rng.normal(size=60)])
    clusters = [Cluster(id=f"s{i:02d}", y=np.array([rng.poisson(0.4)]), X=X[i : i + 1]) for i in range(40)]
    clusters += [Cluster(id=f"z{i}", y=np.zeros(5, dtype=np.int64), X=X[40 + 5 * i : 45 + 5 * i]) for i in range(4)]
    return ClusteredDataset(tuple(clusters))


SCORE_CASES = {
    "paper_cell": (lambda: simulate_dataset(7, 300, S5_TRUTH, seed=1), [3.02, -1.26, 0.74, 0.5]),
    "heavy_totals": (
        lambda: simulate_dataset(7, 300, ModelParams(beta=np.array([5.0, -1.25, 0.75]), phi=0.45), seed=3),
        [5.01, -1.25, 0.75, 0.4],
    ),
    "singletons_and_zero_clusters": (_sparse_dataset, [-1.0, 0.3, 0.8]),
    "q1": (lambda: simulate_dataset(1, 50, S5_TRUTH, seed=2), [3.0, -1.2, 0.7, 0.45]),
    "phi_0.05": (lambda: simulate_dataset(7, 300, S5_TRUTH, seed=1), [3.0, -1.25, 0.75, 0.05]),
    "phi_0.01": (lambda: simulate_dataset(7, 300, S5_TRUTH, seed=1), [3.0, -1.25, 0.75, 0.01]),
}


class TestDirectMl:
    @pytest.mark.parametrize("case", sorted(SCORE_CASES))
    def test_exact_score_matches_central_differences(self, case):
        make, theta = SCORE_CASES[case]
        data = make()
        p = data.p
        z = np.array(theta[:p] + [math.log(theta[p])])

        def loglik(zz):
            return log_likelihood(data, ModelParams(beta=zz[:p], phi=math.exp(zz[p])))

        phi = math.exp(z[p])
        cur = _louis_pass(data, ModelParams(beta=z[:p], phi=phi))
        assert cur.loglik == loglik(z)
        # the exact score in (beta, phi), mapped to (beta, log phi) by the chain rule
        score = np.append(cur.score[:p], phi * cur.score[p])
        fd = np.empty_like(z)
        for i in range(z.size):
            h = 1e-5 * (1.0 + abs(z[i]))
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd[i] = (loglik(zp) - loglik(zm)) / (2 * h)
        np.testing.assert_allclose(score, fd, rtol=1e-6)

    def test_cross_method_agreement(self):
        # sized so the optimum is interior and well separated; boundary fits
        # are a parameterization mismatch between the two methods
        both = 0
        for seed in range(6):
            data = simulate_dataset(5, 150, S5_TRUTH, seed=8800 + seed)
            em = em_fit(data)
            direct = direct_ml_fit(data)
            if not (em.converged and direct.converged):
                continue
            both += 1
            np.testing.assert_allclose(
                em.params.as_array(), direct.params.as_array(), atol=1e-4
            )
        assert both >= 4

    def test_stops_uncertified_when_no_step_ascends(self, s5_small, monkeypatch):
        monkeypatch.setattr(estimation, "_try_step", lambda *args, **kwargs: iter(()))  # returns None at once
        for fit_fn in (direct_ml_fit, em_fit):
            fit = fit_fn(s5_small)
            assert not fit.converged and fit.iterations == 1
            assert fit.loglik_trace.shape == (2,) and fit.loglik_trace[0] == fit.loglik_trace[1]
            assert "every halving" in fit.message

    def test_maximized_loglik_beats_truth(self):
        for seed in (1, 2, 3):
            data = simulate_dataset(4, 60, S5_TRUTH, seed=100 + seed)
            fit = direct_ml_fit(data)
            assert fit.converged
            assert fit.loglik >= log_likelihood(data, S5_TRUTH) - 1e-6

    def test_univariate_pbs_sign_pattern(self):
        # singleton clusters reduce the model to the univariate mixed count
        # law; a fit on data generated from a typical survey-style coding
        # recovers the coefficient sign pattern
        truth = ModelParams(
            beta=np.array([-3.0, 0.49, 0.26, -0.36, 0.73]), phi=1.2
        )
        rng = np.random.default_rng(606)
        n = 1500
        X = np.column_stack([
            np.ones(n),
            rng.binomial(1, 0.5, n),
            rng.binomial(1, 0.2, n),
            rng.binomial(1, 0.7, n),
            rng.binomial(1, 0.15, n),
        ])
        from cpbs.simulate import sample_cluster

        clusters = tuple(
            Cluster(id=f"i{i:04d}", y=sample_cluster(np.exp(X[i] @ truth.beta), truth.phi, rng), X=X[i : i + 1])
            for i in range(n)
        )
        data = ClusteredDataset(clusters)
        fit = em_fit(data, config=EmConfig(epsilon=1e-6, max_iter=400))
        assert np.all(np.sign(fit.params.beta) == np.sign(truth.beta))
        assert fit.params.phi > 0.5  # strong dispersion is recovered as such


class TestBootstrapSe:
    def test_requires_converged_fit(self, s5_small):
        bad = em_fit(s5_small, config=EmConfig(max_iter=1))
        with pytest.raises(ValueError):
            bootstrap_se(s5_small, "log", bad, B=10, seed=0)

    def test_default_replications(self):
        import inspect

        assert inspect.signature(bootstrap_se).parameters["B"].default == 500

    def test_degenerate_generator_gives_tiny_ses(self):
        # intercept-only design, dispersion at the floor: replicates are
        # near-identical Poisson draws, so coefficient SEs collapse
        rng = np.random.default_rng(8)
        y = rng.poisson(50.0, size=400)
        clusters = tuple(
            Cluster(id=f"c{k}", y=y[k * 100 : (k + 1) * 100], X=np.ones((100, 1)))
            for k in range(4)
        )
        data = ClusteredDataset(clusters)
        fit = em_fit(data)
        assert fit.phi_at_floor
        se = bootstrap_se(data, "log", fit, B=30, seed=2)
        assert se[0] < 0.05
        assert se[1] < 0.01
        assert fit.B == 30 and fit.se is se

    def test_deterministic_and_worker_independent(self, s5_small, s5_small_fit):
        se1 = bootstrap_se(s5_small, "log", s5_small_fit, B=16, seed=42, workers=1)
        se2 = bootstrap_se(s5_small, "log", s5_small_fit, B=16, seed=42, workers=2)
        assert np.array_equal(se1, se2)

    def test_tracks_monte_carlo_spread_on_benchmark_design(self):
        # bootstrap SEs approximate the sampling spread of the estimator on
        # the benchmark design within a factor of 1.5 (reference spread from
        # a large repeated-simulation study)
        ref_spread = np.array([0.989, 0.263, 0.112, 0.183])
        data = simulate_dataset(7, 300, S5_TRUTH, seed=42)
        fit = em_fit(data)
        se = bootstrap_se(data, "log", fit, B=100, seed=3, workers=2)
        ratio = se / ref_spread
        assert np.all(ratio >= 1 / 1.5) and np.all(ratio <= 1.5)


class TestLouisHessian:
    @pytest.mark.parametrize("case", sorted(SCORE_CASES))
    def test_hessian_matches_central_differences(self, case):
        make, theta = SCORE_CASES[case]
        data = make()
        p = data.p
        t = np.array(theta, dtype=float)

        def score(tt):
            return _louis_pass(data, ModelParams(beta=tt[:p], phi=tt[p])).score

        hessian = _louis_pass(data, ModelParams(beta=t[:p], phi=t[p])).hessian
        fd = np.empty_like(hessian)
        for i in range(t.size):
            h = 1e-5 * (1.0 + abs(t[i])) if i < p else 1e-5 * t[p]
            tp, tm = t.copy(), t.copy()
            tp[i] += h
            tm[i] -= h
            fd[:, i] = (score(tp) - score(tm)) / (2 * h)
        assert np.max(np.abs(fd - hessian)) <= 1e-6 * np.max(np.abs(hessian))

    @pytest.mark.parametrize("case", ["paper_cell", "heavy_totals", "q1", "singletons_and_zero_clusters"])
    def test_small_phi_expansion_matches_the_moment_form(self, case, monkeypatch):
        # at phi^2 max_k M_k = 3e-3 both forms of the dispersion terms hold:
        # the moment form still resolves them, and the expansion's relative
        # error is about (phi^2 M_k)^2
        make, theta = SCORE_CASES[case]
        data = make()
        beta = np.array(theta[: data.p])
        m_max = float(np.max([np.exp(c.X @ beta).sum() for c in data.clusters]))
        params = ModelParams(beta=beta, phi=math.sqrt(3e-3 / m_max))
        forms = {}
        for name, rounding in (("series", np.inf), ("moments", 0.0)):
            monkeypatch.setattr(estimation, "_MOMENT_ROUNDING", rounding)
            forms[name] = _louis_pass(data, params)
        series, moments = forms["series"], forms["moments"]
        np.testing.assert_allclose(series.score, moments.score, rtol=1e-4)
        scale = np.abs(moments.hessian).max()
        np.testing.assert_allclose(series.hessian, moments.hessian, rtol=1e-3, atol=1e-3 * scale)


def _intercept_only_floor_dataset():
    """Four Poisson(50) clusters of 100 rows, intercept only: the MLE is at the floor."""
    rng = np.random.default_rng(8)
    y = rng.poisson(50.0, size=400)
    return ClusteredDataset(tuple(
        Cluster(id=f"c{k}", y=y[k * 100 : (k + 1) * 100], X=np.ones((100, 1))) for k in range(4)
    ))


HEAVY_TRUTH = ModelParams(beta=np.array([5.0, -1.25, 0.75]), phi=0.45)


class TestCertification:
    @pytest.mark.parametrize("q,n_k,truth,seed", [
        (7, 300, S5_TRUTH, 1), (7, 300, S5_TRUTH, 5), (7, 300, HEAVY_TRUTH, 3), (7, 300, HEAVY_TRUTH, 4),
        # no Newton step at the start: both fits take their fallback step
        (5, 150, S5_TRUTH, 8804),
    ], ids=["paper_1", "paper_5", "heavy_3", "heavy_4", "criterion4_8804"])
    def test_benchmark_datasets_certify_and_match_direct(self, q, n_k, truth, seed):
        data = simulate_dataset(q, n_k, truth, seed=seed)
        fit = em_fit(data)
        assert fit.converged and not fit.phi_at_floor
        assert fit.iterations <= 10
        cur = _louis_pass(data, fit.params)
        assert np.all(np.linalg.eigvalsh(cur.hessian) < 0.0)
        decrement = float(cur.score @ np.linalg.solve(-cur.hessian, cur.score))
        assert decrement <= EmConfig().epsilon
        direct = direct_ml_fit(data)
        assert direct.converged

        def z(f):
            return np.append(f.params.beta, math.log(f.params.phi))

        np.testing.assert_allclose(z(fit), z(direct), rtol=0, atol=1e-6)
        assert fit.loglik >= direct.loglik - 1e-9

    @pytest.mark.parametrize("seed,replicate", [(1, 13), (1, 19), (5, 12)])
    def test_em_takes_a_modified_newton_step_before_an_em_step(self, seed, replicate):
        # the name dates from the EM fallback the loop no longer has: these
        # refits now start with a modified Newton step and take no EM step.
        # envelope replicates (m = 20) of the paper cell where neither chart
        # gives a Newton step at the start; EM steps alone took 16, 24 and
        # 61 iterations to reach the region where Newton steps take over
        from cpbs import _util
        from cpbs.simulate import simulate_responses

        data = simulate_dataset(7, 300, S5_TRUTH, seed=seed)
        params = em_fit(data).params
        ss = _util.replicate_seeds(seed, 20)[replicate]
        sim = simulate_responses(data, params, np.random.default_rng(ss))
        config = EmConfig(init=params)
        fit = em_fit(sim, config)
        assert fit.converged and fit.iterations <= 8
        assert np.all(np.diff(fit.loglik_trace) >= 0.0)
        direct = direct_ml_fit(sim, config)
        assert np.array_equal(fit.params.as_array(), direct.params.as_array())
        assert fit.loglik == direct.loglik and fit.iterations == direct.iterations

    @pytest.mark.parametrize("fit_fn", [em_fit, direct_ml_fit], ids=["em", "direct"])
    @pytest.mark.parametrize("make", [_intercept_only_floor_dataset, lambda: simulate_dataset(1, 50, S5_TRUTH, seed=2)],
                             ids=["intercept_only", "q1_seed2"])
    def test_floor_fits_carry_the_kkt_certificate(self, make, fit_fn):
        data = make()
        fit = fit_fn(data)
        assert fit.converged and fit.phi_at_floor
        assert fit.params.phi == PHI_FLOOR
        assert "effectively Poisson" in fit.message
        cur = _louis_pass(data, fit.params)
        assert cur.score[-1] <= 0.0  # the likelihood does not rise with phi
        p = data.p
        hb = cur.hessian[:p, :p]
        assert np.all(np.linalg.eigvalsh(hb) < 0.0)
        assert float(cur.score[:p] @ np.linalg.solve(-hb, cur.score[:p])) <= EmConfig().epsilon
        # a refit started at the certified floor fit certifies at once
        refit = fit_fn(data, config=EmConfig(init=fit.params))
        assert refit.converged and refit.iterations == 1
        assert refit.params.phi == PHI_FLOOR

    def test_small_interior_dispersion_is_certified(self):
        # Poisson responses on the intercept-only design: about a quarter of
        # the replicates have an interior optimum at phi of 1e-3 to 2e-2,
        # where the likelihood is convex in phi below the optimum
        data = _intercept_only_floor_dataset()
        fit = em_fit(data)
        from cpbs.simulate import simulate_responses

        interior = 0
        for k in range(40):
            sim = simulate_responses(data, fit.params, np.random.default_rng(900 + k))
            refit = em_fit(sim, config=EmConfig(init=fit.params))
            assert refit.converged, k
            assert refit.iterations <= 12, k
            assert np.all(np.diff(refit.loglik_trace) >= -1e-10), k
            interior += not refit.phi_at_floor
        assert interior >= 5

    @pytest.mark.parametrize("phi,q,n_k,seed,replicate", [(0.45, 5, 15, 3, 8), (0.8, 5, 15, 6, 4)])
    def test_modified_newton_step_halved_to_rounding_rescues_refits(self, phi, q, n_k, seed, replicate):
        # bootstrap-style refits where no Newton step is taken at the start and
        # the modified Newton step, about a thousand units long in phi, first
        # rises after 12 and 11 halvings, more than _MAX_HALVINGS
        from cpbs import _util
        from cpbs.simulate import simulate_responses

        data = simulate_dataset(q, n_k, ModelParams(beta=np.array([1.0, -0.25, 0.75]), phi=phi), seed=seed)
        params = em_fit(data).params
        ss = _util.replicate_seeds(seed, 20)[replicate]
        sim = simulate_responses(data, params, np.random.default_rng(ss))
        config = EmConfig(init=params)
        fit, direct = em_fit(sim, config), direct_ml_fit(sim, config)
        assert fit.converged and fit.iterations <= 8
        assert np.all(np.diff(fit.loglik_trace) >= 0.0)
        assert np.array_equal(fit.params.as_array(), direct.params.as_array())
        assert fit.loglik == direct.loglik and fit.iterations == direct.iterations
        default = em_fit(sim)
        assert default.converged
        np.testing.assert_allclose(fit.params.as_array(), default.params.as_array(), rtol=0, atol=1e-6)
        assert fit.loglik == pytest.approx(default.loglik, abs=1e-9)


def _quasi_separated_replicate():
    """Replicate 9 of a bootstrap of a q=2, n_k=5 dataset, and that dataset."""
    from cpbs import _util
    from cpbs.simulate import simulate_responses

    data = simulate_dataset(2, 5, ModelParams(beta=np.array([1.0, -0.25, 0.75]), phi=0.2), seed=1)
    ss = _util.replicate_seeds(1, 20)[9]
    return simulate_responses(data, em_fit(data).params, np.random.default_rng(ss)), data


class TestQuasiSeparation:
    # the replicate's Poisson MLE does not exist: its means run to 0 along a
    # direction of beta (Santos Silva & Tenreyro 2010)

    @pytest.mark.parametrize("fit_fn", [em_fit, direct_ml_fit], ids=["em", "direct"])
    def test_poisson_glm_start_raises_an_m_step_error(self, fit_fn):
        sim, _ = _quasi_separated_replicate()
        with pytest.raises(MStepConvergenceError, match="underflow or overflow") as info:
            fit_fn(sim)
        assert info.value.beta_last is not None and np.abs(info.value.beta_last).max() > 100.0

    def test_refit_from_the_fit_ends_uncertified(self):
        sim, data = _quasi_separated_replicate()
        fit = em_fit(sim, EmConfig(init=em_fit(data).params))
        assert not fit.converged
        assert np.all(np.diff(fit.loglik_trace) >= 0.0)

    def test_bootstrap_drops_the_replicate(self):
        _, data = _quasi_separated_replicate()
        fit = em_fit(data)
        se = bootstrap_se(data, "log", fit, B=20, seed=1)
        assert np.all(np.isfinite(se)) and np.all(se > 0.0)
        assert fit.boot_dropped == 1 and fit.B == 20


class TestOneClusterInputChecks:
    """``conditional_moment`` refuses what ``cluster_log_pmf`` refuses."""

    @pytest.mark.parametrize("y, mu, message", [
        ([1.5], [1.0], "counts must be non-negative integers"),
        ([-1], [1.0], "counts must be non-negative integers"),
        ([1], [math.inf], "means must be positive and finite"),
        ([1], [math.nan], "means must be positive and finite"),
    ])
    def test_both_functions_raise(self, y, mu, message):
        from cpbs import cluster_log_pmf

        with pytest.raises(ValueError, match=message):
            cluster_log_pmf(y, mu, 0.5)
        for s in (1, 3, -1, 0):
            with pytest.raises(ValueError, match=message):
                conditional_moment(y, mu, 0.5, s)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, 0.0])
    def test_dispersion_must_be_positive_and_finite(self, phi):
        from cpbs import cluster_log_pmf

        with pytest.raises(ValueError, match="phi must be positive"):
            cluster_log_pmf([1, 2], [1.0, 2.0], phi)
        for s in (1, 3, 0):
            with pytest.raises(ValueError, match="phi must be positive"):
                conditional_moment([1, 2], [1.0, 2.0], phi, s)


class TestMStepBetaExits:
    def test_non_finite_start_carries_beta_init(self, s5_small):
        beta_init = np.array([1000.0, 0.0, 0.0])
        with pytest.raises(MStepConvergenceError, match="non-finite objective at beta_init") as info:
            m_step_beta(s5_small, np.ones(s5_small.q), beta_init)
        np.testing.assert_array_equal(info.value.beta_last, beta_init)

    def test_max_iter_exit_carries_a_restartable_iterate(self, s5_small):
        delta = np.ones(s5_small.q)
        with pytest.raises(MStepConvergenceError, match="did not converge in 1 iterations") as info:
            m_step_beta(s5_small, delta, np.zeros(3), max_iter=1)
        beta_last = info.value.beta_last
        assert beta_last.shape == (3,) and np.all(np.isfinite(beta_last))
        assert not np.array_equal(beta_last, np.zeros(3))  # one Newton step was taken
        np.testing.assert_allclose(m_step_beta(s5_small, delta, beta_last),
                                   m_step_beta(s5_small, delta, np.zeros(3)), rtol=1e-10)


def test_certified_fits_report_the_loglik_of_their_estimate():
    # the step taken after certification forms only the log-likelihood; it
    # must be the log-likelihood of the estimate returned, to the bit
    paper, heavy = np.array([3.0, -1.25, 0.75]), np.array([5.0, -1.25, 0.75])
    datasets = [simulate_dataset(7, 300, ModelParams(paper, 0.45), seed=s) for s in range(1, 9)]
    datasets.append(simulate_dataset(1000, 5, ModelParams(paper, 0.45), seed=1))
    datasets += [simulate_dataset(7, 300, ModelParams(heavy, 0.45), seed=s) for s in (3, 4, 5)]
    for data in datasets:
        fit = em_fit(data)
        assert fit.converged
        assert fit.loglik == log_likelihood(data, fit.params) == fit.loglik_trace[-1]
