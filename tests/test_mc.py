import json

import numpy as np
import pytest

from cpbs import ModelParams
from cpbs.exceptions import ConfigSchemaError
from cpbs.mc import McConfig, run_mc_study
from conftest import S5_TRUTH


def small_config(**kw):
    base = dict(q=3, n_k=25, theta_true=S5_TRUTH, reps=6, seed=21)
    base.update(kw)
    return McConfig(**base)


class TestMcConfig:
    def test_validation(self):
        with pytest.raises(ConfigSchemaError):
            small_config(q=0)
        with pytest.raises(ConfigSchemaError):
            small_config(reps=0)
        with pytest.raises(ConfigSchemaError):
            McConfig(q=2, n_k=5, theta_true=ModelParams(beta=np.zeros(5), phi=0.3))
        with pytest.raises(ConfigSchemaError):
            small_config(link="identity")

    def test_param_names(self):
        assert small_config().param_names == ["beta0", "beta1", "beta2", "phi"]


class TestRunMcStudy:
    def test_single_rep_rmse_is_absolute_error(self):
        rep = run_mc_study(small_config(reps=1))
        assert rep.estimates.shape[0] == 1
        np.testing.assert_allclose(
            rep.rmse, np.abs(rep.estimates[0] - S5_TRUTH.as_array()), rtol=1e-12
        )

    def test_rmse_dominates_bias(self):
        rep = run_mc_study(small_config(reps=8))
        bias = np.abs(rep.mean - S5_TRUTH.as_array())
        assert np.all(rep.rmse >= bias - 1e-12)

    def test_deterministic_and_worker_independent(self):
        r1 = run_mc_study(small_config(), workers=1)
        r2 = run_mc_study(small_config(), workers=2)
        assert np.array_equal(r1.estimates, r2.estimates)
        assert np.array_equal(r1.mean, r2.mean)

    def test_fixed_covariates_across_study(self):
        # regenerating with the same seed reproduces the design exactly
        from cpbs.simulate import generate_design

        cfg = small_config()
        ss = np.random.SeedSequence(cfg.seed)
        d_seed = ss.spawn(cfg.reps + 1)[0]
        X1 = generate_design(cfg.q, cfg.n_k, np.random.default_rng(d_seed)).X_stacked
        X2 = generate_design(cfg.q, cfg.n_k, np.random.default_rng(d_seed)).X_stacked
        assert np.array_equal(X1, X2)

    def test_report_serializes(self):
        rep = run_mc_study(small_config())
        d = rep.to_dict()
        text = json.dumps(d)
        back = json.loads(text)
        assert back["design"]["q"] == 3
        assert len(back["parameters"]) == 4
        assert back["n_used"] + back["n_failed"] == 6

    def test_rmse_shrinks_with_more_clusters(self):
        # reduced replications; at most one non-monotone coordinate pair
        rmse = []
        for q in (2, 5, 7):
            rep = run_mc_study(
                McConfig(q=q, n_k=60, theta_true=S5_TRUTH, reps=120, seed=303), workers=2
            )
            rmse.append(rep.rmse[:3])
        rmse = np.array(rmse)
        violations = int(np.sum(~(rmse[1:] <= rmse[:-1] + 1e-12)))
        assert violations <= 1


class TestWorkers:
    def test_env_var_default(self, monkeypatch):
        from cpbs._util import effective_workers

        monkeypatch.delenv("CPBS_WORKERS", raising=False)
        assert effective_workers() == 1
        monkeypatch.setenv("CPBS_WORKERS", "3")
        assert effective_workers() == 3
        assert effective_workers(2) == 2
        monkeypatch.setenv("CPBS_WORKERS", "junk")
        assert effective_workers() == 1
