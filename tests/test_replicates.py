"""The drop ceilings of the one replicate loop behind bootstrap, envelopes and Monte Carlo."""

import dataclasses
import itertools

import numpy as np
import pytest

from cpbs import bootstrap_se, estimation, simulated_envelopes
from cpbs.exceptions import BootstrapFailureError, CpbsError
from cpbs.mc import McConfig, run_mc_study
from conftest import S5_TRUTH

N = 20  # replicates of each kind


def _bootstrap(data, fit):
    fit = dataclasses.replace(fit)
    bootstrap_se(data, "log", fit, B=N, seed=3, workers=1)
    assert fit.B == N
    return fit.boot_dropped, None


def _envelopes(data, fit):
    return simulated_envelopes(data, fit, m=N, seed=3, workers=1).n_dropped, None


def _mc(data, fit):
    report = run_mc_study(McConfig(q=3, n_k=25, theta_true=S5_TRUTH, reps=N, seed=21), workers=1)
    assert report.estimates.shape[0] == len(report.rep_ids)
    return report.n_failed, report.rep_ids


def _uncertify(monkeypatch, chosen):
    """Refits numbered in ``chosen`` (in call order) come back uncertified."""
    real, calls = estimation.em_fit, itertools.count()

    def em_fit(data, config=None):
        fit = real(data, config)
        if next(calls) in chosen:
            fit.converged = False
        return fit

    monkeypatch.setattr(estimation, "em_fit", em_fit)
    return calls


@pytest.mark.parametrize("over", [0, 1], ids=["at", "over"])
@pytest.mark.parametrize(
    "run,ceiling", [(_bootstrap, 2), (_envelopes, 2), (_mc, 1)], ids=["bootstrap", "envelopes", "mc"]
)
def test_drop_ceiling(monkeypatch, s5_small, s5_small_fit, run, ceiling, over):
    # 10% of the bootstrap and envelope replicates may drop, 5% of the MC ones
    chosen = set(range(1, 2 * (ceiling + over), 2))
    calls = _uncertify(monkeypatch, chosen)
    if over:
        with pytest.raises(BootstrapFailureError, match=f"{ceiling + 1}/{N} .* ceiling"):
            run(s5_small, s5_small_fit)
        assert issubclass(BootstrapFailureError, CpbsError)  # `cpbs mc` still exits 7
    else:
        dropped, rep_ids = run(s5_small, s5_small_fit)
        assert dropped == ceiling
        if rep_ids is not None:
            assert rep_ids.tolist() == [i for i in range(N) if i not in chosen]
    assert next(calls) == N  # every replicate was refitted through the one lookup


def test_replicates_keep_what_the_written_out_loop_gives(s5_small, s5_small_fit):
    # each replicate simulates counts at the fit, refits them from the fit and,
    # if the refit certifies, contributes what its caller keeps of it
    from cpbs import EmConfig, _util, em_fit, pearson_residuals
    from cpbs.simulate import simulate_responses

    params = s5_small_fit.params
    refits = []
    for ss in _util.replicate_seeds(3, N):
        sim = simulate_responses(s5_small, params, np.random.default_rng(ss))
        fit = em_fit(sim, EmConfig(init=params))
        if fit.converged:
            refits.append((sim, fit))
    sims = np.vstack([np.sort(pearson_residuals(sim, fit).r) for sim, fit in refits])
    bands = simulated_envelopes(s5_small, s5_small_fit, m=N, seed=3, workers=1)
    np.testing.assert_array_equal(bands.lo, np.percentile(sims, 2.5, axis=0))
    np.testing.assert_array_equal(bands.hi, np.percentile(sims, 97.5, axis=0))
    se = bootstrap_se(s5_small, "log", dataclasses.replace(s5_small_fit), B=N, seed=3, workers=1)
    np.testing.assert_array_equal(se, np.vstack([fit.params.as_array() for _, fit in refits]).std(axis=0, ddof=1))
