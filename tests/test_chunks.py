"""Replicates refitted in lock-step get exactly the bits of ``em_fit`` alone.

The bootstrap, the envelopes and the Monte Carlo study refit their
replicates in chunks (``estimation._refit_replicates``), each chunk one
lock-step run of the fit loop whose Bessel passes and Louis assemblies are
evaluated for all its replicates at once; each replicate's Newton steps and
Poisson-start IRLS are plain calls of its own.  Neither the chunk size nor a
replicate's neighbours may change a bit of what it keeps.
"""

import numpy as np
import pytest

from cpbs import ClusteredDataset, EmConfig, ModelParams, _util, em_fit, estimation, model, simulate_dataset
from cpbs.data import _Replicates
from cpbs.diagnostics import _sorted_residuals
from cpbs.exceptions import CpbsError, MStepConvergenceError
from cpbs.simulate import simulate_responses
from conftest import S5_TRUTH
from test_data import TIES_COVARIATES, TIES_TRUTH
from test_estimation import _intercept_only_floor_dataset, _quasi_separated_replicate

N = 20  # replicates of each kind

KINDS = {"bootstrap": (estimation._theta, True), "envelopes": (_sorted_residuals, True),
         "mc": (estimation._theta, False)}


def refit_alone(data, params, seeds, keep, warm):
    """What each replicate keeps when it is refitted by ``em_fit`` on its own."""
    out = []
    for ss in seeds:
        sim = simulate_responses(data, params, np.random.default_rng(ss))
        try:
            fit = em_fit(sim, EmConfig(init=params) if warm else None)
        except CpbsError:
            out.append(None)
            continue
        out.append(keep(sim, fit) if fit.converged else None)
    return out


def assert_same_fit(got, want):
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
        return
    for field in ("loglik", "iterations", "converged", "method", "phi_at_floor", "message"):
        assert getattr(got, field) == getattr(want, field), field
    assert got.params.as_array().tobytes() == want.params.as_array().tobytes()
    assert got.loglik_trace.tobytes() == want.loglik_trace.tobytes()


def fit_alone(sim, config):
    try:
        return em_fit(sim, config)
    except CpbsError as e:
        return e


@pytest.fixture(scope="module")
def tied_small():
    """A design whose rows of a cluster share X, so that each replicate's counts decide their order."""
    data = simulate_dataset(5, 60, TIES_TRUTH, seed=1205, covariates=TIES_COVARIATES)
    assert data._design.groups is not None
    return data, em_fit(data)


@pytest.mark.parametrize("chunk", [1, 2, 3, estimation._CHUNK], ids=lambda c: f"chunk{c}")
@pytest.mark.parametrize("kind, tied", [(kind, tied) for tied in (False, True) for kind in sorted(KINDS)],
                         ids=[kind + tied for tied in ("", "-tied") for kind in sorted(KINDS)])
def test_each_replicate_keeps_the_bits_of_its_own_fit(monkeypatch, s5_small, s5_small_fit, tied_small, kind, tied,
                                                      chunk):
    keep, warm = KINDS[kind]
    data, fit, truth = (*tied_small, TIES_TRUTH) if tied else (s5_small, s5_small_fit, S5_TRUTH)
    params = fit.params if warm else truth
    seeds = _util.replicate_seeds(3, N)
    want = refit_alone(data, params, seeds, keep, warm)
    monkeypatch.setattr(estimation, "_CHUNK", chunk)
    got = estimation._refit_replicates(data, params, seeds, keep, warm, 1.0, "replicates", 1)
    assert len(got) == N and sum(g is None for g in got) == sum(w is None for w in want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            assert g.tobytes() == w.tobytes()


def test_a_chunk_holds_as_many_replicates_as_its_row_budget_allows(monkeypatch, s5_small, s5_small_fit):
    chunks = []
    real = estimation._fit_chunk

    def fit_chunk(sims, config):
        chunks.append(len(sims))
        return real(sims, config)

    monkeypatch.setattr(estimation, "_fit_chunk", fit_chunk)
    monkeypatch.setattr(estimation, "_CHUNK_ROWS", 2 * s5_small.n)
    estimation._refit_replicates(s5_small, s5_small_fit.params, _util.replicate_seeds(3, 5), estimation._theta,
                                 True, 1.0, "replicates", 1)
    assert chunks == [2, 2, 1]


def counting(monkeypatch, name):
    """Count the calls of ``estimation.<name>``, which the fit loop looks up at each use."""
    calls, real = [], getattr(estimation, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(estimation, name, counted)
    return calls


def assert_chunk_matches_alone(sims, config):
    fits = estimation._fit_chunk(sims, config)
    for sim, fit in zip(sims, fits):
        assert_same_fit(fit, fit_alone(sim, config))
    return fits


@pytest.mark.parametrize("seed", [1, 5])
def test_replicates_that_start_with_a_modified_newton_step(monkeypatch, seed):
    # envelope replicates 13 and 19 of paper seed 1, and 12 of seed 5, start
    # where neither chart gives a Newton step
    data = simulate_dataset(7, 300, S5_TRUTH, seed=seed)
    params = em_fit(data).params
    sims = [simulate_responses(data, params, np.random.default_rng(ss)) for ss in _util.replicate_seeds(seed, 20)]
    modified = counting(monkeypatch, "_modified_newton_step")
    fits = assert_chunk_matches_alone(sims, EmConfig(init=params))
    assert all(fit.converged for fit in fits)
    assert len(modified) >= 2  # in the chunk, and again alone


@pytest.mark.parametrize("phi,seed", [(0.45, 3), (0.8, 6)])
def test_replicates_whose_modified_step_is_halved_to_rounding(monkeypatch, phi, seed):
    data = simulate_dataset(5, 15, ModelParams(beta=np.array([1.0, -0.25, 0.75]), phi=phi), seed=seed)
    params = em_fit(data).params
    sims = [simulate_responses(data, params, np.random.default_rng(ss)) for ss in _util.replicate_seeds(seed, 20)]
    modified = counting(monkeypatch, "_modified_newton_step")
    for config in (EmConfig(init=params), None):
        assert_chunk_matches_alone(sims, config)
    assert modified


def test_replicates_at_the_floor_and_in_the_psi_chart(monkeypatch):
    # Poisson responses on an intercept-only design with tied rows: some
    # refits certify at the floor by the KKT condition, others at a small
    # interior phi through the chart in phi^2
    data = _intercept_only_floor_dataset()
    assert data._design.groups is not None
    params = em_fit(data).params
    sims = [simulate_responses(data, params, np.random.default_rng(900 + k)) for k in range(12)]
    psi = counting(monkeypatch, "_psi_chart")
    fits = assert_chunk_matches_alone(sims, EmConfig(init=params))
    assert psi
    assert any(fit.converged and fit.phi_at_floor for fit in fits)
    assert any(fit.converged and not fit.phi_at_floor for fit in fits)
    floor_fit = em_fit(data)
    assert floor_fit.phi_at_floor
    assert_chunk_matches_alone([data, sims[0]], EmConfig(init=floor_fit.params))


def test_a_replicate_whose_start_raises_and_one_that_does_not_certify():
    sim, data = _quasi_separated_replicate()
    params = em_fit(data).params
    sims = [simulate_responses(data, params, np.random.default_rng(ss)) for ss in _util.replicate_seeds(1, 20)]
    assert sims[9].y_stacked.tobytes() == sim.y_stacked.tobytes()
    cold = assert_chunk_matches_alone(sims, None)
    assert isinstance(cold[9], MStepConvergenceError)
    warm = assert_chunk_matches_alone(sims, EmConfig(init=params))
    assert not warm[9].converged


def test_stacked_passes_give_each_dataset_its_own_bits(monkeypatch):
    # datasets of one design side by side, each at its own parameters, in
    # groups split by the stacking budget and with one dataset over a block
    data = simulate_dataset(7, 30, S5_TRUTH, seed=4)
    sims = [simulate_responses(data, S5_TRUTH, np.random.default_rng(s)) for s in range(9)]
    sims[4] = data.with_responses(sims[4].y_stacked * 40)  # far more terms than the others
    rng = np.random.default_rng(1)
    params = [ModelParams(S5_TRUTH.beta + rng.normal(0.0, 0.05, 3), float(rng.uniform(0.01, 2.0))) for _ in sims]
    monkeypatch.setattr(model, "_STACK_TERMS", 800)
    monkeypatch.setattr(model, "_BLOCK_TERMS", 2000)
    reps = _Replicates(sims)
    for rows in ([0, 1, 2, 3, 4, 5, 6, 7, 8], [1, 2, 4, 7], [0, 8], [4]):
        passes = model._cluster_passes(reps, rows, [params[r] for r in rows])
        louis = estimation._louis_passes(reps, rows, [("louis", params[r], out) for r, out in zip(rows, passes)])
        for r, out, got in zip(rows, passes, louis):
            fresh = ClusteredDataset.from_columns(data.ids, sims[r].y_stacked.copy(), data.X_stacked.copy(),
                                                  data.offsets.copy())
            want = estimation._louis_pass(fresh, params[r])
            assert out[0] == want.loglik == got.loglik
            for field in ("score", "hessian", "delta", "gamma"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), (r, field)
    assert sims[4].canonical.kernel.terms is None  # evaluated alone, block by block


def test_newton_step_is_none_exactly_where_the_hessian_is_not_negative_definite():
    rng = np.random.default_rng(2)
    free = np.ones(4, dtype=bool)
    for k in range(7):
        a = rng.normal(size=(4, 4))
        h = -(a @ a.T + 4.0 * np.eye(4))
        if k in (2, 5):
            h[0, 0] = 10.0  # not negative definite
        g = rng.normal(size=4)
        newton = estimation._newton_step(g, h, free)
        assert (newton is None) == (k in (2, 5))
        if newton is not None:
            step, decrement = newton
            np.testing.assert_allclose(-h @ step, g, rtol=1e-12, atol=1e-12)
            assert decrement == g @ step
