"""The vectorized Bessel kernel against two oracles.

``bessel.log_bessel_k_half_scaled_table`` builds each cluster's brackets by
the forward recurrence, one order at a time; mpmath sums the finite series
exactly at 60 digits.  The kernel evaluates every cluster at once, so the
property test calls it on arrays of clusters.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpbs.bessel import log_bessel_k_half_scaled_table
from cpbs.data import PHI_FLOOR, ClusteredDataset, ModelParams
from cpbs import model, simulate_dataset
from cpbs.estimation import _louis_pass
from cpbs.model import _log_brackets

EPS = np.finfo(float).eps


def _c_and_omega(mu, phi):
    phi2 = phi * phi
    return math.log1p(2.0 * phi2 * mu), math.sqrt(1.0 + 2.0 * phi2 * mu) / phi2


def table_brackets(y, mu, phi):
    """B(s), s = -2..2, from the recurrence table, and the largest |log K~| it read."""
    log_c, omega = _c_and_omega(mu, phi)
    table = log_bessel_k_half_scaled_table(y + 2, omega)
    out = []
    for t in range(y - 2, y + 3):
        hi = table[abs(2 * t + 1) // 2] - 0.5 * (t + 0.5) * log_c
        lo = table[abs(2 * t - 1) // 2] - 0.5 * (t - 0.5) * log_c
        out.append(float(np.logaddexp(hi, lo)))
    return np.array(out), float(np.max(np.abs(table)))


def exact_brackets(y, mu, phi):
    """B(s), s = -2..2, from the finite series summed in 60-digit arithmetic."""
    with mp.workdps(60):
        phi2 = mp.mpf(phi) ** 2
        c = 1 + 2 * phi2 * mp.mpf(mu)
        x = mp.sqrt(c) / phi2
        k_tilde = {}
        for m in {abs(2 * t + 1) // 2 for t in range(y - 3, y + 3)}:
            term = total = mp.mpf(1)
            for i in range(1, m + 1):
                term *= mp.mpf((m + i) * (m - i + 1)) / (2 * x * i)
                total += term
            k_tilde[m] = mp.sqrt(mp.pi / (2 * x)) * total
        out = []
        for t in range(y - 2, y + 3):
            hi = k_tilde[abs(2 * t + 1) // 2] * c ** (-(t + mp.mpf(0.5)) / 2)
            lo = k_tilde[abs(2 * t - 1) // 2] * c ** (-(t - mp.mpf(0.5)) / 2)
            out.append(mp.log(hi + lo))
        return float(out[2]), np.array([float(v - out[2]) for v in out])


def bracket_scale(b0, y, mu, phi, log_k_max):
    """Size of the parts B(0) is summed from: log K~ and y log(c) / 2.

    B(0) can sit near 0 where those parts cancel, so its error is measured
    relative to them, not to B(0) itself.
    """
    return max(1.0, abs(b0), log_k_max, 0.5 * y * _c_and_omega(mu, phi)[0])


clusters = st.tuples(
    st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 5000)),
    st.floats(-3.0, 4.0).map(lambda e: 10.0**e),
    st.floats(math.log(PHI_FLOOR), math.log(5.0)).map(math.exp),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(clusters, min_size=1, max_size=4), st.sampled_from([0, 1, 2]))
def test_brackets_match_the_recurrence_table(batch, low):
    # at y_tot 0, 1 and 2 the anchor sits at order 1/2 and the negative shifts reflect
    batch[0] = (low,) + batch[0][1:]
    phi = batch[0][2]
    y = np.array([b[0] for b in batch])
    mu = np.array([b[1] for b in batch])
    b0, logm = _log_brackets(y, mu, phi)
    for k in range(len(batch)):
        want, log_k_max = table_brackets(int(y[k]), float(mu[k]), phi)
        scale = bracket_scale(want[2], int(y[k]), float(mu[k]), phi, log_k_max)
        assert abs(b0[k] - want[2]) <= 1e-12 * scale
        # the table's entries are rounded to eps |log K~| each, and the
        # recurrence's own moments are no closer than that
        rel = np.abs(np.expm1(logm[k] - (want - want[2])))
        assert np.all(rel[[0, 1, 3, 4]] <= 1e-11 + 4.0 * EPS * log_k_max), (batch[k], rel)
        assert logm[k, 2] == 0.0


SPOT_CHECKS = [
    (0, 1e-3, PHI_FLOOR),
    (1, 1e4, 5.0),
    (2, 1.0, 0.45),
    (3, 1e4, 1e-3),
    (140, 34.0, 0.013),
    (564, 10.45, 0.0053),
    (1000, 1e-3, 0.01),
    (2000, 800.0, 0.45),
    (4475, 4.84, 0.000979),
    (4999, 10.0, 0.45),
    (5000, 1e-3, 5.0),
    (5000, 1e4, PHI_FLOOR),
]


@pytest.mark.parametrize("y, mu, phi", SPOT_CHECKS)
def test_brackets_match_the_exact_series(y, mu, phi):
    b0, logm = _log_brackets(np.array([y]), np.array([mu]), phi)
    want_b0, want_logm = exact_brackets(y, mu, phi)
    log_k_max = table_brackets(y, mu, phi)[1]
    assert abs(b0[0] - want_b0) <= 1e-13 * bracket_scale(want_b0, y, mu, phi, log_k_max)
    np.testing.assert_allclose(np.exp(logm[0]), np.exp(want_logm), rtol=1e-13, atol=0.0)


def test_clusters_do_not_interact():
    # a cluster's values are the same alone and among others, in any position
    y = np.array([0, 4000, 3, 17, 2500, 1])
    mu = np.array([0.2, 3000.0, 1e-3, 9.0, 7.5, 1e4])
    b0, logm = _log_brackets(y, mu, 0.3)
    for k in range(y.size):
        alone_b0, alone_logm = _log_brackets(y[k : k + 1], mu[k : k + 1], 0.3)
        assert alone_b0[0] == pytest.approx(b0[k], rel=1e-15, abs=1e-13)
        np.testing.assert_allclose(alone_logm[0], logm[k], rtol=1e-14, atol=1e-15)


def test_blocks_of_clusters_match_one_pass(monkeypatch):
    # blocks far smaller than the clusters, and one cluster larger than a block
    y = np.array([0, 40, 3, 170, 25, 1, 90, 2, 300])
    mu = np.linspace(0.5, 80.0, y.size)
    b0, logm = _log_brackets(y, mu, 0.2)
    monkeypatch.setattr(model, "_BLOCK_TERMS", 64)
    blocked_b0, blocked_logm = _log_brackets(y, mu, 0.2)
    np.testing.assert_allclose(blocked_b0, b0, rtol=1e-14, atol=1e-13)
    np.testing.assert_allclose(blocked_logm, logm, rtol=1e-14, atol=1e-15)


PAPER_BETA = np.array([3.0, -1.25, 0.75])
THETA_GRID = [(PAPER_BETA + db, phi) for db in (0.0, 0.1, -0.2) for phi in (PHI_FLOOR, 0.01, 0.45, 3.0)]


def fresh_copy(data):
    return ClusteredDataset.from_columns(data.ids, data.y_stacked.copy(), data.X_stacked.copy(), data.offsets.copy())


def assert_same_pass(a, b):
    assert a.loglik == b.loglik
    for field in ("score", "hessian", "delta", "gamma"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


def assert_passes_repeat(data):
    """Each pass over ``data``, whose layout is built once, equals the pass over a fresh copy."""
    for beta, phi in THETA_GRID:
        params = ModelParams(beta, phi)
        first, second = _louis_pass(data, params), _louis_pass(data, params)
        assert_same_pass(first, second)
        assert_same_pass(first, _louis_pass(fresh_copy(data), params))


@pytest.mark.parametrize(
    "q, n_k, beta0, seed",
    [(7, 300, 3.0, 1), (1000, 5, 3.0, 1), (7, 300, 5.0, 3)],
    ids=["paper_cell", "many_clusters", "heavy_totals"],
)
def test_a_pass_repeats_bit_for_bit(q, n_k, beta0, seed):
    truth = ModelParams(np.array([beta0, -1.25, 0.75]), 0.45)
    data = simulate_dataset(q, n_k, truth, seed=seed)
    layout = data.canonical.kernel
    assert layout.terms is not None  # within one block: the terms are kept
    assert_passes_repeat(data)
    assert data.canonical.kernel is layout


def test_a_pass_over_many_blocks_repeats_bit_for_bit(monkeypatch):
    monkeypatch.setattr(model, "_BLOCK_TERMS", 64)
    data = simulate_dataset(7, 20, ModelParams(np.array([5.0, -1.25, 0.75]), 0.45), seed=1)
    layout = data.canonical.kernel
    # over one block, no per-term array is kept between passes
    assert layout.terms is None and len(layout.cuts) > 1
    assert_passes_repeat(data)


def test_a_replicate_with_other_totals_gets_its_own_layout():
    data = simulate_dataset(7, 30, ModelParams(PAPER_BETA, 0.45), seed=2)
    _louis_pass(data, ModelParams(PAPER_BETA, 0.45))  # the dataset's layout, built and used
    layout = data.canonical.kernel
    replicate = data.with_responses(data.y_stacked[::-1].copy())
    assert replicate._design is data._design
    assert not np.array_equal(replicate.canonical.y_tot, data.canonical.y_tot)
    assert_passes_repeat(replicate)
    assert replicate.canonical.kernel is not layout and data.canonical.kernel is layout
    np.testing.assert_array_equal(replicate.canonical.kernel.lo, np.maximum(replicate.canonical.y_tot - 3, 0))
    # the layout depends on the counts, so the design the replicates share holds none
    assert not any(isinstance(v, model._KernelLayout) for v in vars(data._design).values())


def rows_of_totals(R):
    """R rows of 8 cluster totals: each row holds 0, 1, 2 and 3, which read
    reflected orders, and the last row's terms fall one short of a block."""
    rng = np.random.default_rng(R)
    y_tot = rng.integers(4, 300, size=(R, 8))
    y_tot[:, [1, 3, 4, 6]] = [0, 1, 2, 3]
    y_tot[-1, -1] = 0
    y_tot[-1, -1] = model._BLOCK_TERMS + 2 - np.maximum(y_tot[-1] - 2, 1).sum()
    return y_tot


def assert_same_array(got, want, name):
    assert got.dtype == want.dtype and got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("R", [1, 2, 5])
def test_a_stacked_layout_is_its_rows_laid_end_to_end(R):
    y_tot = rows_of_totals(R)
    stack, rows = model._KernelLayout(y_tot), [model._KernelLayout(y) for y in y_tot]
    assert rows[-1].terms.step_num.shape[0] == model._BLOCK_TERMS - 1
    m, lengths = y_tot.shape[1], [row.terms.step_num.shape[0] for row in rows]
    firsts = np.cumsum([0, *lengths[:-1]])
    assert stack.terms.bounds == [(a, a + n) for a, n in zip(firsts.tolist(), lengths)]
    # segment indices shift by the terms of the rows before, cluster indices by their clusters
    shifts = {"starts": firsts, "last": firsts, "restart": firsts, "before": m * np.arange(R)}
    for name in ("size", "step_num", "i", "n1_minus_i", "n1_plus_i", *shifts):
        parts = [getattr(row.terms, name) for row in rows]
        if name in shifts:
            parts = [part + shift for part, shift in zip(parts, shifts[name].tolist())]
        assert_same_array(getattr(stack.terms, name), np.concatenate(parts), name)
    assert_same_array(stack.terms.ratio_num, np.concatenate([row.terms.ratio_num for row in rows], axis=1), "ratio_num")
    assert_same_array(stack.rows[0], np.concatenate([row.rows[0] for row in rows], axis=1), "rows")
    assert_same_array(stack.rows[1], np.arange(R * m), "rows")
    for name in ("lo", "half_y"):
        assert_same_array(getattr(stack, name), np.concatenate([getattr(row, name) for row in rows]), name)
    # the kernel over the stack gives each row the bits of its own
    x = np.random.default_rng(R).uniform(0.05, 50.0, R * m)
    log_k, d = model._log_k_block(stack.terms, x)
    for r, row in enumerate(rows):
        want_k, want_d = model._log_k_block(row.terms, x[r * m : (r + 1) * m])
        assert_same_array(log_k[r * m : (r + 1) * m], want_k, "log_k")
        assert_same_array(d[:, r * m : (r + 1) * m], want_d, "d")
