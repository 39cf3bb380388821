"""Model core: densities, cluster pmf, log-likelihood, moment structure.

The model: counts within a cluster are conditionally independent
Poisson(mu_kj * T_k) given a latent effect T_k ~ BS(phi) shared by the
cluster, where the Birnbaum-Saunders density with unit scale is

    f(t) = (t^(-1/2) + t^(-3/2)) / (2 sqrt(2 pi) phi)
           * exp{-(t + 1/t - 2) / (2 phi^2)},   t > 0.

Integrating T out gives the joint probability of a cluster's counts in
closed form as a two-term combination of modified Bessel K functions of
half-integer order; with y = sum of counts and mu = sum of means,

    p(y_k1..y_kn) = e^(1/phi^2) / (sqrt(2 pi) phi) * prod_j mu_kj^y_kj / y_kj!
        * { K_(y+1/2)(w) / c^((y+1/2)/2) + K_(y-1/2)(w) / c^((y-1/2)/2) },

with c = 1 + 2 phi^2 mu and w = sqrt(c) / phi^2.  Everything here is
evaluated fully in log space: the bracket as a two-term log-sum-exp of
exponentially scaled Bessel values, and the huge prefactor/Bessel
cancellation e^(1/phi^2) * e^(-w) resolved analytically as

    1/phi^2 - w = -2 mu / (1 + sqrt(c)),

which stays accurate down to the dispersion floor.

The posterior moments E(T^s | y) are ratios of the bracket at orders
shifted by s to the bracket itself.  One vectorized kernel evaluates the
brackets of every cluster at the shifts s = -2..2 at once: the finite
half-integer Bessel series at each cluster's anchor order, its terms laid
out in one flat array with one segment per cluster, then four forward
recurrence steps across clusters.  The work is numpy arithmetic on the sum
of the cluster totals, whatever the number of clusters; clusters go through
in blocks of a fixed number of terms, so memory grows with the largest
cluster total, not with their sum.  What depends on the totals alone (the
anchor orders, the series' segments and term factors, the table rows each
shift reads) is laid out once per dataset, in the ``_KernelLayout`` that
its canonical view caches, and each pass divides by its own arguments.  A
dataset whose terms fit in one block keeps those per-term arrays between
passes; a larger one keeps only the cuts between its blocks, so the bound
on memory holds.
"""

from __future__ import annotations

import math

import numpy as np

# not called here any more: the benchmark's traced run (bench/layers.py) still
# wraps this name in cpbs.model, so it stays bound until that harness counts
# the vectorized kernel instead
from .bessel import log_bessel_k_half_scaled_table  # noqa: F401
from .data import ClusteredDataset, ModelParams, _log_factorial

__all__ = [
    "compute_mu",
    "bs_log_density",
    "bs_mean",
    "bs_variance",
    "cluster_log_pmf",
    "log_likelihood",
    "model_moments",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_HALF_PI = math.log(math.pi / 2.0)


def _means(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Log-link means exp(X beta), refusing non-finite or non-positive values.

    A NaN or infinite X beta is named as such; a finite one whose exp
    overflows or underflows gives non-positive or non-finite means.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        eta = X @ beta
        mu = np.exp(eta)
    if not (mu.min() > 0.0 and mu.max() < math.inf):
        finite = np.isfinite(eta).all()
        raise ValueError("non-positive or non-finite means" if finite else "non-finite linear predictor")
    return mu


def compute_mu(data: ClusteredDataset, params: ModelParams) -> np.ndarray:
    """Per-observation means mu_kj = exp(x_kj' beta), in stacked row order."""
    X = data.X_stacked
    if X.shape[1] != params.p:
        raise ValueError(f"covariate dimension mismatch: X has p={X.shape[1]}, beta has p={params.p}")
    return _means(X, params.beta)


def bs_log_density(t, phi: float):
    """Log density of the unit-scale Birnbaum-Saunders law with shape phi."""
    phi = float(phi)
    if not 0.0 < phi < math.inf:
        raise ValueError(f"phi must be positive and finite (got {phi!r})")
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0.0):
        raise ValueError("t must be positive")
    out = (
        np.log(t ** -0.5 + t ** -1.5)
        - math.log(2.0 * phi)
        - _LOG_SQRT_2PI
        - (t + 1.0 / t - 2.0) / (2.0 * phi**2)
    )
    return out if out.ndim else float(out)


def bs_mean(phi: float) -> float:
    """E(T) = 1 + phi^2/2 for T ~ BS(phi)."""
    return 1.0 + 0.5 * float(phi) ** 2


def bs_variance(phi: float) -> float:
    """Var(T) = phi^2 (1 + 5 phi^2 / 4) for T ~ BS(phi)."""
    p2 = float(phi) ** 2
    return p2 * (1.0 + 1.25 * p2)


# The five moment shifts s = -2..2 read the brackets' six orders y_tot + k - 5/2,
# k = 0..5; in B(s), order k carries the power c^-(k - 5/2)/2 beyond c^-y_tot/2.
_ORDER_OFFSETS = np.arange(6)[:, None]
_C_POWERS = -0.5 * (_ORDER_OFFSETS - 2.5)
# the table row |order| - 1/2 - lo of each order, by y_tot = 0, 1, 2 and
# y_tot >= 3; below 3 the anchor is lo = 0 and negative orders reflect
_ROWS = np.abs(2 * _ORDER_OFFSETS + 2 * np.arange(4) - 5) // 2


# clusters are evaluated in blocks of about this many series terms, so the
# flat arrays stay a few MB however large the total count of a dataset is;
# one cluster's terms are never split, so a block holds at most this many
# plus those of its first cluster
_BLOCK_TERMS = 1 << 16


class _SeriesTerms:
    """The finite series' terms of a block of clusters, laid out as ``_log_k_block`` reads them.

    For anchor orders ``lo`` (one per cluster), the terms i = 0..lo_k of each
    cluster form one segment of a flat array.  Everything here depends on
    the orders alone: the segment ``size``s and ``starts``, the index
    ``last`` of each segment's last term, and per term the numerator
    (n+i)(n+1-i) and denominator factor i of log(a_i / a_(i-1)) (both 1 at
    segment starts, whose value is overwritten), n+1-i and n+1+i (exact
    integers), and per cluster the ratio numerators 2 lo + 2j - 1, j = 0..5.
    """

    def __init__(self, lo: np.ndarray):
        self.size = size = lo + 1
        self.starts = starts = size.cumsum() - size
        self.last = starts + lo
        n = lo.astype(np.float64).repeat(size)
        i = (np.arange(n.shape[0]) - starts.repeat(size)).astype(np.float64)
        self.n1_minus_i = n + 1.0 - i
        self.n1_plus_i = n + 1.0 + i
        self.step_num = (n + i) * self.n1_minus_i
        self.step_num[starts] = 1.0
        i[starts] = 1.0
        self.i = i
        self.ratio_num = 2.0 * lo + (2.0 * _ORDER_OFFSETS - 1.0)


class _KernelLayout:
    """What the Bessel kernel derives from a dataset's cluster count totals.

    Built once per set of totals (``_CanonicalView.kernel`` caches it with a
    dataset's counts): the anchor orders ``lo`` = max(y_tot - 3, 0), the
    table ``rows`` each order reads, ``half_y`` = 0.5 y_tot, and the series
    ``terms``.  The terms are kept only when they all fit in one block of
    ``_BLOCK_TERMS``; over that, ``terms`` is None, only the ``cuts``
    between blocks are kept, and each pass lays out one block's terms at a
    time, so the memory stays bounded by a block.
    """

    def __init__(self, y_tot: np.ndarray):
        self.lo = lo = np.maximum(y_tot - 3, 0)
        self.half_y = 0.5 * y_tot
        self.rows = (_ROWS[:, np.minimum(y_tot, 3)], np.arange(y_tot.shape[0]))
        ends = (lo + 1).cumsum()
        if ends[-1] < _BLOCK_TERMS:  # one block, without the search for cuts
            self.terms, self.cuts = _SeriesTerms(lo), None
        else:
            self.terms, self.cuts = None, np.flatnonzero(np.diff(ends // _BLOCK_TERMS)) + 1

    def log_k(self, x: np.ndarray):
        """``_log_k_block`` over the blocks of consecutive clusters, joined."""
        if self.terms is not None:
            return _log_k_block(self.terms, x)
        pieces = zip(np.split(self.lo, self.cuts), np.split(x, self.cuts))
        blocks = [_log_k_block(_SeriesTerms(lo_b), x_b) for lo_b, x_b in pieces]
        return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks], axis=1)


def _log_k_block(terms: _SeriesTerms, x: np.ndarray):
    """Scaled log Bessel K at six consecutive half-integer orders per cluster.

    Returns ``(log_k, d)``: log_k[k] = log K~_(lo_k+1/2)(x_k), and the 6 x q
    array d[j, k] = log K~_(lo_k+j+1/2)(x_k) - log_k[k], j = 0..5, for the
    anchor orders lo of ``terms``.

    Order n = lo_k + 1/2 comes from the finite series (DLMF 10.49.12)

        K~_(n+1/2)(x) = sqrt(pi / 2x) sum_(i=0..n) a_i,   a_i = (n+i)! / (i! (n-i)! (2x)^i),

    whose terms are positive, so its log is a log-sum-exp without
    cancellation.  log a_i is the running sum of log(a_i / a_(i-1)) =
    log[(n+i)(n-i+1) / (2x i)], which stays as small as the terms are
    (a difference of log-factorials would carry their rounding, some 1e-12
    at n = 5000).  The terms of every cluster lie in one flat array, one
    segment per cluster, so the work is O(sum_k lo_k) numpy arithmetic
    whatever the number of clusters, and the memory O(sum_k lo_k) within
    one block; each segment's running sum restarts near zero.  Everything
    but x is laid out once, in ``terms``; a pass divides by its own x.  The
    next order's terms are a_i (n+1+i)/(n+1-i), plus a_n (2n+1)/x, so the
    ratio of the two orders is a ratio of sums of the same terms, in which
    their rounding cancels.  The forward recurrence
    K_(lam+1) = K_(lam-1) + (2 lam / x) K_lam, stable in the direction of
    increasing order, carries those ratios four orders further, vectorized
    across clusters.
    """
    size, starts = terms.size, terms.starts
    step = np.log(terms.step_num / ((2.0 * x).repeat(size) * terms.i))
    step[starts] = 0.0
    step[starts[1:]] = -np.add.reduceat(step, starts)[:-1]
    log_a = step.cumsum()
    log_a -= log_a[starts].repeat(size)
    peak = np.maximum.reduceat(log_a, starts)
    w = np.exp(log_a - peak.repeat(size))
    s0 = np.add.reduceat(w, starts)
    s1 = np.add.reduceat(w * terms.n1_plus_i / terms.n1_minus_i, starts)
    # ratios K_(lo+j+1/2) / K_(lo+j-1/2): r_j = 2 (lo + j - 1/2) / x + 1 / r_(j-1)
    ratio = terms.ratio_num / x
    ratio[0] = 1.0
    ratio[1] = (s1 + w[terms.last] * ratio[1]) / s0
    for j in range(2, 6):
        ratio[j] += 1.0 / ratio[j - 1]
    return 0.5 * (_LOG_HALF_PI - np.log(x)) + peak + np.log(s0), np.log(ratio).cumsum(axis=0)


def _kernel_pass(layout: _KernelLayout, mu_tot: np.ndarray, phi: float):
    """Per cluster, the scaled prefactor, the bracket B(0) and the log moments.

    Returns ``(prefactor, b0, logm)``, with ``b0`` and ``logm`` as
    ``_log_brackets`` returns them.  ``prefactor`` is
    log[e^(1/phi^2) / (sqrt(2 pi) phi)] less the w by which the bracket is
    scaled; it shares sqrt(c) with the bracket.
    """
    phi2 = phi * phi
    c_minus_1 = 2.0 * phi2 * mu_tot
    sqrt_c = np.sqrt(1.0 + c_minus_1)
    log_c = np.log1p(c_minus_1)
    log_k, d = layout.log_k(sqrt_c / phi2)
    orders = d[layout.rows] + _C_POWERS * log_c
    shifted = np.logaddexp(orders[1:], orders[:5])
    b0 = log_k - layout.half_y * log_c + shifted[2]
    # 1/phi^2 - w = -2 mu_tot / (1 + sqrt(c)), formed without cancellation
    prefactor = -2.0 * mu_tot / (1.0 + sqrt_c) - _LOG_SQRT_2PI - math.log(phi)
    return prefactor, b0, (shifted - shifted[2]).T


def _log_brackets(y_tot: np.ndarray, mu_tot: np.ndarray, phi: float):
    """Scaled log of the two-term Bessel bracket per cluster, and the moments.

    With t = y_tot + s, c = 1 + 2 phi^2 mu_tot, w = sqrt(c)/phi^2 and K~ the
    e^w-scaled Bessel function, the bracket at order shift s is

        B(s) = log[ K~_(t+1/2)(w) c^-(t+1/2)/2 + K~_(t-1/2)(w) c^-(t-1/2)/2 ].

    Returns ``(b0, logm)``: b0 = B(0) per cluster, and the q x 5 array whose
    column s + 2 holds log E(T^s | y) = B(s) - B(0) for s = -2..2.  All
    five shifts read one six-order table per cluster anchored at
    lo = max(y_tot - 3, 0): with K_(-lam) = K_lam, every order t +- 1/2 has
    |order| - 1/2 in lo .. lo + 5.  The anchor does not depend on which
    shifts a caller reads, so the log-likelihood is the same number in
    every pass.  The moments are formed from the table's differences and
    the shift parts of the c powers only, so the large common parts,
    log K~ at the anchor and -y_tot log(c) / 2, cancel before any rounding.
    This builds the totals' ``_KernelLayout`` for the one call; a dataset
    keeps its own in ``canonical.kernel``.
    """
    return _kernel_pass(_KernelLayout(y_tot), mu_tot, phi)[1:]


def _one_cluster(y, mu, phi):
    """One cluster's (y, mu, phi) as int64 counts, float means and dispersion.

    ValueError unless the counts are non-negative integers, the means as many,
    positive and finite, and phi positive and finite.
    """
    y = np.atleast_1d(np.asarray(y))
    mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
    if y.shape != mu.shape:
        raise ValueError(f"y and mu must have matching lengths (got {y.shape} vs {mu.shape})")
    if (y < 0).any() or (y != np.floor(y)).any():
        raise ValueError("counts must be non-negative integers")
    if (mu <= 0.0).any() or not np.isfinite(mu).all():
        raise ValueError("means must be positive and finite")
    phi = float(phi)
    if not 0.0 < phi < math.inf:
        raise ValueError(f"phi must be positive and finite (got {phi!r})")
    return y.astype(np.int64), mu, phi


def cluster_log_pmf(y, mu, phi: float) -> float:
    """Log joint probability of one cluster's counts.

    Parameters
    ----------
    y : array of non-negative ints, length n_k
    mu : array of positive means, same length
    phi : positive dispersion
    """
    y, mu, phi = _one_cluster(y, mu, phi)
    prod_term = float((y * np.log(mu)).sum() - _log_factorial(y).sum())
    prefactor, bracket, _ = _kernel_pass(_KernelLayout(y.sum(keepdims=True)), mu.sum(keepdims=True), phi)
    return float(prefactor[0]) + prod_term + float(bracket[0])


def _canonical_cluster_stats(data: ClusteredDataset, params: ModelParams):
    """The means of the canonical rows, and per cluster their sum and sum of y*log(mu).

    The count totals and log-factorial sums, which do not depend on the
    parameters, are ``data.canonical.y_tot`` and ``.lgamma``.
    """
    canon = data.canonical
    mu = _means(canon.X, params.beta)
    return mu, np.add.reduceat(mu, canon.starts), np.add.reduceat(canon.y * np.log(mu), canon.starts)


def _cluster_pass(data: ClusteredDataset, params: ModelParams):
    """One Bessel pass over the canonical clusters: the log-likelihood and the moments.

    Returns ``(loglik, logm, mu, mu_tot)`` where column s + 2 of the q x 5
    array ``logm`` holds log E(T_k^s | y) for s = -2..2, in canonical cluster
    order; ``mu`` and ``mu_tot`` are the canonical rows' means and their
    cluster sums, which the score and Hessian reuse.  The cluster pmf is the
    shift-0 bracket plus the prefactor, and the moments are ratios of the
    shifted brackets to it, so one vectorized evaluation of
    ``_log_brackets`` serves all of them, with no loop over clusters.
    """
    canon = data.canonical
    mu, mu_tot, ylogmu = _canonical_cluster_stats(data, params)
    prefactor, b0, logm = _kernel_pass(canon.kernel, mu_tot, params.phi)
    parts = prefactor + ylogmu - canon.lgamma + b0
    return math.fsum(parts.tolist()), logm, mu, mu_tot


def log_likelihood(data: ClusteredDataset, params: ModelParams) -> float:
    """Full-data log-likelihood, constants included.

    The constants (the sqrt(2 pi) phi normalizer and the log-factorials) are
    kept so that values are comparable across fitting methods and usable for
    information criteria.
    """
    return _cluster_pass(data, params)[0]


def model_moments(mu_i: float, mu_j: float, phi: float):
    """Marginal mean/variance of one count and within-cluster covariance.

    Returns ``(mean_i, var_i, cov_ij)``:

        mean_i = mu_i (1 + phi^2/2)
        var_i  = mean_i + mu_i^2 phi^2 (1 + 5 phi^2/4)
        cov_ij = mu_i mu_j phi^2 (1 + 5 phi^2/4)

    The variance exceeds the mean for every phi > 0 (overdispersion), and
    the covariance is non-negative, vanishing only in the Poisson limit.
    """
    mu_i = float(mu_i)
    mu_j = float(mu_j)
    phi = float(phi)
    if mu_i <= 0.0 or mu_j <= 0.0 or phi <= 0.0:
        raise ValueError("mu_i, mu_j and phi must be positive")
    tvar = bs_variance(phi)
    mean_i = mu_i * bs_mean(phi)
    var_i = mean_i + mu_i**2 * tvar
    cov_ij = mu_i * mu_j * tvar
    return mean_i, var_i, cov_ij
