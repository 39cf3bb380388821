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
out in one array with one segment per cluster, then four forward
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

Datasets that share a design, such as the replicates of a bootstrap, can
be evaluated side by side, each at its own parameters (``_cluster_passes``):
the same constructor lays out their totals as the rows of one layout, whose
running sums restart at each row, and each dataset gets the bits of its own
pass.
"""

from __future__ import annotations

import math

import numpy as np

# not called here any more: the benchmark's traced run (bench/layers.py) still
# wraps this name in cpbs.model, so it stays bound until that harness counts
# the vectorized kernel instead
from .bessel import log_bessel_k_half_scaled_table  # noqa: F401
from .data import ClusteredDataset, ModelParams, _log_factorial, _Replicates, _stack

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
        raise _means_error(eta)
    return mu


def _means_error(eta: np.ndarray) -> ValueError:
    """The error of ``_means`` for a linear predictor whose means are not all positive and finite."""
    return ValueError("non-positive or non-finite means" if np.isfinite(eta).all() else "non-finite linear predictor")


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
# per-term arrays stay a few MB however large the total count of a dataset is;
# one cluster's terms are never split, so a block holds at most this many
# plus those of its first cluster
_BLOCK_TERMS = 1 << 16
# datasets of one design evaluated side by side are laid out in groups of about
# this many terms: larger arrays spill out of a core's cache and cost more per
# term (measured on a 2-core Xeon with 2 MB of L2 per core); at most
# _BLOCK_TERMS, so that a dataset over a block is always alone
_STACK_TERMS = 1 << 14


class _SeriesTerms:
    """The finite series' terms of rows of clusters, laid out as ``_log_k_block`` reads them.

    A row holds the clusters of one dataset, of one block of them, or of one
    of several datasets of a design laid out together.  For anchor orders lo
    (one per cluster, a row of them or a 2-d stack of rows), the terms
    i = 0..lo_k of each cluster form one segment of a flat array, row after
    row, and the running sums of ``_log_k_block`` start afresh at each row's
    ``bounds``, so that each row gets the bits it would get alone.
    Everything here depends on the orders alone: the segment ``size``s and
    ``starts``, the index ``last`` of each segment's last term, the segments
    ``restart`` (all but each row's first) and the segments ``before`` them,
    and per term the numerator (n+i)(n+1-i) and denominator factor i of
    log(a_i / a_(i-1)) (both 1 at segment starts, whose value is
    overwritten), n+1-i and n+1+i (exact integers), and per cluster the
    ratio numerators 2 lo + 2j - 1, j = 0..5.
    """

    def __init__(self, lo: np.ndarray):
        m = lo.shape[-1]
        lo = lo.ravel()
        self.size = size = lo + 1
        ends = size.cumsum()
        self.starts = starts = ends - size
        self.last = starts + lo
        self.restart = starts.reshape(-1, m)[:, 1:].ravel()
        self.before = np.arange(lo.shape[0]).reshape(-1, m)[:, :-1].ravel()
        row_ends = ends[m - 1 :: m].tolist()
        self.bounds = list(zip([0, *row_ends[:-1]], row_ends))
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
    """What the Bessel kernel derives from cluster count totals.

    Built once per set of totals: a dataset's canonical view caches the
    layout of its own (``_CanonicalView.kernel``), and ``_kernel_groups``
    lays out the totals of several datasets of a design, a 2-d stack of
    rows, in one.  It holds the anchor orders ``lo`` = max(y_tot - 3, 0),
    the table ``rows`` each order reads, ``half_y`` = 0.5 y_tot, all
    flattened row after row, and the series ``terms``.  The terms are kept
    when each row's fit in one block of ``_BLOCK_TERMS``, as every row of a
    stack does.  One row over a block keeps only the ``cuts`` between its
    blocks, with ``terms`` None, and each pass lays out one block's terms at
    a time, so the memory stays bounded by a block.
    """

    def __init__(self, y_tot: np.ndarray):
        lo = np.maximum(y_tot - 3, 0)
        self.lo, self.half_y = lo.ravel(), 0.5 * y_tot.ravel()
        self.rows = (_ROWS[:, np.minimum(y_tot, 3).ravel()], np.arange(lo.size))
        ends = (lo + 1).cumsum(axis=-1)
        if ends[..., -1].max() < _BLOCK_TERMS:  # one block a row, without the search for cuts
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
    one block; each segment's running sum restarts near zero, and each
    row's at zero.  Everything but x is laid out once, in ``terms``; a pass
    divides by its own x.  The next order's terms are a_i (n+1+i)/(n+1-i),
    plus a_n (2n+1)/x, so the ratio of the two orders is a ratio of sums of
    the same terms, in which their rounding cancels.  The forward
    recurrence K_(lam+1) = K_(lam-1) + (2 lam / x) K_lam, stable in the
    direction of increasing order, carries those ratios four orders
    further, vectorized across clusters.
    """
    size, starts = terms.size, terms.starts
    step = np.log(terms.step_num / ((2.0 * x).repeat(size) * terms.i))
    step[starts] = 0.0
    step[terms.restart] = -np.add.reduceat(step, starts)[terms.before]
    log_a = np.empty_like(step)
    for a, b in terms.bounds:
        np.add.accumulate(step[a:b], out=log_a[a:b])
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


def _kernel_pass(layout: _KernelLayout, mu_tot: np.ndarray, phi, log_phi):
    """Per cluster, the scaled prefactor, the bracket B(0) and the log moments.

    Returns ``(prefactor, b0, logm)``, with ``b0`` and ``logm`` as
    ``_log_brackets`` returns them.  ``prefactor`` is
    log[e^(1/phi^2) / (sqrt(2 pi) phi)] less the w by which the bracket is
    scaled; it shares sqrt(c) with the bracket.  ``phi`` and ``log_phi`` =
    math.log(phi) are numbers, or arrays with one value per cluster.
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
    prefactor = -2.0 * mu_tot / (1.0 + sqrt_c) - _LOG_SQRT_2PI - log_phi
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
    return _kernel_pass(_KernelLayout(y_tot), mu_tot, phi, math.log(phi))[1:]


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
    prefactor, bracket, _ = _kernel_pass(_KernelLayout(y.sum(keepdims=True)), mu.sum(keepdims=True), phi, math.log(phi))
    return float(prefactor[0]) + prod_term + float(bracket[0])


def _canonical_cluster_stats(data: ClusteredDataset, params: ModelParams):
    """The means of the canonical rows, and per cluster their sum and sum of y*log(mu).

    The count totals and log-factorial sums, which do not depend on the
    parameters, are ``data.canonical.y_tot`` and ``.lgamma``.
    """
    canon = data.canonical
    mu = _means(canon.X, params.beta)
    return mu, np.add.reduceat(mu, canon.starts), np.add.reduceat(canon.y * np.log(mu), canon.starts)


def _kernel_groups(reps: _Replicates, rows: list):
    """The kernel layouts that cover datasets ``rows`` of ``reps``, each with the positions a:b of ``rows`` it covers.

    Consecutive datasets whose terms fit in one block are grouped in order,
    as many at a time as fit in ``_STACK_TERMS``, and each group of several
    is laid out once from its rows of ``reps.y_tot``.  A group of one reads
    the layout of its dataset's canonical view, with its cuts if it is over
    a block.  The layouts are kept in ``reps.kernels`` until a pass that
    does not use them.
    """
    if len(rows) == 1:
        return [(reps.views[rows[0]].kernel, 0, 1)]
    y_tot = reps.y_tot if len(rows) == len(reps.views) else reps.y_tot[rows]
    cuts, terms = [0], 0  # the groups are rows[cuts[g]:cuts[g + 1]]
    for j, size in enumerate(np.maximum(y_tot - 2, 1).sum(axis=1).tolist()):  # the sum of lo + 1
        if j > cuts[-1] and terms + size > _STACK_TERMS:
            cuts.append(j)
            terms = 0
        terms += size
    cuts.append(len(rows))
    kernels = {}
    for a, b in zip(cuts, cuts[1:]):
        key = tuple(rows[a:b])
        kernels[key] = reps.views[rows[a]].kernel if b - a == 1 else reps.kernels.get(key) or _KernelLayout(y_tot[a:b])
    reps.kernels = kernels
    return list(zip(kernels.values(), cuts, cuts[1:]))


def _cluster_passes(reps: _Replicates, rows: list, params: list) -> list:
    """``_cluster_pass`` over datasets ``rows`` of ``reps``, each at its own ``params``.

    Returns, per dataset, ``(loglik, logm, mu, mu_tot)`` or the exception its
    pass raises.  Each dataset's product X beta is its own call; every other
    step is one evaluation over all of them, and is elementwise or reduces
    one dataset's values in the order a pass over that dataset alone does
    (row by row, segment by segment, ``math.fsum`` per dataset), so each gets
    the bits of its own pass.  math.log(phi) stays a Python float per
    dataset, since np.log can differ from it by an ulp.
    """
    every = len(rows) == len(reps.views)
    with np.errstate(over="ignore", invalid="ignore"):
        eta = _stack([reps.views[r].X @ theta.beta for r, theta in zip(rows, params)])
        mu = np.exp(eta)
    out = [None] * len(rows)
    if not (mu.min() > 0.0 and mu.max() < math.inf):
        for j in np.flatnonzero(~((mu.min(axis=1) > 0.0) & (mu.max(axis=1) < math.inf))).tolist():
            out[j] = _means_error(eta[j])
            mu[j] = 1.0  # a stand-in that keeps the rest of the evaluation finite
    mu_tot = np.add.reduceat(mu, reps.starts, axis=1)
    ylogmu = np.add.reduceat((reps.y if every else reps.y[rows]) * np.log(mu), reps.starts, axis=1)
    q = mu_tot.shape[1]
    kernels = []
    for layout, a, b in _kernel_groups(reps, rows):
        if b - a == 1:
            phi = params[a].phi
            kernels.append(_kernel_pass(layout, mu_tot[a], phi, math.log(phi)))
        else:
            phi = [theta.phi for theta in params[a:b]]
            kernels.append(_kernel_pass(layout, mu_tot[a:b].ravel(), np.repeat(phi, q),
                                        np.repeat([math.log(v) for v in phi], q)))
    prefactor, b0, logm = kernels[0] if len(kernels) == 1 else map(np.concatenate, zip(*kernels))
    parts = prefactor.reshape(-1, q) + ylogmu - (reps.lgamma if every else reps.lgamma[rows]) + b0.reshape(-1, q)
    logm = logm.reshape(-1, q, 5)
    for j, part in enumerate(parts):
        if out[j] is None:
            try:
                out[j] = (math.fsum(part.tolist()), logm[j], mu[j], mu_tot[j])
            except ValueError as e:
                out[j] = e
    return out


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
    out = _cluster_passes(_Replicates([data]), [0], [params])[0]
    if isinstance(out, Exception):
        raise out
    return out


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
