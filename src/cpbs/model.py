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
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .bessel import log_bessel_k_half_scaled_table
from .data import ClusteredDataset, ModelParams

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


def _means(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Log-link means exp(X beta), refusing non-finite or non-positive values."""
    with np.errstate(over="ignore", invalid="ignore"):
        eta = X @ beta
    if not np.all(np.isfinite(eta)):
        raise ValueError("non-finite linear predictor")
    with np.errstate(over="ignore"):
        mu = np.exp(eta)
    if not np.all(np.isfinite(mu)) or np.any(mu <= 0.0):
        raise ValueError("non-positive or non-finite means")
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
    if phi <= 0.0:
        raise ValueError(f"phi must be positive (got {phi!r})")
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


def _log_bracket(y_tot: int, mu_tot: float, phi: float, shifts=(0,)) -> dict[int, float]:
    """Scaled log of the two-term Bessel bracket, per moment shift.

    For each integer shift s, computes

        B(s) = log[ K~_(t+1/2)(w) c^-(t+1/2)/2 + K~_(t-1/2)(w) c^-(t-1/2)/2 ],

    with t = y_tot + s, c = 1 + 2 phi^2 mu_tot, w = sqrt(c)/phi^2, and
    K~ the e^w-scaled Bessel function.  One recurrence pass serves every
    requested shift since all orders are consecutive half-integers.
    """
    phi2 = phi * phi
    c = 1.0 + 2.0 * phi2 * mu_tot
    sqrt_c = math.sqrt(c)
    omega = sqrt_c / phi2
    log_c = math.log1p(2.0 * phi2 * mu_tot)

    def m_index(order: float) -> int:
        # orders are exact half-integers, so truncation gives |order| - 1/2
        return int(abs(order))

    m_max = 0
    for s in shifts:
        t = y_tot + s
        m_max = max(m_max, m_index(t + 0.5), m_index(t - 0.5))
    table = log_bessel_k_half_scaled_table(m_max, omega)

    out = {}
    for s in shifts:
        t = y_tot + s
        o_hi, o_lo = t + 0.5, t - 0.5
        term_hi = table[m_index(o_hi)] - 0.5 * o_hi * log_c
        term_lo = table[m_index(o_lo)] - 0.5 * o_lo * log_c
        out[s] = float(np.logaddexp(term_hi, term_lo))
    return out


def _scaled_prefactor(mu_tot: float, phi: float) -> float:
    """log e^(1/phi^2) + log e^(-w) = -2 mu_tot / (1 + sqrt(1 + 2 phi^2 mu_tot)).

    Computed without cancellation; pairs with the e^w-scaled bracket.
    """
    phi2 = phi * phi
    sqrt_c = math.sqrt(1.0 + 2.0 * phi2 * mu_tot)
    return -2.0 * mu_tot / (1.0 + sqrt_c) - _LOG_SQRT_2PI - math.log(phi)


def cluster_log_pmf(y, mu, phi: float) -> float:
    """Log joint probability of one cluster's counts.

    Parameters
    ----------
    y : array of non-negative ints, length n_k
    mu : array of positive means, same length
    phi : positive dispersion
    """
    y = np.atleast_1d(np.asarray(y))
    mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
    if y.shape != mu.shape:
        raise ValueError(f"y and mu must have matching lengths (got {y.shape} vs {mu.shape})")
    if np.any(y < 0) or not np.all(y == np.floor(y)):
        raise ValueError("counts must be non-negative integers")
    if np.any(mu <= 0.0) or not np.all(np.isfinite(mu)):
        raise ValueError("means must be positive and finite")
    phi = float(phi)
    if phi <= 0.0:
        raise ValueError(f"phi must be positive (got {phi!r})")

    y = y.astype(np.int64)
    y_tot = int(y.sum())
    mu_tot = float(mu.sum())
    prod_term = float(np.sum(y * np.log(mu)) - np.sum(gammaln(y + 1.0)))
    bracket = _log_bracket(y_tot, mu_tot, phi, shifts=(0,))[0]
    return _scaled_prefactor(mu_tot, phi) + prod_term + bracket


def _canonical_cluster_stats(data: ClusteredDataset, params: ModelParams):
    """Per-cluster sums in canonical order: (y_tot, mu_tot, y*log(mu), lgamma(y+1))."""
    canon = data.canonical
    mu = _means(canon.X, params.beta)
    y = canon.y
    y_tot = np.add.reduceat(y, canon.starts)
    mu_tot = np.add.reduceat(mu, canon.starts)
    ylogmu = np.add.reduceat(y * np.log(mu), canon.starts)
    lgam = np.add.reduceat(gammaln(y + 1.0), canon.starts)
    return y_tot.astype(np.int64), mu_tot, ylogmu, lgam


def _cluster_pass(data: ClusteredDataset, params: ModelParams):
    """One Bessel pass per canonical cluster: the log-likelihood and the moments.

    Returns ``(loglik, delta, gamma)`` with delta_k = E(T_k | y) and gamma_k =
    E(T_k^-1 | y) in canonical cluster order.  The cluster pmf is the shift-0
    bracket plus the prefactor, and the moments are ratios of the shifted
    brackets to it, so a single table per cluster serves all three.  The
    recurrence runs forward in the order, so the extra order the moments
    need leaves the shift-0 entries, and with them the log-likelihood,
    unchanged.
    """
    y_tot, mu_tot, ylogmu, lgam = _canonical_cluster_stats(data, params)
    phi = params.phi
    q = y_tot.shape[0]
    delta = np.empty(q)
    gamma = np.empty(q)
    parts = []
    for k in range(q):
        br = _log_bracket(int(y_tot[k]), float(mu_tot[k]), phi, shifts=(-1, 0, 1))
        delta[k] = math.exp(br[1] - br[0])
        gamma[k] = math.exp(br[-1] - br[0])
        parts.append(_scaled_prefactor(float(mu_tot[k]), phi) + float(ylogmu[k]) - float(lgam[k]) + br[0])
    return math.fsum(parts), delta, gamma


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
