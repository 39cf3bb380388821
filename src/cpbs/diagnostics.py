"""Model adequacy and influence: Pearson residuals, simulated envelopes,
one-step generalized Cook's distance.

Pearson residuals standardize each count by the marginal moments implied by
the fit,

    r_kj = (y_kj - lambda_kj) / sigma_kj,
    lambda_kj  = exp(x'beta) (1 + phi^2/2),
    sigma_kj^2 = lambda_kj + [exp(x'beta) phi]^2 (1 + 5 phi^2/4).

They have mean zero and unit variance in large samples but are skewed, so
normal-quantile plots are read against simulated envelopes: m datasets are
simulated from the fitted model (one refit per simulated dataset), each
replicate's sorted residuals collected, and per-rank 2.5%/97.5% percentiles
taken as bands.

Influence uses the one-step generalized Cook's distance

    GCD1_kj = a_kj^2 x_kj' (X' G X)^-1 x_kj,
    a_kj = y_kj - delta_k mu_kj,   G = diag(delta_k mu_kj),

a quadratic-form approximation to the coefficient shift from deleting one
observation that avoids refitting the model n times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _util
from .data import ClusteredDataset, ModelParams
from .estimation import FitResult, _refit_replicates
from .exceptions import RankDeficiencyError
from .model import _means, bs_mean, bs_variance

# not called here: the refits run in cpbs.estimation, but the benchmark's
# traced run (bench/layers.py) wraps these names in cpbs.diagnostics too
from .estimation import em_fit  # noqa: F401
from .simulate import simulate_responses  # noqa: F401

__all__ = [
    "ResidualSet",
    "EnvelopeBands",
    "InfluenceSet",
    "pearson_residuals",
    "simulated_envelopes",
    "gcd_one_step",
]


@dataclass(frozen=True)
class ResidualSet:
    """Per-observation residuals and fitted moments, in stacked row order."""

    r: np.ndarray
    lambda_hat: np.ndarray
    sigma2_hat: np.ndarray


@dataclass(frozen=True)
class EnvelopeBands:
    """Per-rank simulated percentile bounds for the ordered residuals."""

    sorted_r: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    m: int
    coverage: float
    n_dropped: int = 0


@dataclass(frozen=True)
class InfluenceSet:
    """One-step case-deletion influence, in stacked row order."""

    gcd1: np.ndarray
    a: np.ndarray  # score residuals y_kj - delta_k mu_kj
    g: np.ndarray  # weight diagonal delta_k mu_kj


def _params_of(fitted) -> ModelParams:
    return fitted.params if isinstance(fitted, FitResult) else fitted


def pearson_residuals(data: ClusteredDataset, fitted) -> ResidualSet:
    """Standardized residuals under the fitted marginal moments."""
    params = _params_of(fitted)
    mu = _means(data.X_stacked, params.beta)
    phi = params.phi
    lam = mu * bs_mean(phi)
    sigma2 = lam + mu**2 * bs_variance(phi)
    r = (data.y_stacked - lam) / np.sqrt(sigma2)
    return ResidualSet(r=r, lambda_hat=lam, sigma2_hat=sigma2)


def _sorted_residuals(sim: ClusteredDataset, fit: FitResult) -> np.ndarray:
    """What an envelope replicate keeps: its Pearson residuals at its refit, sorted."""
    return np.sort(pearson_residuals(sim, fit).r)


def simulated_envelopes(
    data: ClusteredDataset,
    fitted: FitResult,
    m: int = 100,
    seed: int = 0,
    workers=None,
) -> EnvelopeBands:
    """Per-rank 2.5%/97.5% envelope bands for the sorted Pearson residuals.

    Simulates ``m`` datasets from the fitted model on the original design,
    refits each one, sorts each replicate's residuals, and takes per-rank
    percentiles (linear interpolation between order statistics).  Replicates
    whose refit fails are dropped, with a 10% ceiling.  Deterministic given
    ``seed`` and independent of the worker count.
    """
    if isinstance(fitted, FitResult) and not fitted.converged:
        raise ValueError("envelopes require a converged fit")
    if m < 20:
        raise ValueError("m must be >= 20")
    params = _params_of(fitted)
    seeds = _util.replicate_seeds(seed, m)
    results = _refit_replicates(data, params, seeds, _sorted_residuals, True, 0.1, "envelope replicates", workers)
    kept = [r for r in results if r is not None]
    dropped = m - len(kept)
    sims = np.vstack(kept)
    lo = np.percentile(sims, 2.5, axis=0)
    hi = np.percentile(sims, 97.5, axis=0)
    sorted_r = np.sort(pearson_residuals(data, params).r)
    coverage = float(np.mean((sorted_r >= lo) & (sorted_r <= hi)))
    return EnvelopeBands(sorted_r=sorted_r, lo=lo, hi=hi, m=m, coverage=coverage, n_dropped=dropped)


def gcd_one_step(data: ClusteredDataset, fitted, delta: np.ndarray) -> InfluenceSet:
    """One-step generalized Cook's distance per observation.

    ``delta`` holds the posterior means E(T_k | y) at the fitted parameters,
    one per cluster in ``data.clusters`` order (see
    :func:`cpbs.estimation.posterior_moments`).
    """
    params = _params_of(fitted)
    delta = np.atleast_1d(np.asarray(delta, dtype=np.float64))
    if delta.shape != (data.q,) or np.any(delta <= 0.0):
        raise ValueError("delta must hold one positive value per cluster")
    mu = _means(data.X_stacked, params.beta)
    g = np.repeat(delta, data.sizes) * mu
    a = data.y_stacked - g
    X = data.X_stacked
    # accumulate X'GX in canonical row order so the quadratic form is
    # invariant to reordering of observations
    perm = data.canonical.perm
    Xc = X[perm]
    M = Xc.T @ (Xc * g[perm][:, None])
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        raise RankDeficiencyError("X'GX is singular") from None
    quad = np.einsum("ij,jk,ik->i", X, Minv, X)
    return InfluenceSet(gcd1=a**2 * quad, a=a, g=g)
