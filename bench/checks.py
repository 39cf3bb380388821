"""Correctness checks on the benchmark's outputs, run outside the timed regions.

The oracle evaluates the Poisson x Birnbaum-Saunders mixture integral by
adaptive quadrature and never goes through ``cpbs.bessel`` or ``cpbs.model``.
The other checks are properties of the method (ascent, stationarity,
agreement between methods, report and CSV contracts), so none of them
compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import gammaln
from scipy.stats import t as student_t


class CheckFailed(Exception):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- quadrature oracle -------------------------------------------------------

def _log_integrand(y_tot, mu_tot, const, phi, s):
    """log of t^s * prod_j Poisson(y_j; mu_j t) * f_BS(t; phi) * t at t = e^u.

    prod_j Poisson(y_j; mu_j t) = exp(const + y_tot log t - mu_tot t) with
    const = sum_j (y_j log mu_j - log y_j!); the trailing t is the Jacobian.
    """
    log_norm = math.log(2.0 * math.sqrt(2.0 * math.pi) * phi)

    def log_f(u):
        t = math.exp(u)
        log_bs = math.log(t**-0.5 + t**-1.5) - log_norm - (t + 1.0 / t - 2.0) / (2.0 * phi * phi)
        return const + (y_tot + s + 1) * u - mu_tot * t + log_bs

    return log_f


def log_mixture_quad(y, mu, phi: float, s: int = 0) -> float:
    """log of the integral of t^s prod_j Poisson(y_j; mu_j t) f_BS(t; phi) dt."""
    y = np.asarray(y, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    y_tot, mu_tot = float(y.sum()), float(mu.sum())
    const = float(np.sum(y * np.log(mu)) - np.sum(gammaln(y + 1.0)))
    log_f = _log_integrand(y_tot, mu_tot, const, phi, s)
    u0 = math.log((y_tot + 1.0) / mu_tot)
    mode = minimize_scalar(lambda u: -log_f(u), bracket=(u0 - 1.0, u0 + 1.0)).x
    peak = log_f(mode)
    h = 1e-3
    curvature = -(log_f(mode + h) - 2.0 * peak + log_f(mode - h)) / (h * h)
    width = 1.0 / math.sqrt(max(curvature, 1e-12))
    lo, hi = mode - 40.0 * width, mode + 40.0 * width
    while log_f(lo) > peak - 80.0:
        lo -= 40.0 * width
    while log_f(hi) > peak - 80.0:
        hi += 40.0 * width
    value, _ = quad(lambda u: math.exp(log_f(u) - peak), lo, hi,
                    points=[mode - width, mode, mode + width], limit=400, epsabs=0.0, epsrel=1e-13)
    return peak + math.log(value)


def check_oracle(cpbs, clusters, phi: float) -> int:
    """Compare the cluster log pmf and posterior moments with quadrature.

    ``clusters`` holds (y, mu) pairs.  Returns the number of clusters checked.
    """
    for y, mu in clusters:
        got = cpbs.cluster_log_pmf(y, mu, phi)
        want = log_mixture_quad(y, mu, phi)
        require(abs(got - want) <= 1e-10 * max(1.0, abs(want)),
                f"cluster_log_pmf {got!r} vs quadrature {want!r} (total {int(np.sum(y))})")
        for s in (1, -1):
            got_m = cpbs.conditional_moment(y, mu, phi, s)
            want_m = math.exp(log_mixture_quad(y, mu, phi, s) - want)
            require(abs(got_m - want_m) <= 1e-9 * want_m,
                    f"E(T^{s}|y) {got_m!r} vs quadrature {want_m!r} (total {int(np.sum(y))})")
    return len(clusters)


# --- fits --------------------------------------------------------------------

def _theta(params) -> np.ndarray:
    return np.concatenate([params.beta, [math.log(params.phi)]])


def check_em_ascent(fit) -> None:
    trace = np.asarray(fit.loglik_trace)
    drops = np.diff(trace)
    require(np.all(drops >= -1e-10),
            f"EM log-likelihood decreased by {-float(drops.min())!r}")


def check_stationary(cpbs, data, fit, truth) -> None:
    """At a converged estimate: loglik >= loglik(truth), gradient near zero."""
    ll_hat = cpbs.log_likelihood(data, fit.params)
    ll_truth = cpbs.log_likelihood(data, truth)
    require(ll_hat >= ll_truth - 1e-9 * abs(ll_truth),
            f"{fit.method} estimate loglik {ll_hat!r} below the truth's {ll_truth!r}")
    z = _theta(fit.params)
    p = fit.params.p
    grad = np.empty_like(z)
    for i in range(z.shape[0]):
        step = 1e-5 * (1.0 + abs(z[i]))
        hi, lo = z.copy(), z.copy()
        hi[i] += step
        lo[i] -= step
        f_hi = cpbs.log_likelihood(data, cpbs.ModelParams(hi[:p], math.exp(hi[p])))
        f_lo = cpbs.log_likelihood(data, cpbs.ModelParams(lo[:p], math.exp(lo[p])))
        grad[i] = (f_hi - f_lo) / (2.0 * step)
    require(float(np.max(np.abs(grad))) <= 1e-2,
            f"{fit.method} estimate gradient {grad.tolist()} in (beta, log phi) is not near zero")


def check_methods_agree(em, direct) -> None:
    gap = float(np.max(np.abs(_theta(em.params) - _theta(direct.params))))
    require(gap <= 1e-4, f"EM and direct estimates differ by {gap!r}")
    require(abs(em.loglik - direct.loglik) <= 1e-6 * abs(direct.loglik),
            f"EM and direct logliks differ: {em.loglik!r} vs {direct.loglik!r}")


def check_fit_report(report: dict, exit_code: int, fit, data_hash: str, validator) -> None:
    validator.validate(report)
    converged = report["convergence"]["converged"]
    require(converged == fit.converged, "report convergence flag differs from the fit")
    require((exit_code == 0) == converged,
            f"cpbs fit exited {exit_code} for a fit with converged={converged}")
    require(exit_code in (0, 2), f"cpbs fit exited {exit_code}")
    require(report["data"]["hash"] == data_hash, "report data hash differs from the generated dataset")
    estimates = [c["estimate"] for c in report["coefficients"]] + [report["phi"]["estimate"]]
    require(estimates == fit.params.as_array().tolist(), "report estimates differ from the fit")


def load_validator(root: Path, name: str):
    import jsonschema

    schema = json.loads((root / "src" / "cpbs" / "schemas" / name).read_text(encoding="utf-8"))
    return jsonschema.Draft7Validator(schema)


# --- replicate loops ---------------------------------------------------------

def check_bootstrap(se, fit) -> None:
    se = np.asarray(se)
    require(np.all(np.isfinite(se)) and np.all(se > 0.0), f"bootstrap SEs not finite and positive: {se}")
    require(fit.boot_dropped <= 0.1 * fit.B, f"{fit.boot_dropped}/{fit.B} bootstrap replicates dropped")


def check_se_against_spread(ses, estimates, factor: float = 4.0) -> None:
    """Median bootstrap SE within ``factor`` of the spread of independent estimates."""
    se = np.median(np.asarray(ses), axis=0)
    spread = np.std(np.asarray(estimates), axis=0, ddof=1)
    ratio = se / spread
    require(np.all((ratio > 1.0 / factor) & (ratio < factor)),
            f"bootstrap SE / spread of cold-fit estimates = {ratio.tolist()}")


def check_diagnose(out_dir: Path, n: int) -> None:
    with open(out_dir / "envelope.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    bands = rows[1:-1]
    require(len(bands) == n, f"envelope.csv has {len(bands)} ranks for {n} observations")
    lo = np.array([float(r[2]) for r in bands])
    hi = np.array([float(r[3]) for r in bands])
    require(np.all(lo <= hi), "envelope band with lo > hi")
    coverage = float(rows[-1][1])
    require(coverage >= 0.9, f"envelope coverage {coverage} on model-simulated data")
    for name in ("residuals.csv", "gcd.csv"):
        with open(out_dir / name, newline="", encoding="utf-8") as fh:
            count = sum(1 for _ in fh) - 1
        require(count == n, f"{name} has {count} rows for {n} observations")


def check_mc(report: dict, estimates_csv: Path, truth: np.ndarray, validator) -> None:
    validator.validate(report)
    with open(estimates_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    est = np.array([[float(v) for v in r[1:]] for r in rows])
    require(est.shape[0] == report["n_used"], "estimates CSV row count differs from n_used")
    means = np.array([p["mean"] for p in report["parameters"]])
    require(np.allclose(means, est.mean(axis=0), rtol=1e-12, atol=0.0), "mc means differ from the estimates")
    # Student-t bound at a family-wise 0.1% level over the coordinates: with
    # a handful of replications the sample spread is itself uncertain
    n, k = est.shape
    mc_se = est.std(axis=0, ddof=1) / math.sqrt(n)
    bound = student_t.ppf(1.0 - 0.001 / (2 * k), n - 1)
    require(np.all(np.abs(means - truth) <= bound * mc_se),
            f"mc means {means.tolist()} more than {bound:.2f} Monte Carlo SEs {mc_se.tolist()} from the truth")
