"""Independent quadrature oracles for the test suite.

Everything here evaluates the defining integrals directly with adaptive
quadrature (relative tolerance 1e-12), never through the package's Bessel or
pmf code paths.  The integration variable is substituted t = e^u throughout
to tame both endpoints, and the integrand is rescaled by its scanned maximum
so the quadrature runs in a safe floating-point range.  Each log-integrand
takes a number or a numpy array of points, so the scan for that maximum is
one numpy evaluation over its grid.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

QUAD_OPTS = dict(limit=400, epsabs=0.0, epsrel=1e-12)


def _scaled_quad(log_f, lo, hi, n_scan=4001):
    grid = np.linspace(lo, hi, n_scan)
    logs = log_f(grid)
    i = int(np.argmax(logs))
    m = float(logs[i])
    peak = float(grid[i])
    pts = [p for p in (peak - 2.0, peak, peak + 2.0) if lo < p < hi]
    val, _ = quad(lambda v: math.exp(log_f(v) - m), lo, hi, points=pts, **QUAD_OPTS)
    return m + math.log(val)


def log_bessel_k_quad(lam: float, x: float) -> float:
    """log K_lam(x) from the integral 1/2 int u^(lam-1) exp(-x(u+1/u)/2) du.

    With u = e^v this is int_0^inf cosh(lam v) exp(-x cosh v) dv; the log of
    cosh is expanded so large orders stay in floating-point range.
    """
    lam = abs(lam)

    def log_f(v):
        return lam * v + np.log1p(np.exp(-2.0 * lam * v)) - math.log(2.0) - x * np.cosh(v)

    return _scaled_quad(log_f, 0.0, 60.0)


def bs_log_density_ref(t, phi):
    t = np.asarray(t, dtype=float)
    return (
        np.log(t**-0.5 + t**-1.5)
        - np.log(2.0 * math.sqrt(2.0 * math.pi) * phi)
        - (t + 1.0 / t - 2.0) / (2.0 * phi**2)
    )


def _log_mixture_integrand(u, y, mu, phi, s=0):
    """log of t^s prod_j Poisson(y_j; mu_j t) f_BS(t; phi) * t, at t = e^u."""
    u = np.asarray(u, dtype=float)
    t = np.exp(u)
    y = np.asarray(y)
    mu = np.asarray(mu, dtype=float)
    mu_t = mu * t[..., None]
    pois = np.sum(-mu_t + y * np.log(mu_t) - gammaln(y + 1.0), axis=-1)
    return s * u + pois + bs_log_density_ref(t, phi) + u  # + u: Jacobian


def log_mixture_integral_quad(y, mu, phi, s=0) -> float:
    """log int_0^inf t^s prod_j Poisson(y_j; mu_j t) f_BS(t; phi) dt."""
    return _scaled_quad(lambda u: _log_mixture_integrand(u, y, mu, phi, s), -45.0, 45.0)


def cluster_log_pmf_quad(y, mu, phi) -> float:
    """Oracle for the joint cluster pmf."""
    return log_mixture_integral_quad(y, mu, phi, s=0)


def conditional_moment_quad(y, mu, phi, s) -> float:
    """Oracle for E(T^s | y): ratio of two mixture integrals."""
    return math.exp(
        log_mixture_integral_quad(y, mu, phi, s=s) - log_mixture_integral_quad(y, mu, phi, s=0)
    )


def gig_log_normalizer_quad(a, b, alpha) -> float:
    """log int_0^inf z^(alpha-1) exp(-(a z + b / z) / 2) dz via z = e^u."""

    def log_f(u):
        z = np.exp(u)
        return alpha * u - 0.5 * (a * z + b / z)

    return _scaled_quad(log_f, -60.0, 60.0)


def bs_cdf_grid(phi: float, n_grid: int = 4001):
    """Numerical CDF of the BS law on a dense grid, by cumulative quadrature.

    Returns (t grid, cdf values); the grid is dense enough that interpolation
    error sits far below any KS threshold used in the tests.
    """
    u = np.linspace(-12.0 * phi - 4.0, 12.0 * phi + 4.0, n_grid)
    t = np.exp(u)
    dens_u = np.exp(bs_log_density_ref(t, phi)) * t  # density in u after t = e^u
    cdf = np.concatenate([[0.0], np.cumsum((dens_u[1:] + dens_u[:-1]) * 0.5 * np.diff(u))])
    cdf /= cdf[-1]
    return t, cdf
