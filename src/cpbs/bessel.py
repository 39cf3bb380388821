"""Log-space modified Bessel K at half-integer orders, and GIG helpers.

The joint probability function of a cluster of counts mixes Poisson kernels
against a Birnbaum-Saunders random effect; the mixing integrals reduce to
generalized inverse Gaussian (GIG) normalizing constants,

    integral_0^inf z^(alpha-1) exp{-(a z + b/z)/2} dz
        = 2 (b/a)^(alpha/2) K_alpha(sqrt(a b)),

where ``K_alpha`` is the modified Bessel function of the third kind.  Because
the counts are integers, every order that arises is a half-integer, for which
K has the closed form seed

    K_{1/2}(x) = sqrt(pi / (2 x)) exp(-x)

together with the forward recurrence

    K_{lam+1}(x) = K_{lam-1}(x) + (2 lam / x) K_lam(x),

which is stable in the direction of increasing order.  Orders grow with the
cluster count totals (easily into the hundreds), where K itself overflows any
floating-point format, so everything here is carried in a log-scaled
representation and K is never materialized.

The exponentially scaled variant ``log(K_lam(x) * e^x)`` is also exposed: the
likelihood pairs ``K_lam(omega)`` with a prefactor ``e^(1/phi^2)`` whose
difference ``1/phi^2 - omega`` is tiny relative to either term, and the scaled
form lets callers perform that cancellation analytically.

These are the scalar API for one order and one argument at a time.  The
likelihood does not go through them: ``cpbs.model`` evaluates all clusters
at once from the finite series, and the tests use the table here as an
independent oracle for that kernel.  ``conditional_moment`` reads the table
for moment orders beyond the kernel's shifts -2..2.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_bessel_k_half",
    "log_bessel_k_half_scaled",
    "log_bessel_k_half_scaled_table",
    "log_gig_normalizer",
    "log_gig_moment",
]

_LOG_HALF_PI = math.log(math.pi / 2.0)


def _half_integer_index(order: float) -> int:
    """Map a half-integer order to m >= 0 with |order| = m + 1/2.

    Uses the symmetry K_{-lam} = K_lam.  Raises ValueError for orders that
    are not exact half-integers (integer and general real orders are outside
    the supported domain).
    """
    doubled = 2.0 * abs(float(order))
    rounded = round(doubled)
    if rounded % 2 != 1 or doubled != rounded:
        raise ValueError(f"order must be a half-integer (got {order!r})")
    return (rounded - 1) // 2


def _check_positive_x(x: float) -> float:
    x = float(x)
    if not (x > 0.0) or not math.isfinite(x):
        raise ValueError(f"argument x must be positive and finite (got {x!r})")
    return x


def log_bessel_k_half_scaled_table(m_max: int, x: float) -> np.ndarray:
    """All scaled orders up to m_max in one recurrence pass.

    Returns the array ``L`` with ``L[m] = log(K_{m+1/2}(x) * e^x)`` for
    m = 0, ..., m_max.  A single pass serves every order a cluster needs
    (the two likelihood terms plus the four order shifts of the posterior
    moments), since they are consecutive half-integers.
    """
    x = _check_positive_x(x)
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    out = np.empty(m_max + 1)
    # K~_{1/2}(x) = sqrt(pi/(2x)); the e^x scaling removes the exp(-x) seed.
    out[0] = 0.5 * (_LOG_HALF_PI - math.log(x))
    if m_max == 0:
        return out
    prev = out[0]  # log K~ at order m - 1/2, via K_{-1/2} = K_{1/2} for m=1
    cur = out[0]
    for m in range(1, m_max + 1):
        lam = m - 0.5  # recurrence advances from order lam to lam + 1
        nxt = cur + math.log(2.0 * lam / x + math.exp(prev - cur))
        out[m] = nxt
        prev, cur = cur, nxt
    return out


def log_bessel_k_half_scaled(order: float, x: float) -> float:
    """log(K_order(x) * e^x) for half-integer order."""
    m = _half_integer_index(order)
    return float(log_bessel_k_half_scaled_table(m, x)[m])


def log_bessel_k_half(order: float, x: float) -> float:
    """log K_order(x) for half-integer order and x > 0.

    Exact for order +-1/2 by the spherical closed form; higher orders by the
    forward recurrence carried in log scale.  Negative orders use the
    symmetry K_{-lam} = K_lam.
    """
    return log_bessel_k_half_scaled(order, x) - float(x)


def log_gig_normalizer(a: float, b: float, alpha: float) -> float:
    """Log normalizing integral of the GIG(a, b, alpha) kernel.

    Computes ``log[ 2 (b/a)^(alpha/2) K_alpha(sqrt(a b)) ]``, the log of
    ``integral_0^inf z^(alpha-1) exp{-(a z + b/z)/2} dz``, for a, b > 0 and
    half-integer alpha (the only orders the count model produces).
    """
    a = float(a)
    b = float(b)
    if not (a > 0.0) or not (b > 0.0):
        raise ValueError(f"GIG parameters require a > 0 and b > 0 (got a={a!r}, b={b!r})")
    return (
        math.log(2.0)
        + 0.5 * float(alpha) * (math.log(b) - math.log(a))
        + log_bessel_k_half(alpha, math.sqrt(a * b))
    )


def log_gig_moment(a: float, b: float, alpha: float, s: int) -> float:
    """log E[Z^s] for Z ~ GIG(a, b, alpha), integer s.

    The moment shifts the order: E[Z^s] is the ratio of the normalizers at
    alpha + s and alpha.
    """
    s = int(s)
    if s == 0:
        return 0.0
    return log_gig_normalizer(a, b, alpha + s) - log_gig_normalizer(a, b, alpha)
