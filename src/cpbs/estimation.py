"""Maximum-likelihood fitting: one certified Newton loop, and the bootstrap.

The EM pieces exploit the closed-form posterior moments of the latent
cluster effects.  Writing delta_k = E(T_k | counts) and gamma_k =
E(T_k^-1 | counts), the expected complete-data log-likelihood ("Q-function")
separates: the regression coefficients solve a Poisson score with
cluster-shared offsets log(delta_k),

    sum_kj (y_kj - delta_k mu_kj) x_kj = 0,

handled by iteratively reweighted least squares, and the dispersion update
is closed form,

    phi = sqrt( mean_k(delta_k + gamma_k) - 2 ),

non-negative by Cauchy-Schwarz on the posterior.  The fits take no EM step:
one vectorized Bessel pass over all clusters yields the log-likelihood and
the posterior moments together; by the Fisher identity
grad l(theta) = grad Q(theta | theta), those moments give the exact score, so
no derivative is taken numerically.

``em_fit`` and ``direct_ml_fit`` run one loop and return the same fit: guarded
Newton steps on the exact observed information.  The same pass, taken over
order shifts -2..2, also gives E(T^2 | y) and E(T^-2 | y), and Louis'
identity turns them into the observed Hessian in (beta, phi).  A fit is
certified when that Hessian is negative definite and the Newton decrement
g'(-H)^-1 g is at most ``EmConfig.epsilon``; at the dispersion floor, the
certificate is the KKT condition of the bound.  Where a Newton step cannot
be trusted, the loop takes one on the Hessian with its eigenvalues made
negative, halved down to rounding; if none of its halvings rises, it stops.

The loop is written once, as a generator (``_certified_fit``) of one
request per trial point: its parameters, the log-likelihood it must reach
and whether it wants the Louis assembly.  ``_trials`` answers with the
point's Bessel pass, the accept test and, for a trial that stands and asks
for it, the Louis assembly from the same pass.  The Newton step and the
Poisson-GLM start's IRLS (``m_step_beta``) are plain calls inside the loop.
``_run`` drives many generators over datasets of one design in lock-step,
answering all pending requests with one stacked ``_trials``, in which each
dataset gets the bits of its own; ``_drive`` is ``_run`` over one
generator, for ``em_fit`` and ``direct_ml_fit``.

Standard errors come from a parametric bootstrap; the observed information
serves only the Newton finish.  B datasets are simulated at the fitted
parameters with the original design and cluster sizes, each refit, and
per-coordinate sample standard deviations reported.  The bootstrap, the
envelopes and the Monte Carlo study share one replicate loop,
``_refit_replicates``, which refits fixed-size chunks of replicates by
``_run``; a chunk never changes a result, so every replicate keeps the fit
``em_fit`` gives it alone, whatever the chunks and the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _util
from .bessel import log_bessel_k_half_scaled_table
from .data import PHI_FLOOR, ClusteredDataset, ModelParams, _Replicates
from .exceptions import BootstrapFailureError, CpbsError, MStepConvergenceError, RankDeficiencyError
from .model import _canonical_cluster_stats, _cluster_pass, _cluster_passes, _log_brackets, _means, _one_cluster
from .simulate import simulate_responses

__all__ = [
    "ConditionalMoments",
    "EmConfig",
    "FitResult",
    "conditional_moment",
    "posterior_moments",
    "q_function",
    "q_score_beta",
    "q_score_phi",
    "m_step_beta",
    "m_step_phi",
    "em_fit",
    "direct_ml_fit",
    "bootstrap_se",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_MAX_HALVINGS = 10  # a Newton step that still lowers the log-likelihood at 1/1024 gives way to the modified step
# a bound on the absolute rounding of the posterior moments E(T^s | y) near
# phi -> 0; against 60-digit sums the kernel's worst is 2.2e-16 there
_MOMENT_ROUNDING = 2e-15
_EIGEN_FLOOR = 1e-8  # the modified Newton step bounds each curvature below by this share of the largest


@dataclass(frozen=True)
class ConditionalMoments:
    """Posterior moments per cluster, aligned with ``data.clusters`` order."""

    delta: np.ndarray  # E(T_k | y)
    gamma: np.ndarray  # E(T_k^-1 | y)

    def __post_init__(self):
        delta = np.atleast_1d(np.asarray(self.delta, dtype=np.float64))
        gamma = np.atleast_1d(np.asarray(self.gamma, dtype=np.float64))
        if delta.shape != gamma.shape:
            raise ValueError("delta and gamma must have the same length")
        if np.any(delta <= 0.0) or np.any(gamma <= 0.0):
            raise ValueError("posterior moments must be positive")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "gamma", gamma)


@dataclass(frozen=True)
class EmConfig:
    """Controls of both fits, ``em_fit`` and ``direct_ml_fit``.

    ``epsilon`` is the tolerance on the Newton decrement g'(-H)^-1 g, twice
    the log-likelihood gain a last Newton step would still predict;
    ``max_iter`` bounds the iterations, one Bessel pass at each iterate.
    """

    epsilon: float = 1e-8
    max_iter: int = 500
    init: object = "poisson-glm"  # or a ModelParams

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite (got {self.epsilon!r})")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (isinstance(self.init, ModelParams) or self.init in ("poisson-glm", None)):
            raise ValueError(f"unknown initialization {self.init!r}")


@dataclass
class FitResult:
    params: ModelParams
    loglik: float
    loglik_trace: np.ndarray
    iterations: int
    converged: bool
    method: str
    se: np.ndarray | None = None
    B: int | None = None
    boot_dropped: int | None = None
    phi_at_floor: bool = False
    message: str = ""


def conditional_moment(y, mu, phi: float, s: int) -> float:
    """E(T_k^s | cluster counts) for one cluster and any integer s.

    The moment is a ratio of two two-term log-sum-exp expressions whose
    orders are shifted by s; the common prefactor cancels analytically
    before anything is evaluated.  The shifts -2..2 come from the
    likelihood kernel; others from the recurrence table up to order y + |s|.
    """
    y, mu, phi = _one_cluster(y, mu, phi)
    s = int(s)
    if s == 0:
        return 1.0
    y_tot = y.sum(keepdims=True)
    if abs(s) <= 2:
        return math.exp(_log_brackets(y_tot, mu.sum(keepdims=True), phi)[1][0, s + 2])
    return math.exp(_table_log_moment(int(y_tot[0]), float(mu.sum()), phi, s))


def _table_log_moment(y_tot: int, mu_tot: float, phi: float, s: int) -> float:
    """log E(T^s | y) = B(s) - B(0) from one recurrence table; B as in ``_log_brackets``."""
    phi2 = phi * phi
    log_c = math.log1p(2.0 * phi2 * mu_tot)
    # the orders t +- 1/2 are half-integers, so int(|order|) is the table index
    table = log_bessel_k_half_scaled_table(max(abs(y_tot + s), y_tot), math.sqrt(1.0 + 2.0 * phi2 * mu_tot) / phi2)

    def bracket(t):
        return np.logaddexp(*(table[int(abs(o))] - 0.5 * o * log_c for o in (t + 0.5, t - 0.5)))

    return float(bracket(y_tot + s) - bracket(y_tot))


def posterior_moments(data: ClusteredDataset, params: ModelParams) -> ConditionalMoments:
    """delta_k and gamma_k for every cluster at the given parameters."""
    logm = _cluster_pass(data, params)[1]
    given = np.argsort(data.canonical.cluster_order)  # the canonical position of each cluster in given order
    return ConditionalMoments(np.exp(logm[given, 3]), np.exp(logm[given, 1]))


def q_function(data: ClusteredDataset, params: ModelParams, moments: ConditionalMoments) -> float:
    """Expected complete-data log-likelihood at ``params`` given fixed moments.

    Uses the same additive-constants convention as :func:`cpbs.model.log_likelihood`
    (the sqrt(2 pi) phi normalizer and log-factorials are included), so EM
    progress and observed log-likelihood values live on comparable scales.
    """
    _, mu_tot, ylogmu = _canonical_cluster_stats(data, params)
    canon = data.canonical
    order = canon.cluster_order
    phi = params.phi
    inv2p2 = 0.5 / (phi * phi)
    const = 1.0 / (phi * phi) - math.log(phi) - _LOG_SQRT_2PI
    parts = const + ylogmu - canon.lgamma - (mu_tot + inv2p2) * moments.delta[order] - inv2p2 * moments.gamma[order]
    return math.fsum(parts.tolist())


def q_score_beta(data: ClusteredDataset, params: ModelParams, delta: np.ndarray) -> np.ndarray:
    """Analytic Q-function score for the coefficients:

        dQ/dbeta_l = sum_kj (y_kj - delta_k mu_kj) x_kjl.
    """
    canon = data.canonical
    delta_c = np.asarray(delta, dtype=np.float64)[canon.cluster_order]
    mu = _means(canon.X, params.beta)
    w = np.repeat(delta_c, canon.sizes) * mu
    return canon.X.T @ (canon.y - w)


def q_score_phi(params: ModelParams, moments: ConditionalMoments) -> float:
    """dQ/dphi = sum_k { (delta_k + gamma_k - 2)/phi^3 - 1/phi }."""
    phi = params.phi
    s = float(np.sum(moments.delta + moments.gamma - 2.0))
    q = moments.delta.shape[0]
    return s / phi**3 - q / phi


def m_step_beta(
    data: ClusteredDataset,
    delta: np.ndarray,
    beta_init: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> np.ndarray:
    """Coefficient update: Poisson IRLS with per-observation offset log(delta_k).

    Solves sum_kj (y_kj - delta_k mu_kj) x_kj = 0 to ``tol`` in the score
    max-norm.  Raises RankDeficiencyError if the weighted normal equations
    are singular, MStepConvergenceError (carrying the last iterate) if the
    inner loop does not converge.  A plain call per fit: the lock-step of
    ``_run`` does not stack it.
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=np.float64))
    if delta.shape != (data.q,) or np.any(delta <= 0.0):
        raise ValueError("delta must hold one positive value per cluster")
    canon = data.canonical
    offset = np.repeat(np.log(delta[canon.cluster_order]), canon.sizes)
    X, y = canon.X, canon.y
    beta = np.asarray(beta_init, dtype=np.float64).copy()
    if beta.shape != (data.p,):
        raise ValueError(f"beta_init must have length p={data.p}")

    def poisson_ll(b):
        eta = X @ b + offset
        with np.errstate(over="ignore"):
            w = np.exp(eta)
        if not np.isfinite(w).all():
            return -np.inf, None
        return float(y @ eta - w.sum()), w

    ll, w = poisson_ll(beta)
    if not math.isfinite(ll):
        raise MStepConvergenceError("non-finite objective at beta_init", beta_last=beta)
    for _ in range(max_iter):
        score = X.T @ (y - w)
        if float(np.abs(score).max()) <= tol:
            return beta
        try:
            step = np.linalg.solve(X.T @ (X * w[:, None]), score)
        except np.linalg.LinAlgError:
            raise RankDeficiencyError("singular weighted normal equations in the M-step") from None
        # Newton with step halving.  The objective guard only matters for
        # large overshooting steps; near the optimum the predicted gain sits
        # below the objective's rounding noise, so small steps are accepted
        # outright (the log-link objective is concave, Newton contracts).
        beta_scale = 1.0 + float(np.abs(beta).max())
        slack = 1e-12 * (1.0 + abs(ll))
        improved = False
        for _half in range(60):
            cand = beta + step
            small = float(np.abs(step).max()) <= 1e-6 * beta_scale
            ll_new, w_new = poisson_ll(cand)
            if math.isfinite(ll_new) and (small or ll_new >= ll - slack):
                beta, ll, w = cand, ll_new, w_new
                improved = True
                break
            step *= 0.5
        if not improved or float(np.abs(step).max()) <= 4e-16 * beta_scale:
            # parameter fixed point at machine precision; accept if the
            # score is already at its rounding floor
            score = X.T @ (y - w)
            if float(np.abs(score).max()) <= 1e-6:
                return beta
            raise MStepConvergenceError("M-step stalled before reaching tolerance", beta_last=beta)
    score = X.T @ (y - w)
    if float(np.abs(score).max()) <= 1e-6:
        return beta
    raise MStepConvergenceError(
        f"M-step did not converge in {max_iter} iterations", beta_last=beta
    )


def m_step_phi(moments: ConditionalMoments) -> float:
    """Closed-form dispersion update phi = sqrt(mean_k(delta_k + gamma_k) - 2).

    The argument is non-negative because delta_k * gamma_k >= 1 per cluster;
    a materially negative value indicates an upstream numerical fault and
    raises ValueError.  The result is clamped to the dispersion floor.
    """
    mean_sum = float(np.mean(moments.delta + moments.gamma))
    if not mean_sum >= 2.0 - 1e-8:
        raise ValueError("posterior moments violate delta + gamma >= 2")
    return max(math.sqrt(max(mean_sum - 2.0, 0.0)), PHI_FLOOR)


def _poisson_glm_init(data: ClusteredDataset) -> ModelParams:
    """Plain Poisson fit ignoring clustering, plus method-of-moments dispersion.

    The fit is ``m_step_beta`` with unit offsets, a plain call looked up by
    its module name.  The dispersion start matches the pooled Pearson
    overdispersion statistic to the model's variance function and is clamped
    to [0.05, 5].  Means that underflow or overflow (separated zeros) raise
    MStepConvergenceError.
    """
    beta = m_step_beta(data, np.ones(data.q), np.zeros(data.p), tol=1e-8)
    canon = data.canonical
    try:
        mu = _means(canon.X, beta)
    except ValueError:
        raise MStepConvergenceError("the Poisson-GLM start's means underflow or overflow", beta_last=beta) from None
    num = float(np.sum((canon.y - mu) ** 2 - mu))
    den = float(np.sum(mu**2))
    c = max(num / den, 0.0) if den > 0 else 0.0
    # solve phi^2 (1 + 5 phi^2 / 4) = c for phi^2
    phi2 = 0.4 * (math.sqrt(1.0 + 5.0 * c) - 1.0)
    phi0 = min(max(math.sqrt(max(phi2, 0.0)), 0.05), 5.0)
    return ModelParams(beta=beta, phi=phi0)


@dataclass(frozen=True)
class _Pass:
    """The log-likelihood, exact score and observed Hessian at one iterate.

    Score and Hessian are in (beta, phi); delta and gamma are the posterior
    moments E(T | y) and E(1/T | y) in canonical cluster order.  A pass
    formed for its log-likelihood alone carries None for the other four.
    """

    params: ModelParams
    loglik: float
    score: np.ndarray | None = None
    hessian: np.ndarray | None = None
    delta: np.ndarray | None = None
    gamma: np.ndarray | None = None


def _louis_pass(data: ClusteredDataset, params: ModelParams) -> _Pass:
    """One Bessel pass at shifts -2..2: the log-likelihood, exact score and Hessian."""
    return _drive(data, _full_pass(params))


def _full_pass(params: ModelParams):
    """A generator that requests the pass at ``params`` with its Louis assembly, and returns the ``_Pass``."""
    return (yield params, None, False, True)


def _trials(reps: _Replicates, rows: list, requests: list) -> list:
    """The answers to requests (params, floor, strict, louis) of datasets ``rows`` of ``reps``.

    One stacked Bessel pass (``model._cluster_passes``) gives each trial
    point its log-likelihood; the trial stands if that reaches ``floor``,
    or passes it if ``strict``, and always if ``floor`` is None.  The answer
    is the exception of a pass that fails, None for a trial that falls, and
    the ``_Pass`` of one that stands: with the exact score and observed
    Hessian if ``louis``, and its log-likelihood alone if not.

    The Louis assembly reads its rows of the pass's stacked arrays.  With
    s_k = sum_j mu_kj x_kj and A = T + 1/T - 2, Louis' identity gives the
    observed Hessian as the posterior mean of the complete-data Hessian plus
    the posterior variance of the complete-data score:

        H_bb = -sum_k delta_k sum_j mu x x' + sum_k Var(T) s_k s_k'
        H_bp = -sum_k s_k Cov(T, A) / phi^3
        H_pp = sum_k [1/phi^2 - 3 E(A)/phi^4 + Var(A)/phi^6]

    E(T^2 | y) and E(T^-2 | y) come from order shifts +-2 of the same pass.
    The variances are formed from log-moment differences through expm1, so
    they keep their relative accuracy when the posterior is tight.

    Near the floor a cluster's dispersion terms come from the small-phi
    expansion instead.  Its log-likelihood is even and smooth in phi,
    l_k = l_k0 + b_k phi^2 + c_k phi^4 + O(phi^6), where, with cluster totals
    y_k and M_k = sum_j mu_kj and r_k = y_k - M_k,

        b_k = (r_k^2 - M_k) / 2
        c_k = M_k^2 / 4 - M_k r_k / 2 - (M_k / 2 + 1/8) r_k^2

    (expand T = 1 + phi Z + phi^2 Z^2 / 2 + phi^3 Z^3 / 8 + O(phi^5),
    Z ~ N(0, 1), inside log E[T^y_k exp(-M_k (T - 1))]).  The moment form
    of the score needs E(A) - phi^2 to O(phi^4), and that of H_pp needs
    Var(A) to O(phi^6).  With the moments' absolute rounding e (at most
    _MOMENT_ROUNDING), the moment form's relative error is about
    e / (phi^4 M_k) in the score and e / (phi^6 M_k) in H_pp, against
    (phi^2 M_k)^2 for the expansion.  So each cluster takes the form with
    the smaller error: the expansion for its score term where
    phi^8 M_k^3 <= e, and for its Hessian terms where phi^10 M_k^3 <= e.
    The expansion's arrays are formed only when some cluster takes it.

    The datasets are assembled side by side: each one's products with X are
    its own calls, and everything else is elementwise, reduces one
    dataset's values as its own assembly does, or is a stack of small
    matrix products that BLAS forms one matrix at a time.  The powers of phi
    stay Python floats per dataset; one that overflows fails its dataset
    with the OverflowError.
    """
    lls, logm, mu, m = _cluster_passes(reps, rows, [request[0] for request in requests])
    out, kept, powers = list(lls), [], []
    for j, (ll, (params, floor, strict, louis)) in enumerate(zip(lls, requests)):
        if isinstance(ll, Exception):
            continue
        if not (floor is None or (ll > floor if strict else ll >= floor)):
            out[j] = None
        elif not louis:
            out[j] = _Pass(params, ll)
        else:
            phi = params.phi
            try:
                powers.append((phi, phi**2, phi**3, phi**4, phi**6, phi**8, phi**10))
                kept.append(j)
            except OverflowError as e:
                out[j] = e
    if not kept:
        return out
    # one dataset's powers stay numbers; several are spread over their clusters
    if len(kept) > 1:
        q = reps.y_tot.shape[1]
        powers = [np.array(powers).T.repeat(q, axis=1).reshape(7, -1, q)]
    phi, phi_2, phi_3, phi_4, phi_6, phi_8, phi_10 = powers[0]
    at = slice(None) if len(kept) == len(rows) else kept  # a slice takes every row without a copy
    sub = [rows[j] for j in kept]
    lm_m2, lm_m1, _, lm_1, lm_2 = logm.transpose(2, 0, 1)[:, at]
    mu, m = mu[at], m[at]
    delta, gamma = np.exp(lm_1), np.exp(lm_m1)
    var_t = delta * delta * np.expm1(lm_2 - 2.0 * lm_1)
    var_inv = gamma * gamma * np.expm1(lm_m2 - 2.0 * lm_m1)
    cov_t_inv = -np.expm1(lm_1 + lm_m1)
    e_a = np.expm1(lm_1) + np.expm1(lm_m1)
    var_a = var_t + var_inv + 2.0 * cov_t_inv
    cov_ta = var_t + cov_t_inv

    w = np.repeat(delta, reps.sizes, axis=1) * mu
    X_t = reps.X_t if reps.X_t.ndim == 2 else reps.X_t[sub]
    s = np.ascontiguousarray(np.add.reduceat(X_t * mu[:, None, :], reps.starts, axis=2).transpose(0, 2, 1))
    # the expansion may overflow where the means are huge; it is not taken there
    with np.errstate(over="ignore", invalid="ignore"):
        m3 = m**3
        score_series = phi_8 * m3 <= _MOMENT_ROUNDING
        g_phi = (e_a - phi * phi) / phi_3
        series = phi_10 * m3 <= _MOMENT_ROUNDING
        h_bp = -cov_ta / phi_3
        h_pp = 1.0 / phi_2 - 3.0 * e_a / phi_4 + var_a / phi_6
        if score_series.any() or series.any():
            r = reps.y_tot[sub] - m
            b = 0.5 * (r * r - m)
            c = 0.25 * m * m - 0.5 * m * r - (0.5 * m + 0.125) * r * r
            db_dm = -(r + 0.5)
            dc_dm = m + (m - 0.25) * r - 0.5 * r * r
            g_phi = np.where(score_series, 2.0 * phi * b + 4.0 * phi_3 * c, g_phi)
            h_bp = np.where(series, 2.0 * phi * db_dm + 4.0 * phi_3 * dc_dm, h_bp)
            h_pp = np.where(series, 2.0 * b + 12.0 * phi_2 * c, h_pp)

    p = reps.p
    s_t = s.transpose(0, 2, 1)
    score, hessian = np.empty((len(sub), p + 1)), np.empty((len(sub), p + 1, p + 1))
    score[:, p] = g_phi.sum(axis=1)
    hessian[:, :p, p] = hessian[:, p, :p] = np.matmul(s_t, h_bp[..., None])[..., 0]
    hessian[:, p, p] = h_pp.sum(axis=1)
    s_var_s = np.matmul(s_t, s * var_t[..., None])
    y_w = (reps.y[sub] if len(sub) < len(reps.views) else reps.y) - w
    for k, (j, row) in enumerate(zip(kept, sub)):
        X = reps.views[row].X
        score[k, :p] = X.T @ y_w[k]
        hessian[k, :p, :p] = s_var_s[k] - X.T @ (X * w[k][:, None])
        out[j] = _Pass(requests[j][0], lls[j], score[k], hessian[k], delta[k], gamma[k])
    return out


def _run(reps: _Replicates, fits: list) -> list:
    """Run the generators ``fits``, one per dataset of ``reps``, in lock-step.

    A generator yields one request at a time, a trial point, and each round
    answers every pending request with one ``_trials`` evaluation; an
    answer that is an exception is thrown into its generator.  Every answer
    has the bits it would have alone, so each generator takes the path it
    takes when it is run alone.  Everything else a fit computes (its Newton
    steps, the IRLS of its Poisson start) is a plain call inside the
    generator.  Returns per generator what it returns, or the exception it
    raises.
    """
    results = [None] * len(fits)

    def advance(r, answer=None):  # generator r's next request, or None once it has ended
        try:
            return fits[r].throw(answer) if isinstance(answer, Exception) else fits[r].send(answer)
        except StopIteration as stop:
            results[r] = stop.value
        except Exception as e:  # this fit's own error is its result; the others go on
            results[r] = e

    requests = [advance(r) for r in range(len(fits))]
    while rows := [r for r, request in enumerate(requests) if request is not None]:
        for r, answer in zip(rows, _trials(reps, rows, [requests[r] for r in rows])):
            requests[r] = advance(r, answer)
    return results


def _drive(data: ClusteredDataset, fit):
    """Run the generator ``fit`` over ``data`` alone by ``_run``: what it returns, or raise what it raises."""
    result = _run(_Replicates([data]), [fit])[0]
    if isinstance(result, Exception):
        raise result
    return result


def _newton_step(score: np.ndarray, hessian: np.ndarray, free: np.ndarray):
    """The Newton step on the free coordinates and its decrement, or None.

    None when the free block of the Hessian is not negative definite.  The
    decrement g'(-H)^-1 g is twice the gain the local quadratic predicts.
    """
    free = slice(None) if free.all() else free  # a slice indexes without copying
    g = score[free]
    try:
        chol = np.linalg.cholesky(-hessian[free][:, free])
    except np.linalg.LinAlgError:
        return None
    step = np.zeros_like(score)
    step[free] = np.linalg.solve(chol.T, np.linalg.solve(chol, g))
    return step, float(g @ step[free])


def _psi_chart(cur: _Pass):
    """Score and Hessian in (beta, psi = phi^2).

    The log-likelihood is concave in psi where it is convex in phi below an
    interior dispersion optimum (b > 0 > c in the small-phi expansion), so
    this chart takes over where the Hessian in phi is not negative definite.
    """
    phi = cur.params.phi
    g, h = cur.score.copy(), cur.hessian.copy()
    g[-1] = cur.score[-1] / (2.0 * phi)
    h[:-1, -1] = h[-1, :-1] = cur.hessian[:-1, -1] / (2.0 * phi)
    h[-1, -1] = (cur.hessian[-1, -1] - cur.score[-1] / phi) / (4.0 * phi * phi)
    return g, h


def _try_step(cur: _Pass, step: np.ndarray, psi: bool, halvings: int, strict=False, louis=True):
    """The pass at the first of step, step/2, ... where the log-likelihood does not fall.

    A generator that requests each trial point in turn, with the
    log-likelihood of ``cur`` as the floor it must reach, and returns the
    ``_Pass`` of the first that stands.  The last coordinate of ``step``
    moves phi, or psi = phi^2 if ``psi``, and the dispersion is projected
    onto phi >= PHI_FLOOR; with ``strict`` a tie counts as a fall.  A
    trial is judged on its log-likelihood alone: the score and Hessian are
    formed only for the trial that stands, and only if ``louis``.  None if
    every trial falls or leaves the model's domain, where a domain error in
    that score or Hessian fails the trial too.
    """
    beta, phi = cur.params.beta, cur.params.phi
    for _ in range(halvings + 1):
        if psi:
            phi_new = math.sqrt(max(phi * phi + step[-1], PHI_FLOOR * PHI_FLOOR))
        else:
            phi_new = max(phi + step[-1], PHI_FLOOR)
        try:
            nxt = yield ModelParams(beta=beta + step[:-1], phi=phi_new), cur.loglik, strict, louis
            if nxt is not None:
                return nxt
        except (ValueError, OverflowError, FloatingPointError):
            pass
        step = 0.5 * step
    return None


def _modified_newton_step(cur: _Pass, free: np.ndarray):
    """A Newton step on the free coordinates with -H made positive definite.

    The eigenvalues of -H are replaced by their absolute values, floored at
    _EIGEN_FLOOR times the largest, so the step rises along the score but can
    be a thousand units long.  It is projected as a Newton step is, and
    halved until its largest coordinate falls below eps * (1 + max|theta|),
    where the iterate stops moving.  A generator, as ``_try_step`` is; it
    returns None if no halving strictly rises.
    """
    w, v = np.linalg.eigh(-cur.hessian[np.ix_(free, free)])
    w = np.maximum(np.abs(w), _EIGEN_FLOOR * np.abs(w).max())
    step = np.zeros_like(cur.score)
    step[free] = v @ ((v.T @ cur.score[free]) / w)
    rounding = np.finfo(np.float64).eps * (1.0 + np.abs(cur.params.as_array()).max())
    # frexp(x)[1] - 1 = floor(log2 x): the halvings that keep the step at or above the rounding
    halvings = math.frexp(float(np.abs(step).max()) / rounding)[1] - 1
    return (yield from _try_step(cur, step, psi=False, halvings=halvings, strict=True))


def _certified_fit(data: ClusteredDataset, config: EmConfig | None, method: str):
    """The guarded Newton loop on the exact observed information that both fits run.

    A generator of requests (see ``_run``) that returns the FitResult.  The
    loop starts at ``config.init``.  Each trial point costs one Bessel
    pass, which gives its log-likelihood; the exact score and the Louis
    Hessian in (beta, phi) are formed from that pass only for the iterate
    the loop moves to.  The free coordinates are (beta, phi), or
    beta alone when phi sits at PHI_FLOOR with a non-positive dispersion
    slope (the KKT condition of the bound).  If the free Hessian is negative
    definite, the iteration takes the Newton step, projected onto
    phi >= PHI_FLOOR and halved up to _MAX_HALVINGS times until the
    log-likelihood does not fall.  Where it is not, the same is tried in
    (beta, phi^2), in which the likelihood is concave below a small interior
    dispersion optimum.  Failing both, or if halving fails, the iteration
    takes ``_modified_newton_step``, and the fit stops if that finds no rise.

    The fit is certified, and ``converged`` set, when the free Hessian is
    negative definite and the Newton decrement g'(-H)^-1 g is at most
    ``config.epsilon``; that last Newton step is then taken if the
    log-likelihood does not fall, and no score or Hessian is formed there.
    After ``config.max_iter`` iterations without a certificate, or when the
    modified Newton step finds no rise, non-convergence is flagged.  The observed log-likelihood is recorded at
    every iterate, plus once at the returned estimate, and is non-decreasing
    along the path.  ``method`` only labels the result.
    """
    config = EmConfig() if config is None else config
    data.assert_full_rank()
    p = data.p
    start = config.init if isinstance(config.init, ModelParams) else _poisson_glm_init(data)
    cur = yield from _full_pass(start)
    trace = []
    converged = False
    message = "max_iter reached before the Newton decrement tolerance"
    for r in range(config.max_iter):
        trace.append(cur.loglik)
        free = np.ones(p + 1, dtype=bool)
        free[p] = not (cur.params.phi <= PHI_FLOOR and cur.score[p] <= 0.0)
        psi = False
        newton = _newton_step(cur.score, cur.hessian, free)
        if newton is None and free[p]:
            psi = True
            newton = _newton_step(*_psi_chart(cur), free)
        if newton is not None:
            step, decrement = newton
            if decrement <= config.epsilon:
                converged = True
                cur = (yield from _try_step(cur, step, psi, halvings=0, louis=False)) or cur
                break
            nxt = yield from _try_step(cur, step, psi, halvings=_MAX_HALVINGS)
            if nxt is not None:
                cur = nxt
                continue
        nxt = yield from _modified_newton_step(cur, free)
        if nxt is None:
            message = "the modified Newton step lowered or kept the log-likelihood at every halving"
            break
        cur = nxt
    trace.append(cur.loglik)
    at_floor = bool(cur.params.phi <= PHI_FLOOR * (1.0 + 1e-3))
    if converged:
        message = "dispersion at floor (effectively Poisson)" if at_floor else ""
    return FitResult(
        params=cur.params,
        loglik=cur.loglik,
        loglik_trace=np.array(trace),
        iterations=r + 1,
        converged=converged,
        method=method,
        phi_at_floor=at_floor,
        message=message,
    )


def em_fit(data: ClusteredDataset, config: EmConfig | None = None) -> FitResult:
    """Fit by ``_certified_fit`` on the E-step's Louis Hessian; ``method="em"``.

    The fit equals ``direct_ml_fit``'s bit for bit.  It takes no EM step: EM
    steps crawl where the likelihood is not concave, and there the loop takes
    the modified Newton step, halved down to rounding, instead.
    """
    return _drive(data, _certified_fit(data, config, "em"))


def direct_ml_fit(data: ClusteredDataset, config: EmConfig | None = None) -> FitResult:
    """The fit of ``em_fit``, labelled ``method="direct"`` (``cpbs fit --method direct``)."""
    return _drive(data, _certified_fit(data, config, "direct"))


def _theta(sim: ClusteredDataset, fit: FitResult) -> np.ndarray:
    """What a bootstrap or Monte Carlo replicate keeps: its estimate (beta..., phi)."""
    return fit.params.as_array()


# replicates refitted in lock-step: at most _CHUNK, and fewer where their
# stacked counts would exceed _CHUNK_ROWS rows (a few MB an array), as
# model._BLOCK_TERMS bounds the series terms
_CHUNK = 32
_CHUNK_ROWS = 1 << 16


def _fit_chunk(sims: list, config: EmConfig | None) -> list:
    """``em_fit`` of each of ``sims``, datasets that share one design, refitted in lock-step by ``_run``.

    Returns per dataset its FitResult, bit for bit that of ``em_fit`` alone,
    or the CpbsError its fit raises; any other error is raised.
    """
    fits = _run(_Replicates(sims), [_certified_fit(sim, config, "em") for sim in sims])
    for fit in fits:
        if isinstance(fit, Exception) and not isinstance(fit, CpbsError):
            raise fit
    return fits


def _refit_chunk(args):
    data, params, seeds, warm, keep = args
    sims = [simulate_responses(data, params, np.random.default_rng(ss)) for ss in seeds]
    fits = _fit_chunk(sims, EmConfig(init=params) if warm else None)
    return [keep(sim, fit) if isinstance(fit, FitResult) and fit.converged else None for sim, fit in zip(sims, fits)]


def _refit_replicates(data, params, seeds, keep, warm, ceiling, what, workers):
    """Simulate counts at ``params`` on the design of ``data`` and refit, once per seed.

    The one replicate loop of the bootstrap, the envelopes and the Monte
    Carlo study.  Each seed draws its counts from ``simulate_responses``,
    and they are refitted as ``em_fit`` refits them, from ``params`` if
    ``warm`` and from the Poisson-GLM start otherwise.  The refits run in
    chunks of consecutive seeds (``_fit_chunk``), each chunk one lock-step
    run of the fit loop over its replicates, and chunks go to the workers.
    Every replicate gets the bits of its own ``em_fit``, so neither the
    chunks nor the worker count change a result.  Returns, in seed order,
    ``keep(sim, fit)`` (a module-level function, so a worker pickles back
    only that) of each certified refit and None for each dropped one: a
    refit that raises a CpbsError or does not certify.  More than
    ``ceiling`` of the seeds dropped raises BootstrapFailureError, naming
    the replicates ``what``.
    """
    size = max(1, min(_CHUNK, _CHUNK_ROWS // data.n, -(-len(seeds) // _util.effective_workers(workers))))
    chunks = [(data, params, seeds[i : i + size], warm, keep) for i in range(0, len(seeds), size)]
    results = [r for chunk in _util.pmap(_refit_chunk, chunks, workers) for r in chunk]
    dropped = sum(r is None for r in results)
    if dropped > ceiling * len(results):
        raise BootstrapFailureError(f"{dropped}/{len(results)} {what} failed to refit (> {ceiling:.0%} ceiling)")
    return results


def bootstrap_se(
    data: ClusteredDataset,
    link,
    fitted: FitResult,
    B: int = 500,
    seed: int = 0,
    workers=None,
) -> np.ndarray:
    """Parametric-bootstrap standard errors for (beta..., phi).

    Simulates B datasets at the fitted parameters with the original design
    and cluster sizes, refits each, and returns per-coordinate sample
    standard deviations.  Replicates that fail to converge are dropped and
    counted; more than 10% dropped is an error.  Results are deterministic
    in ``seed`` and independent of the worker count.  On success the fit
    result's ``se``/``B``/``boot_dropped`` fields are filled in.  ``link``
    must be ``"log"``, the only link the model has.
    """
    if link != "log":
        raise ValueError(f"unknown link {link!r}; only 'log' is supported")
    if not fitted.converged:
        raise ValueError("bootstrap requires a converged fit")
    B = int(B)
    if B < 2:
        raise ValueError("B must be >= 2")
    seeds = _util.replicate_seeds(seed, B)
    results = _refit_replicates(data, fitted.params, seeds, _theta, True, 0.1, "bootstrap replicates", workers)
    kept = [r for r in results if r is not None]
    dropped = B - len(kept)
    se = np.vstack(kept).std(axis=0, ddof=1)
    fitted.se = se
    fitted.B = B
    fitted.boot_dropped = dropped
    return se
