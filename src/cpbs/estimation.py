"""Maximum-likelihood fitting: EM algorithm, direct maximization, bootstrap.

The EM route exploits the closed-form posterior moments of the latent
cluster effects.  Writing delta_k = E(T_k | counts) and gamma_k =
E(T_k^-1 | counts), the expected complete-data log-likelihood ("Q-function")
separates: the regression coefficients solve a Poisson score with
cluster-shared offsets log(delta_k),

    sum_kj (y_kj - delta_k mu_kj) x_kj = 0,

handled by iteratively reweighted least squares, and the dispersion update
is closed form,

    phi = sqrt( mean_k(delta_k + gamma_k) - 2 ),

non-negative by Cauchy-Schwarz on the posterior.  Direct maximization of the
observed log-likelihood over (beta, log phi) is provided as a cross-check;
the EM path is the robust default.  Both run on one Bessel pass per cluster,
which yields the log-likelihood and the posterior moments together; by the
Fisher identity grad l(theta) = grad Q(theta | theta), those moments give
the direct fit its exact score, so no derivative is taken numerically.

Standard errors come from a parametric bootstrap (the observed-information
route is deliberately not implemented): B datasets are simulated at the
fitted parameters with the original design and cluster sizes, each refit by
EM, and per-coordinate sample standard deviations reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from . import _util
from .data import PHI_FLOOR, ClusteredDataset, ModelParams
from .exceptions import BootstrapFailureError, CpbsError, MStepConvergenceError, RankDeficiencyError
from .model import _canonical_cluster_stats, _cluster_pass, _log_bracket
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
    """EM controls: absolute tolerance on max(|Q change|, |theta change|)."""

    epsilon: float = 1e-8
    max_iter: int = 500
    init: object = "poisson-glm"  # or a ModelParams

    def __post_init__(self):
        if not (self.epsilon > 0.0):
            raise ValueError("epsilon must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


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
    """E(T_k^s | cluster counts) for one cluster.

    The moment is a ratio of two two-term log-sum-exp expressions whose
    orders are shifted by s; the common prefactor cancels analytically
    before anything is evaluated.
    """
    if int(s) == 0:
        return 1.0
    y = np.atleast_1d(np.asarray(y))
    mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
    if y.shape != mu.shape:
        raise ValueError("y and mu must have matching lengths")
    if np.any(mu <= 0.0):
        raise ValueError("means must be positive")
    phi = float(phi)
    if phi <= 0.0:
        raise ValueError(f"phi must be positive (got {phi!r})")
    y_tot = int(np.asarray(y, dtype=np.int64).sum())
    mu_tot = float(mu.sum())
    brackets = _log_bracket(y_tot, mu_tot, phi, shifts=(int(s), 0))
    return math.exp(brackets[int(s)] - brackets[0])


def _estep(data: ClusteredDataset, params: ModelParams):
    """Moments delta/gamma (given-cluster order) and the observed log-likelihood."""
    ll, delta_c, gamma_c = _cluster_pass(data, params)
    order = np.array(data.canonical.cluster_order)
    delta = np.empty_like(delta_c)
    gamma = np.empty_like(gamma_c)
    delta[order] = delta_c
    gamma[order] = gamma_c
    return ConditionalMoments(delta, gamma), ll


def posterior_moments(data: ClusteredDataset, params: ModelParams) -> ConditionalMoments:
    """delta_k and gamma_k for every cluster at the given parameters."""
    return _estep(data, params)[0]


def _moments_canonical(data: ClusteredDataset, moments: ConditionalMoments):
    order = np.array(data.canonical.cluster_order)
    return moments.delta[order], moments.gamma[order]


def q_function(data: ClusteredDataset, params: ModelParams, moments: ConditionalMoments) -> float:
    """Expected complete-data log-likelihood at ``params`` given fixed moments.

    Uses the same additive-constants convention as :func:`cpbs.model.log_likelihood`
    (the sqrt(2 pi) phi normalizer and log-factorials are included), so EM
    progress and observed log-likelihood values live on comparable scales.
    """
    y_tot, mu_tot, ylogmu, lgam = _canonical_cluster_stats(data, params)
    delta_c, gamma_c = _moments_canonical(data, moments)
    phi = params.phi
    inv2p2 = 0.5 / (phi * phi)
    q = y_tot.shape[0]
    parts = [
        1.0 / (phi * phi) - math.log(phi) - _LOG_SQRT_2PI
        + float(ylogmu[k]) - float(lgam[k])
        - (float(mu_tot[k]) + inv2p2) * float(delta_c[k])
        - inv2p2 * float(gamma_c[k])
        for k in range(q)
    ]
    return math.fsum(parts)


def _q_difference(
    data: ClusteredDataset,
    new: ModelParams,
    old: ModelParams,
    moments: ConditionalMoments,
) -> float:
    """Q(new; moments) - Q(old; moments) without large-term cancellation.

    The two dispersion terms carry 1/phi^2, which dwarfs the difference near
    the dispersion floor; forming the difference analytically keeps the
    convergence check meaningful at any phi.
    """
    y_tot_n, mu_n, ylogmu_n, _ = _canonical_cluster_stats(data, new)
    _, mu_o, ylogmu_o, _ = _canonical_cluster_stats(data, old)
    delta_c, gamma_c = _moments_canonical(data, moments)
    q = y_tot_n.shape[0]
    beta_part = math.fsum(
        float(ylogmu_n[k]) - float(ylogmu_o[k]) - float(delta_c[k]) * (float(mu_n[k]) - float(mu_o[k]))
        for k in range(q)
    )
    pn, po = new.phi, old.phi
    dinv = (po - pn) * (po + pn) / (pn * pn * po * po)  # 1/pn^2 - 1/po^2
    phi_part = q * dinv - q * math.log(pn / po) - 0.5 * dinv * float(np.sum(delta_c + gamma_c))
    return beta_part + phi_part


def q_score_beta(data: ClusteredDataset, params: ModelParams, delta: np.ndarray) -> np.ndarray:
    """Analytic Q-function score for the coefficients:

        dQ/dbeta_l = sum_kj (y_kj - delta_k mu_kj) x_kjl.
    """
    canon = data.canonical
    order = np.array(canon.cluster_order)
    delta_c = np.asarray(delta, dtype=np.float64)[order]
    mu = np.exp(canon.X @ params.beta)
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
    inner loop does not converge.
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=np.float64))
    if delta.shape != (data.q,) or np.any(delta <= 0.0):
        raise ValueError("delta must hold one positive value per cluster")
    canon = data.canonical
    order = np.array(canon.cluster_order)
    offset = np.repeat(np.log(delta[order]), canon.sizes)
    X, y = canon.X, canon.y
    beta = np.asarray(beta_init, dtype=np.float64).copy()
    if beta.shape != (data.p,):
        raise ValueError(f"beta_init must have length p={data.p}")

    def poisson_ll(b):
        eta = X @ b + offset
        with np.errstate(over="ignore"):
            w = np.exp(eta)
        if not np.all(np.isfinite(w)):
            return -np.inf, None
        return float(y @ eta - w.sum()), w

    ll, w = poisson_ll(beta)
    if not np.isfinite(ll):
        raise MStepConvergenceError("non-finite objective at beta_init", beta_last=beta)
    for _ in range(max_iter):
        score = X.T @ (y - w)
        if float(np.max(np.abs(score))) <= tol:
            return beta
        H = X.T @ (X * w[:, None])
        try:
            step = np.linalg.solve(H, score)
        except np.linalg.LinAlgError:
            raise RankDeficiencyError("singular weighted normal equations in the M-step") from None
        # Newton with step halving.  The objective guard only matters for
        # large overshooting steps; near the optimum the predicted gain sits
        # below the objective's rounding noise, so small steps are accepted
        # outright (the log-link objective is concave, Newton contracts).
        beta_scale = 1.0 + float(np.max(np.abs(beta)))
        slack = 1e-12 * (1.0 + abs(ll))
        improved = False
        for _half in range(60):
            cand = beta + step
            small = float(np.max(np.abs(step))) <= 1e-6 * beta_scale
            ll_new, w_new = poisson_ll(cand)
            if np.isfinite(ll_new) and (small or ll_new >= ll - slack):
                beta, ll, w = cand, ll_new, w_new
                improved = True
                break
            step *= 0.5
        if not improved or float(np.max(np.abs(step))) <= 4e-16 * beta_scale:
            # parameter fixed point at machine precision; accept if the
            # score is already at its rounding floor
            score = X.T @ (y - w)
            if float(np.max(np.abs(score))) <= 1e-6:
                return beta
            raise MStepConvergenceError("M-step stalled before reaching tolerance", beta_last=beta)
    score = X.T @ (y - w)
    if float(np.max(np.abs(score))) <= 1e-6:
        return beta
    raise MStepConvergenceError(
        f"M-step did not converge in {max_iter} iterations", beta_last=beta
    )


def m_step_phi(moments: ConditionalMoments) -> float:
    """Closed-form dispersion update phi = sqrt(mean_k(delta_k + gamma_k) - 2).

    The argument is non-negative because delta_k * gamma_k >= 1 per cluster;
    a materially negative value indicates an upstream numerical fault.  The
    result is clamped to the dispersion floor.
    """
    mean_sum = float(np.mean(moments.delta + moments.gamma))
    assert mean_sum >= 2.0 - 1e-8, "posterior moments violate delta+gamma >= 2"
    return max(math.sqrt(max(mean_sum - 2.0, 0.0)), PHI_FLOOR)


def _poisson_glm_init(data: ClusteredDataset) -> ModelParams:
    """Plain Poisson fit ignoring clustering, plus method-of-moments dispersion.

    The dispersion start matches the pooled Pearson overdispersion statistic
    to the model's variance function and is clamped to [0.05, 5].
    """
    beta = m_step_beta(data, np.ones(data.q), np.zeros(data.p), tol=1e-8)
    canon = data.canonical
    mu = np.exp(canon.X @ beta)
    num = float(np.sum((canon.y - mu) ** 2 - mu))
    den = float(np.sum(mu**2))
    c = max(num / den, 0.0) if den > 0 else 0.0
    # solve phi^2 (1 + 5 phi^2 / 4) = c for phi^2
    phi2 = 0.4 * (math.sqrt(1.0 + 5.0 * c) - 1.0)
    phi0 = min(max(math.sqrt(max(phi2, 0.0)), 0.05), 5.0)
    return ModelParams(beta=beta, phi=phi0)


def _resolve_init(data, init) -> ModelParams:
    if isinstance(init, ModelParams):
        # starting dispersion is kept inside the initializer band: near the
        # floor the Q-change criterion is hypersensitive (its phi-curvature
        # scales like 1/phi^2), and a start there can stall the chain
        phi0 = min(max(init.phi, 0.05), 5.0)
        return init if phi0 == init.phi else ModelParams(beta=init.beta, phi=phi0)
    if init == "poisson-glm" or init is None:
        return _poisson_glm_init(data)
    raise ValueError(f"unknown initialization {init!r}")


def _floor_is_attractor(data, beta, ll_reference) -> bool:
    """Decide whether the dispersion iteration effectively terminates at the floor.

    Evaluates one dispersion update started from the floor: if it stays
    within a 0.1% band of the floor, every subsequent update moves phi by
    far less than any convergence tolerance, so the chain restarted there
    is already settled in phi (the approach rate tends to one as phi falls,
    which is why the vanilla iteration cannot get there on its own).  The
    log-likelihood at the floor must also not fall below the ascent path.
    """
    at_floor = ModelParams(beta=beta, phi=PHI_FLOOR)
    moments, ll_floor = _estep(data, at_floor)
    if ll_floor < ll_reference - 1e-12:
        return False
    return m_step_phi(moments) <= PHI_FLOOR * (1.0 + 1e-3)


def em_fit(data: ClusteredDataset, config: EmConfig | None = None) -> FitResult:
    """Fit by EM: alternate posterior moments with the two M-step updates.

    Stops when max(|Q(theta_new; theta) - Q(theta; theta)|,
    ||theta_new - theta||_inf) falls below ``config.epsilon`` (absolute), or
    flags non-convergence after ``config.max_iter`` iterations (the trace is
    preserved either way).  The observed log-likelihood is recorded at every
    iterate and is non-decreasing along the path.

    Dispersion boundary: when the dispersion path is collapsing, the MLE
    sits at the floor and the vanilla iteration approaches it geometrically
    with rate near one.  Once the iterate descends into the low-dispersion
    region, the boundary is tested directly (a dispersion update started
    from the floor stays at the floor, plus an ascent guard on the
    log-likelihood) and the dispersion is pinned there, after which the fit
    is reported as effectively Poisson.
    """
    config = EmConfig() if config is None else config
    data.assert_full_rank()
    params = _resolve_init(data, config.init)
    beta, phi = params.beta, params.phi

    trace = []
    converged = False
    iterations = config.max_iter
    phi_pinned = False
    phi_decreasing = 0
    next_snap_check = 8
    for r in range(config.max_iter):
        cur = ModelParams(beta=beta, phi=phi)
        moments, ll = _estep(data, cur)
        trace.append(ll)
        beta_new = m_step_beta(data, moments.delta, beta)
        if phi_pinned:
            phi_new = PHI_FLOOR
        else:
            phi_new = m_step_phi(moments)
            phi_decreasing = phi_decreasing + 1 if phi_new < phi else 0
            if phi_new <= PHI_FLOOR:
                # the update itself hit the clamp; the floor is certified
                phi_pinned = True
            elif phi_new < 0.25 and phi_decreasing >= next_snap_check:
                next_snap_check = phi_decreasing + 25
                if _floor_is_attractor(data, beta_new, ll):
                    phi_new = PHI_FLOOR
                    phi_pinned = True
        new = ModelParams(beta=beta_new, phi=phi_new)
        dq = abs(_q_difference(data, new, cur, moments))
        dtheta = max(float(np.max(np.abs(beta_new - beta))), abs(phi_new - phi))
        beta, phi = beta_new, phi_new
        if max(dq, dtheta) < config.epsilon:
            converged = True
            iterations = r + 1
            break
    fitted = ModelParams(beta=beta, phi=phi)
    _, ll_final = _estep(data, fitted)
    trace.append(ll_final)
    at_floor = bool(phi <= PHI_FLOOR * (1.0 + 1e-3))
    if converged:
        message = "dispersion at floor (effectively Poisson)" if at_floor else ""
    else:
        message = "EM reached max_iter before the tolerance"
    return FitResult(
        params=fitted,
        loglik=ll_final,
        loglik_trace=np.array(trace),
        iterations=iterations,
        converged=converged,
        method="em",
        phi_at_floor=at_floor,
        message=message,
    )


def _direct_objective(data: ClusteredDataset, z: np.ndarray):
    """Negative log-likelihood and its exact gradient at z = (beta, log phi).

    One E-step pass gives both: the observed score equals the Q-function
    score at the current moments (Fisher identity), and d/dlog(phi) is
    phi * d/dphi.  Parameters the model cannot evaluate give an infinite
    objective, which the line search backs away from.
    """
    p = data.p
    try:
        params = ModelParams(beta=z[:p], phi=math.exp(float(z[p])))
        moments, ll = _estep(data, params)
    except (ValueError, OverflowError, FloatingPointError):
        return np.inf, np.full(p + 1, np.nan)
    score = np.append(q_score_beta(data, params, moments.delta), params.phi * q_score_phi(params, moments))
    return -ll, -score


def direct_ml_fit(data: ClusteredDataset, init: ModelParams | None = None) -> FitResult:
    """Quasi-Newton (BFGS) maximization of the observed log-likelihood.

    Optimizes over (beta, log phi) so the search is unconstrained.  The
    gradient is the exact score from the same E-step pass that evaluates
    the log-likelihood (no finite differences).  Line-search failure or a
    non-finite objective yields a non-convergence flag rather than an
    exception; when that happens, re-seeding from ``em_fit`` output is the
    recommended fallback.
    """
    data.assert_full_rank()
    start = _resolve_init(data, init)
    p = data.p
    z0 = np.concatenate([start.beta, [math.log(start.phi)]])
    trace = []

    def record(intermediate_result):
        trace.append(-float(intermediate_result.fun))

    res = scipy.optimize.minimize(
        lambda z: _direct_objective(data, z), z0, jac=True, method="BFGS",
        callback=record, options={"gtol": 1e-5, "maxiter": 200},
    )
    grad_ok = np.all(np.isfinite(res.jac)) and float(np.max(np.abs(res.jac))) <= 1e-3
    converged = bool(res.success or (np.isfinite(res.fun) and grad_ok))
    phi_hat = max(math.exp(float(res.x[p])), PHI_FLOOR)
    fitted = ModelParams(beta=res.x[:p], phi=phi_hat)
    ll_final = -_direct_objective(data, np.concatenate([fitted.beta, [math.log(fitted.phi)]]))[0]
    trace.append(ll_final)
    return FitResult(
        params=fitted,
        loglik=ll_final,
        loglik_trace=np.array(trace),
        iterations=int(res.nit),
        converged=converged,
        method="direct",
        phi_at_floor=bool(phi_hat <= PHI_FLOOR * (1.0 + 1e-9)),
        message="" if converged else f"optimizer: {res.message}",
    )


def _bootstrap_replicate(args):
    data, params, ss = args
    rng = np.random.default_rng(ss)
    sim = simulate_responses(data, params, rng)
    try:
        fit = em_fit(sim, EmConfig(init=params, max_iter=1500))
    except CpbsError:
        return None
    return fit.params.as_array() if fit.converged else None


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
    and cluster sizes, refits each by EM, and returns per-coordinate sample
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
    jobs = [(data, fitted.params, ss) for ss in _util.replicate_seeds(seed, B)]
    results = _util.pmap(_bootstrap_replicate, jobs, workers)
    kept = [r for r in results if r is not None]
    dropped = B - len(kept)
    if dropped > 0.1 * B:
        raise BootstrapFailureError(
            f"{dropped}/{B} bootstrap replicates failed to converge (> 10% ceiling)"
        )
    estimates = np.vstack(kept)
    se = estimates.std(axis=0, ddof=1)
    fitted.se = se
    fitted.B = B
    fitted.boot_dropped = dropped
    return se
