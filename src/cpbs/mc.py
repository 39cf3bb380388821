"""Monte Carlo study harness: repeated simulation and EM refitting.

A study fixes one generated design (covariates are drawn once and held fixed
across replications), simulates responses at the true parameters for each
replication, fits by EM, and aggregates empirical means and root mean square
errors per parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _util
from .data import ModelParams
from .estimation import EmConfig, em_fit
from .exceptions import ConfigSchemaError, CpbsError
from .simulate import CovariateColumn, default_covariate_spec, generate_design, simulate_responses

__all__ = ["McConfig", "McReport", "run_mc_study"]


@dataclass(frozen=True)
class McConfig:
    """Design of one study cell: q clusters of size n_k, truth, replications."""

    q: int
    n_k: int
    theta_true: ModelParams
    reps: int = 500
    seed: int = 0
    covariates: tuple = ()  # CovariateColumn entries; empty means the default pair
    link: str = "log"  # the only link the model has; kept in the report
    em_max_iter: int = 2500  # slow interior EM crawls need more room than the default

    def __post_init__(self):
        if self.link != "log":
            raise ConfigSchemaError(f"unknown link {self.link!r}; only 'log' is supported")
        if self.q < 1 or self.n_k < 1:
            raise ConfigSchemaError("q and n_k must be >= 1")
        if self.reps < 1:
            raise ConfigSchemaError("reps must be >= 1")
        if self.em_max_iter < 1:
            raise ConfigSchemaError("em_max_iter must be >= 1")
        cov = tuple(self.covariates) if self.covariates else tuple(default_covariate_spec())
        for c in cov:
            if not isinstance(c, CovariateColumn):
                raise ConfigSchemaError("covariates must be CovariateColumn instances")
        if self.theta_true.p != len(cov) + 1:
            raise ConfigSchemaError(
                f"theta_true has {self.theta_true.p} coefficients but the design has "
                f"{len(cov) + 1} columns (intercept + covariates)"
            )
        object.__setattr__(self, "covariates", cov)

    @property
    def param_names(self) -> list[str]:
        return [f"beta{i}" for i in range(self.theta_true.p)] + ["phi"]


@dataclass(frozen=True)
class McReport:
    """Aggregates of one study cell.

    ``estimates`` has one row per successful replicate, columns
    (beta..., phi); ``rep_ids`` gives the replicate index of each row.
    """

    config: McConfig
    mean: np.ndarray
    rmse: np.ndarray
    n_failed: int
    estimates: np.ndarray
    rep_ids: np.ndarray

    def to_dict(self) -> dict:
        names = self.config.param_names
        truth = self.config.theta_true.as_array()
        return {
            "design": {
                "q": self.config.q,
                "n_k": self.config.n_k,
                "reps": self.config.reps,
                "seed": self.config.seed,
                "link": self.config.link,
                "theta_true": {n: float(v) for n, v in zip(names, truth)},
                "covariates": [c.to_dict() for c in self.config.covariates],
            },
            "parameters": [
                {"name": n, "mean": float(m), "rmse": float(r)}
                for n, m, r in zip(names, self.mean, self.rmse)
            ],
            "n_failed": int(self.n_failed),
            "n_used": int(self.estimates.shape[0]),
        }


def _mc_replicate(args):
    design, theta, max_iter, ss = args
    rng = np.random.default_rng(ss)
    sim = simulate_responses(design, theta, rng)
    try:
        fit = em_fit(sim, EmConfig(max_iter=max_iter))
    except CpbsError:
        return None
    return fit.params.as_array() if fit.converged else None


def run_mc_study(config: McConfig, workers=None) -> McReport:
    """Run one study cell; deterministic given ``config.seed``.

    Covariates are generated once from the config's rules and kept fixed;
    each replication redraws responses at the truth and refits.  Failed
    replications are recorded and excluded; the study aborts if more than 5%
    fail.
    """
    ss = np.random.SeedSequence(config.seed)
    design_seed, *rep_seeds = ss.spawn(config.reps + 1)
    design = generate_design(
        config.q, config.n_k, np.random.default_rng(design_seed), covariates=list(config.covariates)
    )
    jobs = [(design, config.theta_true, config.em_max_iter, s) for s in rep_seeds]
    results = _util.pmap(_mc_replicate, jobs, workers)
    kept = [(i, r) for i, r in enumerate(results) if r is not None]
    n_failed = config.reps - len(kept)
    if n_failed > 0.05 * config.reps:
        raise CpbsError(f"{n_failed}/{config.reps} Monte Carlo replications failed (> 5% ceiling)")
    estimates = np.vstack([r for _, r in kept])
    rep_ids = np.array([i for i, _ in kept], dtype=np.int64)
    truth = config.theta_true.as_array()
    mean = estimates.mean(axis=0)
    rmse = np.sqrt(np.mean((estimates - truth) ** 2, axis=0))
    return McReport(
        config=config, mean=mean, rmse=rmse, n_failed=n_failed,
        estimates=estimates, rep_ids=rep_ids,
    )
