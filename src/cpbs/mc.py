"""Monte Carlo study harness: repeated simulation and refitting.

A study fixes one generated design (covariates are drawn once and held fixed
across replications), simulates responses at the true parameters for each
replication, fits it from the Poisson-GLM start by the certified Newton loop
of ``em_fit``, and aggregates empirical means and root mean square errors
per parameter.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .data import ModelParams
from .estimation import _refit_replicates, _theta
from .exceptions import ConfigSchemaError
from .simulate import CovariateColumn, default_covariate_spec, generate_design

# not called here: the refits run in cpbs.estimation, but the benchmark's
# traced run (bench/layers.py) wraps these names in cpbs.mc too
from .estimation import em_fit  # noqa: F401
from .simulate import simulate_responses  # noqa: F401

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

    def __post_init__(self):
        for key, least in (("q", 1), ("n_k", 1), ("reps", 1), ("seed", 0)):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigSchemaError(f"{key} must be an integer (got {value!r})")
            if value < least:
                raise ConfigSchemaError(f"{key} must be >= {least}")
            object.__setattr__(self, key, int(value))
        if self.link != "log":
            raise ConfigSchemaError(f"unknown link {self.link!r}; only 'log' is supported")
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


def run_mc_study(config: McConfig, workers=None) -> McReport:
    """Run one study cell; deterministic given ``config.seed``.

    Covariates are generated once from the config's rules and kept fixed;
    each replication redraws responses at the truth and refits.  Failed
    replications (an error, or a fit that does not certify) are counted and
    excluded; more than 5% failed raises BootstrapFailureError.
    """
    ss = np.random.SeedSequence(config.seed)
    design_seed, *rep_seeds = ss.spawn(config.reps + 1)
    design = generate_design(
        config.q, config.n_k, np.random.default_rng(design_seed), covariates=list(config.covariates)
    )
    results = _refit_replicates(
        design, config.theta_true, rep_seeds, _theta, False, 0.05, "Monte Carlo replications", workers
    )
    rep_ids = np.array([i for i, r in enumerate(results) if r is not None], dtype=np.int64)
    estimates = np.vstack([results[i] for i in rep_ids])
    n_failed = config.reps - len(rep_ids)
    truth = config.theta_true.as_array()
    mean = estimates.mean(axis=0)
    rmse = np.sqrt(np.mean((estimates - truth) ** 2, axis=0))
    return McReport(
        config=config, mean=mean, rmse=rmse, n_failed=n_failed,
        estimates=estimates, rep_ids=rep_ids,
    )
