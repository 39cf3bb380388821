"""Random generation from the Birnbaum-Saunders law and the clustered model.

The BS draw uses the inverse square-root-normal representation: with Z a
standard normal,

    T = [ phi Z / 2 + sqrt((phi Z / 2)^2 + 1) ]^2

has the unit-scale BS(phi) distribution.  A cluster is sampled by drawing one
T and then independent Poisson(mu_j * T) counts.
"""

from __future__ import annotations

import numpy as np

from .data import Cluster, ClusteredDataset, ModelParams
from .exceptions import ConfigSchemaError

__all__ = [
    "sample_bs",
    "sample_cluster",
    "simulate_responses",
    "CovariateColumn",
    "default_covariate_spec",
    "generate_design",
    "simulate_dataset",
]


def sample_bs(phi: float, rng: np.random.Generator, size=None):
    """Draw from BS(phi) with unit scale; scalar by default, array with ``size``."""
    phi = float(phi)
    if phi <= 0.0:
        raise ValueError(f"phi must be positive (got {phi!r})")
    z = rng.standard_normal(size=size)
    half = 0.5 * phi * z
    root = half + np.sqrt(half * half + 1.0)
    t = root * root
    return float(t) if size is None else t


def sample_cluster(mu, phi: float, rng: np.random.Generator) -> np.ndarray:
    """One cluster of counts: a shared T ~ BS(phi), then Poisson(mu_j T) each."""
    mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
    if np.any(mu <= 0.0):
        raise ValueError("means must be positive")
    t = sample_bs(phi, rng)
    return rng.poisson(mu * t)


def simulate_responses(data: ClusteredDataset, params: ModelParams, rng: np.random.Generator) -> ClusteredDataset:
    """New dataset with the same clusters/covariates and model-simulated counts."""
    out = []
    for c in data.clusters:
        mu = np.exp(c.X @ params.beta)
        out.append(Cluster(id=c.id, y=sample_cluster(mu, params.phi, rng), X=c.X))
    return ClusteredDataset(tuple(out))


class CovariateColumn:
    """Generation rule for one covariate column.

    kind 'normal' takes mean/sd; kind 'bernoulli' takes p.
    """

    def __init__(self, kind: str, **kw):
        self.kind = kind
        if kind == "normal":
            self.mean = float(kw.pop("mean"))
            self.sd = float(kw.pop("sd"))
            if self.sd <= 0:
                raise ConfigSchemaError("covariate 'normal' requires sd > 0")
        elif kind == "bernoulli":
            self.p = float(kw.pop("p"))
            if not 0.0 <= self.p <= 1.0:
                raise ConfigSchemaError("covariate 'bernoulli' requires 0 <= p <= 1")
        else:
            raise ConfigSchemaError(f"unknown covariate kind: {kind!r}")
        if kw:
            raise ConfigSchemaError(f"unexpected covariate key: {sorted(kw)[0]!r}")

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "normal":
            return rng.normal(self.mean, self.sd, size=n)
        return rng.binomial(1, self.p, size=n).astype(np.float64)

    def to_dict(self) -> dict:
        if self.kind == "normal":
            return {"kind": "normal", "mean": self.mean, "sd": self.sd}
        return {"kind": "bernoulli", "p": self.p}

    @classmethod
    def from_dict(cls, d: dict) -> "CovariateColumn":
        if not isinstance(d, dict) or "kind" not in d:
            raise ConfigSchemaError("covariate spec entries must be objects with a 'kind' key")
        kw = {k: v for k, v in d.items() if k != "kind"}
        return cls(d["kind"], **kw)


def default_covariate_spec() -> list[CovariateColumn]:
    """One normal(3.7, 0.2) column and one Bernoulli(0.45) column."""
    return [
        CovariateColumn("normal", mean=3.7, sd=0.2),
        CovariateColumn("bernoulli", p=0.45),
    ]


def generate_design(
    q: int,
    n_k: int,
    rng: np.random.Generator,
    covariates: list[CovariateColumn] | None = None,
    intercept: bool = True,
) -> ClusteredDataset:
    """Balanced design of q clusters of size n_k with generated covariates.

    Responses are filled with zeros; pair with :func:`simulate_responses`.
    Cluster ids are 'c01', 'c02', ... (zero-padded so id order is stable).
    """
    if q < 1 or n_k < 1:
        raise ValueError("q and n_k must be >= 1")
    covariates = default_covariate_spec() if covariates is None else covariates
    n = q * n_k
    cols = [col.draw(n, rng) for col in covariates]
    if intercept:
        cols = [np.ones(n)] + cols
    X = np.column_stack(cols)
    width = max(2, len(str(q)))
    clusters = []
    for k in range(q):
        sl = slice(k * n_k, (k + 1) * n_k)
        clusters.append(Cluster(id=f"c{k + 1:0{width}d}", y=np.zeros(n_k, dtype=np.int64), X=X[sl]))
    return ClusteredDataset(tuple(clusters))


def simulate_dataset(
    q: int,
    n_k: int,
    params: ModelParams,
    seed: int,
    covariates: list[CovariateColumn] | None = None,
    intercept: bool = True,
) -> ClusteredDataset:
    """Generate covariates and responses in one call, deterministically."""
    ss = np.random.SeedSequence(seed)
    rng_x, rng_y = [np.random.default_rng(s) for s in ss.spawn(2)]
    design = generate_design(q, n_k, rng_x, covariates=covariates, intercept=intercept)
    return simulate_responses(design, params, rng_y)
