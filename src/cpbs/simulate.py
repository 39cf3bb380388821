"""Random generation from the Birnbaum-Saunders law and the clustered model.

The BS draw uses the inverse square-root-normal representation: with Z a
standard normal,

    T = [ phi Z / 2 + sqrt((phi Z / 2)^2 + 1) ]^2

has the unit-scale BS(phi) distribution.  A cluster is sampled by drawing one
T and then independent Poisson(mu_j * T) counts.
"""

from __future__ import annotations

import math

import numpy as np

from .data import ClusteredDataset, ModelParams
from .exceptions import ConfigSchemaError
from .model import _means

__all__ = [
    "sample_bs",
    "sample_cluster",
    "simulate_responses",
    "CovariateColumn",
    "default_covariate_spec",
    "generate_design",
    "simulate_dataset",
]


def _positive_phi(phi) -> float:
    phi = float(phi)
    if phi <= 0.0:
        raise ValueError(f"phi must be positive (got {phi!r})")
    return phi


def sample_bs(phi: float, rng: np.random.Generator, size=None):
    """Draw from BS(phi) with unit scale; scalar by default, array with ``size``.

    The scalar form runs on Python floats with ``math.sqrt``, which gives the
    bits of the array form at a fraction of its cost per call.
    """
    phi = _positive_phi(phi)
    if size is None:
        half = 0.5 * phi * rng.standard_normal()
        root = half + math.sqrt(half * half + 1.0)
        return root * root
    half = 0.5 * phi * rng.standard_normal(size=size)
    root = half + np.sqrt(half * half + 1.0)
    return root * root


# A cluster of at most this many rows draws its counts by scalar
# Generator.poisson calls, a larger one by one array call: each array call
# pays numpy's argument checks over the array, which cost about as much as 16
# scalar draws on a 2-core Xeon VM (numpy 2.4).
_SCALAR_ROWS = 16


def _draw_counts(mu: np.ndarray, offsets: np.ndarray, phi: float, rng: np.random.Generator) -> np.ndarray:
    """Counts for the clusters ``mu[offsets[k]:offsets[k + 1]]``, in cluster order.

    Per cluster: one T = ``sample_bs(phi, rng)`` (one standard normal), then
    one Poisson(mu_j T) draw per row in row order.  The means are not checked
    here.
    """
    y = np.empty(mu.shape[0], dtype=np.int64)
    small = []  # the counts of the clusters drawn by scalar calls, in row order
    mu_list = mu.tolist()
    poisson, draw = rng.poisson, small.append
    bounds = offsets.tolist()
    for a, b in zip(bounds, bounds[1:]):
        t = sample_bs(phi, rng)
        if b - a <= _SCALAR_ROWS:
            for m in mu_list[a:b]:
                draw(poisson(m * t))
        else:
            y[a:b] = poisson(mu[a:b] * t)
    if small:
        sizes = np.diff(offsets)
        y[np.repeat(sizes <= _SCALAR_ROWS, sizes)] = small
    return y


def sample_cluster(mu, phi: float, rng: np.random.Generator) -> np.ndarray:
    """One cluster of counts: a shared T ~ BS(phi), then Poisson(mu_j T) each."""
    mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
    if np.any(mu <= 0.0):
        raise ValueError("means must be positive")
    return _draw_counts(mu, np.array([0, mu.shape[0]]), _positive_phi(phi), rng)


def simulate_responses(data: ClusteredDataset, params: ModelParams, rng: np.random.Generator) -> ClusteredDataset:
    """New dataset with the same clusters/covariates and model-simulated counts.

    The means come from one product over the stacked design, checked once
    by ``model._means`` (non-positive or non-finite means raise ValueError).
    The draws are a contract that every seeded dataset and ``content_hash``
    rest on: cluster by cluster in given order, one standard normal for the
    cluster's T ~ BS(phi), then one Poisson(mu_j T) draw per row in row
    order, exactly as ``sample_cluster`` draws one cluster.  Small clusters
    take scalar ``Generator.poisson`` calls and large ones one array call;
    both run numpy's sampler element by element on the same stream, so the
    counts do not depend on which is taken.
    """
    mu = _means(data.X_stacked, params.beta)
    return data.with_responses(_draw_counts(mu, data.offsets, params.phi, rng))


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
    ids = [f"c{k + 1:0{width}d}" for k in range(q)]
    return ClusteredDataset.from_columns(ids, np.zeros(n, dtype=np.int64), X, np.arange(q + 1) * n_k)


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
