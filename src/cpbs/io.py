"""Data ingestion and machine-readable reports.

CSV conventions: comma-delimited, UTF-8, header row, '.' decimal point.  The
response column must hold non-negative integers; categorical covariates must
be pre-encoded as 0/1 columns by the caller.  Rows are grouped by the cluster
column in order of first appearance.

Fit reports are JSON documents (schema shipped under ``cpbs/schemas/``) with
per-coefficient estimate/SE/z/p, the dispersion estimate with SE only (no
z/p is reported for the dispersion), relativities exp(beta_j) for
non-intercept coefficients, and a hash of the data so diagnostics can refuse
to run against a different dataset than the one that was fitted.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .data import Cluster, ClusteredDataset, ModelParams
from .estimation import FitResult
from .exceptions import (
    MissingColumnError,
    MissingValueError,
    ResponseTypeError,
    StaleFitError,
)

__all__ = ["ModelSpec", "load_csv", "FitReport", "INTERCEPT_NAME"]

INTERCEPT_NAME = "intercept"


@dataclass(frozen=True)
class ModelSpec:
    """Column mapping for loading a dataset from CSV."""

    response: str
    cluster: str
    covariates: tuple[str, ...]
    intercept: bool = True
    link: str = "log"  # the only link the model has; kept in the report

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        if self.link != "log":
            raise ValueError(f"unknown link {self.link!r}; only 'log' is supported")

    @property
    def coef_names(self) -> list[str]:
        names = list(self.covariates)
        if self.intercept:
            names = [INTERCEPT_NAME] + names
        return names

    def to_dict(self) -> dict:
        return {
            "response": self.response,
            "cluster": self.cluster,
            "covariates": list(self.covariates),
            "intercept": self.intercept,
            "link": self.link,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        return cls(
            response=d["response"],
            cluster=d["cluster"],
            covariates=tuple(d["covariates"]),
            intercept=bool(d.get("intercept", True)),
            link=d.get("link", "log"),
        )


def _parse_count(raw: str, row_num: int, col: str) -> int:
    s = raw.strip()
    if s == "" or s.lower() == "nan":
        raise MissingValueError(f"row {row_num}: empty/NaN value in response column {col!r}")
    try:
        value = int(s)
    except ValueError:
        raise ResponseTypeError(
            f"row {row_num}: response column {col!r} must hold integers (got {raw!r})"
        ) from None
    if value < 0:
        raise ResponseTypeError(f"row {row_num}: response must be non-negative (got {value})")
    return value


def _parse_real(raw: str, row_num: int, col: str) -> float:
    s = raw.strip()
    if s == "":
        raise MissingValueError(f"row {row_num}: empty cell in column {col!r}")
    try:
        value = float(s)
    except ValueError:
        raise MissingValueError(f"row {row_num}: non-numeric cell in column {col!r} ({raw!r})") from None
    if not math.isfinite(value):
        raise MissingValueError(f"row {row_num}: NaN/inf cell in column {col!r}")
    return value


def load_csv(path, spec: ModelSpec) -> ClusteredDataset:
    """Load a clustered dataset from CSV per the column mapping.

    Clusters appear in order of first appearance of their label; an
    intercept column of ones is prepended when ``spec.intercept`` is on.
    The stacked design is checked for full column rank.
    """
    groups: dict[str, list] = {}
    order: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        needed = [spec.response, spec.cluster, *spec.covariates]
        missing = [c for c in needed if c not in header]
        if missing:
            raise MissingColumnError(f"missing column(s) in {path}: {', '.join(missing)}")
        for row_num, row in enumerate(reader, start=2):
            label = (row[spec.cluster] or "").strip()
            if label == "":
                raise MissingValueError(f"row {row_num}: empty cluster label")
            y = _parse_count(row[spec.response], row_num, spec.response)
            x = [_parse_real(row[c], row_num, c) for c in spec.covariates]
            if spec.intercept:
                x = [1.0] + x
            if label not in groups:
                groups[label] = []
                order.append(label)
            groups[label].append((y, x))
    if not order:
        raise MissingValueError(f"no data rows in {path}")
    clusters = []
    for label in order:
        rows = groups[label]
        y = np.array([r[0] for r in rows], dtype=np.int64)
        X = np.array([r[1] for r in rows], dtype=np.float64)
        clusters.append(Cluster(id=label, y=y, X=X))
    data = ClusteredDataset(tuple(clusters))
    data.assert_full_rank()
    return data


def write_dataset_csv(path, data: ClusteredDataset, spec: ModelSpec):
    """Write a dataset in the same CSV convention ``load_csv`` reads."""
    cols = [c for c in spec.covariates]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([spec.cluster, spec.response, *cols])
        for c in data.clusters:
            Xcov = c.X[:, 1:] if spec.intercept else c.X
            for i in range(c.n):
                writer.writerow([c.id, int(c.y[i])] + [repr(float(v)) for v in Xcov[i]])


def _two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


@dataclass(frozen=True)
class FitReport:
    """Machine-readable summary of one fit, JSON-serializable."""

    spec: ModelSpec
    coefficients: list  # dicts: name, estimate, se, z, p, relativity
    phi: float
    phi_se: float | None
    loglik: float
    n: int
    q: int
    cluster_sizes: list
    cluster_ids: list
    method: str
    iterations: int
    converged: bool
    effectively_poisson: bool
    epsilon: float
    B: int | None
    boot_dropped: int | None
    seed: int | None
    data_hash: str

    @classmethod
    def from_fit(
        cls,
        data: ClusteredDataset,
        spec: ModelSpec,
        fit: FitResult,
        epsilon: float,
        seed: int | None,
    ) -> "FitReport":
        names = spec.coef_names
        beta = fit.params.beta
        se = fit.se
        coefficients = []
        for j, name in enumerate(names):
            est = float(beta[j])
            entry = {"name": name, "estimate": est}
            if se is not None:
                entry["se"] = float(se[j])
                z = est / float(se[j])
                entry["z"] = z
                entry["p"] = _two_sided_p(z)
            if not (spec.intercept and j == 0):
                entry["relativity"] = math.exp(est)
            coefficients.append(entry)
        return cls(
            spec=spec,
            coefficients=coefficients,
            phi=float(fit.params.phi),
            phi_se=float(se[-1]) if se is not None else None,
            loglik=float(fit.loglik),
            n=data.n,
            q=data.q,
            cluster_sizes=[int(s) for s in data.sizes],
            cluster_ids=[str(c.id) for c in data.clusters],
            method=fit.method,
            iterations=int(fit.iterations),
            converged=bool(fit.converged),
            effectively_poisson=bool(fit.phi_at_floor),
            epsilon=float(epsilon),
            B=fit.B,
            boot_dropped=fit.boot_dropped,
            seed=seed,
            data_hash=data.content_hash(),
        )

    def to_dict(self) -> dict:
        return {
            "model_spec": self.spec.to_dict(),
            "coefficients": self.coefficients,
            "phi": {"estimate": self.phi, "se": self.phi_se},
            "loglik": self.loglik,
            "data": {
                "n": self.n,
                "q": self.q,
                "cluster_sizes": self.cluster_sizes,
                "cluster_ids": self.cluster_ids,
                "hash": self.data_hash,
            },
            "convergence": {
                "method": self.method,
                "iterations": self.iterations,
                "converged": self.converged,
                "effectively_poisson": self.effectively_poisson,
                "epsilon": self.epsilon,
            },
            "bootstrap": {"B": self.B, "dropped": self.boot_dropped, "seed": self.seed},
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "FitReport":
        spec = ModelSpec.from_dict(d["model_spec"])
        return cls(
            spec=spec,
            coefficients=d["coefficients"],
            phi=d["phi"]["estimate"],
            phi_se=d["phi"]["se"],
            loglik=d["loglik"],
            n=d["data"]["n"],
            q=d["data"]["q"],
            cluster_sizes=d["data"]["cluster_sizes"],
            cluster_ids=d["data"]["cluster_ids"],
            method=d["convergence"]["method"],
            iterations=d["convergence"]["iterations"],
            converged=d["convergence"]["converged"],
            effectively_poisson=d["convergence"]["effectively_poisson"],
            epsilon=d["convergence"]["epsilon"],
            B=d["bootstrap"]["B"],
            boot_dropped=d["bootstrap"]["dropped"],
            seed=d["bootstrap"]["seed"],
            data_hash=d["data"]["hash"],
        )

    @classmethod
    def from_json_file(cls, path) -> "FitReport":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def params(self) -> ModelParams:
        return ModelParams(
            beta=np.array([c["estimate"] for c in self.coefficients]), phi=self.phi
        )

    def check_matches(self, data: ClusteredDataset):
        if data.content_hash() != self.data_hash:
            raise StaleFitError(
                "data hash does not match the fit report; refusing to diagnose "
                "against different data"
            )
