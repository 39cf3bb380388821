"""Data ingestion and machine-readable reports.

CSV conventions: comma-delimited, UTF-8 (a leading byte-order mark is
skipped), header row, '.' decimal point.  The response column must hold
non-negative integers; categorical covariates must be pre-encoded as 0/1
columns by the caller.  Rows are grouped by the cluster column in order of
first appearance.  Each needed column is converted in bulk, one pass per
column; when any cell fails, the rows are scanned in order, so an error names
the first bad row (blank lines are not counted) and, within it, the label,
then the response, then the covariates in spec order.

Fit reports are JSON documents (schema shipped under ``cpbs/schemas/``) with
per-coefficient estimate/SE/z/p, the dispersion estimate with SE only (no
z/p is reported for the dispersion), relativities exp(beta_j) for
non-intercept coefficients, and a hash of the data so diagnostics can refuse
to run against a different dataset than the one that was fitted.  A
``FitReport`` holds that document, laid out in one place, ``from_fit``; a
file read back that is not JSON, or lacks a field the command line reads, is
refused with ValueError("not a cpbs fit report: ...").
"""

from __future__ import annotations

import copy
import csv
import json
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .data import ClusteredDataset, ModelParams
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


def _parse_rows(rows, spec: ModelSpec, i_label, i_y, i_x, width):
    """Parse row by row, raising at the first bad row: the label, then the
    response, then the covariates in spec order."""
    labels, y, x = [], [], []
    # blank lines are skipped and not counted; the header is row 1
    for row_num, row in enumerate(rows, start=2):
        if len(row) < width:  # a short row's missing cells read as empty
            row = row + [""] * (width - len(row))
        label = row[i_label].strip()
        if label == "":
            raise MissingValueError(f"row {row_num}: empty cluster label")
        labels.append(label)
        y.append(_parse_count(row[i_y], row_num, spec.response))
        x.append([_parse_real(row[i], row_num, c) for i, c in i_x])
    return labels, y, np.array(x, dtype=np.float64).reshape(len(rows), len(i_x))


def _bulk_columns(rows, i_label, i_y, i_x, width):
    """Convert each needed column in one pass, or return None if any cell fails.

    ``int`` and ``float`` strip surrounding whitespace as ``_parse_count``
    and ``_parse_real`` do, so every cell that passes here parses to the
    same value there.
    """
    if min(map(len, rows)) < width:
        return None
    labels = list(map(str.strip, map(itemgetter(i_label), rows)))
    if "" in labels:
        return None
    X = np.empty((len(rows), len(i_x)))
    try:
        y = list(map(int, map(itemgetter(i_y), rows)))
        for j, (i, _) in enumerate(i_x):
            X[:, j] = np.fromiter(map(float, map(itemgetter(i), rows)), np.float64, len(rows))
    except ValueError:
        return None
    if min(y) < 0 or not np.isfinite(X).all():
        return None
    return labels, y, X


def load_csv(path, spec: ModelSpec) -> ClusteredDataset:
    """Load a clustered dataset from CSV per the column mapping.

    Clusters appear in order of first appearance of their label; an
    intercept column of ones is prepended when ``spec.intercept`` is on.
    The stacked design is checked for full column rank.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        needed = [spec.response, spec.cluster, *spec.covariates]
        missing = [c for c in needed if c not in header]
        if missing:
            raise MissingColumnError(f"missing column(s) in {path}: {', '.join(missing)}")
        rows = list(filter(None, reader))
    if not rows:
        raise MissingValueError(f"no data rows in {path}")
    index = {name: i for i, name in enumerate(header)}  # a repeated name reads its last column
    i_label, i_y = index[spec.cluster], index[spec.response]
    i_x = [(index[c], c) for c in spec.covariates]
    width = max(index[c] for c in needed) + 1
    labels, y, X = (_bulk_columns(rows, i_label, i_y, i_x, width)
                    or _parse_rows(rows, spec, i_label, i_y, i_x, width))
    del rows  # free the cells before the columns are copied
    if spec.intercept:
        X = np.column_stack([np.ones(len(labels)), X])
    codes = {label: k for k, label in enumerate(dict.fromkeys(labels))}
    cluster = np.fromiter(map(codes.__getitem__, labels), np.int64, len(labels))
    perm = np.argsort(cluster, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(np.bincount(cluster))])
    data = ClusteredDataset.from_columns(list(codes), np.array(y, dtype=np.int64)[perm], X[perm], offsets)
    data.assert_full_rank()
    return data


def write_dataset_csv(path, data: ClusteredDataset, spec: ModelSpec):
    """Write a dataset in the same CSV convention ``load_csv`` reads."""
    Xcov = data.X_stacked[:, 1:] if spec.intercept else data.X_stacked
    ids = [data.ids[k] for k in data.cluster_index.tolist()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([spec.cluster, spec.response, *spec.covariates])
        for label, y, x in zip(ids, data.y_stacked.tolist(), Xcov.tolist()):
            writer.writerow([label, y] + [repr(v) for v in x])


def _two_sided_p(z: float) -> float:
    return math.erfc(abs(z) / math.sqrt(2.0))


class FitReport:
    """One fit's report: the JSON document itself, laid out once in ``from_fit``.

    ``to_dict`` returns a copy of the document; ``spec``, ``coefficients``,
    ``phi_se`` and ``converged`` read the fields the command line uses.
    """

    def __init__(self, doc: dict):
        self._doc = doc
        self.spec = ModelSpec.from_dict(doc["model_spec"])

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
        return cls({
            "model_spec": spec.to_dict(),
            "coefficients": coefficients,
            "phi": {"estimate": float(fit.params.phi), "se": float(se[-1]) if se is not None else None},
            "loglik": float(fit.loglik),
            "data": {
                "n": data.n,
                "q": data.q,
                "cluster_sizes": [int(s) for s in data.sizes],
                "cluster_ids": [str(i) for i in data.ids],
                "hash": data.content_hash(),
            },
            "convergence": {
                "method": fit.method,
                "iterations": int(fit.iterations),
                "converged": bool(fit.converged),
                "effectively_poisson": bool(fit.phi_at_floor),
                "epsilon": float(epsilon),
            },
            "bootstrap": {"B": fit.B, "dropped": fit.boot_dropped, "seed": seed},
        })

    @property
    def coefficients(self) -> list:
        return self._doc["coefficients"]

    @property
    def phi_se(self) -> float | None:
        return self._doc["phi"]["se"]

    @property
    def converged(self) -> bool:
        return self._doc["convergence"]["converged"]

    def to_dict(self) -> dict:
        return copy.deepcopy(self._doc)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self._doc, indent=indent, sort_keys=True)

    @classmethod
    def from_json_file(cls, path) -> "FitReport":
        """Read a saved report; ValueError if it is not JSON or lacks a field the command line reads."""
        try:
            with open(path, encoding="utf-8") as fh:
                report = cls(json.load(fh))
            report.params()
            if type(report.converged) is not bool or type(report._doc["data"]["hash"]) is not str:
                raise TypeError("convergence.converged must be a boolean and data.hash a string")
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"not a cpbs fit report: {path} ({type(e).__name__}: {e})") from None
        return report

    def params(self) -> ModelParams:
        return ModelParams(
            beta=np.array([c["estimate"] for c in self.coefficients]), phi=self._doc["phi"]["estimate"]
        )

    def check_matches(self, data: ClusteredDataset):
        if data.content_hash() != self._doc["data"]["hash"]:
            raise StaleFitError(
                "data hash does not match the fit report; refusing to diagnose "
                "against different data"
            )
