"""Data ingestion and machine-readable reports.

CSV conventions: comma-delimited, UTF-8 (a leading byte-order mark is
skipped), header row, '.' decimal point.  The response column must hold
non-negative integers below 2**63; categorical covariates must be
pre-encoded as 0/1 columns by the caller.  Rows are grouped by the cluster
column in order of first appearance.  A file with no quote character, none
of the rarer line ends of ``str.splitlines`` and no line longer than both
``int``'s digit limit and ``csv``'s field limit allow is read by numpy's C
reader in one call.  Any other file, and any file in which that reader
refuses a cell or warns, or finds an empty label, a negative count or a
non-finite cell, is scanned row by row with
``csv.reader``; only the scan raises, so an error names the first bad row
(blank lines are not counted) and, within it, the label, then the
response, then the covariates in spec order.

Every CSV the package writes goes through ``write_csv``: CRLF line ends,
``csv``'s minimal quoting of labels and names (``_csv_cells``), integers by
``str`` and floats by ``repr``, the shortest string that reads back to the
same double.

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
import sys
import warnings
from dataclasses import dataclass
from io import StringIO
from itertools import chain

import numpy as np

from .data import ClusteredDataset, ModelParams
from .estimation import FitResult
from .exceptions import (
    DataFormatError,
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
    if value >= 2**63:
        raise ResponseTypeError(f"row {row_num}: response must be below 2**63 (got {value})")
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
    return labels, np.array(y, dtype=np.int64), np.array(x, dtype=np.float64).reshape(len(rows), len(i_x))


def _scan_columns(text: str, spec: ModelSpec, path):
    """The columns by ``csv.reader`` and ``_parse_rows``: every error is raised here."""
    reader = csv.reader(StringIO(text, newline=""))
    try:
        header = next(reader, [])
        rows = list(filter(None, reader))
    except csv.Error as e:  # such as a cell longer than csv.field_size_limit()
        raise DataFormatError(f"line {reader.line_num} of {path}: {e}") from None
    needed = [spec.response, spec.cluster, *spec.covariates]
    missing = [c for c in needed if c not in header]
    if missing:
        raise MissingColumnError(f"missing column(s) in {path}: {', '.join(missing)}")
    if not rows:
        raise MissingValueError(f"no data rows in {path}")
    index = {name: i for i, name in enumerate(header)}  # a repeated name reads its last column
    i_x = [(index[c], c) for c in spec.covariates]
    width = max(index[c] for c in needed) + 1
    return _parse_rows(rows, spec, index[spec.cluster], index[spec.response], i_x, width)


# csv's quote, and the line ends of str.splitlines beyond csv.reader's CR, LF and CRLF
_NOT_PLAIN = '"\v\f\x1c\x1d\x1e\x85\u2028\u2029'


def _longest_line() -> int:
    """The longest line numpy may read: ``int`` refuses a numeral of more
    digits than ``sys.get_int_max_str_digits()`` (0: no limit; Python 3.10
    before 3.10.7 has none) and ``csv.reader`` a cell longer than
    ``csv.field_size_limit()``; numpy does neither."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return min(digits, csv.field_size_limit()) if digits else csv.field_size_limit()


def _numpy_columns(text: str, spec: ModelSpec):
    """The columns by numpy's C reader, or None to leave the file to ``_scan_columns``.

    In a text without ``_NOT_PLAIN``, ``str.splitlines`` gives csv.reader's
    rows and a comma ends a cell.  numpy refuses every numeral that it would
    read differently from ``int`` or ``float`` (``1_000``, non-ASCII digits,
    counts of 2**63 or more) but for very long numerals, so a longer line than
    ``_longest_line()``, a refused cell, a whitespace-only row, an empty label,
    a negative count or a non-finite cell leaves the file to the scan.  So
    does any warning: an older numpy reads a count of ``3.0`` as 3 with only
    a DeprecationWarning.
    """
    lines = text.splitlines()
    if not lines or not lines[0] or any(map(text.__contains__, _NOT_PLAIN)):
        return None
    header, *rows = filter(None, lines)  # blank lines are not rows
    index = {name: i for i, name in enumerate(header.split(","))}
    if (not rows or max(map(len, lines)) > _longest_line()
            or not all(c in index for c in (spec.response, spec.cluster, *spec.covariates))):
        return None
    dtype = np.dtype([("label", object), ("y", np.int64), ("x", np.float64, (len(spec.covariates),))])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1,
                               usecols=[index[c] for c in (spec.cluster, spec.response, *spec.covariates)])
    except (ValueError, Warning):  # a cell numpy refuses or reads with a warning, or a row too short
        return None
    labels, y, X = list(map(str.strip, table["label"].tolist())), table["y"], table["x"]
    if len(table) != len(rows) or "" in labels or (y < 0).any() or not np.isfinite(X).all():
        return None
    return labels, y, X


def load_csv(path, spec: ModelSpec) -> ClusteredDataset:
    """Load a clustered dataset from CSV per the column mapping.

    Clusters appear in order of first appearance of their label; an
    intercept column of ones is prepended when ``spec.intercept`` is on.
    The stacked design is checked for full column rank.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise DataFormatError(f"{path} is not UTF-8 text ({e})") from None
    labels, y, X = _numpy_columns(text, spec) or _scan_columns(text, spec, path)
    if spec.intercept:
        X = np.column_stack([np.ones(len(labels)), X])
    codes = {label: k for k, label in enumerate(dict.fromkeys(labels))}
    cluster = np.fromiter(map(codes.__getitem__, labels), np.int64, len(labels))
    perm = np.argsort(cluster, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(np.bincount(cluster))])
    data = ClusteredDataset.from_columns(list(codes), y[perm], X[perm], offsets)
    data.assert_full_rank()
    return data


def _csv_cells(values) -> list[str]:
    """Each value as ``csv.writer`` writes it inside a row: quoted only when it must be."""
    buf = StringIO()
    writerow = csv.writer(buf).writerow
    # each row is the cell, then an empty cell's ",\r\n"
    lengths = [writerow((value, "")) for value in values]
    text, start, cells = buf.getvalue(), 0, []
    for n in lengths:
        cells.append(text[start:start + n - 3])
        start += n
    return cells


def csv_labels(data: ClusteredDataset) -> list[str]:
    """Each stacked row's cluster label as ``_csv_cells`` writes it, formatted once per cluster."""
    cells = _csv_cells(data.ids)
    return [cells[k] for k in data.cluster_index.tolist()]


def write_csv(path, header, lines) -> None:
    """Write the ``header`` names and then ``lines``, each a row already
    joined by commas, as ``csv.writer`` would: the header quoted by
    ``_csv_cells``, every line ended by CRLF."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join(chain([",".join(_csv_cells(header))], lines)) + "\r\n")


def write_dataset_csv(path, data: ClusteredDataset, spec: ModelSpec):
    """Write a dataset in the same CSV convention ``load_csv`` reads."""
    Xcov = data.X_stacked[:, 1:] if spec.intercept else data.X_stacked
    columns = [csv_labels(data), map(str, data.y_stacked.tolist()), *(map(repr, x) for x in Xcov.T.tolist())]
    write_csv(path, [spec.cluster, spec.response, *spec.covariates], map(",".join, zip(*columns)))


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
