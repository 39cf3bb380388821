"""Clustered count data containers and model parameters.

A dataset is a collection of clusters; within a cluster every observation
shares one latent multiplicative effect, so estimation only ever touches the
data through per-cluster aggregates.  It is stored as columns: the stacked
counts and covariate rows, the cluster ids, and the row offsets at which
each cluster starts, so per-cluster sums are segment reductions
(``np.add.reduceat``) and no evaluation loops over clusters in Python.
``Cluster`` objects are views onto those columns, built on request.  To make
fits reproducible bit-for-bit under reordering of observations or clusters,
estimation code consumes the ``canonical`` view, which fixes one
deterministic arrangement of the rows (clusters sorted by id, rows
lexicographically within cluster).  The view has two parts: a design part
fixed by the ids, offsets and X (the sort of all rows by cluster and X, the
cluster bounds, the groups of rows that share cluster and X, and the rank
of X), and a response part (the row permutation, y and the canonical X).
``with_responses`` shares the design part with the dataset it derives from,
so a simulated replicate sorts only the counts within those groups, and not
at all when no two rows of a cluster share X.  ``_Design.views`` makes the
response parts of one dataset or of a chunk of replicates in one pass:
``canonical`` calls it on one row of counts, ``_Replicates`` on a chunk's.

Containers are treated as immutable after construction; all evaluation code
is pure, so instances are safe to share across threads.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import RankDeficiencyError

__all__ = ["Cluster", "ClusteredDataset", "ModelParams", "PHI_FLOOR"]

# Dispersion floor: the random-effect density is undefined at phi = 0, so
# fits are constrained to phi >= PHI_FLOOR; a fit at the floor is effectively
# an ordinary Poisson regression.
PHI_FLOOR = 1e-6


# log k! = math.lgamma(k + 1.0) for the counts k below the table's length
_LOG_FACTORIALS = np.array([math.lgamma(k + 1.0) for k in range(1 << 12)])


def _log_factorial(y: np.ndarray) -> np.ndarray:
    """log y! for each of the non-negative integer counts ``y``, of any shape.

    Counts below the length of ``_LOG_FACTORIALS`` read the table; above it
    ``math.lgamma`` is evaluated once per distinct count, so the work and
    memory are bounded by the number of counts, not by their size.
    """
    if not y.size or y.max() < _LOG_FACTORIALS.shape[0]:
        return _LOG_FACTORIALS[y]
    values, inverse = np.unique(y, return_inverse=True)
    return np.array([math.lgamma(v + 1.0) for v in values.tolist()])[inverse.reshape(y.shape)]


def _refuse(bad_row: np.ndarray, ids, offsets: np.ndarray, what: str):
    """Raise ValueError naming the first cluster that has a row in ``bad_row``."""
    if np.any(bad_row):
        bad = np.logical_or.reduceat(bad_row, offsets[:-1])
        raise ValueError(f"cluster {ids[int(np.argmax(bad))]!r}: {what}")


def _as_counts(y: np.ndarray, ids, offsets: np.ndarray) -> np.ndarray:
    """Counts as int64, refusing any that are not non-negative integers, by cluster.

    Integer-valued floats are accepted; a fraction, NaN, an infinity or a
    value beyond int64 is refused, not truncated by the cast.
    """
    if y.dtype.kind not in "iub":
        y = y.astype(np.float64)
        # NaN fails both comparisons
        _refuse(~((np.floor(y) == y) & (np.abs(y) < 2.0**63)), ids, offsets, "counts must be finite integers")
    y = y.astype(np.int64, copy=False)
    _refuse(y < 0, ids, offsets, "counts must be non-negative")
    return y


@dataclass(frozen=True)
class Cluster:
    """One cluster: counts ``y`` (length n_k) and covariate rows ``X`` (n_k x p)."""

    id: str
    y: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y)
        X = np.asarray(self.X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"cluster {self.id!r}: X must be 2-d, got shape {X.shape}")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError(
                f"cluster {self.id!r}: y length {y.shape} does not match X rows {X.shape}"
            )
        if y.shape[0] < 1:
            raise ValueError(f"cluster {self.id!r}: must contain at least one observation")
        y = _as_counts(y, (self.id,), np.array([0, y.shape[0]]))
        if not np.all(np.isfinite(X)):
            raise ValueError(f"cluster {self.id!r}: covariates must be finite")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)

    @classmethod
    def _view(cls, id, y: np.ndarray, X: np.ndarray) -> "Cluster":
        """A cluster over slices of a dataset's validated columns, not checked again."""
        view = object.__new__(cls)
        object.__setattr__(view, "id", id)
        object.__setattr__(view, "y", y)
        object.__setattr__(view, "X", X)
        return view

    @property
    def n(self) -> int:
        return self.y.shape[0]


class _Design:
    """The part of the canonical view that the ids, offsets and X fix.

    ``order`` sorts the stacked rows by cluster (clusters by id), then by the
    columns of X in turn, ties going to the given row index.  ``starts``,
    ``sizes`` and ``cluster_order`` are those of ``_CanonicalView``.
    ``groups`` numbers, along ``order``, the runs of rows that share their
    cluster and every covariate, within which the counts decide the
    canonical order; it is None when no two rows of a cluster share X, and
    ``order`` is then the canonical order itself, and ``X``, the rows of X
    in ``order``, and ``X_t``, built on first use, are the canonical X of
    every dataset of the design.  ``rank`` is the column rank of X,
    computed on first use.
    """

    def __init__(self, ids, X: np.ndarray, offsets: np.ndarray):
        q, sizes = len(ids), np.diff(offsets)
        cluster_order = np.argsort(np.array(list(map(str, ids))), kind="stable")
        rank = np.empty(q, dtype=np.int64)
        rank[cluster_order] = np.arange(q)
        # lexsort takes its last key as primary and is stable
        self.order = np.lexsort((*(X[:, j] for j in range(X.shape[1] - 1, -1, -1)), np.repeat(rank, sizes)))
        self.sizes = sizes[cluster_order]
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.cluster_order = cluster_order
        self._X_stacked = X
        self.X = X = X[self.order]
        cluster = np.repeat(np.arange(q), self.sizes)
        tied = (cluster[1:] == cluster[:-1]) & (X[1:] == X[:-1]).all(axis=1)
        self.groups = np.concatenate([[0], np.cumsum(~tied)]) if np.any(tied) else None

    @cached_property
    def rank(self) -> int:
        return int(np.linalg.matrix_rank(self._X_stacked))

    @cached_property
    def X_t(self) -> np.ndarray:
        return np.ascontiguousarray(self.X.T)

    def views(self, Y: np.ndarray) -> list:
        """The canonical views of the count rows ``Y`` (R x n, in stacked order), one per row.

        With tied rows, one stable lexsort orders each row's counts within the
        groups, row after row, as a sort of that row alone would.
        """
        R, n = Y.shape
        y = Y.take(self.order, axis=1)
        if self.groups is None:
            perm, X, X_t = [self.order] * R, [self.X] * R, [self.X_t] * R
        else:
            rows = np.arange(R)[:, None]
            s = np.lexsort((y.ravel(), (self.groups + (self.groups[-1] + 1) * rows).ravel()))
            perm, y = self.order[s.reshape(R, n) - n * rows], y.ravel()[s].reshape(R, n)
            X = self._X_stacked.take(perm, axis=0)
            X_t = np.ascontiguousarray(X.transpose(0, 2, 1))
        y_tot, lgamma = np.add.reduceat(y, self.starts, axis=1), np.add.reduceat(_log_factorial(y), self.starts, axis=1)
        return [_CanonicalView(*arrays, starts=self.starts, sizes=self.sizes, cluster_order=self.cluster_order)
                for arrays in zip(y, X, X_t, perm, y_tot, lgamma)]


@dataclass(frozen=True)
class _CanonicalView:
    """Deterministic arrangement of a dataset's stacked rows.

    ``perm`` maps canonical row positions to stacked-original positions, so
    ``stacked_array[perm]`` produces the canonical arrays.  ``starts`` and
    ``sizes`` delimit clusters in canonical cluster order (sorted by id), and
    ``cluster_order[i]`` is the given index of the i-th canonical cluster.
    ``y_tot`` and ``lgamma`` hold each canonical cluster's count total and
    sum of log(y!), which depend on the counts alone, and so does
    ``kernel``, the Bessel kernel's layout of ``y_tot``, built on first
    use.  ``starts``, ``sizes`` and ``cluster_order`` come from the
    dataset's ``_Design``, and are the same arrays in every dataset that
    shares it; so are ``X`` and ``X_t`` when the design has no tied rows.
    ``X_t`` is ``X`` transposed into C order, for sums over the rows of each
    cluster.
    """

    y: np.ndarray
    X: np.ndarray
    X_t: np.ndarray
    perm: np.ndarray
    y_tot: np.ndarray
    lgamma: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    cluster_order: np.ndarray

    @cached_property
    def kernel(self):
        from .model import _KernelLayout  # model imports this module

        return _KernelLayout(self.y_tot)


class ClusteredDataset:
    """Clustered counts as columns: stacked ``y`` and ``X``, cluster ids and offsets.

    Rows of cluster k are ``offsets[k]:offsets[k + 1]`` of the stacked arrays,
    in given order.  ``ClusteredDataset(clusters)`` stacks ``Cluster``
    objects; :meth:`from_columns` takes the columns directly, and
    :meth:`with_responses` replaces the counts of a dataset.  ``clusters``
    is a tuple of views onto the columns, built on first use.
    """

    def __init__(self, clusters):
        clusters = tuple(clusters)
        if len(clusters) < 1:
            raise ValueError("dataset must contain at least one cluster")
        p = clusters[0].X.shape[1]
        if any(c.X.shape[1] != p for c in clusters):
            raise ValueError("all clusters must share the same covariate dimension")
        self._set_columns(
            [c.id for c in clusters],
            np.concatenate([c.y for c in clusters]),
            np.vstack([c.X for c in clusters]),
            np.concatenate([[0], np.cumsum([c.n for c in clusters])]),
        )

    @classmethod
    def from_columns(cls, ids, y, X, offsets) -> "ClusteredDataset":
        """A dataset from the cluster ids, stacked counts ``y`` (n), covariates
        ``X`` (n x p) and the q + 1 row offsets at which the clusters start."""
        dataset = object.__new__(cls)
        dataset._set_columns(ids, y, X, offsets)
        return dataset

    def _set_columns(self, ids, y, X, offsets):
        """Check the columns as ``Cluster`` checks each cluster, then store them."""
        ids = tuple(ids)
        y = np.asarray(y)
        X = np.asarray(X, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if len(ids) < 1:
            raise ValueError("dataset must contain at least one cluster")
        if X.ndim != 2 or y.shape != X.shape[:1]:
            raise ValueError(f"y of shape {y.shape} does not match X of shape {X.shape}")
        if offsets.shape != (len(ids) + 1,) or offsets[0] != 0 or offsets[-1] != y.shape[0]:
            raise ValueError(f"offsets must run from 0 to {y.shape[0]} in {len(ids) + 1} entries")
        if len(set(ids)) != len(ids):
            raise ValueError("cluster ids must be unique")
        empty = np.diff(offsets) < 1
        if np.any(empty):
            raise ValueError(f"cluster {ids[int(np.argmax(empty))]!r}: must contain at least one observation")
        y = _as_counts(y, ids, offsets)
        _refuse(~np.isfinite(X).all(axis=1), ids, offsets, "covariates must be finite")
        self.ids = ids
        self.y_stacked = y  # counts in given cluster/row order
        self.X_stacked = X  # design matrix in given cluster/row order
        self.offsets = offsets

    @property
    def q(self) -> int:
        return len(self.ids)

    @property
    def p(self) -> int:
        return self.X_stacked.shape[1]

    @property
    def n(self) -> int:
        return self.y_stacked.shape[0]

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    @cached_property
    def clusters(self) -> tuple[Cluster, ...]:
        y, X, bounds = self.y_stacked, self.X_stacked, self.offsets.tolist()
        return tuple(Cluster._view(i, y[a:b], X[a:b]) for i, a, b in zip(self.ids, bounds, bounds[1:]))

    @cached_property
    def cluster_index(self) -> np.ndarray:
        """Per stacked row, the index of its cluster in ``clusters``."""
        return np.repeat(np.arange(self.q), self.sizes)

    @cached_property
    def _design(self) -> _Design:
        return _Design(self.ids, self.X_stacked, self.offsets)

    @cached_property
    def canonical(self) -> _CanonicalView:
        """Rows sorted by cluster, X and y, ties to the given row index: the
        ``_Design`` order, with the rows of each of its groups sorted by y.
        Ties left are bitwise-identical rows, so their relative order cannot
        affect any downstream arithmetic.
        """
        return self._design.views(self.y_stacked[None])[0]

    def assert_full_rank(self):
        """Raise RankDeficiencyError unless the stacked design has full column rank."""
        rank = self._design.rank
        if rank < self.p:
            raise RankDeficiencyError(f"design matrix is rank deficient (p={self.p}, rank={rank})")

    def with_responses(self, y_new: np.ndarray) -> "ClusteredDataset":
        """New dataset with the same clusters/covariates and replaced counts.

        ``y_new`` is in stacked (given) order.  The counts are checked as
        :meth:`from_columns` checks them; the ids, offsets and X, checked
        when this dataset was made, are shared as they are, and so is the
        design part of the canonical view (built here if it was not yet),
        so that every dataset derived from one design sorts it once.
        """
        y_new = np.asarray(y_new)
        if y_new.shape != (self.n,):
            raise ValueError(f"expected {self.n} responses, got shape {y_new.shape}")
        data = object.__new__(ClusteredDataset)
        data.ids, data.X_stacked, data.offsets = self.ids, self.X_stacked, self.offsets
        data.y_stacked = _as_counts(y_new, self.ids, self.offsets)
        data._design = self._design
        return data

    def content_hash(self) -> str:
        """Order-sensitive digest of ids, counts and covariates.

        Recorded in fit reports so diagnostics can refuse to run against a
        dataset other than the one that produced the fit.
        """
        # byte views of the stacked columns: the per-cluster slices hash the
        # same bytes as each cluster's own arrays
        y, X = memoryview(self.y_stacked.tobytes()), memoryview(np.ascontiguousarray(self.X_stacked).tobytes())
        y_row, x_row = self.y_stacked.itemsize, self.X_stacked.itemsize * self.p
        bounds = self.offsets.tolist()
        h = hashlib.sha256()
        for i, a, b in zip(self.ids, bounds, bounds[1:]):
            h.update(repr(i).encode())
            h.update(y[a * y_row : b * y_row])
            h.update(X[a * x_row : b * x_row])
            h.update(repr((b - a, self.p)).encode())
        return h.hexdigest()


def _stack(arrays: list) -> np.ndarray:
    """Arrays of one shape stacked along a new first axis; one array is a view of it."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


class _Replicates:
    """Datasets that share one design, side by side for evaluation.

    ``views`` are their canonical views; ``y``, ``y_tot`` and ``lgamma``
    stack their canonical counts, count totals and log-factorial sums, one
    row per dataset; ``X_t`` is the canonical X transposed, shared (p x n)
    or, on a design with tied rows, one per dataset (R x p x n).  A view a
    dataset has cached is reused; those of two or more that have none are
    made here by one ``_Design.views``, and each dataset keeps its own.  One
    alone is made by its ``canonical``, the build that the benchmark's trace
    counts per fitted dataset.  ``kernels`` holds the Bessel kernel's
    layouts of groups of the datasets, which ``model._kernel_groups`` keeps
    from one pass to the next.
    """

    def __init__(self, datasets):
        design = datasets[0]._design
        self.starts, self.sizes, self.p = design.starts, design.sizes, datasets[0].p
        self.kernels = {}
        fresh = [d for d in datasets if "canonical" not in vars(d)]
        if len(fresh) > 1:
            for data, view in zip(fresh, design.views(np.stack([d.y_stacked for d in fresh]))):
                vars(data)["canonical"] = view
        self.views = [d.canonical for d in datasets]
        self.y, self.y_tot, self.lgamma = (_stack([getattr(v, a) for v in self.views]) for a in ("y", "y_tot", "lgamma"))
        self.X_t = design.X_t if design.groups is None else _stack([v.X_t for v in self.views])


@dataclass(frozen=True)
class ModelParams:
    """Regression coefficients and dispersion: theta = (beta, phi)."""

    beta: np.ndarray
    phi: float

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=np.float64))
        phi = float(self.phi)
        if not np.all(np.isfinite(beta)):
            raise ValueError("beta must be finite")
        if not (phi > 0.0) or not np.isfinite(phi):
            raise ValueError(f"phi must be positive and finite (got {phi!r})")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "phi", phi)

    @property
    def p(self) -> int:
        return self.beta.shape[0]

    def as_array(self) -> np.ndarray:
        """Flat parameter vector (beta..., phi)."""
        return np.concatenate([self.beta, [self.phi]])
