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
lexicographically within cluster), made by one sort over all rows.

Containers are treated as immutable after construction; all evaluation code
is pure, so instances are safe to share across threads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import RankDeficiencyError

__all__ = ["Cluster", "ClusteredDataset", "ModelParams", "PHI_FLOOR"]

# Dispersion floor: the random-effect density is undefined at phi = 0, so
# fits are constrained to phi >= PHI_FLOOR; a fit at the floor is effectively
# an ordinary Poisson regression.
PHI_FLOOR = 1e-6


@dataclass(frozen=True)
class Cluster:
    """One cluster: counts ``y`` (length n_k) and covariate rows ``X`` (n_k x p)."""

    id: str
    y: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.int64)
        X = np.asarray(self.X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"cluster {self.id!r}: X must be 2-d, got shape {X.shape}")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError(
                f"cluster {self.id!r}: y length {y.shape} does not match X rows {X.shape}"
            )
        if y.shape[0] < 1:
            raise ValueError(f"cluster {self.id!r}: must contain at least one observation")
        if np.any(y < 0):
            raise ValueError(f"cluster {self.id!r}: counts must be non-negative")
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


@dataclass(frozen=True)
class _CanonicalView:
    """Deterministic arrangement of a dataset's stacked rows.

    ``perm`` maps canonical row positions to stacked-original positions, so
    ``stacked_array[perm]`` produces the canonical arrays.  ``starts`` and
    ``sizes`` delimit clusters in canonical cluster order (sorted by id), and
    ``cluster_order[i]`` is the given index of the i-th canonical cluster.
    """

    y: np.ndarray
    X: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    perm: np.ndarray
    cluster_order: np.ndarray


class ClusteredDataset:
    """Clustered counts as columns: stacked ``y`` and ``X``, cluster ids and offsets.

    Rows of cluster k are ``offsets[k]:offsets[k + 1]`` of the stacked arrays,
    in given order.  ``ClusteredDataset(clusters)`` stacks ``Cluster``
    objects; :meth:`from_columns` takes the columns directly.  ``clusters``
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
        y = np.asarray(y, dtype=np.int64)
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
        for bad_row, what in ((y < 0, "counts must be non-negative"),
                              (~np.isfinite(X).all(axis=1), "covariates must be finite")):
            bad = np.logical_or.reduceat(bad_row, offsets[:-1])
            if np.any(bad):
                raise ValueError(f"cluster {ids[int(np.argmax(bad))]!r}: {what}")
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
    def canonical(self) -> _CanonicalView:
        order = np.argsort(np.array(list(map(str, self.ids))), kind="stable")
        rank = np.empty(self.q, dtype=np.int64)
        rank[order] = np.arange(self.q)
        # one lexsort over all rows, the last key primary: clusters by id, then
        # rows by first column, second, ..., then y.  Ties are bitwise-identical
        # rows, so their relative order cannot affect any downstream arithmetic.
        X = self.X_stacked
        keys = (self.y_stacked, *(X[:, j] for j in range(X.shape[1] - 1, -1, -1)), rank[self.cluster_index])
        perm = np.lexsort(keys)
        sizes = self.sizes[order]
        return _CanonicalView(
            y=self.y_stacked[perm],
            X=X[perm],
            starts=np.cumsum(sizes) - sizes,
            sizes=sizes,
            perm=perm,
            cluster_order=order,
        )

    def assert_full_rank(self):
        """Raise RankDeficiencyError unless the stacked design has full column rank."""
        X = self.X_stacked
        if np.linalg.matrix_rank(X) < self.p:
            raise RankDeficiencyError(
                f"design matrix is rank deficient (p={self.p}, rank={np.linalg.matrix_rank(X)})"
            )

    def with_responses(self, y_new: np.ndarray) -> "ClusteredDataset":
        """New dataset with the same clusters/covariates and replaced counts.

        ``y_new`` is in stacked (given) order.
        """
        y_new = np.asarray(y_new)
        if y_new.shape != (self.n,):
            raise ValueError(f"expected {self.n} responses, got shape {y_new.shape}")
        return ClusteredDataset.from_columns(self.ids, y_new, self.X_stacked, self.offsets)

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
