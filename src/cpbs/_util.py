"""Replicate scheduling helpers.

Replicated computations (bootstrap, envelopes, Monte Carlo studies) draw each
replicate from its own RNG stream spawned from one seed, so results are
identical whether replicates run serially or across processes.  The default
worker count comes from the ``CPBS_WORKERS`` environment variable (1 if
unset).  The process pool is imported on first parallel use, so a serial
run never loads ``concurrent.futures``.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["effective_workers", "pmap", "replicate_seeds"]


def effective_workers(workers=None) -> int:
    if workers is None:
        try:
            workers = int(os.environ.get("CPBS_WORKERS", "1"))
        except ValueError:
            workers = 1
    return max(1, int(workers))


def replicate_seeds(seed: int, n: int) -> list[np.random.SeedSequence]:
    """Independent per-replicate seed sequences derived from one seed."""
    return list(np.random.SeedSequence(seed).spawn(n))


def pmap(fn, items, workers=None) -> list:
    """Map ``fn`` over ``items`` preserving order; processes when workers > 1."""
    items = list(items)
    w = effective_workers(workers)
    if w <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=w) as ex:
        return list(ex.map(fn, items, chunksize=max(1, len(items) // (4 * w))))
