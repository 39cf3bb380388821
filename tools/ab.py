"""An in-process A/B of this tree's ``cpbs`` against another tree's.

    python3 tools/ab.py --src path/to/parent/checkout/src

Both packages are imported into one process, this tree's as ``cpbs_change``
and the other as ``cpbs_parent``, with one BLAS thread and
``CPBS_WORKERS=1``.  Each operation runs once on each tree untimed, where
their outputs are compared bit for bit, and then 15 timed rounds that
alternate which tree goes first.  So both sides share the process's speed
state, which drifts between processes far more than between calls.

Per operation it prints the median wall time of each tree, the median of the
per-round ratios change/parent with their quartiles, the rounds the change
won and whether the outputs were bit-equal.  The operations:

- ``em_fit`` on fresh copies of the paper cell (q=7, n_k=300) at seeds 1-8,
  the heavy totals cell (intercept 5) at seeds 3-5 and q=1000 clusters of 5
  at seed 1;
- paper-cell bootstraps: B=5 at seeds 1-4, and B=32 at seed 1;
- envelopes with m=20 on the paper cell at seeds 1-2;
- a 16-replicate Monte Carlo study of the paper cell;
- a bootstrap with B=2 of the 1000-cluster dataset;
- a bootstrap with B=20 of the tied design (the paper cell's shape with two
  Bernoulli covariates) at seed 1.

Only public names that both trees have are used, so the other tree may be
any checkout back to the one before the lock-step refits.
"""

from __future__ import annotations

import os

# one BLAS thread and one worker, so that both trees run the same serial code
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "CPBS_WORKERS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
ROUNDS = 15
PAPER_BETA = (3.0, -1.25, 0.75)
HEAVY_BETA = (5.0, -1.25, 0.75)
TIED_BETA = (1.0, 0.5, -0.3)


def load(src: Path, name: str):
    """The package ``src/cpbs``, imported as ``name``."""
    init = src / "cpbs" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def dataset(cpbs, family: str, seed: int):
    q, n_k, beta, covariates = {
        "paper": (7, 300, PAPER_BETA, None),
        "heavy": (7, 300, HEAVY_BETA, None),
        "many": (1000, 5, PAPER_BETA, None),
        "tied": (7, 300, TIED_BETA, [cpbs.CovariateColumn("bernoulli", p=0.4),
                                     cpbs.CovariateColumn("bernoulli", p=0.3)]),
    }[family]
    return cpbs.simulate_dataset(q, n_k, cpbs.ModelParams(np.array(beta), 0.45), seed=seed, covariates=covariates)


def fresh(cpbs, data):
    """A copy of ``data`` with nothing cached."""
    return cpbs.ClusteredDataset.from_columns(data.ids, data.y_stacked.copy(), data.X_stacked.copy(),
                                              data.offsets.copy())


def fit_outputs(fit):
    return fit.params.as_array(), fit.loglik, fit.loglik_trace, fit.iterations, fit.converged, fit.message


def em_fits(family: str, seeds):
    """Time ``em_fit`` on fresh copies of the datasets."""
    def setup(cpbs):
        return [dataset(cpbs, family, seed) for seed in seeds]

    def run(cpbs, datasets):
        return [fit_outputs(cpbs.em_fit(data)) for data in datasets]

    return setup, run, lambda cpbs, datasets: [fresh(cpbs, data) for data in datasets]


def fitted(family: str, seeds):
    def setup(cpbs):
        out = []
        for seed in seeds:
            data = dataset(cpbs, family, seed)
            out.append((data, cpbs.em_fit(data), seed))
        return out

    return setup


def bootstraps(family: str, seeds, B: int):
    def run(cpbs, fits):
        return [cpbs.bootstrap_se(data, "log", fit, B=B, seed=seed, workers=1) for data, fit, seed in fits]

    return fitted(family, seeds), run, None


def envelopes(seeds, m: int):
    def run(cpbs, fits):
        out = []
        for data, fit, seed in fits:
            bands = cpbs.simulated_envelopes(data, fit, m=m, seed=seed, workers=1)
            out.append((bands.sorted_r, bands.lo, bands.hi, bands.n_dropped))
        return out

    return fitted("paper", seeds), run, None


def mc_study(reps: int):
    def setup(cpbs):
        return cpbs.McConfig(q=7, n_k=300, theta_true=cpbs.ModelParams(np.array(PAPER_BETA), 0.45), reps=reps, seed=4)

    def run(cpbs, config):
        report = cpbs.run_mc_study(config, workers=1)
        return report.mean, report.rmse, report.n_failed, report.estimates, report.rep_ids

    return setup, run, None


# name: (setup once per tree, the timed run, a fresh argument per call or None to reuse the setup's)
OPERATIONS = {
    "em_fit paper seeds 1-8": em_fits("paper", range(1, 9)),
    "em_fit heavy seeds 3-5": em_fits("heavy", (3, 4, 5)),
    "em_fit many_clusters seed 1": em_fits("many", (1,)),
    "bootstrap paper B=5 seeds 1-4": bootstraps("paper", range(1, 5), 5),
    "bootstrap paper B=32 seed 1": bootstraps("paper", (1,), 32),
    "envelopes paper m=20 seeds 1-2": envelopes((1, 2), 20),
    "mc paper 16 reps": mc_study(16),
    "bootstrap many_clusters B=2": bootstraps("many", (1,), 2),
    "bootstrap tied B=20 seed 1": bootstraps("tied", (1,), 20),
}


def bits(x) -> bytes:
    """The bytes of a nest of tuples and lists of arrays and numbers, so that equal bytes are equal bits."""
    if isinstance(x, np.ndarray):
        return repr((x.dtype.str, x.shape)).encode() + x.tobytes()
    if isinstance(x, (tuple, list)):
        return b"(" + b",".join(map(bits, x)) + b")"
    return repr(x).encode()


def timed(cpbs, run, arg) -> float:
    gc.collect()
    t0 = time.perf_counter()
    run(cpbs, arg)
    return time.perf_counter() - t0


def compare(trees: dict, setup, run, refresh):
    """(seconds per round of each tree, whether the outputs were bit-equal)."""
    state = {name: setup(cpbs) for name, cpbs in trees.items()}

    def arg(name):
        return refresh(trees[name], state[name]) if refresh else state[name]

    first = {name: bits(run(cpbs, arg(name))) for name, cpbs in trees.items()}
    times = {name: [] for name in trees}
    order = list(trees)
    for r in range(ROUNDS):
        for name in order if r % 2 == 0 else order[::-1]:
            times[name].append(timed(trees[name], run, arg(name)))
    return times, len(set(first.values())) == 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True, help="the src directory of the parent tree")
    args = parser.parse_args(argv)
    trees = {"parent": load(args.src.resolve(), "cpbs_parent"), "change": load(SRC, "cpbs_change")}
    print(f"{ROUNDS} rounds; ms are medians; ratio = change/parent per round, median [quartiles]")
    print(f"{'operation':32} {'parent ms':>10} {'change ms':>10} {'ratio':>7} {'quartiles':>15} {'won':>6}  bits")
    for name, (setup, run, refresh) in OPERATIONS.items():
        times, same = compare(trees, setup, run, refresh)
        parent, change = np.array(times["parent"]), np.array(times["change"])
        q1, med, q3 = np.percentile(change / parent, [25, 50, 75])
        won = int(np.sum(change < parent))
        print(f"{name:32} {1e3 * np.median(parent):10.2f} {1e3 * np.median(change):10.2f} {med:7.3f} "
              f"{f'[{q1:.3f}, {q3:.3f}]':>15} {f'{won}/{ROUNDS}':>6}  {'equal' if same else 'DIFFER'}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
