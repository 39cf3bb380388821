"""Benchmark of cpbs fit, bootstrap and diagnose on three seeded workloads.

    python3 bench/run.py --workload paper_cell --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every operation goes through a public
entry point: ``cpbs.cli.main`` in-process for ``cpbs fit``, ``cpbs diagnose``
and ``cpbs mc``, and ``cpbs.bootstrap_se`` as in the README quick start.
One round runs every operation of the workload once; a run repeats whole
rounds for about ``--seconds`` seconds, so the share of failed operations is
the same in every run.  The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``; with ``--trace 1``, per-layer metrics
from three rounds in which every operation runs untraced, traced and
untraced again.  See README.md in this directory.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: one process, one BLAS/OpenMP thread, one
# replicate worker, so EM iteration counts and timings repeat.
PINNED_ENV = {
    "CPBS_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import (CheckFailed, check_bootstrap, check_diagnose, check_em_ascent,  # noqa: E402
                    check_fit_report, check_mc, check_methods_agree, check_oracle,
                    check_se_against_spread, check_stationary, load_validator, require)
from spans import Tracer, p50, rate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PHI = 0.45
PAPER_BETA = (3.0, -1.25, 0.75)
HEAVY_BETA = (5.0, -1.25, 0.75)
SPEC_ARGS = ["--response", "y", "--cluster", "cluster", "--covariates", "x1,x2"]
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Design:
    q: int
    n_k: int
    beta: tuple


PAPER_CELL = Design(7, 300, PAPER_BETA)


@dataclass(frozen=True)
class Workload:
    """Datasets fixed by their seeds, and the operations of one round.

    ``own`` maps each kind of operation the workload runs itself to the
    dataset seeds it runs on; ``fit`` comes first, since ``boot`` and
    ``diagnose`` use the fit of the same round, and ``mc`` simulates its own
    data.  A kind the workload lacks runs once a round as a reference
    operation: ``boot`` and ``diagnose`` on paper-cell seed 2, ``mc`` as a
    paper-cell study, so every workload reports every end-to-end metric.
    """

    design: Design
    own: dict
    mc_reps: int  # replications of the ``mc`` study, own or reference
    boot_B: int = 0  # replicates per ``boot`` on the workload's datasets

    @property
    def data_seeds(self) -> list:
        return sorted({seed for seeds in self.own.values() for seed in seeds})


PAPER_SEEDS = tuple(range(1, 9))
WORKLOADS = {
    "paper_cell": Workload(PAPER_CELL, {"fit": PAPER_SEEDS, "direct": PAPER_SEEDS, "boot": (1, 2, 3, 4),
                                        "diagnose": (1, 2), "mc": ()}, mc_reps=16, boot_B=5),
    "many_clusters": Workload(Design(1000, 5, PAPER_BETA), {"fit": (1,), "direct": (1,), "boot": (1,)},
                              mc_reps=4, boot_B=2),
    "heavy_totals": Workload(Design(7, 300, HEAVY_BETA), {"fit": (3, 4, 5), "direct": (3, 4, 5)}, mc_reps=4),
}
REFERENCE_SEED = 2
REFERENCE_BOOT_B = 10
ENVELOPE_M = 20
MC_SEED = 4
KINDS = ("fit", "direct", "boot", "diagnose", "mc")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_cpbs():
    """Import cpbs from this checkout's ``src``, and from nowhere else."""
    if not (SRC / "cpbs" / "__init__.py").is_file():
        raise SystemExit(f"bench: no cpbs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cpbs

    if Path(cpbs.__file__).resolve().parent != (SRC / "cpbs").resolve():
        raise SystemExit(f"bench: imported cpbs from {cpbs.__file__}, not from {SRC}")
    return cpbs


def environment(args) -> dict:
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workers": int(os.environ["CPBS_WORKERS"]),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --- inputs ------------------------------------------------------------------

@dataclass
class Dataset:
    label: str
    design: Design
    seed: int
    data: object
    csv: Path
    em_fit: object = None  # FitResult of the latest ``fit`` operation
    em_report: Path | None = None
    first_reports: dict = field(default_factory=dict)


def write_interleaved_csv(path: Path, data, rng) -> None:
    """Write ``data`` with the rows of its clusters interleaved at random.

    Each cluster keeps its row order and clusters keep their order of first
    appearance, so ``load_csv`` rebuilds exactly ``data``: the workload seed
    changes the file, never the dataset.  Designs here are balanced, so
    relabelling a shuffled label sequence by first appearance keeps sizes.
    """

    sizes = data.sizes
    labels = np.repeat(np.arange(data.q), sizes)
    rng.shuffle(labels)
    first = np.unique(labels, return_index=True)[1]
    relabel = np.empty(data.q, dtype=np.int64)
    relabel[np.argsort(first)] = np.arange(data.q)
    labels = relabel[labels]
    next_row = np.zeros(data.q, dtype=np.int64)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("cluster,y,x1,x2\n")
        for k in labels:
            c = data.clusters[k]
            i = next_row[k]
            next_row[k] += 1
            fh.write(f"{c.id},{int(c.y[i])},{float(c.X[i, 1])!r},{float(c.X[i, 2])!r}\n")

def generate(cpbs, design: Design, seed: int, label: str, work: Path, rng) -> Dataset:

    truth = cpbs.ModelParams(beta=np.array(design.beta), phi=PHI)
    data = cpbs.simulate_dataset(design.q, design.n_k, truth, seed=seed)
    path = work / f"{label}.csv"
    write_interleaved_csv(path, data, rng)
    return Dataset(label, design, seed, data, path)


# --- operations --------------------------------------------------------------

class Ledger:
    """Every operation attempted: kind, wall time, failed, and whether it counts toward timings."""
    def __init__(self):
        self.ops = []

    def add(self, kind, seconds, failed, timed=True, work=1):
        self.ops.append({"kind": kind, "s": seconds, "failed": failed, "timed": timed, "work": work})

    def wall_s(self) -> float:
        return sum(op["s"] for op in self.ops)

    def times(self, kind):
        return [op["s"] for op in self.ops if op["kind"] == kind and op["timed"]]

    def work(self, kind):
        return sum(op["work"] for op in self.ops if op["kind"] == kind and op["timed"])

    def counts(self) -> dict:
        out = {k: {"attempted": 0, "failed": 0} for k in KINDS}
        for op in self.ops:
            out[op["kind"]]["attempted"] += 1
            out[op["kind"]]["failed"] += int(op["failed"])
        return out

class Bench:
    def __init__(self, cpbs, args, work: Path):
        self.cpbs = cpbs
        self.args = args
        self.work = work
        self.workload = WORKLOADS[args.workload]
        self.rng = np.random.default_rng(args.seed)
        self.captured = {}
        self.fit_validator = load_validator(ROOT, "fit_report.schema.json")
        self.mc_validator = load_validator(ROOT, "mc_report.schema.json")
        self.checks_run = 0
        self.checked = set()
        self.boot_ses = []
        self.mc_first = None

    def truth(self, design: Design):
        return self.cpbs.ModelParams(beta=np.array(design.beta), phi=PHI)

    # set-up ---------------------------------------------------------------

    def set_up_once(self) -> float:
        """Import, dataset generation, CSV writing and one warm-up fit; returns seconds."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cpbs.cli"], env=env, cwd=ROOT, check=True)
        wl = self.workload
        self.datasets = [
            generate(self.cpbs, wl.design, s, f"{self.args.workload}-{s}", self.work, self.rng)
            for s in wl.data_seeds
        ]
        self.reference = generate(self.cpbs, PAPER_CELL, REFERENCE_SEED, "reference", self.work, self.rng)
        code, _ = self.cli_fit(self.reference, "em")
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise SystemExit(f"bench: warm-up fit exited {code}")
        self.check_fit(self.reference, "em", code)
        return elapsed

    # operations -------------------------------------------------------------

    def cli(self, argv) -> tuple[int, float]:
        t0 = time.perf_counter()
        code = self.cpbs.cli.main(argv)
        return code, time.perf_counter() - t0

    def cli_fit(self, ds: Dataset, method: str) -> tuple[int, float]:
        out = self.work / f"{ds.label}.{method}.json"
        code, seconds = self.cli(["fit", "--data", str(ds.csv), *SPEC_ARGS, "--method", method,
                                  "--boot", "0", "--out", str(out)])
        if method == "em":
            ds.em_fit, ds.em_report = self.captured["em"], out
        return code, seconds

    def first_time(self, ds: Dataset, kind: str) -> bool:
        """Full checks run on the first output of each dataset and kind."""
        if (ds.label, kind) in self.checked:
            return False
        self.checked.add((ds.label, kind))
        self.checks_run += 1
        return True

    def op_fit(self, ds, ledger, method="em"):
        kind = "fit" if method == "em" else "direct"
        code, seconds = self.cli_fit(ds, method)
        ledger.add(kind, seconds, failed=code != 0)
        self.check_fit(ds, method, code)

    def op_direct(self, ds, ledger):
        self.op_fit(ds, ledger, method="direct")

    def op_boot(self, ds, ledger):
        B = self.workload.boot_B if ds is not self.reference else REFERENCE_BOOT_B
        t0 = time.perf_counter()
        try:
            se = self.cpbs.bootstrap_se(ds.data, "log", ds.em_fit, B, ds.seed)
        except ValueError:
            # refused: bootstrap requires a converged fit
            ledger.add("boot", time.perf_counter() - t0, failed=True, timed=False)
            require(not ds.em_fit.converged, "bootstrap_se refused a converged fit")
            return
        ledger.add("boot", time.perf_counter() - t0, failed=False, work=B)
        if self.first_time(ds, "boot"):
            check_bootstrap(se, ds.em_fit)
            if ds is not self.reference:
                self.boot_ses.append(se)

    def op_diagnose(self, ds, ledger):
        out = self.work / f"{ds.label}.diag"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        code, seconds = self.cli(["diagnose", "--data", str(ds.csv), "--fit", str(ds.em_report),
                                  "--out-dir", str(out), "--envelope-m", str(ENVELOPE_M),
                                  "--seed", str(ds.seed)])
        refused = not ds.em_fit.converged
        ledger.add("diagnose", seconds, failed=code != 0, timed=not refused)
        if refused:
            require(code == 3, f"cpbs diagnose on a non-converged fit exited {code}, not 3")
            return
        require(code == 0, f"cpbs diagnose exited {code}")
        if self.first_time(ds, "diagnose"):
            check_diagnose(out, ds.data.n)

    def op_mc(self, ledger):
        out = self.work / "mc.json"
        estimates = self.work / "mc-estimates.csv"
        beta = ",".join(repr(b) for b in PAPER_CELL.beta)
        reps = self.workload.mc_reps
        code, seconds = self.cli(["mc", "--q", str(PAPER_CELL.q), "--n-k", str(PAPER_CELL.n_k),
                                  "--beta", beta, "--phi", repr(PHI), "--reps", str(reps),
                                  "--seed", str(MC_SEED), "--out", str(out),
                                  "--estimates-csv", str(estimates)])
        ledger.add("mc", seconds, failed=code != 0, work=reps)
        require(code == 0, f"cpbs mc exited {code}")
        text = out.read_text(encoding="utf-8")
        if self.mc_first is None:
            self.mc_first = text
            self.checks_run += 1
            check_mc(json.loads(text), estimates, self.truth(PAPER_CELL).as_array(), self.mc_validator)
        require(text == self.mc_first, "cpbs mc report differs between rounds")

    # checks on fits ---------------------------------------------------------

    def check_fit(self, ds: Dataset, method: str, code: int):
        """Every round's report must equal the first; the first gets the full checks."""
        fit = self.captured[method]
        text = (self.work / f"{ds.label}.{method}.json").read_text(encoding="utf-8")
        first = ds.first_reports.setdefault(method, text)
        require(text == first, f"{ds.label} {method} report differs between rounds")
        if not self.first_time(ds, method):
            return
        check_fit_report(json.loads(text), code, fit, ds.data.content_hash(), self.fit_validator)
        if method == "em":
            check_em_ascent(fit)
        if fit.converged:
            check_stationary(self.cpbs, ds.data, fit, self.truth(ds.design))
        if method == "direct" and fit.converged and ds.em_fit.converged:
            check_methods_agree(ds.em_fit, fit)

    def check_oracle(self) -> int:
        """Log pmf and posterior moments of sampled clusters against quadrature."""
        picks = []
        for ds in self.datasets:
            totals = [int(c.y.sum()) for c in ds.data.clusters]
            picks.append((ds, int(np.argmax(totals))))
        for _ in range(3):
            ds = self.datasets[int(self.rng.integers(len(self.datasets)))]
            picks.append((ds, int(self.rng.integers(ds.data.q))))
        clusters = []
        for ds, k in picks:
            c = ds.data.clusters[k]
            clusters.append((c.y, np.exp(c.X @ np.array(ds.design.beta))))
        return check_oracle(self.cpbs, clusters, PHI)

    def check_workload(self):
        """Checks that need every dataset of the pool."""
        if self.args.workload != "paper_cell":
            return
        estimates = [ds.em_fit.params.as_array() for ds in self.datasets if ds.em_fit.converged]
        check_se_against_spread(self.boot_ses, np.array(estimates))
        self.checks_run += 1

    # rounds -----------------------------------------------------------------

    def own_schedule(self) -> list:
        """The workload's own operations of one round, visiting its datasets in
        a seeded order; each takes the ledger to record into."""
        ops = {"fit": self.op_fit, "direct": self.op_direct, "boot": self.op_boot,
               "diagnose": self.op_diagnose}
        own = self.workload.own
        schedule = []
        for i in self.rng.permutation(len(self.datasets)):
            ds = self.datasets[i]
            schedule += [functools.partial(ops[kind], ds) for kind, seeds in own.items() if ds.seed in seeds]
        if "mc" in own:
            schedule.append(self.op_mc)
        return schedule

    def reference_ops(self, ledger: Ledger):
        own = self.workload.own
        if "boot" not in own:
            self.op_boot(self.reference, ledger)
        if "diagnose" not in own:
            self.op_diagnose(self.reference, ledger)
        if "mc" not in own:
            self.op_mc(ledger)

    def run_round(self, ledger: Ledger):
        for op in self.own_schedule():
            op(ledger)
        self.reference_ops(ledger)

    def traced_rounds(self, ledger: Ledger, own: Tracer, reference: Tracer) -> float:
        """Three whole rounds, each operation run untraced, traced, untraced.

        The traced runs of the workload's own operations record into ``own``,
        those of the reference operations into ``reference``.  Returns the
        tracing overhead: the own operations' traced wall time minus the mean
        of their untraced wall times just before and after, so drift in the
        machine's speed over a few seconds cancels.
        """
        from layers import tracing  # imports cpbs, so only once it is on the path

        traced_s = untraced_s = 0.0
        for op in self.own_schedule():
            for tracer in (None, own, None):
                part = Ledger()
                with tracing(tracer):
                    op(part)
                if tracer is None:
                    untraced_s += part.wall_s()
                else:
                    traced_s += part.wall_s()
                ledger.ops += part.ops
        for tracer in (None, reference, None):
            with tracing(tracer):
                self.reference_ops(ledger)
        return traced_s - untraced_s / 2.0


def end_to_end(ledger: Ledger, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "fit_s.p50": (p50(ledger.times("fit")), "s"),
        "fits_per_s": (rate(len(ledger.times("fit")), sum(ledger.times("fit"))), "1/s"),
        "direct_fit_s.p50": (p50(ledger.times("direct")), "s"),
        "boot_refits_per_s": (rate(ledger.work("boot"), sum(ledger.times("boot"))), "1/s"),
        "diagnose_s.p50": (p50(ledger.times("diagnose")), "s"),
        "mc_reps_per_s": (rate(ledger.work("mc"), sum(ledger.times("mc"))), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def posterior_s_per_call(bench: Bench, repeats: int = 3) -> float:
    """Seconds per ``posterior_moments`` call at each dataset's fitted parameters."""
    total, calls = 0.0, 0
    for ds in bench.datasets:
        params = ds.em_fit.params
        bench.cpbs.posterior_moments(ds.data, params)  # builds the canonical view
        t0 = time.perf_counter()
        for _ in range(repeats):
            bench.cpbs.posterior_moments(ds.data, params)
        total += time.perf_counter() - t0
        calls += repeats
    return total / calls


def per_layer(own: Tracer, reference: Tracer, overhead_s: float, posterior_s: float) -> dict:
    def t(name):
        """A layer's figures from the workload's own operations, or from the
        reference operations when its own never reach that layer."""
        totals = own.totals(name)
        return totals if totals["calls"] else reference.totals(name)

    em = t("estimation.em_fit")
    direct = t("estimation.direct_ml_fit")
    boot = t("estimation.bootstrap_se")
    mc = t("mc.run_mc_study")
    table = t("bessel.table")
    return {
        "bessel.table.calls": (table.get("calls", 0), "count"),
        "bessel.table.orders": (table.get("orders", 0), "count"),
        "bessel.table.self_s": (table.get("self_s", 0.0), "s"),
        "model.log_likelihood.calls": (t("model.log_likelihood")["calls"], "count"),
        "model.log_likelihood.self_s": (t("model.log_likelihood")["self_s"], "s"),
        "estimation.em_fit.iterations": (em.get("iterations", 0), "count"),
        "estimation.em_fit.self_s": (em["self_s"], "s"),
        "estimation.em_fit.s_per_iter": (em["duration_s"] / max(em.get("iterations", 0), 1), "s"),
        "estimation.posterior_moments.s_per_call": (posterior_s, "s"),
        "estimation.m_step_beta.calls": (t("estimation.m_step_beta")["calls"], "count"),
        "estimation.m_step_beta.self_s": (t("estimation.m_step_beta")["self_s"], "s"),
        "estimation.direct_ml_fit.iterations": (direct.get("iterations", 0), "count"),
        "estimation.direct_ml_fit.loglik_calls": (
            own.child_calls("estimation.direct_ml_fit", "model.log_likelihood"), "count"),
        "estimation.bootstrap_se.replicates": (boot.get("replicates", 0), "count"),
        "estimation.bootstrap_se.dropped": (boot.get("dropped", 0), "count"),
        "simulate.simulate_responses.calls": (t("simulate.simulate_responses")["calls"], "count"),
        "simulate.simulate_responses.self_s": (t("simulate.simulate_responses")["self_s"], "s"),
        "data.canonical.builds": (t("data.canonical")["calls"], "count"),
        "data.canonical.self_s": (t("data.canonical")["self_s"], "s"),
        "io.load_csv.self_s": (t("io.load_csv")["self_s"], "s"),
        "io.fit_report.self_s": (t("io.fit_report")["self_s"], "s"),
        "diagnostics.simulated_envelopes.self_s": (t("diagnostics.simulated_envelopes")["self_s"], "s"),
        "diagnostics.pearson_residuals.calls": (t("diagnostics.pearson_residuals")["calls"], "count"),
        "diagnostics.gcd_one_step.self_s": (t("diagnostics.gcd_one_step")["self_s"], "s"),
        "cli.main.self_s": (t("cli.main")["self_s"], "s"),
        "mc.run_mc_study.reps": (mc.get("reps", 0), "count"),
        "mc.run_mc_study.failed": (mc.get("failed", 0), "count"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.seconds > 0:
        raise SystemExit("bench: --seconds must be positive")
    cpbs = import_cpbs()
    from layers import Patches, install_fit_capture

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    bench = Bench(cpbs, args, work)
    patches = Patches()
    install_fit_capture(patches, bench.captured)
    ledger = Ledger()
    try:
        setup_s = sorted(bench.set_up_once() for _ in range(SETUP_REPEATS))[SETUP_REPEATS // 2]
        if args.trace:
            own, reference = Tracer(), Tracer()
            overhead_s = bench.traced_rounds(ledger, own, reference)
            metrics = per_layer(own, reference, overhead_s, posterior_s_per_call(bench))
            own.write_jsonl(work / f"trace-{args.seed}.jsonl")
            reference.write_jsonl(work / f"trace-{args.seed}-reference.jsonl")
        else:
            rounds = 0
            start = time.perf_counter()
            while True:
                round_start = time.perf_counter()
                bench.run_round(ledger)
                rounds += 1
                now = time.perf_counter()
                # start another whole round only if it ends nearer the budget than stopping now
                if now - start + 0.5 * (now - round_start) >= args.seconds:
                    break
            print(f"rounds {rounds} in {now - start:.1f} s")
            metrics = end_to_end(ledger, setup_s)
        oracle_clusters = bench.check_oracle()
        bench.check_workload()
        correct = True
    except CheckFailed as e:
        print(f"check failed: {e}", file=sys.stderr)
        correct, metrics, oracle_clusters = False, {}, 0
    finally:
        patches.restore()

    counts = ledger.counts()
    print("ops " + json.dumps(counts, sort_keys=True))
    print(f"checks {bench.checks_run} outputs, {oracle_clusters} clusters against quadrature: "
          f"{'ok' if correct else 'FAILED'}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": sum(c["attempted"] for c in counts.values()),
        "failed": sum(c["failed"] for c in counts.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (work / f"result-{args.seed}-{args.trace}.json").write_text(
        json.dumps({"env": env, "ops": counts, **result}, indent=2, sort_keys=True), encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
