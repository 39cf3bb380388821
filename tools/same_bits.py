"""One SHA-256 over 119 seeded outputs of the ``cpbs`` command line.

    python3 tools/same_bits.py --workers 1
    python3 tools/same_bits.py --workers 2 --src path/to/other/checkout/src

A change that must move no bit runs this on the tree before it and on the
tree after it, at one worker and at two, and compares the four digests.  The
files are written by ``cpbs.cli.main`` in-process, into a temporary
directory:

- 14 datasets (``cpbs simulate``): the 12 of the benchmark's designs, the
  paper cell (q=7, n_k=300) at seeds 1-8, q=1000 clusters of 5 at seed 1
  and the heavy totals cell (intercept 5) at seeds 3-5, and a tied design
  at seeds 1-2, the paper cell's shape with two Bernoulli covariates, whose
  rows of a cluster share X so that the counts decide their canonical order;
- four ``cpbs fit`` reports of each: em and direct, with ``--boot 0`` and
  with ``--boot 5 --seed 3``;
- the three ``cpbs diagnose`` CSVs of each em report, with 20 envelope
  replicates seeded by the dataset's seed;
- a 16-replicate ``cpbs mc`` report of the paper cell and its estimates CSV;
- a copy of the paper cell's seed-1 dataset whose labels hold a comma and a
  doubled quote, with CRLF line ends, so that ``load_csv`` reads it by its
  ``csv`` row scan; its em ``--boot 0`` report and its three diagnose CSVs,
  which quote every label.

The digest covers each file's path relative to that directory and its
bytes, in path order.  Standard output is the digest alone; a command that
exits non-zero stops the run.
"""

from __future__ import annotations

import os

# one BLAS thread, so that the digest depends on the code alone
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

PAPER_BETA = "3.0,-1.25,0.75"
# label, simulate arguments and seeds of each dataset family
DATASETS = [
    ("paper", ["--q", "7", "--n-k", "300", "--beta", PAPER_BETA], range(1, 9)),
    ("many", ["--q", "1000", "--n-k", "5", "--beta", PAPER_BETA], (1,)),
    ("heavy", ["--q", "7", "--n-k", "300", "--beta", "5.0,-1.25,0.75"], (3, 4, 5)),
    ("tied", ["--q", "7", "--n-k", "300", "--beta", "1.0,0.5,-0.3", "--covariate-spec",
              '[{"kind":"bernoulli","p":0.4},{"kind":"bernoulli","p":0.3}]'], (1, 2)),
]
FIT_ARGS = ["--response", "y", "--cluster", "cluster", "--covariates", "x1,x2"]
BOOTS = {"boot0": ["--boot", "0"], "boot5": ["--boot", "5", "--seed", "3"]}


def write_quoted_copy(src: Path, dst: Path) -> None:
    """``src`` with each label holding a comma and a doubled quote, and CRLF line ends."""
    with open(src, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows([f'{label}, say "hi"', *rest] for label, *rest in rows)


def write_outputs(main, out: Path, workers: int) -> None:
    jobs = ["--workers", workers]

    def run(*argv):
        code = main([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"same_bits: `cpbs {' '.join(map(str, argv))}` exited {code}")

    def diagnose(label, seed):
        (out / f"{label}.diagnose").mkdir()
        run("diagnose", "--data", out / f"{label}.csv", "--fit", out / f"{label}.em.boot0.json", "--out-dir",
            out / f"{label}.diagnose", "--envelope-m", 20, "--seed", seed, *jobs)

    for family, simulate, seeds in DATASETS:
        for seed in seeds:
            label = f"{family}-{seed}"
            data = out / f"{label}.csv"
            run("simulate", *simulate, "--phi", "0.45", "--seed", seed, "--out", data)
            for method in ("em", "direct"):
                for boot, boot_args in BOOTS.items():
                    run("fit", "--data", data, *FIT_ARGS, "--method", method, *boot_args, *jobs,
                        "--out", out / f"{label}.{method}.{boot}.json")
            diagnose(label, seed)
    run("mc", "--reps", 16, "--seed", 4, *jobs, "--estimates-csv", out / "mc.estimates.csv",
        "--out", out / "mc.json")
    write_quoted_copy(out / "paper-1.csv", out / "quoted-1.csv")
    run("fit", "--data", out / "quoted-1.csv", *FIT_ARGS, "--method", "em", *BOOTS["boot0"], *jobs,
        "--out", out / "quoted-1.em.boot0.json")
    diagnose("quoted-1", 1)


def digest(out: Path) -> tuple[str, int]:
    h, files = hashlib.sha256(), sorted(p for p in out.rglob("*") if p.is_file())
    for path in files:
        data = path.read_bytes()
        h.update(f"{path.relative_to(out).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest(), len(files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--src", type=Path, default=SRC, help="the src directory whose cpbs is run")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import cpbs.cli

    if Path(cpbs.cli.__file__).resolve().parent != src / "cpbs":
        raise SystemExit(f"same_bits: imported cpbs from {cpbs.cli.__file__}, not from {src}")

    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(cpbs.cli.main, Path(tmp), args.workers)
        sha, count = digest(Path(tmp))
    print(f"same_bits: {count} files", file=sys.stderr)
    print(sha)
    return 0


if __name__ == "__main__":
    sys.exit(main())
