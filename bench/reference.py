"""Regenerate the reference figures: repeated runs of bench/run.py, summarized.

    python3 bench/reference.py --seeds 1-10 --seconds 30 > reference.md

Runs every workload once per seed, one run at a time, then prints a table
with each end-to-end metric's median per workload, the quartile spread as a
share of the median (as ``statistics.quantiles(values, n=4)`` gives the
quartiles), and the failed operations.  With ``--trace`` it adds one traced
run per workload at the first seed and a table of its per-layer metrics.  ``--raw FILE``
also writes every run's result line, as JSONL, for run-by-run comparisons.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("paper_cell", "many_clusters", "heavy_totals")


def seed_range(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--raw", default=None, help="also write every run's result as JSONL")
    args = parser.parse_args(argv)
    seeds = seed_range(args.seeds)
    summary, traced = {}, {}
    for workload in WORKLOADS:
        summary[workload] = [run(workload, seed, args.seconds, 0) for seed in seeds]
        if args.trace:
            traced[workload] = run(workload, seeds[0], args.seconds, 1)
    if args.raw:
        with open(args.raw, "w", encoding="utf-8") as fh:
            for workload in WORKLOADS:
                for seed, result in zip(seeds, summary[workload]):
                    fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")

    print(f"End-to-end, {len(seeds)} runs per workload (seeds {args.seeds}, {args.seconds:g} s each): "
          "median, and in brackets the quartile spread as a share of the median.\n")
    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    first = summary[WORKLOADS[0]][0]["metrics"]
    for name, m in first.items():
        cells = []
        for workload in WORKLOADS:
            values = [r["metrics"][name]["value"] for r in summary[workload]]
            median = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                cells.append(f"{median:.4g} ({(q3 - q1) / median:.3f})")
            else:
                cells.append(f"{median:.4g}")
        print(f"| `{name}` | {m['unit']} | " + " | ".join(cells) + " |")
    cells = []
    for workload in WORKLOADS:
        results = summary[workload]
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        ok = all(r["correct"] for r in results)
        cells.append(f"{', '.join(shares)}{'' if ok else ' INCORRECT'}")
    print("| failed / attempted | ops | " + " | ".join(cells) + " |")
    if traced:
        print(f"\nPer-layer, one traced run per workload at seed {seeds[0]}:\n")
        print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
        print("|---|---|" + "---|" * len(WORKLOADS))
        for name, m in traced[WORKLOADS[0]]["metrics"].items():
            cells = [f"{traced[w]['metrics'][name]['value']:.4g}" for w in WORKLOADS]
            print(f"| `{name}` | {m['unit']} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
