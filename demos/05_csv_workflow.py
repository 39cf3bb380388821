"""End-to-end CSV workflow: write a dataset, load it, fit, report.

The same flow is available from the command line:

    cpbs simulate --q 4 --n-k 120 --seed 5 --out counts.csv
    cpbs fit --data counts.csv --response y --cluster cluster \
             --covariates x1,x2 --boot 200 --out report.json
    cpbs diagnose --data counts.csv --fit report.json --out-dir diag/
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from cpbs import ModelParams, bootstrap_se, em_fit, load_csv, simulate_dataset
from cpbs.io import FitReport, ModelSpec, write_dataset_csv

truth = ModelParams(beta=np.array([3.0, -1.25, 0.75]), phi=0.45)
data = simulate_dataset(q=4, n_k=120, params=truth, seed=5)

with tempfile.TemporaryDirectory(prefix="cpbs_demo_") as tmp:
    workdir = Path(tmp)
    spec = ModelSpec(response="y", cluster="cluster", covariates=("x1", "x2"))
    csv_path = workdir / "counts.csv"
    write_dataset_csv(csv_path, data, spec)
    print(f"wrote {csv_path} ({data.n} rows, {data.q} clusters)")

    loaded = load_csv(csv_path, spec)
    print(f"reloaded: q={loaded.q}, sizes={list(loaded.sizes)}, p={loaded.p} (intercept prepended)")

    fit = em_fit(loaded)
    bootstrap_se(loaded, spec.link, fit, B=40, seed=11)
    report = FitReport.from_fit(loaded, spec, fit, epsilon=1e-8, seed=11)

    out = workdir / "report.json"
    out.write_text(report.to_json())
    print(f"wrote {out}")

    doc = json.loads(out.read_text())
print("\ncoefficient table:")
print(f"{'name':>10} {'estimate':>9} {'se':>7} {'z':>7} {'p':>7} {'relativity':>10}")
for c in doc["coefficients"]:
    rel = f"{c['relativity']:.3f}" if "relativity" in c else "--"
    print(
        f"{c['name']:>10} {c['estimate']:9.4f} {c['se']:7.4f} "
        f"{c['z']:7.2f} {c['p']:7.4f} {rel:>10}"
    )
print(f"{'phi':>10} {doc['phi']['estimate']:9.4f} {doc['phi']['se']:7.4f} {'--':>7} {'--':>7}")
print(f"\nloglik {doc['loglik']:.3f}; data hash {doc['data']['hash'][:12]}… binds diagnostics to this file")
