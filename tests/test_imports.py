"""The CLI's import path stays lean: no scipy, and no process pool until one is used."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "concurrent"))

import cpbs.cli
after_import = loaded()

import numpy as np
from cpbs import ModelParams, bootstrap_se, em_fit, simulate_dataset

data = simulate_dataset(4, 30, ModelParams(beta=np.array([1.0, 0.5, -0.3]), phi=0.5), seed=3)
fit = em_fit(data)
serial = bootstrap_se(data, "log", fit, B=8, seed=5, workers=1)
after_serial = loaded()
parallel = bootstrap_se(data, "log", fit, B=8, seed=5, workers=2)
print(json.dumps({"after_import": after_import, "after_serial": after_serial, "after_parallel": loaded(),
                  "serial": serial.tolist(), "parallel": parallel.tolist()}))
"""


def test_cli_import_loads_no_scipy_and_no_process_pool():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["after_import"] == []
    assert out["after_serial"] == []  # a serial bootstrap starts no pool
    assert "concurrent.futures" in out["after_parallel"]
    assert not any(m.startswith("scipy") for m in out["after_parallel"])
    assert out["serial"] == out["parallel"]  # JSON floats round-trip exactly
