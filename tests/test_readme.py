"""The README's documented examples and the demos run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
DEMOS = ROOT / "demos"
SRC = ROOT / "src"


def _python_block(section: str) -> str:
    text = README.read_text(encoding="utf-8")
    body = text.split(f"## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", body, re.S).group(1)


def test_quick_start_runs_as_written(capsys):
    namespace = {}
    exec(compile(_python_block("Quick start"), "README quick start", "exec"), namespace)
    assert namespace["fit"].converged
    se = namespace["se"]
    assert se.shape == (4,) and np.all(np.isfinite(se)) and np.all(se > 0)
    assert namespace["fit"].B == 500
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda path: path.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
