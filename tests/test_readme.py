"""The README's documented examples run as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


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
