"""Every name the benchmark's traced run patches in cpbs exists, and comes back.

``bench/layers.py`` wraps functions by the names their callers look up
(``owner.__dict__[attr]``), so renaming or unbinding one of them breaks
``bench/run.py --trace 1`` and the fit capture of the untraced run.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402

import cpbs  # noqa: E402
from cpbs.mc import McConfig, run_mc_study  # noqa: E402
from conftest import S5_TRUTH  # noqa: E402


def test_tracer_and_fit_capture_install_and_restore(s5_small, s5_small_fit):
    bound = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in layers.SPANNED]
    tracer, patches = Tracer(), layers.Patches()
    try:
        layers.install_tracer(tracer, patches)
        layers.install_fit_capture(patches, {})
        # the replicates of envelopes and MC are drawn through the traced name;
        # they are refitted in chunks, which call no em_fit, and each cold
        # start of an MC replicate runs the traced m_step_beta
        cpbs.simulated_envelopes(s5_small, s5_small_fit, m=20, seed=1, workers=1)
        run_mc_study(McConfig(q=3, n_k=25, theta_true=S5_TRUTH, reps=2, seed=21), workers=1)
    finally:
        patches.restore()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in bound)
    assert tracer.totals("estimation.em_fit")["calls"] == 0
    assert tracer.totals("simulate.simulate_responses")["calls"] == 22
    assert tracer.totals("estimation.m_step_beta")["calls"] == 2
