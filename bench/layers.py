"""Wrappers around the public functions of each cpbs module, for the traced run.

Each wrapper is installed at the name its caller looks up at call time (for
example ``cpbs.estimation.em_fit`` for the bootstrap refits, ``cpbs.cli.em_fit``
for ``cpbs fit``), so the program itself is unchanged and the spans sit at
the layer boundaries.
"""

from __future__ import annotations

import contextlib
import functools

import cpbs
import cpbs.cli
import cpbs.data
import cpbs.diagnostics
import cpbs.estimation
import cpbs.io
import cpbs.mc
import cpbs.model

from spans import Tracer


def _fit_counts(args, kwargs, fit):
    return {"iterations": int(fit.iterations)}


def _boot_counts(args, kwargs, se):
    fitted = args[2] if len(args) > 2 else kwargs["fitted"]
    return {"replicates": int(fitted.B), "dropped": int(fitted.boot_dropped)}


def _mc_counts(args, kwargs, report):
    return {"reps": int(report.config.reps), "failed": int(report.n_failed)}


def _table_counts(args, kwargs, table):
    # the table holds orders 1/2 .. m_max + 1/2: m_max recurrence steps
    return {"orders": int(table.shape[0]) - 1}


# (module, attribute, span name, counts taken from the call and its result)
SPANNED = [
    (cpbs.model, "log_likelihood", "model.log_likelihood", None),
    (cpbs.cli, "em_fit", "estimation.em_fit", _fit_counts),
    (cpbs.estimation, "em_fit", "estimation.em_fit", _fit_counts),
    (cpbs.diagnostics, "em_fit", "estimation.em_fit", _fit_counts),
    (cpbs.mc, "em_fit", "estimation.em_fit", _fit_counts),
    (cpbs.estimation, "m_step_beta", "estimation.m_step_beta", None),
    (cpbs.cli, "direct_ml_fit", "estimation.direct_ml_fit", _fit_counts),
    (cpbs, "bootstrap_se", "estimation.bootstrap_se", _boot_counts),
    (cpbs.estimation, "simulate_responses", "simulate.simulate_responses", None),
    (cpbs.diagnostics, "simulate_responses", "simulate.simulate_responses", None),
    (cpbs.mc, "simulate_responses", "simulate.simulate_responses", None),
    (cpbs.cli, "load_csv", "io.load_csv", None),
    (cpbs.io.FitReport, "to_json", "io.fit_report", None),
    (cpbs.cli, "simulated_envelopes", "diagnostics.simulated_envelopes", None),
    (cpbs.cli, "pearson_residuals", "diagnostics.pearson_residuals", None),
    (cpbs.diagnostics, "pearson_residuals", "diagnostics.pearson_residuals", None),
    (cpbs.cli, "gcd_one_step", "diagnostics.gcd_one_step", None),
    (cpbs.cli, "main", "cli.main", None),
    (cpbs.cli, "run_mc_study", "mc.run_mc_study", _mc_counts),
]


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _spanned(tracer: Tracer, name, fn, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(span, counts(args, kwargs, result) if counts and result is not None else None)

    return wrapper


def _folded(tracer: Tracer, name, fn, counts):
    clock = tracer.clock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = clock()
        result = fn(*args, **kwargs)
        tracer.fold(name, clock() - t0, counts(args, kwargs, result))
        return result

    return wrapper


@contextlib.contextmanager
def tracing(tracer: Tracer | None):
    """Record into ``tracer`` inside the block; ``None`` leaves the program untraced."""
    patches = Patches()
    if tracer is not None:
        install_tracer(tracer, patches)
    try:
        yield
    finally:
        patches.restore()


def install_tracer(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer boundary; ``patches.restore()`` takes them off again."""
    for owner, attr, name, counts in SPANNED:
        patches.set(owner, attr, _spanned(tracer, name, getattr(owner, attr), counts))

    # one call per cluster per likelihood or E-step evaluation: folded
    table = cpbs.model.log_bessel_k_half_scaled_table
    patches.set(cpbs.model, "log_bessel_k_half_scaled_table",
                _folded(tracer, "bessel.table", table, _table_counts))

    # the report is built by a classmethod; wrap the function underneath
    from_fit = cpbs.io.FitReport.__dict__["from_fit"].__func__
    patches.set(cpbs.io.FitReport, "from_fit",
                classmethod(_spanned(tracer, "io.fit_report", from_fit, None)))

    # the canonical view is a cached property: a span per build
    canonical = cpbs.data.ClusteredDataset.__dict__["canonical"]
    traced = functools.cached_property(_spanned(tracer, "data.canonical", canonical.func, None))
    traced.__set_name__(cpbs.data.ClusteredDataset, "canonical")
    patches.set(cpbs.data.ClusteredDataset, "canonical", traced)


def install_fit_capture(patches: Patches, captured: dict) -> None:
    """Keep the FitResult behind each ``cpbs fit`` for the correctness checks.

    A pass-through with no timing: ``cpbs fit`` prints a report, but the EM
    log-likelihood trace the ascent check reads lives only on the FitResult.
    """
    for attr in ("em_fit", "direct_ml_fit"):
        fn = getattr(cpbs.cli, attr)

        def keep(*args, _fn=fn, **kwargs):
            fit = _fn(*args, **kwargs)
            captured[fit.method] = fit
            return fit

        patches.set(cpbs.cli, attr, keep)
