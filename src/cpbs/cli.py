"""Command-line workflow: fit, diagnose, simulate, mc.

Exit codes are a stable contract:

    0  success
    2  fit did not converge (a report is still emitted)
    3  usage error (bad flags/arguments)
    4  file not found / unreadable
    5  data format error (missing column, non-integer response, NaN cell, not UTF-8)
    6  rank-deficient design
    7  estimation failure (inner solver, too many replicate failures)
    8  stale fit (data hash mismatch)
    9  invalid study config file

Worker processes for bootstrap/envelope/Monte-Carlo replicates default to
the CPBS_WORKERS environment variable (1 if unset); ``--workers`` overrides.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .data import ClusteredDataset, ModelParams
from .diagnostics import gcd_one_step, pearson_residuals, simulated_envelopes
from .estimation import EmConfig, bootstrap_se, direct_ml_fit, em_fit, posterior_moments
from .exceptions import (
    BootstrapFailureError,
    ConfigSchemaError,
    CpbsError,
    DataFormatError,
    MStepConvergenceError,
    RankDeficiencyError,
    StaleFitError,
)
from .io import FitReport, ModelSpec, csv_labels, load_csv, write_csv, write_dataset_csv
from .mc import McConfig, run_mc_study
from .simulate import CovariateColumn, _is_number, default_covariate_spec, simulate_dataset

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_USAGE = 3
EXIT_IO = 4
EXIT_DATA_FORMAT = 5
EXIT_RANK = 6
EXIT_ESTIMATION = 7
EXIT_STALE_FIT = 8
EXIT_CONFIG = 9


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _spec_from_args(args) -> ModelSpec:
    covariates = tuple(c.strip() for c in args.covariates.split(",") if c.strip())
    if not covariates:
        raise _UsageError("--covariates must name at least one column")
    return ModelSpec(
        response=args.response,
        cluster=args.cluster,
        covariates=covariates,
        intercept=not args.no_intercept,
        link=args.link,
    )


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text + ("" if text.endswith("\n") else "\n"))


def cmd_fit(args) -> int:
    if args.boot != 0 and args.boot < 2:
        raise _UsageError("--boot must be 0 (no bootstrap) or at least 2")
    spec = _spec_from_args(args)
    data = load_csv(args.data, spec)
    config = EmConfig(epsilon=args.epsilon, max_iter=args.max_iter)
    fit = (em_fit if args.method == "em" else direct_ml_fit)(data, config)
    if fit.converged and args.boot:
        bootstrap_se(data, spec.link, fit, B=args.boot, seed=args.seed, workers=args.workers)
    report = FitReport.from_fit(data, spec, fit, epsilon=config.epsilon, seed=args.seed)
    _emit(report.to_json(), args.out)
    return EXIT_OK if fit.converged else EXIT_NOT_CONVERGED


def _within_cluster_index(data: ClusteredDataset) -> np.ndarray:
    """Per stacked row, its 1-based position within its cluster."""
    return np.arange(1, data.n + 1) - data.offsets[data.cluster_index]


def cmd_diagnose(args) -> int:
    report = FitReport.from_json_file(args.fit)
    data = load_csv(args.data, report.spec)
    report.check_matches(data)
    # refuse before any file is written: the envelopes need a converged fit and m >= 20
    if not report.converged:
        raise _UsageError("envelopes require a converged fit")
    if args.envelope_m < 20:
        raise _UsageError("--envelope-m must be at least 20")
    params = report.params()

    res = pearson_residuals(data, params)
    labels = csv_labels(data)
    idx = _within_cluster_index(data).tolist()
    y = data.y_stacked.tolist()
    write_csv(f"{args.out_dir}/residuals.csv", ["cluster", "index", "y", "lambda_hat", "sigma2_hat", "r"],
              [f"{c},{i},{n},{lam!r},{s2!r},{r!r}" for c, i, n, lam, s2, r in
               zip(labels, idx, y, res.lambda_hat.tolist(), res.sigma2_hat.tolist(), res.r.tolist())])

    bands = simulated_envelopes(data, params, m=args.envelope_m, seed=args.seed, workers=args.workers)
    inside = (bands.lo <= bands.sorted_r) & (bands.sorted_r <= bands.hi)
    rows = [f"{k},{r!r},{lo!r},{hi!r},{b}" for k, r, lo, hi, b in
            zip(range(1, data.n + 1), bands.sorted_r.tolist(), bands.lo.tolist(), bands.hi.tolist(),
                inside.astype(int).tolist())]
    write_csv(f"{args.out_dir}/envelope.csv", ["rank", "r_sorted", "lo", "hi", "inside"],
              rows + [f"coverage,{float(bands.coverage)!r},,,"])

    delta = posterior_moments(data, params).delta
    infl = gcd_one_step(data, params, delta)
    order = np.argsort(-infl.gcd1, kind="stable")
    write_csv(f"{args.out_dir}/gcd.csv", ["rank", "cluster", "index", "y", "gcd1", "a", "g"],
              [f"{k},{labels[i]},{idx[i]},{y[i]},{g1!r},{a!r},{g!r}" for k, i, g1, a, g in
               zip(range(1, data.n + 1), order.tolist(), infl.gcd1[order].tolist(), infl.a[order].tolist(),
                   infl.g[order].tolist())])
    return EXIT_OK


def _covariate_spec_from_json(text: str) -> list[CovariateColumn]:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigSchemaError(f"covariate spec is not valid JSON: {e}") from None
    if not isinstance(raw, list) or not raw:
        raise ConfigSchemaError("covariate spec must be a non-empty JSON array")
    return [CovariateColumn.from_dict(d) for d in raw]


def cmd_simulate(args) -> int:
    covariates = (
        _covariate_spec_from_json(args.covariate_spec)
        if args.covariate_spec
        else default_covariate_spec()
    )
    beta = np.array([float(b) for b in args.beta.split(",")])
    params = ModelParams(beta=beta, phi=args.phi)
    if params.p != len(covariates) + 1:
        raise _UsageError(
            f"beta has {params.p} entries but the design has {len(covariates) + 1} "
            "columns (intercept + covariates)"
        )
    data = simulate_dataset(args.q, args.n_k, params, seed=args.seed, covariates=covariates)
    spec = ModelSpec(
        response="y", cluster="cluster",
        covariates=tuple(f"x{i + 1}" for i in range(len(covariates))),
    )
    write_dataset_csv(args.out, data, spec)
    return EXIT_OK


# the study config keys, with the values a key takes when neither a flag nor the file gives it
_MC_DEFAULTS = {"q": 7, "n_k": 300, "reps": 500, "seed": 0, "beta": [3.0, -1.25, 0.75], "phi": 0.45,
                "covariates": [], "link": "log"}


def _mc_config_from_file(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigSchemaError(f"study config is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigSchemaError("study config must be a JSON object")
    for key in raw:
        if key not in _MC_DEFAULTS:
            raise ConfigSchemaError(f"unknown study config key: {key!r}")
    return raw


def cmd_mc(args) -> int:
    flags = {key: getattr(args, key) for key in ("q", "n_k", "reps", "seed", "phi")}
    if args.beta is not None:
        flags["beta"] = [float(b) for b in args.beta.split(",")]  # a bad flag is a usage error
    defaults = {**_MC_DEFAULTS, "reps": 5000} if args.full_scale else _MC_DEFAULTS
    # flags over the file over the defaults
    raw = {**defaults, **(_mc_config_from_file(args.config) if args.config else {}),
           **{key: value for key, value in flags.items() if value is not None}}
    if not isinstance(raw["covariates"], list):
        raise ConfigSchemaError("study config key 'covariates' must be a JSON array")
    if not (isinstance(raw["beta"], list) and all(map(_is_number, raw["beta"]))):
        raise ConfigSchemaError("study config key 'beta' must be a JSON array of numbers")
    if not _is_number(raw["phi"]):
        raise ConfigSchemaError("study config key 'phi' must be a number")
    try:
        theta = ModelParams(beta=np.asarray(raw["beta"], dtype=float), phi=raw["phi"])
    except ValueError as e:
        raise ConfigSchemaError(f"invalid theta in study config: {e}") from None
    config = McConfig(
        q=raw["q"], n_k=raw["n_k"], theta_true=theta, reps=raw["reps"], seed=raw["seed"],
        covariates=tuple(CovariateColumn.from_dict(d) for d in raw["covariates"]), link=raw["link"],
    )
    report = run_mc_study(config, workers=args.workers)
    _emit(json.dumps(report.to_dict(), indent=2, sort_keys=True), args.out)
    if args.estimates_csv:
        write_csv(args.estimates_csv, ["rep", *config.param_names],
                  [",".join([str(rid), *map(repr, row)])
                   for rid, row in zip(report.rep_ids.tolist(), report.estimates.tolist())])
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="cpbs", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the model to a CSV dataset")
    p_fit.add_argument("--data", required=True, help="input CSV path")
    p_fit.add_argument("--response", required=True, help="response column (non-negative integers)")
    p_fit.add_argument("--cluster", required=True, help="cluster label column")
    p_fit.add_argument("--covariates", required=True, help="comma-separated covariate columns")
    p_fit.add_argument("--no-intercept", action="store_true", help="do not prepend an intercept")
    p_fit.add_argument("--link", default="log", help="link function; only the default, log, is supported")
    p_fit.add_argument("--method", choices=["em", "direct"], default="em")
    p_fit.add_argument("--boot", type=int, default=500,
                       help="bootstrap replications for SEs, 0 or at least 2 (default 500; 0 skips)")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--epsilon", type=float, default=1e-8,
                       help="the fit is certified when the Newton decrement g'(-H)^-1 g is at "
                            "most this (default 1e-8)")
    p_fit.add_argument("--max-iter", type=int, default=500)
    p_fit.add_argument("--workers", type=int, default=None)
    p_fit.add_argument("--out", default=None, help="report path (default: stdout)")
    p_fit.set_defaults(func=cmd_fit)

    p_diag = sub.add_parser("diagnose", help="residuals, envelope bands, influence")
    p_diag.add_argument("--data", required=True, help="the CSV the fit was produced from")
    p_diag.add_argument("--fit", required=True, help="saved fit report JSON")
    p_diag.add_argument("--out-dir", required=True, help="directory for the three CSVs")
    p_diag.add_argument("--envelope-m", type=int, default=100, help="envelope replicates, at least 20")
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--workers", type=int, default=None)
    p_diag.set_defaults(func=cmd_diagnose)

    p_sim = sub.add_parser("simulate", help="write one synthetic dataset CSV")
    p_sim.add_argument("--q", type=int, default=7)
    p_sim.add_argument("--n-k", type=int, default=300)
    p_sim.add_argument("--beta", default="3.0,-1.25,0.75", help="comma-separated coefficients")
    p_sim.add_argument("--phi", type=float, default=0.45)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--covariate-spec", default=None,
                       help='JSON array, e.g. [{"kind":"normal","mean":3.7,"sd":0.2}]')
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    p_mc = sub.add_parser("mc", help="run a Monte Carlo study cell")
    p_mc.add_argument("--config", default=None, help="JSON config file")
    p_mc.add_argument("--q", type=int, default=None)
    p_mc.add_argument("--n-k", type=int, default=None)
    p_mc.add_argument("--reps", type=int, default=None)
    p_mc.add_argument("--seed", type=int, default=None)
    p_mc.add_argument("--beta", default=None)
    p_mc.add_argument("--phi", type=float, default=None)
    p_mc.add_argument("--full-scale", action="store_true",
                      help="5000 replications instead of the desk-scale 500")
    p_mc.add_argument("--workers", type=int, default=None)
    p_mc.add_argument("--estimates-csv", default=None, help="also write per-replicate estimates")
    p_mc.add_argument("--out", default=None, help="report path (default: stdout)")
    p_mc.set_defaults(func=cmd_mc)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built once per process; ``parse_args`` keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:  # not found, a directory, not permitted
        print(f"file error: {e}", file=sys.stderr)
        return EXIT_IO
    except ConfigSchemaError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except StaleFitError as e:
        print(f"stale fit: {e}", file=sys.stderr)
        return EXIT_STALE_FIT
    except DataFormatError as e:
        print(f"data error [{e.code}]: {e}", file=sys.stderr)
        return EXIT_DATA_FORMAT
    except RankDeficiencyError as e:
        print(f"rank error: {e}", file=sys.stderr)
        return EXIT_RANK
    except (MStepConvergenceError, BootstrapFailureError, CpbsError) as e:
        print(f"estimation error [{getattr(e, 'code', 'error')}]: {e}", file=sys.stderr)
        return EXIT_ESTIMATION


if __name__ == "__main__":
    sys.exit(main())
