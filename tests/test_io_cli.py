import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jsonschema

from cpbs import ClusteredDataset, ModelParams, load_csv
from cpbs.cli import main as cli_main
from cpbs.diagnostics import gcd_one_step, pearson_residuals, simulated_envelopes
from cpbs.estimation import posterior_moments
from cpbs.exceptions import (
    MissingColumnError,
    MissingValueError,
    RankDeficiencyError,
    ResponseTypeError,
)
from cpbs.io import FitReport, ModelSpec, write_dataset_csv

SRC = Path(__file__).resolve().parents[1] / "src"
SCHEMA_DIR = SRC / "cpbs" / "schemas"


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


SPEC = ModelSpec(response="y", cluster="region", covariates=("age", "female"))


def reference_load_csv(path, spec):
    """The row-by-row loader, kept as the oracle for ``load_csv``'s bulk conversion."""
    labels, y, x = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        index = {name: i for i, name in enumerate(next(reader))}
        width = max(index[c] for c in (spec.response, spec.cluster, *spec.covariates)) + 1
        for row in filter(None, reader):
            row = row + [""] * (width - len(row))
            labels.append(row[index[spec.cluster]].strip())
            y.append(int(row[index[spec.response]].strip()))
            x.append([float(row[index[c]].strip()) for c in spec.covariates])
    X = np.array(x, dtype=np.float64).reshape(len(labels), len(spec.covariates))
    if spec.intercept:
        X = np.column_stack([np.ones(len(labels)), X])
    codes = {}
    cluster = np.array([codes.setdefault(label, len(codes)) for label in labels], dtype=np.int64)
    perm = np.argsort(cluster, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(np.bincount(cluster))])
    return ClusteredDataset.from_columns(list(codes), np.array(y, dtype=np.int64)[perm], X[perm], offsets)


ROWS = "a,1,0.5,0\nb,2,0.1,1\na,0,0.7,1\nc,3,0.9,0\nb,1,0.3,0\nc,0,0.2,1\n"
HEADER = "region,y,age,female\n"

# (CSV text, spec): every file loads; the bulk path must give the oracle's bits
PARITY_CORPUS = {
    "whitespace_padded": (HEADER + " a , 1 ,0.5 , 0\nb,\t2, 0.1,1 \n a,0 ,0.7,1\nc , 3,0.9,0\nb,1,0.3,0\nc,0,0.2,1\n",
                          SPEC),
    "short_rows": ("region,y,age,female,note\n" + ROWS.replace("\n", ",x\n", 2), SPEC),
    "blank_lines": ("\n".join([HEADER, *ROWS.split("\n")[:3], "", *ROWS.split("\n")[3:]]), SPEC),
    "quoted_labels_with_commas": (HEADER + ROWS.replace("a,", '"north, east",').replace("c,", '"s,w",'), SPEC),
    "repeated_header_reads_last": ("region,y,age,female,age\n"
                                   + "".join(f"{r},9\n" if i % 2 else f"{r},{i}\n"
                                             for i, r in enumerate(ROWS.splitlines())), SPEC),
    "numerals": (HEADER + "a,+3,1e-3,0\nb,1_000,0.1,1\na,0,7E-1,1\nc,3,1_0.5,0\nb,1,-0.3,+0\nc,0,.2,1\n", SPEC),
    "zero_padded_labels_are_distinct": (HEADER + ROWS.replace("a,", "01,").replace("b,", "1,"), SPEC),
    "no_intercept": (HEADER + ROWS, ModelSpec(response="y", cluster="region", covariates=("age", "female"),
                                              intercept=False)),
    "intercept_only": (HEADER + ROWS, ModelSpec(response="y", cluster="region", covariates=())),
}


class TestLoadCsv:
    def test_grouping_and_counts(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["region", "y", "age", "female"], [
            ["a", 1, 0.5, 0],
            ["a", 0, 0.7, 1],
            ["b", 2, 0.1, 0],
            ["b", 3, 0.9, 1],
        ])
        data = load_csv(p, SPEC)
        assert data.q == 2
        assert list(data.sizes) == [2, 2]
        assert data.n == 4
        assert data.p == 3  # intercept prepended
        np.testing.assert_array_equal(data.X_stacked[:, 0], 1.0)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["region", "y", "age"], [["a", 1, 0.5]])
        with pytest.raises(MissingColumnError):
            load_csv(p, SPEC)

    def test_non_integer_response(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["region", "y", "age", "female"], [["a", 1.5, 0.5, 0], ["a", 1, 0.6, 1], ["b", 2, 0.7, 0]])
        with pytest.raises(ResponseTypeError):
            load_csv(p, SPEC)

    def test_negative_response(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["region", "y", "age", "female"], [["a", -1, 0.5, 0]])
        with pytest.raises(ResponseTypeError):
            load_csv(p, SPEC)

    def test_nan_cell(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["region", "y", "age", "female"], [["a", 1, "", 0], ["a", 1, 0.6, 1]])
        with pytest.raises(MissingValueError):
            load_csv(p, SPEC)

    def test_duplicated_column_rank_deficiency(self, tmp_path):
        p = tmp_path / "d.csv"
        rows = [["a", 1, 0.5, 0.5], ["a", 0, 0.7, 0.7], ["b", 2, 0.1, 0.1], ["b", 1, 0.3, 0.3]]
        write_csv(p, ["region", "y", "age", "female"], rows)
        with pytest.raises(RankDeficiencyError):
            load_csv(p, SPEC)

    def test_meps_shaped_sizes(self, tmp_path, meps_csv):
        path, spec, _ = meps_csv
        data = load_csv(path, spec)
        assert data.q == 4
        assert list(data.sizes) == [393, 286, 764, 557]

    def test_round_trip_write_read(self, tmp_path):
        params = ModelParams(beta=np.array([0.2, 0.3]), phi=0.4)
        from cpbs import simulate_dataset
        from cpbs.simulate import CovariateColumn

        data = simulate_dataset(3, 12, params, seed=4, covariates=[CovariateColumn("normal", mean=0, sd=1)])
        spec = ModelSpec(response="y", cluster="cluster", covariates=("x1",))
        p = tmp_path / "rt.csv"
        write_dataset_csv(p, data, spec)
        back = load_csv(p, spec)
        assert np.array_equal(back.y_stacked, data.y_stacked)
        np.testing.assert_array_equal(back.X_stacked, data.X_stacked)


    def test_interleaved_rows_load_to_the_same_dataset(self, tmp_path):
        params = ModelParams(beta=np.array([0.2, 0.3]), phi=0.4)
        from cpbs import simulate_dataset
        from cpbs.simulate import CovariateColumn

        data = simulate_dataset(6, 9, params, seed=11, covariates=[CovariateColumn("normal", mean=0, sd=1)])
        spec = ModelSpec(response="y", cluster="cluster", covariates=("x1",))
        grouped = tmp_path / "grouped.csv"
        write_dataset_csv(grouped, data, spec)
        # deal the rows out round-robin: each cluster keeps its row order and
        # clusters keep their order of first appearance
        with open(grouped, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        by_cluster = [[r for r in rows if r[0] == cid] for cid in data.ids]
        dealt = [cl[i] for i in range(max(map(len, by_cluster))) for cl in by_cluster if i < len(cl)]
        interleaved = tmp_path / "interleaved.csv"
        write_csv(interleaved, header, dealt)
        a, b = load_csv(grouped, spec), load_csv(interleaved, spec)
        assert a.ids == b.ids == data.ids
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.y_stacked, b.y_stacked) and np.array_equal(a.X_stacked, b.X_stacked)
        assert a.content_hash() == b.content_hash() == data.content_hash()

    def test_errors_name_the_first_bad_row(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["region", "y", "age", "female"], [
            ["a", 1, 0.5, 0], ["b", 2, "nan", 1], ["a", -1, 0.7, 1], ["", 1, 0.1, 0],
        ])
        with pytest.raises(MissingValueError, match=r"^row 3: NaN/inf cell in column 'age'$"):
            load_csv(p, SPEC)

    @pytest.mark.parametrize("case", sorted(PARITY_CORPUS))
    def test_bulk_conversion_matches_the_row_by_row_reference(self, tmp_path, case):
        text, spec = PARITY_CORPUS[case]
        p = tmp_path / "d.csv"
        p.write_text(text, encoding="utf-8", newline="")
        got, want = load_csv(p, spec), reference_load_csv(p, spec)
        assert got.ids == want.ids
        assert np.array_equal(got.offsets, want.offsets)
        assert got.y_stacked.dtype == want.y_stacked.dtype and got.y_stacked.tobytes() == want.y_stacked.tobytes()
        assert got.X_stacked.shape == want.X_stacked.shape and got.X_stacked.tobytes() == want.X_stacked.tobytes()
        assert got.content_hash() == want.content_hash()

    def test_parity_corpus_cases_do_what_they_name(self, tmp_path):
        def load(case):
            text, spec = PARITY_CORPUS[case]
            p = tmp_path / f"{case}.csv"
            p.write_text(text, encoding="utf-8", newline="")
            return load_csv(p, spec)

        assert load("quoted_labels_with_commas").ids == ("north, east", "b", "s,w")
        assert load("zero_padded_labels_are_distinct").ids == ("01", "1", "c")
        assert load("repeated_header_reads_last").X_stacked[:, 1].tolist() == [0, 2, 9, 4, 9, 9]
        assert load("numerals").y_stacked.tolist() == [3, 0, 1000, 1, 3, 0]
        assert load("no_intercept").p == 2 and load("intercept_only").p == 1

    @pytest.mark.parametrize("header, rows, error, message", [
        # the first bad row is a label error; later rows are bad in the response and a covariate
        (HEADER, "a,1,0.5,0\n\n,2,0.1,1\nb,-1,0.3,0\nc,1,x,1\n",
         MissingValueError, "row 3: empty cluster label"),
        # the first bad row is a response error; later rows are bad in the label and a covariate
        (HEADER, "a,1,0.5,0\nb,1.5,0.1,1\n\n,1,0.3,0\nc,1,nan,1\n",
         ResponseTypeError, "row 3: response column 'y' must hold integers (got '1.5')"),
        (HEADER, "a,1,0.5,0\n\nb,-1,0.1,1\n,1,0.3,0\n",
         ResponseTypeError, "row 3: response must be non-negative (got -1)"),
        # the first bad row is a covariate error; later rows are bad in the label and the response
        (HEADER, "a,1,0.5,0\nb,2,inf,1\n\n,1,0.3,0\nc,-2,0.1,1\n",
         MissingValueError, "row 3: NaN/inf cell in column 'age'"),
        (HEADER, "a,1,0.5,0\n\n\nb,2,0.1\nc,x,0.1,1\n",
         MissingValueError, "row 3: empty cell in column 'female'"),
        # the only bad cell in the file
        (HEADER, "a,1,0.5,0\nb,2,0.1,1\n\t,0,0.7,1\n", MissingValueError, "row 4: empty cluster label"),
        (HEADER, "a,1,0.5,0\nb,-3,0.1,1\n", ResponseTypeError, "row 3: response must be non-negative (got -3)"),
        (HEADER, "a,1,0.5,0\nb,2,0.1,-inf\n", MissingValueError, "row 3: NaN/inf cell in column 'female'"),
        (HEADER, "a,1,0.5,0\nb,2,0.1\n", MissingValueError, "row 3: empty cell in column 'female'"),
        # one row bad in two columns: label before response before covariates, these in spec order
        (HEADER, "a,1,0.5,0\n ,nan,0.1,1\n", MissingValueError, "row 3: empty cluster label"),
        (HEADER, "a,1,0.5,0\nb, NaN ,x,1\n", MissingValueError, "row 3: empty/NaN value in response column 'y'"),
        ("region,y,female,age\n", "a,1,0,0.5\nb,2,x,y\n",
         MissingValueError, "row 3: non-numeric cell in column 'age' ('y')"),
    ])
    def test_errors_take_row_then_column_precedence(self, tmp_path, header, rows, error, message):
        p = tmp_path / "d.csv"
        p.write_text(header + rows, encoding="utf-8", newline="")
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            load_csv(p, SPEC)

    def test_utf8_byte_order_mark_is_skipped(self, tmp_path):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(HEADER + ROWS, encoding="utf-8")
        bom.write_text(HEADER + ROWS, encoding="utf-8-sig")
        assert bom.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        assert load_csv(bom, SPEC).content_hash() == load_csv(plain, SPEC).content_hash()


class TestFitReportArithmetic:
    def make_report(self, estimates, ses, names):
        from cpbs.estimation import FitResult
        from cpbs import Cluster, ClusteredDataset

        X = np.column_stack([np.ones(4)] + [np.arange(4.0) + i for i in range(len(names) - 1)])
        data = ClusteredDataset((Cluster(id="a", y=np.array([0, 1, 2, 1]), X=X),))
        fit = FitResult(
            params=ModelParams(beta=np.array(estimates), phi=0.175),
            loglik=-1.0,
            loglik_trace=np.array([-1.0]),
            iterations=3,
            converged=True,
            method="em",
            se=np.array(ses + [0.080]),
            B=500,
            boot_dropped=0,
        )
        spec = ModelSpec(response="y", cluster="c", covariates=tuple(names[1:]))
        return FitReport.from_fit(data, spec, fit, epsilon=1e-8, seed=0)

    def test_z_p_relativity_columns(self):
        # published-fit arithmetic: intercept -4.139 (SE 0.420) and the
        # female coefficient 0.388 with relativity 1.474
        report = self.make_report([-4.139, 0.388], [0.420, 0.159], ["intercept", "female"])
        coef = {c["name"]: c for c in report.coefficients}
        assert coef["intercept"]["z"] == pytest.approx(-9.855, abs=0.01)
        assert coef["intercept"]["p"] < 0.001
        assert "relativity" not in coef["intercept"]
        assert coef["female"]["relativity"] == pytest.approx(1.474, abs=5e-4)
        assert coef["female"]["z"] == pytest.approx(2.441, abs=0.01)
        assert coef["female"]["p"] == pytest.approx(0.015, abs=0.002)
        assert report.phi_se == pytest.approx(0.080)

    def test_zero_coefficient_unit_relativity(self):
        report = self.make_report([0.5, 0.0], [0.2, 0.1], ["intercept", "x"])
        coef = {c["name"]: c for c in report.coefficients}
        assert coef["x"]["relativity"] == 1.0

    def test_json_round_trip(self, tmp_path):
        report = self.make_report([-4.139, 0.388], [0.420, 0.159], ["intercept", "female"])
        p = tmp_path / "r.json"
        p.write_text(report.to_json())
        back = FitReport.from_json_file(p)
        assert back.to_dict() == report.to_dict()

    def test_schema_validates(self):
        report = self.make_report([-4.139, 0.388], [0.420, 0.159], ["intercept", "female"])
        schema = json.loads((SCHEMA_DIR / "fit_report.schema.json").read_text())
        jsonschema.validate(report.to_dict(), schema)


def run_cli(*args):
    return cli_main([str(a) for a in args])


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def sim_csv(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    path = d / "sim.csv"
    code = run_cli("simulate", "--q", 4, "--n-k", 40, "--seed", 3, "--out", path)
    assert code == 0
    return d, path


@pytest.fixture(scope="module")
def fit_json(sim_csv):
    d, path = sim_csv
    out = d / "fit.json"
    code = run_cli(
        "fit", "--data", path, "--response", "y", "--cluster", "cluster",
        "--covariates", "x1,x2", "--boot", 12, "--seed", 1, "--out", out,
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def diagnose_dir(sim_csv, fit_json):
    d, path = sim_csv
    out_dir = d / "diag"
    out_dir.mkdir()
    code = run_cli(
        "diagnose", "--data", path, "--fit", fit_json, "--out-dir", out_dir,
        "--envelope-m", 25, "--seed", 2,
    )
    assert code == 0
    return out_dir


def write_diagnose_csvs_by_row(out_dir, data, params, m, seed):
    """The row-by-row writers of ``cpbs diagnose``, kept as the reference for its byte format."""
    res = pearson_residuals(data, params)
    ids = [str(i) for i in data.ids]
    labels = [ids[k] for k in data.cluster_index.tolist()]
    idx = np.arange(1, data.n + 1) - data.offsets[data.cluster_index]
    y = data.y_stacked
    with open(out_dir / "residuals.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["cluster", "index", "y", "lambda_hat", "sigma2_hat", "r"])
        for i in range(data.n):
            w.writerow([
                labels[i], int(idx[i]), int(y[i]),
                repr(float(res.lambda_hat[i])), repr(float(res.sigma2_hat[i])), repr(float(res.r[i])),
            ])
    bands = simulated_envelopes(data, params, m=m, seed=seed, workers=1)
    with open(out_dir / "envelope.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["rank", "r_sorted", "lo", "hi", "inside"])
        for i in range(data.n):
            inside = int(bands.lo[i] <= bands.sorted_r[i] <= bands.hi[i])
            w.writerow([
                i + 1, repr(float(bands.sorted_r[i])),
                repr(float(bands.lo[i])), repr(float(bands.hi[i])), inside,
            ])
        w.writerow(["coverage", repr(float(bands.coverage)), "", "", ""])
    infl = gcd_one_step(data, params, posterior_moments(data, params).delta)
    order = np.argsort(-infl.gcd1, kind="stable")
    with open(out_dir / "gcd.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["rank", "cluster", "index", "y", "gcd1", "a", "g"])
        for rank, i in enumerate(order, start=1):
            w.writerow([
                rank, labels[i], int(idx[i]), int(y[i]),
                repr(float(infl.gcd1[i])), repr(float(infl.a[i])), repr(float(infl.g[i])),
            ])


class TestCliWorkflow:
    def run_cli(self, *args):
        return run_cli(*args)

    def test_simulate_output_shape(self, sim_csv):
        _, path = sim_csv
        rows = read_csv_rows(path)
        assert len(rows) == 160
        assert set(rows[0]) == {"cluster", "y", "x1", "x2"}

    def test_simulate_minimal_configuration(self, tmp_path):
        out = tmp_path / "one.csv"
        assert self.run_cli("simulate", "--q", 1, "--n-k", 1, "--out", out) == 0
        assert len(read_csv_rows(out)) == 1

    def test_simulate_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.run_cli("simulate", "--q", 2, "--n-k", 5, "--seed", 11, "--out", a)
        self.run_cli("simulate", "--q", 2, "--n-k", 5, "--seed", 11, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_fit_report_schema(self, fit_json):
        schema = json.loads((SCHEMA_DIR / "fit_report.schema.json").read_text())
        jsonschema.validate(json.loads(fit_json.read_text()), schema)

    def test_fit_deterministic_bytes(self, sim_csv, tmp_path):
        _, path = sim_csv
        outs = []
        for name in ("f1.json", "f2.json"):
            out = tmp_path / name
            self.run_cli(
                "fit", "--data", path, "--response", "y", "--cluster", "cluster",
                "--covariates", "x1,x2", "--boot", 8, "--seed", 4, "--out", out,
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_exit_code_nonconvergence(self, sim_csv, tmp_path):
        _, path = sim_csv
        out = tmp_path / "nc.json"
        code = self.run_cli(
            "fit", "--data", path, "--response", "y", "--cluster", "cluster",
            "--covariates", "x1,x2", "--boot", 0, "--max-iter", 1, "--out", out,
        )
        assert code == 2
        report = json.loads(out.read_text())  # report still emitted
        assert report["convergence"]["converged"] is False
        # diagnose refuses the report before writing anything
        out_dir = tmp_path / "diag"
        out_dir.mkdir()
        code = self.run_cli("diagnose", "--data", path, "--fit", out, "--out-dir", out_dir, "--envelope-m", 20)
        assert code == 3
        assert list(out_dir.iterdir()) == []

    def test_direct_fit_takes_the_same_controls(self, sim_csv, tmp_path):
        _, path = sim_csv
        out = tmp_path / "direct.json"
        code = self.run_cli(
            "fit", "--data", path, "--response", "y", "--cluster", "cluster", "--covariates", "x1,x2",
            "--boot", 0, "--method", "direct", "--max-iter", 1, "--epsilon", 1e-6, "--out", out,
        )
        assert code == 2
        convergence = json.loads(out.read_text())["convergence"]
        assert convergence["converged"] is False
        assert convergence["method"] == "direct" and convergence["epsilon"] == 1e-6

    def test_exit_code_usage(self, sim_csv):
        assert self.run_cli("fit", "--data", "x.csv") == 3
        _, path = sim_csv
        code = self.run_cli(
            "fit", "--data", path, "--response", "y", "--cluster", "cluster",
            "--covariates", "x1,x2", "--boot", 0, "--link", "probit",
        )
        assert code == 3

    @pytest.mark.parametrize("boot", [1, -3])
    def test_boot_below_two_is_a_usage_error(self, sim_csv, tmp_path, boot):
        _, path = sim_csv
        out = tmp_path / "boot.json"
        code = self.run_cli(
            "fit", "--data", path, "--response", "y", "--cluster", "cluster",
            "--covariates", "x1,x2", "--boot", boot, "--out", out,
        )
        assert code == 3
        assert not out.exists()  # refused before fitting

    def test_diagnose_refuses_small_envelope_m_before_writing(self, sim_csv, fit_json, tmp_path):
        _, path = sim_csv
        out_dir = tmp_path / "diag"
        out_dir.mkdir()
        code = self.run_cli("diagnose", "--data", path, "--fit", fit_json, "--out-dir", out_dir, "--envelope-m", 5)
        assert code == 3
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("method", ["em", "direct"])
    def test_exit_code_estimation_on_a_poisson_start_that_underflows(self, tmp_path, method):
        # a bootstrap replicate of a q=2, n_k=5 dataset whose Poisson MLE does
        # not exist: the Poisson-GLM start's means underflow
        from cpbs import _util, em_fit, simulate_dataset
        from cpbs.simulate import simulate_responses

        data = simulate_dataset(2, 5, ModelParams(beta=np.array([1.0, -0.25, 0.75]), phi=0.2), seed=1)
        rng = np.random.default_rng(_util.replicate_seeds(1, 20)[9])
        sim = simulate_responses(data, em_fit(data).params, rng)
        path = tmp_path / "separated.csv"
        write_dataset_csv(path, sim, ModelSpec(response="y", cluster="cluster", covariates=("x1", "x2")))
        code = self.run_cli(
            "fit", "--data", path, "--response", "y", "--cluster", "cluster",
            "--covariates", "x1,x2", "--boot", 0, "--method", method,
        )
        assert code == 7

    def test_exit_code_missing_file(self, tmp_path):
        code = self.run_cli(
            "fit", "--data", tmp_path / "absent.csv", "--response", "y",
            "--cluster", "c", "--covariates", "x",
        )
        assert code == 4

    def test_exit_code_data_format(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_csv(p, ["c", "y", "x"], [["a", "oops", 1.0]])
        code = self.run_cli("fit", "--data", p, "--response", "y", "--cluster", "c", "--covariates", "x")
        assert code == 5

    def test_exit_code_rank(self, tmp_path):
        p = tmp_path / "rank.csv"
        write_csv(p, ["c", "y", "x1", "x2"], [["a", 1, 1.0, 1.0], ["a", 2, 2.0, 2.0], ["b", 0, 3.0, 3.0]])
        code = self.run_cli("fit", "--data", p, "--response", "y", "--cluster", "c", "--covariates", "x1,x2")
        assert code == 6

    def test_exit_code_config_schema(self, tmp_path):
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps({"q": 2, "bogus_key": 1}))
        assert self.run_cli("mc", "--config", cfg) == 9
        cfg.write_text(json.dumps({"q": 2, "n_k": 5, "reps": 1, "link": "identity"}))
        assert self.run_cli("mc", "--config", cfg) == 9

    def test_residual_csv_self_consistent(self, diagnose_dir):
        rows = read_csv_rows(diagnose_dir / "residuals.csv")
        assert len(rows) == 160
        for row in rows:
            r = float(row["r"])
            recomputed = (float(row["y"]) - float(row["lambda_hat"])) / math.sqrt(float(row["sigma2_hat"]))
            assert abs(r - recomputed) <= 1e-12

    def test_envelope_csv_rows_and_coverage(self, diagnose_dir):
        with open(diagnose_dir / "envelope.csv") as fh:
            rows = list(csv.reader(fh))
        header, data_rows, summary = rows[0], rows[1:-1], rows[-1]
        assert header == ["rank", "r_sorted", "lo", "hi", "inside"]
        assert len(data_rows) == 160
        assert summary[0] == "coverage"
        assert 0.0 <= float(summary[1]) <= 1.0
        for row in data_rows:
            assert float(row[2]) <= float(row[3])

    def test_gcd_csv_ranked_descending(self, diagnose_dir):
        rows = read_csv_rows(diagnose_dir / "gcd.csv")
        assert len(rows) == 160
        vals = [float(r["gcd1"]) for r in rows]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_exit_code_stale_fit(self, sim_csv, fit_json, tmp_path):
        d, _ = sim_csv
        other = tmp_path / "other.csv"
        self.run_cli("simulate", "--q", 4, "--n-k", 40, "--seed", 99, "--out", other)
        out_dir = tmp_path / "diag"
        out_dir.mkdir()
        code = self.run_cli(
            "diagnose", "--data", other, "--fit", fit_json, "--out-dir", out_dir,
        )
        assert code == 8

    def test_mc_json_schema_and_determinism(self, tmp_path):
        schema = json.loads((SCHEMA_DIR / "mc_report.schema.json").read_text())
        outs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            est = tmp_path / (name + ".csv")
            code = self.run_cli(
                "mc", "--q", 2, "--n-k", 25, "--reps", 5, "--seed", 7,
                "--out", out, "--estimates-csv", est,
            )
            assert code == 0
            outs.append(out.read_bytes())
            jsonschema.validate(json.loads(out.read_text()), schema)
            rows = read_csv_rows(est)
            assert len(rows) == 5 and set(rows[0]) == {"rep", "beta0", "beta1", "beta2", "phi"}
        assert outs[0] == outs[1]

    def test_reused_parser_matches_fresh_processes(self, sim_csv, fit_json, capsys):
        d, path = sim_csv
        data_args = ["--data", str(path)]
        fit_args = ["fit", *data_args, "--response", "y", "--cluster", "cluster", "--covariates", "x1,x2",
                    "--boot", "0"]
        runs = {
            "usage": ["fit", *data_args],
            "fit": fit_args,
            "diagnose": ["diagnose", *data_args, "--fit", str(fit_json), "--envelope-m", "20",
                         "--seed", "4", "--workers", "1"],
            "direct": [*fit_args, "--method", "direct"],
        }
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        codes = []
        for name, argv in runs.items():  # in one process, one after another
            if name == "diagnose":
                dirs = [d / "reuse-in-process", d / "reuse-fresh"]
                for out_dir in dirs:
                    out_dir.mkdir()
                argv_in, argv_fresh = (argv + ["--out-dir", str(out_dir)] for out_dir in dirs)
            else:
                argv_in = argv_fresh = argv
            codes.append(cli_main(argv_in))
            out, err = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "cpbs.cli", *argv_fresh], env=env, capture_output=True)
            assert (codes[-1], out.encode(), err.encode()) == (fresh.returncode, fresh.stdout, fresh.stderr), name
            if name == "diagnose":
                for f in ("residuals.csv", "envelope.csv", "gcd.csv"):
                    assert (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes(), f
        assert codes == [3, 0, 0, 0]

    def test_diagnose_csvs_match_the_row_by_row_writer(self, tmp_path):
        from cpbs import simulate_dataset

        sim = simulate_dataset(3, 15, ModelParams(beta=np.array([1.0, -0.5, 0.4]), phi=0.5), seed=8)
        ids = ["north, east", 'say "hi"', "south"]  # labels the CSV writer must quote
        data = ClusteredDataset.from_columns(ids, sim.y_stacked, sim.X_stacked, sim.offsets)
        spec = ModelSpec(response="y", cluster="cluster", covariates=("x1", "x2"))
        path, fit, got, want = tmp_path / "d.csv", tmp_path / "fit.json", tmp_path / "got", tmp_path / "want"
        write_dataset_csv(path, data, spec)
        got.mkdir(), want.mkdir()
        assert self.run_cli("fit", "--data", path, "--response", "y", "--cluster", "cluster",
                            "--covariates", "x1,x2", "--boot", 0, "--out", fit) == 0
        assert self.run_cli("diagnose", "--data", path, "--fit", fit, "--out-dir", got,
                            "--envelope-m", 20, "--seed", 6, "--workers", 1) == 0
        write_diagnose_csvs_by_row(want, load_csv(path, spec), FitReport.from_json_file(fit).params(), m=20, seed=6)
        assert '"north, east"' in (got / "residuals.csv").read_text()
        for f in ("residuals.csv", "envelope.csv", "gcd.csv"):
            assert (got / f).read_bytes() == (want / f).read_bytes(), f

    def test_console_entry_point(self, tmp_path):
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "cpbs.cli", "simulate", "--q", "1", "--n-k", "2", "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert out.exists()


class TestRoundTripRecovery:
    def test_fit_recovers_truth_within_bootstrap_ses(self, tmp_path):
        from cpbs import bootstrap_se, em_fit, simulate_dataset

        truth = ModelParams(beta=np.array([3.0, -1.25, 0.75]), phi=0.45)
        data = simulate_dataset(7, 200, truth, seed=1701)
        spec = ModelSpec(response="y", cluster="cluster", covariates=("x1", "x2"))
        p = tmp_path / "big.csv"
        write_dataset_csv(p, data, spec)
        back = load_csv(p, spec)
        fit = em_fit(back)
        assert fit.converged
        se = bootstrap_se(back, "log", fit, B=60, seed=9)
        err = np.abs(fit.params.as_array() - truth.as_array())
        assert np.all(err <= 3 * se)


class TestMalformedReport:
    @pytest.mark.parametrize("kind", ["empty object", "array", "no data hash", "not JSON", "converged a string",
                                      "hash a number", "no phi estimate"])
    def test_diagnose_refuses_before_writing(self, sim_csv, fit_json, tmp_path, capsys, kind):
        _, path = sim_csv
        doc = json.loads(fit_json.read_text())
        edited = {
            "no data hash": {**doc, "data": {k: v for k, v in doc["data"].items() if k != "hash"}},
            "converged a string": {**doc, "convergence": {**doc["convergence"], "converged": "false"}},
            "hash a number": {**doc, "data": {**doc["data"], "hash": 0}},
            "no phi estimate": {**doc, "phi": {"se": doc["phi"]["se"]}},
        }
        text = {"empty object": "{}", "array": "[1]", "not JSON": "fit"}.get(kind) or json.dumps(edited[kind])
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(ValueError, match="^not a cpbs fit report"):
            FitReport.from_json_file(bad)
        out_dir = tmp_path / "diag"
        out_dir.mkdir()
        capsys.readouterr()
        code = run_cli("diagnose", "--data", path, "--fit", bad, "--out-dir", out_dir, "--envelope-m", 20)
        assert code == 3
        assert capsys.readouterr().err.startswith("usage error: not a cpbs fit report")
        assert list(out_dir.iterdir()) == []

    def test_to_dict_is_a_fresh_copy(self, fit_json):
        report = FitReport.from_json_file(fit_json)
        doc = report.to_dict()
        doc["coefficients"][0]["estimate"] = 1e6
        doc["data"]["hash"] = "0" * 64
        assert report.to_dict() == json.loads(fit_json.read_text())
        assert report.to_json() + "\n" == fit_json.read_text()


MALFORMED_STUDY_CONFIGS = [
    ({"q": None}, "q must be an integer"),
    ({"q": "x"}, "q must be an integer"),
    ({"n_k": 2.0}, "n_k must be an integer"),
    ({"reps": 2.7}, "reps must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"phi": None}, "'phi'"),
    ({"phi": True}, "'phi'"),
    ({"phi": "0.5"}, "'phi'"),
    ({"phi": math.nan}, "invalid theta"),
    ({"beta": "3.0,-1.25,0.75"}, "'beta'"),
    ({"beta": [True, 1, 0]}, "'beta'"),
    ({"beta": 3}, "'beta'"),
    ({"covariates": 3}, "'covariates'"),
    ({"covariates": [{"kind": "bernoulli"}], "beta": [1, 0.5]}, "'p'"),
    ({"covariates": [{"kind": "normal", "mean": 1, "sd": "a"}], "beta": [1, 0.5]}, "'sd'"),
    ({"covariates": [{"kind": "normal", "mean": 1, "sd": math.nan}], "beta": [1, 0.5]}, "'sd'"),
    ({"covariates": [{"kind": "normal", "mean": None, "sd": 1}], "beta": [1, 0.5]}, "'mean'"),
]


class TestStudyConfigs:
    @pytest.mark.parametrize("config, message", MALFORMED_STUDY_CONFIGS,
                             ids=[json.dumps(c) for c, _ in MALFORMED_STUDY_CONFIGS])
    def test_malformed_config_exits_9(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "mc.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "report.json"
        assert run_cli("mc", "--config", cfg, "--out", out) == 9
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not out.exists()

    def test_malformed_covariate_spec_exits_9(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = run_cli("simulate", "--covariate-spec", '[{"kind":"normal","mean":1}]', "--beta", "1,2", "--out", out)
        assert code == 9
        assert "'sd'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_beta_flag_is_a_usage_error(self):
        assert run_cli("mc", "--beta", "a,b,c", "--reps", 1) == 3

    def test_beta_flag_matches_the_config_file(self, tmp_path):
        flags = tmp_path / "flags.json"
        code = run_cli("mc", "--q", 2, "--n-k", 25, "--reps", 3, "--seed", 7, "--beta", "2.5,-1.0,0.5",
                       "--phi", 0.4, "--out", flags)
        assert code == 0
        for config, extra in [
            ({"q": 2, "n_k": 25, "reps": 3, "seed": 7, "beta": [2.5, -1.0, 0.5], "phi": 0.4}, []),
            # flags over the file
            ({"q": 5, "n_k": 25, "reps": 3, "seed": 7, "beta": [0.0, 0.0, 0.0], "phi": 0.4},
             ["--q", 2, "--beta", "2.5,-1.0,0.5"]),
        ]:
            cfg = tmp_path / "mc.json"
            cfg.write_text(json.dumps(config))
            out = tmp_path / "file.json"
            assert run_cli("mc", "--config", cfg, *extra, "--out", out) == 0
            assert out.read_bytes() == flags.read_bytes()

    @pytest.mark.parametrize("argv, config, reps", [
        (["--full-scale"], None, 5000),
        ([], None, 500),
        (["--full-scale", "--reps", 7], None, 7),
        (["--full-scale"], {"reps": 9}, 9),
    ])
    def test_full_scale_sets_the_default_reps(self, tmp_path, monkeypatch, argv, config, reps):
        captured = []

        class Captured(Exception):
            pass

        def run_mc_study(config, workers=None):
            captured.append(config)
            raise Captured

        monkeypatch.setattr("cpbs.cli.run_mc_study", run_mc_study)
        if config is not None:
            cfg = tmp_path / "mc.json"
            cfg.write_text(json.dumps(config))
            argv = [*argv, "--config", cfg]
        with pytest.raises(Captured):
            run_cli("mc", *argv)
        assert captured[0].reps == reps
        assert (captured[0].q, captured[0].n_k, captured[0].seed) == (7, 300, 0)


class TestSimulateCli:
    def test_covariate_spec_columns_and_deterministic_bytes(self, tmp_path):
        from cpbs import simulate_dataset
        from cpbs.simulate import CovariateColumn

        rules = [{"kind": "bernoulli", "p": 0.3}, {"kind": "normal", "mean": 1.5, "sd": 0.5},
                 {"kind": "normal", "mean": 0, "sd": 1}]
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            code = run_cli("simulate", "--q", 3, "--n-k", 10, "--seed", 5, "--beta", "0.5,0.2,-0.1,0.3",
                           "--phi", 0.3, "--covariate-spec", json.dumps(rules), "--out", out)
            assert code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        rows = read_csv_rows(outs[0])
        assert list(rows[0]) == ["cluster", "y", "x1", "x2", "x3"] and len(rows) == 30
        params = ModelParams(beta=np.array([0.5, 0.2, -0.1, 0.3]), phi=0.3)
        want = simulate_dataset(3, 10, params, seed=5, covariates=[CovariateColumn.from_dict(r) for r in rules])
        got = load_csv(outs[0], ModelSpec(response="y", cluster="cluster", covariates=("x1", "x2", "x3")))
        assert got.content_hash() == want.content_hash()
        assert set(got.X_stacked[:, 1].tolist()) <= {0.0, 1.0}

    def test_design_and_beta_mismatch_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert run_cli("simulate", "--beta", "1,2", "--out", out) == 3
        assert "beta has 2 entries but the design has 3 columns" in capsys.readouterr().err
        assert not out.exists()
