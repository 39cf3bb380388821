import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jsonschema

from cpbs import ModelParams, load_csv
from cpbs.cli import main as cli_main
from cpbs.exceptions import (
    MissingColumnError,
    MissingValueError,
    RankDeficiencyError,
    ResponseTypeError,
)
from cpbs.io import FitReport, ModelSpec, write_dataset_csv

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "cpbs" / "schemas"


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


SPEC = ModelSpec(response="y", cluster="region", covariates=("age", "female"))


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
