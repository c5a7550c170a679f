"""Command-line surface tests: tables, exit codes, determinism, and the
machine-readable formats."""

import csv
import io
import json
import math
from importlib import resources

import pytest

from maxsmooth.cli import main, thread_count
from maxsmooth.smoothings import SmoothingKind


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, text
    return rows


def instance_path(name):
    return str(resources.files("maxsmooth.instances").joinpath(name))


class TestKindParsing:
    def test_all_forms(self):
        assert SmoothingKind.parse("lse", 3).variant == "lse"
        assert SmoothingKind.parse("clse", 3).variant == "clse"
        assert SmoothingKind.parse("quad", 3).variant == "quad"
        k = SmoothingKind.parse("quadc:2.5", 3)
        assert k.variant == "quadc" and k.c == 2.5

    def test_bad_kind(self):
        with pytest.raises(Exception):
            SmoothingKind.parse("softmax", 3)


class TestGammaCommand:
    def test_table_values(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--dims", "2,3,4")
        assert code == 0
        rows = parse_csv(out)
        assert [r["d"] for r in rows] == ["2", "3", "4"]
        assert float(rows[0]["gamma"]) == 0.25
        assert float(rows[1]["gamma"]) == 4 / 9
        assert rows[2]["partition"] == "1-4"
        assert float(rows[0]["two_term_lower"]) == 0.25
        assert float(rows[1]["half_log_d"]) == pytest.approx(0.5 * math.log(3))

    def test_large_dimension_finds_the_optimal_chain(self, capsys):
        # a windowed inner search returns ...-36856-135473-497963 here,
        # worth 5.338012115857391
        code, out, _ = run_cli(capsys, "gamma", "--dims", "497963")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["gamma"]) == 5.338012116148873
        assert row["partition"].endswith("-36849-135460-497963")

    def test_sandwich_columns_contain_gamma(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--dims", "100")
        row = parse_csv(out)[0]
        assert (float(row["sandwich_lower"]) - 1e-9 <= float(row["gamma"])
                <= float(row["sandwich_upper"]) + 1e-9)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--dims", "2", "--format",
                               "json")
        assert code == 0
        data = json.loads(out)
        assert data[0]["gamma"] == 0.25

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "gamma", "--dims", "2,5,9")
        _, out2, _ = run_cli(capsys, "gamma", "--dims", "2,5,9")
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "gamma.csv"
        code, out, _ = run_cli(capsys, "gamma", "--dims", "2", "--out",
                               str(path))
        assert code == 0 and out == ""
        assert "gamma" in path.read_text().splitlines()[0]

    def test_invalid_dimension_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "gamma", "--dims", "0,3")
        assert code == 2
        code, _, err = run_cli(capsys, "gamma", "--dims", "two")
        assert code == 2


class TestVerifyCommand:
    def test_lse_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--kind", "lse", "--dim", "4",
                               "--count", "500")
        assert code == 0
        assert "FAIL" not in out and "PASS" in out

    def test_below_threshold_fails_with_smoothness_witness(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--kind", "quadc:1", "--dim",
                               "4", "--count", "4000")
        assert code == 1
        assert any(line.startswith("FAIL smoothness") for line
                   in out.splitlines())

    def test_degenerate_dimension_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--kind", "lse", "--dim", "1",
                               "--count", "100")
        assert code == 0

    def test_json_reports(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--kind", "clse", "--dim",
                               "3", "--count", "200", "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert all(r["passed"] for r in reports)


class TestGapCommand:
    def test_lse(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "--kind", "lse", "--dim", "3")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["gap_bound"]) == pytest.approx(math.log(3))
        assert float(row["empirical_estimate"]) == pytest.approx(math.log(3),
                                                                 abs=1e-9)

    def test_quadratic_small_dims(self, capsys):
        for d, expected in (("2", 0.25), ("3", 4 / 9)):
            code, out, _ = run_cli(capsys, "gap", "--kind", "quad", "--dim", d)
            assert code == 0
            row = parse_csv(out)[0]
            assert float(row["gap_bound"]) == pytest.approx(expected, abs=1e-15)
            assert float(row["empirical_estimate"]) == pytest.approx(expected,
                                                                     abs=1e-9)

    @pytest.mark.parametrize("kind", ["quadc:nan", "quadc:inf", "quadc:x"])
    def test_bad_custom_weight_exits_2(self, capsys, kind):
        code, out, err = run_cli(capsys, "gap", "--kind", kind, "--dim", "3")
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_centered(self, capsys):
        code, out, _ = run_cli(capsys, "gap", "--kind", "clse", "--dim", "3")
        row = parse_csv(out)[0]
        assert float(row["gap_bound"]) == pytest.approx(math.log(3) / 2)


class TestSolveCommand:
    def test_bundled_abs_instance(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, out, _ = run_cli(capsys, "solve", "--problem",
                               instance_path("abs.json"), "--eps", "1e-3",
                               "--kind", "clse", "--out", str(trace))
        assert code == 0
        summary = json.loads(out)
        assert summary["stop_reason"] == "target_reached"
        header = trace.read_text().splitlines()[0]
        assert header.startswith("iteration,objective")

    def test_bundled_affine_instance(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--problem",
                               instance_path("affine20.json"), "--eps", "1e-3",
                               "--kind", "clse")
        assert code == 0
        summary = json.loads(out)
        assert summary["iterations"] <= 4 * summary["budget"]

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "components": "nope"}')
        code, _, err = run_cli(capsys, "solve", "--problem", str(bad))
        assert code == 2
        assert "error" in err

    def test_non_finite_coefficient_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps({"n": 1, "L": 0.0, "M": 1.0, "components": [
            {"type": "affine", "a": [math.nan], "b": 0.0}]}))
        code, out, err = run_cli(capsys, "solve", "--problem", str(bad))
        assert code == 2 and out == ""
        assert err.startswith("error: bad problem schema: ")
        assert "components[0].a must be finite" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--problem", "/no/such.json")
        assert code == 2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_divergence_exits_1(self, capsys, tmp_path):
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps({
            "n": 2, "L": 0.0, "M": 1.0, "y0": [1.0, -1.0], "components": [
                {"type": "quadratic", "H": [[1e6, 0.0], [0.0, 1e6]], "a": a,
                 "b": 0.0} for a in ([1.0, 0.0], [0.0, 1.0])]}))
        code, out, _ = run_cli(capsys, "solve", "--problem", str(path),
                               "--kind", "clse", "--max-iter", "5000")
        assert code == 1
        assert json.loads(out)["stop_reason"] == "diverged"


class TestRegretCommand:
    def test_summary_bound_column(self, capsys):
        code, out, _ = run_cli(capsys, "regret", "--dim", "2", "--horizon",
                               "100", "--seeds", "3")
        assert code == 0
        rows = parse_csv(out)
        expected = math.sqrt(2 * math.log(2) * 100)
        for row in rows:
            assert float(row["bound"]) == pytest.approx(expected)
            assert float(row["regret"]) <= float(row["bound"])

    def test_single_round_horizon(self, capsys):
        code, out, _ = run_cli(capsys, "regret", "--dim", "2", "--horizon",
                               "1", "--seeds", "2")
        assert code == 0
        for row in parse_csv(out):
            assert float(row["regret"]) <= 1.0

    def test_trace_file(self, capsys, tmp_path):
        path = tmp_path / "rounds.csv"
        code, out, _ = run_cli(capsys, "regret", "--dim", "2", "--horizon",
                               "50", "--seeds", "1", "--trace", str(path))
        assert code == 0
        assert path.read_text().splitlines()[0] == \
            "round,learner_loss,best_expert_loss,regret"

    def test_quadratic_regularizer(self, capsys):
        code, out, _ = run_cli(capsys, "regret", "--dim", "4", "--horizon",
                               "200", "--seeds", "2", "--reg", "quad")
        assert code == 0

    def test_thread_env_does_not_change_output(self, capsys, monkeypatch):
        _, seq, _ = run_cli(capsys, "regret", "--dim", "3", "--horizon", "200",
                            "--seeds", "4")
        monkeypatch.setenv("MAXSMOOTH_THREADS", "4")
        assert thread_count() == 4
        _, par, _ = run_cli(capsys, "regret", "--dim", "3", "--horizon", "200",
                            "--seeds", "4")
        assert seq == par

    def test_bad_thread_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("MAXSMOOTH_THREADS", "many")
        assert thread_count() == 1
