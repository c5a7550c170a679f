"""Command-line surface tests: tables, exit codes, determinism, and the
machine-readable formats."""

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import maxsmooth
from maxsmooth import bounds, regret
from maxsmooth.cli import main
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


def stiff_instance(tmp_path):
    """A valid L but M = 1 understates gradients near 1e300, so the first
    constant step overshoots and the values overflow."""
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps({
        "n": 2, "L": 1e6, "M": 1.0, "y0": [1.0, -1.0], "components": [
            {"type": "quadratic", "H": [[1e6, 0.0], [0.0, 1e6]], "a": a,
             "b": 0.0} for a in ([1e300, 0.0], [0.0, 1e300])]}))
    return path


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

    def test_dims_share_one_table(self, capsys, monkeypatch):
        built = []
        table = bounds.gamma_table

        def recording(d):
            built.append(d)
            return table(d)

        monkeypatch.setattr(bounds, "gamma_table", recording)
        dims = ["1000", "2", "5000", "1", "257"]
        code, out, _ = run_cli(capsys, "gamma", "--dims", ",".join(dims))
        assert code == 0 and built == [5000]
        lines = out.splitlines(keepends=True)
        for d, line in zip(dims, lines[1:]):
            _, alone, _ = run_cli(capsys, "gamma", "--dims", d)
            assert alone == lines[0] + line
        assert built == [5000, *map(int, dims)]

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

    def test_seed_option_exits_2(self, capsys):
        # gamma draws nothing at random, so it takes no seed
        with pytest.raises(SystemExit) as exc:
            main(["gamma", "--dims", "5", "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


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

    def test_understated_affine_M_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "small_m.json"
        bad.write_text(json.dumps({"n": 2, "L": 0.0, "M": 1.0, "components": [
            {"type": "affine", "a": [3.0, 4.0], "b": 0.0}]}))
        code, out, err = run_cli(capsys, "solve", "--problem", str(bad))
        assert code == 2 and out == ""
        assert err == ("error: bad problem schema: components[0].a has norm 5 "
                       "above M = 1\n")

    def test_fractional_n_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "n.json"
        bad.write_text(json.dumps({"n": 2.7, "L": 0.0, "M": 1.0,
                                   "components": [{"type": "affine",
                                                   "a": [1.0, 0.0], "b": 0.0}]}))
        code, out, err = run_cli(capsys, "solve", "--problem", str(bad))
        assert code == 2 and out == ""
        assert err == ("error: bad problem schema: n must be a positive "
                       "integer\n")

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--problem", "/no/such.json")
        assert code == 2

    def test_divergence_exits_1(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "solve", "--problem",
                               str(stiff_instance(tmp_path)), "--kind", "clse",
                               "--max-iter", "5000")
        assert code == 1
        assert json.loads(out)["stop_reason"] == "diverged"

    def test_divergence_prints_no_numpy_warnings(self, tmp_path):
        src = os.path.dirname(os.path.dirname(maxsmooth.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "maxsmooth.cli", "solve", "--problem",
             str(stiff_instance(tmp_path)), "--kind", "clse", "--max-iter",
             "5000"], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["stop_reason"] == "diverged"
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("H,defect", [
        ([[1.0, 0.0], [0.0, -1.0]], "positive semidefinite"),
        ([[1.0, 1e-6], [0.0, 1.0]], "symmetric"),
        ([[1.0, 0.5], [0.0, 1.0]], "symmetric")])
    def test_bad_quadratic_exits_2(self, capsys, tmp_path, H, defect):
        bad = tmp_path / "bad_h.json"
        bad.write_text(json.dumps({"n": 2, "L": 1.0, "M": 1.0, "components": [
            {"type": "quadratic", "H": H, "a": [0.0, 0.0], "b": 0.0}]}))
        code, out, err = run_cli(capsys, "solve", "--problem", str(bad),
                                 "--max-iter", "10")
        assert code == 2 and out == ""
        assert err == ("error: bad problem schema: components[0].H must be "
                       f"{defect}\n")

    @pytest.mark.parametrize("option,value,message", [
        ("--eps", "nan", "eps must be positive and finite"),
        ("--eps", "inf", "eps must be positive and finite"),
        ("--eps", "1e-300", "eps is too small: the iteration budget overflows"),
        ("--budget-factor", "0", "budget_factor must be >= 1"),
        ("--budget-factor", "-2", "budget_factor must be >= 1"),
        ("--max-iter", "0", "max_iter must be >= 1"),
    ])
    def test_out_of_range_solver_argument_exits_2(self, capsys, option, value,
                                                  message):
        code, out, err = run_cli(capsys, "solve", "--problem",
                                 instance_path("affine20.json"), option, value)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("option,value", [("--kind", "quadc:1"),
                                              ("--eps", "nan")])
    def test_rejected_solve_creates_no_trace(self, capsys, tmp_path, option,
                                             value):
        # every argument check runs before the trace CSV is opened
        trace = tmp_path / "trace.csv"
        code, out, err = run_cli(capsys, "solve", "--problem",
                                 instance_path("abs.json"), option, value,
                                 "--max-iter", "5", "--out", str(trace))
        assert code == 2 and out == "" and err.startswith("error: ")
        assert not trace.exists()

    def test_kind_below_smoothness_threshold_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--problem",
                                 instance_path("abs.json"), "--kind",
                                 "quadc:0.5", "--max-iter", "5")
        assert code == 2 and out == ""
        assert err == ("error: quadc[c=0.5](d=2) is not 1-smooth: c must be "
                       "at least c_d = 2.0\n")

    @pytest.mark.parametrize("kind", ["quad", "quadc:20"])
    def test_kind_at_smoothness_threshold_solves(self, capsys, kind):
        # affine20 has d = 20, where c_d = 20 is the weight of quad itself
        code, out, err = run_cli(capsys, "solve", "--problem",
                                 instance_path("affine20.json"), "--kind",
                                 kind, "--max-iter", "5")
        assert err == "" and code != 2
        # --max-iter 5 stops the solve long before 4 x its budget
        summary = json.loads(out)
        assert summary["iterations"] == 5
        assert summary["stop_reason"] == "max_iter"

    def test_large_coefficients_solve(self, capsys, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"n": 2, "L": 0.0, "M": 2e8, "components": [
            {"type": "affine", "a": [s * 1e8, 1.0], "b": 0.0}
            for s in (1.0, -1.0)]}))
        code, out, err = run_cli(capsys, "solve", "--problem", str(big),
                                 "--max-iter", "50")
        assert code != 2 and err == ""
        assert json.loads(out)["iterations"] <= 50


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
                               "50", "--seeds", "3", "--trace", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "round,learner_loss,best_expert_loss,regret"
        assert len(lines) == 51
        first = parse_csv(out)[0]
        assert lines[-1].split(",")[-1] == first["regret"]

    def test_at_most_one_game_is_held(self, capsys, tmp_path,
                                                   monkeypatch):
        played, alive_at_start = [], []
        game = regret.run_coinflip_game

        def tracked(*args, **kwargs):
            gc.collect()
            alive_at_start.append(sum(r() is not None for r in played))
            trace = game(*args, **kwargs)
            played.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(regret, "run_coinflip_game", tracked)
        code, _, _ = run_cli(capsys, "regret", "--dim", "3", "--horizon",
                             "40", "--seeds", "4", "--trace",
                             str(tmp_path / "rounds.csv"))
        assert code == 0
        assert len(alive_at_start) == 4 and max(alive_at_start) <= 1

    def test_quadratic_regularizer(self, capsys):
        code, out, _ = run_cli(capsys, "regret", "--dim", "4", "--horizon",
                               "200", "--seeds", "2", "--reg", "quad")
        assert code == 0

    def test_overflowing_eta_exits_2_without_numpy_warnings(self):
        src = os.path.dirname(os.path.dirname(maxsmooth.__file__))
        env = dict(os.environ, PYTHONPATH=src)

        def regret_cli(eta):
            return subprocess.run(
                [sys.executable, "-m", "maxsmooth.cli", "regret", "--dim", "2",
                 "--horizon", "10", "--seeds", "1", "--eta", eta],
                capture_output=True, text=True, env=env, timeout=120)

        proc = regret_cli("1e308")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: eta * horizon must be finite\n"
        proc = regret_cli("1e307")
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == ("seed,regret,bound\n"
                               "20250808,0.5,3.723297411059034\n")

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    @pytest.mark.parametrize("trace", [False, True])
    def test_no_seeds_exits_2(self, capsys, tmp_path, seeds, trace):
        argv = ["regret", "--dim", "2", "--horizon", "10", "--seeds", seeds]
        if trace:
            argv += ["--trace", str(tmp_path / "rounds.csv")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: seeds must be >= 1\n"
        assert not (tmp_path / "rounds.csv").exists()


@pytest.mark.parametrize("argv,message", [
    (("gap", "--alpha-max", "nan"), "alpha_max must be positive and finite"),
    (("gap", "--alpha-max", "inf"), "alpha_max must be positive and finite"),
    (("gap", "--tol", "nan"), "tol must be finite"),
    (("gap", "--tol", "inf"), "tol must be finite"),
    (("verify", "--count", "100", "--tol", "nan"), "tol must be finite"),
    (("verify", "--count", "100", "--tol", "inf"), "tol must be finite"),
    (("gap", "--tol", "-1"), "tol must be nonnegative"),
    (("verify", "--count", "100", "--tol", "-1"), "tol must be nonnegative"),
    (("verify", "--count", "100", "--tol=-1e-300"),
     "tol must be nonnegative"),
    (("regret", "--horizon", "10", "--seeds", "1", "--eta", "nan"),
     "eta must be positive and finite"),
    (("regret", "--horizon", "10", "--seeds", "1", "--eta", "inf"),
     "eta must be positive and finite"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_non_finite_float_option_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("gamma", "--dims", "5", "--out"),
    ("verify", "--count", "50", "--out"),
    ("gap", "--count", "50", "--out"),
    ("solve", "--problem", instance_path("abs.json"), "--max-iter", "5",
     "--out"),
    ("regret", "--dim", "3", "--horizon", "10", "--seeds", "1", "--trace"),
], ids=lambda argv: argv[0])
def test_unwritable_output_exits_2(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv, str(tmp_path / "no" / "out.csv"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# -inf from an overflow is the exact limit in both commands, so their
# verdicts stand and numpy has nothing to warn about
@pytest.mark.parametrize("argv,digest", [
    (("verify", "--kind", "quadc:1e-320", "--dim", "3"),
     "f15838a1e1edc991d7b07f3a0dcae0da97e673d8c871bb8f8240abcecfd73245"),
    (("gap", "--kind", "quad", "--dim", "3", "--alpha-max", "1.7e308"),
     hashlib.sha256(b"kind,d,gap_bound,empirical_estimate\n"
                    b"quad(d=3),3,0.44444444444444442,0.444580078125\n"
                    ).hexdigest()),
], ids=["verify", "gap"])
def test_overflow_to_the_exact_limit_warns_nothing(capsys, argv, digest):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 1 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# each request exceeds the address space, so its first large allocation
# fails at once and no memory is committed
@pytest.mark.parametrize("argv", [
    ("verify", "--dim", "2", "--count", "100000000000000"),
    ("gap", "--dim", "2", "--count", "100000000000000"),
    ("gamma", "--dims", "100000000000000"),
    ("regret", "--dim", "100000000", "--horizon", "100000000", "--seeds", "1"),
], ids=lambda argv: argv[0])
def test_request_too_large_for_memory_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# small sizes only: a request too large for memory has its own test above.
# Float options mix valid values with zero, negative and non-finite ones;
# --alpha-max stays at or below 1e8 (quad's scan overflows near 1.7e308)
FLOATS = st.sampled_from(["-1", "0", "nan", "inf", "-inf", "1e-300",
                          "1e-9", "1e-3", "0.5", "1", "1e4", "1e8"])
SIZES = st.integers(-1, 6).map(str)
COUNTS = st.integers(-1, 50).map(str)
KINDS = st.one_of(st.sampled_from(["lse", "clse", "quad", "softmax"]),
                  FLOATS.map("quadc:{}".format), st.just("quadc:c"))


def _command(head, **options):
    """argv strategy: the fixed head, then each option present or absent."""
    flags = [st.just([]) | value.map(lambda v, k=k: [
        "--" + k.replace("_", "-"), v]) for k, value in options.items()]
    return st.tuples(*flags).map(
        lambda parts: head + [t for part in parts for t in part])


ARGVS = st.one_of(
    _command(["gamma"],
             dims=st.lists(SIZES, max_size=4).map(",".join)
             | st.sampled_from(["x", "3,,4", " "]),
             format=st.sampled_from(["csv", "json"])),
    _command(["verify"], kind=KINDS, dim=SIZES, count=COUNTS, tol=FLOATS,
             seed=st.integers(0, 9).map(str)),
    _command(["gap"], kind=KINDS, dim=SIZES, count=COUNTS, tol=FLOATS,
             alpha_max=FLOATS),
    st.tuples(st.sampled_from(["abs.json", "affine20.json"]),
              st.integers(-1, 50)).flatmap(lambda t: _command(
                  ["solve", "--problem", instance_path(t[0]),
                   "--max-iter", str(t[1])],
                  kind=KINDS, eps=FLOATS,
                  budget_factor=st.integers(-1, 4).map(str))),
    _command(["regret"], dim=SIZES, horizon=COUNTS,
             seeds=st.integers(-1, 2).map(str),
             reg=st.sampled_from(["entropy", "quad"]),
             eta=FLOATS | st.just("1e308")),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=ARGVS)
def test_every_subcommand_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code == 2:
        assert "Traceback" not in err.getvalue()
