import csv
import dataclasses
import decimal
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_man_exp

import fracsum
from fracsum import bench_cli, transform
from fracsum.bench_cli import RunConfig, main, reproduce_all, run
from fracsum.numerics import DOUBLE, QUAD, make_context
from fracsum.reference_tables import REFERENCE_TABLES, parse_number


def test_parse_number_styles(qctx):
    assert parse_number("3.68D-01", qctx) == qctx.mpf("0.368")
    assert parse_number("4.65e-04", qctx) == qctx.mpf("4.65e-4")
    assert parse_number("5.17+157", qctx) == qctx.mpf("5.17e157")
    assert parse_number("1.24+250", qctx) == qctx.mpf("1.24e250")
    assert parse_number("-2.72D+00", qctx) == qctx.mpf("-2.72")


def test_reference_tables_cover_all_builtins():
    assert len(REFERENCE_TABLES) == 25
    assert len({t.problem for t in REFERENCE_TABLES}) == 16


def test_run_depth_zero_single_row():
    report = run(RunConfig(problem="ex5_2", schedule="aps:1,1", depth=0))
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.n == 0 and row.R == 1
    assert row.col3 == row.col4  # A(0,0) is A_{R_0} itself
    assert "A(0,0)" in report.summary["best entry"]
    # a_2 = 0 is never used at depth 0, so the run must not stop on it
    report = run(RunConfig(problem_file=json.dumps({"expression": "(n-2)/n**3", "m": 1}), depth=0))
    assert report.summary["best entry"] == "A(0,0) using R_0 = 1 terms"


def test_run_reproduces_reference_rows():
    report = run(RunConfig(problem="ex5_2", schedule="aps:1,1", depth=28))
    last = report.rows[-1]
    assert last.n == 28
    ctx = make_context(QUAD)
    assert parse_number(last.col4, ctx) <= 1e-31
    report2 = run(RunConfig(problem="ex5_1", schedule="gps:1.3", depth=32))
    last2 = report2.rows[-1]
    assert last2.R == 5258
    assert parse_number(last2.col4, ctx) <= 1e-31


def test_run_builds_the_diagnostics_rows_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return estimate_errors(*args, **kwargs)

    estimate_errors = transform.estimate_errors
    monkeypatch.setattr(transform, "estimate_errors", counted)
    monkeypatch.setattr(bench_cli, "estimate_errors", counted, raising=False)
    run(RunConfig(problem="ex5_2", schedule="aps:1,1", depth=28))
    assert len(calls) == 1


def test_run_output_byte_stable():
    config = RunConfig(problem="ex5_4", schedule="aps:1,1", depth=12)
    assert run(config).text() == run(config).text()


def test_run_formats_carry_identical_values():
    config = RunConfig(problem="ex5_8", schedule="aps:1,1", depth=12)
    report = run(config)
    text_rows = [[str(r.n), str(r.R), r.col3, r.col4, r.gamma, r.lam] for r in report.rows]

    parsed_csv = list(csv.reader(io.StringIO(report.to_csv())))
    csv_rows = [row for row in parsed_csv[1:] if row[0] != "summary"]
    assert csv_rows == text_rows

    doc = json.loads(report.to_json())
    json_rows = [[str(c) for c in row] for row in doc["rows"]]
    assert json_rows == text_rows
    assert doc["summary"] == report.summary


def test_run_value_columns_for_unknown_limit():
    report = run(RunConfig(problem="ex5_6", schedule="aps:1,1", depth=16))
    assert report.columns == ["n", "R_n", "A_R", "A(0,n)", "Gamma(0,n)", "Lambda(0,n)"]
    assert report.rows[-1].col4.startswith("-1.0239607320490606")


def test_run_stride():
    report = run(RunConfig(problem="ex5_2", schedule="aps:1,1", depth=16, stride=8))
    assert [r.n for r in report.rows] == [0, 8, 16]


def test_run_problem_file(tmp_path):
    spec = tmp_path / "p.json"
    spec.write_text(json.dumps({"builtin": "ex5_2", "schedule": "aps:1,1"}))
    report = run(RunConfig(problem_file=str(spec), depth=8))
    assert report.problem == "ex5_2"
    assert report.schedule == "aps:1,1"


def test_run_complex_expression_problem(tmp_path):
    spec = tmp_path / "c.json"
    spec.write_text(
        json.dumps({"name": "osc", "expression": "exp(i*sqrt(n))/n**2", "m": 2})
    )
    report = run(RunConfig(problem_file=str(spec), schedule="gps:1.3", depth=12))
    assert "i" in report.rows[-1].col3  # complex sample column renders
    assert report.summary["value"]


def test_cli_run_and_errors(tmp_path, capsys):
    assert main(["run", "ex5_2", "--schedule", "aps:1,1", "--depth", "8"]) == 0
    out = capsys.readouterr().out
    assert "best entry" in out

    assert main(["run", "ex9_9"]) == 1
    assert capsys.readouterr().err == (
        "fracsum: error: unknown builtin problem 'ex9_9'; available: "
        "ex5_1, ex5_2, ex5_3, ex5_4, ex5_5, ex5_6, ex5_7, ex5_8, ex5_9, ex5_10, "
        "ex5_11, ex5_12, ex5_13, ex5_14, ex7_1, ex7_2\n"
    )

    assert main(["run", "ex5_2", "--schedule", "xps:1"]) == 1
    assert "schedule" in capsys.readouterr().err
    assert main(["run", "ex5_2", "--schedule", ""]) == 1
    assert "bad schedule spec ''" in capsys.readouterr().err
    for stride in ("0", "-2"):
        assert main(["run", "ex5_1", "--depth", "4", "--stride", stride]) == 1
        assert capsys.readouterr() == (
            "", f"fracsum: error: stride must be a positive integer, got {stride}\n")

    assert main(["run"]) == 1
    assert "no problem" in capsys.readouterr().err
    # the builtin id was dropped, and the file's ex5_2 table printed with exit 0
    assert main(["run", "ex5_1", "--problem-file", '{"builtin": "ex5_2"}', "--depth", "4"]) == 1
    assert capsys.readouterr() == ("", "fracsum: error: give a builtin id or --problem-file, "
                                       "not both: got 'ex5_1' and --problem-file "
                                       "'{\"builtin\": \"ex5_2\"}'\n")

    path = tmp_path / "p.json"
    for spec, message in [
        ({"expression": "(-1)^n/n", "m": 1}, "uses '^', which is not a power: write a ** b"),
        ({"expression": "1/n**2", "m": 1, "known_S": "pi^2/6"}, "'pi^2/6' uses '^'"),
        ({"expression": "foo(n)", "m": 1}, "unknown name 'foo'"),
        ({"expression": "1/(n*", "m": 1}, "'1/(n*' is not valid syntax"),
        ({"expression": 5, "m": 1}, "an 'expression' string"),
        ({"builtin": "ex5_1", "schedule": 5}, "schedule must be a string"),
        ([{"builtin": "ex5_1"}], "must be a JSON object"),
        ({"expression": "1/n**2", "m": 1, "known_S": [1]},
         "known_S must be a number or an expression string, got [1]"),
        ({"builtin": ["x"]}, "builtin must be a problem id string, got ['x']"),
        ({"builtin": "ex5_1", "name": ["x"]}, "name must be a string, got ['x']"),
        ({"expression": "1/n**2", "m": 1, "name": 5}, "name must be a string, got 5"),
        ({"expression": "1/n**2", "m": 1, "name": None}, "name must be a string, got None"),
        ({"expression": "1/n**2", "m": 1, "known_S": True},
         "known_S must be a number or an expression string, got True"),
        ({"expression": "1/n**2", "m": True}, "m must be a positive integer, got True"),
        ({"expression": "1/n**2", "m": 2.7}, "m must be a positive integer, got 2.7"),
        ({"expression": "1/n**2", "m": 1, "sigma_hat": True},
         "sigma_hat must be a number or a fraction string, got True"),
        ({"expression": "1/n**2", "m": 1, "sigma_hat": "1/0"},
         "fracsum: error: sigma_hat '1/0' has a zero denominator\n"),
        ({"expression": "1/n**2", "m": 1, "sigma_hat": [1]},
         "fracsum: error: sigma_hat must be a number or a fraction string, got [1]\n"),
        ({"expression": "1/n**2", "m": 1, "known_S": "1/0"},
         "fracsum: error: known_S '1/0' fails: division by zero\n"),
        ({"expression": "1/n**2", "m": 1, "known_S": "log(0)"},
         "fracsum: error: known_S 'log(0)' is not finite: -inf\n"),
        ({"expression": "1/n**2", "m": 1, "known_S": "n + 1.6449"},
         "fracsum: error: known_S 'n + 1.6449' uses n; known_S is the limit, a constant\n"),
        ({"expression": "1/n**2", "m": 1, "sigma-hat": 1}, "unknown key 'sigma-hat'"),
        ({"builtin": "ex5_1", "descr": "x"}, "unknown key 'descr'"),
        ({"builtin": "ex5_1", "m": 3}, "key 'm' does not apply to a builtin problem"),
        ({"builtin": "ex5_1", "sigma_hat": 1}, "key 'sigma_hat' does not apply to a builtin"),
        ({"builtin": "ex5_1", "expression": "1/n"}, "key 'expression' does not apply to a builtin"),
        ({"builtin": "ex5_1", "known_S": -1}, "key 'known_S' does not apply to a builtin"),
        ({"expression": "1/n**2", "m": 1, "known_S": 1e400}, "known_S must be finite, got inf"),
        ({"expression": "1/n**2", "m": 1, "known_S": float("nan")},
         "known_S must be finite, got nan"),
        ({"expression": "n.real**-2", "m": 1}, "expression 'n.real**-2' uses the attribute '.real'"),
        ({"expression": "n.__class__.__name__", "m": 1},
         "expression 'n.__class__.__name__' uses the attribute '.__name__'"),
        ({"builtin": "ex5_1", "schedule": ""}, "bad schedule spec ''"),
        ({"expression": "1/n**2", "m": 1, "schedule": ""}, "bad schedule spec ''"),
    ]:
        path.write_text(json.dumps(spec))
        assert main(["run", "--problem-file", str(path)]) == 1, spec
        err = capsys.readouterr().err
        assert err.startswith("fracsum: error: ") and message in err, (spec, err)


    # calls are checked when the file is loaded, with the same message at both presets
    functions = ("abs, atan, ceil, conj, cos, exp, fabs, factorial, floor, gamma, im, log, "
                 "loggamma, mpf, power, re, sin, sqrt, tan")
    for spec, message in [
        ({"expression": "sqrt(n, 2)", "m": 1},
         "expression 'sqrt(n, 2)' calls sqrt with 2 arguments; sqrt takes 1"),
        ({"expression": "pi(3)/n**2", "m": 1},
         f"expression 'pi(3)/n**2' calls 'pi', which is not a function; functions: {functions}"),
        ({"expression": "exp(-n, dps=2)", "m": 1},
         "expression 'exp(-n, dps=2)' passes the keyword argument 'dps' to exp; "
         "functions take positional arguments only"),
        ({"expression": "sqrt(*[n])", "m": 1},
         "expression 'sqrt(*[n])' passes a starred argument to sqrt; "
         "functions take positional arguments only"),
        ({"expression": "power(n)", "m": 1},
         "expression 'power(n)' calls power with 1 argument; power takes 2"),
        ({"expression": "log(n, 2, 3)", "m": 1},
         "expression 'log(n, 2, 3)' calls log with 3 arguments; log takes 1 or 2"),
        ({"expression": "(n+1)(2)", "m": 1},
         f"expression '(n+1)(2)' calls 'n + 1', which is not a function; functions: {functions}"),
        ({"expression": "1/n**2", "m": 1, "known_S": "pi(3)**2/6"},
         f"known_S 'pi(3)**2/6' calls 'pi', which is not a function; functions: {functions}"),
    ]:
        for precision in ("quad", "double"):
            assert main(["run", "--problem-file", json.dumps(spec), "--precision", precision]) == 1
            assert capsys.readouterr() == ("", f"fracsum: error: {message}\n"), (spec, precision)
    # a failure at evaluation names the expression (and a term's n) in the same words at
    # both presets: mpmath's ZeroDivisionError has no text, the float one another
    for spec, message in [
        ({"expression": "1/(n - 3)", "m": 1}, "expression '1/(n - 3)' fails at n = 3: division by zero"),
        ({"expression": "gamma(3 - n)", "m": 1},
         "expression 'gamma(3 - n)' fails at n = 3: gamma function pole"),
        ({"expression": "1/n**2", "m": 1, "known_S": "1/mpf(0)"},
         "known_S '1/mpf(0)' fails: division by zero"),
    ]:
        for precision in ("quad", "double"):
            assert main(["run", "--problem-file", json.dumps(spec), "--depth", "4",
                         "--precision", precision]) == 1
            assert capsys.readouterr() == ("", f"fracsum: error: {message}\n"), (spec, precision)
    # log takes a base, and mpf is a function
    assert main(["run", "--problem-file", '{"expression": "log(n + 1, 2)/mpf(n)**3", "m": 1}',
                 "--depth", "4"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("precision, bound", [("quad", "1e4932"), ("double", "1e308")])
def test_cli_names_an_infinite_term(capsys, precision, bound):
    # a_1 = log(0) = -inf and atan(i) = +infi: the sum leaves the range at A_1
    # because of its term, and the message says so
    for expr in ("log(n-1)", "atan(i*n)"):
        spec = json.dumps({"expression": expr, "m": 1})
        assert main(["run", "--problem-file", spec, "--depth", "4", "--precision", precision]) == 1
        assert capsys.readouterr() == ("", (
            f"fracsum: error: partial sum A_1 exceeds the {precision} exponent range "
            f"(|value| > {bound}): its term a_1 is infinite\n")), expr


@pytest.mark.parametrize("precision", ["quad", "double"])
def test_cli_renders_an_infinite_estimate(capsys, precision):
    # A(0,0) = A_0 = 0 at R_0 = 1 with sigma_hat < 0: its relative estimate is inf
    spec = '{"expression": "power(-1,n)/n", "m": 1, "sigma_hat": -1}'
    assert main(["run", "--problem-file", spec, "--depth", "0", "--precision", precision]) == 0
    assert "est rel error: inf\n" in capsys.readouterr().out


def test_sci_renders_non_finite_values(qctx, dctx):
    for ctx in (qctx, dctx):
        rendered = [bench_cli._sci(x) for x in (ctx.inf, -ctx.inf, ctx.nan)]
        assert rendered == ["inf", "-inf", "nan"]
        assert bench_cli._sci(ctx.mpc(1, ctx.inf)) == "1.00e+00+infi"
        assert bench_cli._sci(ctx.mpc(1, -ctx.inf)) == "1.00e+00-infi"
        assert bench_cli._sci(ctx.mpc(1, ctx.nan)) == "1.00e+00+nani"
        assert bench_cli._full(ctx.mpc(1, ctx.nan), ctx).endswith(" + nani")


def test_sci_rounds_the_exact_value_half_to_even(qctx, dctx):
    cases = [
        (1.125, "1.12e+00"),  # exact ties go to the even digit
        (0.5625, "5.62e-01"),
        (1015, "1.02e+03"),
        (9.996, "1.00e+01"),  # the carry moves the exponent
        (-2.5 - 3j, "-2.50e+00-3.00e+00i"),
        # the only exact three-digit ties below 0.1 are 3.125e-2 and 9.375e-2
        (0.1875, "1.88e-01"),
        (0.3125, "3.12e-01"),
        (-0.6875, "-6.88e-01"),
        (0.03125, "3.12e-02"),
        (0.09375, "9.38e-02"),
        (5e-324, "4.94e-324"),  # the smallest and the largest float
        (1.7976931348623157e308, "1.80e+308"),
    ]
    for ctx in (qctx, dctx):
        for x, text in cases:
            assert bench_cli._sci(ctx.convert(x)) == text, (ctx, x)
    assert bench_cli._sci(qctx.mpf("1.2345e4900")) == "1.23e+4900"
    # 2^-16000 = 3.3118...e-4817 and 3 * 2^-16001 = 4.9677...e-4817
    assert bench_cli._sci(qctx.ldexp(1, -16000)) == "3.31e-4817"
    assert bench_cli._sci(-qctx.ldexp(3, -16001)) == "-4.97e-4817"
    mp53 = dctx._mp
    for x in (1015.0, 9.996, -0.5625, 5e-324, 1.7976931348623157e308, 0.1, 123456.789):
        assert bench_cli._sci(x) == bench_cli._sci(mp53.mpf(x)), x


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False).filter(bool))
def test_sci_of_a_float_is_pythons_correctly_rounded_format(x):
    assert bench_cli._sci(x) == format(x, ".2e")


_HALF_EVEN_3 = decimal.Context(prec=3, rounding=decimal.ROUND_HALF_EVEN,
                               Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**113 - 1), st.integers(-16400, 16300), st.booleans())
def test_sci_of_a_quad_value_is_the_correctly_rounded_quotient(man, exp, negative):
    # decimal rounds the exact quotient man * 2^exp to 3 digits, half to even
    x = make_context(QUAD).make_mpf(from_man_exp(-man if negative else man, exp, 113))
    _, man, exp, _ = x._mpf_
    num, den = (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    mant, e = format(_HALF_EVEN_3.divide(decimal.Decimal(num), decimal.Decimal(den)), ".2e").split("e")
    assert bench_cli._sci(x) == f"{'-' if negative else ''}{mant}e{int(e):+03d}"


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "ex5_1" in out and "ex7_2" in out


def test_python_dash_m_fracsum_lists_builtins(capsys):
    env = dict(os.environ)
    src = str(Path(fracsum.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "fracsum", "list"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert main(["list"]) == 0
    assert proc.stdout == capsys.readouterr().out


def test_run_leaves_the_reference_tables_unimported():
    # only reproduce reads the frozen tables, so a run job does not pay for importing them
    env = dict(os.environ)
    src = str(Path(fracsum.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys\nfrom fracsum import bench_cli\n"
            "bench_cli.run(bench_cli.RunConfig('ex5_2', depth=8)).render('json')\n"
            "print('fracsum.reference_tables' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


@pytest.mark.parametrize("flags", [["-u"], []], ids=["unbuffered", "buffered"])
def test_closed_stdout_pipe_ends_quietly_with_sigpipe_status(flags):
    env = dict(os.environ)
    src = str(Path(fracsum.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, *flags, "-m", "fracsum", "list"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # no reader is left, so the first write fails with EPIPE
    try:
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    finally:
        proc.kill()
        proc.stderr.close()
    assert stderr == b""


def test_cli_classify(capsys):
    assert main(["classify", "--m", "2", "--mu", "0", "--c", "1,0,-3/2"]) == 0
    out = capsys.readouterr().out
    assert "gamma   = -3/2" in out
    assert "sigma   = 1" in out
    assert "verdict = converges" in out


def test_cli_classify_refuses_a_negative_or_nan_zero_tol(capsys):
    # with --zero-tol -1 every coefficient counted as zero: c_0 = 1 gave the verdict
    # "converges: |zeta| = 1, zeta != 1 and Re gamma < 0"
    for tol in ("-1", "nan"):
        assert main(["classify", "--m", "2", "--mu", "0", "--c", "1,0,-3/2", "--zero-tol", tol]) == 1
        assert capsys.readouterr() == (
            "", f"fracsum: error: zero_tol must be nonnegative, got {float(tol)!r}\n")
    assert main(["classify", "--m", "2", "--mu", "0", "--c", "1,0,-3/2", "--zero-tol", "0"]) == 0
    assert "verdict = converges: Q = 0 and Re gamma < -1\n" in capsys.readouterr().out


@pytest.mark.parametrize("coeffs, message", [
    ("nan,1", "c_0 must be finite, got (nan+0j)"),
    ("1,nan", "c_1 must be finite, got (nan+0j)"),
    ("inf,1", "c_0 must be finite, got (inf+0j)"),
])
def test_cli_classify_refuses_non_finite_coefficients(capsys, coeffs, message):
    # these printed a verdict: diverges-finite-part, a Hadamard finite part, diverges-strongly
    assert main(["classify", "--m", "1", "--c", coeffs]) == 1
    assert capsys.readouterr() == ("", f"fracsum: error: {message}\n")


def test_cli_classify_far_log_term_boundary(capsys):
    # the boundary scan stepped through 10**400 integers
    start = time.perf_counter()
    assert main(["classify", "--m", "1", "--c", "1,1e400"]) == 0
    assert time.perf_counter() - start < 5
    out = capsys.readouterr().out
    assert out.endswith(f"verdict = indeterminate: gamma = {10**400 + 1}/1 - 1: log-term boundary case\n")


def test_cli_classify_complex(capsys):
    assert main(["classify", "--m", "1", "--mu", "0", "--c", "0.5,1"]) == 0
    out = capsys.readouterr().out
    assert "verdict = converges" in out


def test_cli_reproduce_only(capsys):
    assert main(["reproduce", "--only", "ex7_1"]) == 0
    out = capsys.readouterr().out
    assert "ex7_1" in out and "fail=0" in out


def test_cli_reproduce_unknown_id(capsys):
    assert main(["reproduce", "--only", "nope"]) == 1
    assert "no reference tables" in capsys.readouterr().err


def test_reproduce_double_marks_precision_limited():
    report = reproduce_all(DOUBLE, only="ex5_3")
    assert report.exit_code == 2
    text = report.text()
    assert "precision-limited" in text
    assert all(o.count("fail") == 0 for o in report.outcomes)


def test_reproduce_json_format():
    report = reproduce_all(QUAD, only="ex5_2")
    doc = json.loads(report.to_json())
    assert doc["exit_code"] == 0
    assert doc["tables"][0]["problem"] == "ex5_2"


def _corrupted(problem, schedule, n, column, cell):
    """The reference table of (problem, schedule) with row n's column replaced by cell."""
    ref = next(t for t in REFERENCE_TABLES if (t.problem, t.schedule) == (problem, schedule))
    rows = tuple(r[:column] + (cell,) + r[column + 1:] if r[0] == n else r for r in ref.rows)
    return dataclasses.replace(ref, rows=rows)


def test_reproduce_fails_a_row_on_each_corrupted_cell(monkeypatch, capsys):
    # one wrong cell per table reaches each mismatch branch of _compare_table:
    # ex7_1 checks error columns relative to S, ex7_2 raw values
    cases = [
        (("ex7_1", "aps:1,1", 4, 1, 6), "R_4 = 5, expected 6"),
        (("ex7_1", "aps:1,1", 8, 4, "1.11D+06"), "Gamma 1.11e+04 vs 1.11D+06"),
        (("ex7_1", "aps:1,1", 12, 5, "1.60D+04"), "Lambda 1.60e+06 vs 1.60D+04"),
        (("ex7_1", "aps:1,1", 16, 2, "1.44D-04"), "partial-sum error 1.44e-02 vs 1.44D-04"),
        (("ex7_1", "aps:1,1", 20, 3, "6.56D-30"), "error 6.56e-20 vs 6.56D-30"),
        (("ex7_2", "aps:1,1", 4, 2, "4.96D+00"), "A_R 3.96e+00 vs 4.96D+00"),
        (("ex7_2", "aps:1,1", 8, 3, "-1.57042116160622622722411746352944801D+01"),
         "value -15.704211616062262262 vs -1.57042116160622622722411746352944801D+01"),
    ]
    monkeypatch.setattr(fracsum.reference_tables, "REFERENCE_TABLES",
                        tuple(_corrupted(*c) for c, _ in cases))
    assert main(["reproduce"]) == 1
    text = capsys.readouterr().out.splitlines()
    expected = ["# reference-table reproduction at precision=quad"]
    for (problem, schedule, n, _, _), detail in cases:
        expected += [f"[FAIL] {problem:<7} {schedule:<9} rows=9 pass=8 fail=1 precision-limited=0",
                     f"    row n={n}: {detail}"]
    assert text == expected + ["total: 7 tables, 63 rows checked, 7 failed, 0 precision-limited"]

    assert main(["reproduce", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["exit_code"] == 1
    for table, ((problem, schedule, n, _, _), detail) in zip(doc["tables"], cases):
        assert (table["problem"], table["schedule"]) == (problem, schedule)
        failed = [row for row in table["rows"] if row["status"] != "pass"]
        assert failed == [{"n": n, "status": "fail", "detail": detail}]
        assert len(table["rows"]) == 9


def test_cli_degenerate_denominator_is_named(tmp_path, capsys):
    # harmonic series with sigma_hat = 1: omega_r = r * (1/r) = 1, so N(0,1) = 0
    spec = tmp_path / "h.json"
    spec.write_text(json.dumps({"name": "harmonic", "expression": "1/n", "m": 1}))
    assert main(["run", "--problem-file", str(spec), "--schedule", "aps:1,1", "--depth", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fracsum: error: W-algorithm denominator N(0,1) is zero")
    assert "sigma_hat" in err


def test_cli_names_an_underflowed_weight(capsys):
    # a_2 = 5e-324 is nonzero, but its weight 2^-1 * a_2 underflows to 0.0 in binary64
    spec = json.dumps({"expression": 'mpf("5e-324")', "m": 1, "sigma_hat": -1})
    argv = ["run", "--problem-file", spec, "--depth", "4"]
    with pytest.raises(fracsum.WeightUnderflowError):
        run(RunConfig(problem_file=spec, depth=4, precision="double"))
    assert main(argv + ["--precision", "double"]) == 1
    assert capsys.readouterr().err == (
        "fracsum: error: remainder weight omega_2 = 2^(-1) * a_2 underflowed to zero, "
        "with a_2 = 4.94066e-324; --precision quad has the wider range\n")
    assert main(argv + ["--precision", "quad"]) == 0


def test_every_public_name_resolves():
    modules = [fracsum] + [importlib.import_module(f"fracsum.{info.name}")
                           for info in pkgutil.iter_modules(fracsum.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
