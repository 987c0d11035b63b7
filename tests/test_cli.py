"""Command-line interface: argument handling, outputs, exit codes."""

import json
from fractions import Fraction

import pytest

from hypergrid.cli import JobConfig, build_job, main, run
from hypergrid.expr import POWER_LIMIT
from hypergrid.series import GUARD_LIMIT, exp_approx


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- job construction ---------------------------------------------------------


def test_defaults():
    job = build_job(["eval", "x"])
    assert job.command == "eval"
    assert job.tau == 2**16
    assert job.H == 1000
    assert job.K == 10**12
    assert job.seed == 0
    assert job.exp_mode == "tail"
    assert job.at is None
    assert not job.json_out
    assert job.samples == 1024
    assert job.sum_cap == 2**16
    assert job.guard == 64
    assert job.digits == 12
    assert job.workers == 1
    assert job.tau2 is job.domain is job.series is job.check is None


def test_an_absent_flag_takes_its_job_field_default():
    assert build_job(["eval", "x"]) == JobConfig(command="eval", expr_text="x")
    assert build_job(["check", "ftc", "x"]) == JobConfig(
        command="check", check="ftc", expr_text="x"
    )
    assert build_job(["sum", "harmonic"]) == JobConfig(command="sum", series="harmonic")


def test_eval_defaults_to_the_left_domain_endpoint(capsys):
    code, out, _ = invoke(capsys, "eval", "x^2 + 1", "--tau", "10")
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_integrate_defaults_to_the_full_integral(capsys):
    code, out, _ = invoke(capsys, "integrate", "x", "--tau", "10")
    assert code == 0
    assert out.splitlines()[0] == "11/20"


def test_expression_from_file(tmp_path):
    path = tmp_path / "expr.txt"
    path.write_text("x^2 + 1\n")
    job = build_job(["eval", "--file", str(path)])
    assert job.expr_text == "x^2 + 1"


def test_inline_and_file_sources_conflict(tmp_path, capsys):
    path = tmp_path / "expr.txt"
    path.write_text("x")
    code, _, err = invoke(capsys, "eval", "x", "--file", str(path))
    assert code == 1
    assert "either inline or via --file" in err


def test_unreadable_file_is_an_error_not_a_traceback(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    code, out, err = invoke(capsys, "eval", "--file", str(missing))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot read ")
    assert str(missing) in err
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe x")
    code, _, err = invoke(capsys, "eval", "--file", str(binary))
    assert code == 1
    assert err.endswith(": not UTF-8 text\n")


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_samples_below_one_are_rejected(capsys, samples):
    code, out, err = invoke(
        capsys, "check", "limit", "x^2", "--tau", "100", "--samples", samples
    )
    assert code == 1
    assert out == ""
    assert err == f"error: --samples must be at least 1, got {samples}\n"


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_are_rejected(capsys, workers):
    code, out, err = invoke(capsys, "integrate", "x", "--tau", "64", "--workers", workers)
    assert code == 1
    assert out == ""
    assert err == f"error: --workers must be at least 1, got {workers}\n"


def test_guard_above_the_limit_is_rejected(capsys):
    # a 30-Mbit tail threshold would be multiplied into every series term
    code, out, err = invoke(capsys, "eval", "exp(x)", "--tau", "64", "--guard", "30000000")
    assert code == 1
    assert out == ""
    assert err == f"error: guard 30000000 exceeds the limit {GUARD_LIMIT}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "limit", "x^2", "--tau", "100", "--samples"),
        ("check", "grid-independence", "x^2", "--tau", "100", "--samples"),
        ("sum", "harmonic", "--sum-cap"),
    ],
)
def test_samples_and_sum_cap_above_the_limit_are_rejected(capsys, argv):
    # rejected while the job is built, before any sample or term is taken
    code, out, err = invoke(capsys, *argv, str(2**24 + 1))
    assert code == 1
    assert out == ""
    assert err == f"error: {argv[-1]} {2**24 + 1} exceeds the limit {2**24}\n"


def test_unknown_arguments_exit_with_usage_error(capsys):
    code, _, err = invoke(capsys, "eval", "x", "--frobnicate")
    assert code == 1
    assert "error:" in err


# --- value commands -----------------------------------------------------------


def test_eval_square(capsys):
    code, out, _ = invoke(capsys, "eval", "x^2", "--tau", "10", "--at", "3/10")
    assert code == 0
    assert out == "9/100\n= 0.090000000000\n"


def test_eval_rounds_off_grid_points_down(capsys):
    code, out, _ = invoke(capsys, "eval", "x", "--tau", "10", "--at", "0.37")
    assert code == 0
    assert out.splitlines()[0] == "3/10"


def test_diff_square_at_one_half(capsys):
    code, out, _ = invoke(
        capsys, "diff", "x^2", "--tau", "1000000", "--at", "1/2"
    )
    assert code == 0
    assert out.splitlines()[0] == "1000001/1000000"


def test_integrate_identity(capsys):
    code, out, _ = invoke(capsys, "integrate", "x", "--tau", "10", "--at", "1")
    assert code == 0
    assert out.splitlines()[0] == "11/20"


def test_integrate_reads_the_integral_at_the_rounded_point(capsys):
    # 0.37 rounds down to 3/10: (0 + 1 + 2 + 3)/10 * 1/10
    code, out, _ = invoke(capsys, "integrate", "x", "--tau", "10", "--at", "0.37")
    assert code == 0
    assert out.splitlines()[0] == "3/50"


def test_digits_past_the_print_limit_are_an_error_not_a_traceback(capsys):
    code, out, _ = invoke(capsys, "eval", "x/3", "--tau", "64", "--at", "1/2", "--digits", "4300")
    assert code == 0
    assert out == "1/6\n= 0.1" + "6" * 4298 + "7\n"
    code, out, err = invoke(capsys, "eval", "x/3", "--tau", "64", "--at", "1/2", "--digits", "4301")
    assert code == 1
    assert out == ""
    assert err.startswith("error: 4301 digits exceed")


def test_eval_log_at_zero_is_a_domain_error(capsys):
    code, _, err = invoke(capsys, "eval", "log(x)", "--tau", "10")
    assert code == 1
    assert "log" in err


def test_parse_errors_exit_one_with_position(capsys):
    code, _, err = invoke(capsys, "eval", "log(", "--tau", "10")
    assert code == 1
    assert "column 5" in err


def test_missing_expression_is_an_error(capsys):
    code, _, err = invoke(capsys, "eval")
    assert code == 1
    assert "expression" in err


# --- domains -------------------------------------------------------------------


def test_eval_on_a_wider_domain(capsys):
    code, out, _ = invoke(
        capsys, "eval", "x^2", "--domain", "0", "2", "--at", "3/2", "--tau", "65536"
    )
    assert code == 0
    assert out.splitlines()[0] == "9/4"


def test_diff_rescales_by_the_interval_length(capsys):
    code, out, _ = invoke(
        capsys, "diff", "x^2", "--domain", "0", "2", "--at", "3/2", "--tau", "100000"
    )
    assert code == 0
    assert out.splitlines()[0] == "150001/50000"


def test_integrate_rescales_by_the_interval_length(capsys):
    code, out, _ = invoke(
        capsys, "integrate", "x", "--domain", "0", "2", "--tau", "10"
    )
    assert code == 0
    # inclusive sum of 2u over 11 points, scaled by 2: 2 + 2/tau
    assert out.splitlines()[0] == "11/5"


def test_integrate_on_a_domain_reads_at_the_mapped_point(capsys):
    # 1 on [0, 2] is 1/2 on the unit grid: 2 * (0 + ... + 5)/10 * 1/10, times 2
    code, out, _ = invoke(
        capsys, "integrate", "x", "--domain", "0", "2", "--tau", "10", "--at", "1", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["value"] == "3/5"
    assert record["at"] == "1"


def test_points_outside_the_domain_are_rejected(capsys):
    code, _, err = invoke(capsys, "eval", "x", "--domain", "0", "2", "--at", "5")
    assert code == 1
    assert "outside" in err


def test_evaluation_errors_name_the_point_in_domain_coordinates(capsys):
    # the zero of x + 1 is at x = -1, the left end of [-1, 2]
    code, out, err = invoke(capsys, "integrate", "1/(x+1)", "--tau", "16", "--domain", "-1", "2")
    assert (code, out) == (1, "")
    assert err == "error: division by zero at grid point -1\n"
    # --at 0 rounds to the unit point 5/16, which is -1 + 3 * 5/16 = -1/16
    code, out, err = invoke(
        capsys, "eval", "log(x)", "--tau", "16", "--domain", "-1", "2", "--at", "0"
    )
    assert (code, out) == (1, "")
    assert err == "error: log of non-positive value -1/16 at grid point -1/16\n"


def test_empty_domains_are_rejected(capsys):
    code, _, err = invoke(capsys, "eval", "x", "--domain", "2", "2")
    assert code == 1
    assert "empty domain" in err


# --- checks --------------------------------------------------------------------


def test_check_ftc_passes_for_the_square(capsys):
    code, out, _ = invoke(
        capsys, "check", "ftc", "x^2", "--tau", "4096", "--H", "1000"
    )
    assert code == 0
    assert "check ftc: pass" in out


def test_check_continuity_certifies_exp(capsys):
    code, out, _ = invoke(
        capsys, "check", "continuity", "exp(x)", "--tau", "65536", "--H", "1000"
    )
    assert code == 0
    assert "pass" in out
    assert "certified" in out


def test_check_continuity_refutes_a_pole(capsys):
    # odd tau keeps the grid off the pole itself
    code, out, _ = invoke(
        capsys, "check", "continuity", "1/(x - 1/2)", "--tau", "101", "--H", "100"
    )
    assert code == 2
    assert "fail" in out
    assert "witness" in out


def test_check_grid_independence(capsys):
    code, out, _ = invoke(
        capsys,
        "check",
        "grid-independence",
        "x^2",
        "--tau",
        "10000",
        "--tau2",
        "30000",
        "--H",
        "1000",
        "--samples",
        "128",
    )
    assert code == 0
    assert "grid-independence: pass" in out


def test_check_secant(capsys):
    code, out, _ = invoke(
        capsys, "check", "secant", "x^2", "--tau", "1024", "--H", "32"
    )
    assert code == 0
    assert "secant: pass" in out


def test_check_limit(capsys):
    code, out, _ = invoke(
        capsys, "check", "limit", "x^2", "--tau", "10000", "--H", "100",
        "--samples", "16"
    )
    assert code == 0
    assert "limit: pass" in out


def test_limit_check_with_an_empty_band_is_an_error(capsys):
    # at tau 64 the band (max(4 eps, 1/H^2), 1/H] = (1/16, 1/32] is empty
    code, out, err = invoke(capsys, "check", "limit", "x^2", "--tau", "64", "--H", "32")
    assert code == 1
    assert out == ""
    assert err.startswith("error: band is empty")


@pytest.mark.parametrize("H", ["2", "3"])
def test_limit_check_refuses_an_h_below_four(capsys, H):
    # the sampled points lie between 2/H and 1 - 4/H, which is negative below H = 4
    code, out, err = invoke(
        capsys, "check", "limit", "x^2", "--tau", "10", "--samples", "1", "--H", H
    )
    assert code == 1
    assert out == ""
    assert err == f"error: check limit needs H >= 4, got H={H}\n"


def test_failing_checks_exit_two(capsys):
    # a visible jump in the quotient makes the ftc comparison fail
    code, out, _ = invoke(
        capsys, "check", "ftc", "x^2", "--tau", "128", "--H", "1000"
    )
    assert code == 2
    assert "fail" in out


_PINNED_CONTEXT = '"context":{"H":1000,"K":1000000000000}'
_PRECONDITION = "representations disagree before quotients were compared"


@pytest.mark.parametrize(
    "argv, code, text, record",
    [
        (
            ("continuity", "exp(x)", "--tau", "65536", "--H", "1000"),
            0,
            "check continuity: pass (mode=certified, samples=0,"
            " max_gap=0, tolerance=1/1000)\n",
            '{"check":"continuity",' + _PINNED_CONTEXT + ',"grids":[65536],'
            '"max_gap":"0","mode":"certified","samples":0,"schema":1,'
            '"tolerance":"1/1000","verdict":"pass"}\n',
        ),
        (
            ("continuity", "log(1+x)", "--tau", "4096"),
            0,
            "check continuity: pass (mode=sampled-ok, samples=4097,"
            " max_gap=0, tolerance=1/1000)\n",
            '{"check":"continuity",' + _PINNED_CONTEXT + ',"grids":[4096],'
            '"max_gap":"0","mode":"sampled-ok","samples":4097,"schema":1,'
            '"tolerance":"1/1000","verdict":"pass"}\n',
        ),
        (
            ("continuity", "1/(x - 1/2)", "--tau", "101", "--H", "100"),
            2,
            "check continuity: fail (mode=refuted, samples=102,"
            " max_gap=4/99, tolerance=1/100)\n"
            "witness: jump between 0 and 1/101\n",
            '{"check":"continuity","context":{"H":100,"K":1000000000000},'
            '"grids":[101],"max_gap":"4/99","mode":"refuted","samples":102,'
            '"schema":1,"tolerance":"1/100","verdict":"fail",'
            '"witness":"jump between 0 and 1/101"}\n',
        ),
        (
            ("grid-independence", "x^2", "--tau", "10", "--tau2", "30",
             "--samples", "64"),
            2,
            "check grid-independence: fail (mode=sampled, samples=31,"
            " max_gap=28/225, tolerance=1/1000)\n"
            "witness: values differ at 1/30\n"
            f"precondition: {_PRECONDITION}\n",
            '{"check":"grid-independence",' + _PINNED_CONTEXT + ','
            f'"detail":{{"precondition":"{_PRECONDITION}"}},"grids":[10,30],'
            '"max_gap":"28/225","mode":"sampled","samples":31,"schema":1,'
            '"tolerance":"1/1000","verdict":"fail",'
            '"witness":"values differ at 1/30"}\n',
        ),
    ],
)
def test_check_reports_are_pinned_byte_for_byte(capsys, argv, code, text, record):
    assert invoke(capsys, "check", *argv) == (code, text, "")
    assert invoke(capsys, "check", *argv, "--json") == (code, record, "")


# --- json determinism ------------------------------------------------------------


def test_json_eval_record(capsys):
    code, out, _ = invoke(
        capsys, "eval", "x^2", "--tau", "10", "--at", "3/10", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == 1
    assert record["command"] == "eval"
    assert record["value"] == "9/100"
    assert record["decimal"] == "0.090000000000"
    assert record["at"] == "3/10"


def test_json_reports_are_byte_identical_across_runs():
    job = JobConfig(
        command="check",
        tau=4096,
        H=1000,
        K=10**12,
        seed=7,
        expr_text="x^2",
        check="ftc",
    )
    first = run(job)
    second = run(job)
    assert first == second
    job_json = JobConfig(
        command="check",
        tau=4096,
        H=1000,
        K=10**12,
        seed=7,
        expr_text="x^2",
        check="ftc",
        json_out=True,
    )
    a = run(job_json)[1]
    b = run(job_json)[1]
    assert a == b
    assert json.loads(a)["verdict"] == "pass"


def test_json_check_record_shape(capsys):
    code, out, _ = invoke(
        capsys, "check", "ftc", "x^2", "--tau", "4096", "--json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == 1
    assert record["grids"] == [4096]
    assert record["context"] == {"H": 1000, "K": 10**12}
    assert record["mode"] == "exhaustive"


# --- sums ------------------------------------------------------------------------


def test_sum_geometric_half(capsys):
    code, out, _ = invoke(capsys, "sum", "geometric:1/2", "--H", "1000")
    assert code == 0
    value = Fraction(out.splitlines()[0].split(": ")[1])
    assert abs(value - 2) <= Fraction(1, 1000)


def test_sum_harmonic_is_unstable(capsys):
    code, out, _ = invoke(capsys, "sum", "harmonic", "--sum-cap", "4096")
    assert code == 0
    assert "unstable" in out


def test_sum_zeros_is_exactly_zero_json(capsys):
    code, out, _ = invoke(capsys, "sum", "zeros", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "finite"
    assert record["value"] == "0"


def test_sum_inverse_squares_is_finite(capsys):
    code, out, _ = invoke(capsys, "sum", "inverse-squares", "--H", "100", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "finite"
    value = Fraction(record["value"])
    # pi^2/6 to two decimals
    assert abs(value - Fraction(1645, 1000)) < Fraction(1, 50)


def test_sum_of_ones_reads_plus_infinity(capsys):
    code, out, _ = invoke(
        capsys, "sum", "geometric:1", "--H", "10", "--K", "1000", "--json"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "plus-infinity"


def test_unknown_series_is_an_error(capsys):
    code, _, err = invoke(capsys, "sum", "fibonacci")
    assert code == 1
    assert "geometric:<ratio>" in err


# --- environment cap -------------------------------------------------------------


def test_tau_cap_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("HYPERGRID_MAX_TAU", "100")
    code, _, err = invoke(capsys, "eval", "x", "--tau", "1000")
    assert code == 1
    assert "HYPERGRID_MAX_TAU" in err
    code, out, _ = invoke(capsys, "eval", "x", "--tau", "100", "--at", "1/2")
    assert code == 0
    assert out.splitlines()[0] == "1/2"


def test_tau_cap_applies_to_the_second_grid(capsys, monkeypatch):
    monkeypatch.setenv("HYPERGRID_MAX_TAU", "20000")
    code, _, err = invoke(
        capsys, "check", "grid-independence", "x^2", "--tau", "10000",
        "--tau2", "30000"
    )
    assert code == 1
    assert "HYPERGRID_MAX_TAU" in err


def test_tau_cap_applies_to_the_default_second_grid(capsys, monkeypatch):
    # without --tau2 the second grid is 3 * tau = 300
    monkeypatch.setenv("HYPERGRID_MAX_TAU", "100")
    code, out, err = invoke(capsys, "check", "grid-independence", "x^2", "--tau", "100")
    assert code == 1
    assert out == ""
    assert err == "error: tau=300 exceeds HYPERGRID_MAX_TAU=100\n"


def test_non_integer_tau_cap_is_an_error(capsys, monkeypatch):
    monkeypatch.setenv("HYPERGRID_MAX_TAU", "abc")
    code, out, err = invoke(capsys, "eval", "x", "--tau", "10")
    assert code == 1
    assert out == ""
    assert err == "error: HYPERGRID_MAX_TAU must be an integer, got 'abc'\n"


# --- deep nesting and huge values ------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "exp(" * 400 + "x" + ")" * 400, "--tau", "64"),
        ("check", "continuity", "exp(x)^300", "--tau", "64", "--H", "4"),
    ],
)
def test_deep_nesting_and_huge_values_are_errors_not_tracebacks(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "text, k",
    [
        ("x^(10^9)", 10**9),
        ("exp(x)^(10^6)", 10**6),
        ("(1+x)^(10^7)", 10**7),
        ("x/2^(10^9)", 10**9),
        ("x^4097", 4097),
    ],
)
def test_exponents_above_the_power_limit_are_refused(capsys, text, k):
    code, out, err = invoke(capsys, "eval", text, "--tau", "64")
    assert code == 1
    assert out == ""
    assert err == f"error: exponent {k} exceeds the limit {POWER_LIMIT}\n"


def test_continuity_of_an_exp_past_the_certificate_guard_is_sampled(capsys):
    # no certificate for a 10**9-bounded argument: sampling refutes at once
    code, out, _ = invoke(
        capsys, "check", "continuity", "exp(10^9*x)", "--tau", "1000000000"
    )
    assert code == 2
    assert "mode=refuted" in out
    assert "witness: jump between 0 and 1/1000000000" in out


def test_continuity_of_a_huge_exp_argument_exits_on_the_magnitude_guard(capsys):
    # sampling meets exp(10**9/65536) at the second grid point; the series
    # refuses it before summing the ~30,000 terms it would take
    code, out, err = invoke(
        capsys, "check", "continuity", "exp(10^9*x)", "--tau", "65536"
    )
    assert code == 1
    assert out == ""
    assert err == "error: exp argument exceeds the magnitude limit 4096\n"


def test_deep_expressions_within_reach_still_evaluate(capsys):
    code, out, _ = invoke(capsys, "eval", "x^350", "--tau", "64", "--at", "1/2")
    assert code == 0
    assert out.splitlines()[0] == str(Fraction(1, 2**350))
    code, out, _ = invoke(capsys, "eval", f"x^{POWER_LIMIT}", "--tau", "2", "--at", "1/2")
    assert code == 0
    assert out.splitlines()[0] == str(Fraction(1, 2**POWER_LIMIT))
    code, out, _ = invoke(capsys, "eval", "exp(x)^150", "--tau", "64", "--at", "1/2")
    assert code == 0
    assert out.splitlines()[0] == str(exp_approx(Fraction(1, 2), 64) ** 150)
    # powers fold by squaring, so 400 factors nest only a few products deep
    code, out, _ = invoke(capsys, "eval", "exp(x)^400", "--tau", "64")
    assert code == 0
    assert out.splitlines()[0] == "1"
