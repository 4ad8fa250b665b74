"""CLI tests: input parsing, argument handling, exit codes, output forms."""

import decimal
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from seqguess.cli import (
    _looks_like_bfile,
    main,
    parse_bfile,
    parse_sequence,
)
from seqguess.errors import ParseError
from seqguess.render import OPERATOR_SCHEMA, RESULT_SCHEMA, result_from_json
from seqguess.rings import RatPoly

SRC = str(Path(__file__).resolve().parents[1] / "src")


# ---------------------------------------------------------------------------
# parse_sequence


def test_parse_comma_expressions():
    spec = parse_sequence("3*(1+2)^2, -5/2")
    assert spec.terms == [F(27), F(-5, 2)]
    assert spec.offset == 0 and spec.source == "inline"


def test_parse_whitespace_terms():
    spec = parse_sequence("0 1 4 9")
    assert spec.terms == [F(0), F(1), F(4), F(9)]


def test_parse_param_polynomials():
    spec = parse_sequence("1, 1+q, 1+q+q^2", param="q")
    assert spec.param == "q"
    assert spec.terms[2] == RatPoly.make([1, 1, 1])
    assert spec.terms[0] == RatPoly.const(1)


def test_parse_unknown_name_suggests_param():
    with pytest.raises(ParseError, match="unknown name 'n'; declare it with --param n"):
        parse_sequence("1, n")


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_sequence("1,\n2, @")
    assert exc.value.line == 2 and exc.value.column == 4
    assert "(line 2, column 4)" in str(exc.value)


def test_parse_division_by_zero():
    with pytest.raises(ParseError, match="division by zero"):
        parse_sequence("1, 3/0")


def test_parse_empty_input():
    with pytest.raises(ParseError, match="no terms"):
        parse_sequence("   \n  ")


@pytest.mark.parametrize("base, e, param", [
    ("0", 0, None), ("0", 0, "q"), ("0", 3, "q"), ("(-2/3)", 5, None), ("(-2/3)", 5, "q"),
    ("(1/(q+1))", 3, "q"), ("((q^2-1/3)/(2*q+5))", 4, "q"), ("(q-1)", 7, "q"),
])
def test_parse_power_equals_repeated_product(base, e, param):
    product = "*".join([base] * e) if e else "1"
    assert parse_sequence(f"{base}^{e}", param).terms == parse_sequence(product, param).terms


def test_parse_power_is_bounded():
    # q^3000 used to take 24 s (one gcd per factor), 2^9999999 never returned
    t0 = time.perf_counter()
    assert parse_sequence("q^3000, 2^100000", param="q").terms == [
        RatPoly((F(0),) * 3000 + (F(1),), (F(1),)), RatPoly.const(2**100000)]
    with pytest.raises(ParseError, match="MAX_POWER_BITS") as exc:
        parse_sequence("1, 2^9999999")
    assert (exc.value.line, exc.value.column) == (1, 5)
    with pytest.raises(ParseError, match="MAX_POWER_BITS"):
        parse_sequence("(q+1)^" + "9" * 400, param="q")
    assert time.perf_counter() - t0 < 5


# ---------------------------------------------------------------------------
# b-files


def _dec(n: int) -> str:
    """Decimal text of n by the decimal module, which has no digit limit."""
    return str(decimal.Decimal(n))


def test_parse_integers_of_any_size():
    """4,756 digits, past CPython's default int() limit of 4,300."""
    big = math.factorial(1700)
    assert parse_sequence(f"{_dec(big)}, 1, 2").terms == [F(big), F(1), F(2)]
    assert parse_sequence(f"{_dec(big)} -{_dec(big)}").terms == [F(big), F(-big)]
    assert parse_sequence(f"{_dec(big)}*q^2, 1", "q").terms == [RatPoly.make([0, 0, big]), RatPoly.const(1)]


def test_parse_unreadable_digit_is_a_parse_error():
    with pytest.raises(ParseError, match=r"bad integer '2²' \(line 1, column 4\)"):
        parse_sequence("1, 2²")


BFILE = "5 25\n6 36\n7 49\n8 64\n"


def test_parse_bfile_offset_and_terms():
    spec = parse_bfile(BFILE)
    assert spec.terms == [F(25), F(36), F(49), F(64)]
    assert spec.offset == 5 and spec.source == "b-file"


def test_parse_bfile_comments_and_blanks():
    spec = parse_bfile("# header\n\n0 1\n1 1  # trailing\n")
    assert spec.terms == [F(1), F(1)] and spec.offset == 0


def test_parse_bfile_gap_is_an_error():
    with pytest.raises(ParseError, match=r"non-contiguous b-file indices: 0 followed by 2 \(expected 1\)"):
        parse_bfile("0 1\n2 4\n")


def test_parse_bfile_empty():
    with pytest.raises(ParseError, match="no terms"):
        parse_bfile("# only a comment\n")


def test_parse_bfile_value_of_any_size_and_clipped_errors():
    big = math.factorial(1704)
    assert parse_bfile(f"0 {_dec(big)}\n1 -{_dec(big)}/3\n").terms == [F(big), F(-big, 3)]
    with pytest.raises(ParseError, match=r"bad b-file value '9{24}\.\.\.9{23}x \(5001 characters\)'") as err:
        parse_bfile(f"0 1\n1 {'9' * 5000}x\n")
    assert len(str(err.value)) < 200


def test_parse_bfile_exponent_is_bounded(capsys, tmp_path):
    # exponent notation reaches Fraction, which built 10^e for any e: 1e10000000 took 8 s
    assert parse_bfile("0 1e3\n1 1.5\n2 -2.5e-3\n3 1_000\n").terms == [F(1000), F(3, 2), F(-1, 400), F(1000)]
    t0 = time.perf_counter()
    with pytest.raises(ParseError, match="MAX_POWER_BITS") as exc:
        parse_bfile("0 1\n1 1e10000000\n")
    assert (exc.value.line, exc.value.column) == (2, 3)
    with pytest.raises(ParseError, match="MAX_POWER_BITS"):
        parse_bfile("0 1\n1 -2.5E-" + "9" * 400 + "\n")
    bfile = tmp_path / "huge.txt"
    bfile.write_text("0 1\n1 2\n2 1e99999999\n")
    assert main(["--file", str(bfile)]) == 2
    assert "MAX_POWER_BITS" in capsys.readouterr().err
    # the JSON reader shares the bound
    assert main(["--json", "0", "1", "4", "9"]) == 0
    obj = json.loads(capsys.readouterr().out)
    obj["coefficients"][0][0] = "1e99999999"
    with pytest.raises(ValueError, match="MAX_POWER_BITS"):
        result_from_json(json.dumps(obj))
    assert time.perf_counter() - t0 < 5


def test_parse_bfile_reads_long_decimal_and_exponent_values(capsys):
    """Values of 5,001 and 5,002 characters with a point or an exponent,
    past CPython's int() limit of 4,300 digits, in a b-file and in JSON."""
    ones = (10**5000 - 1) // 9  # 5,000 ones
    point, exponent = "1." + "5" * 5000, "1" * 5000 + "e2"
    spec = parse_bfile(f"0 1\n1 {point}\n2 {exponent}\n3 -{exponent[:-1]}-2\n")
    assert spec.terms == [F(1), 1 + F(5 * ones, 10**5000), F(ones * 100), F(-ones, 100)]
    assert main(["--json", "0", "1", "4", "9"]) == 0
    obj = json.loads(capsys.readouterr().out)
    obj["coefficients"][0][2], obj["coefficients"][1][0] = point, exponent
    assert result_from_json(json.dumps(obj)).coeffs == [[F(0), F(0), 1 + F(5 * ones, 10**5000)], [F(ones * 100)]]


def test_bfile_autodetection():
    assert _looks_like_bfile("0 1\n1 2\n")
    assert _looks_like_bfile(BFILE)
    assert not _looks_like_bfile("0 1")          # one row: ambiguous, treat as terms
    assert not _looks_like_bfile("1, 2\n3, 4\n")  # commas: term list
    assert not _looks_like_bfile("a 1\nb 2\n")    # non-integer index column
    assert not _looks_like_bfile("3 1\n2 2\n")    # indices must increase


# ---------------------------------------------------------------------------
# main(): happy paths and exit codes


def test_main_rat_golden(capsys):
    assert main(["0", "1", "4", "9"]) == 0
    assert capsys.readouterr().out.strip() == "[f(n): f(n) = n^2]"


def test_main_no_guess(capsys):
    assert main(["--class", "pade", "1", "2", "3"]) == 1
    assert capsys.readouterr().out.strip() == "no guess"


def test_main_unknown_class(capsys):
    assert main(["--class", "nope", "1", "2"]) == 2
    assert "unknown class 'nope'" in capsys.readouterr().err


def test_main_empty_class_or_operator_list_is_usage_error(capsys):
    for argv in (["--class", ",", "0", "1", "4", "9"], ["--class", "", "0", "1", "4", "9"],
                 ["--operators", ",", "1", "2", "6", "24", "120"]):
        assert main(argv) == 2, argv
        assert "needs at least one" in capsys.readouterr().err


def test_main_bad_names_arity(capsys):
    assert main(["--names", "f,n", "1", "2"]) == 2
    assert "--names" in capsys.readouterr().err


def test_main_operators_reject_q_mode(capsys):
    assert main(["--operators", "sum", "--q", "0", "1", "3", "9", "33"]) == 2
    assert "plain rational sequences" in capsys.readouterr().err


def test_main_unknown_operator(capsys):
    assert main(["--operators", "minimum", "1", "2", "3"]) == 2
    assert "unknown operator" in capsys.readouterr().err


def test_main_parse_error_exit(capsys):
    assert main(["1,", "@"]) == 2
    assert "unexpected character" in capsys.readouterr().err
    assert main(["2^9999999"]) == 2
    assert "MAX_POWER_BITS" in capsys.readouterr().err


def test_main_operator_search(capsys):
    assert main(["--operators", "sum,product", "0", "1", "3", "9", "33"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "[f(n): f(n) = sum_{s=0}^{n-1} prod_{p=0}^{s-1} (p + 2)]"


def test_main_all_reports_every_result(capsys):
    assert main(["--all", "5", "5", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and all(l.startswith("[f(n): ") for l in lines)


def test_main_check_modes(capsys):
    for mode in ("det", "mc", "skip"):
        assert main(["--check", mode, "0", "1", "4", "9"]) == 0
        assert "n^2" in capsys.readouterr().out


def test_main_internal_abort_is_exit_3(capsys, monkeypatch):
    from seqguess.errors import ReconstructionAborted

    def boom(*a, **k):
        raise ReconstructionAborted("prime budget exhausted")

    monkeypatch.setattr("seqguess.cli.guess_class", boom)
    assert main(["1", "2", "3"]) == 3
    assert "aborted" in capsys.readouterr().err


def test_main_engine_value_error_is_exit_3(capsys, monkeypatch):
    def boom(*a, **k):
        raise ValueError("moduli 6 and 9 are not coprime")

    monkeypatch.setattr("seqguess.cli.guess_class", boom)
    assert main(["1", "2", "3"]) == 3
    err = capsys.readouterr().err
    assert "internal error" in err and "not coprime" in err


def test_main_library_usage_error_is_exit_2(capsys):
    assert main(["--mixed-degree", "-1", "1", "2", "3"]) == 2
    assert "max_mixed_degree must be nonnegative" in capsys.readouterr().err


def test_main_negative_cap_exits_2_promptly():
    # a negative cap used to leave the schema stream waiting forever;
    # one subprocess, bounded by a timeout, so a regression fails fast
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "seqguess.cli", "--class", "rec", "--max-shift", "-1",
         "1", "2", "3", "5", "8", "13", "21", "34"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2
    assert "max_shift must be nonnegative" in proc.stderr


def test_main_invalid_seed_environment_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("SEQGUESS_SEED", "abc")
    assert main(["0", "1", "4", "9"]) == 2
    err = capsys.readouterr().err
    assert "SEQGUESS_SEED" in err and "'abc'" in err


# ---------------------------------------------------------------------------
# main(): JSON output


def test_main_bfile_of_factorials_past_the_digit_limit(capsys, tmp_path):
    """1700! .. 1704!, 4,756 to 4,770 digits: read, solved, printed as text and JSON."""
    path = tmp_path / "b.txt"
    path.write_text("".join(f"{k} {_dec(math.factorial(1700 + k))}\n" for k in range(5)))
    argv = ["--class", "prec", "--max-shift", "1", "--homogeneous", "--file", str(path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == f"[f(n): f(n+1) + (-n - 1701)f(n) = 0, f(0)= {_dec(math.factorial(1700))}]\n"
    assert main(argv + ["--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["initial_conditions"]["values"] == [[0, _dec(math.factorial(1700))]]
    assert obj["text"] == out.strip()


def test_main_json_roundtrip(capsys):
    assert main(["--json", "0", "1", "4", "9"]) == 0
    out = capsys.readouterr().out
    obj = json.loads(out)
    assert obj["schema"] == RESULT_SCHEMA
    assert str(result_from_json(out)) == "[f(n): f(n) = n^2]"


def test_main_closed_pipe_keeps_the_outcome(monkeypatch, capsys):
    """A reader that closed its end of the pipe (`| head -1`) makes the
    final write raise BrokenPipeError: no traceback, and a found guess
    still exits 0, not 1 ("no guess"); in a process of its own too."""
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    for argv, code in ((["--json", "0", "1", "4", "9"], 0), (["--class", "pade", "1", "2", "3"], 1)):
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(argv) == code
    assert capsys.readouterr().err == ""
    proc = subprocess.Popen([sys.executable, "-m", "seqguess.cli", "--json", "0", "1", "4", "9"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": SRC})
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_main_json_no_guess(capsys):
    assert main(["--json", "--class", "pade", "1", "2", "3"]) == 1
    assert capsys.readouterr().out.strip() == "null"
    assert main(["--json", "--all", "--class", "pade", "1", "2", "3"]) == 1
    assert capsys.readouterr().out.strip() == "[]"


def test_main_json_all_is_a_list(capsys):
    assert main(["--json", "--all", "5", "5", "5"]) == 0
    objs = json.loads(capsys.readouterr().out)
    assert isinstance(objs, list) and len(objs) == 2
    assert all(o["schema"] == RESULT_SCHEMA for o in objs)


def test_main_json_operator_schema(capsys):
    assert main(["--json", "--operators", "sum,product", "0", "1", "3", "9", "33"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["schema"] == OPERATOR_SCHEMA


# ---------------------------------------------------------------------------
# main(): input channels


def test_main_stdin_terms(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1 4 9"))
    assert main([]) == 0
    assert "n^2" in capsys.readouterr().out


def test_main_stdin_bfile_autodetect(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(BFILE))
    assert main([]) == 0
    assert capsys.readouterr().out.strip() == "[f(n): f(n) = n^2 + 10n + 25]"


def test_main_file_input(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text(BFILE)
    assert main(["--file", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "[f(n): f(n) = n^2 + 10n + 25]"


def test_main_file_and_inline_conflict(capsys, tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("1 2 3")
    assert main(["--file", str(path), "7", "8"]) == 2
    assert "not both" in capsys.readouterr().err


def test_main_missing_file(capsys):
    assert main(["--file", "/nonexistent/terms.txt"]) == 2
    assert "seqguess:" in capsys.readouterr().err


def test_main_param_terms(capsys):
    args = ["--param", "q", "--class", "rat", "1, 1+q, 1+q+q^2, (q^4-1)/(q-1)"]
    assert main(args) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("[f(n): f(n) = ") and "q^n" in out


# ---------------------------------------------------------------------------
# option plumbing


def test_seed_from_environment(monkeypatch):
    from seqguess.cli import _build_parser, _options_from_args

    monkeypatch.setenv("SEQGUESS_SEED", "77")
    opts = _options_from_args(_build_parser().parse_args(["1", "2"]))
    assert opts.seed == 77
    opts = _options_from_args(_build_parser().parse_args(["--seed", "5", "1", "2"]))
    assert opts.seed == 5  # explicit flag beats the environment


def test_option_flags_map_through():
    from seqguess.cli import _build_parser, _options_from_args

    args = _build_parser().parse_args(
        ["--max-shift", "4", "--somos", "--homogeneous", "2", "--check", "skip",
         "--all", "--no-extra-check", "--names", "a,k,t", "1", "2"]
    )
    opts = _options_from_args(args)
    assert opts.max_shift == 4 and opts.somos is True and opts.homogeneous == 2
    assert opts.check == "none" and opts.one is False
    assert opts.check_extra_values is False
    assert (opts.function_name, opts.index_name, opts.variable_name) == ("a", "k", "t")
