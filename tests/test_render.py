"""Rendering conventions and the versioned JSON forms."""

import decimal
import json
from fractions import Fraction as F

import pytest

from seqguess import rings
from seqguess.guess import GuessResult, Options, guess, guess_alg, guess_holo, guess_pade, guess_prec, guess_rat
from seqguess.models import build_schema
from seqguess.render import (
    OPERATOR_SCHEMA,
    RESULT_SCHEMA,
    canonical_rows,
    render_operator,
    render_text,
    result_from_json,
    result_to_json,
    to_obj,
)
from seqguess.rings import RatPoly


def test_canonical_rows_integer_scaling():
    rows = canonical_rows([[F(1, 2), F(3, 2)], [F(-2)]], q=False)
    assert rows == [[1, 3], [-4]]
    rows = canonical_rows([[F(2), F(4)], [F(6)]], q=False)
    assert rows == [[1, 2], [3]]  # common factor removed
    assert canonical_rows([[], [F(5)]], q=False) == [[], [1]]


def test_canonical_rows_q_mode():
    half = RatPoly.make([1], [2])
    rows = canonical_rows([[half, half], [RatPoly.const(1)]], q=True)
    assert rows == [[[1], [1]], [[2]]]  # integer coefficient lists, scaled by 2


def test_equation_sign_follows_first_printed_monomial():
    # guessed equation scaled so the first displayed coefficient is positive
    got = str(guess_prec([F(0), F(1), F(0), F(-1, 6), F(0), F(1, 120), F(0), F(-1, 5040),
                          F(0), F(1, 362880), F(0), F(-1, 39916800), F(0), F(1, 6227020800)])[0])
    assert got.startswith("[f(n): (n^2 + 3n + 2)f(n+2) + f(n) = 0")


def test_closed_form_guard_degenerate_denominator():
    # annihilator with a coefficient vanishing on the sample indices must
    # print as an equation, not as a bogus closed form
    got = str(guess_rat([0, 0, 2, 4, 8, 16, 32])[0])
    assert got == "[f(n): (n^5 - 20n^4 + 155n^3 - 580n^2 + 1044n - 720)f(n) = 0]"


def test_closed_form_allows_negative_offset_roots():
    assert str(guess_rat([F(1, k + 1) for k in range(5)])[0]) == "[f(n): f(n) = 1/(n + 1)]"
    assert str(guess_rat([0, -1, -4, -9])[0]) == "[f(n): f(n) = -n^2]"
    assert str(guess_rat([0, 0, 0, 0])[0]) == "[f(n): f(n) = 0]"


def test_series_prefix_and_taylor_ics():
    from seqguess.guess import guess_fe, guess_holo

    got = str(guess_alg([1, 1, 2, 5, 14, 42])[0])
    assert got.endswith("f(0)= 1]")
    got = str(guess_holo([F(0), F(1), F(0), F(-1, 6), F(0), F(1, 120)])[0])
    assert "f(0)= 0, f'(0)= 1" in got  # taylor-coefficient names
    got = str(guess_fe([0, 1, 1, 1, 2, 3, 6, 11, 23])[0])
    assert got.endswith("f(x) = x + x^2 + x^3 + 2x^4 + O(x^5)]")  # prefix form


def test_q_power_rendering():
    one_ = RatPoly.const(1)
    terms = [one_, RatPoly.make([1, 1, 1]),
             RatPoly.make([1, 1, 1]) * RatPoly.make([1, 0, 1]),
             RatPoly.make([1, 0, 1]) * RatPoly.make([1, 1, 1, 1, 1])]
    got = str(guess_rat(terms, q=True)[0])
    # powers of q^n render juxtaposed with the q-coefficient, q^3 q^{2n}
    assert "q^3q^(2n)" in got and "(-q^2 - q)q^n" in got


def test_result_json_roundtrip_plain():
    res = guess_alg([1, 1, 2, 5, 14, 42])[0]
    text = result_to_json(res)
    obj = json.loads(text)
    assert obj["schema"] == RESULT_SCHEMA
    back = result_from_json(text)
    assert render_text(back) == render_text(res)
    assert back.coeffs == res.coeffs
    assert back.ics == res.ics and back.ic_kind == res.ic_kind
    assert back.schema == res.schema


def test_result_json_roundtrip_q():
    terms = [RatPoly.const(1), RatPoly.make([1, 1, 1]),
             RatPoly.make([1, 1, 1]) * RatPoly.make([1, 0, 1]),
             RatPoly.make([1, 0, 1]) * RatPoly.make([1, 1, 1, 1, 1])]
    res = guess_rat(terms, q=True)[0]
    back = result_from_json(result_to_json(res))
    assert back.coeffs == res.coeffs
    assert render_text(back) == render_text(res)


def test_operator_json_roundtrip():
    expr = guess([0, 1, 3, 9, 33])[0]
    text = result_to_json(expr)
    obj = json.loads(text)
    assert obj["schema"] == OPERATOR_SCHEMA
    back = result_from_json(text)
    assert render_operator(back) == render_operator(expr)
    assert to_obj(expr)["schema"] == OPERATOR_SCHEMA


def test_result_json_rejects_unknown_schema():
    res = guess_rat([0, 1, 4, 9])[0]
    obj = json.loads(result_to_json(res))
    obj["schema"] = "something-else"
    with pytest.raises(ValueError):
        result_from_json(json.dumps(obj))


def test_pade_closed_form_series_variable():
    got = str(guess_pade([1, 2, 3, 0])[0])
    assert got == "[[x^n]f(x): f(x) = 3x^2 + 2x + 1]"


def test_coefficients_past_the_str_digit_limit():
    """Text and JSON of results whose values have 4,772 digits, past
    CPython's default str() limit of 4,300; the JSON reads back."""
    big = 3**10000
    dec = str(decimal.Decimal(big))  # the decimal module has no digit limit
    names = ("f", "n", "x")
    plain = GuessResult(build_schema("rat", Options(), 2), [[F(-big), F(-1)], [F(1)]], "none", (),
                        "deterministic", names)
    q = GuessResult(build_schema("rat", Options(), 2, q=True),
                    [[RatPoly.make([-big, 1]), RatPoly.const(-1)], [RatPoly.const(1)]], "none", (),
                    "deterministic", names)
    series = GuessResult(build_schema("pade", Options(), 2), [[F(-1)], [F(1)]], "prefix", (F(big), F(-big, 7)),
                         "deterministic", names)
    assert render_text(plain) == f"[f(n): f(n) = n + {dec}]"
    assert render_text(q) == f"[f(n): f(n) = q^n - q + {dec}]"
    assert render_text(series) == f"[[x^n]f(x): f(x) = 1, f(x) = {dec} - ({dec}/7)x + O(x^2)]"
    for res in (plain, q, series):
        text = result_to_json(res)
        assert dec in text
        back = result_from_json(text)
        assert back.coeffs == res.coeffs and back.ics == res.ics
        assert render_text(back) == render_text(res)


_Q_CATALAN_TEXT = (
    "[f(n): f(n) = ((-2352q^12 + 378q^11 + 1134q^10 + 1708q^9 - 784q^8 - 1974q^7 + 1666q^6 + "
    "672q^5 + 424q^4 - 938q^3 - 266q^2 + 416q - 84)q^(2n) + (-378q^15 - 616q^14 + 3136q^13 + "
    "2814q^12 - 140q^11 - 3976q^10 - 2160q^9 + 1872q^8 + 196q^7 - 598q^6 - 976q^5 + 644q^4 + "
    "322q^3 - 140q^2)q^n + 378q^17 - 1400q^16 + 1078q^15 + 644q^14 - 2530q^13 - 56q^12 + 56q^11 "
    "+ 2530q^10 - 644q^9 - 1078q^8 + 1400q^7 - 378q^6)/((112q^7 - 257q^6 - 514q^5 + 1085q^4 - "
    "514q^3 - 257q^2 + 112q)q^(3n) + (-168q^12 + 266q^11 + 910q^10 - 443q^9 - 382q^8 - 834q^7 + "
    "1095q^6 + 470q^5 - 147q^4 - 167q^3 - 121q^2 + 304q - 84)q^(2n) + (-378q^15 - 616q^14 + "
    "952q^13 + 742q^12 + 196q^11 - 1601q^10 - 523q^9 + 475q^8 + 286q^7 - 139q^6 - 260q^5 + "
    "130q^4 + 65q^3 - 28q^2)q^n + 378q^17 - 1400q^16 + 1078q^15 + 644q^14 - 346q^13 - 168q^12 - "
    "168q^11 + 379q^10 - 130q^9 - 83q^8 + 58q^7 - 9q^6)]"
)


def test_q_closed_form_renders_without_rational_function_sums(monkeypatch):
    """The closed form of a q-mode rat result on six Catalan numbers: the
    test whether its denominator vanishes at some q^n runs on integer
    coefficient lists, so rendering makes few polynomial divisions."""
    (res,) = guess_rat([1, 1, 2, 5, 14, 42], q=True, safety=0, check_extra_values=False)
    calls = []
    divmod_ = rings.pdivmod
    monkeypatch.setattr(rings, "pdivmod", lambda *args: calls.append(1) or divmod_(*args))
    assert render_text(res) == _Q_CATALAN_TEXT
    assert len(calls) <= 200


def test_q_dilation_parts_render_and_roundtrip():
    """f(qx) and f(q^2x), the q-dilation parts 2 and 3, in a q-holonomic
    series: sum_n q^(n^2) x^n / (q; q)_n satisfies f(x) = f(qx) + qx f(q^2x)."""
    poch = RatPoly.const(1)
    terms = []
    for n in range(10):
        terms.append(RatPoly.make([0] * (n * n) + [1]) / poch)
        poch = poch * RatPoly.make([1] + [0] * n + [-1])
    (res,) = guess_holo(terms, q=True)
    text = render_text(res)
    assert text.startswith("[[x^n]f(x): (q)xf(q^2x) + f(qx) - f(x) = 0, f(x) = 1 + (-q/(q - 1))x + ")
    back = result_from_json(result_to_json(res))
    assert back.schema == res.schema and back.coeffs == res.coeffs and back.ics == res.ics
    assert render_text(back) == text


def test_q_values_with_a_non_constant_denominator():
    """Initial values in Q(q) print as num/den, each side in parentheses
    when it has several terms: f(n) = (q^n + q^2 + 1)/(q + 1)."""
    terms = [(RatPoly.make([0] * n + [1]) + RatPoly.make([1, 0, 1])) / RatPoly.make([1, 1]) for n in range(10)]
    (res,) = guess_prec(terms, q=True, homogeneous=True)
    assert render_text(res) == ("[f(n): f(n+2) + (-q - 1)f(n+1) + qf(n) = 0, "
                                "f(0)= (q^2 + 2)/(q + 1), f(1)= (q^2 + q + 1)/(q + 1)]")
    assert render_text(result_from_json(result_to_json(res))) == render_text(res)
