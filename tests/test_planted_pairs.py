"""Planted pair-class equations are recovered.

Hypothesis plants a random rational function f(n) = P(n)/Q(n) (`rat`,
over Q and in q mode with P(q^n)/Q(q^n)) or a rational generating
function P(x)/Q(x) (`pade`, over Q and over Q(q)).  The guesser sees the
fitting terms only.  Its first result must annihilate the held-out terms
too, judged by tests/oracles (which shares no code with guess), and use
no more coefficients than the planted P and Q.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import QPARAM, QQ_T, first_failure_reference, qpower_poly, series_coefficients
from seqguess import guess_pade, guess_rat
from seqguess.rings import RatPoly

HELD_OUT = 4

_INT = st.integers(-6, 6)
_QCOEFF = st.lists(st.integers(-3, 3), min_size=1, max_size=2)  # a small polynomial in q


def _nonzero_lead(coeffs, nonzero=bool):
    """Polynomials of degree 0 to 2 whose leading coefficient is nonzero."""
    return st.lists(coeffs, min_size=1, max_size=3).filter(lambda c: nonzero(c[-1]))


def _fit(num, den) -> int:
    """Terms given to the guesser: twice the planted coefficient count, plus two."""
    return 2 * (len(num) + len(den)) + 2


def _check(results, terms, size, q):
    assert results, "the planted equation was not recovered"
    first = results[0]
    assert sum(len(c) for c in first.coeffs) <= size
    args = (QQ_T, QPARAM) if q else ()
    assert first_failure_reference(first.coeffs, first.schema, terms, *args) is None


def _poly_at(coeffs, x):
    return sum(c * x**i for i, c in enumerate(coeffs))


@settings(deadline=None, derandomize=True, max_examples=40)
@given(_nonzero_lead(_INT), _nonzero_lead(_INT))
def test_planted_rational_function_over_q(num, den):
    count = _fit(num, den) + HELD_OUT
    assume(all(_poly_at(den, n) for n in range(count)))
    terms = [Fraction(_poly_at(num, n), _poly_at(den, n)) for n in range(count)]
    _check(guess_rat(terms[:-HELD_OUT]), terms, len(num) + len(den), False)


@settings(deadline=None, derandomize=True, max_examples=15)
@given(_nonzero_lead(_QCOEFF, any), _nonzero_lead(_QCOEFF, any))
def test_planted_rational_function_in_q_mode(num, den):
    count = _fit(num, den) + HELD_OUT
    assume(all(any(qpower_poly(den, n)) for n in range(count)))
    terms = [RatPoly.make(qpower_poly(num, n), qpower_poly(den, n)) for n in range(count)]
    _check(guess_rat(terms[:-HELD_OUT], q=True), terms, len(num) + len(den), True)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(_nonzero_lead(_INT), st.lists(_INT, max_size=2), st.sampled_from((1, -1, 2, -3)))
def test_planted_rational_generating_function_over_q(num, den_tail, den0):
    den = [den0, *den_tail]
    count = _fit(num, den) + HELD_OUT
    terms = series_coefficients(num, den, count, Fraction(1))
    _check(guess_pade(terms[:-HELD_OUT]), terms, len(num) + len(den), False)


@settings(deadline=None, derandomize=True, max_examples=15)
@given(_nonzero_lead(_QCOEFF, any), st.lists(_QCOEFF, max_size=2), st.sampled_from((1, -1, 2, -3)))
def test_planted_rational_generating_function_over_q_of_q(num, den_tail, den0):
    den = [[den0], *den_tail]
    count = _fit(num, den) + HELD_OUT
    terms = series_coefficients([RatPoly.make(c) for c in num], [RatPoly.make(c) for c in den], count, RatPoly.const(1))
    _check(guess_pade(terms[:-HELD_OUT], q=True), terms, len(num) + len(den), True)
