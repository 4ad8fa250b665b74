"""Exact verification: integer check against a plain Fraction reference,
and rejection of candidates that only the last condition refutes."""

import math
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import QPARAM, QQ_T, condition_values, first_failure_reference
from seqguess.guess import (
    Options,
    _TermImages,
    _exact_failure,
    check_deterministic,
    GuessResult,
    filter_interpolating,
    guess_class,
    guess_pade,
)
from seqguess.modarith import is_probable_prime
from seqguess.models import build_schema
from seqguess.rings import RatPoly

# ---------------------------------------------------------------------------
# a planted equation is refuted by a change of its last term alone


def _q(*coeffs):
    return RatPoly.make(list(coeffs))


def _q_power(k):
    return RatPoly.make([0] * k + [1])


# (class, terms, options, q mode): every class, q-power and mixed q
# sequences, and a q-dilation series
PLANTED = [
    ("rat", [F(n * n + 1, n + 2) for n in range(8)], {}, False),
    ("pade", [1, 1, 2, 3, 5, 8, 13, 21, 34], {}, False),
    ("prec", [F(1, math.factorial(n)) for n in range(10)], {}, False),
    ("rec", [1, 1, 0, 1, -1, 2, -1, 5, -4, 29, -13, 854, -685], {}, False),
    ("holo", [F(1, math.factorial(n)) for n in range(8)], {}, False),
    ("alg", [1, 1, 2, 5, 14, 42, 132, 429], {}, False),
    ("ade", [F(1), F(1), F(2), F(9, 2), F(32, 3), F(625, 24), F(324, 5),
             F(117649, 720), F(131072, 315), F(4782969, 4480)], {}, False),
    ("fe", [0, 1, 1, 1, 2, 3, 6, 11, 23], {}, False),
    ("rat", [_q(1), _q(1, 1, 1), _q(1, 1, 1) * _q(1, 0, 1), _q(1, 0, 1) * _q(1, 1, 1, 1, 1),
             _q(1, 1, 1, 1, 1) * _q(1, 1, 1) * _q(1, 0, 0, 1) / _q(1, 1)], {}, True),
    ("prec", [_q_power(n * (n - 1)) * math.factorial(n) for n in range(8)],
     {"max_mixed_degree": 2, "homogeneous": True}, True),
    ("pade", [_q_power(n) for n in range(6)], {}, True),
]


@pytest.mark.parametrize("klass, terms, kw, q", PLANTED,
                         ids=[f"{k}{'-q' if q else ''}-{i}" for i, (k, _, _, q) in enumerate(PLANTED)])
def test_change_of_the_last_term_alone_is_rejected(klass, terms, kw, q):
    res = guess_class(terms, klass, q=q, **kw)[0]
    terms = [RatPoly.coerce(t) if q else F(t) for t in terms]
    changed = terms[:-1] + [terms[-1] + 1]
    assert check_deterministic(res, terms)
    assert filter_interpolating([res.coeffs], res.schema, _TermImages(terms, q)) == [res.coeffs]
    assert check_deterministic(res, terms[:-1])  # only the last term can refute it
    assert not check_deterministic(res, changed)
    assert filter_interpolating([res.coeffs], res.schema, _TermImages(changed, q)) == []


def test_all_zero_list_counts_as_unused_in_a_series():
    """A nonempty all-zero list is checked like an empty one, not as a
    monomial with no valuation."""
    res = guess_pade([1, 1, 2, 3, 5, 8, 13, 21])[0]
    terms = [F(t) for t in (1, 1, 2, 3, 5, 8, 13, 21)]
    assert check_deterministic(res, terms)
    for first in ([], [F(0)]):
        assert not check_deterministic(replace(res, coeffs=[first] + res.coeffs[1:]), terms)


def test_all_zero_list_does_not_cut_the_checked_rows():
    """f(n+1) - f(n) = 0 with a zero list on f(n+5) holds only on the first
    rows; every row where f(n) and f(n+1) exist must be checked."""
    schema = build_schema("prec", Options(max_shift=5, homogeneous=1), 6)
    terms = [1, 1, 1, 1, 1, 2, 3, 4]
    for last in ([], [F(0)]):
        res = GuessResult(schema, [[F(-1)], [F(1)], [], [], [], last], "terms", (), "deterministic", ("f", "n", "x"))
        assert not check_deterministic(res, terms)


# ---------------------------------------------------------------------------
# the integer check agrees with a plain Fraction evaluator


# (class, options, m): sequence and series schemas, linear and of degree up to 3
SCHEMAS = [
    ("rat", {}, 2),
    ("prec", {"max_shift": 2}, 4),
    ("rec", {"max_shift": 1, "max_power": 2}, 5),
    ("pade", {}, 2),
    ("holo", {"max_derivative": 2}, 4),
    ("alg", {"max_power": 3}, 4),
    ("ade", {"max_derivative": 1, "max_power": 2}, 5),
    ("fe", {"max_level": 2, "max_power": 2}, 5),
]


def _large_primes(count, start=10**12):
    out, n = [], start
    while len(out) < count:
        n += 1
        if is_probable_prime(n):
            out.append(n)
    return out


LARGE_PRIMES = _large_primes(12)
SMALL = st.builds(F, st.integers(-30, 30), st.integers(1, 12))


def _interpolate(values, points=range(100)):
    """Coefficients of the polynomial of degree < len(values) through (points[i], values[i])."""
    out = []
    for i, v in enumerate(values):
        basis, denom = [F(1)], F(1)
        for k in range(len(values)):
            if k != i:
                basis = [a - points[k] * b for a, b in zip([F(0)] + basis, basis + [F(0)])]
                denom = denom * (points[i] - points[k])
        out = [a + v / denom * b for a, b in zip(out + [F(0)] * (len(basis) - len(out)), basis)]
    while out and not out[-1]:
        out.pop()
    return out


@st.composite
def _candidates(draw):
    """A schema, terms, and a column that satisfies its first j conditions.

    The terms have small denominators, or large pairwise coprime ones.
    The coefficient of the constant monomial is chosen to cancel the
    first j conditions of the rest of the column, so failures land at
    any index, and j equal to the number of conditions gives a pass.
    """
    klass, kw, m = draw(st.sampled_from(SCHEMAS))
    schema = build_schema(klass, Options(**kw), m)
    n = draw(st.integers(schema.loss + 2, 9))
    if draw(st.booleans()):
        dens = draw(st.permutations(LARGE_PRIMES))[:n]
        terms = [F(draw(st.integers(-10**6, 10**6)), d) for d in dens]
    else:
        terms = draw(st.lists(SMALL, min_size=n, max_size=n))
    col = [[]] + [draw(st.lists(SMALL, max_size=3)) for _ in range(m - 1)]
    col[-1].append(F(draw(st.integers(1, 5))))  # keep the column nonzero
    rest = condition_values(col, schema, terms)
    j = draw(st.integers(0, len(rest)))
    if schema.series:
        col[0] = [-v for v in rest[:j]]
        while col[0] and not col[0][-1]:
            col[0].pop()
    else:
        col[0] = _interpolate([-v for v in rest[:j]])
    return schema, terms, col


@settings(deadline=None, derandomize=True, max_examples=150)
@given(_candidates())
def test_integer_check_matches_fraction_reference(case):
    schema, terms, col = case
    assert schema.monomials[0].parts == ()
    want = first_failure_reference(col, schema, terms)
    assert _exact_failure(col, schema, _TermImages(terms, schema.q)) == want


# ---------------------------------------------------------------------------
# the Q(q) check, by Kronecker substitution, agrees with RatPoly arithmetic


# (class, options, m): q-power points, mixed q with integer points,
# q-dilations, and one schema of degree 2 in f
Q_SCHEMAS = [
    ("rat", {}, 2),
    ("prec", {"max_shift": 1}, 3),
    ("prec", {"max_shift": 1, "max_mixed_degree": 1}, 4),
    ("pade", {}, 2),
    ("holo", {"max_derivative": 2}, 3),
    ("alg", {"max_power": 2}, 3),
]


@st.composite
def _ratpolys(draw):
    num = draw(st.lists(st.integers(-6, 6), max_size=3))
    den = draw(st.sampled_from([[1], [1], [1, 1], [-2, 1], [3, 0, 1], [2]]))
    return RatPoly.make(num, den)


@st.composite
def _q_candidates(draw):
    """A q schema, terms, and a column that satisfies its first j conditions."""
    klass, kw, m = draw(st.sampled_from(Q_SCHEMAS))
    schema = build_schema(klass, Options(**kw), m, q=True)
    n = draw(st.integers(schema.loss + 2, 7))
    terms = draw(st.lists(_ratpolys(), min_size=n, max_size=n))
    col = [[]] + [draw(st.lists(_ratpolys(), max_size=2)) for _ in range(m - 1)]
    col[-1].append(RatPoly.make([draw(st.integers(1, 5))], draw(st.sampled_from([[1], [1, 1]]))))
    col = [cs[: max((i + 1 for i, c in enumerate(cs) if c), default=0)] for cs in col]  # no trailing zeros
    rest = condition_values(col, schema, terms, QQ_T, QPARAM)
    j = draw(st.integers(0, len(rest)))
    if schema.series:
        col[0] = [-v for v in rest[:j]]
        while col[0] and not col[0][-1]:
            col[0].pop()
    elif schema.points_kind == "qpower":
        col[0] = _interpolate([-v for v in rest[:j]], [RatPoly.make([0] * i + [1]) for i in range(j)])
    else:
        col[0] = _interpolate([-v for v in rest[:j]])
    return schema, terms, col


@settings(deadline=None, derandomize=True, max_examples=120)
@given(_q_candidates())
def test_kronecker_check_matches_ratpoly_reference(case):
    schema, terms, col = case
    assert schema.q and schema.monomials[0].parts == ()
    want = first_failure_reference(col, schema, terms, QQ_T, QPARAM)
    assert _exact_failure(col, schema, _TermImages(terms, schema.q)) == want


def test_condition_vanishing_at_two_to_the_twenty_is_rejected():
    """The one nonzero condition 2^20 - q vanishes at q = 2^20; the bound
    on the column's norm picks a larger substitution."""
    schema = build_schema("pade", Options(), 2, q=True)  # 1, f(x)
    terms = [RatPoly.const(1)] * 4
    col = [[RatPoly.const(-1)] * 3 + [RatPoly.make([2**20 - 1, -1])], [RatPoly.const(1)]]
    want = first_failure_reference(col, schema, terms, QQ_T, QPARAM)
    assert want == (3, RatPoly.make([2**20, -1]))
    assert _exact_failure(col, schema, _TermImages(terms, schema.q)) == want
    assert filter_interpolating([col], schema, _TermImages(terms, True)) == []
