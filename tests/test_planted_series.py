"""Planted holonomic and algebraic series are recovered.

Hypothesis plants a linear ODE sum_k p_k(x) f^(k)(x) = 0 whose leading
coefficient p_r does not vanish at 0 (`holo`), or a quadratic fixed point
f = c + x Q(x, f) (`alg`), and makes the series terms from it: solving
forward for each next Taylor coefficient, or iterating the fixed point.
The guesser sees the fitting terms only.  Its first result must
annihilate the held-out terms too, judged by tests/oracles (which shares
no code with guess), and have at most the planted order.
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import first_failure_reference
from seqguess import guess_alg, guess_holo

HELD_OUT = 4

_INT = st.integers(-4, 4)


def _check(results, terms, order, planted):
    """The first result annihilates every term and its monomials have at
    most the planted order."""
    assert results, "the planted equation was not recovered"
    first = results[0]
    assert max(order(mo) for mo, c in zip(first.schema.monomials, first.coeffs) if c) <= planted
    assert first_failure_reference(first.coeffs, first.schema, terms) is None


@st.composite
def _planted_ode(draw):
    """(order r, degree d, coefficient polynomials p_0..p_r, initial terms)
    with p_r(0) != 0."""
    r, d = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    p = draw(st.lists(st.lists(_INT, min_size=d + 1, max_size=d + 1), min_size=r + 1, max_size=r + 1))
    assume(p[r][0] != 0)
    return r, d, p, draw(st.lists(_INT, min_size=r, max_size=r))


def _ode_terms(p, initial, count):
    """Taylor coefficients a_n of the solution: the x^n coefficient of
    sum_k p_k f^(k) is sum_(k, e) p_k[e] a_(n-e+k) (n-e+k)!/(n-e)!, and its
    a_(n+r) term p_r[0] (n+r)!/n! is nonzero."""
    r, a = len(p) - 1, [Fraction(v) for v in initial]
    for n in range(count - r):
        rest = sum(pk[e] * a[n - e + k] * math.perm(n - e + k, k)
                   for k, pk in enumerate(p) for e in range(len(pk)) if e <= n and (k, e) != (r, 0))
        a.append(-rest / (p[r][0] * math.perm(n + r, r)))
    return a


@settings(deadline=None, derandomize=True, max_examples=60)
@given(_planted_ode())
def test_planted_linear_ode_is_recovered(planted):
    r, d, p, initial = planted
    fit = (r + 1) * (d + 1) + r + 2
    terms = _ode_terms(p, initial, fit + HELD_OUT)
    assume(any(terms[:fit]))
    results = guess_holo(terms[:fit], homogeneous=1, max_derivative=r, max_degree=d)
    _check(results, terms, lambda mo: max(mo.parts) - 1, r)  # f^(k) has the part k + 1


@st.composite
def _planted_fixed_point(draw):
    """(c, Q) of f = c + x Q(x, f), Q = Q_0 + Q_1 f + Q_2 f^2 with
    polynomial Q_k in x of degree 0 to 1."""
    c = draw(_INT.filter(bool))
    d = draw(st.integers(0, 1))
    return c, draw(st.lists(st.lists(_INT, min_size=d + 1, max_size=d + 1), min_size=3, max_size=3))


def _pmul(a, b, count):
    out = [0] * min(count, len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b[:count - i]):
            out[i + j] += u * v
    return out


def _fixed_point_terms(c, Q, count):
    """The first `count` coefficients of f: each iteration of
    f <- c + x Q(x, f) fixes one more."""
    f = [c]
    for _ in range(count):
        value, power = [0] * count, [1]
        for Qk in Q:
            for i, v in enumerate(_pmul(Qk, power, count)):
                value[i] += v
            power = _pmul(power, f, count)
        f = [c] + value[:count - 1]
    return [Fraction(v) for v in f]


@settings(deadline=None, derandomize=True, max_examples=60)
@given(_planted_fixed_point())
def test_planted_algebraic_series_is_recovered(planted):
    c, Q = planted
    degree = max((k for k, Qk in enumerate(Q) if any(Qk)), default=1)
    fit = 3 * (len(Q[0]) + 1) + 4
    terms = _fixed_point_terms(c, Q, fit + HELD_OUT)
    results = guess_alg(terms[:fit], max_power=2, max_degree=len(Q[0]))
    _check(results, terms, lambda mo: len(mo.parts), max(degree, 1))  # f^k has k parts
