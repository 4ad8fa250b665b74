"""Inverted sum/product operator search wrapped around base guessers."""

from fractions import Fraction as F

import pytest

from seqguess.errors import UsageError
from seqguess.guess import OperatorExpr, guess, guess_rat


def one(results):
    assert results, "expected a guess"
    return str(results[0])


def _eval_expr(expr, n):
    """Direct semantics of an operator tree, for cross-checking renders."""
    if expr.kind == "leaf":
        coeffs = expr.child.coeffs
        num = sum(-c * F(n) ** k for k, c in enumerate(coeffs[0]))
        den = sum(c * F(n) ** k for k, c in enumerate(coeffs[1]))
        return num / den
    if expr.kind == "sum":
        return expr.base + sum(_eval_expr(expr.child, k) for k in range(n))
    if n < expr.offset:
        return F(0)
    out = F(expr.base)
    for k in range(n - expr.offset):
        out *= _eval_expr(expr.child, k)
    return out


def test_sum_of_products_factorial_like():
    # partial sums of (k+1)!
    terms = [0, 1, 3, 9, 33]
    got = guess(terms)
    assert str(got[0]) == "[f(n): f(n) = sum_{s=0}^{n-1} prod_{p=0}^{s-1} (p + 2)]"
    assert [_eval_expr(got[0], n) for n in range(5)] == terms


def test_double_product():
    # product formula data with doubly nested quotients
    terms = [1, 1, 2, 7, 42, 429, 7436, 218348]
    got = guess(terms, operators=("product",))
    want = ("[f(n): f(n) = prod_{p=0}^{n-1} prod_{q=0}^{p-1} "
            "((27q^2 + 54q + 24)/(16q^2 + 32q + 12))]")
    assert str(got[0]) == want
    assert [_eval_expr(got[0], n) for n in range(8)] == terms


def test_product_with_stripped_leading_zeros():
    terms = [0, 1, 2, 6, 24, 120]
    got = guess(terms, operators=("product",))
    assert str(got[0]) == "[f(n): f(n) = prod_{p=0}^{n-2} (p + 2) [first 1 terms 0]]"
    assert got[0].offset == 1 and got[0].base == 1
    assert [_eval_expr(got[0], n) for n in range(6)] == terms


def test_nested_bases_are_parenthesized():
    terms = [3, 4, 6, 10, 18, 34]  # 2^n + 2
    got = guess(terms)
    want = ("[f(n): f(n) = 3 + sum_{s=0}^{n-1} (1 + sum_{t=0}^{s-1} "
            "(1 + sum_{u=0}^{t-1} prod_{p=0}^{u-1} (2)))]")
    assert str(got[0]) == want
    assert [_eval_expr(got[0], n) for n in range(6)] == terms


def test_plain_leaf_answer_bypasses_operators():
    got = guess([5, 5, 5])
    assert got[0].kind == "leaf"
    assert str(got[0]) == "[f(n): f(n) = 5]"


def test_max_level_limits_depth():
    assert guess([0, 1, 3, 9, 33], max_level=1) == []
    assert guess([0, 1, 3, 9, 33], max_level=2)


def test_operator_results_are_expressions():
    got = guess([0, 1, 3, 9, 33])
    assert isinstance(got[0], OperatorExpr)
    assert got[0].kind == "sum" and got[0].child.kind == "product"
    assert got[0].child.child.kind == "leaf"


def test_too_short_for_operators():
    # two terms allow a leaf but no difference/quotient recursion
    assert guess([4, 4]) and guess([4, 4])[0].kind == "leaf"
    assert guess([1, 2]) == []


def test_q_terms_rejected():
    from seqguess.rings import RatPoly

    with pytest.raises(ValueError):
        guess([RatPoly.const(1), RatPoly.const(2), RatPoly.const(4)])


def test_empty_guesser_list_is_usage_error():
    # with no base guesser the search could only walk the whole operator tree
    with pytest.raises(UsageError, match="at least one base guesser"):
        guess(list(range(1, 31)), guessers=())
