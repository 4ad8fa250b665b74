"""Inverted sum/product operator search wrapped around base guessers."""

import importlib
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqguess.errors import UsageError
from seqguess.guess import OperatorExpr, guess, guess_rat, guess_rec
from seqguess.render import result_to_json

guess_mod = importlib.import_module("seqguess.guess")


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


# ---------------------------------------------------------------------------
# planted operator expressions: a rational leaf under at most two levels

_POLY = st.lists(st.integers(-4, 4), min_size=1, max_size=2).filter(lambda c: c[-1])
_LEVEL = st.tuples(st.sampled_from(("sum", "product")), st.integers(-5, 5).filter(bool))
HELD_OUT = 3


def _planted_terms(num, den, levels, count):
    """f(n) for n < count: the leaf num(n)/den(n) under `levels`, innermost
    first, each (kind, base) meaning f(n) = base + sum_{k<n} g(k) or
    f(n) = base * prod_{k<n} g(k); None when a leaf or product value is 0
    or a denominator vanishes."""
    if any(sum(c * n**k for k, c in enumerate(den)) == 0 for n in range(count + len(levels))):
        return None
    g = [F(sum(c * n**k for k, c in enumerate(num)), sum(c * n**k for k, c in enumerate(den)))
         for n in range(count + len(levels))]
    for kind, base in levels:
        if kind == "product" and not all(g):
            return None
        f = [F(base)]
        for v in g[:-1]:
            f.append(f[-1] + v if kind == "sum" else f[-1] * v)
        g = f
    return g[:count]


@settings(deadline=None, derandomize=True, max_examples=100)
@given(_POLY, _POLY, st.lists(_LEVEL, max_size=2))
def test_planted_operator_expression_is_recovered(num, den, levels):
    """guess on the fitting terms returns an expression that reproduces
    the held-out terms too (evaluated by _eval_expr, not by render)."""
    fit = 2 * (len(num) + len(den)) + 2 + len(levels)
    terms = _planted_terms(num, den, levels, fit + HELD_OUT)
    assume(terms is not None)
    got = guess(terms[:fit], max_level=len(levels))
    assert got, "the planted expression was not recovered"
    assert [_eval_expr(got[0], n) for n in range(fit + HELD_OUT)] == terms


# ---------------------------------------------------------------------------
# residues carried down the tree against the exact path

P0 = 1_277_389_331  # the prime of every node's first image at seed 0


def _counted(monkeypatch, name):
    calls = []
    original = getattr(guess_mod, name)

    def counted(*args, **kw):
        calls.append(args)
        return original(*args, **kw)

    monkeypatch.setattr(guess_mod, name, counted)
    return calls


def _search_both_ways(terms, monkeypatch, classes=("rat",), **kw):
    """(results, guess_class calls) of the residue-carrying search, and of
    the exact one that callable guessers force (every node gets exact
    terms and each class builds its own store)."""
    exact = tuple(lambda t, o, k=k: guess_mod.guess_class(t, k, o) for k in classes)
    out = []
    for guessers in (classes, exact):
        with monkeypatch.context() as m:
            calls = _counted(m, "guess_class")
            out.append((guess(terms, guessers=guessers, **kw), len(calls)))
    return out


def _p0_cases():
    """Inputs where a residue mod P0 cannot stand in for the exact term."""
    yield [3, F(1, P0), 7, 2, 9, 4]  # a denominator P0: the root has no image mod P0
    yield [F(2, P0), F(5, P0), F(9, P0), F(14, P0), F(20, P0)]  # ... and its sum child does
    yield [4, 5, 5 + P0, 11, 3, 8]  # two terms congruent mod P0: a difference with residue 0
    yield [2, 3, P0, 6, 1, 5]  # a term 0 mod P0 under a product: a zero test and a divisor
    yield [P0 * k + 1 for k in (1, 2, 4, 8, 16, 32)]  # every quotient's residue is 1
    yield [F(P0 * (n + 1)) for n in range(6)]  # sum child's terms all P0: every residue 0
    yield [P0, 2 * P0, 6 * P0, 24 * P0, 120 * P0]  # product child P0 * n!/(n-1)! over residue-0 divisors


def _random_cases(rng):
    for size in (6, 7, 8):
        for _ in range(3):
            yield [F(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(size)]
    yield [0, 0] + [rng.randint(1, 9) for _ in range(5)]  # leading zeros stripped by a product


def _planted_cases(rng):
    for levels in ([("sum", 2)], [("product", 3)], [("sum", -1), ("product", 2)], [("product", 1), ("sum", 4)]):
        num, den = [rng.randint(1, 4), rng.randint(1, 3)], [rng.randint(1, 3)]
        yield _planted_terms(num, den, levels, 5 + 2 * len(levels))


def test_carried_residues_give_the_exact_paths_answers(monkeypatch):
    """Same first expression, text, JSON and guess_class count as the
    exact path, on random terms, planted trees and inputs built against
    the first prime."""
    rng = random.Random(26)
    cases = [*_p0_cases(), *_random_cases(rng), *_planted_cases(rng)]
    found = 0
    for terms in cases:
        (got, n_got), (want, n_want) = _search_both_ways(terms, monkeypatch)
        assert n_got == n_want, terms
        assert got == want, terms
        if got:
            found += 1
            assert str(got[0]) == str(want[0]) and result_to_json(got[0]) == result_to_json(want[0])
    assert found >= 6


@pytest.mark.parametrize("second", ["holo", "alg"])
def test_classes_of_one_node_keep_their_own_images(second, monkeypatch):
    """The classes of a node share its store, where rec's f(n+1) and
    holo's f' are both the atom of part 2, and rec's f(n)^2 and alg's
    Cauchy square both the product (1, 1).  On terms rec does not fit,
    the second class must still find its own answers."""
    cases = [
        [math.comb(2 * n, n) for n in range(8)],
        [math.comb(2 * n, n) // (n + 1) for n in range(8)],
        [F(n * n + 1, math.factorial(n)) for n in range(8)],
        list(itertools.accumulate(math.comb(2 * n, n) for n in range(8))),
        list(itertools.accumulate(F(1, math.factorial(n)) for n in range(8))),
    ]
    found = 0
    for terms in cases:
        assert guess_rec(terms) == [], terms
        (got, n_got), (want, n_want) = _search_both_ways(terms, monkeypatch, ("rec", second), max_level=2)
        assert n_got == n_want, terms
        assert got == want, terms
        if got:
            found += 1
            assert str(got[0]) == str(want[0]) and result_to_json(got[0]) == result_to_json(want[0])
    assert found >= 4


def test_residue_zero_mod_p0_reads_exact_terms(monkeypatch):
    """A residue 0 cannot decide a zero test or divide: the product branch
    reads exact terms there, and the quotient child clears its own."""
    clears = _counted(monkeypatch, "_clear")
    assert guess([2, 3, P0, 6, 1, 5], max_level=1) == []
    assert len(clears) == 2  # the root, and the quotient child past a divisor P0
    clears.clear()
    assert guess([2, 3, 5, 6, 1, 5], max_level=1) == []
    assert len(clears) == 1  # the root only


def test_random_tree_clears_only_the_root(monkeypatch):
    """10 random nonzero integers: 2^9 - 1 = 511 nodes, each with its own
    guess_class call, and one clearing of exact terms, the root's."""
    rng = random.Random(10)
    terms = [rng.choice((-1, 1)) * rng.randint(1, 50) for _ in range(10)]
    nodes, clears = _counted(monkeypatch, "guess_class"), _counted(monkeypatch, "_clear")
    assert guess(terms) == []
    assert len(nodes) == 511 and len(clears) == 1
