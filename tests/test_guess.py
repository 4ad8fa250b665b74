"""End-to-end guessing: golden examples, ranking, verification modes."""

import importlib
import math
import random
import threading
from dataclasses import replace
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

import seqguess
from corpus import _Q_BINOMIAL, _Q_FACTORIAL, _Q_INTS
from oracles import gen_prec_terms
from seqguess import models
from seqguess.modarith import ModPrime
from seqguess.errors import UsageError
from seqguess.guess import (
    Options,
    _TermImages,
    check_deterministic,
    check_monte_carlo,
    enumerate_degree_vectors,
    filter_interpolating,
    guess,
    guess_ade,
    guess_alg,
    guess_class,
    guess_fe,
    guess_holo,
    guess_pade,
    guess_prec,
    guess_rat,
    guess_rec,
    _budget,
)
from seqguess.models import build_schema
from seqguess.rings import RatPoly


def one(results):
    assert results, "expected a guess"
    return str(results[0])


# ---------------------------------------------------------------------------
# golden examples


def test_rat_square():
    assert one(guess_rat([0, 1, 4, 9])) == "[f(n): f(n) = n^2]"


def test_rat_negative_and_reciprocal():
    assert one(guess_rat([0, -1, -4, -9])) == "[f(n): f(n) = -n^2]"
    terms = [F(1, k + 1) for k in range(5)]
    assert one(guess_rat(terms)) == "[f(n): f(n) = 1/(n + 1)]"


def test_rat_shifted_square():
    # b-file style input starting at index 5; equations index from 0
    assert one(guess_rat([25, 36, 49, 64])) == "[f(n): f(n) = n^2 + 10n + 25]"


def test_pade_fibonacci():
    assert one(guess_pade([1, 1, 2, 3, 5])) == "[[x^n]f(x): (x^2 + x - 1)f(x) + 1 = 0]"


def test_pade_trailing_zero_generating_polynomial():
    # the final 0 forces the polynomial answer; [1,2,3] alone has no guess
    assert guess_pade([1, 2, 3]) == []
    assert one(guess_pade([1, 2, 3, 0])) == "[[x^n]f(x): f(x) = 3x^2 + 2x + 1]"


def test_alg_catalan():
    got = one(guess_alg([1, 1, 2, 5, 14, 42]))
    assert got == "[[x^n]f(x): xf(x)^2 - f(x) + 1 = 0, f(0)= 1]"


def test_rec_quadratic():
    got = one(guess_rec([1, 1, 0, 1, -1, 2, -1, 5, -4, 29, -13, 854, -685]))
    assert got == "[f(n): f(n+2) + f(n+1) - f(n)^2 = 0, f(0)= 1, f(1)= 1]"


def test_rec_idempotent_data_degenerate_equation():
    # 0/1 data satisfies f^2 = f; the equation-form output is legitimate
    got = one(guess_rec([1, 1, 0, 1, 0, 0, 1, 0, 1, 1]))
    assert got == "[f(n): f(n)^2 - f(n) = 0]"


def test_rec_somos4():
    somos = [1, 1, 1, 1, 2, 3, 7, 23, 59, 314, 1529, 8209, 83313]
    want = ("[f(n): f(n+4)f(n) - f(n+3)f(n+1) - f(n+2)^2 = 0, "
            "f(0)= 1, f(1)= 1, f(2)= 1, f(3)= 1]")
    assert one(guess_rec(somos, somos=4, max_shift=4)) == want
    assert one(guess_rec(somos, somos=True, max_shift=4, max_power=2)) == want


def test_prec_sine_like():
    terms = [F(0), F(1)]
    while len(terms) < 14:
        terms.append(0 if len(terms) % 2 == 0 else -terms[-2] / (len(terms) * (len(terms) - 1)))
    got = one(guess_prec(terms))
    assert got == "[f(n): (n^2 + 3n + 2)f(n+2) + f(n) = 0, f(0)= 0, f(1)= 1]"


def test_holo_sine():
    terms = [F(0), F(1), F(0), F(-1, 6), F(0), F(1, 120)]
    assert one(guess_holo(terms)) == "[[x^n]f(x): f''(x) + f(x) = 0, f(0)= 0, f'(0)= 1]"


def test_fe_mahler():
    terms = [0, 1, 1, 1, 2, 3, 6, 11, 23]
    want9 = ("[[x^n]f(x): f(x^2) + f(x)^2 - 2f(x) + 2x = 0, "
             "f(x) = x + x^2 + x^3 + 2x^4 + O(x^5)]")
    want6 = ("[[x^n]f(x): f(x^2) + f(x)^2 - 2f(x) + 2x = 0, "
             "f(x) = x + x^2 + x^3 + O(x^4)]")
    assert one(guess_fe(terms)) == want9
    assert one(guess_fe(terms[:6])) == want6


def test_ade_tree_like():
    terms = [F(1), F(1), F(2), F(9, 2), F(32, 3), F(625, 24), F(324, 5),
             F(117649, 720), F(131072, 315), F(4782969, 4480)]
    assert one(guess_ade(terms)) == "[[x^n]f(x): xf'(x) - f(x)^3 + f(x)^2 = 0, f(0)= 1]"


def test_ade_bell_egf_needs_thirteen_terms():
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]
    egf = [F(b, math.factorial(k)) for k, b in enumerate(bell)]
    want = "[[x^n]f(x): f''(x)f(x) - f'(x)^2 - f'(x)f(x) = 0, f(0)= 1, f'(0)= 1]"
    assert one(guess_ade(egf)) == want
    assert guess_ade(egf[:12]) == []


def test_q_binomial_closed_form():
    one_ = RatPoly.const(1)
    q = RatPoly.make([0, 1])
    terms = [one_, RatPoly.make([1, 1, 1]),
             RatPoly.make([1, 1, 1]) * RatPoly.make([1, 0, 1]),
             RatPoly.make([1, 0, 1]) * RatPoly.make([1, 1, 1, 1, 1])]
    got = one(guess_rat(terms, q=True))
    assert got == "[f(n): f(n) = (q^3q^(2n) + (-q^2 - q)q^n + 1)/(q^3 - q^2 - q + 1)]"


def test_q_factorial_mixed_recurrence():
    terms = [RatPoly.make([0] * (n * (n - 1)) + [math.factorial(n)]) for n in range(8)]
    got = one(guess_prec(terms, q=True, max_mixed_degree=2, homogeneous=True))
    assert got == "[f(n): f(n+1) + (-n - 1)q^(2n)f(n) = 0, f(0)= 1]"


def test_q_mode_on_constant_data_matches_plain():
    plain = one(guess_rat([5, 5, 5, 5]))
    qform = one(guess_rat([RatPoly.const(5)] * 4, q=True))
    assert plain == qform == "[f(n): f(n) = 5]"


# ---------------------------------------------------------------------------
# search mechanics


def test_enumerate_degree_vectors():
    assert enumerate_degree_vectors(4, 2, 4, True) == [(2, 2), (1, 3), (3, 1)]
    assert enumerate_degree_vectors(7, 3, 7, False) == [(3, 2, 2)]
    assert enumerate_degree_vectors(2, 3, 4, False) == []  # total < m
    assert enumerate_degree_vectors(9, 2, 4, True) == []  # total > m*cap
    assert enumerate_degree_vectors(4, 2, 2, True) == [(2, 2)]


def test_budget():
    assert _budget([[1], [1, 2, 3]], 2, True) == 4
    assert _budget([[1], [1, 2, 3]], 2, False) == 6  # balanced (3, 3)
    assert _budget([[], [1]], 2, True) == 2  # unused monomial still costs one
    assert _budget([[], [1]], 2, False) == 2
    assert _budget([[5, 5], [7]], 2, False) == 3  # balanced (2, 1) dominates
    assert _budget([[5], [7, 7]], 2, False) == 4  # (2, 1) misses; (2, 2) fits


def test_budget_ranking_prefers_smaller_description():
    # the quartic-times-f annihilator exists at m=2 but costs budget 10;
    # the idempotent equation at m=3 costs 3 and must win the scan
    results = guess_rec([1, 1, 0, 1, 0, 0, 1, 0, 1, 1], one=False)
    assert str(results[0]) == "[f(n): f(n)^2 - f(n) = 0]"
    budgets = [sum(max(len(c), 1) for c in r.coeffs) for r in results]
    assert budgets[0] == min(budgets)


def test_all_results_mode():
    results = guess_rat([5, 5, 5], one=False)
    assert len(results) == 2  # both splits of three unknowns find it
    assert {str(r) for r in results} == {"[f(n): f(n) = 5]"}


def test_safety_holds_back_conditions():
    assert guess_rat([0, 1, 4, 9], safety=2) == []
    assert one(guess_rat([0, 1, 4, 9, 16], safety=2)) == "[f(n): f(n) = n^2]"


def test_unknown_class():
    with pytest.raises(ValueError):
        guess_class([1, 2, 3], "spam")


def test_coercion_and_validation():
    with pytest.raises(ValueError):
        guess_rat([1])  # too short
    with pytest.raises(ValueError):
        guess_rat([RatPoly.const(1), RatPoly.const(2)])  # RatPoly needs q=True
    with pytest.raises(ValueError):
        guess_rat([1, 2, 3, 4], safety=-1)
    with pytest.raises(ValueError):
        guess_rat([1, 2, 3, 4], check="sometimes")


@pytest.mark.parametrize("call", [
    lambda: guess_rat([1]),
    lambda: guess_rat([RatPoly.const(1), RatPoly.const(2)]),
    lambda: guess_rat([1, 2, 3, 4], safety=-1),
    lambda: guess_rat([1, 2, 3, 4], check="sometimes"),
    lambda: guess_rat([1, 2, 3, 4], max_mixed_degree=-1),
    lambda: guess_rec([1, 2, 3, 4], somos=2, homogeneous=True),
    lambda: guess_rec([1, 2, 3, 4], homogeneous=-1),
    lambda: guess_rec([1, 2, 3, 4], somos=True),
    lambda: guess_rec([1, 2, 3, 4], somos=True, max_shift=2),
    lambda: guess_class([1, 2, 3], "spam"),
    lambda: guess([1, 2, 3], guessers=("spam",)),
    lambda: guess([1, 2, 3], operators=("minimum",)),
    lambda: guess([RatPoly.const(1), RatPoly.const(2), RatPoly.const(4)]),
])
def test_input_errors_are_usage_errors(call):
    with pytest.raises(UsageError):
        call()


def _within(call, seconds=30):
    """Run call in a daemon thread; fail instead of hanging when it never returns."""
    out = {}

    def run():
        try:
            out["value"] = call()
        except Exception as e:  # noqa: BLE001 - handed back to the test
            out["error"] = e

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), "call did not return"
    return out


FIB = [1, 2, 3, 5, 8, 13, 21, 34]


@pytest.mark.parametrize("cap, klass", [
    ("max_shift", "rec"), ("max_power", "rec"), ("max_level", "fe"),
    ("max_derivative", "holo"), ("max_degree", "rat"), ("max_level", None),
])
def test_negative_caps_are_usage_errors(cap, klass):
    for value in (-1, -2):
        if klass is None:  # the operator search's own depth cap
            out = _within(lambda: guess(FIB, **{cap: value}))
        else:
            out = _within(lambda: guess_class(FIB, klass, **{cap: value}))
        assert isinstance(out.get("error"), UsageError), out
        assert cap in str(out["error"])


@pytest.mark.parametrize("klass, kw", [
    ("rec", {"max_power": 0}), ("fe", {"max_level": 0}), ("fe", {"max_power": 0}),
    ("rec", {"homogeneous": 0}),
])
def test_zero_caps_leave_only_the_constant_and_return(klass, kw):
    # only the empty product passes such a filter, so no schema has two monomials
    assert _within(lambda: guess_class(FIB, klass, **kw)) == {"value": []}


def test_filter_interpolating_recovers_pairwise_combination():
    schema = build_schema("rat", Options(), 2)
    terms = [F(j * j) for j in range(6)]
    true = [[F(0), F(0), F(-1)], [F(1)]]
    bad1 = [[F(1), F(0), F(-1)], [F(1)]]  # fails at n=0 with residual 1
    bad2 = [[F(2), F(0), F(-1)], [F(1)]]  # fails at n=0 with residual 2
    kept = filter_interpolating([bad1, bad2], schema, _TermImages(terms, False))
    assert len(kept) == 1
    c0, c1 = kept[0]
    assert c1 and [v / c1[0] for v in c0] == [0, 0, -1]


def test_filter_interpolating_drops_unfixable():
    schema = build_schema("rat", Options(), 2)
    terms = [F(j * j) for j in range(6)]
    bad1 = [[F(1), F(0), F(-1)], [F(1)]]  # first fails at n=0
    bad2 = [[F(0), F(1), F(-1)], [F(1)]]  # first fails at n=1
    store = _TermImages(terms, False)
    assert filter_interpolating([bad1], schema, store) == []
    # different first-failure indices: no pairwise rescue applies
    assert filter_interpolating([bad1, bad2], schema, store) == []


def test_check_extra_values_false_skips_the_filter(monkeypatch):
    """An unchecked search without extra values keeps a lifted column that
    the filter would drop."""
    terms = [j * j for j in range(6)]
    bad1 = [[F(1), F(0), F(-1)], [F(1)]]  # fails at n=0
    guess_mod = importlib.import_module("seqguess.guess")
    monkeypatch.setattr(guess_mod, "do_solve", lambda *args: SimpleNamespace(columns=[bad1]))
    assert [r.coeffs for r in guess_class(terms, "rat", check="none", check_extra_values=False)] == [bad1]
    assert guess_class(terms, "rat", check="none") == []


def test_check_deterministic_distinguishes_extensions():
    catalan = [1, 1, 2, 5, 14, 42]
    res = guess_alg(catalan)[0]
    assert check_deterministic(res, catalan + [132, 429, 1430])
    assert not check_deterministic(res, catalan + [132, 429, 1431])


def test_check_monte_carlo_modes():
    catalan = [1, 1, 2, 5, 14, 42]
    res = guess_alg(catalan)[0]
    assert check_monte_carlo(res, catalan + [132, 429, 1430], trials=2, seed=5)
    assert not check_monte_carlo(res, catalan + [132, 429, 1431], trials=2, seed=5)
    got = guess_alg(catalan, check="montecarlo")
    assert got and got[0].checked == "montecarlo"
    got = guess_alg(catalan, check="none")
    assert got and got[0].checked == "unchecked"


def test_check_monte_carlo_reads_no_prime_of_the_lift():
    """Fibonacci with f(n)'s coefficient raised by P, the product of the
    first three primes of the lift's seed-0 list: every image at those
    primes is the true one, so a spot check there passes a wrong equation.
    The spot check draws its primes apart from the lift's and refutes it,
    as it refutes a raise by 7."""
    lift = importlib.import_module("seqguess.lift")
    fib = [0, 1]
    while len(fib) < 22:
        fib.append(fib[-1] + fib[-2])
    res = guess_prec(fib)[0]
    assert res.coeffs == [[], [1], [1], [-1]]
    P = math.prod(lift._nth_field(0, lift.PRIME_BITS, i).p for i in range(3))
    for d in (P, 7):
        wrong = replace(res, coeffs=[[], [1 + d], [1], [-1]])
        assert not check_deterministic(wrong, fib)
        assert not check_monte_carlo(wrong, fib)


@pytest.mark.parametrize("klass, terms, kw", [
    ("rat", _Q_BINOMIAL, {}),
    ("prec", _Q_FACTORIAL, {"max_mixed_degree": 2, "homogeneous": True}),
    ("pade", _Q_INTS, {}),
], ids=["rat", "prec-mixed", "pade"])
def test_check_monte_carlo_in_q_mode(klass, terms, kw):
    """Monte Carlo at random primes and q points accepts a planted q-mode
    result on its terms, refutes it once the last term alone changes, and
    agrees with the exact check on both."""
    res = guess_class(terms, klass, q=True, **kw)[0]
    changed = terms[:-1] + [terms[-1] + 1]
    for data, want in ((terms, True), (changed, False)):
        assert check_deterministic(res, data) is want
        assert check_monte_carlo(res, data) is want


def test_custom_names():
    got = one(guess_rat([0, 1, 4, 9], function_name="a", index_name="k"))
    assert got == "[a(k): a(k) = k^2]"


def test_prec_roundtrip_random_instances():
    rng = random.Random(2024)
    for trial in range(12):
        order = rng.randint(1, 3)
        deg = rng.randint(0, 3)
        count = (order + 1) * (deg + 1) + order + rng.randint(0, 2)
        terms, _ = gen_prec_terms(order, deg, count + 30, seed=1000 + trial)
        res = guess_prec(terms[:count], homogeneous=1, max_shift=order, max_degree=deg)
        assert res, (order, deg, count)
        assert check_deterministic(res[0], terms)


# ---------------------------------------------------------------------------
# one term store per search


def _alg_cubic_search(workloads):
    """The `alg cubic` call of the series_verify benchmark workload, seed 1."""
    (case,) = [c for c in workloads.build("series_verify", 1, seqguess) if c.label == "alg cubic"]
    return case.run


def _prec_order_5_search(workloads):
    """A planted search of the order-5 seq_kernel shape."""
    terms, _ = gen_prec_terms(5, 10, 71, seed=5)
    return lambda: guess_prec(terms, homogeneous=1, max_shift=5, max_degree=10)


@pytest.mark.parametrize("search,products", [(_prec_order_5_search, 0), (_alg_cubic_search, 19)])
def test_one_search_reduces_and_multiplies_once_per_key(search, products, monkeypatch, bench_workloads):
    """Every schema size and degree vector of one search reads the same
    residues, atoms and products: one residue computation per (prime,
    point), one atom per (prime, point, part) and one product per (prime,
    point, prefix) that some build needs."""
    run = search(bench_workloads)
    guess_mod = importlib.import_module("seqguess.guess")
    residues, atoms, made = [], [], [0]
    keys, want_atoms, want_products = set(), set(), set()
    residues_of, atom_stream, pmul_trunc, build_images = (
        guess_mod._TermImages._residues, models._atom_stream, models.pmul_trunc, guess_mod.build_images)

    def count_residues(self, fp, point):
        residues.append((fp.p, point))
        return residues_of(self, fp, point)

    def count_atoms(part, tag, terms, top, F, qpowers):
        if isinstance(F, ModPrime):
            atoms.append((F.p, part))
        return atom_stream(part, tag, terms, top, F, qpowers)

    def count_products(a, b, order, F):
        made[0] += isinstance(F, ModPrime)
        return pmul_trunc(a, b, order, F)

    def note_build(terms, schema, F, q_point=None, **kw):
        keys.add((F.p, q_point))
        want_atoms.update((F.p, part) for mo in schema.monomials for part in mo.parts)
        want_products.update((F.p, q_point, s) for s in models.cauchy_plan([mo.parts for mo in schema.monomials]))
        return build_images(terms, schema, F, q_point=q_point, **kw)

    monkeypatch.setattr(guess_mod._TermImages, "_residues", count_residues)
    monkeypatch.setattr(models, "_atom_stream", count_atoms)
    monkeypatch.setattr(models, "pmul_trunc", count_products)
    monkeypatch.setattr(guess_mod, "build_images", note_build)
    assert run()
    assert len(residues) == len(set(residues)) and keys <= set(residues)
    assert sorted(atoms) == sorted(want_atoms)
    assert made[0] == len(want_products) == products
