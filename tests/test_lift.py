"""Prime/point lifting: CRT absorption, reconstruction schedule, and
detection of structurally bad reductions."""

import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqguess import guess_prec, lift
from seqguess.errors import BadModulus, NoSolution
from seqguess.lift import (
    LiftOptions,
    LiftState,
    check_reduction,
    do_solve,
    reconstruction_due,
)
from oracles import QPARAM, QQ_T, first_failure_reference, gen_prec_terms, qpower_poly, reduce_scalar
from seqguess.modarith import sample_prime
from seqguess.models import OrderProblem
from seqguess.rings import RatPoly
from seqguess.sigma_normalize import ReductionRecord


def _seq_builder(values, bounds_hint=None):
    """Problem: find (c0, c1) with c0(j) + c1(j) * values[j] = 0."""

    def build(fp, t_point):
        stream = [reduce_scalar(v, fp) for v in values]
        return OrderProblem(
            streams=[[1] * len(values), stream],
            points=[j % fp.p for j in range(len(values))],
            sigma=len(values),
        )

    return build


def test_exact_scalar_solve():
    res = do_solve(_seq_builder([j * j for j in range(4)]), [3, 1], "rational", LiftOptions(seed=3))
    assert res.columns == [[[F(0), F(0), F(1)], [F(-1)]]]
    assert res.record.defects == (1, -1)
    kinds = [e[0] for e in res.state.events]
    assert "recon" in kinds and kinds[-1] == "validated"


def test_exact_rational_coefficients():
    values = [F(j, 2) + F(1, 3) for j in range(3)]
    res = do_solve(_seq_builder(values), [2, 1], "rational", LiftOptions(seed=5))
    # monic critical component: c0 = x + 2/3, c1 = -2
    assert res.columns == [[[F(2, 3), F(1)], [F(-2)]]]


def test_no_solution():
    with pytest.raises(NoSolution):
        do_solve(_seq_builder([j * j for j in range(4)]), [2, 1], "rational", LiftOptions(seed=1))


def test_no_solution_skips_normal_form(monkeypatch):
    def refuse(basis):
        raise AssertionError("an empty first image needs no normal form")

    monkeypatch.setattr(lift, "sigma_normalize", refuse)
    with pytest.raises(NoSolution):
        do_solve(_seq_builder([j * j for j in range(4)]), [2, 1], "rational", LiftOptions(seed=1))


def test_polyrational_solve():
    def build(fp, t_point):
        stream = [(t_point + j) % fp.p for j in range(3)]
        return OrderProblem(streams=[[1, 1, 1], stream], points=[0, 1, 2], sigma=3)

    res = do_solve(build, [2, 1], "polyrational", LiftOptions(seed=2))
    t = RatPoly.make([0, 1])
    assert res.columns == [[[t, RatPoly.const(1)], [RatPoly.const(-1)]]]
    kinds = [e[0] for e in res.state.events]
    assert "point_recon" in kinds


def test_large_coefficients_need_many_primes():
    K = 10**40
    values = [F(K * j * j + j) for j in range(5)]
    res = do_solve(_seq_builder(values), [3, 2], "rational", LiftOptions(seed=7))
    assert res.columns == [[[F(0), F(1, K), F(1)], [F(-1, K)]]]
    # at least ceil(80 digits / ~9.3 digits per prime) primes were needed
    recons = [e for e in res.state.events if e[0] == "recon"]
    assert len(recons) >= 2 and recons[-1][-1] is True
    assert any(e[:2] == ("recon", recons[-1][1]) for e in recons)


def test_skip_prime_on_bad_modulus():
    values = [F(1, 5) * j + 1 for j in range(3)]  # denominators die at p=5
    res = do_solve(_seq_builder(values), [2, 1], "rational", LiftOptions(seed=4, primes=[5]))
    events = res.state.events
    assert events[0] == ("skip_prime", 5)
    assert res.columns == [[[F(5), F(1)], [F(-5)]]]  # c0 = x + 5, c1 = -5


# ---------------------------------------------------------------------------
# bad-reduction detection

# f(n) = 5 n^2 + n: at p = 5 the quadratic collapses to a linear function,
# so the modular solution profile grows (defects (2, -2) instead of the
# true (1, -1) under the padded bounds (3, 2)).

BAD_PRIME = 5
TERMS = [F(5 * j * j + j) for j in range(5)]
GOOD_COLUMNS = [[[F(0), F(1, 5), F(1)], [F(-1, 5)]]]


def test_bad_prime_first_is_rejected_once_outvoted():
    res = do_solve(_seq_builder(TERMS), [3, 2], "rational", LiftOptions(seed=1, primes=[BAD_PRIME]))
    kinds = [e[0] for e in res.state.events]
    # the bad prime reconstructs plausibly, then a good prime exposes it
    assert kinds[0] == "recon"
    assert "all_bad" in kinds
    assert kinds.index("all_bad") < kinds.index("validated")
    assert res.columns == GOOD_COLUMNS
    assert res.record.defects == (1, -1)


def test_bad_prime_later_is_discarded():
    res = do_solve(
        _seq_builder(TERMS), [3, 2], "rational", LiftOptions(seed=1, primes=[1000003, BAD_PRIME])
    )
    assert ("bad_prime", BAD_PRIME) in res.state.events
    assert "all_bad" not in [e[0] for e in res.state.events]
    assert res.columns == GOOD_COLUMNS


def test_incompatible_first_image_is_outvoted_promptly():
    """A first image whose record is incompatible with every later one is
    dropped once the bad images outnumber it, not after max_primes solves."""
    calls = []

    def build(fp, t_point):
        calls.append(fp.p)
        streams = [[2, 2], [0, 0]] if len(calls) == 1 else [[-3, 3], [-2, 2]]
        return OrderProblem(
            streams=[[v % fp.p for v in s] for s in streams], points=[0, 1], sigma=2
        )

    res = do_solve(build, [2, 2], "rational", LiftOptions(seed=1))
    assert res.columns == [[[F(1)], [F(-3, 2)]]]
    assert "all_bad" in [e[0] for e in res.state.events]
    assert len(calls) <= 8


def test_incompatible_first_point_is_outvoted_promptly():
    """The same first image over Q(t): the point level adopts the image the
    bad points agree on, as the prime level does, and the solve goes on."""
    calls = []

    def build(fp, t_point):
        calls.append((fp.p, t_point))
        streams = [[2, 2], [0, 0]] if len(calls) == 1 else [[-3, 3], [-2, 2]]
        return OrderProblem(
            streams=[[v % fp.p for v in s] for s in streams], points=[0, 1], sigma=2
        )

    res = do_solve(build, [2, 2], "polyrational", LiftOptions(seed=1))
    assert res.columns == [[[RatPoly.const(1)], [RatPoly.const(F(-3, 2))]]]
    assert "all_bad_points" in [e[0] for e in res.state.events]
    assert len(calls) <= 8


def test_check_reduction_verdicts():
    good = ReductionRecord((1, -1), (0, 1), (2, 3))
    bad = ReductionRecord((2, -2), (0, 1), (1, 4))
    state = LiftState()
    assert check_reduction(good, state) == "good"  # first record
    state.record, state.shape = good, ()
    assert check_reduction(good, state) == "good"
    assert check_reduction(good, state, new_shape=(1,)) == "bad"  # same record, new shape
    assert check_reduction(bad, state) == "bad"
    state.record = bad
    assert check_reduction(good, state) == "all_bad"


def test_reconstruction_schedule():
    st = LiftState(level="prime")
    due = [c for c in range(0, lift.MAX_PRIMES + 1) if not setattr(st, "good_count", c) and reconstruction_due(st)]
    assert due[:16] == list(range(1, 17))
    # bounded overshoot: after a due count c the next one comes by ceil(9c/8)
    assert all(b <= -(-9 * a // 8) for a, b in zip(due, due[1:]))
    assert due[16:30] == [18, 21, 24, 27, 31, 35, 40, 45, 51, 58, 66, 75, 85, 96]
    assert len(due) <= 70
    st = LiftState(level="point")
    due = [c for c in range(0, 50) if not setattr(st, "good_count", c) and reconstruction_due(st)]
    assert due == [1, 4, 9, 16, 25, 36, 49]


# ---------------------------------------------------------------------------
# shared prime list


def _fresh_primes(seed, count, bits=31):
    rng = random.Random(seed)
    used = set()
    for _ in range(count):
        used.add(p := sample_prime(bits, exclude=used, rng=rng))
        yield p


def test_prime_list_matches_fresh_sampling():
    for seed in (0, 7):
        assert [lift._nth_field(seed, 31, i).p for i in range(300)] == list(_fresh_primes(seed, 300))


def test_forced_primes_bypass_prime_list(monkeypatch):
    def refuse(*args):
        raise AssertionError("forced primes must not touch the shared list")

    monkeypatch.setattr(lift, "_nth_field", refuse)
    forced = [1000003, 1000033, 1000037]
    res = do_solve(_seq_builder([j * j for j in range(4)]), [3, 1], "rational", LiftOptions(seed=3, primes=forced))
    assert res.columns == [[[F(0), F(0), F(1)], [F(-1)]]]
    assert [e[1] for e in res.state.events] == forced[:2]


def test_prime_list_is_thread_safe():
    seed, count = 424242, 150
    start = threading.Barrier(2)
    seen = [None, None]

    def read(slot):
        start.wait()
        seen[slot] = [lift._nth_field(seed, 31, i).p for i in range(count)]

    threads = [threading.Thread(target=read, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert seen[0] == seen[1] == list(_fresh_primes(seed, count))


def test_q_mode_solves_at_the_shared_primes_in_order():
    """A polyrational solve takes its primes from the shared list, in order;
    its rng draws only the evaluation points."""
    seed, seen = 9, []

    def build(fp, t_point):
        if fp.p not in seen:
            seen.append(fp.p)
        stream = [(t_point + j) % fp.p for j in range(3)]
        return OrderProblem(streams=[[1, 1, 1], stream], points=[0, 1, 2], sigma=3)

    do_solve(build, [2, 1], "polyrational", LiftOptions(seed=seed))
    assert len(seen) >= 2
    assert seen == [lift._nth_field(seed, 31, i).p for i in range(len(seen))]


def test_reduce_flat_clears_once_and_flags_exactly_the_dividing_primes():
    rng = random.Random(11)
    for p in (2, 3, 7, 10007, 2**31 - 1):
        fp = lift.ModPrime(p)
        for _ in range(200):
            values = [F(rng.randint(-10**12, 10**12), rng.choice((1, 2, 3, 7, 14, 21, 10007, 2**31 - 1)))
                      for _ in range(rng.randint(1, 6))]
            if any(v.denominator % p == 0 for v in values):
                with pytest.raises(BadModulus):
                    lift._reduce_flat(values, fp)
            else:
                assert lift._reduce_flat(values, fp) == [reduce_scalar(v, fp) for v in values]


# ---------------------------------------------------------------------------
# planted big-coefficient recurrences, under the schedule and at every prime

# (order, degree, digits, terms fitted, seed): solves that end after 8, 15,
# 23, 28 and 67 good primes when every prime is followed by an attempt
BIG_PLANTED = [(2, 1, 30, 12, 1), (2, 2, 60, 16, 2), (2, 1, 100, 12, 3), (3, 2, 120, 24, 4), (2, 2, 300, 16, 5)]
HELD_OUT = 6


def _guess_planted(case, monkeypatch, every_prime):
    """Rendered results of guess_prec on the fitted terms, the first result,
    and the good primes of each successful do_solve (from its events)."""
    order, deg, digits, fit, seed = case
    terms, _ = gen_prec_terms(order, deg, fit + HELD_OUT, seed, digits)
    guess_module = sys.modules["seqguess.guess"]
    solve, goods = guess_module.do_solve, []

    def recording_solve(*args, **kwargs):
        res = solve(*args, **kwargs)
        goods.append(max(e[2] for e in res.state.events if e[0] == "recon") + 1)  # + the confirming prime
        return res

    monkeypatch.setattr(guess_module, "do_solve", recording_solve)
    if every_prime:
        monkeypatch.setattr(lift, "reconstruction_due", lambda st: st.good_count >= 1)
    results = guess_prec(terms[:fit], homogeneous=1, max_shift=order, max_degree=deg)
    monkeypatch.undo()
    return [str(r) for r in results], results[0] if results else None, goods, terms


@pytest.mark.parametrize("case", BIG_PLANTED)
def test_schedule_overshoot_is_bounded(case, monkeypatch):
    texts, _, goods, _ = _guess_planted(case, monkeypatch, every_prime=False)
    every_texts, _, every_goods, _ = _guess_planted(case, monkeypatch, every_prime=True)
    assert texts and texts == every_texts
    assert len(goods) == len(every_goods)
    for c_new, c in zip(goods, every_goods):
        assert c <= c_new <= c + -(-c // 8) + 1


@pytest.mark.parametrize("case", BIG_PLANTED)
def test_planted_big_coefficients_are_recovered(case, monkeypatch):
    order = case[0]
    _, first, _, terms = _guess_planted(case, monkeypatch, every_prime=False)
    assert first is not None
    assert max(max(mo.parts) - 1 for mo, c in zip(first.schema.monomials, first.coeffs) if c) <= order
    # the held-out terms are annihilated too, judged by the reference arithmetic
    assert first_failure_reference(first.coeffs, first.schema, terms) is None


# ---------------------------------------------------------------------------
# a planted q-recurrence, lifted through the point level on the order-basis path

_QCOEFF = st.lists(st.integers(-3, 3), min_size=1, max_size=2)  # a small polynomial in q


@settings(deadline=None, derandomize=True, max_examples=12)
@given(st.lists(_QCOEFF, min_size=1, max_size=3).filter(lambda a: any(a[-1])), st.sampled_from((1, -1, 2, -3)))
def test_planted_q_recurrence_is_recovered(a, b):
    """b f(n+1) = a(q^n) f(n), f(0) = 1, with a in Z[q][X] and b constant;
    the first result must annihilate the held-out terms too."""
    fit, held_out = 2 * (len(a) + 1) + 2, 4
    assume(all(any(qpower_poly(a, n)) for n in range(fit + held_out)))
    terms = [RatPoly.const(1)]
    for n in range(fit + held_out - 1):
        terms.append(terms[-1] * RatPoly.make(qpower_poly(a, n)) / b)
    results = guess_prec(terms[:fit], q=True, homogeneous=1, max_shift=1)
    assert results, "the planted recurrence was not recovered"
    first = results[0]
    assert sum(len(c) for c in first.coeffs) <= 1 + len(a)
    assert first_failure_reference(first.coeffs, first.schema, terms, QQ_T, QPARAM) is None
