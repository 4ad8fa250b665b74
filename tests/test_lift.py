"""Prime/point lifting: CRT absorption, reconstruction schedule, and
detection of structurally bad reductions."""

import gc
import itertools
import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import seqguess
from seqguess import guess_prec, lift
from seqguess.errors import BadModulus, NoSolution, ReconstructionAborted
from seqguess.lift import (
    LiftOptions,
    LiftState,
    check_reduction,
    do_solve,
    reconstruction_due,
)
from oracles import (QPARAM, QQ_T, first_failure_reference, gen_prec_terms, image_list, newton_interpolant, qpower_poly,
                     reduce_scalar)
from seqguess.modarith import ModPrime, sample_prime
from seqguess.models import OrderProblem
from seqguess.rings import RatPoly, peval
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

    return image_list(build)


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

    res = do_solve(image_list(build), [2, 1], "polyrational", LiftOptions(seed=2))
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


def test_prime_blind_to_the_candidate_keeps_both(monkeypatch):
    """The candidate that the first prime reconstructs has the denominator
    257; at the forced second prime 257 _reduce_flat cannot reduce it, so
    the lift keeps the candidate and absorbs the image, and a later prime
    validates the exact columns."""
    K = 10**40
    values = [F(K * j * j + j) for j in range(5)]
    blind = []
    reduce_flat = lift._reduce_flat

    def spy(vec, fp):
        try:
            return reduce_flat(vec, fp)
        except BadModulus:
            blind.append((fp.p, max(v.denominator for v in vec)))
            raise

    monkeypatch.setattr(lift, "_reduce_flat", spy)
    res = do_solve(_seq_builder(values), [3, 2], "rational", LiftOptions(seed=7, primes=[1000003, 257]))
    assert res.columns == [[[F(0), F(1, K), F(1)], [F(-1, K)]]]
    assert blind == [(257, 257)]
    assert res.state.events[:2] == [("recon", 1000003, 1, True), ("recon", 257, 2, False)]
    assert res.state.events[-1][0] == "validated" and res.state.events[-1][1] not in (1000003, 257)


def test_point_blind_to_the_candidate_keeps_it(monkeypatch):
    """At the first prime the four-point reconstruction of P(t) is planted
    as N(t)/(t - tau_5), tau_5 the fifth point drawn: P agrees with it at
    the first four points.  The fifth point cannot judge the candidate
    (_match_poly_candidate gives None), the sixth refutes it, and the lift
    still returns the planted column c0 = x + P(t), c1 = -1."""
    fp = ModPrime(10007)
    opts = LiftOptions(seed=3, primes=[fp.p])
    taus = list(itertools.islice(lift._points(random.Random(opts.seed), fp), 5))
    N = [3, 1, 2]
    assert peval(N, taus[4], fp)  # N/(t - tau_5) in lowest terms
    node, L = newton_interpolant(taus[:4], [fp.div(peval(N, x, fp), x - taus[4]) for x in taus[:4]], fp.p)
    P = [(a + b) % fp.p for a, b in zip(L + [0] * (5 - len(L)), node)]  # degree 4, equal to L at taus[:4]

    def build(fp, t_point):
        return OrderProblem(streams=[[1, 1, 1], [(peval(P, t_point, fp) + j) % fp.p for j in range(3)]],
                            points=[0, 1, 2], sigma=3)

    verdicts = []
    match = lift._match_poly_candidate

    def spy(cand, flat, tau, fp):
        verdicts.append((tau, match(cand, flat, tau, fp)))
        return verdicts[-1][1]

    monkeypatch.setattr(lift, "_match_poly_candidate", spy)
    res = do_solve(image_list(build), [2, 1], "polyrational", opts)
    assert res.columns == [[[RatPoly.make(P), RatPoly.const(1)], [RatPoly.const(-1)]]]
    assert (taus[4], None) in verdicts
    assert ("point_recon", fp.p, 4, True) in res.state.events


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

    res = do_solve(image_list(build), [2, 2], "rational", LiftOptions(seed=1))
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

    res = do_solve(image_list(build), [2, 2], "polyrational", LiftOptions(seed=1))
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

    do_solve(image_list(build), [2, 1], "polyrational", LiftOptions(seed=seed))
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


_PLANTED_HELD_OUT = 6


@st.composite
def _planted_prec(draw):
    """(order, degree, coefficient polynomials c_k, initial terms) of
    f(n + order) = -sum_k c_k(n) f(n + k), coefficients of 1 to 80 digits:
    past about 70 the solve runs past 16 primes, where the attempts space out."""
    order, deg, digits = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.sampled_from(range(1, 81)))
    coeff = st.builds(int.__mul__, st.sampled_from((1, -1)), st.integers(10 ** (digits - 1), 10**digits - 1))
    coeffs = draw(st.lists(st.lists(coeff, min_size=deg + 1, max_size=deg + 1), min_size=order, max_size=order))
    return order, deg, coeffs, draw(st.lists(st.integers(1, 5), min_size=order, max_size=order))


@settings(deadline=None, derandomize=True, max_examples=100)
@given(_planted_prec())
def test_planted_recurrence_is_recovered(planted):
    """The first result annihilates the held-out terms too, judged by the
    reference arithmetic, and has at most the planted order."""
    order, deg, coeffs, terms = planted
    fit = (order + 1) * (deg + 1) + order + 2
    while len(terms) < fit + _PLANTED_HELD_OUT:
        n = len(terms) - order
        terms.append(-sum(sum(c * n**e for e, c in enumerate(ck)) * terms[n + k] for k, ck in enumerate(coeffs)))
    results = guess_prec(terms[:fit], homogeneous=1, max_shift=order, max_degree=deg)
    assert results, "the planted recurrence was not recovered"
    first = results[0]
    assert max(max(mo.parts) - 1 for mo, c in zip(first.schema.monomials, first.coeffs) if c) <= order
    assert first_failure_reference(first.coeffs, first.schema, [F(t) for t in terms]) is None


# ---------------------------------------------------------------------------
# batches: each read takes the images up to the next attempt and the one
# after it (over Q, plus ceil(c/8) primes); read one at a time instead,
# every solve ends the same


_READ = lift._read


def _one_at_a_time(builder, bounds, at, first):
    """lift._read, one image per read."""
    return [image for one in at for image in _READ(builder, bounds, [one], first)]


def _solves(run, monkeypatch, batched):
    """Rendered results of run(), every do_solve's (columns, record, events)
    or exception, and the size of each batch read."""
    guess_module = sys.modules["seqguess.guess"]
    solve, read, outcomes, batches = guess_module.do_solve, _READ if batched else _one_at_a_time, [], []

    def recording(*args):
        try:
            res = solve(*args)
        except (NoSolution, ReconstructionAborted) as exc:
            outcomes.append(repr(exc))
            raise
        outcomes.append((res.columns, res.record, res.state.events))
        return res

    def reading(builder, bounds, at, first):
        if len(at) > 1:
            batches.append(len(at))
        return read(builder, bounds, at, first)

    monkeypatch.setattr(guess_module, "do_solve", recording)
    monkeypatch.setattr(lift, "_read", reading)
    results = run()
    monkeypatch.undo()
    return [str(r) for r in results], outcomes, batches


def _assert_batches_change_nothing(run, monkeypatch):
    batched = _solves(run, monkeypatch, batched=True)
    assert batched == _solves(run, monkeypatch, batched=False)
    return batched[2]


@pytest.mark.parametrize("case", BIG_PLANTED)
def test_batched_images_change_no_planted_solve(case, monkeypatch):
    order, deg, digits, fit, seed = case
    terms, _ = gen_prec_terms(order, deg, fit, seed, digits)
    batches = _assert_batches_change_nothing(
        lambda: guess_prec(terms, homogeneous=1, max_shift=order, max_degree=deg), monkeypatch)
    assert batches  # every case needs more than one prime, and reads batches of 2 and more
    assert all(k >= 2 for k in batches)


def test_batched_images_change_no_bigcoef_workload_solve(monkeypatch, bench_workloads):
    for case in bench_workloads.build("bigcoef_lift", 1, seqguess):
        assert _assert_batches_change_nothing(case.run, monkeypatch), case.label


def test_a_bad_prime_inside_a_batch_is_dropped_as_alone(monkeypatch):
    """f(n) = A n^2 + n with A = 10^200 q: the quadratic collapses mod q.
    Placed 34th, q falls inside a batch, where it is a bad prime as it is
    when read alone."""
    q = lift._nth_field(1, 31, 60).p
    A = 10**200 * q
    values = [F(A * j * j + j) for j in range(5)]
    builder = _seq_builder(values)
    opts = LiftOptions(seed=1, primes=[lift._nth_field(1, 31, i).p for i in range(33)] + [q])
    batches = []

    def reading(builder, bounds, at, first):
        if len(at) > 1:
            batches.append([fp.p for fp, _ in at])
        return _READ(builder, bounds, at, first)

    monkeypatch.setattr(lift, "_read", reading)
    res = do_solve(builder, [3, 2], "rational", opts)
    monkeypatch.setattr(lift, "_read", _one_at_a_time)
    alone = do_solve(builder, [3, 2], "rational", opts)
    assert (res.columns, res.record, res.state.events) == (alone.columns, alone.record, alone.state.events)
    assert ("bad_prime", q) in res.state.events and res.columns == [[[F(0), F(1, A), F(1)], [F(-1, A)]]]
    assert any(q in b and len(b) >= 2 for b in batches)


def _unreached(run, monkeypatch):
    """Per do_solve of run() that a confirming prime ends: the primes it
    read but never reached (read after the confirming one), at most
    ceil(c/8), and its good primes c (crt_combine calls)."""
    guess_module = sys.modules["seqguess.guess"]
    solve, combine, reads, goods, out = guess_module.do_solve, lift.crt_combine, [], [], []

    def recording(*args):
        reads.append([])
        goods.append(0)
        res = solve(*args)
        if res.state.events[-1][0] == "validated":
            read = list(dict.fromkeys(reads[-1]))  # distinct primes, in read order
            out.append((len(read) - 1 - read.index(res.state.events[-1][1]), goods[-1]))
        return res

    def reading(builder, bounds, at, first):
        reads[-1].extend(fp.p for fp, _ in at)
        return _READ(builder, bounds, at, first)

    def combining(acc, flat, p):
        goods[-1] += 1
        return combine(acc, flat, p)

    monkeypatch.setattr(guess_module, "do_solve", recording)
    monkeypatch.setattr(lift, "_read", reading)
    monkeypatch.setattr(lift, "crt_combine", combining)
    run()
    monkeypatch.undo()
    assert out
    for unreached, c in out:
        assert unreached <= -(-c // lift.RECON_GROWTH)
    return out


@pytest.mark.parametrize("case", BIG_PLANTED)
def test_a_planted_solve_reads_at_most_c_over_8_primes_it_never_reaches(case, monkeypatch):
    order, deg, digits, fit, seed = case
    terms, _ = gen_prec_terms(order, deg, fit, seed, digits)
    _unreached(lambda: guess_prec(terms, homogeneous=1, max_shift=order, max_degree=deg), monkeypatch)


def test_a_bigcoef_workload_solve_reads_at_most_c_over_8_primes_it_never_reaches(monkeypatch, bench_workloads):
    unreached = []
    for case in bench_workloads.build("bigcoef_lift", 1, seqguess):
        unreached += [n for n, _ in _unreached(case.run, monkeypatch)]
    assert max(unreached) >= 2  # the extra primes are read


# q mode: the point level reads a prime's points from its second one on
# in batches; read one point at a time, with none drawn ahead, the same
# points are read in the same order


def _q_reads(run, monkeypatch, batched, batches=None):
    """(p, t) of every image read, in order, every do_solve's columns,
    record and events, and run()'s own outcome; the size of each read of
    several images goes to `batches`."""
    guess_module = sys.modules["seqguess.guess"]
    solve, read, reads, outcomes = guess_module.do_solve, _READ if batched else _one_at_a_time, [], []

    def recording(*args):
        res = solve(*args)
        outcomes.append((res.columns, res.record, res.state.events))
        return res

    def reading(builder, bounds, at, first):
        reads.extend((fp.p, t) for fp, t in at)
        if batches is not None and len(at) > 1:
            batches.append(len(at))
        return read(builder, bounds, at, first)

    monkeypatch.setattr(guess_module, "do_solve", recording)
    monkeypatch.setattr(lift, "_read", reading)
    if not batched:
        monkeypatch.setattr(lift, "_ahead", lambda state, pending: 1)
    got = run()
    monkeypatch.undo()
    return reads, outcomes, got


def _lifted(res):
    return res.columns, res.record, res.state.events


def _t_plus_j(fp, t_point):
    return OrderProblem(streams=[[1, 1, 1], [(t_point + j) % fp.p for j in range(3)]], points=[0, 1, 2], sigma=3)


def _bad_at_5(fp, t_point):
    if fp.p == 5:
        raise BadModulus("every point is bad mod 5")
    return _t_plus_j(fp, t_point)


def _first_incompatible():
    calls = []

    def build(fp, t_point):
        calls.append(t_point)
        streams = [[2, 2], [0, 0]] if len(calls) == 1 else [[-3, 3], [-2, 2]]
        return OrderProblem(streams=[[v % fp.p for v in s] for s in streams], points=[0, 1], sigma=2)

    return image_list(build)


def _quadratic_in_t(fp, t_point):
    """c0 = x + P(t), c1 = -1 with P of degree 4: the point level needs 6 points."""
    P = [3, 1, 2, 5, 7]
    return OrderProblem(streams=[[1, 1, 1], [(peval(P, t_point, fp) + j) % fp.p for j in range(3)]],
                        points=[0, 1, 2], sigma=3)


Q_EXAMPLES = {
    "t + j": lambda: _lifted(do_solve(image_list(_t_plus_j), [2, 1], "polyrational", LiftOptions(seed=2))),
    "t + j, seed 9": lambda: _lifted(do_solve(image_list(_t_plus_j), [2, 1], "polyrational", LiftOptions(seed=9))),
    "every point bad mod 5": lambda: _lifted(
        do_solve(image_list(_bad_at_5), [2, 1], "polyrational", LiftOptions(seed=2, primes=[5]))),
    "incompatible first point": lambda: _lifted(
        do_solve(_first_incompatible(), [2, 2], "polyrational", LiftOptions(seed=1))),
    "degree 4 in t": lambda: _lifted(
        do_solve(image_list(_quadratic_in_t), [2, 1], "polyrational", LiftOptions(seed=3, primes=[10007]))),
    "head after a skipped prime": lambda: [
        str(r) for r in seqguess.guess_rat([RatPoly.make([1] * n, [P0]) for n in range(8)], q=True)],
    "planted q-recurrence": lambda: [
        str(r) for r in guess_prec([RatPoly.make([1, 2, 0, -1]) ** n for n in range(8)], q=True, max_shift=1)],
}


@pytest.mark.parametrize("run", Q_EXAMPLES.values(), ids=Q_EXAMPLES.keys())
def test_point_batches_read_the_points_one_at_a_time_reads(run, monkeypatch):
    batches = []
    batched = _q_reads(run, monkeypatch, True, batches)
    assert batched == _q_reads(run, monkeypatch, batched=False)
    assert batches or run is Q_EXAMPLES["incompatible first point"]  # a candidate is pending at every read there


def test_point_batches_change_no_q_workload_solve(monkeypatch, bench_workloads):
    cases = [case for case in bench_workloads.build("series_verify", 1, seqguess) if case.label.startswith("q ")]
    assert len(cases) == 3
    batches = []
    for case in cases:
        batched = _q_reads(lambda: [str(r) for r in case.run()], monkeypatch, True, batches)
        assert batched == _q_reads(lambda: [str(r) for r in case.run()], monkeypatch, batched=False), case.label
    assert batches


def test_a_point_that_outvotes_the_state_inside_a_read_shifts_no_later_point(monkeypatch):
    """At the first prime, the first two points see f(n) = t n (a larger
    solution space), the later ones f(n) = 7 n^2 + n.  After two points
    the lift reads points 3-5 at once; point 3 outvotes the state and
    point 4 confirms the constant candidate, so point 5 is read but never
    reached.  The next prime still gets the points a one-at-a-time read
    draws for it."""
    fp, seed = ModPrime(1000003), 4
    taus = list(itertools.islice(lift._points(random.Random(seed), fp), 5))

    def build(p, t_point):
        if p.p == fp.p and t_point in taus[:2]:
            values = [t_point * j for j in range(5)]
        else:
            values = [7 * j * j + j for j in range(5)]
        return OrderProblem(streams=[[1] * 5, [v % p.p for v in values]], points=list(range(5)), sigma=5)

    def run():
        return _lifted(do_solve(image_list(build), [3, 2], "polyrational", LiftOptions(seed=seed, primes=[fp.p])))

    reads, _, got = _q_reads(run, monkeypatch, batched=True)
    alone_reads, _, alone = _q_reads(run, monkeypatch, batched=False)
    assert got == alone and ("all_bad_points", fp.p, taus[2]) in got[2]
    assert [t for p, t in reads if p == fp.p] == taus  # the fifth point is read ...
    assert [t for p, t in alone_reads if p == fp.p] == taus[:4]  # ... but never reached
    later = [r for r in reads if r[0] != fp.p]
    assert later and later == [r for r in alone_reads if r[0] != fp.p]


# ---------------------------------------------------------------------------
# no reference cycles: a solve's frames, exceptions and closures are freed
# by reference counting alone


def _prec_fit_with_a_bad_prime_in_a_batch():
    """A planted recurrence whose terms carry the 21st prime of the default
    list in their denominator: that prime reads BadModulus inside a batch."""
    terms, _ = gen_prec_terms(2, 1, 30, 3, 120)
    q = lift._nth_field(0, 31, 20).p
    assert guess_prec([F(t, q) for t in terms], homogeneous=1, max_shift=2, max_degree=1)


@pytest.mark.parametrize("run", [
    _prec_fit_with_a_bad_prime_in_a_batch,
    lambda: do_solve(_seq_builder(TERMS), [3, 2], "rational", LiftOptions(seed=1, primes=[BAD_PRIME])),
    lambda: do_solve(_seq_builder([F(1, 5) * j + 1 for j in range(3)]), [2, 1], "rational",
                     LiftOptions(seed=4, primes=[5])),
    lambda: seqguess.guess([random.Random(3).randint(1, 50) for _ in range(9)]),
], ids=["prec fit, bad prime in a batch", "unlucky first prime", "BadModulus first prime", "operator search"])
def test_a_solve_leaves_no_reference_cycle(run):
    run()  # fills the shared prime lists and caches
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


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


# ---------------------------------------------------------------------------
# q mode: a prime at which every evaluation point is bad

P0 = 1_277_389_331  # the first prime of the shared list at seed 0


def test_prime_with_every_point_bad_is_skipped():
    """Over Q(t), a prime at which every point raises BadModulus is skipped
    at both levels, as over Q: the first image moves on to the next prime,
    and the prime loop logs skip_prime instead of aborting the solve."""

    def build(fp, t_point):
        if fp.p == 5:
            raise BadModulus("every point is bad mod 5")
        stream = [(t_point + j) % fp.p for j in range(3)]
        return OrderProblem(streams=[[1, 1, 1], stream], points=[0, 1, 2], sigma=3)

    res = do_solve(image_list(build), [2, 1], "polyrational", LiftOptions(seed=2, primes=[5]))
    t = RatPoly.make([0, 1])
    assert res.columns == [[[t, RatPoly.const(1)], [RatPoly.const(-1)]]]
    assert [e for e in res.state.events if e[0] == "skip_prime"] == [("skip_prime", 5)]


def test_term_denominator_divisible_by_the_first_prime_in_q_mode():
    """A term denominator with the integer factor p0 makes every q point
    bad at p0; the guess reads the next prime instead of aborting."""
    assert lift._nth_field(0, lift.PRIME_BITS, 0).p == P0
    assert seqguess.guess_rat([RatPoly.make([1, n], [P0]) for n in range(8)], q=True) == []
    got = seqguess.guess_rat([RatPoly.make([1] * (n + 1), [P0]) for n in range(8)], q=True)
    assert [str(r) for r in got] == [f"[f(n): f(n) = (qq^n - 1)/({P0}q - {P0})]"]


def test_q_mode_head_is_the_lift_first_image_after_a_skipped_prime(monkeypatch):
    """Every point at p0 is bad, so the head lies at the second prime.  The
    head and the lift draw their points from one rng across primes, so the
    lift reuses the head: it is solved once, and no other first image is
    solved at that prime."""
    read, reads = lift._read, []

    def reading(builder, bounds, at, first):
        out = read(builder, bounds, at, first)
        reads[-1] += [(fp.p, t, first) for (fp, t), image in zip(at, out) if not isinstance(image, BadModulus)]
        return out

    solve = sys.modules["seqguess.guess"].do_solve

    def recording(*args):
        reads.append([])
        return solve(*args)

    monkeypatch.setattr(lift, "_read", reading)
    monkeypatch.setattr(sys.modules["seqguess.guess"], "do_solve", recording)
    assert seqguess.guess_rat([RatPoly.make([1] * n, [P0]) for n in range(8)], q=True)
    assert reads
    for solved in reads:
        head = solved[0]
        assert head[0] != P0 and head[2]
        assert solved.count(head) == 1 and [r for r in solved if r[0] == head[0] and r[2]] == [head]
