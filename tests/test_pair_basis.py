"""The m = 2 path: one remainder sequence per image of a pair schema.

A schema whose streams are (1, s), with few conditions per degree split
(guess.PAIR_SIGMA_PER_SPLIT), reads the normal form of every split off
the remainder sequence of hermite_pade.remainder_rows; the order basis
of sigma_basis + sigma_normalize stays the reference.
"""

import importlib
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import newton_interpolant
from seqguess import guess_alg, guess_pade, guess_rat, hermite_pade
from seqguess.errors import BadModulus
from seqguess.hermite_pade import remainder_rows, sigma_basis
from seqguess.modarith import ModPrime, sample_prime
from seqguess.rings import RatPoly, pdeg, pmul, psub, remainder_sequence
from seqguess.sigma_normalize import pair_normalize, sigma_normalize

lift = importlib.import_module("seqguess.lift")
guess_mod = importlib.import_module("seqguess.guess")

ROOT = Path(__file__).resolve().parents[1]


def _reference(s, bounds, sigma, fp, points):
    ones = [1] * sigma if points is not None else [1] + [0] * (sigma - 1)
    try:
        return sigma_normalize(sigma_basis([ones, s], bounds, sigma, fp, points=points))
    except BadModulus:
        return "BadModulus"


def _pair(rows, bounds, fp):
    return "BadModulus" if rows is None else pair_normalize(rows, bounds, fp)


def test_pair_normal_form_equals_order_basis_normal_form():
    """(record, columns) and BadModulus agree on 20,000 seeded instances:
    both forms, primes from 2 to 2^31 - 1, random, sparse and constant
    streams, every bound in 1..sigma+2, colliding points included."""
    rng = random.Random(2020)
    primes = [2, 3, 5, 7, 13, 10007, 2**31 - 1] + [sample_prime(31, rng=rng) for _ in range(4)]
    instances = bad = 0
    while instances < 20_000:
        fp = ModPrime(rng.choice(primes))
        p = fp.p
        sigma = rng.randint(1, 10)
        kind = rng.choice(("random", "sparse", "constant"))
        if kind == "random":
            s = [rng.randrange(p) for _ in range(sigma)]
        elif kind == "sparse":
            s = [rng.randrange(p) if rng.random() < 0.25 else 0 for _ in range(sigma)]
        else:
            s = [rng.randrange(p)] * sigma
        form = rng.choice(("series", "integer", "random"))
        points = {"series": None, "integer": list(range(sigma)),
                  "random": [rng.randrange(3 * p) for _ in range(sigma)]}[form]
        try:
            rows = remainder_rows(s, sigma, fp, points)
        except BadModulus:
            rows = None
        for _ in range(4):
            bounds = [rng.randint(1, sigma + 2), rng.randint(1, sigma + 2)]
            got, ref = _pair(rows, bounds, fp), _reference(s, bounds, sigma, fp, points)
            assert got == ref, (p, s, points, bounds)
            instances += 1
            bad += ref == "BadModulus"
    assert 1000 < bad < instances // 2  # colliding points were drawn, and not only those


def test_cached_interpolation_equals_newton_interpolation():
    """remainder_rows' interpolant, from the cached node polynomial and
    weights, equals the Newton-form one (tests/oracles) at integer and q-power points, on
    a cache miss and on a hit; the cache keeps at most NODE_CACHE point
    sets, each of sigma + 1 and sigma ints."""
    rng = random.Random(25)
    fp = ModPrime(10007)
    hermite_pade._nodes.cache_clear()
    for i in range(3 * hermite_pade.NODE_CACHE):
        sigma = rng.randint(1, 12)
        q = rng.randrange(2, fp.p)
        points = list(range(sigma)) if i % 2 else [pow(q, n, fp.p) for n in range(sigma)]
        s = [rng.randrange(fp.p) for _ in range(sigma)]
        if len(set(points)) < sigma:
            with pytest.raises(BadModulus):
                remainder_rows(s, sigma, fp, points)
            continue
        newton = list(remainder_sequence(*newton_interpolant(points, [-v for v in s], fp.p), fp))
        assert remainder_rows(s, sigma, fp, points) == newton == remainder_rows(s, sigma, fp, points)
        M, w = hermite_pade._nodes(fp.p, tuple(points))
        assert len(M) == sigma + 1 and len(w) == sigma
        assert hermite_pade._nodes.cache_info().currsize <= hermite_pade.NODE_CACHE
    assert hermite_pade._nodes.cache_info().hits >= 3 * hermite_pade.NODE_CACHE


def test_remainder_sequence_rows():
    """r_i = t_i * r1 mod r0, deg r falls and deg t rises, ending at r = 0."""
    rng = random.Random(7)
    fp = ModPrime(10007)
    for _ in range(200):
        n = rng.randint(1, 12)
        r0 = [rng.randrange(fp.p) for _ in range(n)] + [rng.randrange(1, fp.p)]
        r1 = [rng.randrange(fp.p) if rng.random() < 0.6 else 0 for _ in range(rng.randint(0, n))]
        while r1 and not r1[-1]:
            r1.pop()
        rows = list(remainder_sequence(r0, r1, fp))
        assert rows[0] == (r0, []) and rows[1] == (r1, [1]) and rows[-1][0] == []
        for (ra, ta), (rb, tb) in zip(rows[1:], rows[2:]):
            assert pdeg(rb) < pdeg(ra) and pdeg(tb) > pdeg(ta)
        for r, t in rows:
            diff = psub(r, pmul(t, r1, fp), fp)
            # diff is a multiple of r0: reduce it by long division
            while len(diff) >= len(r0):
                c = fp.div(diff[-1], r0[-1])
                diff = psub(diff, pmul([0] * (len(diff) - len(r0)) + [c], r0, fp), fp)
            assert diff == []


def test_every_pair_image_of_the_workloads_matches_the_order_basis(monkeypatch, bench_workloads):
    """One pass of each benchmark workload, every m = 2 image checked: the
    image of each split that reaches lift._read, and the first image
    of a pair schema at each split that the scan (lift.pair_splits) keeps
    or settles, a split kept iff the order basis has a solution column."""
    import seqguess

    read, scan = lift._read, guess_mod.pair_splits
    seen = []

    def reference(prob, bounds, fp):
        """The order basis's normal form at an m = 2 image, asserted equal to
        the remainder rows' one; None for any other image."""
        ones = [1] * prob.sigma if prob.points is not None else [1] + [0] * (prob.sigma - 1)
        pair = prob.rows is not None
        if not pair and not (len(prob.streams) == 2 and prob.streams[0] == ones):
            return None
        assert len(prob.streams) == 2 and prob.streams[0] == ones
        try:
            rows = remainder_rows(prob.streams[1], prob.sigma, fp, prob.points)
        except BadModulus:
            rows = None
        assert rows is None or not pair or rows == prob.rows
        ref = _reference(prob.streams[1], bounds, prob.sigma, fp, prob.points)
        assert _pair(rows, bounds, fp) == ref
        seen.append(pair)
        return ref

    def checked(builder, bounds, at, first):
        for prob, (fp, _) in zip(builder(at), at):
            if not isinstance(prob, BadModulus):
                reference(prob, bounds, fp)
        return read(builder, bounds, at, first)

    def scanned(builder, splits, domain, opts):
        kept = scan(builder, splits, domain, opts)
        fp, _, prob = lift._first(builder, domain, opts)
        for bounds in splits:
            record, _ = reference(prob, list(bounds), fp)
            assert (bounds in kept) == (max(record.defects) >= 1), bounds
        return kept

    monkeypatch.setattr(lift, "_read", checked)
    monkeypatch.setattr(guess_mod, "pair_splits", scanned)
    for name in bench_workloads.WORKLOADS:
        for case in bench_workloads.build(name, 1, seqguess):
            case.run()
    # lone degree splits over many conditions keep the order basis; they are checked too
    assert seen.count(True) > 1000 and seen.count(False) > 5


def _count(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kw):
        calls.append((args, kw))
        return original(*args, **kw)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("terms, q", [
    ([Fraction(n**3 + 1, n**2 + 5) for n in range(24)], False),
    ([RatPoly.make([1] * (n + 1)) for n in range(8)], True),
])
def test_one_remainder_sequence_per_schema_prime_and_point(terms, q, monkeypatch):
    rows, images, solves, lifts, fresh = [], [], [], [], []
    _count(monkeypatch, guess_mod, "remainder_rows", rows)
    _count(monkeypatch, lift, "_read", solves)
    _count(monkeypatch, guess_mod, "build_images", images)
    _count(monkeypatch, lift, "_lift", lifts)
    solve = guess_mod.do_solve

    def recording(builder, bounds, domain, opts, store):
        before, n = len(store), len(lifts)
        res = solve(builder, bounds, domain, opts, store)
        if len(lifts) > n:  # this split lifted: every one of its rows was new to the store
            fresh.append(len(store) - before == len(res.columns))
        return res

    monkeypatch.setattr(guess_mod, "do_solve", recording)
    assert guess_rat(terms, q=q)
    keys = [(id(args[1]), args[2].p, kw["q_point"]) for args, kw in images]
    assert len(set(keys)) == len(keys) == len(rows)  # every image built once, one sequence each
    assert fresh and all(fresh) and len(fresh) == len(lifts)  # each distinct solution row is lifted once


def test_sixty_term_rat_builds_no_order_basis(monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("a pair schema needs no order basis")

    monkeypatch.setattr(lift, "sigma_basis", refuse)
    monkeypatch.setattr(lift, "sigma_normalize", refuse)
    terms = [Fraction(n**3 + 1, n**2 + 5) for n in range(60)]
    assert str(guess_rat(terms)[0]) == "[f(n): f(n) = (n^3 + 1)/(n^2 + 5)]"
    assert str(guess_pade([1, 1, 2, 3, 5, 8, 13])[0]) == "[[x^n]f(x): (x^2 + x - 1)f(x) + 1 = 0]"


def test_setup_probe_does_not_load_numpy():
    code = ("import sys, seqguess; assert str(seqguess.guess_rat([0, 1, 4, 9])[0]) == '[f(n): f(n) = n^2]'; "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60,
                         env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_monte_carlo_reads_the_search_store(monkeypatch):
    """The spot check reuses the search's term images and the exact
    check's clearing of each column: 5 clearings (the terms once, each
    of the 4 kept columns once), where each check used to clear the
    terms and the column again (13)."""
    terms = [1, 1, 2, 5, 14, 42, 132, 429]
    plain = [str(r) for r in guess_alg(terms, one=False)]
    calls = []
    _count(monkeypatch, guess_mod, "_clear", calls)
    results = guess_alg(terms, one=False, check="montecarlo")
    assert len(calls) == 5
    assert [str(r) for r in results] == plain and len(plain) == 4
    assert {r.checked for r in results} == {"montecarlo"}
