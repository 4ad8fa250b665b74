"""The row store of a pair schema: splits share the lift of its remainder rows.

A degree split whose solution rows are already lifted reads its columns
off the store (lift.do_solve's `rows`); every other split lifts on its
own and stores its rows.  Either way its columns and record must be those
of a standalone solve with an empty store.
"""

import importlib
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from oracles import qpower_poly, series_coefficients
from seqguess import guess_pade, guess_rat, lift
from seqguess.errors import NoSolution
from seqguess.lift import do_solve
from seqguess.modarith import ModPrime
from seqguess.rings import RatPoly

guess_mod = importlib.import_module("seqguess.guess")


def _standalone_check(monkeypatch):
    """Patch guess.pair_splits and guess.do_solve so that every split of a
    pair schema is solved again on its own: the scan must keep exactly the
    splits whose standalone solve does not end in NoSolution, and each kept
    split's shared solve must equal its standalone one.  Returns the
    (domain, outcome) counts of the splits."""
    solve, scan = guess_mod.do_solve, guess_mod.pair_splits
    seen = Counter()

    def scanned(builder, splits, domain, opts):
        kept = scan(builder, splits, domain, opts)
        for bounds in splits:
            try:
                solve(builder, list(bounds), domain, opts, {})
            except NoSolution:
                assert bounds not in kept, bounds
                seen[domain, "none"] += 1
            else:
                assert bounds in kept, bounds
        return kept

    def checked(builder, bounds, domain, opts, rows):
        if rows is None:
            return solve(builder, bounds, domain, opts, rows)
        try:
            res = solve(builder, bounds, domain, opts, rows)
        except NoSolution:  # the scan kept it, so its standalone solve found columns
            pytest.fail(f"the shared solve of {bounds} found nothing")
        alone = solve(builder, bounds, domain, opts, {})
        assert (res.columns, res.record) == (alone.columns, alone.record), bounds
        seen[domain, "rows" if res.state.events[0][0] == "rows" else "lifted"] += 1
        return res

    monkeypatch.setattr(guess_mod, "pair_splits", scanned)
    monkeypatch.setattr(guess_mod, "do_solve", checked)
    return seen


def _poly_at(coeffs, x):
    return sum(c * x**i for i, c in enumerate(coeffs))


def _seeded_instances(seed=2022, count=30):
    """(guesser, terms, q) for random planted rational functions and
    rational generating functions, over Q and over Q(q)."""
    rng = random.Random(seed)
    small = lambda: rng.randint(-4, 4)  # noqa: E731
    out = []
    while len(out) < count:
        kind, q = rng.choice(("rat", "pade")), rng.random() < 0.5
        dn, dd = rng.randint(0, 2), rng.randint(0, 2)
        N = 2 * (dn + dd + 2) + 2
        if q:
            num = [[small(), small()] for _ in range(dn + 1)]
            den = [[small(), small()] for _ in range(dd + 1)]
            if kind == "rat":
                try:
                    terms = [RatPoly.make(qpower_poly(num, n), qpower_poly(den, n)) for n in range(N)]
                except ZeroDivisionError:
                    continue
            else:
                den[0] = [rng.choice((1, 2, -3))]
                one = RatPoly.const(1)
                terms = series_coefficients([RatPoly.make(c) for c in num], [RatPoly.make(c) for c in den], N, one)
        else:
            num = [small() for _ in range(dn + 1)]
            den = [small() for _ in range(dd + 1)]
            if kind == "rat":
                if any(_poly_at(den, n) == 0 for n in range(N)):
                    continue
                terms = [Fraction(_poly_at(num, n), _poly_at(den, n)) for n in range(N)]
            else:
                den[0] = rng.choice((1, 2, -3))
                terms = series_coefficients(num, den, N, Fraction(1))
        if not any(terms):
            continue
        out.append((guess_rat if kind == "rat" else guess_pade, terms, q))
    return out


def test_row_store_columns_equal_standalone_solves_on_seeded_instances(monkeypatch):
    seen = _standalone_check(monkeypatch)
    for guesser, terms, q in _seeded_instances():
        guesser(terms, q=q)
    assert min(seen[d, kind] for d in ("rational", "polyrational") for kind in ("rows", "lifted", "none")) > 5


# A forced first prime that divides a term denominator, at which both the
# scan and the per-split path must move on to the next prime (over Q) or
# point (over Q(q), where the terms carry the factor 1 / (q - tau_0)).
BAD = 1_000_003


def _scan_agrees(builder, splits, domain, opts):
    """lift.pair_splits keeps exactly the splits whose standalone do_solve
    does not raise NoSolution, and reads the (p, t) that do_solve's head
    reads for each split; returns the (p, t) builder calls of the scan."""
    reads = []

    def reading(at):
        reads.extend((fp.p, t_point) for fp, t_point in at)
        return builder(at)

    kept = lift.pair_splits(reading, splits, domain, opts)
    for bounds in splits:
        fp, tau = lift._first(lambda at: lift._read(builder, list(bounds), at, True), domain, opts)[:2]
        assert (fp.p, tau) == reads[-1], bounds
        try:
            do_solve(builder, list(bounds), domain, opts, {})
        except NoSolution:
            assert bounds not in kept, bounds
        else:
            assert bounds in kept, bounds
    return reads


def test_scan_keeps_exactly_the_splits_that_standalone_solves_keep(monkeypatch):
    """Seeded rat and pade instances over Q and Q(q), each as it is and
    with its terms divided by a factor that vanishes at the first image of
    the forced first prime BAD."""
    scan = guess_mod.pair_splits
    tau0 = next(lift._points(random.Random(0), ModPrime(BAD)))
    skipped = Counter()

    def checked(builder, splits, domain, opts):
        _scan_agrees(builder, splits, domain, opts)
        reads = _scan_agrees(builder, splits, domain, replace(opts, primes=[BAD]))
        assert reads[0] == (BAD, tau0 if domain == "polyrational" else None)
        skipped[domain] += len(reads) > 1
        return scan(builder, splits, domain, opts)

    monkeypatch.setattr(guess_mod, "pair_splits", checked)
    bad_q = RatPoly.make([-tau0, 1])
    for guesser, terms, q in _seeded_instances(seed=2025, count=16):
        guesser(terms, q=q)
        guesser([t / (bad_q if q else BAD) for t in terms], q=q)
    assert skipped["rational"] >= 3 and skipped["polyrational"] >= 3


def test_row_store_columns_equal_standalone_solves_on_the_workloads(monkeypatch, bench_workloads):
    """Every pair-schema split of one pass of each benchmark workload."""
    import seqguess

    seen = _standalone_check(monkeypatch)
    for name in bench_workloads.WORKLOADS:
        for case in bench_workloads.build(name, 1, seqguess):
            case.run()
    assert seen["rational", "rows"] > 50 and seen["polyrational", "rows"] >= 5 and seen["rational", "none"] > 1000
