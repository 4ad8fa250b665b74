"""The row store of a pair schema: splits share the lift of its remainder rows.

A degree split whose solution rows are already lifted reads its columns
off the store (lift.do_solve's `rows`); every other split lifts on its
own and stores its rows.  Either way its columns and record must be those
of a standalone solve with an empty store.
"""

import importlib
import importlib.util
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import qpower_poly, series_coefficients
from seqguess import guess_pade, guess_rat
from seqguess.errors import NoSolution
from seqguess.rings import RatPoly

guess_mod = importlib.import_module("seqguess.guess")

ROOT = Path(__file__).resolve().parents[1]


def _standalone_check(monkeypatch):
    """Patch guess.do_solve so that every split of a pair schema is solved
    again on its own; returns the (domain, outcome) counts of the shared solves."""
    solve = guess_mod.do_solve
    seen = Counter()

    def checked(builder, bounds, domain, opts, rows):
        if rows is None:
            return solve(builder, bounds, domain, opts, rows)
        try:
            res = solve(builder, bounds, domain, opts, rows)
        except NoSolution:
            with pytest.raises(NoSolution):
                solve(builder, bounds, domain, opts, {})
            seen[domain, "none"] += 1
            raise
        alone = solve(builder, bounds, domain, opts, {})
        assert (res.columns, res.record) == (alone.columns, alone.record), bounds
        seen[domain, "rows" if res.state.events[0][0] == "rows" else "lifted"] += 1
        return res

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


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads_rows", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_row_store_columns_equal_standalone_solves_on_the_workloads(monkeypatch):
    """Every pair-schema split of one pass of each benchmark workload."""
    import seqguess

    seen = _standalone_check(monkeypatch)
    workloads = _load_workloads(monkeypatch)
    for name in workloads.WORKLOADS:
        for case in workloads.build(name, 1, seqguess):
            case.run()
    assert seen["rational", "rows"] > 50 and seen["polyrational", "rows"] >= 5 and seen["rational", "none"] > 1000
