"""Acceptance suite: one test per shipping criterion.

Each test runs inside a `criterion` block that prints a
``[acceptance] <name>: PASS|FAIL`` line and registers the outcome for the
terminal summary.  Time limits are generous wall-clock bounds; equation
comparisons are exact string matches of the canonical rendering (scaled
integer coefficients, leading sign fixed), which pins equations up to an
overall scalar.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np

from conftest import ACCEPTANCE
from oracles import (
    apply_matrix,
    condition_matrix,
    flatten_solution,
    gen_prec_terms,
    matrix_rank,
    nullspace_dim,
    order_basis_instances,
    popov_solution_columns,
    reduce_scalar,
)
from seqguess.errors import BadModulus
from seqguess.guess import (
    check_deterministic,
    guess,
    guess_ade,
    guess_alg,
    guess_fe,
    guess_holo,
    guess_pade,
    guess_prec,
    guess_rat,
    guess_rec,
)
from seqguess.hermite_pade import SigmaBasisResult, sigma_basis
from seqguess.lift import LiftOptions, do_solve
from seqguess.modarith import ModPrime, sample_prime
from seqguess.models import OrderProblem
from seqguess.rings import (
    QQ,
    CrtAccumulator,
    LagrangeAccumulator,
    RatPoly,
    crt_combine,
    lagrange_add,
    pdivmod,
    peval,
    pgcd,
    poly_rat_recon,
    ptrim,
    rat_recon,
)
from seqguess.sigma_normalize import sigma_normalize


class criterion:
    """Report a named acceptance criterion: PASS when the block completes."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        ok = exc_type is None
        print(f"[acceptance] {self.name}: {'PASS' if ok else 'FAIL'}")
        ACCEPTANCE.append((self.name, ok))
        return False


def timed(limit, fn, *args, **kw):
    t0 = time.perf_counter()
    out = fn(*args, **kw)
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"{fn.__name__} took {elapsed:.2f}s (limit {limit}s)"
    return out


def first(results):
    assert results, "expected a guess"
    return str(results[0])


# ---------------------------------------------------------------------------
# 1. textbook examples, exact equations, < 5 s each, deterministic check on


def test_textbook_equations():
    with criterion("textbook-equations"):
        assert first(timed(5, guess_rat, [0, 1, 4, 9])) == "[f(n): f(n) = n^2]"
        assert first(timed(5, guess_pade, [1, 1, 2, 3, 5])) == \
            "[[x^n]f(x): (x^2 + x - 1)f(x) + 1 = 0]"
        assert first(timed(5, guess_alg, [1, 1, 2, 5, 14, 42])) == \
            "[[x^n]f(x): xf(x)^2 - f(x) + 1 = 0, f(0)= 1]"

        rec = [1, 1, 0, 1, -1, 2, -1, 5, -4, 29, -13, 854, -685]
        assert first(timed(5, guess_rec, rec)) == \
            "[f(n): f(n+2) + f(n+1) - f(n)^2 = 0, f(0)= 1, f(1)= 1]"

        sine = [F(0), F(1)]
        while len(sine) < 14:
            k = len(sine)
            sine.append(0 if k % 2 == 0 else -sine[-2] / (k * (k - 1)))
        assert first(timed(5, guess_prec, sine)) == \
            "[f(n): (n^2 + 3n + 2)f(n+2) + f(n) = 0, f(0)= 0, f(1)= 1]"
        assert first(timed(5, guess_holo, sine[:6])) == \
            "[[x^n]f(x): f''(x) + f(x) = 0, f(0)= 0, f'(0)= 1]"

        tree = [0, 1, 1, 1, 2, 3, 6, 11, 23]
        want = "[[x^n]f(x): f(x^2) + f(x)^2 - 2f(x) + 2x = 0, f(x) = x + x^2 + x^3 + 2x^4 + O(x^5)]"
        assert first(timed(5, guess_fe, tree)) == want
        # six terms already pin the same equation, with a shorter prefix
        assert first(timed(5, guess_fe, tree[:6])) == \
            "[[x^n]f(x): f(x^2) + f(x)^2 - 2f(x) + 2x = 0, f(x) = x + x^2 + x^3 + O(x^4)]"

        nn = [F(1), F(1), F(2), F(9, 2), F(32, 3), F(625, 24), F(324, 5),
              F(117649, 720), F(131072, 315), F(4782969, 4480)]
        assert first(timed(5, guess_ade, nn)) == \
            "[[x^n]f(x): xf'(x) - f(x)^3 + f(x)^2 = 0, f(0)= 1]"

        bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]
        egf = [F(b, math.factorial(k)) for k, b in enumerate(bell)]
        assert first(timed(5, guess_ade, egf)) == \
            "[[x^n]f(x): f''(x)f(x) - f'(x)^2 - f'(x)f(x) = 0, f(0)= 1, f'(0)= 1]"
        # one term fewer and the equation is not yet certain
        assert timed(5, guess_ade, egf[:12]) == []


# ---------------------------------------------------------------------------
# 2. inverted-operator examples, < 10 s each


def test_operator_expressions():
    with criterion("operator-expressions"):
        got = timed(10, guess, [0, 1, 3, 9, 33])
        assert str(got[0]) == "[f(n): f(n) = sum_{s=0}^{n-1} prod_{p=0}^{s-1} (p + 2)]"

        asm = [1, 1, 2, 7, 42, 429, 7436, 218348]
        got = timed(10, guess, asm, operators=("product",))
        assert str(got[0]) == ("[f(n): f(n) = prod_{p=0}^{n-1} prod_{q=0}^{p-1} "
                               "((27q^2 + 54q + 24)/(16q^2 + 32q + 12))]")


# ---------------------------------------------------------------------------
# 3. q-mode closed form, exact coefficients


def test_q_closed_form():
    with criterion("q-closed-form"):
        terms = [RatPoly.const(1), RatPoly.make([1, 1, 1]),
                 RatPoly.make([1, 1, 1]) * RatPoly.make([1, 0, 1]),
                 RatPoly.make([1, 0, 1]) * RatPoly.make([1, 1, 1, 1, 1])]
        got = first(timed(5, guess_rat, terms, q=True))
        assert got == "[f(n): f(n) = (q^3q^(2n) + (-q^2 - q)q^n + 1)/(q^3 - q^2 - q + 1)]"


# ---------------------------------------------------------------------------
# 4. desk-scale polynomial recurrences: order 5 / degree 10 in < 10 s,
#    order 10 / degree 20 in < 120 s, each annihilating 20 extra terms


def test_polynomial_recurrence_scale():
    with criterion("polynomial-recurrence-scale"):
        terms, _ = gen_prec_terms(5, 10, 91, seed=51)
        res = timed(10, guess_prec, terms[:71], homogeneous=1, max_shift=5, max_degree=10)
        assert res, "no order-5 recurrence found"
        assert check_deterministic(res[0], terms)  # holds on all 91 terms

        terms, _ = gen_prec_terms(10, 20, 261, seed=102)
        res = timed(120, guess_prec, terms[:241], homogeneous=1, max_shift=10, max_degree=20)
        assert res, "no order-10 recurrence found"
        assert check_deterministic(res[0], terms)


# ---------------------------------------------------------------------------
# 5. order-basis solver vs dense Gaussian elimination, 500 seeded instances


def test_order_basis_oracle_equivalence():
    with criterion("order-basis-oracle"):
        P = 2147483647
        fp = ModPrime(P)
        for bounds, sigma, streams, points in order_basis_instances(P):
            m = len(bounds)
            res = sigma_basis(streams, bounds, sigma, fp, points=points)

            # every basis column annihilates all sigma conditions
            for k in range(res.m):
                polys = [res.poly(k, comp) for comp in range(m)]
                wide = [len(p) for p in polys]
                mat = condition_matrix(streams, wide, sigma, P, points)
                assert apply_matrix(mat, flatten_solution(polys, wide), P) == [0] * sigma

            # solution count and span agree with the dense nullspace
            mat = condition_matrix(streams, bounds, sigma, P, points)
            dim = nullspace_dim(mat, sum(bounds), P)
            assert sum(max(d, 0) for d in res.defects) == dim
            vecs = []
            for k in range(res.m):  # range(defect) is empty off the solution columns
                for s in range(res.defects[k]):
                    shifted = [([0] * s + res.poly(k, c)) if res.poly(k, c) else []
                               for c in range(m)]
                    vecs.append(flatten_solution(shifted, bounds))
            for v in vecs:
                assert apply_matrix(mat, v, P) == [0] * sigma
            assert matrix_rank(vecs, P) == dim


# ---------------------------------------------------------------------------
# 6. normalized basis is unique: solution columns equal a dense oracle's,
#    and a permuted, rescaled basis gives the same record and columns


def test_normalization_uniqueness():
    with criterion("normalization-uniqueness"):
        P = 10007
        fp = ModPrime(P)
        rng = random.Random(600)
        mangle = random.Random(601)
        for _ in range(200):
            m = rng.randint(2, 3)
            bounds = [rng.randint(1, 4) for _ in range(m)]
            sigma = rng.randint(1, 9)
            streams = [[rng.randrange(P) for _ in range(sigma)] for _ in range(m)]
            points = None if rng.random() < 0.5 else rng.sample(range(P), sigma)

            basis = sigma_basis(streams, bounds, sigma, fp, points=points)
            record, cols = sigma_normalize(basis)
            oracle = popov_solution_columns(streams, bounds, sigma, P, points)
            assert [(d, c) for d, c in zip(record.defects, record.crits) if d >= 1] == [(d, c) for d, c, _ in oracle]
            assert cols == [col for *_, col in oracle]

            order = list(range(m))
            mangle.shuffle(order)
            scale = np.array([mangle.randrange(1, P) for _ in order], dtype=np.int64)
            coeffs = basis.coeffs[order] * scale[:, None, None] % P
            shuffled = SigmaBasisResult(coeffs, basis.degrees[order], [basis.defects[k] for k in order], bounds, fp)
            assert sigma_normalize(shuffled) == (record, cols)


# ---------------------------------------------------------------------------
# 7. reconstruction round-trips: 10^4 rationals, 10^3 rational functions


def test_reconstruction_roundtrips():
    with criterion("reconstruction-roundtrips"):
        rng = random.Random(700)
        pool = []
        while len(pool) < 8:
            p = sample_prime(31, exclude=frozenset(pool), rng=rng)
            pool.append(p)

        for _ in range(10_000):
            x = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            acc = CrtAccumulator([0])
            used = 0
            for p in pool:
                if x.denominator % p == 0:
                    continue  # bad modulus, skip as the driver would
                acc = crt_combine(acc, [reduce_scalar(x, ModPrime(p))], p)
                used += 1
                if used == 2:
                    break
            assert rat_recon(acc.values[0], acc.modulus) == x

        p1, p2 = pool[0], pool[1]
        for _ in range(1_000):
            num = ptrim([F(rng.randint(-30, 30)) for _ in range(rng.randint(1, 9))], QQ)
            while not num:
                num = ptrim([F(rng.randint(-30, 30)) for _ in range(rng.randint(1, 9))], QQ)
            den = [F(rng.randint(-30, 30)) for _ in range(rng.randint(0, 8))] + [F(1)]
            g = pgcd(num, den, QQ)
            if len(g) > 1:
                num = pdivmod(num, g, QQ)[0]
                den = pdivmod(den, g, QQ)[0]

            images = []
            for p in (p1, p2):
                fp = ModPrime(p)
                num_p = [reduce_scalar(c, fp) for c in num]
                den_p = [reduce_scalar(c, fp) for c in den]
                lag = LagrangeAccumulator(fp, [[]])
                x = 0
                while lag.count() < 17:
                    dv = peval(den_p, x, fp)
                    if dv != 0:
                        lagrange_add(lag, x, [fp.div(peval(num_p, x, fp), dv)])
                    x += 1
                rec = poly_rat_recon(lag)
                assert rec is not None
                images.append(rec[0])

            (n1, d1), (n2, d2) = images
            assert len(n1) == len(n2) and len(d1) == len(d2)
            acc = CrtAccumulator([0] * (len(n1) + len(d1)))
            crt_combine(acc, n1 + d1, p1)
            crt_combine(acc, n2 + d2, p2)
            got = [rat_recon(v, acc.modulus) for v in acc.values]
            got_num, got_den = got[:len(n1)], got[len(n1):]
            assert got_num == num and got_den == den


# ---------------------------------------------------------------------------
# 8. bad reduction: a forced first prime dividing the leading coefficient
#    is recognized and overruled, and the exact answer still comes out


def test_bad_prime_recovery():
    with criterion("bad-prime-recovery"):
        bad = 5
        values = [F(bad * j * j + j) for j in range(5)]

        def build(fp, t_point):
            stream = [reduce_scalar(v, fp) for v in values]
            return OrderProblem(streams=[[1] * len(values), stream],
                                points=[j % fp.p for j in range(len(values))],
                                sigma=len(values))

        res = do_solve(build, [3, 2], "rational", LiftOptions(seed=1, primes=[bad]))
        kinds = [e[0] for e in res.state.events]
        assert kinds[0] == "recon"  # the bad prime reconstructs plausibly
        assert "all_bad" in kinds  # a good prime then outvotes it
        assert kinds.index("all_bad") < kinds.index("validated")
        assert res.columns == [[[F(0), F(1, 5), F(1)], [F(-1, 5)]]]
        assert res.record.defects == (1, -1)


# ---------------------------------------------------------------------------
# 9. trailing-zero trap: the final 0 makes the polynomial answer reachable


def test_trailing_zero_polynomial():
    with criterion("trailing-zero-polynomial"):
        assert first(timed(5, guess_pade, [1, 2, 3, 0], safety=1)) == \
            "[[x^n]f(x): f(x) = 3x^2 + 2x + 1]"
        assert guess_pade([1, 2, 3], safety=1) == []
