"""Polynomial arithmetic, rational functions, CRT, interpolation and
rational reconstruction."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import QPARAM, QQ_T, newton_interpolant, ratpoly_eval, reduce_scalar
from seqguess import hermite_pade, rings
from seqguess.hermite_pade import remainder_rows
from seqguess.modarith import ModPrime, sample_prime
from seqguess.rings import (
    QQ,
    CrtAccumulator,
    LagrangeAccumulator,
    RatPoly,
    crt_combine,
    lagrange_add,
    padd,
    pdeg,
    pdivmod,
    peval,
    pgcd,
    pmonic,
    pmul,
    pmul_trunc,
    poly_rat_recon,
    pscale,
    psub,
    ptrim,
    rat_recon,
    rat_recon_vec,
    remainder_sequence,
)


# ---------------------------------------------------------------------------
# dense polynomials


def test_poly_basic_ops():
    assert padd([1, 2], [3, 4, 5], QQ) == [4, 6, 5]
    assert psub([1, 2], [1, 2], QQ) == []
    assert pscale([1, 2], 0, QQ) == []
    assert pmul([1, 1], [1, -1], QQ) == [1, 0, -1]
    assert pmul([], [1, 2], QQ) == []
    assert pmul_trunc([1, 1], [1, -1], 2, QQ) == [1, 0]
    assert ptrim([1, 0, 0], QQ) == [1]
    assert pdeg([]) == -1 and pdeg([5]) == 0 and pdeg([0, 1]) == 1
    assert peval([1, 2, 3], F(2), QQ) == 17


def _field_horner(a, x, fp):
    acc = fp.zero
    for c in reversed(a):
        acc = fp.add(fp.mul(acc, x), c)
    return acc


def test_peval_mod_p_equals_the_field_horner():
    """The plain-int Horner over Z_p equals the field-generic one, also on
    negative and unreduced coefficients and points, at x = 0 and on []."""
    rng = random.Random(29)
    for p in (2, 3, 97, 10007, 2**31 - 1):
        fp = ModPrime(p)
        for _ in range(200):
            a = [rng.randint(-3 * p, 3 * p) for _ in range(rng.randint(0, 8))]
            x = rng.choice((0, rng.randint(-3 * p, 3 * p)))
            assert peval(a, x, fp) == _field_horner(a, x, fp)
        assert peval([], 5, fp) == 0 and peval([-1, 7], 0, fp) == (-1) % p


def test_pdivmod_euclidean_property():
    fp = ModPrime(97)
    rng = random.Random(11)
    for _ in range(50):
        a = [rng.randrange(97) for _ in range(rng.randint(0, 7))]
        b = [rng.randrange(97) for _ in range(rng.randint(1, 5))]
        a, b = ptrim(a, fp), ptrim(b, fp)
        if not b:
            continue
        q, r = pdivmod(a, b, fp)
        assert padd(pmul(q, b, fp), r, fp) == a
        assert pdeg(r) < pdeg(b)


def test_pdivmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        pdivmod([1, 1], [], QQ)


def test_pgcd_monic():
    a = pmul([-1, 1], [1, 1], QQ)  # (x-1)(x+1)
    b = pmul([-1, 1], [0, 2], QQ)  # 2x(x-1)
    assert pgcd(a, b, QQ) == [-1, 1]
    assert pgcd([], [0, 3], QQ) == [0, 1]
    assert pmonic([2, 4], QQ) == [F(1, 2), 1]


# ---------------------------------------------------------------------------
# rational functions


def test_ratpoly_make_normalizes():
    r = RatPoly.make([3, 3], [3])
    assert r.num == (1, 1) and r.den == (1,)
    r = RatPoly.make([1, 2, 1], [1, 1])  # (x+1)^2 / (x+1)
    assert r.num == (1, 1) and r.den == (1,)
    z = RatPoly.make([0, 0])
    assert not z and z.num == () and z.den == (1,)
    half = RatPoly.make([1], [2])
    assert half.den == (1,) and half.num == (F(1, 2),)
    with pytest.raises(ZeroDivisionError):
        RatPoly.make([1], [0])


def test_ratpoly_arithmetic_matches_evaluation():
    rng = random.Random(5)
    pts = [F(2), F(3), F(7, 2)]
    for _ in range(25):
        a = RatPoly.make([rng.randint(-4, 4) for _ in range(3)], [1, rng.randint(1, 3)])
        b = RatPoly.make([rng.randint(-4, 4) for _ in range(2)], [rng.randint(1, 3)])
        if not b:
            continue
        for x in pts:
            ev = ratpoly_eval
            assert ev(a + b, x) == ev(a, x) + ev(b, x)
            assert ev(a - b, x) == ev(a, x) - ev(b, x)
            assert ev(a * b, x) == ev(a, x) * ev(b, x)
            assert ev(-a, x) == -ev(a, x)
            if ev(b, x) != 0:
                assert ev(a / b, x) == ev(a, x) / ev(b, x)


def test_ratpoly_misc():
    assert RatPoly.coerce(7) == RatPoly.const(7)
    assert ratpoly_eval(QPARAM, F(9)) == 9
    pole = RatPoly.make([1], [-2, 1])  # 1/(x-2)
    with pytest.raises(ZeroDivisionError):
        ratpoly_eval(pole, F(2))
    assert QQ_T.is_zero(RatPoly.const(0))
    assert QQ_T.from_int(3) == RatPoly.const(3)


# ---------------------------------------------------------------------------
# Chinese remaindering


def _garner(images, moduli):
    """Scalar reference: fold one congruence at a time into (value, modulus)."""
    v, m = 0, 1
    for x, p in zip(images, moduli):
        v += m * ((x - v) * pow(m, -1, p) % p)
        m *= p
    return v, m


def test_crt_frozen_pair():
    acc = CrtAccumulator([0, 0, 0])
    crt_combine(acc, [1, 0, 5], 2)
    crt_combine(acc, [2, 1, -1], 3)
    assert (acc.values, acc.modulus) == ([5, 4, 5], 6)


def test_crt_matches_scalar_garner():
    rng = random.Random(123)
    primes = [1000003, 1000033, 1000037, 1000039, 2**31 - 1]
    for _ in range(30):
        n = rng.randint(1, 6)
        images = [[rng.randrange(-2 * p, 2 * p) for _ in range(n)] for p in primes]
        acc = CrtAccumulator([0] * n)
        for k, (img, p) in enumerate(zip(images, primes), 1):
            crt_combine(acc, img, p)  # the state is complete after every prime
            assert acc.modulus == math.prod(primes[:k])
            assert acc.values == [_garner([im[i] for im in images[:k]], primes[:k])[0] for i in range(n)]
            assert all(0 <= v < acc.modulus for v in acc.values)


def test_crt_rejects_repeated_modulus():
    acc = CrtAccumulator([0, 0])
    crt_combine(acc, [1, 2], 7)
    crt_combine(acc, [3, 4], 11)
    state = (list(acc.values), acc.modulus)
    for bad in (7, 11, 77, 14, 1, 0, -5):  # a repeated prime, a shared factor, or not above 1
        with pytest.raises(ValueError):
            crt_combine(acc, [0, 0], bad)
    with pytest.raises(ValueError):
        crt_combine(CrtAccumulator([0]), [0], 1)
    assert (acc.values, acc.modulus) == state  # rejections leave the state alone


def test_crt_rejects_length_mismatch():
    acc = CrtAccumulator([0, 0])
    crt_combine(acc, [1, 2], 7)
    for images in ([1], [1, 2, 3], []):
        with pytest.raises(ValueError):
            crt_combine(acc, images, 11)
    assert (acc.values, acc.modulus) == ([1, 2], 7)


_PRIMES31 = st.integers(0, 2**32).map(lambda s: sample_prime(31, rng=random.Random(s)))
# numerators below 2**40 and denominators below every 31-bit prime: three
# primes give a modulus above 2**90, past the 2 * (2**40)**2 reconstruction needs
_RATIONALS = st.builds(F, st.integers(-2**40, 2**40), st.integers(1, 2**30 - 1))


@settings(deadline=None, derandomize=True)
@given(st.lists(_RATIONALS, min_size=1, max_size=8), st.lists(_PRIMES31, min_size=3, max_size=6, unique=True))
def test_crt_roundtrip_random(vec, primes):
    acc = CrtAccumulator([0] * len(vec))
    for p in primes:
        fp = ModPrime(p)
        crt_combine(acc, [reduce_scalar(x, fp) for x in vec], p)
    assert acc.modulus == math.prod(primes)
    assert rat_recon_vec(acc.values, acc.modulus) == vec


# ---------------------------------------------------------------------------
# Newton interpolation


def test_lagrange_frozen_square():
    fp = ModPrime(7)
    acc = LagrangeAccumulator(fp, [[]])
    for x, y in [(0, 0), (1, 1), (2, 4)]:
        lagrange_add(acc, x, [y])
    assert acc.count() == 3
    assert ptrim(acc.to_dense()[0], fp) == [0, 0, 1]
    # node polynomial x(x-1)(x-2) = x^3 - 3x^2 + 2x over Z/7
    assert acc.node == [0, 2, 4, 1]


def test_lagrange_rejects_repeated_point():
    fp = ModPrime(7)
    acc = LagrangeAccumulator(fp, [[]])
    lagrange_add(acc, 3, [1])
    with pytest.raises(ValueError):
        lagrange_add(acc, 3, [5])
    with pytest.raises(ValueError):
        lagrange_add(acc, 10, [5])  # 10 = 3 mod 7


def test_lagrange_roundtrip_random():
    fp = ModPrime(10007)
    rng = random.Random(77)
    for _ in range(20):
        poly = [rng.randrange(fp.p) for _ in range(rng.randint(1, 9))]
        poly = ptrim(poly, fp)
        pts = rng.sample(range(fp.p), len(poly) + 1)
        acc = LagrangeAccumulator(fp, [[]])
        for x in pts:
            lagrange_add(acc, x, [peval(poly, x, fp)])
        assert ptrim(acc.to_dense()[0], fp) == poly


def test_lagrange_vector_matches_one_accumulator_per_entry():
    """A k-entry accumulator interpolates and reconstructs each entry as k
    one-entry accumulators do, on random points and values."""
    fp = ModPrime(10007)
    rng = random.Random(5)
    for _ in range(30):
        k = rng.randint(1, 5)
        vec = LagrangeAccumulator(fp, [[] for _ in range(k)])
        singles = [LagrangeAccumulator(fp, [[]]) for _ in range(k)]
        for x in rng.sample(range(fp.p), rng.randint(1, 9)):
            values = [rng.randrange(fp.p) if rng.random() < 0.7 else 0 for _ in range(k)]
            lagrange_add(vec, x, values)
            for acc, v in zip(singles, values):
                lagrange_add(acc, x, [v])
        assert vec.node == singles[0].node
        assert vec.to_dense() == [acc.to_dense()[0] for acc in singles]
        each = [poly_rat_recon(acc) for acc in singles]
        assert poly_rat_recon(vec) == (None if None in each else [r[0] for r in each])


def test_interpolation_matches_the_newton_oracle():
    """The one interpolation routine, through LagrangeAccumulator.to_dense
    and through hermite_pade.remainder_rows (its _nodes cache, on a miss
    and on a hit), equals the Newton form of tests/oracles at integer and
    q-power points, sigma 1-12."""
    rng = random.Random(28)
    fp = ModPrime(10007)
    hermite_pade._nodes.cache_clear()
    checked = 0
    for i in range(200):
        sigma = rng.randint(1, 12)
        q = rng.randrange(2, fp.p)
        points = list(range(sigma)) if i % 2 else [pow(q, n, fp.p) for n in range(sigma)]
        if len(set(points)) < sigma:
            continue
        rows = [[rng.randrange(fp.p) for _ in range(sigma)] for _ in range(rng.randint(1, 3))]
        acc = LagrangeAccumulator(fp, [[] for _ in rows])
        for j, x in enumerate(points):
            lagrange_add(acc, x, [r[j] for r in rows])
        expected = [newton_interpolant(points, r, fp.p) for r in rows]
        assert acc.node == expected[0][0]
        assert acc.to_dense() == [dense for _, dense in expected]
        node, dense = newton_interpolant(points, [-v for v in rows[0]], fp.p)
        for _ in range(2):
            assert remainder_rows(rows[0], sigma, fp, points) == list(remainder_sequence(node, dense, fp))
        checked += 1
    assert checked > 150


def test_lagrange_rejects_a_vector_of_the_wrong_length():
    fp = ModPrime(7)
    acc = LagrangeAccumulator(fp, [[], []])
    with pytest.raises(ValueError):
        lagrange_add(acc, 1, [3])
    with pytest.raises(ValueError):
        lagrange_add(acc, 1, [3, 4, 5])
    assert acc.count() == 0
    lagrange_add(acc, 1, [3, 4])
    assert acc.to_dense() == [[3], [4]]


# ---------------------------------------------------------------------------
# rational reconstruction


def test_rat_recon_frozen():
    # 65 = 1/3 mod 97 since 3*65 = 195 = 2*97 + 1
    assert rat_recon(65, 97) == F(1, 3)
    assert rat_recon(96, 97) == F(-1)
    assert rat_recon(0, 97) == F(0)
    with pytest.raises(ValueError):
        rat_recon(-1, 97)
    with pytest.raises(ValueError):
        rat_recon(97, 97)


def test_rat_recon_unreachable_images_return_none():
    # enumerate every image that a bounded fraction can produce mod 97
    reachable = set()
    bound = math.isqrt(97 // 2)
    for a in range(-bound, bound + 1):
        for b in range(1, bound + 1):
            if math.gcd(abs(a), b) == 1:
                reachable.add(a * pow(b, -1, 97) % 97)
    for M in range(97):
        f = rat_recon(M, 97)
        if M in reachable:
            assert f is not None and abs(f.numerator) <= bound and f.denominator <= bound
            assert f.numerator * pow(f.denominator, -1, 97) % 97 == M
        else:
            assert f is None


def test_rat_recon_roundtrip_random():
    rng = random.Random(9)
    modulus = (2**31 - 1) * 2147483629
    for _ in range(300):
        f = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        image = f.numerator * pow(f.denominator, -1, modulus) % modulus
        assert rat_recon(image, modulus) == f


def test_rat_recon_vec_shared_denominator_stats(monkeypatch):
    modulus = 1000003 * 1000033
    values = [F(1, 3), F(1, 2), F(5), F(-7, 6)]
    images = [v.numerator * pow(v.denominator, -1, modulus) % modulus for v in values]
    full = []

    def counted(M, mod):
        full.append(M)
        return rat_recon(M, mod)

    monkeypatch.setattr(rings, "rat_recon", counted)
    assert rat_recon_vec(images, modulus) == values
    # 1/3 and 1/2 need the full Euclid pass; once the running denominator
    # holds 6, the entries 5 and -7/6 come out by direct scaling
    assert {"full": len(full), "shortcut": len(values) - len(full)} == {"full": 2, "shortcut": 2}


def test_rat_recon_vec_failure_is_none():
    assert rat_recon_vec([2], 5) is None  # bound 1; 2 is not +-1 or 0


def test_poly_rat_recon_frozen_mobius():
    # samples of 1/(t-2) over Z/7 (t=2 excluded)
    fp = ModPrime(7)
    acc = LagrangeAccumulator(fp, [[]])
    for x in [0, 1, 3, 4]:
        lagrange_add(acc, x, [fp.inv((x - 2) % 7)])
    assert poly_rat_recon(acc) == [([1], [5, 1])]


def test_poly_rat_recon_frozen_proper_fraction():
    # -2t/(t-3): num degree 1, den degree 1, K=3 samples
    fp = ModPrime(7)
    acc = LagrangeAccumulator(fp, [[]])
    for x, y in [(0, 0), (1, 1), (2, 4)]:
        lagrange_add(acc, x, [y])
    assert poly_rat_recon(acc) == [([0, 5], [4, 1])]


def test_poly_rat_recon_inconsistent_returns_none():
    fp = ModPrime(7)
    acc = LagrangeAccumulator(fp, [[]])
    for x, y in [(0, 1), (1, 0), (2, 1)]:
        lagrange_add(acc, x, [y])
    assert poly_rat_recon(acc) is None


def test_poly_rat_recon_roundtrip_random():
    fp = ModPrime(10007)
    rng = random.Random(42)
    done = 0
    while done < 25:
        num = ptrim([rng.randrange(fp.p) for _ in range(rng.randint(1, 4))], fp)
        den = ptrim([rng.randrange(fp.p) for _ in range(rng.randint(0, 3))] + [1], fp)
        if not num or ptrim(pgcd(num, den, fp), fp) != [1]:
            continue
        pts = []
        acc = LagrangeAccumulator(fp, [[]])
        while len(pts) < 9:
            x = rng.randrange(fp.p)
            if x in pts or peval(den, x, fp) == 0:
                continue
            pts.append(x)
            lagrange_add(acc, x, [fp.div(peval(num, x, fp), peval(den, x, fp))])
        assert poly_rat_recon(acc) == [(num, den)]
        done += 1


def test_fraction_from_dec_reads_points_and_exponents_past_the_digit_limit():
    """Decimal-point and exponent values of 5,000 digits, past CPython's
    int() limit of 4,300, are read in chunks; short ones as Fraction reads them."""
    ones = (10**5000 - 1) // 9  # 5,000 ones
    assert rings.fraction_from_dec("1." + "5" * 5000) == 1 + F(5 * ones, 10**5000)
    assert rings.fraction_from_dec("1" * 5000 + "e2") == ones * 100
    assert rings.fraction_from_dec("-" + "1" * 5000 + ".5E-3") == -F(10 * ones + 5, 10**4)
    assert rings.fraction_from_dec("+." + "1" * 5000) == F(ones, 10**5000)
    for text in ("1e3", "1.5", "-2.5e-3", "+3.25E+2", ".5", "1.", "-0.0", "1_000", "1_0.5", "7/3", "-7/3"):
        assert rings.fraction_from_dec(text) == F(text)
    for text in (".", "1e", "e5", "1.2.3", "--1", "1e1.5", "1/2e3"):
        with pytest.raises(ValueError):
            rings.fraction_from_dec(text)
    with pytest.raises(ValueError, match="MAX_POWER_BITS"):
        rings.fraction_from_dec("1." + "5" * 5000 + "e-9999999")
