"""Dense polynomial arithmetic, CRT, interpolation, rational reconstruction.

Polynomials are plain coefficient lists, lowest degree first, with no
trailing zeros; `[]` is the zero polynomial.  All routines take the
coefficient field as an explicit argument so the same code runs over
Z_p (int residues, `ModPrime`), over the rationals (`QQ`) and, where no
division is needed, over the integers (`ZZ`).

`RatPoly` is a rational function in q over Q, the value type of q-mode
terms and equations; `QQ` adds, subtracts, multiplies and zero-tests
RatPoly values too.  No field of rational functions is needed:
`clear_denominators` takes a list of them into Z[q] over one common
denominator, which is how both the exact check and the canonical
rendering leave Q(q).

int_from_dec, dec_str and fraction_from_dec, fraction_str convert
numbers of any size to and from decimal text, which CPython's int() and
str() refuse beyond sys.get_int_max_str_digits() digits.

Everything here is deliberately quadratic: schoolbook products, plain
extended Euclid (remainder_sequence, for Cauchy interpolation and the
order basis of two streams), interpolation from the node polynomial and
barycentric weights (interpolate).  CRT and interpolation keep one state
for a whole vector, its entries sharing the moduli (primes; points).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import UsageError
from .modarith import ModPrime


class _RationalField:
    """Field protocol instance for exact rationals."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def inv(a):
        return 1 / Fraction(a)

    @staticmethod
    def is_zero(a):
        return not a

    @staticmethod
    def from_int(n):
        return Fraction(n)

    def __repr__(self):
        return "QQ"


QQ = _RationalField()


class _IntegerRing:
    """The field protocol minus inv, for exact integers (plain ints)."""

    zero = 0
    one = 1
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    is_zero = staticmethod(operator.not_)
    from_int = staticmethod(int)

    def __repr__(self):
        return "ZZ"


ZZ = _IntegerRing()


# ---------------------------------------------------------------------------
# dense univariate polynomials over an arbitrary field


def ptrim(c: list, F) -> list:
    while c and F.is_zero(c[-1]):
        c.pop()
    return c


def pdeg(c: list) -> int:
    return len(c) - 1


def padd(a: list, b: list, F) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = F.add(out[i], x)
    return ptrim(out, F)


def psub(a: list, b: list, F) -> list:
    out = list(a) + [F.zero] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] = F.sub(out[i], x)
    return ptrim(out, F)


def pscale(a: list, s, F) -> list:
    if F.is_zero(s):
        return []
    return ptrim([F.mul(x, s) for x in a], F)


def pmul(a: list, b: list, F) -> list:
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if F.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return ptrim(out, F)


def pmul_trunc(a: list, b: list, order: int, F) -> list:
    """Cauchy product of a and b through x^(order-1)."""
    out = [F.zero] * order
    for i, x in enumerate(a[:order]):
        if F.is_zero(x):
            continue
        for j, y in enumerate(b[: order - i]):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return out


def peval(a: list, x, F):
    """a(x) by Horner; over Z_p in plain ints, one reduction per coefficient."""
    if isinstance(F, ModPrime):
        p, acc = F.p, 0
        for c in reversed(a):
            acc = (acc * x + c) % p
        return acc
    acc = F.zero
    for c in reversed(a):
        acc = F.add(F.mul(acc, x), c)
    return acc


def pdivmod(a: list, b: list, F) -> tuple[list, list]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [F.zero] * max(0, len(a) - len(b) + 1)
    inv_lead = F.inv(b[-1])
    for k in range(len(a) - len(b), -1, -1):
        if len(r) < len(b) + k:
            continue
        c = F.mul(r[len(b) + k - 1], inv_lead)
        if F.is_zero(c):
            continue
        q[k] = c
        for i, y in enumerate(b):
            r[i + k] = F.sub(r[i + k], F.mul(c, y))
    return ptrim(q, F), ptrim(r, F)


def pdiv_exact(a: list, b: list, F) -> list:
    """a / b, for a multiple a of b."""
    q, r = pdivmod(a, b, F)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def pgcd(a: list, b: list, F) -> list:
    """Monic gcd."""
    a, b = list(a), list(b)
    while b:
        a, b = b, pdivmod(a, b, F)[1]
    return pmonic(a, F)


def pmonic(a: list, F) -> list:
    if not a:
        return []
    return pscale(a, F.inv(a[-1]), F)


# ---------------------------------------------------------------------------
# rational functions in one parameter over QQ


@dataclass(frozen=True)
class RatPoly:
    """num(t)/den(t) with Fraction coefficients, den monic, gcd trimmed."""

    num: tuple
    den: tuple

    @classmethod
    def make(cls, num, den=(Fraction(1),)) -> "RatPoly":
        num = ptrim([Fraction(c) for c in num], QQ)
        den = ptrim([Fraction(c) for c in den], QQ)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return cls((), (Fraction(1),))
        g = pgcd(num, den, QQ)
        if pdeg(g) > 0:
            num = pdivmod(num, g, QQ)[0]
            den = pdivmod(den, g, QQ)[0]
        lead = den[-1]
        if lead != 1:
            num = pscale(num, 1 / lead, QQ)
            den = pscale(den, 1 / lead, QQ)
        return cls(tuple(num), tuple(den))

    @classmethod
    def const(cls, c) -> "RatPoly":
        return cls.make([Fraction(c)])

    @classmethod
    def coerce(cls, v) -> "RatPoly":
        if isinstance(v, RatPoly):
            return v
        return cls.const(Fraction(v))

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other):
        o = RatPoly.coerce(other)
        num = padd(pmul(list(self.num), list(o.den), QQ), pmul(list(o.num), list(self.den), QQ), QQ)
        return RatPoly.make(num, pmul(list(self.den), list(o.den), QQ))

    __radd__ = __add__

    def __neg__(self):
        return RatPoly(tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        return self + (-RatPoly.coerce(other))

    def __rsub__(self, other):
        return RatPoly.coerce(other) + (-self)

    def __mul__(self, other):
        o = RatPoly.coerce(other)
        return RatPoly.make(pmul(list(self.num), list(o.num), QQ), pmul(list(self.den), list(o.den), QQ))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RatPoly.coerce(other)
        if not o:
            raise ZeroDivisionError("division by zero rational function")
        return RatPoly.make(pmul(list(self.num), list(o.den), QQ), pmul(list(self.den), list(o.num), QQ))

    def __rtruediv__(self, other):
        return RatPoly.coerce(other) / self

    def __pow__(self, e: int) -> "RatPoly":
        """self^e for an int e >= 0.  Numerator and denominator are raised
        apart: they stay coprime and the denominator monic, so no gcd."""
        return RatPoly(_qpow(self.num, e), _qpow(self.den, e))


def _qpow(a: tuple, e: int) -> tuple:
    """a^e for a Fraction coefficient tuple, by squaring over ZZ: a = b/d
    with b integral, a^e = b^e/d^e."""
    d = math.lcm(*(c.denominator for c in a))
    base = [int(c * d) for c in a]
    out = [1]
    for bit in bin(e)[2:]:
        out = pmul(out, out, ZZ)
        if bit == "1":
            out = pmul(out, base, ZZ)
    de = d**e
    return tuple(Fraction(c, de) for c in out)


def clear_denominators(values) -> tuple[list, list]:
    """Numerators and one common denominator of rational functions, in Z[q].

    Returns int coefficient lists (nums, den) with values[i] = nums[i]/den:
    den is the monic lcm of the denominators over Q, scaled together with
    every numerator by the least positive integer making them integral.
    """
    den = [Fraction(1)]
    for v in values:
        den = pmul(den, pdiv_exact(list(v.den), pgcd(den, list(v.den), QQ), QQ), QQ)
    nums = [pmul(list(v.num), pdiv_exact(den, list(v.den), QQ), QQ) for v in values]
    s = math.lcm(*(c.denominator for p in (den, *nums) for c in p))
    return [[int(c * s) for c in p] for p in nums], [int(c * s) for c in den]


# ---------------------------------------------------------------------------
# Chinese remaindering, one state for a whole vector


@dataclass
class CrtAccumulator:
    """Combined images of a vector under one product of coprime moduli.

    Every entry shares `modulus`, so absorbing a prime costs one modular
    inverse for the whole vector plus one Garner step per entry.  Values
    stay in [0, modulus); start from zeros of the vector's length.
    """

    values: list
    modulus: int = 1


def crt_combine(acc: CrtAccumulator, images: list, modulus: int) -> CrtAccumulator:
    """Absorb one image vector modulo `modulus`, coprime to the moduli so far."""
    if modulus <= 1:
        raise ValueError("modulus must exceed 1")
    if len(images) != len(acc.values):
        raise ValueError(f"image vector has {len(images)} entries, accumulator {len(acc.values)}")
    r = acc.modulus % modulus
    if math.gcd(r, modulus) != 1:
        raise ValueError(f"modulus {modulus} not coprime to absorbed moduli")
    inv = pow(r, -1, modulus)
    m, values = acc.modulus, acc.values
    for i, v in enumerate(images):
        values[i] += m * ((v - values[i] % modulus) * inv % modulus)
    acc.modulus = m * modulus
    return acc


# ---------------------------------------------------------------------------
# interpolation over a prime field, one routine for a whole vector


def node_weights(p: int, xs) -> tuple[tuple, tuple]:
    """(M, w) for distinct points xs mod p: the node polynomial M = prod (x - x_j)
    and the weights w_j = 1 / prod_{i != j} (x_j - x_i), each product reduced
    at every factor, so that a weight costs one inverse of a residue."""
    M = [1]
    for x in xs:
        M = [(u - x * v) % p for u, v in zip([0, *M], [*M, 0])]
    w = []
    for x in xs:
        d = 1
        for y in xs:
            if y != x:
                d = d * (x - y) % p
        w.append(pow(d, -1, p))
    return tuple(M), tuple(w)


def interpolate(fp: ModPrime, xs, rows: list, nodes=node_weights) -> tuple[list, list]:
    """(M, per row of values at the distinct points xs, its interpolant mod p).

    The interpolant of degree < K = len(xs) is sum_j v_j * w_j * M / (x - x_j),
    M and the weights w_j from nodes(p, xs): its x^i coefficient is sum_{l > i}
    M_l * P_(l-1-i), P_e the power sums sum_j v_j * w_j * x_j^e.  The rows share
    the nodes, and take no inverse once they are known.
    """
    p, K = fp.p, len(xs)
    M, w = nodes(p, xs)
    dense = []
    for values in rows:
        c = [v * u % p for v, u in zip(values, w)]
        P = [sum(c) % p]
        for _ in range(K - 1):
            c = [a * x % p for a, x in zip(c, xs)]
            P.append(sum(c) % p)
        dense.append(ptrim([sum(map(operator.mul, M[i + 1:], P)) % p for i in range(K)], fp))
    return list(M), dense


@dataclass
class LagrangeAccumulator:
    """The points added so far and, per entry of a vector, its values there.

    Entries share the points; `interpolate` turns them into the node
    polynomial and one interpolant per entry.  Start from one empty list per entry.
    """

    fp: ModPrime
    values: list  # per entry, its values at the points, in order
    points: list = field(default_factory=list)

    def count(self) -> int:
        return len(self.points)

    @property
    def node(self) -> list:
        """prod (t - x_i) over the points."""
        return interpolate(self.fp, self.points, [])[0]

    def to_dense(self) -> list:
        """Per entry, its interpolant in the monomial basis."""
        return interpolate(self.fp, self.points, self.values)[1]


def lagrange_add(acc: LagrangeAccumulator, point: int, values: list) -> LagrangeAccumulator:
    """Add one point and the vector's values there."""
    p = acc.fp.p
    if len(values) != len(acc.values):
        raise ValueError(f"value vector has {len(values)} entries, accumulator {len(acc.values)}")
    point = point % p
    if point in acc.points:
        raise ValueError(f"repeated interpolation point {point}")
    for entry, v in zip(acc.values, values):
        entry.append(v % p)
    acc.points.append(point)
    return acc


# ---------------------------------------------------------------------------
# rational reconstruction: scalars, vectors, polynomials


def rat_recon(M: int, modulus: int) -> Fraction | None:
    """Balanced rational reconstruction of M mod modulus.

    Returns a/b with a*inverse(b) = M (mod modulus), |a|, |b| below
    sqrt(modulus/2), gcd(b, modulus) = 1; None when no such pair exists.
    """
    if not 0 <= M < modulus:
        raise ValueError("need 0 <= M < modulus")
    if M == 0:
        return Fraction(0)
    bound = math.isqrt(modulus // 2)
    r0, t0 = modulus, 0
    r1, t1 = M, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if r1 == 0 or abs(t1) > bound or t1 == 0:
        return None
    if math.gcd(r1, abs(t1)) != 1 or math.gcd(abs(t1), modulus) != 1:
        return None
    return Fraction(r1, t1)


def rat_recon_vec(images: list, modulus: int) -> list | None:
    """Entrywise reconstruction with an incrementally shared denominator.

    For each entry, D*M mod modulus (D = lcm of denominators seen so far)
    is tried as a small symmetric integer first; only entries introducing
    a new denominator factor pay for a full extended-Euclid run.
    """
    bound = math.isqrt(modulus // 2)
    out = []
    den = 1
    for M in images:
        M = M % modulus
        if den <= bound:
            a = den * M % modulus
            if a > modulus - a:
                a -= modulus
            if abs(a) <= bound:
                out.append(Fraction(a, den))
                continue
        f = rat_recon(M, modulus)
        if f is None:
            return None
        out.append(f)
        den = den * f.denominator // math.gcd(den, f.denominator)
    return out


def remainder_sequence(r0: list, r1: list, fp: ModPrime):
    """Rows (r_i, t_i) of the extended Euclidean algorithm on (r0, r1) over Z_p.

    Yields (r0, []), (r1, [1]), then one row per division up to the first
    zero remainder.  Every row has r_i = t_i * r1 mod r0; when deg r1 <
    deg r0, deg r_i falls and deg t_i rises strictly.  Rows are shared.
    A quotient q1 x + q0 of degree 1, the usual one, takes one pass per
    row; a longer one is divided out digit by digit.
    """
    p = fp.p
    t0, t1 = [], [1]
    yield r0, t0
    yield r1, t1
    while r1:
        n, inv = len(r1), pow(r1[-1], -1, p)
        if len(r0) == n + 1:
            q1 = r0[-1] * inv % p
            q0 = (r0[-2] - (q1 * r1[-2] if n > 1 else 0)) * inv % p
            r = [(a - q0 * b - q1 * c) % p for a, b, c in zip(r0, r1, [0] + r1)]
            t = [(a - q0 * b - q1 * c) % p for a, b, c in zip(t0 + [0] * (len(t1) + 1 - len(t0)), t1 + [0], [0] + t1)]
        else:
            r, t = list(r0), t0 + [0] * (len(r0) - n + len(t1) - len(t0))
            for k in range(len(r0) - n, -1, -1):  # r -= c x^k r1 and t -= c x^k t1
                c = r[k + n - 1] * inv % p
                if c:
                    r[k:k + n] = [(a - c * b) % p for a, b in zip(r[k:k + n], r1)]
                    t[k:k + len(t1)] = [(a - c * b) % p for a, b in zip(t[k:k + len(t1)], t1)]
        del r[n - 1:]
        r0, r1, t0, t1 = r1, ptrim(r, fp), t1, t
        yield r1, t1


def poly_rat_recon(acc: LagrangeAccumulator) -> list | None:
    """Cauchy interpolation, entry by entry: num/den through all added points.

    Balanced degree split: deg num ≤ K//2, deg den ≤ K-1-K//2 where K is
    the number of points: the first row of remainder_sequence on (node,
    interpolant) whose remainder has degree ≤ K//2, both from one
    `interpolate` call.  Each returned pair is coprime with monic
    denominator; None when an entry fits no such function (or its
    denominator vanishes at a sample point).
    """
    fp = acc.fp
    K = acc.count()
    if K < 1:
        raise ValueError("no points added yet")
    dn, dd = K // 2, K - 1 - K // 2
    node, dense = interpolate(fp, acc.points, acc.values)
    out = []
    for G, values in zip(dense, acc.values):
        num, den = next((r, t) for r, t in remainder_sequence(node, G, fp) if pdeg(r) <= dn)
        if not den or pdeg(den) > dd:
            return None
        g = pgcd(num, den, fp)
        if pdeg(g) > 0:
            num = pdivmod(num, g, fp)[0]
            den = pdivmod(den, g, fp)[0]
        inv_lead = fp.inv(den[-1])
        num, den = pscale(num, inv_lead, fp), pscale(den, inv_lead, fp)
        # decisive verification against the stored value at every sample point
        for x, v in zip(acc.points, values):
            dv = peval(den, x, fp)
            if dv == 0 or peval(num, x, fp) != fp.mul(dv, v):
                return None
        out.append((num, den))
    return out


# ---------------------------------------------------------------------------
# decimal text of any length

_DEC_CHUNK = 600  # digits per int()/str() call, below CPython's smallest settable limit (640)
MAX_POWER_BITS = 1 << 22  # largest a^e or 10^e (in 1e5) a term's text may ask for, about 1.26 million digits


def _digits_to_int(digits: str) -> int:
    if len(digits) <= _DEC_CHUNK:
        return int(digits)
    half = len(digits) // 2
    return _digits_to_int(digits[:-half]) * 10**half + _digits_to_int(digits[-half:])


def int_from_dec(text: str) -> int:
    """int(text), with an optionally signed string of decimal digits read
    chunk by chunk; ValueError where int() raises it."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not digits.isdecimal():
        return int(text)  # the other forms int() reads, such as 1_000
    n = _digits_to_int(digits)
    return -n if text[0] == "-" else n


def dec_str(n: int) -> str:
    """str(n) for an int of any size, split in halves by powers of ten."""
    if n < 0:
        return "-" + dec_str(-n)
    half = n.bit_length() * 3 // 20  # about half the digit count (log10 2 > 0.3)
    if half < _DEC_CHUNK // 2:
        return str(n)
    hi, lo = divmod(n, 10**half)
    return dec_str(hi) + dec_str(lo).rjust(half, "0")


def fraction_from_dec(text: str) -> Fraction:
    """Fraction(text), with 'a', 'a/b' (b unsigned) and 'a.b' with an
    optional exponent, such as 1.5 or -2e-3, read digit chunk by chunk; an
    exponent e with 10^e past MAX_POWER_BITS bits is refused before it is
    built.  Other forms, such as 1_000.5, as Fraction reads them."""
    num, slash, den = text.partition("/")
    if not slash or den.isdecimal():
        try:
            return Fraction(int_from_dec(num), _digits_to_int(den) if slash else 1)
        except ValueError:
            pass
    mantissa, e, exp = text.upper().partition("E")
    shift = int_from_dec(exp) if e and not slash else 0
    if abs(shift) > MAX_POWER_BITS * math.log10(2):
        raise UsageError(f"exponent exceeds the size limit MAX_POWER_BITS = {MAX_POWER_BITS} bits")
    sign = mantissa[:1] if mantissa[:1] in ("+", "-") else ""
    whole, _, frac = mantissa[len(sign):].partition(".")
    if slash or not (whole + frac).isdecimal():
        return Fraction(text)
    v = _digits_to_int(whole + frac) * Fraction(10) ** (shift - len(frac))
    return -v if sign == "-" else v


def fraction_str(v: Fraction) -> str:
    """str(v) for a Fraction of any size."""
    return dec_str(v.numerator) if v.denominator == 1 else f"{dec_str(v.numerator)}/{dec_str(v.denominator)}"
