"""Seeded inputs for the four benchmark workloads.

Each workload is a fixed list of `Case`s built from the workload seed.  A
case holds the call to make (seqguess only ever receives the terms), the
name of the entry point, and what the benchmark expects back:

  golden    the rendered first result must equal a fixed string
  none      no guess at all
  planted   the first result must annihilate `full` (the given terms plus
            held-out ones) under check.py's own evaluator, with an order
            no larger than `max_order`
  operator  the first result, an operator expression, must reproduce
            `full` under check.py's own evaluator

`Options.seed` is never set, so seqguess runs with its default seed.
`tiny=True` shrinks the larger inputs so the harness self-test runs in seconds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("seq_kernel", "series_verify", "bigcoef_lift", "search_sweep")


@dataclass
class Expect:
    kind: str  # "golden" | "none" | "planted" | "operator"
    text: str = ""
    full: list | None = None  # terms, or q-polynomials as int coefficient lists
    max_order: int = 0  # shift / derivative order, or degree in f for alg
    order_of: str = "shift"  # "shift" | "degree": how max_order is measured
    q: bool = False


@dataclass
class Case:
    label: str
    entry: str  # the seqguess entry point, e.g. "guess_prec" or "guess"
    run: Callable[[], list]
    expect: Expect


# ---------------------------------------------------------------------------
# generators, independent of seqguess


def gen_prec_terms(order: int, deg: int, count: int, rng: random.Random, digits: int = 0) -> list[int]:
    """Terms of f(n+order) = -sum_k c_k(n) f(n+k), c_k random of degree deg.

    The leading coefficient is the constant 1, so the terms are integers
    and are generated forward without division.  With `digits` > 0 the
    coefficients of the c_k are random integers of that many digits,
    otherwise they lie in [-10, 10] as in tests/oracles.gen_prec_terms.
    """
    if digits:
        lo, hi = 10 ** (digits - 1), 10**digits - 1

        def draw():
            return rng.choice((-1, 1)) * rng.randint(lo, hi)

    else:

        def draw():
            return rng.randint(-10, 10)

    coeffs = [[draw() for _ in range(deg + 1)] for _ in range(order)]
    terms = [rng.randint(1, 5) for _ in range(order)]
    while len(terms) < count:
        n = len(terms) - order
        acc = 0
        for k in range(order):
            cval = sum(c * n**e for e, c in enumerate(coeffs[k]))
            acc += cval * terms[n + k]
        terms.append(-acc)
    return terms


def gen_cubic_series(count: int, rng: random.Random) -> list[int]:
    """Coefficients of the power series f = 1 + x*Q(x, f), Q cubic in f.

    Q(x, y) = sum_{i<=1, j<=3} q_ij x^i y^j with small random integers,
    q_03 != 0 and Q(0, 1) != 0, so f is not constant and satisfies a cubic
    equation P(x, f) = 0 of degree 2 in x.  The coefficient of x^n only
    needs f_0..f_{n-1}.
    """
    q = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
    q[0][3] = rng.choice((-2, -1, 1, 2))
    while sum(q[0]) == 0:  # Q(0, 1) = 0 can leave f = 1, a constant
        q[0][0] = rng.randint(-3, 3)
    f = [1]
    powers: list[list[int]] = [[], [], [], []]  # powers[j][k] = [x^k] f^j, j = 0..3
    while len(f) < count:
        n = len(f)
        # [x^(n-1)] f^j for j = 0..3, from f_0..f_(n-1)
        powers[0].append(1 if n == 1 else 0)
        powers[1].append(f[n - 1])
        for j in (2, 3):
            powers[j].append(sum(f[i] * powers[j - 1][n - 1 - i] for i in range(n)))
        coef = 0
        for i in range(2):
            k = n - 1 - i
            if k >= 0:
                coef += sum(q[i][j] * powers[j][k] for j in range(4))
        f.append(coef)
    return f


def _pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def gaussian_binomials(count: int) -> list[list[int]]:
    """[2n, n]_q for n < count, as integer coefficient lists in q (q-Pascal)."""
    rows = [[[1]]]  # rows[n][k] = [n, k]_q
    for n in range(1, 2 * count):
        prev = rows[-1]
        row = []
        for k in range(n + 1):
            a = prev[k - 1] if k >= 1 else []
            b = ([0] * k + prev[k]) if k < n else []
            size = max(len(a), len(b))
            row.append([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(size)])
        rows.append(row)
    return [rows[2 * n][n] for n in range(count)]


def qint_cubes(count: int) -> list[list[int]]:
    """[n]_q^3 = (1 + q + ... + q^(n-1))^3 for n < count."""
    out = []
    for n in range(count):
        base = [1] * n
        out.append(_pmul(_pmul(base, base), base) if n else [])
    return out


def planted_operator(count: int, rng: random.Random) -> tuple[list[int], str]:
    """f(n) = c + sum_{s<n} prod_{p<s} (a*p + b): a sum of products of a rat leaf."""
    a, b, c = rng.randint(1, 3), rng.randint(1, 5), rng.randint(0, 3)
    terms = [c]
    prod = 1
    for s in range(count - 1):
        terms.append(terms[-1] + prod)
        prod *= a * s + b
    return terms, f"{c} + sum prod ({a}p + {b})"


# ---------------------------------------------------------------------------
# fixed goldens, copied from tests/test_acceptance.py


def _sine(count: int) -> list[Fraction]:
    sine = [Fraction(0), Fraction(1)]
    while len(sine) < count:
        k = len(sine)
        sine.append(Fraction(0) if k % 2 == 0 else -sine[-2] / (k * (k - 1)))
    return sine


_BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]
_BELL_EGF = [Fraction(b, math.factorial(k)) for k, b in enumerate(_BELL)]
_TREE = [0, 1, 1, 1, 2, 3, 6, 11, 23]
_NN = [Fraction(1), Fraction(1), Fraction(2), Fraction(9, 2), Fraction(32, 3), Fraction(625, 24),
       Fraction(324, 5), Fraction(117649, 720), Fraction(131072, 315), Fraction(4782969, 4480)]

# (entry point, terms, keyword arguments, expected text; "" = no guess)
TEXTBOOK = (
    ("guess_rat", [0, 1, 4, 9], {}, "[f(n): f(n) = n^2]"),
    ("guess_pade", [1, 1, 2, 3, 5], {}, "[[x^n]f(x): (x^2 + x - 1)f(x) + 1 = 0]"),
    ("guess_alg", [1, 1, 2, 5, 14, 42], {}, "[[x^n]f(x): xf(x)^2 - f(x) + 1 = 0, f(0)= 1]"),
    ("guess_rec", [1, 1, 0, 1, -1, 2, -1, 5, -4, 29, -13, 854, -685], {},
     "[f(n): f(n+2) + f(n+1) - f(n)^2 = 0, f(0)= 1, f(1)= 1]"),
    ("guess_prec", _sine(14), {}, "[f(n): (n^2 + 3n + 2)f(n+2) + f(n) = 0, f(0)= 0, f(1)= 1]"),
    ("guess_holo", _sine(6), {}, "[[x^n]f(x): f''(x) + f(x) = 0, f(0)= 0, f'(0)= 1]"),
    ("guess_fe", _TREE, {},
     "[[x^n]f(x): f(x^2) + f(x)^2 - 2f(x) + 2x = 0, f(x) = x + x^2 + x^3 + 2x^4 + O(x^5)]"),
    ("guess_fe", _TREE[:6], {},
     "[[x^n]f(x): f(x^2) + f(x)^2 - 2f(x) + 2x = 0, f(x) = x + x^2 + x^3 + O(x^4)]"),
    ("guess_ade", _NN, {}, "[[x^n]f(x): xf'(x) - f(x)^3 + f(x)^2 = 0, f(0)= 1]"),
    ("guess_ade", _BELL_EGF, {}, "[[x^n]f(x): f''(x)f(x) - f'(x)^2 - f'(x)f(x) = 0, f(0)= 1, f'(0)= 1]"),
    ("guess_ade", _BELL_EGF[:12], {}, ""),
    ("guess", [0, 1, 3, 9, 33], {}, "[f(n): f(n) = sum_{s=0}^{n-1} prod_{p=0}^{s-1} (p + 2)]"),
    ("guess", [1, 1, 2, 7, 42, 429, 7436, 218348], {"operators": ("product",)},
     "[f(n): f(n) = prod_{p=0}^{n-1} prod_{q=0}^{p-1} ((27q^2 + 54q + 24)/(16q^2 + 32q + 12))]"),
)

Q_FACTORIAL = "[f(n): f(n+1) + (-n - 1)q^(2n)f(n) = 0, f(0)= 1]"


# ---------------------------------------------------------------------------
# workloads


def _call(sg, entry: str, terms, **kw) -> Callable[[], list]:
    fn = getattr(sg, entry)
    return lambda: fn(terms, **kw)


def _planted_prec(sg, label, order, deg, fit, held, rng, digits=0) -> Case:
    full = gen_prec_terms(order, deg, fit + held, rng, digits)
    run = _call(sg, "guess_prec", full[:fit], homogeneous=1, max_shift=order, max_degree=deg)
    return Case(label, "guess_prec", run, Expect("planted", full=full, max_order=order))


def seq_kernel(sg, rng: random.Random, tiny: bool) -> list[Case]:
    """Order-basis kernel at scale: sequence-form P-recursive fits."""
    orders = (2, 3) if tiny else (5, 6, 7, 8)
    cases = []
    for r in orders:
        d = 2 * r
        fit = (d + 1) * (r + 1) + r  # unknowns of the order-r schema plus its shift loss
        cases.append(_planted_prec(sg, f"prec order {r} degree {d}", r, d, fit, 20, rng))
    return cases


def series_verify(sg, rng: random.Random, tiny: bool) -> list[Case]:
    """Series-form solves, wide normal forms, exact Q[[x]] / Q(q) checks, q-points."""
    n_holo, n_alg = 40, 26  # holo needs 38 terms to pin the planted order-3 equation
    held = 20
    holo = gen_prec_terms(3, 3, n_holo + held, rng)
    alg = gen_cubic_series(n_alg + held, rng)
    n_gauss, n_cube = 12, 10
    gauss = gaussian_binomials(n_gauss + 4)
    cubes = qint_cubes(n_cube + 4)
    RP = sg.RatPoly.make
    qfact = [RP([0] * (n * (n - 1)) + [math.factorial(n)]) for n in range(8)]
    return [
        Case("holo from order-3 degree-3 recurrence", "guess_holo", _call(sg, "guess_holo", holo[:n_holo]),
             Expect("planted", full=holo, max_order=3)),
        Case("alg cubic", "guess_alg", _call(sg, "guess_alg", alg[:n_alg]),
             Expect("planted", full=alg, max_order=3, order_of="degree")),
        Case("q gaussian [2n,n]_q", "guess_prec",
             _call(sg, "guess_prec", [RP(p) for p in gauss[:n_gauss]], q=True, max_shift=1),
             Expect("planted", full=gauss, max_order=1, q=True)),
        Case("q [n]_q^3", "guess_rat", _call(sg, "guess_rat", [RP(p) for p in cubes[:n_cube]], q=True),
             Expect("planted", full=cubes, max_order=1, q=True)),
        Case("q factorial mixed", "guess_prec",
             _call(sg, "guess_prec", qfact, q=True, max_mixed_degree=2, homogeneous=True),
             Expect("golden", text=Q_FACTORIAL)),
    ]


def bigcoef_lift(sg, rng: random.Random, tiny: bool) -> list[Case]:
    """Tiny order bases with 150-400 digit coefficients: 35-90 primes per solve."""
    shapes = ((2, 1, 40, 8),) if tiny else ((3, 4, 200, 30), (2, 3, 400, 16), (4, 2, 150, 30))
    return [_planted_prec(sg, f"prec order {r} degree {d}, {dig} digits", r, d, n, 10, rng, dig)
            for r, d, dig, n in shapes]


def search_sweep(sg, rng: random.Random, tiny: bool) -> list[Case]:
    """Many small solves, mostly NoSolution: goldens, a degree sweep, operator search."""
    cases = []
    for entry, terms, kw, text in (TEXTBOOK[:3] if tiny else TEXTBOOK):
        exp = Expect("golden", text=text) if text else Expect("none")
        cases.append(Case(f"golden {entry} {text or 'no guess'}", entry, _call(sg, entry, terms, **kw), exp))
    n_rat = 20 if tiny else 60
    rat = [Fraction(n**3 + 1, n**2 + 5) for n in range(n_rat + 20)]
    cases.append(Case("rat (n^3+1)/(n^2+5)", "guess_rat", _call(sg, "guess_rat", rat[:n_rat]),
                      Expect("planted", full=rat, max_order=1)))
    n_rand = 6 if tiny else 10
    for k in range(2):
        # nonzero, so the product branch stays open at the top and every
        # seed searches a tree of the same size (2^(n-1) - 1 nodes)
        terms = [rng.choice((-1, 1)) * rng.randint(1, 50) for _ in range(n_rand)]
        cases.append(Case(f"operator search on random terms #{k}", "guess", _call(sg, "guess", terms),
                          Expect("none")))
    full, desc = planted_operator(14, rng)
    cases.append(Case(f"operator search on {desc}", "guess", _call(sg, "guess", full[:9]),
                      Expect("operator", full=full)))
    return cases


BUILDERS = {
    "seq_kernel": seq_kernel,
    "series_verify": series_verify,
    "bigcoef_lift": bigcoef_lift,
    "search_sweep": search_sweep,
}


def build(name: str, seed: int, sg, tiny: bool = False) -> list[Case]:
    """The case list of one workload; `sg` is the imported seqguess package."""
    return BUILDERS[name](sg, random.Random(f"{name}:{seed}"), tiny)
