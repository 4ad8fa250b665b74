"""Search driver: guesses defining equations from initial terms.

Given the first terms of a sequence of rationals (or of rational
functions in q), tries growing equation schemas and coefficient-degree
splits until a modularly-solved candidate survives exact verification
against every supplied term.  One entry point per equation class:

  guess_rat    rational closed form f(n) = p(n)/q(n)
  guess_pade   rational generating function
  guess_prec   linear recurrence with polynomial coefficients
  guess_rec    polynomial (nonlinear) recurrence
  guess_holo   linear differential equation with polynomial coefficients
  guess_alg    algebraic equation for the generating function
  guess_ade    algebraic differential equation
  guess_fe     Mahler-type functional equation f(x), f(x^2), ...

plus guess(), which composes a base guesser with summation / product
operators, undoing term-wise differences and quotients.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import BadModulus, NoSolution, SchemaExhausted, UsageError
from .lift import LiftOptions, do_solve
from .modarith import ModPrime, sample_prime
from .models import (
    CLASS_NAMES,
    Schema,
    _to_field,
    build_images,
    build_schema,
    check_images,
)
from .rings import QQ, QQ_T, ZZ, RatPoly, peval, pmul_trunc, pscale, psub


@dataclass
class Options:
    """Search knobs.  None on a cap means unbounded ("arbitrary")."""

    max_shift: int | None = None
    max_derivative: int | None = None
    max_power: int | None = None
    max_degree: int | None = None
    max_level: int | None = None
    homogeneous: bool | int = False
    somos: bool | int = False
    all_degrees: bool | None = None  # None: class default (rat/pade yes)
    max_mixed_degree: int = 0
    safety: int = 1
    check: str = "deterministic"  # "deterministic" | "montecarlo" | "none"
    check_extra_values: bool = True
    one: bool = True
    function_name: str = "f"
    index_name: str = "n"
    variable_name: str = "x"
    debug: bool = False
    seed: int = 0


@dataclass
class GuessResult:
    """One guessed equation: schema monomials with their coefficients.

    coeffs[l] is the dense coefficient list of the polynomial multiplying
    schema.monomials[l], in the point variable (the index n, the series
    variable x, or q^n), over Q or Q(q).  Empty list = monomial unused.
    """

    schema: Schema
    coeffs: list
    ic_kind: str  # "none" | "terms" | "taylor" | "prefix"
    ics: tuple
    checked: str  # "deterministic" | "montecarlo" | "unchecked"
    names: tuple  # (function, index, variable)

    @property
    def klass(self) -> str:
        return self.schema.klass

    @property
    def q(self) -> bool:
        return self.schema.q

    def __str__(self) -> str:
        from .render import render_text

        return render_text(self)


@dataclass(frozen=True)
class OperatorExpr:
    """A guess wrapped in inverted difference / quotient operators.

    sum:      f(n) = base + sum of child(v) for v in [0, n)
    product:  f(n) = base * product of child(v) for v in [0, n-offset),
              with f(n) = 0 for n < offset (stripped leading zeros)
    """

    kind: str  # "leaf" | "sum" | "product"
    child: object  # GuessResult for a leaf, else OperatorExpr
    base: object = None
    offset: int = 0

    def __str__(self) -> str:
        from .render import render_operator

        return render_operator(self)


def _options(opts, kw) -> Options:
    if opts is None:
        return Options(**kw)
    return replace(opts, **kw) if kw else opts


def _validate(opts: Options):
    if opts.safety < 0:
        raise UsageError("safety must be nonnegative")
    if opts.check not in ("deterministic", "montecarlo", "none"):
        raise UsageError(f"unknown check mode {opts.check!r}")
    if opts.max_mixed_degree < 0:
        raise UsageError("max_mixed_degree must be nonnegative")
    for name in ("max_shift", "max_derivative", "max_power", "max_degree", "max_level"):
        cap = getattr(opts, name)
        if cap is not None and cap < 0:
            raise UsageError(f"{name} must be nonnegative")
    if opts.somos is not False and opts.homogeneous is True:
        raise UsageError("somos needs an integer homogeneous degree, not homogeneous=true")
    if not isinstance(opts.homogeneous, bool) and opts.homogeneous < 0:
        raise UsageError("homogeneous degree must be nonnegative")


def _coerce_terms(terms, q: bool) -> list:
    out = []
    for t in terms:
        if isinstance(t, RatPoly):
            if not q:
                raise UsageError("rational-function terms need q mode")
            out.append(t)
        elif q:
            out.append(RatPoly.coerce(t))
        else:
            out.append(Fraction(t))
    if len(out) < 2:
        raise UsageError("need at least two terms")
    return out


def _dbg(msg: str):
    print(f"[seqguess] {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# degree vectors


def enumerate_degree_vectors(total: int, m: int, cap: int, all_degrees: bool) -> list[tuple[int, ...]]:
    """Coefficient-count vectors (degree+1 per monomial) summing to total.

    all_degrees: every composition into m parts in [1, cap], most
    balanced first (smallest maximum, then lexicographic).  Otherwise
    the single balanced split, larger components first.  Empty when no
    composition fits.
    """
    if m < 1 or total < m or total > m * cap:
        return []
    if not all_degrees:
        base, extra = divmod(total, m)
        return [tuple(base + 1 if i < extra else base for i in range(m))]
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], rem: int, slots: int):
        if slots == 0:
            if rem == 0:
                out.append(tuple(prefix))
            return
        lo = max(1, rem - (slots - 1) * cap)
        hi = min(cap, rem - (slots - 1))
        for v in range(lo, hi + 1):
            prefix.append(v)
            rec(prefix, rem - v, slots - 1)
            prefix.pop()

    rec([], total, m)
    out.sort(key=lambda v: (max(v), v))
    return out


# ---------------------------------------------------------------------------
# exact verification


def _valuation(coeffs, F) -> int:
    for i, c in enumerate(coeffs):
        if not F.is_zero(c):
            return i
    raise ValueError("zero polynomial has no valuation")


def _first_failure(coeffs, schema: Schema, streams, points, F):
    """First condition the candidate violates, or None when all hold.

    Checks every condition the data determines: for sequences, rows
    where all used monomial values exist; for series, coefficients up to
    min over used monomials of (stream length + coefficient valuation).
    """
    used = [l for l, c in enumerate(coeffs) if c]
    if not used:
        return (0, F.one)  # the zero combination guesses nothing
    if schema.series:
        order = min(len(streams[l]) + _valuation(coeffs[l], F) for l in used)
        total = [F.zero] * order
        for l in used:
            prod = pmul_trunc(coeffs[l], streams[l], order, F)
            total = [F.add(a, b) for a, b in zip(total, prod)]
        for i, v in enumerate(total):
            if not F.is_zero(v):
                return (i, v)
        return None
    rows = min(len(streams[l]) for l in used)
    for i in range(rows):
        s = F.zero
        for l in used:
            s = F.add(s, F.mul(peval(coeffs[l], points[i], F), streams[l][i]))
        if not F.is_zero(s):
            return (i, s)
    return None


def _exact_images(terms, schema: Schema):
    """Streams for the exact check, with the scale D of their terms.

    Over Q and Q[[x]] the terms are scaled by D, the lcm of their
    denominators, and the streams built over ZZ.  Every atom is linear
    in f, so the stream of a monomial of degree k is D^k times the
    rational one.  q mode stays over QQ_T with D = 1.
    """
    if schema.q:
        return (*check_images(terms, schema, QQ_T), 1)
    D = math.lcm(*(t.denominator for t in terms))
    return (*check_images([t.numerator * (D // t.denominator) for t in terms], schema, ZZ), D)


def _exact_failure(col, schema: Schema, exact):
    """_first_failure of a Q or Q(q) column against _exact_images.

    Over ZZ, coefficient list l is scaled by L * D^(K - k_l), with L the
    lcm of the column's denominators, K the largest monomial degree and
    k_l the degree of monomial l.  Every condition is then L * D^K times
    the rational one, so the failure value is divided back by that.
    """
    streams, points, D = exact
    if schema.q:
        return _first_failure(col, schema, streams, points, QQ_T)
    K = max(mo.degree for mo in schema.monomials)
    L = math.lcm(*(c.denominator for cs in col for c in cs))
    scales = [L * D ** (K - mo.degree) for mo in schema.monomials]
    scaled = [[c.numerator * (s // c.denominator) for c in cs] for cs, s in zip(col, scales)]
    fail = _first_failure(scaled, schema, streams, points, ZZ)
    return None if fail is None else (fail[0], Fraction(fail[1], L * D**K))


def filter_interpolating(columns, schema: Schema, terms, check_extra_values: bool = True, exact=None):
    """Keep solution columns that annihilate every supplied term.

    Rejected basis columns are additionally retried pairwise: when two
    columns first fail at the same condition, the combination cancelling
    that condition is tested in full.  A modular basis can split one
    interpolating solution across two non-interpolating basis vectors;
    the pairwise combination recovers it.  `exact` is the output of
    _exact_images, built here when not given.
    """
    if not check_extra_values:
        return list(columns)
    F = QQ_T if schema.q else QQ
    if exact is None:
        exact = _exact_images(terms, schema)
    passed, rejected = [], []
    for col in columns:
        fail = _exact_failure(col, schema, exact)
        if fail is None:
            passed.append(col)
        else:
            rejected.append((col, fail))
    for (ci, fi), (cj, fj) in itertools.combinations(rejected, 2):
        if fi[0] != fj[0]:
            continue
        combo = [psub(pscale(a, fj[1], F), pscale(b, fi[1], F), F) for a, b in zip(ci, cj)]
        if any(combo) and _exact_failure(combo, schema, exact) is None:
            passed.append(combo)
    return passed


def check_deterministic(result: GuessResult, terms) -> bool:
    """Exact check of the equation against all checkable conditions."""
    schema = result.schema
    terms = _coerce_terms(terms, schema.q)
    return _exact_failure(result.coeffs, schema, _exact_images(terms, schema)) is None


def check_monte_carlo(result: GuessResult, terms, trials: int = 3, seed: int = 0) -> bool:
    """Modular spot check at fresh primes (and fresh q points in q mode).

    False is conclusive; True only says no counterexample was found.
    """
    schema = result.schema
    terms = _coerce_terms(terms, schema.q)
    rng = random.Random(seed)
    used: set[int] = set()
    done = 0
    for _ in range(20 * trials):
        if done >= trials:
            break
        p = sample_prime(31, exclude=used, rng=rng)
        used.add(p)
        fp = ModPrime(p)
        q_point = rng.randrange(1, p) if schema.q else None
        try:
            streams, points = check_images(terms, schema, fp, q_point)
            coeffs = [[_to_field(c, fp, q_point) for c in cs] for cs in result.coeffs]
        except BadModulus:
            continue
        if _first_failure(coeffs, schema, streams, points, fp) is not None:
            return False
        done += 1
    return done >= trials


# ---------------------------------------------------------------------------
# the search


def _lift_options(opts: Options) -> LiftOptions:
    return LiftOptions(seed=opts.seed, debug=_dbg if opts.debug else None)


def _make_builder(terms, schema: Schema):
    """Image builder for one schema; each (prime, q point) is built once.

    Every degree vector of the schema starts from the same primes (and,
    in q mode, the same points), so later vectors reuse the images.
    """
    images: dict = {}

    def builder(fp, t_point):
        key = (fp.p, t_point)
        if key not in images:
            images[key] = build_images(terms, schema, fp, q_point=t_point)
        return images[key]

    return builder


def _factorial_scaled(k: int, value):
    return Fraction(math.factorial(k)) * value


def _make_result(col, schema: Schema, terms, opts: Options, checked: str) -> GuessResult:
    klass = schema.klass
    used = [mo for mo, c in zip(schema.monomials, col) if c]
    max_part = max((max(mo.parts) for mo in used if mo.parts), default=1)
    if klass in ("rec", "prec"):
        ic_kind, ics = "terms", tuple((k, terms[k]) for k in range(max_part - 1))
    elif schema.series and (schema.q or klass == "fe"):
        prefix = (len(terms) + 2) // 2
        ic_kind, ics = "prefix", tuple(terms[:prefix])
    elif klass in ("holo", "ade", "alg"):
        count = max(1, max_part - 1)
        ic_kind, ics = "taylor", tuple((k, _factorial_scaled(k, terms[k])) for k in range(count))
    else:
        ic_kind, ics = "none", ()
    return GuessResult(
        schema=schema,
        coeffs=[list(c) for c in col],
        ic_kind=ic_kind,
        ics=ics,
        checked=checked,
        names=(opts.function_name, opts.index_name, opts.variable_name),
    )


def _budget(col, m: int, all_deg: bool) -> int:
    """Smallest unknown-total whose degree vector holds this solution.

    Solutions from different schema sizes are ranked by this number: an
    equation needing fewer coefficients wins even if a larger (more
    degree freedom) fit turned up at a smaller schema first.
    """
    needed = [max(len(c), 1) for c in col]
    base = sum(needed)
    if all_deg:
        return base
    b = max(base, m)
    while True:
        div, rem = divmod(b, m)
        bal = [div + 1] * rem + [div] * (m - rem)
        if all(x >= n for x, n in zip(bal, needed)):
            return b
        b += 1


def _search(terms, klass: str, opts: Options, q: bool) -> list[GuessResult]:
    N = len(terms)
    domain = "polyrational" if q else "rational"
    all_deg = opts.all_degrees if opts.all_degrees is not None else klass in ("rat", "pade")
    scored: list[tuple[tuple, GuessResult]] = []
    best_budget: int | None = None
    serial = itertools.count()
    for m in itertools.count(2):
        if best_budget is not None and m > best_budget:
            break  # a schema of size m needs at least m coefficients
        try:
            schema = build_schema(klass, opts, m, q=q)
        except SchemaExhausted:
            break
        sigma = N - schema.loss
        total = sigma + 1 - opts.safety
        if total < m:
            break  # losses only grow with the schema, so larger m cannot fit
        cap = total if opts.max_degree is None else min(total, opts.max_degree + 1)
        if total > m * cap:
            total = m * cap  # degree caps bind; surplus data stays as checks
        vectors = enumerate_degree_vectors(total, m, cap, all_deg)
        if opts.debug:
            _dbg(f"{klass} m={m} sigma={sigma} unknowns={total} vectors={len(vectors)}")
        builder = _make_builder(terms, schema)
        exact = None  # built on the first candidate that needs checking
        verdicts: dict = {}  # lifted columns -> filter_interpolating output
        for bounds in vectors:
            if opts.debug:
                _dbg(f"  bounds {bounds}")
            try:
                lifted = do_solve(builder, list(bounds), domain, _lift_options(opts))
            except NoSolution:
                continue
            if exact is None:
                exact = _exact_images(terms, schema)
            key = tuple(tuple(map(tuple, col)) for col in lifted.columns)
            if key not in verdicts:
                verdicts[key] = filter_interpolating(lifted.columns, schema, terms, opts.check_extra_values, exact)
            cols = verdicts[key]
            for col in cols:
                if opts.check == "deterministic":
                    if not opts.check_extra_values and _exact_failure(col, schema, exact) is not None:
                        continue
                    checked = "deterministic"
                elif opts.check == "montecarlo":
                    checked = "montecarlo"
                else:
                    checked = "unchecked"
                res = _make_result(col, schema, terms, opts, checked)
                if opts.check == "montecarlo" and not check_monte_carlo(res, terms, seed=opts.seed):
                    continue
                b = _budget(res.coeffs, m, all_deg)
                scored.append(((b, m, next(serial)), res))
                if best_budget is None or b < best_budget:
                    best_budget = b
    scored.sort(key=lambda pair: pair[0])
    results = [r for _, r in scored]
    return results[:1] if opts.one and results else results


def _somos_values(opts: Options) -> range:
    if opts.max_shift is None:
        raise UsageError("somos=true needs max_shift")
    h = opts.homogeneous
    count = h if (h is not True and h is not False and isinstance(h, int)) else opts.max_power
    if count is None:
        raise UsageError("somos=true needs max_power or an integer homogeneous degree")
    return range(2, opts.max_shift * count + 1)


def guess_class(terms, klass: str, opts: Options | None = None, *, q: bool = False, **kw) -> list[GuessResult]:
    """Guess equations of one class; empty list when nothing fits."""
    if klass not in CLASS_NAMES:
        raise UsageError(f"unknown class {klass!r}")
    opts = _options(opts, kw)
    _validate(opts)
    terms = _coerce_terms(terms, q)
    if opts.somos is True:
        results = []
        for s in _somos_values(opts):
            results.extend(_search(terms, klass, replace(opts, somos=s), q))
            if results and opts.one:
                return results
        return results
    return _search(terms, klass, opts, q)


def guess_rat(terms, opts: Options | None = None, *, q: bool = False, **kw):
    return guess_class(terms, "rat", opts, q=q, **kw)


def guess_pade(terms, opts: Options | None = None, *, q: bool = False, **kw):
    return guess_class(terms, "pade", opts, q=q, **kw)


def guess_prec(terms, opts: Options | None = None, *, q: bool = False, **kw):
    return guess_class(terms, "prec", opts, q=q, **kw)


def guess_rec(terms, opts: Options | None = None, *, q: bool = False, **kw):
    return guess_class(terms, "rec", opts, q=q, **kw)


def guess_holo(terms, opts: Options | None = None, *, q: bool = False, **kw):
    return guess_class(terms, "holo", opts, q=q, **kw)


def guess_alg(terms, opts: Options | None = None, *, q: bool = False, **kw):
    return guess_class(terms, "alg", opts, q=q, **kw)


def guess_ade(terms, opts: Options | None = None, *, q: bool = False, **kw):
    return guess_class(terms, "ade", opts, q=q, **kw)


def guess_fe(terms, opts: Options | None = None, *, q: bool = False, **kw):
    return guess_class(terms, "fe", opts, q=q, **kw)


# ---------------------------------------------------------------------------
# operator search


def _resolve_guesser(g):
    if callable(g):
        return g
    if isinstance(g, str) and g in CLASS_NAMES:
        def run(terms, opts, _klass=g):
            return guess_class(terms, _klass, opts)

        return run
    raise UsageError(f"unknown guesser {g!r}")


def _op_dfs(terms, depth: int, guessers, ops, opts: Options) -> list[OperatorExpr]:
    if len(terms) >= 2:
        for g in guessers:
            res = g(terms, opts)
            if res:
                return [OperatorExpr("leaf", res[0])]
    if opts.max_level is not None and depth >= opts.max_level:
        return []
    if len(terms) < 3:
        return []
    if "sum" in ops:
        diffs = [terms[i + 1] - terms[i] for i in range(len(terms) - 1)]
        sub = _op_dfs(diffs, depth + 1, guessers, ops, opts)
        if sub:
            return [OperatorExpr("sum", sub[0], base=terms[0])]
    if "product" in ops:
        z = 0
        while z < len(terms) and terms[z] == 0:
            z += 1
        rest = terms[z:]
        if len(rest) >= 3 and all(t != 0 for t in rest):
            ratios = [rest[i + 1] / rest[i] for i in range(len(rest) - 1)]
            sub = _op_dfs(ratios, depth + 1, guessers, ops, opts)
            if sub:
                return [OperatorExpr("product", sub[0], base=rest[0], offset=z)]
    return []


def guess(terms, guessers=("rat",), operators=("sum", "product"), opts: Options | None = None, **kw) -> list[OperatorExpr]:
    """Compose base guessers with difference / quotient inversion.

    Tries the base guessers on the terms; on failure, recurses on the
    difference sequence (undone by a sum) and on the quotient sequence
    (undone by a product; requires no interior zeros, leading zeros are
    stripped and recorded).  Each level shortens the data by one term,
    so the recursion is bounded even without max_level.
    """
    opts = _options(opts, kw)
    _validate(opts)
    for op in operators:
        if op not in ("sum", "product"):
            raise UsageError(f"unknown operator {op!r}")
    resolved = [_resolve_guesser(g) for g in guessers]
    if not resolved:
        raise UsageError("guess needs at least one base guesser")
    try:
        terms = [Fraction(t) for t in terms]
    except TypeError:
        raise UsageError("operator search needs plain rational terms") from None
    return _op_dfs(terms, 0, resolved, tuple(operators), opts)
