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

Exact values enter Z_p and ZZ in one place, _TermImages: the search, the
exact check and the Monte Carlo check all read their terms from it.

The degree splits of a pair schema (streams (1, s)) share one remainder
sequence per image and the lift of its rows: _search gives lift.do_solve
one row store per such schema, next to its image builder.  One scan of
the schema's first image (lift.pair_splits) settles the splits that have
no solution column there; only the others reach do_solve.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import BadModulus, NoSolution, SchemaExhausted, UsageError
from .hermite_pade import remainder_rows
from .lift import PRIME_BITS, LiftOptions, do_solve, pair_splits
from .modarith import ModPrime, sample_prime
from .models import CLASS_NAMES, Schema, build_images, build_schema, check_images
from .rings import QQ, ZZ, RatPoly, clear_denominators, peval, pmul, pmul_trunc, pscale, psub


# A pair schema shares one remainder sequence per image among its degree
# splits when it has at most this many conditions per split; above that,
# one numpy order basis per split is cheaper (measured).
PAIR_SIGMA_PER_SPLIT = 5


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
    return list(_sorted_compositions(total, m, cap))


@functools.lru_cache(maxsize=64)
def _sorted_compositions(total: int, m: int, cap: int) -> tuple:
    """The compositions in enumerate_degree_vectors' order, memoized: the
    nodes of one length in an operator search read the same ones."""
    return tuple(sorted(_compositions(total, m, cap), key=lambda v: (max(v), v)))


def _compositions(total: int, m: int, cap: int):
    """The compositions of total into m parts in [1, cap], as tuples."""
    if m == 1:
        if 1 <= total <= cap:
            yield (total,)
        return
    for v in range(max(1, total - (m - 1) * cap), min(cap, total - (m - 1)) + 1):
        for rest in _compositions(total - v, m - 1, cap):
            yield (v, *rest)


# ---------------------------------------------------------------------------
# exact verification


def _first_failure(coeffs, schema: Schema, streams, points, F):
    """First condition the candidate violates, or None when all hold.

    Checks every condition the data determines: for sequences, rows
    where all used monomial values exist; for series, coefficients up to
    min over used monomials of (stream length + coefficient valuation).
    A list is used when it has a nonzero entry.
    """
    nonzero = [[i for i, a in enumerate(c) if not F.is_zero(a)] for c in coeffs]
    used = [l for l, nz in enumerate(nonzero) if nz]
    if not used:
        return (0, F.one)  # the zero combination guesses nothing
    if schema.series:
        order = min(len(streams[l]) + nonzero[l][0] for l in used)
        total = [F.zero] * order
        for l in used:
            prod = pmul_trunc(coeffs[l], streams[l], order, F)
            total = [F.add(a, b) for a, b in zip(total, prod)]
        for i, v in enumerate(total):
            if not F.is_zero(v):
                return (i, v)
        return None
    rows = min(len(streams[l]) for l in used)
    total = [F.zero] * rows
    for l in used:  # list l at every row's point, by one Horner pass over the rows (plain ints over ZZ)
        vals, stream = [F.zero] * rows, streams[l]
        for c in reversed(coeffs[l]):
            vals = ([v * x + c for v, x in zip(vals, points)] if F is ZZ
                    else [F.add(F.mul(v, x), c) for v, x in zip(vals, points)])
        total = ([t + v * s for t, v, s in zip(total, vals, stream)] if F is ZZ
                 else [F.add(t, F.mul(v, s)) for t, v, s in zip(total, vals, stream)])
    for i, s in enumerate(total):
        if not F.is_zero(s):
            return (i, s)
    return None


def _clear(values, poly: bool):
    """(nums, den) with values[i] = nums[i] / den: ints, or Z[q] lists when poly."""
    if poly:
        return clear_denominators([RatPoly.coerce(v) for v in values])
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _balanced_digits(v: int, B: int) -> list:
    """The C in Z[q] with C(2^B) = v and coefficients in (-2^(B-1), 2^(B-1)]."""
    out, h = [], 1 << (B - 1)
    while v:
        out.append((v + h - 1) % (2 * h) - h + 1)
        v = (v - out[-1]) >> B
    return out


class _TermImages:
    """Exact values cleared once by D (`_clear`), and their images.

    The one way an exact value enters Z_p or ZZ: the terms of a search
    or check, or a candidate's flattened coefficients (Monte Carlo).
    Each (prime, q point) and each exact q value keeps the values in its
    field with one check_images memo, so every schema size, degree
    vector and Monte Carlo check of the search reads the same residues,
    atoms and products; each schema keeps the (norm, builds) of
    _exact_failure, and each candidate column its own store.

    `terms` may be a function that builds the exact values, called on
    first read of `terms`, `nums` or `den`; `first` = (p, residues) gives
    the values mod p without them.  An operator-search node's store has
    both (_op_dfs), so a node settled at its first image never builds,
    clears or reduces its exact terms.  `first_read` keys the first
    image a search read: the lift's choice, whose residues _op_dfs carries.
    """

    def __init__(self, terms, q: bool, first=None):
        self.q = q
        self._build = terms if callable(terms) else lambda: terms
        self.by_prime: dict = {}  # p -> D and the numerators mod p: ints, or Z[q] lists
        self.memos: dict = {}  # (p, point) -> (residues, memo), None where D vanishes; q value -> (ints, memo)
        self.schemas: dict = {}  # schema -> (norm, builds) of _exact_failure
        self.columns: dict = {}  # candidate column -> store of its flattened coefficients
        self.first_read = None
        if first is not None:
            self.memos[first[0], None] = first[1], {}
        self.size = len(self.terms) if first is None else len(first[1])

    @functools.cached_property
    def terms(self) -> list:
        return self._build()

    @functools.cached_property
    def _cleared(self) -> tuple:
        return _clear(self.terms, self.q)

    nums = property(lambda self: self._cleared[0])
    den = property(lambda self: self._cleared[1])

    def column(self, col) -> "_TermImages":
        """The store of a candidate column's flattened coefficients, made once per column."""
        key = tuple(map(tuple, col))
        if key not in self.columns:
            self.columns[key] = _TermImages([c for cs in col for c in cs], self.q)
        return self.columns[key]

    def modular(self, fp: ModPrime, point):
        key = (fp.p, point)
        if key not in self.memos:
            self.memos[key] = self._residues(fp, point)
        self.first_read = self.first_read or key
        if self.memos[key] is None:
            raise BadModulus(f"term denominator vanishes mod {fp.p} at q={point}")
        return self.memos[key]

    def reduce_for(self, fps: list[ModPrime]):
        """Over Q, by_prime for several primes at once: each cleared value
        is reduced once modulo the product of the primes not yet held, then
        that remainder once per prime."""
        fps = [fp for fp in fps if fp.p not in self.by_prime]
        P = math.prod(fp.p for fp in fps)
        cleared = [t % P for t in (self.den, *self.nums)]
        for fp in fps:
            self.by_prime[fp.p] = [t % fp.p for t in cleared]

    def _residues(self, fp: ModPrime, point):
        """Over Q one inverse of D per prime; over Q(q) the lists are
        reduced once per prime and evaluated by Horner at each point."""
        p = fp.p
        if p not in self.by_prime:
            cleared = (self.den, *self.nums)
            self.by_prime[p] = [[c % p for c in t] for t in cleared] if self.q else [t % p for t in cleared]
        den, *nums = self.by_prime[p]
        if self.q:
            den, *nums = (peval(t, point, fp) for t in (den, *nums))
        if den == 0:
            return None
        inv = pow(den, -1, p)
        return [c * inv % p for c in nums], {}

    def exact(self, x):
        """(the cleared terms over ZZ at q = x, or as they are for x None, memo)."""
        if x not in self.memos:
            self.memos[x] = [t if x is None else peval(t, x, ZZ) for t in self.nums], {}
        return self.memos[x]


def _exact_failure(col, schema: Schema, store: _TermImages):
    """_first_failure of a Q or Q(q) column against the store's terms, over ZZ.

    Every atom is linear in f, so the stream of a monomial of degree k
    built on the terms cleared by D is D^k times the rational one.  Over
    Q(q), `norm` bounds the L1 norm of every stream entry: it is the
    largest entry of the same build on the terms' L1 norms at q = 1,
    since each entry is a sum of products.  The column is cleared by L,
    the lcm of its denominators, and list l is scaled by D^(K - k_l) (K
    the largest monomial degree, k_l that of monomial l), so every
    condition is L * D^K times the rational one: an integer over Q, a
    polynomial C in Z[q] over Q(q).  C is decided at q = 2^B (Kronecker
    substitution).  With a_le the cleared coefficients and w = N at
    integer points, 1 otherwise,
      ||C||_1 <= norm * sum_l ||D||_1^(K - k_l) * sum_e ||a_le||_1 * w^e,
    and 2^(B-1) above that bound makes C(2^B) zero exactly when C is and
    gives C back from its balanced base-2^B digits.  As norm >= 1, no
    scaled coefficient vanishes at 2^B either, so series valuations
    hold.  B is rounded up to a power of two, so few builds serve a
    schema; the store keeps each schema's norm and builds.
    """
    if schema not in store.schemas:
        norm = None
        if store.q:
            streams = check_images([sum(map(abs, t)) for t in store.nums], schema, ZZ, 1)[0]
            norm = max(1, *(max(s) for s in streams))
        store.schemas[schema] = norm, {}
    norm, built = store.schemas[schema]
    D = store.den
    K = max(mo.degree for mo in schema.monomials)
    cleared = store.column(col)
    flat, L = cleared.nums, cleared.den
    it = iter(flat)
    nums = [[next(it) for _ in cs] for cs in col]
    x = None
    if store.q:
        w = len(store.nums) if schema.points_kind == "integer" else 1
        d1 = sum(map(abs, D))
        bound = norm * sum(d1 ** (K - mo.degree) * sum(sum(map(abs, a)) * w**e for e, a in enumerate(cs))
                           for cs, mo in zip(nums, schema.monomials))
        B = 1 << bound.bit_length().bit_length()
        x = 1 << B

    def at(v):
        return v if x is None else peval(v, x, ZZ)

    if x not in built:
        terms, memo = store.exact(x)
        built[x] = (*check_images(terms, schema, ZZ, x, memo=memo), at(D))
    streams, points, d = built[x]
    scales = [d ** (K - mo.degree) for mo in schema.monomials]
    fail = _first_failure([[at(a) * s for a in cs] for cs, s in zip(nums, scales)], schema, streams, points, ZZ)
    if fail is None:
        return None
    if x is None:
        return fail[0], Fraction(fail[1], L * D**K)
    for _ in range(K):
        L = pmul(L, D, ZZ)
    return fail[0], RatPoly.make(_balanced_digits(fail[1], B), L)


def filter_interpolating(columns, schema: Schema, store: _TermImages):
    """Keep solution columns that annihilate every term of the store.

    Rejected basis columns are additionally retried pairwise: when two
    columns first fail at the same condition, the combination cancelling
    that condition is tested in full.  A modular basis can split one
    interpolating solution across two non-interpolating basis vectors;
    the pairwise combination recovers it.
    """
    passed, rejected = [], []
    for col in columns:
        fail = _exact_failure(col, schema, store)
        if fail is None:
            passed.append(col)
        else:
            rejected.append((col, fail))
    for (ci, fi), (cj, fj) in itertools.combinations(rejected, 2):
        if fi[0] != fj[0]:
            continue
        combo = [psub(pscale(a, fj[1], QQ), pscale(b, fi[1], QQ), QQ) for a, b in zip(ci, cj)]
        if any(combo) and _exact_failure(combo, schema, store) is None:
            passed.append(combo)
    return passed


def check_deterministic(result: GuessResult, terms) -> bool:
    """Exact check of the equation against all checkable conditions."""
    schema = result.schema
    return _exact_failure(result.coeffs, schema, _TermImages(_coerce_terms(terms, schema.q), schema.q)) is None


def check_monte_carlo(result: GuessResult, terms, trials: int = 3, seed: int = 0) -> bool:
    """Modular spot check at fresh primes (and fresh q points in q mode).

    False is conclusive; True only says no counterexample was found.
    The terms and the flattened coefficients each enter Z_p through a
    _TermImages; a key where either has a vanishing denominator is skipped.
    """
    schema = result.schema
    return _spot_check(result, _TermImages(_coerce_terms(terms, schema.q), schema.q), trials, seed)


def _spot_check(result: GuessResult, store: _TermImages, trials: int = 3, seed: int = 0) -> bool:
    """check_monte_carlo on the terms of `store`, a search's own store included."""
    schema = result.schema
    coeffs = store.column(result.coeffs)
    rng = random.Random(seed)
    used: set[int] = set()
    done = 0
    for _ in range(20 * trials):
        if done >= trials:
            break
        # one bit below the lift's drawn primes, so the spot check never reads a
        # prime that the candidate was reconstructed or validated at
        p = sample_prime(PRIME_BITS - 1, exclude=used, rng=rng)
        used.add(p)
        fp = ModPrime(p)
        q_point = rng.randrange(1, p) if schema.q else None
        try:
            values, memo = store.modular(fp, q_point)
            flat = iter(coeffs.modular(fp, q_point)[0])
        except BadModulus:
            continue
        streams, points = check_images(values, schema, fp, q_point, memo=memo)
        if _first_failure([[next(flat) for _ in cs] for cs in result.coeffs], schema, streams, points, fp) is not None:
            return False
        done += 1
    return done >= trials


# ---------------------------------------------------------------------------
# the search


def _make_builder(store: _TermImages, schema: Schema, pair: bool = False):
    """Image builder for one schema, on the search's residues and memos:
    builder([(fp, t_point), ...]) gives per image its problem, or its
    BadModulus.

    Every degree vector of the schema starts from the same primes (and,
    in q mode, the same points), so each is cut to the schema once, and
    for a `pair` schema its remainder sequence is run once; the rows'
    lift is shared through the row store that _search keeps beside it.
    Several primes over Q (a lift batch) have the terms reduced for all
    of them at once.
    """
    images: dict = {}

    def builder(at):
        if len(at) > 1 and not store.q:
            store.reduce_for([fp for fp, _ in at])
        out = []
        for fp, t_point in at:
            key = (fp.p, t_point)
            try:
                if key not in images:
                    terms, memo = store.modular(fp, t_point)
                    prob = build_images(terms, schema, fp, q_point=t_point, memo=memo)
                    if pair:
                        prob.rows = remainder_rows(prob.streams[1], prob.sigma, fp, prob.points)
                    images[key] = prob
                out.append(images[key])
            except BadModulus as exc:
                out.append(exc.with_traceback(None))  # its traceback would hold this frame, which holds `out`
        return out

    return builder


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
        ic_kind, ics = "taylor", tuple((k, math.factorial(k) * terms[k]) for k in range(count))
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


def _search(store: _TermImages, klass: str, opts: Options) -> list[GuessResult]:
    N, q = store.size, store.q
    domain = "polyrational" if q else "rational"
    all_deg = opts.all_degrees if opts.all_degrees is not None else klass in ("rat", "pade")
    scored: list[tuple[tuple, GuessResult]] = []
    best_budget: int | None = None
    serial = itertools.count()
    lift_opts = LiftOptions(seed=opts.seed, debug=_dbg if opts.debug else None)
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
        pair = schema.pair and sigma <= PAIR_SIGMA_PER_SPLIT * len(vectors)
        builder = _make_builder(store, schema, pair)
        rows = {} if pair else None  # the schema's lifted remainder rows, shared by its splits
        if pair:  # one scan of the first image settles every split without a solution column
            vectors = pair_splits(builder, vectors, domain, lift_opts)
        verdicts: dict = {}  # lifted columns -> filter_interpolating output
        for bounds in vectors:
            if opts.debug:
                _dbg(f"  bounds {bounds}")
            try:
                lifted = do_solve(builder, list(bounds), domain, lift_opts, rows)
            except NoSolution:
                continue
            key = tuple(tuple(map(tuple, col)) for col in lifted.columns)
            if key not in verdicts:
                verdicts[key] = (filter_interpolating(lifted.columns, schema, store)
                                 if opts.check_extra_values else lifted.columns)
            for col in verdicts[key]:
                if opts.check == "deterministic":
                    if not opts.check_extra_values and _exact_failure(col, schema, store) is not None:
                        continue
                    checked = "deterministic"
                elif opts.check == "montecarlo":
                    checked = "montecarlo"
                else:
                    checked = "unchecked"
                res = _make_result(col, schema, store.terms, opts, checked)
                if opts.check == "montecarlo" and not _spot_check(res, store, seed=opts.seed):
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
    """Guess equations of one class; empty list when nothing fits.

    `terms` may also be the _TermImages of an operator-search node (guess).
    """
    if klass not in CLASS_NAMES:
        raise UsageError(f"unknown class {klass!r}")
    opts = _options(opts, kw)
    _validate(opts)
    store = terms if isinstance(terms, _TermImages) else _TermImages(_coerce_terms(terms, q), q)
    if opts.somos is True:
        results = []
        for s in _somos_values(opts):
            results.extend(_search(store, klass, replace(opts, somos=s)))
            if results and opts.one:
                return results
        return results
    return _search(store, klass, opts)


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
    """A base guesser on a node's store: guess_class on the store, or a callable on its terms."""
    if callable(g):
        return lambda store, opts: g(store.terms, opts)
    if isinstance(g, str) and g in CLASS_NAMES:
        def run(store, opts, _klass=g):
            return guess_class(store, _klass, opts)

        return run
    raise UsageError(f"unknown guesser {g!r}")


def _op_dfs(store: _TermImages, depth: int, guessers, ops, opts: Options) -> list[OperatorExpr]:
    """The search below the node whose terms `store` holds.

    A child's store carries its residues mod p, the prime of this node's
    first image (`first_read`), made in O(N) from this node's residues:
    r_(i+1) - r_i under a sum, r_(i+1) / r_i under a product; its exact
    terms are made from this node's when read.  A nonzero residue proves
    a term nonzero.  A child is exact (clears and reduces its own terms)
    when this node read no residues (a user callable guesser, or a
    denominator divisible by p) or a product divides by 0.
    """
    if store.size >= 2:
        for g in guessers:
            res = g(store, opts)
            if res:
                return [OperatorExpr("leaf", res[0])]
    if opts.max_level is not None and depth >= opts.max_level:
        return []
    if store.size < 3:
        return []
    image, pairs = store.memos.get(store.first_read) if store.first_read else None, itertools.pairwise
    r, p = (image[0], store.first_read[0]) if image else (None, None)
    if "sum" in ops:
        first = None if r is None else (p, [(b - a) % p for a, b in pairs(r)])
        diffs = _TermImages(lambda: [b - a for a, b in pairs(store.terms)], False, first)
        sub = _op_dfs(diffs, depth + 1, guessers, ops, opts)
        if sub:
            return [OperatorExpr("sum", sub[0], base=store.terms[0])]
    if "product" in ops:
        z, nonzero = 0, r is not None and all(r)
        if not nonzero:
            terms = store.terms
            while z < len(terms) and terms[z] == 0:
                z += 1
            nonzero = all(t != 0 for t in terms[z:])
        if store.size - z >= 3 and nonzero:
            first = None
            if r is not None and all(r[z:-1]):
                first = (p, [b * pow(a, -1, p) % p for a, b in pairs(r[z:])])
            ratios = _TermImages(lambda: [b / a for a, b in pairs(store.terms[z:])], False, first)
            sub = _op_dfs(ratios, depth + 1, guessers, ops, opts)
            if sub:
                return [OperatorExpr("product", sub[0], base=store.terms[z], offset=z)]
    return []


def guess(terms, guessers=("rat",), operators=("sum", "product"), opts: Options | None = None, **kw) -> list[OperatorExpr]:
    """Compose base guessers with difference / quotient inversion.

    Tries the base guessers on the terms; on failure, recurses on the
    difference sequence (undone by a sum) and on the quotient sequence
    (undone by a product; requires no interior zeros, leading zeros are
    stripped and recorded).  Each level shortens the data by one term,
    so the recursion is bounded even without max_level.

    Every node runs its guessers on a store of its own, screened on
    residues mod the first prime p0 carried down from its parent
    (_op_dfs): exact terms are built, from the root down, only for a
    lift past the first image, the exact check, a result or an operator
    base, and where residues cannot stand in: below a node whose search
    read none mod p0 (a denominator divisible by p0, or only user
    callable guessers, which get exact terms), and where a product
    divisor or a zero test has residue 0.  A node's classes share its
    store; check_images keeps their atoms apart.
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
    return _op_dfs(_TermImages(terms, False), 0, resolved, tuple(operators), opts)
