"""Equation schemas and their evaluation into order problems.

A schema is an ordered list of monomials in the unknown function: each
monomial is an integer partition whose parts name shifted/derived/
dilated/substituted copies of f, under one of four interpretation tags:

  shift       part k  ->  f(n + k - 1)          (sequences)
  derivative  part k  ->  (d/dx)^(k-1) f(x)     (series)
  qdilation   part k  ->  f(q^(k-1) x)          (series, q-mode)
  mahler      part k  ->  f(x^k)                (series)

The guessed equation is a linear combination of the schema's monomials
with polynomial coefficients; finding it is a Hermite-Pade problem whose
input streams are the monomial values (sequence classes) or monomial
series coefficients (series classes).  One builder, check_images, makes
them from terms already in the field: modulo a prime for the solver (cut
to the shared order by build_images) or over the integers, at each
monomial's natural length, for verification.  Shared monomial prefixes
are multiplied once (cauchy_plan).  This module only computes; the terms
enter the field in guess._TermImages.
"""

from __future__ import annotations

import functools
import itertools
import operator
import types
from dataclasses import dataclass

from .errors import SchemaExhausted
from .rings import pmul_trunc

# ---------------------------------------------------------------------------
# integer partitions in the fixed enumeration order


def _partitions_of(w: int, max_part: int | None = None, max_count: int | None = None):
    """Partitions of w as weakly decreasing tuples, within the caps."""
    if w == 0:
        yield ()
        return
    mp = w if max_part is None else min(max_part, w)
    if max_count is not None and mp * max_count < w:
        return
    for first in range(mp, 0, -1):
        for rest in _partitions_of(w - first, first, None if max_count is None else max_count - 1):
            yield (first,) + rest


def partition_stream(max_part: int | None = None, max_count: int | None = None):
    """All partitions within the caps: ascending weight, ascending lex within a weight."""
    for w in itertools.count(0):
        yield from sorted(_partitions_of(w, max_part, max_count))


def partitions_lex(max_weight: int, max_part: int | None = None, max_count: int | None = None) -> list[tuple[int, ...]]:
    if max_weight < 0:
        raise ValueError("max_weight must be nonnegative")
    out: list[tuple[int, ...]] = []
    for w in range(max_weight + 1):
        out.extend(sorted(_partitions_of(w, max_part, max_count)))
    return out


# ---------------------------------------------------------------------------
# monomials and schemas


@dataclass(frozen=True)
class Monomial:
    """One product of shifted/derived/dilated/substituted copies of f.

    `mixed` is the exponent j of an extra q^(j n) factor (mixed
    q-recurrences only).
    """

    parts: tuple[int, ...]
    tag: str
    mixed: int = 0

    @property
    def loss(self) -> int:
        """Order conditions lost: shifting or differentiating by k costs k."""
        if self.tag in ("shift", "derivative") and self.parts:
            return max(self.parts) - 1
        return 0

    @property
    def degree(self) -> int:
        return len(self.parts)


# class name -> (tag, series?, linear?, part-cap source)
# part-cap "one" pins parts to 1; an options attribute name means
# parts <= attr+1 for operator tags, parts <= attr for mahler levels.
_CLASSES = {
    "rat": ("shift", False, True, "one"),
    "prec": ("shift", False, True, "max_shift"),
    "rec": ("shift", False, False, "max_shift"),
    "pade": ("mahler", True, True, "one"),
    "alg": ("mahler", True, False, "one"),
    "fe": ("mahler", True, False, "max_level"),
    "holo": ("derivative", True, True, "max_derivative"),
    "ade": ("derivative", True, False, "max_derivative"),
}

CLASS_NAMES = tuple(_CLASSES)


@dataclass(frozen=True)
class Schema:
    """Ordered monomial list plus how its order conditions are sampled."""

    monomials: tuple[Monomial, ...]
    klass: str
    q: bool
    points_kind: str  # "integer" | "qpower" | "confluent"

    @property
    def series(self) -> bool:
        return self.points_kind == "confluent"

    @functools.cached_property
    def loss(self) -> int:
        return max((mo.loss for mo in self.monomials), default=0)

    @property
    def pair(self) -> bool:
        """Streams (1, s): two monomials, the first the empty product without a q^(jn) factor."""
        first = self.monomials[0]
        return len(self.monomials) == 2 and not first.parts and not first.mixed

    def __len__(self) -> int:
        return len(self.monomials)


def _resolve_caps(klass: str, opts, q: bool) -> tuple[str, int | None, int | None]:
    """(tag, part cap, count cap) for the class under the active options."""
    tag, series, linear, cap_src = _CLASSES[klass]
    if q and series:
        tag = "qdilation"
    if cap_src == "one":
        part_cap = 1
    else:
        bound = getattr(opts, cap_src)
        if bound is None:
            part_cap = None
        elif tag == "mahler":
            part_cap = bound
        else:
            part_cap = bound + 1
    count_cap = 1 if linear else opts.max_power
    return tag, part_cap, count_cap


def schema_stream(klass: str, opts, q: bool = False):
    """Monomials of the class passing every active filter, in order."""
    if klass not in _CLASSES:
        raise ValueError(f"unknown class {klass!r}")
    tag, part_cap, count_cap = _resolve_caps(klass, opts, q)
    series = _CLASSES[klass][1]
    homog = opts.homogeneous
    somos = opts.somos
    if somos is True:
        raise ValueError("somos=true must be expanded to explicit values by the caller")
    mixed_max = opts.max_mixed_degree if (q and not series) else 0

    if somos is not False:
        if homog is True or (homog is not False and not isinstance(homog, int)):
            raise ValueError("somos needs an integer homogeneous degree (default 2)")
        somos_count = homog if homog is not False else 2
        max_weight = somos + somos_count
    elif isinstance(homog, int) and homog is not True and homog is not False and part_cap is not None:
        max_weight = part_cap * homog
    elif part_cap is not None and count_cap is not None:
        max_weight = part_cap * count_cap
    else:
        max_weight = None
    if part_cap == 0 or count_cap == 0 or (not isinstance(homog, bool) and homog == 0):
        max_weight = 0  # only the empty product passes; the unbounded stream would never end

    def admissible(parts: tuple[int, ...]) -> bool:
        """The homogeneity and somos filters; both sources already keep the caps."""
        if homog is True:
            if not parts:
                return False
        elif homog is not False:
            if len(parts) != homog:
                return False
        if somos is not False:
            if len(parts) != somos_count or sum(p - 1 for p in parts) != somos:
                return False
        return True

    source = partition_stream(part_cap, count_cap) if max_weight is None else partitions_lex(max_weight, part_cap, count_cap)
    for parts in source:
        if admissible(parts):
            for j in range(mixed_max + 1):
                yield Monomial(parts, tag, j)


# the options schema_stream reads
_SCHEMA_FIELDS = ("max_shift", "max_derivative", "max_level", "max_power", "homogeneous", "somos", "max_mixed_degree")
_schema_values = operator.attrgetter(*_SCHEMA_FIELDS)


def build_schema(klass: str, opts, m: int, q: bool = False) -> Schema:
    """First m monomials of the filtered stream; SchemaExhausted if fewer."""
    if m < 2:
        raise ValueError("schemas start at two monomials")
    schema = _schema(klass, m, q, *_schema_values(opts))
    if len(schema) < m:
        raise SchemaExhausted(f"class {klass}: only {len(schema)} monomials under the active filters")
    return schema


@functools.lru_cache(maxsize=1024, typed=True)
def _schema(klass: str, m: int, q: bool, *values) -> Schema:
    """The schema of up to m monomials of schema_stream, memoized on the
    options it reads, so searches of one shape share one Schema (and its
    loss).

    The cache keys each value by type too: homogeneous=True and
    homogeneous=1 are different filters.
    """
    opts = types.SimpleNamespace(**dict(zip(_SCHEMA_FIELDS, values)))
    monos = tuple(itertools.islice(schema_stream(klass, opts, q), m))
    kind = "confluent" if _CLASSES[klass][1] else "qpower" if q and opts.max_mixed_degree == 0 else "integer"
    return Schema(monos, klass, q, kind)


# ---------------------------------------------------------------------------
# shared-subproduct plan for monomial products


def cauchy_plan(parts_list) -> tuple[tuple[int, ...], ...]:
    """Products to perform, each combining a cached prefix with one atom.

    Steps are ascending-sorted part tuples; step[:-1] is already cached
    when step is computed, so every step costs exactly one product.
    """
    seen = set()
    steps = []
    for parts in parts_list:
        key = tuple(sorted(parts))
        for cut in range(2, len(key) + 1):
            prefix = key[:cut]
            if prefix not in seen:
                seen.add(prefix)
                steps.append(prefix)
    return tuple(steps)


# ---------------------------------------------------------------------------
# order problems


@dataclass
class OrderProblem:
    """Streams and sample points for one Hermite-Pade instance."""

    streams: list
    points: list | None  # None = confluent (series coefficients)
    sigma: int
    rows: list | None = None  # streams (1, s): remainder_rows, shared by every degree split


def _atom_stream(part: int, tag: str, terms, top: int, F, qpowers) -> list:
    """One copy of f at its natural length, capped at top entries."""
    if tag == "shift":
        return terms[part - 1 : part - 1 + top]
    if tag == "derivative":
        g = terms
        for k in range(part - 1):
            g = [F.mul(F.from_int(j + 1), g[j + 1]) for j in range(len(g) - 1)]
        return g[:top]
    if tag == "qdilation":
        return [F.mul(c, w) for c, w in zip(terms, qpowers(part - 1))]
    if tag == "mahler":
        out = [F.zero] * top
        for j in range(len(terms)):
            if j * part >= top:
                break
            out[j * part] = terms[j]
        return out
    raise ValueError(f"unknown tag {tag!r}")


def check_images(terms, schema: Schema, F, q_point=None, cut=None, memo=None):
    """Every schema monomial evaluated against the terms, in the field F.

    The terms are already in F, a ModPrime or an exact field (ZZ for
    the exact check), and q_point is the value of q in F: a residue
    modulo the prime, or the integer q = 2^B of the exact check;
    guess._TermImages makes both.  Returns (streams, points), points
    None for series.

    Stream l has its monomial's natural length len(terms) - loss_l and
    the points cover all len(terms) indices, which exposes every
    condition the data can express; `cut` caps every length at cut.
    Atoms, the steps of the shared-subproduct plan and the power
    sequences of q are kept in `memo` at natural length and cut when
    read.  Passing one memo to every schema of a search computes each
    once; atoms and products are kept per (tag, series), so schemas of
    every class can share one memo.  For shift and derivative
    tags the last part of a sorted prefix names the shortest atom, so
    every product takes its length from that atom.
    """
    N = len(terms)
    if N - schema.loss < 1:
        raise ValueError("not enough terms for this schema")
    top = N if cut is None else min(N, cut)
    if q_point is None and (schema.q or any(mo.tag == "qdilation" or mo.mixed for mo in schema.monomials)):
        raise ValueError("schema needs a q value: pass q_point")
    memo = {} if memo is None else memo
    series = schema.series

    def qpowers(j: int) -> list:
        """q^(j i) for i < N, under the int key j."""
        if j not in memo:
            qj = functools.reduce(F.mul, [q_point] * j, F.one)
            memo[j] = list(itertools.accumulate([qj] * (N - 1), F.mul, initial=F.one))
        return memo[j]

    products = memo.setdefault((schema.monomials[0].tag, series), {})  # f(n+1) and f' are both part 2
    for mo in schema.monomials:
        for part in mo.parts:
            if (part,) not in products:
                products[(part,)] = _atom_stream(part, mo.tag, terms, N, F, qpowers)
    for prefix in cauchy_plan([mo.parts for mo in schema.monomials]):
        if prefix in products:
            continue
        a, b = products[prefix[:-1]], products[prefix[-1:]]
        if series:
            products[prefix] = pmul_trunc(a, b, len(b), F)
        else:
            products[prefix] = [F.mul(x, y) for x, y in zip(a, b)]

    streams = []
    for mo in schema.monomials:
        if mo.parts:
            base = products[tuple(sorted(mo.parts))][:top]
        elif series:
            base = [F.one] + [F.zero] * (top - 1)
        else:
            base = [F.one] * top
        if mo.mixed:
            base = [F.mul(v, w) for v, w in zip(base, qpowers(mo.mixed))]
        streams.append(base)

    if series:
        points = None
    elif schema.points_kind == "qpower":
        points = qpowers(1)[:top]
    else:
        points = [F.from_int(i) for i in range(top)]
    return streams, points


def build_images(terms, schema: Schema, F, q_point=None, memo=None) -> OrderProblem:
    """check_images cut to the shared order sigma = len(terms) - loss."""
    sigma = len(terms) - schema.loss
    streams, points = check_images(terms, schema, F, q_point, cut=sigma, memo=memo)
    return OrderProblem(streams=streams, points=points, sigma=sigma)
