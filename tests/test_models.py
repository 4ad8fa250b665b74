"""Monomial enumeration, schema construction, image streams."""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from seqguess.errors import BadModulus, SchemaExhausted
from seqguess import models
from seqguess.guess import Options, _make_builder, _TermImages
from seqguess.modarith import ModPrime
from seqguess.models import (
    CLASS_NAMES,
    Monomial,
    build_images,
    build_schema,
    cauchy_plan,
    check_images,
    partition_stream,
    partitions_lex,
    schema_stream,
)
from seqguess.rings import QQ, ZZ, RatPoly, peval

from oracles import QPARAM, QQ_T, naive_images, ratpoly_eval, reduce_scalar


def test_partitions_lex_frozen():
    assert partitions_lex(3) == [(), (1,), (1, 1), (2,), (1, 1, 1), (2, 1), (3,)]
    assert len([p for p in partitions_lex(6) if sum(p) == 6]) == 11
    with pytest.raises(ValueError):
        partitions_lex(-1)


def test_partition_stream_prefix():
    stream = partition_stream()
    assert [next(stream) for _ in range(7)] == partitions_lex(3)


def test_class_names():
    assert set(CLASS_NAMES) == {"rat", "prec", "rec", "pade", "alg", "fe", "holo", "ade"}


def _parts(klass, opts, n, q=False):
    gen = schema_stream(klass, opts, q)
    return [(mo.parts, mo.tag, mo.mixed) for _, mo in zip(range(n), gen)]


def test_schema_streams_by_class():
    o = Options()
    assert _parts("rat", o, 2) == [((), "shift", 0), ((1,), "shift", 0)]
    assert _parts("prec", Options(max_shift=2), 4) == [
        ((), "shift", 0), ((1,), "shift", 0), ((2,), "shift", 0), ((3,), "shift", 0)]
    assert _parts("alg", Options(max_power=2), 3) == [
        ((), "mahler", 0), ((1,), "mahler", 0), ((1, 1), "mahler", 0)]
    assert _parts("fe", Options(max_level=2, max_power=2), 6) == [
        ((), "mahler", 0), ((1,), "mahler", 0), ((1, 1), "mahler", 0),
        ((2,), "mahler", 0), ((2, 1), "mahler", 0), ((2, 2), "mahler", 0)]
    assert _parts("holo", Options(max_derivative=2), 4) == [
        ((), "derivative", 0), ((1,), "derivative", 0), ((2,), "derivative", 0), ((3,), "derivative", 0)]
    assert _parts("pade", o, 2, q=True) == [((), "qdilation", 0), ((1,), "qdilation", 0)]


def test_schema_stream_homogeneous_and_mixed():
    assert _parts("prec", Options(max_shift=2, homogeneous=True), 3) == [
        ((1,), "shift", 0), ((2,), "shift", 0), ((3,), "shift", 0)]
    assert _parts("rec", Options(max_shift=1, homogeneous=2, max_power=2), 3) == [
        ((1, 1), "shift", 0), ((2, 1), "shift", 0), ((2, 2), "shift", 0)]
    assert _parts("prec", Options(max_shift=1, max_mixed_degree=1), 4, q=True) == [
        ((), "shift", 0), ((), "shift", 1), ((1,), "shift", 0), ((1,), "shift", 1)]


def test_schema_stream_somos():
    got = _parts("rec", Options(max_shift=2, somos=2), 5)
    assert got == [((2, 2), "shift", 0), ((3, 1), "shift", 0)]
    with pytest.raises(ValueError):
        list(schema_stream("rec", Options(somos=True)))


def test_build_schema_validation():
    with pytest.raises(ValueError):
        build_schema("rat", Options(), 1)
    with pytest.raises(SchemaExhausted):
        build_schema("rat", Options(), 3)  # rat has exactly two monomials
    with pytest.raises(ValueError):
        build_schema("nope", Options(), 2)


@pytest.mark.parametrize("first, second", [(True, 1), (1, True)])
def test_schema_cache_keys_homogeneous_by_type(first, second):
    # True == 1 and hash(True) == hash(1), but "no constant monomial" and
    # "degree exactly one" are different filters, whichever is cached first
    models._schema.cache_clear()
    opts = Options(max_shift=1, max_power=2)
    built = [build_schema("rec", replace(opts, homogeneous=h), 2) for h in (first, second)]
    parts = {h is True: [mo.parts for mo in s.monomials] for h, s in zip((first, second), built)}
    assert parts == {True: [(1,), (1, 1)], False: [(1,), (2,)]}
    assert build_schema("rec", replace(opts, homogeneous=first), 2) == built[0]
    assert models._schema.cache_info().hits == 1


def test_points_kind():
    assert build_schema("prec", Options(max_shift=1), 2).points_kind == "integer"
    assert build_schema("prec", Options(max_shift=1), 2, q=True).points_kind == "qpower"
    assert build_schema("prec", Options(max_shift=1, max_mixed_degree=1), 2, q=True).points_kind == "integer"
    assert build_schema("alg", Options(max_power=2), 3).points_kind == "confluent"
    s = build_schema("pade", Options(), 2, q=True)
    assert s.points_kind == "confluent" and s.q


def test_monomial_loss_and_degree():
    assert Monomial((3,), "shift").loss == 2
    assert Monomial((2, 1), "derivative").loss == 1
    assert Monomial((4,), "mahler").loss == 0
    assert Monomial((), "shift").loss == 0
    assert Monomial((2, 2, 1), "shift").degree == 3
    assert build_schema("prec", Options(max_shift=2), 3).loss == 1
    assert build_schema("prec", Options(max_shift=2), 4).loss == 2


def test_cauchy_plan_reuses_sorted_prefixes():
    parts = [(1, 1), (1, 1, 2)]
    assert cauchy_plan(parts) == ((1, 1), (1, 1, 2))  # 2 products: (1,1) then (1,1)*2
    parts = [(2, 2), (2, 2), (3,)]
    assert len(cauchy_plan(parts)) == 1


def test_build_images_sequence_frozen():
    schema = build_schema("rat", Options(), 2)
    prob = build_images([F(5), F(5), F(5)], schema, QQ)
    assert prob.sigma == 3
    assert prob.points == [F(0), F(1), F(2)]
    assert prob.streams == [[1, 1, 1], [5, 5, 5]]


def test_build_images_shift_monomials():
    schema = build_schema("rec", Options(max_shift=1, max_power=2), 5)
    parts = [mo.parts for mo in schema.monomials]
    assert parts == [(), (1,), (1, 1), (2,), (2, 1)]  # max_power caps the count
    prob = build_images([F(0), F(1), F(2), F(3)], schema, QQ)
    assert prob.sigma == 3  # loss 1 from the shift
    assert prob.streams[1] == [0, 1, 2]  # f(n)
    assert prob.streams[2] == [0, 1, 4]  # f(n)^2
    assert prob.streams[3] == [1, 2, 3]  # f(n+1)
    assert prob.streams[4] == [0, 2, 6]  # f(n+1) f(n)


def test_build_images_mahler_spread():
    schema = build_schema("fe", Options(max_level=2, max_power=1), 3)
    terms = [F(v) for v in [0, 1, 1, 1, 2, 3, 6, 11, 23]]
    prob = build_images(terms, schema, QQ)
    assert prob.points is None and prob.sigma == 9
    assert prob.streams[1] == terms
    assert prob.streams[2] == [0, 0, 1, 0, 1, 0, 1, 0, 2]  # f(x^2)


def test_build_images_derivative():
    schema = build_schema("holo", Options(max_derivative=1), 3)
    prob = build_images([F(1), F(1), F(1), F(1)], schema, QQ)
    # f' of 1+x+x^2+x^3 at shared order 3
    assert prob.sigma == 3
    assert prob.streams[2] == [1, 2, 3]


def test_build_images_qpower_points():
    schema = build_schema("rat", Options(), 2, q=True)
    terms = [RatPoly.const(1), QPARAM, QPARAM * QPARAM]
    prob = build_images(terms, schema, QQ_T, QPARAM)
    assert prob.points[0] == RatPoly.const(1)
    assert prob.points[1] == QPARAM
    assert prob.points[2] == QPARAM * QPARAM


def test_build_images_commutes_with_reduction():
    rng = random.Random(7)
    fp = ModPrime(10007)
    terms = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)]
    for klass, opts in [
        ("alg", Options(max_power=2)),
        ("prec", Options(max_shift=1)),
        ("ade", Options(max_derivative=1, max_power=2)),
    ]:
        schema = build_schema(klass, opts, 3)
        exact = build_images(terms, schema, QQ)
        modular = build_images(_TermImages(terms, False).modular(fp, None)[0], schema, fp)
        assert modular.sigma == exact.sigma
        for se, sm in zip(exact.streams, modular.streams):
            assert [reduce_scalar(v, fp) for v in se] == list(map(int, sm))
        if exact.points is not None:
            assert [reduce_scalar(v, fp) for v in exact.points] == list(map(int, modular.points))


def test_build_images_q_evaluation_commutes():
    rng = random.Random(8)
    fp = ModPrime(10007)
    tau = 3
    terms = [RatPoly.make([rng.randint(-5, 5) for _ in range(3)]) for _ in range(6)]
    schema = build_schema("rat", Options(), 2, q=True)
    exact = build_images(terms, schema, QQ_T, QPARAM)
    modular = build_images(_TermImages(terms, True).modular(fp, tau)[0], schema, fp, q_point=tau)
    for se, sm in zip(exact.streams, modular.streams):
        assert [reduce_scalar(ratpoly_eval(v, F(tau)), fp) for v in se] == list(map(int, sm))


def test_check_images_natural_lengths():
    schema = build_schema("prec", Options(max_shift=1), 3)  # (), (1), (2)
    terms = [F(k) for k in range(5)]
    streams, points = check_images(terms, schema, QQ)
    assert [len(s) for s in streams] == [5, 5, 4]
    assert points == [F(j) for j in range(5)]
    assert streams[2] == [1, 2, 3, 4]  # f(n+1)


def test_check_images_series():
    schema = build_schema("alg", Options(max_power=2), 3)
    terms = [F(1), F(1), F(2), F(5)]
    streams, points = check_images(terms, schema, QQ)
    assert points is None
    assert streams[0] == [1, 0, 0, 0]
    assert streams[1] == terms
    assert streams[2] == [1, 2, 5, 14]  # f^2 truncated


def test_check_images_memo_serves_every_class():
    """f(n+1) and f' share the part key (2,), f(n)^2 and the Cauchy f^2
    the prefix (1, 1): one memo keeps each schema family's apart."""
    terms = [F(k * k + 1, k + 2) for k in range(9)]
    memo = {}
    for klass in ("rec", "holo", "alg", "prec", "ade", "fe"):
        schema = build_schema(klass, Options(max_power=2), 3)
        assert check_images(terms, schema, QQ, memo=memo) == check_images(terms, schema, QQ), klass


# (class, options, q mode): every class with nonlinear monomials, shift and
# derivative losses, mixed q^(jn) factors, q-dilations and q-power points
BUILDER_CASES = [
    ("rec", Options(max_shift=2, max_power=2), False),
    ("ade", Options(max_derivative=2, max_power=2), False),
    ("fe", Options(max_level=2, max_power=2), False),
    ("alg", Options(max_power=3), False),
    ("rec", Options(max_shift=1, max_power=2, max_mixed_degree=2), True),
    ("ade", Options(max_derivative=1, max_power=2), True),
    ("alg", Options(max_power=3), True),
    ("rat", Options(), True),
]


def _builder_fields(q: bool, rng):
    """(F, q_point, exact terms, the terms in F, how a term maps into F, q value in F).

    Over Z_p the terms in F are the residues of _TermImages.modular, and
    the reference maps each term on its own."""
    fp = ModPrime(10007)
    tau = 5
    if q:
        terms = [RatPoly.make([rng.randint(-4, 4) for _ in range(2)], [rng.randint(1, 3), 1]) for _ in range(7)]
        yield QQ_T, QPARAM, terms, terms, lambda t: t, QPARAM
        residues = _TermImages(terms, True).modular(fp, tau)[0]
        yield fp, tau, terms, residues, lambda t: reduce_scalar(ratpoly_eval(t, F(tau)), fp), tau
    else:
        terms = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)]
        yield QQ, None, terms, terms, F, None
        yield fp, None, terms, _TermImages(terms, False).modular(fp, None)[0], lambda t: reduce_scalar(t, fp), None
        ints = [rng.randint(-99, 99) for _ in range(8)]
        yield ZZ, None, ints, ints, int, None


@pytest.mark.parametrize("klass,opts,q", BUILDER_CASES)
def test_builder_matches_naive_products(klass, opts, q):
    """check_images equals one plain product per monomial at its natural
    length; build_images equals the same cut to the shared order."""
    monos = list(schema_stream(klass, opts, q))
    schema = build_schema(klass, opts, len(monos), q)
    assert klass == "rat" or any(mo.degree >= 2 for mo in schema.monomials)
    for field, q_point, terms, values, into, qval in _builder_fields(q, random.Random(len(monos))):
        ref_streams, ref_points = naive_images([into(t) for t in terms], schema, field, qval)
        assert check_images(values, schema, field, q_point) == (ref_streams, ref_points)
        prob = build_images(values, schema, field, q_point)
        sigma = len(terms) - schema.loss
        assert prob.sigma == sigma
        assert prob.streams == [s[:sigma] for s in ref_streams]
        assert prob.points == (None if ref_points is None else ref_points[:sigma])


def _store_into(fp, tau):
    """How a raw term maps into Z_p at q = tau (tau None over Q)."""
    if tau is None:
        return lambda t: reduce_scalar(t, fp)
    return lambda t: reduce_scalar(ratpoly_eval(t, F(tau)), fp)


@pytest.mark.parametrize("klass,opts,q", BUILDER_CASES)
def test_term_store_images_equal_fresh_builds(klass, opts, q):
    """One store serves every schema size 2..M, in ascending and in shuffled
    order, at two (prime, point) keys: each image equals the naive build
    cut to sigma, and each exact ZZ build equals a fresh one."""
    rng = random.Random(11)
    if q:
        terms = [RatPoly.make([rng.randint(-4, 4) for _ in range(3)], [rng.randint(1, 3), 1]) for _ in range(8)]
    else:
        terms = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)]
    keys = [(ModPrime(10007), 5 if q else None), (ModPrime(65521), 7 if q else None)]
    x = 1 << 16 if q else None
    sizes = list(range(2, len(list(schema_stream(klass, opts, q))) + 1))
    for order in (sizes, rng.sample(sizes, len(sizes))):
        store = _TermImages(terms, q)
        for m in order:
            schema = build_schema(klass, opts, m, q)
            builder = _make_builder(store, schema)
            sigma = len(terms) - schema.loss
            for fp, tau in keys:
                streams, points = naive_images([_store_into(fp, tau)(t) for t in terms], schema, fp, tau)
                (prob,) = builder([(fp, tau)])
                assert prob.sigma == sigma
                assert prob.streams == [s[:sigma] for s in streams]
                assert prob.points == (None if points is None else points[:sigma])
            exact_terms, memo = store.exact(x)
            fresh = [t if x is None else peval(t, x, ZZ) for t in store.nums]
            assert check_images(exact_terms, schema, ZZ, x, memo=memo) == check_images(fresh, schema, ZZ, x)


def _raises_bad_modulus(build, errors=BadModulus) -> bool:
    try:
        build()
    except errors:
        return True
    return False


@pytest.mark.parametrize("q,terms,tau,bad", [
    (False, [F(1), F(2, 10007), F(3)], None, True),  # p divides a denominator
    (False, [F(1), F(2, 3), F(3)], None, False),
    (True, [RatPoly.const(1), RatPoly.make([1], [-1, 1]), RatPoly.const(2)], 1, True),  # 1/(q-1) at q = 1
    (True, [RatPoly.const(1), RatPoly.make([1], [-1, 1]), RatPoly.const(2)], 2, False),
    (True, [RatPoly.const(1), RatPoly.make([1, F(1, 10007)]), RatPoly.const(2)], 3, True),  # p divides a coefficient's denominator
])
def test_term_store_bad_modulus_matches_raw_build(q, terms, tau, bad):
    """The store raises BadModulus exactly where reducing each term on its
    own meets a denominator divisible by p (or a pole at q = tau)."""
    fp = ModPrime(10007)
    schema = build_schema("rat", Options(), 2, q=q)
    assert _raises_bad_modulus(lambda: [_store_into(fp, tau)(t) for t in terms], (BadModulus, ZeroDivisionError)) is bad
    assert _raises_bad_modulus(lambda: build_images(_TermImages(terms, q).modular(fp, tau)[0], schema, fp, tau)) is bad
    assert isinstance(_make_builder(_TermImages(terms, q), schema)([(fp, tau)])[0], BadModulus) is bad


def _filtered_stream(klass, opts, q):
    """schema_stream as a filter over every partition up to the weight cap
    (no somos; homogeneous False or an integer)."""
    tag, part_cap, count_cap = models._resolve_caps(klass, opts, q)
    homog = opts.homogeneous
    weight = part_cap * (count_cap if homog is False else homog)
    mixed = opts.max_mixed_degree if q and tag == "shift" else 0
    return [Monomial(p, tag, j) for p in partitions_lex(weight)
            if (not p or p[0] <= part_cap) and len(p) <= count_cap and homog in (False, len(p))
            for j in range(mixed + 1)]


ORDER_24 = Options(homogeneous=1, max_shift=24, max_degree=40)


@pytest.mark.parametrize("klass,opts,q", BUILDER_CASES + [("prec", ORDER_24, False)])
def test_capped_partitions_leave_the_stream_unchanged(klass, opts, q):
    assert list(schema_stream(klass, opts, q)) == _filtered_stream(klass, opts, q)


def test_capped_partitions_are_only_the_admissible_ones():
    assert partitions_lex(25, 25, 1) == [()] + [(w,) for w in range(1, 26)]
    assert partitions_lex(4, 2, 2) == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]
    stream = partition_stream(None, 2)
    assert [next(stream) for _ in range(6)] == [(), (1,), (1, 1), (2,), (2, 1), (3,)]
