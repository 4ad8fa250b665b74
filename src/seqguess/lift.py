"""Modular lifting driver.

Solves a Hermite-Pade problem with exact rational (or rational-function)
data by solving modular images and reconstructing:

  outer level   31-bit primes; per-prime solution vectors are
                combined by Chinese remaindering into one accumulator
                with a shared modulus and lifted back to Q by balanced
                rational reconstruction;
  inner level   only when coefficients involve a parameter t: per prime,
                random evaluation points for t; per-point solution
                vectors are interpolated into one accumulator with
                shared points and lifted to ratios of polynomials in t.

Each image yields a shape fingerprint, read off its order basis, and
its solution columns in normal form (see sigma_normalize).  An image
that carries a remainder sequence (OrderProblem.rows) needs no basis:
every degree split reads its normal form off two of its rows.  Such
splits share the rows' lift, not only the image.  do_solve reads a
split's first image; when the schema's row store already holds every
solution row the split picks there, lifted exactly by an earlier split,
its columns are those rows made monic, with no further prime or point.
A split that lifts stores its rows when its final record is its first
image's: at a good prime each row is the image of the exact row of the
same degrees, as in modular gcds (von zur Gathen-Gerhard ch. 6), and
the record vouches for the prime.  Unlucky moduli are detected by
comparing fingerprints: a mismatch marks either the new image or
everything accumulated so far as bad.  Once bad images outnumber the
good ones by more than two, the level drops its state and adopts the
current image; both levels keep this one rule (_admit), so one unlucky
first prime or point costs a bounded number of solves.
A reconstruction candidate is only returned after a fresh modulus
reproduces it exactly; it is reduced there with one inverse, cleared by
the lcm of its denominators.

Reconstruction is attempted on a bounded-overshoot schedule
(reconstruction_due): after every good prime up to 16, then whenever the
count of good primes has grown by 1/8.  An attempt is an extended Euclid
run per entry, quadratic in the modulus size, so attempting after every
prime would cost about c^3/3 for a solve that needs c primes; the
schedule's attempts sum to a few times the last one, at the price of at
most ceil(c/8) + 1 further primes.

Every image is read by one reader (_read): (prime, point) pairs in, per
image its record and flat columns or the exception its solve raised
out.  One builder call reduces the terms for all of them; a lone order
basis runs through sigma_basis, several in lockstep
(hermite_pade.sigma_bases), at most BATCH_CELLS cells to a kernel pass.

Between two attempts no image is looked at before the next one, so a
read takes every image its level admits up to the next due count and
one more (_ahead), which judges the candidate the attempt may yield or
else opens the next read.  Over Q the prime level reads so from the head
on, plus ceil(c/8) primes a solve may never reach (c its good primes so
far); the point level from a prime's second point on, with none extra,
as every prime's points come from one rng (_inner_solve).  The images
are still admitted one at a time, in prime and point order, so the
state, the attempts and the events are those of reading each image alone.

Most solves of a search end in NoSolution, so that outcome is kept cheap:
do_solve reads the first image (the head) before any lift state is
built, and the lift reuses it; on the first image of a level the order
basis stops as soon as its defects, already the normal-form ones (the
basis stays in weak Popov form), leave no column that can fit, and both
domains draw their primes, after any forced ones, from a shared list per
(seed, bits) instead of re-sampling the same sequence per solve; q
mode's rng draws evaluation points only, one rng across primes for the
head as for the lift.  The degree splits of a pair schema share their
first image, so pair_splits reads its rows once and settles every split
that would end there: those never reach do_solve.  Both find the first
image by one prime/point loop (_first).
"""

from __future__ import annotations

import itertools
import math
import random
import threading
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

from .errors import BadModulus, CheckFailed, NoSolution, ReconstructionAborted
from .hermite_pade import sigma_bases, sigma_basis
from .modarith import ModPrime, sample_prime
from .rings import (
    CrtAccumulator,
    LagrangeAccumulator,
    RatPoly,
    crt_combine,
    lagrange_add,
    peval,
    poly_rat_recon,
    rat_recon_vec,
)
from .sigma_normalize import (
    ReductionRecord,
    compare_reductions,
    pair_defects,
    pair_normalize,
    pair_split,
    sigma_normalize,
)

# builder([(fp, t_point), ...]) -> per image, its OrderProblem (the exact
# data reduced mod fp, the parameter specialized at t_point when there is
# one) or the BadModulus that reduction raised.
ProblemBuilder = Callable[[list[tuple[ModPrime, int | None]]], list]


PRIME_BITS = 31
MAX_PRIMES = 10_000  # outer primes per solve
RECON_EVERY_PRIME = 16  # reconstruct after each good prime up to this count,
RECON_GROWTH = 8  # then each time the count has grown by 1/RECON_GROWTH
INNER_DRAWS = 4 * (32 + 1)  # point draws per prime: 4 x (expected degree in t + 1)
# int64 cells of one lockstep kernel pass (1 MiB): past it the per-image
# cost of a batch falls by under 5 % per doubling (measured, m 3-9, sigma 14-200)
BATCH_CELLS = 1 << 17


@dataclass
class LiftOptions:
    seed: int = 0
    primes: list[int] | None = None  # consumed before the shared list (tests)
    debug: Callable[[str], None] | None = None


@dataclass
class LiftState:
    """Accumulated modular knowledge at one level of the recursion."""

    level: str = "prime"  # "prime" | "point"
    record: ReductionRecord | None = None
    shape: tuple = ()
    # one state for the whole flat vector: a CrtAccumulator at the prime
    # level, a LagrangeAccumulator at the point level
    acc: CrtAccumulator | LagrangeAccumulator | None = None
    good_count: int = 0
    bad_count: int = 0
    events: list = field(default_factory=list)


def check_reduction(new_record: ReductionRecord, state: LiftState, new_shape: tuple = ()) -> str:
    """'good' (absorb), 'bad' (discard image), 'all_bad' (discard state)."""
    if state.record is None:
        return "good"
    verdict = compare_reductions(new_record, state.record)
    if verdict == "equal":
        return "good" if new_shape == state.shape else "bad"
    if verdict == "better":
        return "all_bad"
    return "bad"


def reconstruction_due(state: LiftState) -> bool:
    """Attempt schedule.  Primes: every good count through
    RECON_EVERY_PRIME, then the first count at least ceil(9/8 x the last
    due one): 18, 21, 24, 27, 31, ...  Evaluation points: square counts
    (degree grows quadratically)."""
    c = state.good_count
    if c < 1:
        return False
    if state.level == "point":
        r = math.isqrt(c)
        return r * r == c
    if c <= RECON_EVERY_PRIME:
        return True
    due = RECON_EVERY_PRIME
    while due < c:
        due += -(-due // RECON_GROWTH)
    return due == c


def _ahead(state: LiftState, pending) -> int:
    """Images a level reads at once: every one it admits up to its next
    due attempt, and the one after it, which judges the candidate that
    attempt may give or else opens the next read.  With a candidate
    pending, only the image that judges it."""
    if pending is not None:
        return 1
    c = state.good_count
    return next(k for k in itertools.count(2) if reconstruction_due(replace(state, good_count=c + k - 1)))


@dataclass
class LiftResult:
    columns: list  # per solution column, per schema monomial, dense coefficients
    record: ReductionRecord
    state: LiftState


_PRIME_LISTS: dict[tuple[int, int], tuple[random.Random, list[ModPrime], set[int]]] = {}
_PRIME_LOCK = threading.Lock()


def _nth_field(seed: int, bits: int, i: int) -> ModPrime:
    """Field of the i-th prime that random.Random(seed) + sample_prime draw.

    The list grows lazily and is shared by every solve (and thread) with
    the same seed and bit size; each draw excludes the earlier ones, so
    the sequence equals a fresh per-solve sampling loop.  Fields are kept
    rather than ints because ModPrime re-tests primality when built.
    """
    with _PRIME_LOCK:
        if (seed, bits) not in _PRIME_LISTS:
            _PRIME_LISTS[seed, bits] = (random.Random(seed), [], set())
        rng, fields, seen = _PRIME_LISTS[seed, bits]
        while len(fields) <= i:
            p = sample_prime(bits, exclude=seen, rng=rng)
            fields.append(ModPrime(p))
            seen.add(p)
        return fields[i]


def _positive(record: ReductionRecord) -> int:
    return sum(1 for d in record.defects if d >= 1)


def _emit(state: LiftState, opts: LiftOptions, *event):
    state.events.append(event)
    if opts.debug is not None:
        opts.debug(" ".join(str(x) for x in event))


def _read(builder: ProblemBuilder, bounds: list[int], at: list, first: bool) -> list:
    """Per (fp, t_point) in `at`: (record, flat padded solution columns),
    or the BadModulus, NoSolution or CheckFailed its solve raised.

    One builder call reads every image.  An image that carries a
    remainder sequence (OrderProblem.rows) needs no basis.  A lone
    image's order basis runs through sigma_basis; several run in lockstep
    (sigma_bases), at most BATCH_CELLS cells to a kernel pass: the primes
    of one read over Q, or the points of one prime.  `first` marks the
    first image of a level (no record to compare with yet): there the
    order basis itself stops with NoSolution as soon as no column can
    fit, since the raw defects equal the normal-form ones.
    """
    probs = builder(at)
    todo = [i for i, prob in enumerate(probs) if not isinstance(prob, BadModulus) and prob.rows is None]
    bases: dict = {}
    if len(at) == 1 and todo:
        prob = probs[0]
        try:
            bases[0] = sigma_basis(prob.streams, bounds, prob.sigma, at[0][0], points=prob.points, need_solution=first)
        except (BadModulus, NoSolution) as exc:
            bases[0] = exc.with_traceback(None)  # its traceback would hold this frame, which holds `bases`
    elif todo:
        m, sigma, series = len(bounds), probs[todo[0]].sigma, probs[todo[0]].points is None
        per_pass = max(1, BATCH_CELLS // (m * (sigma + m * (sigma + 1))))
        for a in range(0, len(todo), per_pass):
            part = todo[a:a + per_pass]
            got = sigma_bases([probs[i].streams for i in part], bounds, sigma, [at[i][0] for i in part],
                              None if series else [probs[i].points for i in part], first)
            bases.update(zip(part, got))
    out: list = []
    for i, (fp, _) in enumerate(at):
        got = bases.get(i, probs[i])
        if not isinstance(got, Exception):
            try:
                normal = sigma_normalize(got) if i in bases else pair_normalize(got.rows, bounds, fp)
                got = _flat_image(bounds, *normal)
            except CheckFailed as exc:  # _solved raises it when the lift reaches this image
                got = exc.with_traceback(None)
        out.append(got)
    return out


def _solved(image) -> tuple:
    """(record, flat) of an image _read solved.  One whose solve raised
    raises a fresh copy of that exception: raising the stored one would
    give it a traceback through the frames that hold it, a reference cycle."""
    if isinstance(image, Exception):
        raise type(image)(*image.args)
    return image


def _flat_image(bounds: list[int], record: ReductionRecord, columns: list):
    """(record, flat): solution-column components padded to their degree
    bounds, so the flat layout depends only on the record, never on
    accidental degree drops mod p."""
    flat: list[int] = []
    for col in columns:
        for comp, b in zip(col, bounds):
            if len(comp) > b:
                raise CheckFailed("solution column exceeds its degree bound")
            flat.extend(comp)
            flat.extend([0] * (b - len(comp)))
    return record, flat


def _fields(opts: LiftOptions):
    """The solve's primes, in order: the forced ones, then the shared list."""
    forced = opts.primes or []
    used: set[int] = set()
    for i in range(MAX_PRIMES):
        fp = ModPrime(forced[i]) if i < len(forced) else _nth_field(opts.seed, PRIME_BITS, i - len(forced))
        if fp.p not in used:
            used.add(fp.p)
            yield fp


def _points(rng: random.Random, fp: ModPrime):
    """The distinct evaluation points a prime's inner level draws from rng."""
    used: set[int] = set()
    for _ in range(INNER_DRAWS):
        tau = rng.randrange(1, fp.p)
        if tau not in used:
            used.add(tau)
            yield tau


def _first(read: Callable, domain: str, opts: LiftOptions) -> tuple:
    """(fp, t_point, image) at the first prime, and over Q(t) its first
    point, where image = read([(fp, t_point)])[0] is no BadModulus; a prime
    at which every point gives one is skipped, as over Q.  The points come
    from one rng across primes, as in _lift, so the lift's first image is
    this one."""
    rng = random.Random(opts.seed) if domain == "polyrational" else None  # q points
    for fp in _fields(opts):
        for tau in _points(rng, fp) if domain == "polyrational" else (None,):
            (image,) = read([(fp, tau)])
            if not isinstance(image, BadModulus):
                return fp, tau, image
    raise ReconstructionAborted(f"no stable reconstruction after {MAX_PRIMES} primes")


def pair_splits(builder: ProblemBuilder, splits: list, domain: str, opts: LiftOptions) -> list:
    """The degree splits of a pair schema that have a solution column at
    its first image, in their order.

    A pair image raises BadModulus for every split or for none (only the
    builder and its remainder sequence can), so the schema's first image
    is every split's, and one read of its rows settles them all: do_solve
    would end any other split there in NoSolution.
    """
    rows = _first(builder, domain, opts)[2].rows
    return [s for s in splits if max(pair_defects(rows, s)[1:]) >= 1]


def _admit(state: LiftState, record: ReductionRecord, shape: tuple, opts: LiftOptions, *where) -> bool:
    """The bad-image rule of both levels, on the image at `where` (p, or p, t).
    False: the image is bad and dropped.  True: the state takes it, first
    dropping its record and accumulator when this record beats them or bad
    images outnumber good ones by more than two.  NoSolution when a taken
    image has no solution column."""
    bad, all_bad = ("bad_prime", "all_bad") if state.level == "prime" else ("bad_point", "all_bad_points")
    verdict = check_reduction(record, state, shape)
    if verdict == "bad":
        state.bad_count += 1
        if state.bad_count <= state.good_count + 2:
            _emit(state, opts, bad, *where)
            return False
        verdict = "all_bad"  # the bad images outvote the state: adopt this one
    if _positive(record) == 0:
        raise NoSolution(f"a good image at {where} has an empty solution space")
    if verdict == "all_bad":
        _emit(state, opts, all_bad, *where)
        state.record, state.acc = None, None
        state.good_count = state.bad_count = 0
    if state.record is None:
        state.record, state.shape = record, shape
    return True


def _inner_solve(read, fp, opts, rng, events):
    """Lift over the parameter t at one prime, logging to `events`.

    Returns (record, shape, values) with values the Z_p coefficients of
    the per-slot num/den polynomials in t; _admit rules on points as on primes.
    BadModulus when every point is bad: the prime level then skips the prime.
    Points are read one at a time until one sets the record, then
    _ahead at once.  The rng must leave at the last point reached, or the
    next prime would get other points than a one-at-a-time read: when a
    point that outvotes the state ends the prime inside a read, the
    prime's reached points are drawn again from its starting state.
    """
    state = LiftState(level="point", events=events)
    pending = None  # list of (num, den) per slot
    mark, drawn, reached = rng.getstate(), 0, 0
    taus = _points(rng, fp)
    for start in taus:
        batch = [start]
        if state.record is not None:
            batch += itertools.islice(taus, _ahead(state, pending) - 1)
        drawn += len(batch)
        for tau, image in zip(batch, read([(fp, t) for t in batch], state.record is None)):
            reached += 1
            if isinstance(image, BadModulus):
                _emit(state, opts, "skip_point", fp.p, tau)
                continue
            record, flat = _solved(image)
            if not _admit(state, record, (), opts, fp.p, tau):
                continue
            if state.acc is None:
                state.acc, pending = LagrangeAccumulator(fp, [[] for _ in flat]), None
            if pending is not None:
                ok = _match_poly_candidate(pending, flat, tau, fp)
                if ok:
                    if reached < drawn:  # a point that outvoted the state cut the read short
                        rng.setstate(mark)
                        list(itertools.islice(_points(rng, fp), reached))
                    shape = tuple((len(num), len(den)) for num, den in pending)
                    values = [c for num, den in pending for c in (*num, *den)]
                    return state.record, shape, values
                if ok is False:
                    pending = None
            lagrange_add(state.acc, tau, flat)
            state.good_count += 1
            if reconstruction_due(state):
                cand = poly_rat_recon(state.acc)
                _emit(state, opts, "point_recon", fp.p, state.good_count, cand is not None)
                if cand is not None:
                    pending = cand
    if state.record is None:  # the first image read sets the record
        raise BadModulus(f"every point mod {fp.p} is bad")
    raise ReconstructionAborted(f"inner level exhausted {INNER_DRAWS} points mod {fp.p}")


def _match_poly_candidate(cand, flat, tau: int, fp: ModPrime):
    """True/False verdict at a fresh point; None when the point is blind."""
    for (num, den), v in zip(cand, flat):
        dv = peval(den, tau, fp)
        if dv == 0:
            return None
        if peval(num, tau, fp) != fp.mul(dv, v):
            return False
    return True


def _assemble(domain: str, record: ReductionRecord, bounds: list[int], shape: tuple, values: list[Fraction]):
    """Regroup a reconstructed flat vector into per-column coefficient lists."""
    if domain == "polyrational":
        slots = []
        it = iter(values)
        for nl, dl in shape:
            num = [next(it) for _ in range(nl)]
            den = [next(it) for _ in range(dl)]
            slots.append(RatPoly.make(num, den))
    else:
        slots = list(values)
    columns = []
    it = iter(slots)
    for _ in range(_positive(record)):
        col = []
        for b in bounds:
            coeffs = [next(it) for _ in range(b)]
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            col.append(coeffs)
        columns.append(col)
    return columns


def _reduce_flat(values: list[Fraction], fp: ModPrime) -> list[int]:
    """Images in Z_p of a reconstructed vector, cleared by the lcm D of its
    denominators; BadModulus when p divides D, i.e. some denominator."""
    p = fp.p
    den = math.lcm(*(v.denominator for v in values))
    if den % p == 0:
        raise BadModulus(f"{p} divides a denominator of the candidate")
    inv = pow(den, -1, p)
    return [v.numerator * (den // v.denominator) % p * inv % p for v in values]


def _monic(col: list, c: int) -> list:
    """An exact column scaled monic in component c."""
    lead = col[c][-1]
    if lead == 1:
        return col
    inv = 1 / lead
    return [[x * inv for x in comp] for comp in col]


def do_solve(builder: ProblemBuilder, bounds: list[int], domain: str = "rational",
             opts: LiftOptions | None = None, rows: dict | None = None) -> LiftResult:
    """Solve over Q (domain='rational') or Q(t) (domain='polyrational').

    Raises NoSolution when the module is empty within the bounds and
    ReconstructionAborted when resource caps run out.

    rows: the row store of a pair schema, shared by its degree splits:
    the index of a remainder row at the schema's first image -> that
    row lifted exactly.  A split whose solution rows are all stored reads
    its columns off them; otherwise it lifts, and stores its rows when
    its final record is the first image's and each row keeps the degrees
    it has there.
    """
    if domain not in ("rational", "polyrational"):
        raise ValueError(f"unknown domain {domain!r}")
    opts = opts or LiftOptions()
    fp, tau, head = _first(lambda at: _read(builder, bounds, at, True), domain, opts)
    record = _solved(head)[0]
    if _positive(record) == 0:
        raise NoSolution(f"the first image (mod {fp.p}, t = {tau}) has an empty solution space")
    if rows is not None:
        first_rows = builder([(fp, tau)])[0].rows
        k = pair_split(first_rows, bounds)
        picks = [(k - 1 + c, c) for d, c in zip(record.defects, record.crits) if d >= 1]
        if all(i in rows for i, _ in picks):
            state = LiftState(record=record)
            _emit(state, opts, "rows", *(i for i, _ in picks))
            return LiftResult([_monic(rows[i], c) for i, c in picks], record, state)

    res = _lift(builder, bounds, domain, opts, (fp.p, tau, head))
    if rows is not None and res.record == record:
        for (i, _), col in zip(picks, res.columns):
            # a later split may make either component monic: both must be the image's
            if [len(comp) for comp in col] == [len(comp) for comp in first_rows[i]]:
                rows[i] = col
    return res


def _lift(builder: ProblemBuilder, bounds: list[int], domain: str, opts: LiftOptions, head: tuple) -> LiftResult:
    """The prime level of do_solve; its first image is the head (p,
    t_point, image), which no read solves again, alone or inside a batch.

    Over Q each read takes the primes up to the next due attempt, the one
    after it and ceil(c/8) more (see _ahead): no image between two
    attempts is looked at before the next one, so reading them ahead
    changes nothing but the cost.  Its images are still admitted one at
    a time, in prime order.  Over Q(t) each prime is a point-level lift
    (_inner_solve), read one at a time.
    """

    def read(at, first):
        keys = [(fp.p, tau) for fp, tau in at]
        if head[:2] not in keys:
            return _read(builder, bounds, at, first)
        rest = [x for x, key in zip(at, keys) if key != head[:2]]  # later images, or BadModulus ones before it
        got = iter(_read(builder, bounds, rest, False) if rest else ())
        return [head[2] if key == head[:2] else next(got) for key in keys]

    rng = random.Random(opts.seed) if domain == "polyrational" else None  # q points
    state = LiftState(level="prime")
    pending = None  # (columns, exact flat vector) awaiting a confirming prime
    fields = _fields(opts)
    for start in fields:
        batch = [start]
        if domain == "rational":
            batch += itertools.islice(fields, _ahead(state, pending) - 1 + -(-state.good_count // RECON_GROWTH))
        images = read([(fp, None) for fp in batch], state.record is None) if domain == "rational" else [None]
        for fp, image in zip(batch, images):
            p = fp.p
            try:
                if domain == "polyrational":
                    record, shape, flat = _inner_solve(read, fp, opts, rng, state.events)
                else:
                    (record, flat), shape = _solved(image), ()
            except BadModulus:
                _emit(state, opts, "skip_prime", p)
                continue
            if not _admit(state, record, shape, opts, p):
                continue
            if state.acc is None:
                state.acc, pending = CrtAccumulator([0] * len(flat)), None
            if pending is not None:
                try:
                    if _reduce_flat(pending[1], fp) == flat:
                        _emit(state, opts, "validated", p)
                        return LiftResult(pending[0], state.record, state)
                    pending = None
                except BadModulus:
                    pass  # this prime cannot see the candidate; keep both
            crt_combine(state.acc, flat, p)
            state.good_count += 1
            if reconstruction_due(state):
                vec = rat_recon_vec(state.acc.values, state.acc.modulus)
                _emit(state, opts, "recon", p, state.good_count, vec is not None)
                if vec is not None:
                    pending = (_assemble(domain, state.record, bounds, state.shape, vec), vec)
    raise ReconstructionAborted(f"no stable reconstruction after {MAX_PRIMES} primes")
