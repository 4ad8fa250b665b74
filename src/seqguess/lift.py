"""Modular lifting driver.

Solves a Hermite-Pade problem with exact rational (or rational-function)
data by solving modular images and reconstructing:

  outer level   fresh 31-bit primes; per-prime solution vectors are
                combined by Chinese remaindering into one accumulator
                with a shared modulus and lifted back to Q by balanced
                rational reconstruction;
  inner level   only when coefficients involve a parameter t: per prime,
                random evaluation points for t; per-point solutions are
                interpolated and lifted to ratios of polynomials in t.

Each image yields a shape fingerprint, read off its order basis, and
its solution columns in normal form (see sigma_normalize).  Unlucky
moduli are detected by comparing fingerprints: a mismatch marks either
the new image or everything accumulated so far as bad.  Once bad images
outnumber the good ones by more than two, the prime level drops its
state and adopts the current image, while the point level gives up on
its prime; so one unlucky first image costs a bounded number of solves.
A reconstruction candidate is only returned after a fresh modulus
reproduces it exactly.

Most solves of a search end in NoSolution, so that outcome is kept cheap:
on the first image of a level the order basis stops as soon as its
defects, already the normal-form ones (the basis stays in weak Popov
form), leave no column that can fit, and the rational domain draws
its primes from a shared list per (seed, bits) instead of re-sampling
the same sequence per solve.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import BadModulus, CheckFailed, NoSolution, ReconstructionAborted
from .hermite_pade import sigma_basis
from .modarith import ModPrime, reduce_scalar, sample_prime
from .models import OrderProblem
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
from .sigma_normalize import ReductionRecord, compare_reductions, sigma_normalize

# builder(fp, t_point) -> OrderProblem: reduces the exact data mod fp
# (specializing the parameter at t_point when there is one)
ProblemBuilder = Callable[[ModPrime, int | None], OrderProblem]


PRIME_BITS = 31
INNER_EXPECTED_DEGREE = 32  # caps inner points at 4*(this+1)


@dataclass
class LiftOptions:
    seed: int = 0
    max_primes: int = 10_000
    primes: list[int] | None = None  # consumed before random sampling (tests)
    debug: Callable[[str], None] | None = None


@dataclass
class LiftState:
    """Accumulated modular knowledge at one level of the recursion."""

    level: str = "prime"  # "prime" | "point"
    record: ReductionRecord | None = None
    shape: tuple = ()
    # prime level: one CrtAccumulator for the whole flat vector;
    # point level: one LagrangeAccumulator per entry
    acc: CrtAccumulator | list | None = None
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
    """Attempt schedule: primes every step up to 200 then every 100th;
    evaluation points at square counts (degree grows quadratically)."""
    c = state.good_count
    if c < 1:
        return False
    if state.level == "point":
        r = math.isqrt(c)
        return r * r == c
    return c <= 200 or c % 100 == 0


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
        rng, fields, seen = _PRIME_LISTS.setdefault((seed, bits), (random.Random(seed), [], set()))
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


def _solve_image(builder: ProblemBuilder, bounds: list[int], fp: ModPrime, t_point, first: bool):
    """One base solve: order basis -> (record, flat padded solution columns).

    Solution-column components are padded to their degree bounds so the
    flat layout depends only on the record, never on accidental degree
    drops mod p.  `first` marks the first image of a level (no record to
    compare with yet): there the order basis itself raises NoSolution as
    soon as no column can fit, since the raw defects equal the
    normal-form ones.
    """
    prob = builder(fp, t_point)
    basis = sigma_basis(prob.streams, bounds, prob.sigma, fp, points=prob.points, need_solution=first)
    record, columns = sigma_normalize(basis)
    flat: list[int] = []
    for col in columns:
        for comp, b in zip(col, bounds):
            if len(comp) > b:
                raise CheckFailed("solution column exceeds its degree bound")
            flat.extend(comp)
            flat.extend([0] * (b - len(comp)))
    return record, flat


def _inner_solve(builder, bounds, fp, opts, rng, outer_state):
    """Lift over the parameter t at one prime.

    Returns (record, shape, values) with values the Z_p coefficients of
    the per-slot num/den polynomials in t, or None when bad reductions
    drown the good ones (the caller aborts).
    """
    state = LiftState(level="point")
    used: set[int] = set()
    pending = None  # list of (num, den) per slot
    max_draws = 4 * (INNER_EXPECTED_DEGREE + 1)
    for _ in range(max_draws):
        tau = rng.randrange(1, fp.p)
        if tau in used:
            continue
        used.add(tau)
        try:
            record, flat = _solve_image(builder, bounds, fp, tau, state.record is None)
        except BadModulus:
            _emit(outer_state, opts, "skip_point", fp.p, tau)
            continue
        verdict = check_reduction(record, state)
        if verdict != "bad" and _positive(record) == 0:
            raise NoSolution(f"empty solution space mod {fp.p} at t={tau}")
        if verdict == "bad":
            state.bad_count += 1
            _emit(outer_state, opts, "bad_point", fp.p, tau)
            if state.bad_count > state.good_count + 2:
                return None
            continue
        if verdict == "all_bad":
            _emit(outer_state, opts, "all_bad_points", fp.p, tau)
            state.record = None
            state.acc = None
            state.good_count = state.bad_count = 0
            pending = None
        if state.record is None:
            state.record = record
            state.acc = [LagrangeAccumulator(fp) for _ in flat]
        if pending is not None:
            ok = _match_poly_candidate(pending, flat, tau, fp)
            if ok:
                shape = tuple((len(num), len(den)) for num, den in pending)
                values = [c for num, den in pending for c in (*num, *den)]
                return state.record, shape, values
            if ok is False:
                pending = None
        for acc, v in zip(state.acc, flat):
            lagrange_add(acc, tau, v)
        state.good_count += 1
        if reconstruction_due(state):
            cand = []
            for acc in state.acc:
                nd = poly_rat_recon(acc)
                if nd is None:
                    cand = None
                    break
                cand.append(nd)
            _emit(outer_state, opts, "point_recon", fp.p, state.good_count, cand is not None)
            if cand is not None:
                pending = cand
    raise ReconstructionAborted(f"inner level exhausted {max_draws} points mod {fp.p}")


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
        is_zero = RatPoly.is_zero
    else:
        slots = list(values)
        is_zero = lambda v: v == 0  # noqa: E731
    columns = []
    it = iter(slots)
    for _ in range(_positive(record)):
        col = []
        for b in bounds:
            coeffs = [next(it) for _ in range(b)]
            while coeffs and is_zero(coeffs[-1]):
                coeffs.pop()
            col.append(coeffs)
        columns.append(col)
    return columns


def _reduce_flat(values, fp: ModPrime) -> list[int]:
    return [reduce_scalar(v, fp) for v in values]


def do_solve(builder: ProblemBuilder, bounds: list[int], domain: str = "rational",
             opts: LiftOptions | None = None) -> LiftResult:
    """Solve over Q (domain='rational') or Q(t) (domain='polyrational').

    Raises NoSolution when the module is empty within the bounds and
    ReconstructionAborted when resource caps run out.
    """
    if domain not in ("rational", "polyrational"):
        raise ValueError(f"unknown domain {domain!r}")
    opts = opts or LiftOptions()
    # q mode draws evaluation points from the same rng, so it samples afresh
    shared = opts.primes is None and domain == "rational"
    rng = None if shared else random.Random(opts.seed)
    state = LiftState(level="prime")
    forced = iter(opts.primes) if opts.primes is not None else iter(())
    used: set[int] = set()
    pending = None  # (columns, exact flat vector) awaiting a confirming prime
    for i in range(opts.max_primes):
        if shared:
            fp = _nth_field(opts.seed, PRIME_BITS, i)
        else:
            p = next(forced, None)
            if p is None:
                p = sample_prime(PRIME_BITS, exclude=used, rng=rng)
            if p in used:
                continue
            used.add(p)
            fp = ModPrime(p)
        p = fp.p
        try:
            if domain == "polyrational":
                inner = _inner_solve(builder, bounds, fp, opts, rng, state)
                if inner is None:
                    raise ReconstructionAborted(f"too many bad evaluation points mod {p}")
                record, shape, flat = inner
            else:
                record, flat = _solve_image(builder, bounds, fp, None, state.record is None)
                shape = ()
        except BadModulus:
            _emit(state, opts, "skip_prime", p)
            continue
        verdict = check_reduction(record, state, shape)
        if verdict == "bad":
            state.bad_count += 1
            if state.bad_count <= state.good_count + 2:
                _emit(state, opts, "bad_prime", p)
                continue
            verdict = "all_bad"  # the bad images outvote the state: adopt this one
        if _positive(record) == 0:
            raise NoSolution("a good modular image has an empty solution space")
        if verdict == "all_bad":
            _emit(state, opts, "all_bad", p)
            state.record = None
            state.shape = ()
            state.acc = None
            state.good_count = state.bad_count = 0
            pending = None
        if state.record is None:
            state.record = record
            state.shape = shape
            state.acc = CrtAccumulator([0] * len(flat))
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
    raise ReconstructionAborted(f"no stable reconstruction after {opts.max_primes} primes")
