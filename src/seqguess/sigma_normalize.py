"""Canonical form for order bases and bad-reduction bookkeeping.

An order basis fixes the solution module but not its presentation: any
column may absorb multiples of columns with equal or larger defect
without changing what is spanned.  The normal form is the shifted Popov
form (Beckermann-Labahn-Villard, "Normal forms for general polynomial
matrices", JSC 2006): the unique representative with

  * columns sorted by defect (descending), then critical index
    (ascending),
  * each column monic in its critical component,
  * no column containing the leading critical-component term of any
    other column (pairwise reduced).

sigma_basis leaves its basis in weak Popov form: the critical indices
are distinct.  Defects, critical indices and critical degrees are then
already those of the normal form, so the record is read off the basis.
Only the solution columns (defect >= 1) are reduced, since they are all
lift reads: a column of defect <= 0 has critical degree at least its
bound and so can never strike a solution column.

Because the form is unique, its shape summary (`ReductionRecord`) is a
fingerprint of the solution module itself.  Images of the same exact
problem under two good primes produce identical records; an unlucky
prime inflates the module and produces a comparably "larger" record,
which is how bad reductions are detected without knowing the answer.
For two streams (1, s), pair_normalize reads the same normal form off a
remainder sequence instead of an order basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CheckFailed
from .hermite_pade import SigmaBasisResult
from .modarith import ModPrime
from .rings import pscale

_REDUCE_CAP = 10**6  # safety valve; the reduction provably terminates


@dataclass(frozen=True)
class ReductionRecord:
    """Shape fingerprint of a normalized basis, one entry per column."""

    defects: tuple[int, ...]
    crits: tuple[int, ...]
    lead_exps: tuple[int, ...]


def compare_reductions(new: ReductionRecord, old: ReductionRecord) -> str:
    """'equal', 'better' (new wins), 'worse' (old wins), or 'incompatible'.

    A modular image can only lose rank against the exact problem, so its
    solution-space dimension at every degree slack is at least the exact
    one; in terms of the records (defects sorted descending) that says
    the prefix sums of a bad image dominate the good ones.  The total is
    conserved, so dominated prefix sums = flatter profile = closer to
    generic.  At equal defects the critical indices decide componentwise;
    mixed directions mean both sides saw some bad reduction.  Equality
    requires leading exponents to match too.
    """
    if len(old.defects) != len(new.defects):
        raise ValueError("records compare only within one problem shape")
    if old == new:
        return "equal"
    new_wins, old_wins = False, False
    ns = os = 0
    for nd, od in zip(new.defects, old.defects):
        ns += nd
        os += od
        if ns < os:
            new_wins = True
        elif ns > os:
            old_wins = True
    if not new_wins and not old_wins:
        for nc, oc in zip(new.crits, old.crits):
            if nc < oc:
                new_wins = True
            elif nc > oc:
                old_wins = True
    if new_wins == old_wins:
        # both (mixed directions) or neither (only leading exponents differ)
        return "incompatible"
    return "better" if new_wins else "worse"


def _strike(q: list[list[int]], s: list[list[int]], i: int, fp: ModPrime) -> None:
    """q -= alpha * x^shift * s, killing q's leading term in component i."""
    shift = len(q[i]) - len(s[i])
    alpha = fp.div(q[i][-1], s[i][-1])
    for comp in range(len(q)):
        sc = s[comp]
        if not sc:
            continue
        need = shift + len(sc)
        if len(q[comp]) < need:
            q[comp] = q[comp] + [0] * (need - len(q[comp]))
        qc = q[comp]
        for t, cv in enumerate(sc):
            pos = shift + t
            qc[pos] = (qc[pos] - alpha * cv) % fp.p
        while qc and qc[-1] == 0:
            qc.pop()


def sigma_normalize(basis: SigmaBasisResult) -> tuple[ReductionRecord, list[list[list[int]]]]:
    """Reduction record of an order basis and its normalized solution columns.

    The record covers every column.  The solution columns come in record
    order as coefficient-list vectors.  Among them, the loop repeatedly
    strikes, of all still-possible reductions of any column against any
    other column's critical leading term, the one acting on the component
    with the smallest remaining degree margin; that choice makes progress
    monotone.  No strike changes a defect or critical index.
    """
    import numpy as np  # only here: a search that builds no order basis never loads numpy
    fp, bounds, defects, deg = basis.fp, basis.bounds, basis.defects, basis.degrees
    margins = np.where(deg >= 0, np.array(bounds) - deg, np.iinfo(np.int64).max)
    if margins.min(axis=1).tolist() != list(defects):
        raise CheckFailed("order-basis defects disagree with its degrees")
    crits = margins.argmin(axis=1).tolist()
    if len(set(crits)) != len(crits):
        raise CheckFailed("order basis is not in weak Popov form")
    order = sorted(range(basis.m), key=lambda k: (-defects[k], crits[k]))
    record = ReductionRecord(tuple(defects[k] for k in order), tuple(crits[k] for k in order),
                             tuple(bounds[crits[k]] - defects[k] for k in order))
    sol = [k for k in order if defects[k] >= 1]
    cols = [[basis.poly(k, i) for i in range(basis.m)] for k in sol]
    crit = [crits[k] for k in sol]

    for _round in range(_REDUCE_CAP):
        best = None  # (margin, component, target, reducer)
        for k, q in enumerate(cols):
            for j, s in enumerate(cols):
                if j == k:
                    continue
                i = crit[j]
                if q[i] and len(q[i]) >= len(s[i]):
                    margin = bounds[i] - (len(q[i]) - 1)
                    cand = (margin, i, k, j)
                    if best is None or cand < best:
                        best = cand
        if best is None:
            break
        _, i, k, j = best
        _strike(cols[k], cols[j], i, fp)
    else:
        raise CheckFailed("normalization did not terminate")

    for v, k in zip(cols, sol):
        c = crits[k]
        if len(v[c]) != bounds[c] - defects[k] + 1:
            raise CheckFailed("normalization moved a critical leading term")
        inv = fp.inv(v[c][-1])
        if inv != 1:
            for comp in range(basis.m):
                v[comp] = [x * inv % fp.p for x in v[comp]]
    return record, cols


def pair_split(rows: list, bounds: list[int]) -> int:
    """The k whose rows k - 1, k of hermite_pade.remainder_rows are the
    order basis of the degree split `bounds` = (a, b).

    Row k is the first of critical index 1 (b - deg t < a - deg r, always
    true for r = 0), so row k - 1 has critical index 0.  deg r falls and
    deg t rises along the rows, so rows k - 1, k are a basis in Popov form.
    """
    a, b = bounds
    return next(i for i, (r, t) in enumerate(rows) if t and (not r or b - len(t) < a - len(r)))


def pair_defects(rows: list, bounds: list[int]) -> tuple[int, int, int]:
    """(k, d0, d1): the k of pair_split and the defects of its two basis
    columns, d0 = a + 1 - len(r_(k-1)) at critical index 0 and
    d1 = b + 1 - len(t_k) at critical index 1.  The split has a solution
    column iff max(d0, d1) >= 1."""
    a, b = bounds
    k = pair_split(rows, bounds)
    return k, a + 1 - len(rows[k - 1][0]), b + 1 - len(rows[k][1])


def pair_normalize(rows: list, bounds: list[int], fp: ModPrime) -> tuple[ReductionRecord, list[list[list[int]]]]:
    """sigma_normalize's output for streams (1, s), off hermite_pade.remainder_rows.

    Sorting the rows k - 1, k of pair_defects and making the solution
    columns monic gives the unique normal form, with no strike.
    """
    k, d0, d1 = pair_defects(rows, bounds)
    cols = sorted([(d0, 0, list(rows[k - 1])), (d1, 1, list(rows[k]))], key=lambda c: (-c[0], c[1]))
    record = ReductionRecord(tuple(d for d, _, _ in cols), tuple(c for _, c, _ in cols),
                             tuple(bounds[c] - d for d, c, _ in cols))
    return record, [[pscale(comp, fp.inv(v[c][-1]), fp) for comp in v] for d, c, v in cols if d >= 1]
