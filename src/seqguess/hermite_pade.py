"""Order-basis computation over a prime field.

Given m input streams and an order sigma, computes a basis of the
module of polynomial vectors (p_1, .., p_m) satisfying the first sigma
order conditions against the streams:

  - sequence form (`points` given): sum_l p_l(x_j) * stream_l[j] = 0
    for each sample point x_j,
  - series form (`points` omitted): the coefficients of x^0..x^(sigma-1)
    in sum_l p_l(x) * stream_l(x) all vanish.

The iteration keeps one column per row index, eliminates the order
condition j from all columns at step j using as pivot the last live
column of largest defect, and multiplies the pivot by (x - x_j)
(respectively by x).  A column's defect is min over its nonzero
components l of bounds[l] - deg (the margin), its critical index the
smallest l attaining it.

Invariant: column k keeps critical index k, and only the pivot's defect
changes, by -1, so defects are tracked, not recomputed, and the basis
leaves in weak Popov form.  Induction on the steps: column k starts as
e_k.  Multiplying the pivot by x or (x - x_j) raises every degree by
one.  Adding c * pivot to a column of smaller defect keeps its leading
terms, as the pivot's margin exceeds that defect everywhere.  Adding it
to a column k of equal defect keeps k's critical entry: k < pivot (the
pivot is the last candidate), so k's critical index is lower than the
pivot's, and in every component up to k the pivot's margin is above the
defect, its own critical index being the first component to reach it.
This is exact mod p; sigma_normalize checks the defects against the
degrees.

sigma_bases runs K images of one problem in lockstep (sigma_basis is
its K = 1 case), each with its own prime and points.  All share one int64
array M indexed (slot, image, row), of sigma + m * cap slots.  Row k of
an image holds column k's sigma residuals (the order conditions applied
to the column), then its coefficients degree-major: slot sigma + d*m + l
is the x^d coefficient of component l.  Step j only touches M[j:sigma +
w*m] with w = (max degree) + 2, one contiguous block: earlier residuals
are already zero, and so are the coefficients past the maximum degree.
Every entry is a residue below p < 2**31, so a product of two residues
is below 2**62; the sum is reduced after every single multiply-add and
never overflows int64.

The pivot choice and the defect bookkeeping depend only on which
residuals are live (nonzero), so the images share them as long as their
live patterns agree.  At a step where an image's pattern departs from
the batch's (the union: a residual that vanishes modulo its prime only),
that image leaves and is solved alone, and one whose points collide
fails alone; so every image gets the basis sigma_basis gives it.  A
batch keeps that bookkeeping in arrays over its images: the live
pattern, the images that leave and the pivot multipliers; a lone image
keeps it in Python ints.  The lift batches the images each of its levels
reads between two reconstruction attempts: primes over Q, and the
points of one prime over Q(t).

For two streams (1, s), one extended Euclid run serves every degree
split (remainder_rows); the search uses it when a schema has few
conditions per split (guess.PAIR_SIGMA_PER_SPLIT).  The splits then
share the rows' lift as well as the image: lift.pair_splits settles every
split without a solution column with one scan of the first image's rows,
and lift.do_solve lifts each row once per schema and serves every later
split that reads it.  In the sequence form the interpolant comes from
rings.interpolate, the routine the lift's point level uses too, on the
node polynomial and barycentric weights of the points, kept per (prime,
points) for the last NODE_CACHE point sets (_nodes).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import BadModulus, NoSolution
from .modarith import ModPrime
from .rings import interpolate, node_weights, ptrim, remainder_sequence

NODE_CACHE = 32  # point sets whose node polynomial and weights _nodes keeps


@dataclass
class SigmaBasisResult:
    """Full order basis: every column, not only the small-defect ones."""

    coeffs: np.ndarray  # coeffs[col, comp, d] = x^d coefficient
    degrees: np.ndarray  # degrees[col][comp], -1 for the zero polynomial
    defects: list[int]  # min over nonzero comps of bounds[comp] - degree
    bounds: list[int]
    fp: ModPrime

    @property
    def m(self) -> int:
        return len(self.coeffs)

    def poly(self, col: int, comp: int) -> list[int]:
        """Dense coefficient list of one component, trailing zeros trimmed."""
        return self.coeffs[col, comp, : self.degrees[col][comp] + 1].tolist()


def sigma_basis(
    streams: list,
    bounds: list[int],
    sigma: int,
    fp: ModPrime,
    points: list[int] | None = None,
    need_solution: bool = False,
) -> SigmaBasisResult:
    """Order basis of the first `sigma` conditions: sigma_bases on one image.

    streams[l] holds sigma residues: values at `points` in the sequence
    form, low-order series coefficients in the series form.  bounds[l]
    caps the component-l degree a column may reach while still counting
    as a solution (defect >= 1 means degree <= bounds[l] - 1 everywhere).

    need_solution: raise NoSolution as soon as every defect is <= 0.  The
    basis is reduced after every step and each step's module contains
    the next one, so the largest defect never rises again and the full
    basis would have no solution column either.
    """
    (out,) = sigma_bases([streams], bounds, sigma, [fp], None if points is None else [points], need_solution)
    if isinstance(out, Exception):
        try:
            raise out
        finally:
            out = None  # the traceback holds this frame: it must not hold the exception
    return out


def sigma_bases(
    streams: list,
    bounds: list[int],
    sigma: int,
    fps: list[ModPrime],
    points: list | None = None,
    need_solution: bool = False,
) -> list:
    """Order bases of K images of one problem, in lockstep.

    Image i has the streams streams[i] and the points points[i], residues
    modulo fps[i].p.  Returns, per image, what sigma_basis returns on that
    image alone: its SigmaBasisResult, or the BadModulus or NoSolution it
    would raise.  An image whose points collide is dropped at the start;
    one whose live pattern departs from the batch's is solved alone.
    """
    m = len(bounds)
    if any(len(s) != m for s in streams):
        raise ValueError("one degree bound per stream required")
    if any(len(row) != sigma for s in streams for row in s):
        raise ValueError("each stream must provide exactly sigma residues")
    if points is not None and any(len(pts) != sigma for pts in points):
        raise ValueError("need exactly sigma sample points")
    import numpy as np  # only here: a search that builds no order basis never loads numpy
    out: list = [None] * len(fps)
    if points is not None:
        points = [[x % fp.p for x in pts] for pts, fp in zip(points, fps)]
        for i, (pts, fp) in enumerate(zip(points, fps)):
            if len(set(pts)) != sigma:
                out[i] = BadModulus(f"sample points collide mod {fp.p}")
    batch = [i for i, o in enumerate(out) if o is None]  # images still in lockstep
    if not batch:
        return out
    solo: list[int] = []  # images that left the batch
    cap = sigma + 1  # a degree grows by at most one per step
    # slot-major, so that every window M[a:b] is one contiguous block
    M = np.zeros((sigma + m * cap, len(batch), m), dtype=np.int64)
    M[:sigma].reshape(sigma, -1).T[:] = [row for i in batch for row in streams[i]]
    for k in range(m):
        M[sigma + k, :, k] = 1
    if points is not None:  # points, then 0 under every coefficient
        ext = np.zeros(M.shape[:2], dtype=np.int64)
        ext[:sigma].T[:] = [points[i] for i in batch]

    def lanes():
        """The batch's primes; their moduli broadcast against the pivot's
        (slot, image) view and against the (slot, image, row) window; the
        image index of that view (0 for one image: 1-D views are faster);
        the points, viewed as the pivot is."""
        ps = [fps[i].p for i in batch]
        sel = 0 if len(ps) == 1 else slice(None)
        X = None if points is None else ext[:, sel]
        if len(ps) == 1:
            return ps, ps[0], ps[0], sel, X
        P = np.array(ps, dtype=np.int64)
        return ps, P, P[:, None], sel, X

    ps, mod2, mod3, sel, X = lanes()
    M[:sigma] %= mod3

    defects = list(bounds)
    maxdeg = [0] * m  # per column, an upper bound on its degree
    hi = 0  # max(maxdeg)
    all_rows = list(range(m))

    for j in range(sigma):
        lone = len(ps) == 1
        if lone:
            r = M[j, 0].tolist()  # the step's residuals
            live = [k for k in range(m) if r[k]]
        elif M[j].all():  # every residual live: the batch's pattern
            live = all_rows
        else:  # the batch's live pattern; an image that departs from it leaves
            nz = M[j] != 0  # (image, row)
            on = nz.any(axis=0)
            stay = (nz | ~on).all(axis=1)
            if not stay.all():
                keep = np.flatnonzero(stay)
                solo += [i for i, s in zip(batch, stay.tolist()) if not s]
                batch, M = [batch[a] for a in keep.tolist()], M[:, keep]
                if points is not None:
                    ext = ext[:, keep]
                if not batch:
                    break
                ps, mod2, mod3, sel, X = lanes()
            live = np.flatnonzero(on).tolist()
        if not live:
            continue
        piv = max(live, key=lambda k: (defects[k], k))  # the last of largest defect
        end = sigma + (hi + 2) * m
        V = M[j:end]
        Vs = V[:, sel]  # (slot, row), or (slot, image, row) for several images
        R, cut = Vs[..., piv], sigma - j  # the pivot column of every image
        if len(live) > 1:
            # per image, the multiple of the pivot each column adds
            if lone:
                p = ps[0]
                neg_inv = p - pow(r[piv], -1, p)
                C = [x * neg_inv % p for x in r]
                C[piv] = 0
            else:  # (image, row); mod3 is (image, 1), or one int if a single image is left
                Z = M[j]
                neg_inv = [p - pow(x, -1, p) for x, p in zip(Z[:, piv].tolist(), ps)]
                C = Z * np.array(neg_inv, dtype=np.int64)[:, None] % mod3
                C[:, piv] = 0
            for k in live:
                if k != piv:
                    maxdeg[k] = max(maxdeg[k], maxdeg[piv])
            Vs += R[..., None] * C
            V %= mod3
        # pivot <- (x - x_j) * pivot, residuals and coefficients alike
        if points is not None:
            t = R * (X[j:end] - X[j])  # factors in (-p, p): |t| < 2**62
            t[cut + m:] += R[cut:-m]
            np.remainder(t, mod2, out=R)
        else:
            R[1:cut] = R[:cut - 1]
            R[0] = 0
            R[cut + m:] = R[cut:-m]
            R[cut:cut + m] = 0
        maxdeg[piv] += 1
        hi = max(hi, maxdeg[piv])
        defects[piv] -= 1  # the only defect a step changes (see the invariant)
        if need_solution and max(defects) <= 0:
            for i, p in zip(batch, ps):
                out[i] = NoSolution(f"empty solution space mod {p} after {j + 1} of {sigma} conditions")
            batch = []
            break

    for a, i in enumerate(batch):
        block = M[sigma:sigma + (hi + 1) * m, a].reshape(hi + 1, m, m)  # [d, l, k], a view of M
        lengths = ((block != 0) * np.arange(1, hi + 2)[:, None, None]).max(axis=0).T
        out[i] = SigmaBasisResult(coeffs=block[: lengths.max()].transpose(2, 1, 0), degrees=lengths - 1,
                                  defects=list(defects), bounds=list(bounds), fp=fps[i])
    for i in solo:
        (out[i],) = sigma_bases([streams[i]], bounds, sigma, [fps[i]], None if points is None else [points[i]],
                                need_solution)
    return out


def remainder_rows(stream: list, sigma: int, fp: ModPrime, points: list[int] | None = None) -> list:
    """Order basis of the streams (1, stream) for every degree split: the
    rows of remainder_sequence on (M, G), any two consecutive ones a basis
    of {p_0 = p_1 * G mod M} (the Pade table; von zur Gathen-Gerhard
    5.7-5.9).  Series form: M = x^sigma, G = -stream; sequence form:
    M = prod (x - x_j) and G the interpolant of -stream, both from
    rings.interpolate on the node polynomial and weights of _nodes, and
    colliding points raise BadModulus, as in sigma_basis.
    """
    p = fp.p
    if points is None:
        M, G = [0] * sigma + [1], ptrim([-v % p for v in stream], fp)
    else:
        xs = tuple(x % p for x in points)
        if len(set(xs)) != sigma:
            raise BadModulus(f"sample points collide mod {p}")
        M, (G,) = interpolate(fp, xs, [[-v for v in stream]], _nodes)
    return list(remainder_sequence(M, G, fp))


@functools.lru_cache(maxsize=NODE_CACHE)
def _nodes(p: int, xs: tuple) -> tuple[tuple, tuple]:
    """rings.node_weights(p, xs): the node polynomial and weights of the
    distinct points xs mod p.

    The search reads the same points at the same primes in every schema
    size and every operator-search node, so the last NODE_CACHE point sets
    are kept.  An entry holds 3 sigma + 2 ints, its key (p, xs) included
    (sigma = len(xs)), so the cache holds at most NODE_CACHE * (3 sigma_max
    + 2) ints, sigma_max the most points of a cached set; never a
    sigma x sigma matrix.
    """
    return node_weights(p, xs)
