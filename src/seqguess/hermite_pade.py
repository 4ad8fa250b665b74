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

All columns share one int64 array M of shape (m, sigma + m * cap).  Row
k holds column k's sigma residuals (the order conditions applied to the
column), then its coefficients degree-major: slot sigma + d*m + l is the
x^d coefficient of component l.  Step j only touches M[:, j:sigma + w*m]
with w = (max degree) + 2: earlier residuals are already zero, and so
are the coefficients past the maximum degree.  Every entry is a residue
below p < 2**31, so a product of two residues is below 2**62; the sum is
reduced after every single multiply-add and never overflows int64.

For two streams (1, s), one extended Euclid run serves every degree
split (remainder_rows); the search uses it when a schema has few
conditions per split (guess.PAIR_SIGMA_PER_SPLIT).  The splits then
share the rows' lift as well as the image: lift.do_solve lifts each row
once per schema and serves every later split that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadModulus, NoSolution
from .modarith import ModPrime
from .rings import LagrangeAccumulator, lagrange_add, ptrim, remainder_sequence


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
    """Order basis of the first `sigma` conditions.

    streams[l] holds sigma residues: values at `points` in the sequence
    form, low-order series coefficients in the series form.  bounds[l]
    caps the component-l degree a column may reach while still counting
    as a solution (defect >= 1 means degree <= bounds[l] - 1 everywhere).

    need_solution: raise NoSolution as soon as every defect is <= 0.  The
    basis is reduced after every step and each step's module contains
    the next one, so the largest defect never rises again and the full
    basis would have no solution column either.
    """
    m = len(streams)
    if len(bounds) != m:
        raise ValueError("one degree bound per stream required")
    if any(len(s) != sigma for s in streams):
        raise ValueError("each stream must provide exactly sigma residues")
    import numpy as np  # only here: a search that builds no order basis never loads numpy
    p = fp.p
    cap = sigma + 1  # a degree grows by at most one per step
    # column-major, so that every window M[:, a:b] is one contiguous block
    M = np.zeros((m, sigma + m * cap), dtype=np.int64, order="F")
    M[:, :sigma] = streams
    M[:, :sigma] %= p
    for k in range(m):
        M[k, sigma + k] = 1
    if points is not None:
        if len(points) != sigma:
            raise ValueError("need exactly sigma sample points")
        pts = [x % p for x in points]
        if len(set(pts)) != sigma:
            raise BadModulus(f"sample points collide mod {p}")
        ext = np.zeros(M.shape[1], dtype=np.int64)  # points, then 0 under every coefficient
        ext[:sigma] = pts

    defects = list(bounds)
    maxdeg = [0] * m  # per column, an upper bound on its degree
    hi = 0  # max(maxdeg)

    for j in range(sigma):
        rj = M[:, j].tolist()
        live = [k for k in range(m) if rj[k]]
        if not live:
            continue
        piv = max(live, key=lambda k: (defects[k], k))  # the last of largest defect
        end = sigma + (hi + 2) * m
        V = M[:, j:end]
        if len(live) > 1:
            r_inv = pow(rj[piv], -1, p)
            c = [0] * m
            for k in live:
                if k != piv:
                    c[k] = -rj[k] * r_inv % p
                    maxdeg[k] = max(maxdeg[k], maxdeg[piv])
            V += np.multiply.outer(V[piv], c).T  # laid out like V
            V %= p
        # pivot <- (x - x_j) * pivot, residuals and coefficients alike
        R, cut = V[piv], sigma - j
        if points is not None:
            t = R * (ext[j:end] - pts[j])  # factors in (-p, p): |t| < 2**62
            t[cut + m:] += R[cut:-m]
            np.remainder(t, p, out=R)
        else:
            R[1:cut] = R[:cut - 1]
            R[0] = 0
            R[cut + m:] = R[cut:-m]
            R[cut:cut + m] = 0
        maxdeg[piv] += 1
        hi = max(hi, maxdeg[piv])
        defects[piv] -= 1  # the only defect a step changes (see the invariant)
        if need_solution and max(defects) <= 0:
            raise NoSolution(f"empty solution space mod {p} after {j + 1} of {sigma} conditions")

    block = M.T[sigma:sigma + (hi + 1) * m].reshape(hi + 1, m, m)  # [d, l, k], a view of M
    lengths = ((block != 0) * np.arange(1, hi + 2)[:, None, None]).max(axis=0).T
    coeffs = block[: lengths.max()].transpose(2, 1, 0)
    return SigmaBasisResult(coeffs=coeffs, degrees=lengths - 1, defects=defects, bounds=list(bounds), fp=fp)


def remainder_rows(stream: list, sigma: int, fp: ModPrime, points: list[int] | None = None) -> list:
    """Order basis of the streams (1, stream) for every degree split: the
    rows of remainder_sequence on (M, G), any two consecutive ones a basis
    of {p_0 = p_1 * G mod M} (the Pade table; von zur Gathen-Gerhard
    5.7-5.9).  Series form: M = x^sigma, G = -stream; sequence form:
    M = prod (x - x_j), G the interpolant of -stream, and colliding points
    raise BadModulus, as in sigma_basis."""
    p = fp.p
    if points is None:
        M, G = [0] * sigma + [1], ptrim([-v % p for v in stream], fp)
    else:
        if len({x % p for x in points}) != sigma:
            raise BadModulus(f"sample points collide mod {p}")
        acc = LagrangeAccumulator(fp)
        for x, v in zip(points, stream):
            lagrange_add(acc, x, -v)
        M, G = acc.node, acc.to_dense()
    return list(remainder_sequence(M, G, fp))
