"""Order-basis computation over a prime field.

Given m input streams and an order sigma, computes a basis of the
module of polynomial vectors (p_1, .., p_m) satisfying the first sigma
order conditions against the streams:

  - sequence form (`points` given): sum_l p_l(x_j) * stream_l[j] = 0
    for each sample point x_j,
  - series form (`points` omitted): the coefficients of x^0..x^(sigma-1)
    in sum_l p_l(x) * stream_l(x) all vanish.

The iteration keeps one column per row index, eliminates the order
condition j from all columns at step j using the column with the
largest defect as pivot, and multiplies the pivot by (x - x_j)
(respectively by x).  Defects are recomputed from the actual nonzero
coefficients after every update, so reported values never rely on the
no-cancellation argument being airtight mod p.

All columns share one int64 array M of shape (m, sigma + m * cap).  Row
k holds column k's sigma residuals (the order conditions applied to the
column), then its coefficients degree-major: slot sigma + d*m + l is the
x^d coefficient of component l.  Step j only touches M[:, j:sigma + w*m]
with w = (max degree) + 2: earlier residuals are already zero, and so
are the coefficients past the maximum degree.  Every entry is a residue
below p < 2**31, so a product of two residues is below 2**62; the sum is
reduced after every single multiply-add and never overflows int64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadModulus, NoSolution
from .modarith import ModPrime


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

    def solution_indices(self) -> list[int]:
        return [k for k, d in enumerate(self.defects) if d >= 1]


def sigma_basis(
    streams: list,
    bounds: list[int],
    sigma: int,
    fp: ModPrime,
    points: list[int] | None = None,
    tie_break: str = "low",
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
    if tie_break not in ("low", "high"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
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

    # score of the x^d coefficient of component l: d + 1 - bounds[l] + top > 0,
    # so the largest score over a column's nonzero slots is top + 1 - defect
    top = max(bounds, default=0)
    score = (np.arange(top + 1, top + cap + 1)[:, None] - np.array(bounds, dtype=np.int64)).ravel()
    defects = list(bounds)
    maxdeg = [0] * m  # per column, an upper bound on its degree
    hi = 0  # max(maxdeg)

    for j in range(sigma):
        rj = M[:, j].tolist()
        live = [k for k in range(m) if rj[k]]
        if not live:
            continue
        best = max(defects[k] for k in live)
        candidates = [k for k in live if defects[k] == best]
        piv = candidates[0] if tie_break == "low" else candidates[-1]
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
        if len(live) > 1:
            nz = M[:, sigma:end] != 0
            defects = [top + 1 - s for s in (nz * score[:end - sigma]).max(axis=1).tolist()]
        else:
            defects[piv] -= 1  # every nonzero component gained one degree
        if need_solution and max(defects) <= 0:
            raise NoSolution(f"empty solution space mod {p} after {j + 1} of {sigma} conditions")

    if max(defects, default=0) > top:  # a zero column scores 0: defect top + 1
        raise ValueError("zero column in order basis")
    block = M.T[sigma:sigma + (hi + 1) * m].reshape(hi + 1, m, m)  # [d, l, k], a view of M
    lengths = ((block != 0) * np.arange(1, hi + 2)[:, None, None]).max(axis=0).T
    coeffs = block[: lengths.max()].transpose(2, 1, 0)
    return SigmaBasisResult(coeffs=coeffs, degrees=lengths - 1, defects=defects, bounds=list(bounds), fp=fp)
