"""Normal form of order bases and comparison of reduction records."""

import random

import numpy as np
import pytest

from oracles import apply_matrix, condition_matrix, flatten_solution, nullspace_dim, order_basis_instances
from seqguess.hermite_pade import SigmaBasisResult, sigma_basis
from seqguess.modarith import ModPrime
from seqguess.sigma_normalize import (
    ReductionRecord,
    compare_reductions,
    critical_index,
    sigma_normalize,
    vector_defect,
)

P = 10007
FP = ModPrime(P)


def test_vector_defect_and_critical_index():
    bounds = [3, 2]
    assert vector_defect([[0, 0, 1], []], bounds) == 1  # deg 2 comp 0
    assert vector_defect([[1], [1]], bounds) == 2  # min(3-0, 2-0)
    assert vector_defect([[0, 0, 0, 1], [1]], bounds) == 0  # deg 3 hits the cap
    assert vector_defect([[0, 0, 0, 0, 1], []], bounds) == -1
    assert critical_index([[1], [1]], bounds) == 1  # margin 2 at both, first attaining... comp with min margin
    assert critical_index([[0, 1], [1]], bounds) == 0
    with pytest.raises(ValueError):
        vector_defect([[], []], bounds)


def test_compare_reductions_frozen():
    def rec(defects, crits=None, leads=None):
        n = len(defects)
        return ReductionRecord(
            tuple(defects),
            tuple(crits if crits is not None else range(n)),
            tuple(leads if leads is not None else [0] * n),
        )

    assert compare_reductions(rec([2, 1]), rec([2, 1])) == "equal"
    # flatter defect profile (prefix sums dominate) = closer to generic
    assert compare_reductions(rec([3, 1]), rec([2, 1])) == "worse"
    assert compare_reductions(rec([2, 1]), rec([3, 1])) == "better"
    assert compare_reductions(rec([1, 1]), rec([2, 0])) == "better"
    assert compare_reductions(rec([2, 0]), rec([1, 1])) == "worse"
    # crossing prefix sums: both sides degenerate somewhere
    assert compare_reductions(rec([3, 0, 0]), rec([2, 2, -1])) == "incompatible"
    # equal defects: critical indices break the tie componentwise
    assert compare_reductions(rec([2, 1], [0, 1]), rec([2, 1], [1, 0])) == "incompatible"
    assert compare_reductions(rec([2, 1], [0, 2]), rec([2, 1], [0, 1])) == "worse"
    assert compare_reductions(rec([2, 1], [0, 1]), rec([2, 1], [0, 2])) == "better"
    # only the leading exponents differ: no way to rank
    assert compare_reductions(rec([2, 1], [0, 1], [1, 2]), rec([2, 1], [0, 1], [2, 1])) == "incompatible"
    with pytest.raises(ValueError):
        compare_reductions(rec([1]), rec([1, 1]))


def _normalize_random(rng, series):
    m = rng.randint(2, 3)
    bounds = [rng.randint(1, 4) for _ in range(m)]
    sigma = rng.randint(1, min(sum(bounds) + 1, 8))
    streams = [[rng.randrange(P) for _ in range(sigma)] for _ in range(m)]
    points = None if series else rng.sample(range(P), sigma)
    basis = sigma_basis(streams, bounds, sigma, FP, points=points)
    return basis, streams, bounds, sigma, points


def _rebuild(normalized):
    """Repackage a normal form as a raw basis result, reusing its columns."""
    m = len(normalized.columns)
    stride = max(max((len(c) for c in col), default=0) for col in normalized.columns) + 2
    coeffs = np.zeros((m, m, stride), dtype=np.int64)
    degs = []
    for k, col in enumerate(normalized.columns):
        for comp, c in enumerate(col):
            coeffs[k, comp, : len(c)] = c
        degs.append([len(c) - 1 for c in col])
    defects = [
        min(b - d for b, d in zip(normalized.bounds, row) if d >= 0) for row in degs
    ]
    return SigmaBasisResult(coeffs, np.array(degs, dtype=np.int64), defects, list(normalized.bounds), FP)


def test_normalize_is_idempotent():
    rng = random.Random(31)
    for _ in range(40):
        basis, *_ = _normalize_random(rng, rng.random() < 0.5)
        n1 = sigma_normalize(basis)
        n2 = sigma_normalize(_rebuild(n1))
        assert n1.columns == n2.columns
        assert (n1.defects, n1.crits) == (n2.defects, n2.crits)


def test_normalize_invariant_under_scaling_and_permutation():
    rng = random.Random(32)
    for _ in range(40):
        basis, *_ = _normalize_random(rng, rng.random() < 0.5)
        n1 = sigma_normalize(basis)

        order = list(range(basis.m))
        rng.shuffle(order)
        coeffs = basis.coeffs[order]
        for col in coeffs:
            col[:] = col * rng.randint(1, P - 1) % P
        mangled = SigmaBasisResult(
            coeffs,
            basis.degrees[order],
            [basis.defects[k] for k in order],
            basis.bounds,
            FP,
        )
        n2 = sigma_normalize(mangled)
        assert n1.columns == n2.columns
        assert (n1.defects, n1.crits) == (n2.defects, n2.crits)


def test_normalized_columns_still_solve_and_are_monic():
    rng = random.Random(33)
    for _ in range(40):
        series = rng.random() < 0.5
        basis, streams, bounds, sigma, points = _normalize_random(rng, series)
        norm = sigma_normalize(basis)
        mat = condition_matrix(streams, bounds, sigma, P, points)
        assert norm.defects == sorted(norm.defects, reverse=True)
        for col, d, crit in zip(norm.columns, norm.defects, norm.crits):
            if d >= 1:
                assert apply_matrix(mat, flatten_solution(col, bounds), P) == [0] * sigma
            assert col[crit][-1] == 1  # monic in the critical component
            assert vector_defect(col, list(bounds)) == d
            assert critical_index(col, list(bounds)) == crit


def test_record_fields():
    rng = random.Random(34)
    basis, *_ = _normalize_random(rng, False)
    norm = sigma_normalize(basis)
    rec = norm.record()
    assert rec.defects == tuple(norm.defects)
    assert rec.crits == tuple(norm.crits)
    assert rec.lead_exps == tuple(
        norm.bounds[c] - d for d, c in zip(norm.defects, norm.crits)
    )
    assert norm.solution_indices() == [k for k, d in enumerate(norm.defects) if d >= 1]


def test_tie_break_direction_does_not_change_normal_form():
    rng = random.Random(35)
    for _ in range(40):
        series = rng.random() < 0.5
        m = rng.randint(2, 3)
        bounds = [rng.randint(1, 4) for _ in range(m)]
        sigma = rng.randint(1, 8)
        streams = [[rng.randrange(P) for _ in range(sigma)] for _ in range(m)]
        points = None if series else rng.sample(range(P), sigma)
        lo = sigma_normalize(sigma_basis(streams, bounds, sigma, FP, points=points))
        hi = sigma_normalize(sigma_basis(streams, bounds, sigma, FP, points=points, tie_break="high"))
        assert lo.columns == hi.columns
        assert (lo.defects, lo.crits) == (hi.defects, hi.crits)


def test_raw_defects_equal_normal_form_defects():
    # the order basis is already reduced, so its defects are the invariant
    # ones; lift relies on this to decide NoSolution before normalizing
    p = 2147483647
    fp = ModPrime(p)
    for bounds, sigma, streams, points in order_basis_instances(p):
        raw = sigma_basis(streams, bounds, sigma, fp, points=points)
        assert sorted(raw.defects, reverse=True) == sigma_normalize(raw).defects
        if not raw.solution_indices():
            mat = condition_matrix(streams, bounds, sigma, p, points)
            assert nullspace_dim(mat, sum(bounds), p) == 0
