"""Normal form of order bases and comparison of reduction records."""

import random

import numpy as np
import pytest

from oracles import (
    apply_matrix,
    condition_matrix,
    critical_index,
    flatten_solution,
    nullspace_dim,
    order_basis_instances,
    popov_solution_columns,
    vector_defect,
)
from seqguess.hermite_pade import SigmaBasisResult, sigma_basis
from seqguess.modarith import ModPrime
from seqguess.sigma_normalize import ReductionRecord, compare_reductions, sigma_normalize

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


def _columns(basis):
    return [[basis.poly(k, l) for l in range(basis.m)] for k in range(basis.m)]


def _as_basis(cols, bounds):
    """Pack coefficient-list columns as a raw order-basis result."""
    m = len(cols)
    stride = max(len(c) for col in cols for c in col) + 2
    coeffs = np.zeros((m, m, stride), dtype=np.int64)
    for k, col in enumerate(cols):
        for comp, c in enumerate(col):
            coeffs[k, comp, : len(c)] = c
    degs = np.array([[len(c) - 1 for c in col] for col in cols], dtype=np.int64)
    return SigmaBasisResult(coeffs, degs, [vector_defect(col, bounds) for col in cols], list(bounds), FP)


def _solution_pivots(record):
    return [(d, c) for d, c in zip(record.defects, record.crits) if d >= 1]


def test_normalize_is_idempotent():
    # the raw basis with its solution columns replaced by their normal form
    # normalizes to itself
    rng = random.Random(31)
    for _ in range(40):
        basis, *_ = _normalize_random(rng, rng.random() < 0.5)
        rec1, cols1 = sigma_normalize(basis)
        normal = {c: col for (_, c), col in zip(_solution_pivots(rec1), cols1)}
        mixed = [normal.get(critical_index(col, basis.bounds), col) for col in _columns(basis)]
        rec2, cols2 = sigma_normalize(_as_basis(mixed, basis.bounds))
        assert cols1 == cols2
        assert rec1 == rec2


def test_normalize_invariant_under_scaling_and_permutation():
    rng = random.Random(32)
    for _ in range(40):
        basis, *_ = _normalize_random(rng, rng.random() < 0.5)
        rec1, cols1 = sigma_normalize(basis)

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
        rec2, cols2 = sigma_normalize(mangled)
        assert cols1 == cols2
        assert rec1 == rec2


def test_normalized_columns_still_solve_and_are_monic():
    rng = random.Random(33)
    for _ in range(40):
        series = rng.random() < 0.5
        basis, streams, bounds, sigma, points = _normalize_random(rng, series)
        record, cols = sigma_normalize(basis)
        mat = condition_matrix(streams, bounds, sigma, P, points)
        assert list(record.defects) == sorted(record.defects, reverse=True)
        assert sorted(record.crits) == list(range(len(bounds)))
        pivots = _solution_pivots(record)
        assert len(cols) == len(pivots)
        for col, (d, crit) in zip(cols, pivots):
            assert apply_matrix(mat, flatten_solution(col, bounds), P) == [0] * sigma
            assert col[crit][-1] == 1  # monic in the critical component
            assert vector_defect(col, list(bounds)) == d
            assert critical_index(col, list(bounds)) == crit


def test_record_fields():
    rng = random.Random(34)
    basis, *_ = _normalize_random(rng, False)
    record, cols = sigma_normalize(basis)
    raw = sorted((-vector_defect(col, basis.bounds), critical_index(col, basis.bounds)) for col in _columns(basis))
    assert record.defects == tuple(-d for d, _ in raw)
    assert record.crits == tuple(c for _, c in raw)
    assert record.lead_exps == tuple(
        basis.bounds[c] - d for d, c in zip(record.defects, record.crits)
    )
    assert len(cols) == sum(1 for d in record.defects if d >= 1)


def test_solution_columns_equal_dense_popov_oracle():
    rng = random.Random(35)
    for _ in range(40):
        series = rng.random() < 0.5
        m = rng.randint(2, 3)
        bounds = [rng.randint(1, 4) for _ in range(m)]
        sigma = rng.randint(1, 8)
        streams = [[rng.randrange(P) for _ in range(sigma)] for _ in range(m)]
        points = None if series else rng.sample(range(P), sigma)
        record, cols = sigma_normalize(sigma_basis(streams, bounds, sigma, FP, points=points))
        oracle = popov_solution_columns(streams, bounds, sigma, P, points)
        assert _solution_pivots(record) == [(d, c) for d, c, _ in oracle]
        assert cols == [col for *_, col in oracle]


def test_raw_defects_equal_normal_form_defects():
    # the order basis is already reduced, so its defects are the invariant
    # ones; lift relies on this to decide NoSolution before normalizing
    p = 2147483647
    fp = ModPrime(p)
    for bounds, sigma, streams, points in order_basis_instances(p):
        raw = sigma_basis(streams, bounds, sigma, fp, points=points)
        defects = sigma_normalize(raw)[0].defects
        assert tuple(sorted(raw.defects, reverse=True)) == defects
        oracle = popov_solution_columns(streams, bounds, sigma, p, points)
        assert [d for d in defects if d >= 1] == [d for d, _, _ in oracle]
        if max(raw.defects) <= 0:
            mat = condition_matrix(streams, bounds, sigma, p, points)
            assert nullspace_dim(mat, sum(bounds), p) == 0
