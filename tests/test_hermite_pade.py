"""Order-basis solver checked against dense Gaussian elimination."""

import random

import numpy as np
import pytest

from oracles import (
    apply_matrix,
    condition_matrix,
    flatten_solution,
    nullspace_dim,
    matrix_rank,
    order_basis_instances,
)
from seqguess.errors import BadModulus, NoSolution
from seqguess.hermite_pade import sigma_basis
from seqguess.modarith import ModPrime

P = 10007
FP = ModPrime(P)


def _random_instance(rng, series: bool):
    m = rng.randint(2, 3)
    bounds = [rng.randint(1, 4) for _ in range(m)]
    sigma = rng.randint(1, 9)
    streams = [[rng.randrange(P) for _ in range(sigma)] for _ in range(m)]
    points = None if series else rng.sample(range(P), sigma)
    return streams, bounds, sigma, points


def _solution_vectors(res):
    """Flattened in-bound vectors spanned by the basis: for a column of
    defect d, the column and its first d-1 shifts all stay in bounds."""
    vecs = []
    for k in res.solution_indices():
        for s in range(res.defects[k]):
            polys = []
            for comp in range(len(res.bounds)):
                c = res.poly(k, comp)
                polys.append(([0] * s + c) if c else [])
            vecs.append(flatten_solution(polys, res.bounds))
    return vecs


def test_every_column_satisfies_all_conditions():
    rng = random.Random(1)
    for _ in range(60):
        series = rng.random() < 0.5
        streams, bounds, sigma, points = _random_instance(rng, series)
        res = sigma_basis(streams, bounds, sigma, FP, points=points)
        for k in range(res.m):
            polys = [res.poly(k, comp) for comp in range(len(bounds))]
            assert any(polys), "zero column"
            # conditions apply to every basis column, solution or not,
            # evaluated without the degree cap
            wide = [len(p) for p in polys]
            mat = condition_matrix(streams, wide, sigma, P, points)
            flat = flatten_solution(polys, wide)
            assert apply_matrix(mat, flat, P) == [0] * sigma


def test_solution_count_matches_nullspace_dimension():
    rng = random.Random(2)
    for _ in range(60):
        series = rng.random() < 0.5
        streams, bounds, sigma, points = _random_instance(rng, series)
        res = sigma_basis(streams, bounds, sigma, FP, points=points)
        mat = condition_matrix(streams, bounds, sigma, P, points)
        dim = nullspace_dim(mat, sum(bounds), P)
        vecs = _solution_vectors(res)
        assert sum(max(d, 0) for d in res.defects) == dim
        # the shifted solution family is independent and lies in the kernel
        assert len(vecs) == dim
        for v in vecs:
            assert apply_matrix(mat, v, P) == [0] * sigma
        assert matrix_rank(vecs, P) == dim


def test_degree_bookkeeping():
    rng = random.Random(3)
    for _ in range(30):
        series = rng.random() < 0.5
        streams, bounds, sigma, points = _random_instance(rng, series)
        res = sigma_basis(streams, bounds, sigma, FP, points=points)
        for k in range(res.m):
            for comp in range(len(bounds)):
                c = res.poly(k, comp)
                assert int(res.degrees[k][comp]) == len(c) - 1
                if c:
                    assert c[-1] != 0
            live = [bounds[c] - int(d) for c, d in enumerate(res.degrees[k]) if d >= 0]
            assert res.defects[k] == min(live)


def test_deterministic_and_tie_break_variants():
    rng = random.Random(4)
    streams, bounds, sigma, points = _random_instance(rng, False)
    a = sigma_basis(streams, bounds, sigma, FP, points=points)
    b = sigma_basis(streams, bounds, sigma, FP, points=points)
    assert np.array_equal(a.coeffs, b.coeffs)
    hi = sigma_basis(streams, bounds, sigma, FP, points=points, tie_break="high")
    mat = condition_matrix(streams, bounds, sigma, P, points)
    assert sum(max(d, 0) for d in hi.defects) == nullspace_dim(mat, sum(bounds), P)


def test_zero_streams_everything_is_a_solution():
    streams = [[0, 0, 0], [0, 0, 0]]
    res = sigma_basis(streams, [2, 2], 3, FP, points=[0, 1, 2])
    # no condition ever bites: the identity basis survives with full defects
    assert res.defects == [2, 2]
    assert res.poly(0, 0) == [1] and res.poly(1, 1) == [1]


def test_validation_errors():
    with pytest.raises(ValueError):
        sigma_basis([[1, 2]], [1, 1], 2, FP, points=[0, 1])
    with pytest.raises(ValueError):
        sigma_basis([[1], [2]], [1, 1], 2, FP, points=[0, 1])  # short stream
    with pytest.raises(ValueError):
        sigma_basis([[1, 2], [3, 4]], [1, 1], 2, FP, points=[0])
    with pytest.raises(ValueError):
        sigma_basis([[1, 2], [3, 4]], [1, 1], 2, FP, points=[0, 1], tie_break="mid")
    with pytest.raises(BadModulus):
        sigma_basis([[1, 2], [3, 4]], [1, 1], 2, FP, points=[1, P + 1])


# ---------------------------------------------------------------------------
# wide bases: m up to 10 and sigma up to 80, where most of a column's
# capacity lies above its degree and only the live window is touched


def _assert_matches_oracle(res, streams, bounds, sigma, points, p):
    """Every column solves all conditions, degrees and defects are exact,
    and the defect sum equals the dense nullspace dimension."""
    for k in range(res.m):
        polys = [res.poly(k, comp) for comp in range(len(bounds))]
        assert any(polys), "zero column"
        for comp, c in enumerate(polys):
            assert int(res.degrees[k][comp]) == len(c) - 1
            assert not c or c[-1] != 0
        wide = [len(c) for c in polys]
        mat = condition_matrix(streams, wide, sigma, p, points)
        assert apply_matrix(mat, flatten_solution(polys, wide), p) == [0] * sigma
        assert res.defects[k] == min(b - len(c) + 1 for b, c in zip(bounds, polys) if c)
    mat = condition_matrix(streams, bounds, sigma, p, points)
    dim = nullspace_dim(mat, sum(bounds), p)
    assert sum(max(d, 0) for d in res.defects) == dim
    vecs = _solution_vectors(res)
    for v in vecs:
        assert apply_matrix(mat, v, p) == [0] * sigma
    assert matrix_rank(vecs, p) == dim == len(vecs)


def _wide_instance(rng, p, series, planted, widest=False):
    """Random streams; `planted` makes the last stream cancel a random
    in-bound vector whose last component is the constant 1.  `widest`
    asks for m = 10 and sigma = 80."""
    m = 10 if widest else rng.randint(4, 9)
    bounds = [rng.randint(7 if widest else 1, 10) for _ in range(m)]
    total = sum(bounds)
    sigma = 80 if widest else rng.randint(max(1, total - 8), min(80, total + 12))
    streams = [[rng.randrange(p) for _ in range(sigma)] for _ in range(m)]
    points = None if series else rng.sample(range(p), sigma)
    if planted:
        vec = [[rng.randrange(p) for _ in range(b)] for b in bounds[:-1]]
        for j in range(sigma):
            if series:  # x^j coefficient of sum_l vec_l * stream_l
                acc = sum(c[e] * s[j - e] for c, s in zip(vec, streams) for e in range(min(len(c), j + 1)))
            else:
                acc = sum(sum(ce * pow(points[j], e, p) for e, ce in enumerate(c)) * s[j]
                          for c, s in zip(vec, streams))
            streams[-1][j] = -acc % p
    return streams, bounds, sigma, points


@pytest.mark.parametrize("series", [False, True], ids=["sequence", "series"])
def test_wide_bases_against_dense_oracle(series):
    p = 2147483647
    fp = ModPrime(p)
    rng = random.Random(11 + series)
    planted_seen = False
    for trial in range(6):
        planted = trial % 2 == 0
        streams, bounds, sigma, points = _wide_instance(rng, p, series, planted, widest=trial < 2)
        res = sigma_basis(streams, bounds, sigma, fp, points=points)
        _assert_matches_oracle(res, streams, bounds, sigma, points, p)
        planted_seen |= planted and max(res.defects) >= 1
    assert planted_seen


@pytest.mark.parametrize("series", [False, True], ids=["sequence", "series"])
def test_overflow_edge_largest_prime_and_residues(series):
    # every residue is p - 1, so every multiplier is p - 1 as well and the
    # multiply-add meets (p - 1) * (p - 1) at the largest admissible prime
    p = 2**31 - 1
    fp = ModPrime(p)
    bounds, sigma = [4, 3, 5], 10
    streams = [[p - 1] * sigma for _ in bounds]
    points = None if series else [p - 1 - j for j in range(sigma)]
    res = sigma_basis(streams, bounds, sigma, fp, points=points)
    _assert_matches_oracle(res, streams, bounds, sigma, points, p)


@pytest.mark.parametrize("series", [False, True], ids=["sequence", "series"])
def test_need_solution_stops_exactly_when_no_column_fits(series):
    # the early stop raises on precisely the instances whose full basis has
    # no solution column, and changes nothing on the others
    outcomes = set()
    for bounds, sigma, streams, points in order_basis_instances(P):
        if (points is None) != series:
            continue
        full = sigma_basis(streams, bounds, sigma, FP, points=points)
        try:
            early = sigma_basis(streams, bounds, sigma, FP, points=points, need_solution=True)
        except NoSolution:
            assert not full.solution_indices()
            outcomes.add("stopped")
            continue
        assert full.solution_indices()
        assert np.array_equal(early.coeffs, full.coeffs)
        assert (early.degrees.tolist(), early.defects) == (full.degrees.tolist(), full.defects)
        outcomes.add("solved")
    assert outcomes == {"stopped", "solved"}
