"""Order-basis solver checked against dense Gaussian elimination."""

import random

import numpy as np
import pytest

from oracles import (
    apply_matrix,
    condition_matrix,
    critical_index,
    flatten_solution,
    nullspace_dim,
    matrix_rank,
    order_basis_instances,
)
from seqguess.errors import BadModulus, NoSolution
from seqguess import hermite_pade
from seqguess.hermite_pade import sigma_bases, sigma_basis
from seqguess.modarith import ModPrime, sample_prime

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
    for k in range(res.m):  # range(defect) is empty off the solution columns
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


def test_deterministic():
    rng = random.Random(4)
    streams, bounds, sigma, points = _random_instance(rng, False)
    a = sigma_basis(streams, bounds, sigma, FP, points=points)
    b = sigma_basis(streams, bounds, sigma, FP, points=points)
    assert np.array_equal(a.coeffs, b.coeffs)


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
            assert max(full.defects) <= 0
            outcomes.add("stopped")
            continue
        assert max(full.defects) >= 1
        assert np.array_equal(early.coeffs, full.coeffs)
        assert (early.degrees.tolist(), early.defects) == (full.degrees.tolist(), full.defects)
        outcomes.add("solved")
    assert outcomes == {"stopped", "solved"}


@pytest.mark.parametrize("series", [False, True], ids=["sequence", "series"])
def test_pivot_rule_keeps_column_k_critical_at_k(series):
    # pivoting on the last column of largest defect keeps column k critical
    # at k, so the basis leaves in weak Popov form; sigma_normalize reads
    # its record off that
    p = 2147483647
    fp = ModPrime(p)
    instances = [(streams, bounds, sigma, points) for bounds, sigma, streams, points in order_basis_instances(p)
                 if (points is None) == series]
    rng = random.Random(11 + series)  # the instances of test_wide_bases_against_dense_oracle
    instances += [_wide_instance(rng, p, series, trial % 2 == 0, widest=trial < 2) for trial in range(6)]
    returned = 0
    for streams, bounds, sigma, points in instances:
        for need_solution in (False, True):
            try:
                res = sigma_basis(streams, bounds, sigma, fp, points=points, need_solution=need_solution)
            except NoSolution:
                continue
            returned += need_solution
            crits = [critical_index([res.poly(k, l) for l in range(res.m)], bounds) for k in range(res.m)]
            assert crits == list(range(res.m))
    assert returned


# ---------------------------------------------------------------------------
# lockstep images: sigma_bases gives every image what sigma_basis gives it alone



def _lockstep_primes():
    """The largest 31-bit prime, nine more, and small primes, modulo which
    residuals vanish and points collide for one image only."""
    rng, large = random.Random(77), {2**31 - 1}
    while len(large) < 10:
        large.add(sample_prime(31, exclude=large, rng=rng))
    return [ModPrime(p) for p in sorted(large, reverse=True) + [5, 7, 11, 13, 101, 65537]]


LOCKSTEP_PRIMES = _lockstep_primes()


def _alone(streams, bounds, sigma, fp, points, need_solution):
    try:
        return sigma_basis(streams, bounds, sigma, fp, points=points, need_solution=need_solution)
    except (BadModulus, NoSolution) as exc:
        return exc


def _assert_each_image_alone(streams, bounds, sigma, fps, points, need_solution=False):
    got = hermite_pade.sigma_bases(streams, bounds, sigma, fps, points, need_solution)
    assert len(got) == len(fps)
    for i, (out, fp) in enumerate(zip(got, fps)):
        ref = _alone(streams[i], bounds, sigma, fp, None if points is None else points[i], need_solution)
        assert type(out) is type(ref)
        if isinstance(ref, Exception):
            assert str(out) == str(ref)
            continue
        assert out.fp is fp and out.bounds == ref.bounds and out.defects == ref.defects
        assert np.array_equal(out.degrees, ref.degrees)
        assert np.array_equal(out.coeffs, ref.coeffs)
    return got


def _exact_instance(rng, series):
    """Integer streams with a planted in-bound relation, and integer points:
    the images of one exact problem share its zero residuals."""
    m = rng.randint(2, 5)
    bounds = [rng.randint(1, 5) for _ in range(m)]
    sigma = rng.randint(1, sum(bounds) + 4)
    points = None if series else rng.sample(range(10**6), sigma)
    streams = [[rng.randint(-10**12, 10**12) for _ in range(sigma)] for _ in range(m)]
    if rng.random() < 0.5:  # the last stream cancels sum_l vec_l * stream_l
        vec = [[rng.randint(-9, 9) for _ in range(b)] for b in bounds[:-1]]
        for j in range(sigma):
            if series:
                acc = sum(c[e] * s[j - e] for c, s in zip(vec, streams) for e in range(min(len(c), j + 1)))
            else:
                acc = sum(sum(ce * points[j] ** e for e, ce in enumerate(c)) * s[j] for c, s in zip(vec, streams))
            streams[-1][j] = -acc
    return streams, bounds, sigma, points


def _count_solo(monkeypatch):
    """Images that leave a batch are solved by a one-image call from inside it."""
    calls, depth = [0], [0]
    inner = hermite_pade.sigma_bases

    def counted(*args, **kw):
        calls[0] += depth[0] > 0
        depth[0] += 1
        try:
            return inner(*args, **kw)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(hermite_pade, "sigma_bases", counted)
    return calls


@pytest.mark.parametrize("series", [False, True], ids=["sequence", "series"])
def test_lockstep_images_equal_each_image_alone(series, monkeypatch):
    rng = random.Random(20 + series)
    solo = _count_solo(monkeypatch)
    seen = set()
    for trial in range(150):
        K = rng.randint(1, 12)
        fps = rng.sample(LOCKSTEP_PRIMES, K)
        streams, bounds, sigma, points = _exact_instance(rng, series)
        images = [[[v % fp.p for v in s] for s in streams] for fp in fps]
        pts = None if series else [[x % fp.p for x in points] for fp in fps]
        need_solution = trial % 3 == 0
        for out in _assert_each_image_alone(images, bounds, sigma, fps, pts, need_solution):
            seen.add(type(out).__name__)
    assert solo[0] > 0  # some image left its batch
    assert seen >= {"SigmaBasisResult", "NoSolution"} | (set() if series else {"BadModulus"})


@pytest.mark.parametrize("series", [False, True], ids=["sequence", "series"])
def test_an_image_whose_residual_vanishes_mod_its_prime_only_leaves(series, monkeypatch):
    """At step j, one image gets a residual that is zero modulo its prime
    only: it is solved alone and every other image stays in lockstep."""
    rng = random.Random(30 + series)
    fps, i = LOCKSTEP_PRIMES[:6], 2
    p, m, bounds, sigma = fps[i].p, 3, [4, 4, 4], 10
    points = None if series else [list(range(1, sigma + 1)) for _ in fps]
    for j in (0, 1, 5, sigma - 1):
        streams = [[[rng.randrange(fp.p) for _ in range(sigma)] for _ in range(m)] for fp in fps]
        mine = streams[i]
        # before step j, the columns are those of the basis of the first j conditions
        if j:
            head = sigma_basis([s[:j] for s in mine], bounds, j, fps[i], points=None if series else points[i][:j])
            columns = [[head.poly(k, l) for l in range(m)] for k in range(m)]
        else:
            columns = [[[1] if l == k else [] for l in range(m)] for k in range(m)]
        # a column's residual j is sum_l of the x^j coefficient of poly_l *
        # stream_l (series), or of poly_l(x_j) * stream_l[j]; pick a column
        # and a component whose stream_l[j] enters with a unit factor
        def factor(c):
            return (c[0] if c else 0) if series else sum(ce * pow(points[i][j], e, p) for e, ce in enumerate(c)) % p

        polys, l0 = next((c, l) for c in columns for l in range(m) if factor(c[l]) % p)

        def residual():
            if series:
                return sum(ce * s[j - e] for c, s in zip(polys, mine) for e, ce in enumerate(c[:j + 1]))
            return sum(factor(c) * s[j] for c, s in zip(polys, mine))

        mine[l0][j] = 0
        mine[l0][j] = -residual() * pow(factor(polys[l0]), -1, p) % p
        assert residual() % p == 0
        solo = _count_solo(monkeypatch)
        _assert_each_image_alone(streams, bounds, sigma, fps, points)
        assert solo[0] == 1
        monkeypatch.undo()


def test_colliding_points_fail_their_image_only():
    fps = LOCKSTEP_PRIMES[:4]
    rng = random.Random(40)
    m, bounds, sigma = 3, [3, 3, 2], 6
    streams = [[[rng.randrange(fp.p) for _ in range(sigma)] for _ in range(m)] for fp in fps]
    points = [list(range(sigma)) for _ in fps]
    points[1] = [0, 1, 2, 3, 4, fps[1].p + 3]  # 3 twice modulo fps[1]
    got = _assert_each_image_alone(streams, bounds, sigma, fps, points)
    assert [type(g).__name__ for g in got] == ["SigmaBasisResult", "BadModulus", "SigmaBasisResult", "SigmaBasisResult"]
    assert str(got[1]) == f"sample points collide mod {fps[1].p}"
    # every image colliding leaves nothing to run
    assert all(isinstance(g, BadModulus) for g in sigma_bases(streams[:1], bounds, sigma, fps[:1], [[5] * sigma]))


@pytest.mark.parametrize("series", [False, True], ids=["sequence", "series"])
def test_need_solution_stops_a_batch_early(series):
    """Four unknowns against eight conditions: no image has a solution and
    each stops early; with ten unknowns each returns its basis."""
    rng = random.Random(50 + series)
    fps = LOCKSTEP_PRIMES[:5]
    sigma = 8
    points = None if series else [list(range(sigma)) for _ in fps]
    streams = [[[rng.randrange(fp.p) for _ in range(sigma)] for _ in range(2)] for fp in fps]
    got = _assert_each_image_alone(streams, [2, 2], sigma, fps, points, need_solution=True)
    assert all(isinstance(g, NoSolution) for g in got)
    got = _assert_each_image_alone(streams, [5, 5], sigma, fps, points, need_solution=True)
    assert all(max(g.defects) >= 1 for g in got)


@pytest.mark.parametrize("series", [False, True], ids=["sequence", "series"])
def test_lockstep_images_at_one_prime_equal_each_image_alone(series, monkeypatch):
    """The batches of the lift's q-point level: K images modulo one prime,
    each with its own streams and, in the sequence form, its own points
    (the powers of its evaluation point, as in q mode)."""
    rng = random.Random(60 + series)
    solo = _count_solo(monkeypatch)
    seen = set()
    for trial in range(150):
        fp, K = rng.choice(LOCKSTEP_PRIMES), rng.randint(2, 10)
        m = rng.randint(2, 4)
        bounds = [rng.randint(1, 4) for _ in range(m)]
        sigma = rng.randint(1, sum(bounds) + 3)
        taus = [rng.randrange(1, fp.p) for _ in range(K)]
        points = None if series else [[pow(t, j, fp.p) for j in range(sigma)] for t in taus]
        # half the time one planted relation, whose last stream cancels the others at every image
        vec = [[rng.randint(-9, 9) for _ in range(b)] for b in bounds[:-1]]
        planted = rng.random() < 0.5
        streams = []
        for i in range(K):
            image = [[rng.randrange(fp.p) for _ in range(sigma)] for _ in range(m)]
            for j in range(sigma if planted else 0):
                if series:
                    acc = sum(c[e] * s[j - e] for c, s in zip(vec, image) for e in range(min(len(c), j + 1)))
                else:
                    acc = sum(sum(ce * pow(points[i][j], e, fp.p) for e, ce in enumerate(c)) * s[j]
                              for c, s in zip(vec, image))
                image[-1][j] = -acc % fp.p
            streams.append(image)
        for out in _assert_each_image_alone(streams, bounds, sigma, [fp] * K, points, trial % 3 == 0):
            seen.add(type(out).__name__)
    assert solo[0] > 0  # some image left its batch
    assert seen >= {"SigmaBasisResult", "NoSolution"} | (set() if series else {"BadModulus"})
