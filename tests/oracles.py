"""Independent recomputations used as test oracles.

Everything here is deliberately naive: dense Gaussian elimination, direct
forward generation of recurrence data.  The point is to cross-check the
fast implementations against code that shares no machinery with them.
"""

import random
from fractions import Fraction


def condition_matrix(streams, bounds, sigma, p, points=None):
    """Dense matrix of the order conditions, one row per condition.

    Columns enumerate the unknown coefficients c[l][e] for e < bounds[l].
    Sequence form: row j asks sum_l p_l(x_j) * streams[l][j] == 0.
    Series form: row j asks the x^j coefficient of sum_l p_l * s_l == 0.
    """
    rows = []
    for j in range(sigma):
        row = []
        for l, b in enumerate(bounds):
            for e in range(b):
                if points is not None:
                    row.append(pow(points[j] % p, e, p) * (streams[l][j] % p) % p)
                else:
                    v = streams[l][j - e] if 0 <= j - e else 0
                    row.append(v % p)
        rows.append(row)
    return rows


def nullspace_dim(rows, ncols, p):
    """Dimension of the kernel of the column-vector map, mod p."""
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] % p), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [v * inv % p for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] % p:
                c = mat[i][col]
                mat[i] = [(a - c * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return ncols - rank


def matrix_rank(rows, p):
    if not rows:
        return 0
    ncols = len(rows[0])
    return ncols - nullspace_dim(rows, ncols, p)


def flatten_solution(poly_lists, bounds):
    """Coefficient vector of one basis column in condition_matrix order."""
    flat = []
    for comp, b in zip(poly_lists, bounds):
        flat.extend(list(comp) + [0] * (b - len(comp)))
    return flat


def apply_matrix(rows, vec, p):
    return [sum(a * b for a, b in zip(row, vec)) % p for row in rows]


def gen_prec_terms(order, deg, count, seed):
    """Exact terms of a random monic-leading linear recurrence.

    Coefficient of f(n+order) is the constant 1, the other coefficients
    are random integer polynomials in n of the given degree, so the data
    is generated forward without division.
    """
    rng = random.Random(seed)
    coeffs = [[rng.randint(-10, 10) for _ in range(deg + 1)] for _ in range(order)]
    terms = [Fraction(rng.randint(1, 5)) for _ in range(order)]
    while len(terms) < count:
        n = len(terms) - order
        acc = Fraction(0)
        for k in range(order):
            cval = sum(c * n**e for e, c in enumerate(coeffs[k]))
            acc += cval * terms[n + k]
        terms.append(-acc)
    return terms, coeffs


def order_basis_instances(p, count=500, seed=500):
    """Random small order-basis problems: (bounds, sigma, streams, points).

    Half use sample points (sequence form), half series form.
    """
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(2, 3)
        bounds = [rng.randint(1, 3) for _ in range(m)]
        sigma = rng.randint(1, 9)
        streams = [[rng.randrange(p) for _ in range(sigma)] for _ in range(m)]
        points = None if rng.random() < 0.5 else rng.sample(range(p), sigma)
        yield bounds, sigma, streams, points


def _power(F, x, e):
    acc = F.one
    for _ in range(e):
        acc = F.mul(acc, x)
    return acc


def _naive_atom(part, tag, terms, length, F, qval):
    """Entry i of one copy of f, from its closed form."""
    out = []
    for i in range(length):
        if tag == "shift":
            out.append(terms[i + part - 1])
        elif tag == "derivative":
            falling = 1
            for k in range(i + 1, i + part):
                falling *= k
            out.append(F.mul(F.from_int(falling), terms[i + part - 1]))
        elif tag == "qdilation":
            out.append(F.mul(terms[i], _power(F, qval, (part - 1) * i)))
        else:  # mahler
            out.append(terms[i // part] if i % part == 0 else F.zero)
    return out


def naive_images(terms, schema, F, qval=None):
    """(streams, points) of a schema, one monomial at a time.

    `terms` are already in F and `qval` is the q value in F.  Each
    monomial is the product of its atoms at its own natural length
    len(terms) - loss: pointwise for sequences, a full Cauchy product
    for series.  Shares no code with the builder in models.
    """
    N = len(terms)
    streams = []
    for mo in schema.monomials:
        L = N - mo.loss
        acc = [F.one] + [F.zero] * (L - 1) if schema.series else [F.one] * L
        for part in mo.parts:
            atom = _naive_atom(part, mo.tag, terms, L, F, qval)
            if schema.series:
                prod = []
                for i in range(L):
                    s = F.zero
                    for j in range(i + 1):
                        s = F.add(s, F.mul(acc[j], atom[i - j]))
                    prod.append(s)
                acc = prod
            else:
                acc = [F.mul(x, y) for x, y in zip(acc, atom)]
        acc = [F.mul(v, _power(F, qval, mo.mixed * i)) if mo.mixed else v for i, v in enumerate(acc)]
        streams.append(acc)
    if schema.series:
        points = None
    elif schema.points_kind == "qpower":
        points = [_power(F, qval, i) for i in range(N)]
    else:
        points = [F.from_int(i) for i in range(N)]
    return streams, points


class _Fractions:
    """Plain Fraction arithmetic in the field protocol naive_images uses."""

    zero, one = Fraction(0), Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def mul(a, b):
        return a * b

    from_int = Fraction


def condition_values(coeffs, schema, terms):
    """Every condition the data determines for a candidate, as Fractions.

    Sequences: sum_l c_l(i) * stream_l[i] for each row i that every used
    monomial reaches.  Series: the x^i coefficient of sum_l c_l * stream_l
    for i below min over used l of (stream length + valuation of c_l).
    Monomial values come from naive_images over plain Fractions.
    """
    streams, points = naive_images([Fraction(t) for t in terms], schema, _Fractions)
    used = [l for l, c in enumerate(coeffs) if c]
    if not schema.series:
        rows = min(len(streams[l]) for l in used)
        return [sum(Fraction(c) * points[i] ** e * streams[l][i] for l in used for e, c in enumerate(coeffs[l]))
                for i in range(rows)]
    order = min(len(streams[l]) + next(e for e, c in enumerate(coeffs[l]) if c) for l in used)
    return [sum(Fraction(c) * streams[l][i - e] for l in used for e, c in enumerate(coeffs[l])
                if c and i - e >= 0)
            for i in range(order)]


def first_failure_reference(coeffs, schema, terms):
    """(index, value) of the first nonzero condition, or None when all vanish."""
    return next(((i, v) for i, v in enumerate(condition_values(coeffs, schema, terms)) if v), None)
