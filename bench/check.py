"""Output checker that shares no code with seqguess's own verifier.

A returned equation is read as plain data (schema monomials, dense
coefficient lists, points kind) and evaluated here with exact integer or
`Fraction` arithmetic against the full planted data, held-out terms
included.  q-mode data is checked by substituting several rational values
for q, so every check stays exact.

`check(expect, results, texts)` returns None when the outcome is the
expected one, and otherwise a one-line reason.
"""

from __future__ import annotations

import math
from fractions import Fraction

# rational values substituted for q; a point where a coefficient's
# denominator vanishes is skipped, and at least two must be usable
Q_VALUES = (Fraction(2), Fraction(3, 7), Fraction(-5, 3))


def check(expect, results, texts) -> str | None:
    if expect.kind == "golden":
        return None if texts == [expect.text] else f"expected {expect.text!r}, got {texts!r}"
    if expect.kind == "none":
        return None if not results else f"expected no guess, got {texts!r}"
    if not results:
        return "expected a guess, got none"
    try:
        if expect.kind == "operator":
            return _check_operator(results[0], expect.full)
        return _check_planted(results[0], expect)
    except ValueError as exc:  # a result this evaluator cannot read is not the expected one
        return f"cannot evaluate the result: {exc}"


# ---------------------------------------------------------------------------
# planted equations


def _used(result):
    return [(mo, c) for mo, c in zip(result.schema.monomials, result.coeffs) if c]


def _order(used, order_of: str) -> int:
    if order_of == "degree":
        return max(len(mo.parts) for mo, _ in used)
    return max((max(mo.parts) - 1 for mo, _ in used if mo.parts), default=0)


def _check_planted(result, expect) -> str | None:
    if not hasattr(result, "schema"):
        return f"expected an equation, got {type(result).__name__}"
    used = _used(result)
    if not used:
        return "zero equation"
    order = _order(used, expect.order_of)
    if order > expect.max_order:
        return f"order {order} exceeds the planted order {expect.max_order}"
    if not expect.q:
        values = [Fraction(v) for v in expect.full]
        return _residual(result.schema, _integer_rows(used), values, None)
    checked = 0
    for qv in Q_VALUES:
        try:
            rows = [(mo, [_eval_ratpoly(c, qv) for c in cs]) for mo, cs in used]
        except ZeroDivisionError:
            continue
        values = [_peval(p, qv) for p in expect.full]
        reason = _residual(result.schema, rows, values, qv)
        if reason is not None:
            return f"{reason} at q={qv}"
        checked += 1
    return None if checked >= 2 else "too few usable q values"


def _integer_rows(used):
    """Coefficients over Q scaled by one common denominator to integers."""
    den = 1
    for _, cs in used:
        for c in cs:
            den = math.lcm(den, Fraction(c).denominator)
    return [(mo, [int(Fraction(c) * den) for c in cs]) for mo, cs in used]


def _peval(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _eval_ratpoly(c, qv: Fraction) -> Fraction:
    """A coefficient in Q(q), read through its num/den coefficient tuples."""
    den = _peval(c.den, qv)
    if den == 0:
        raise ZeroDivisionError(f"denominator vanishes at q={qv}")
    return Fraction(_peval(c.num, qv)) / den


def _residual(schema, rows, values, qv) -> str | None:
    if schema.points_kind == "confluent":
        return _series_residual(rows, values, qv)
    return _sequence_residual(schema.points_kind, rows, values, qv)


def _sequence_residual(points_kind: str, rows, values, qv) -> str | None:
    """sum_l c_l(point_n) * q^(mixed_l n) * prod_k f(n + k - 1) = 0 for every n."""
    for mo, _ in rows:
        if mo.tag != "shift":
            raise ValueError(f"sequence equation with {mo.tag} monomial")
    reach = max(max(mo.parts, default=1) for mo, _ in rows)
    for n in range(len(values) - reach + 1):
        point = qv**n if points_kind == "qpower" else n
        total = 0
        for mo, cs in rows:
            term = _peval(cs, point)
            if mo.mixed:
                term *= qv ** (mo.mixed * n)
            for k in mo.parts:
                term *= values[n + k - 1]
            total += term
        if total != 0:
            return f"equation fails at n={n}"
    return None


def _atom_series(part: int, tag: str, values, qv) -> list:
    N = len(values)
    if tag == "derivative":
        k = part - 1
        return [values[j + k] * math.perm(j + k, k) for j in range(N - k)]
    if tag == "mahler":
        return [values[j // part] if j % part == 0 else 0 for j in range(N)]
    if tag == "qdilation":
        return [values[j] * qv ** ((part - 1) * j) for j in range(N)]
    raise ValueError(f"series equation with {tag} monomial")


def _mul_trunc(a: list, b: list, order: int) -> list:
    return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(order)]


def _series_residual(rows, values, qv) -> str | None:
    """[x^j] sum_l c_l(x) * prod_k atom_k(x) = 0 for every j the data fixes."""
    monos = []
    for mo, cs in rows:
        series = [1] + [0] * (len(values) - 1)
        for part in mo.parts:
            atom = _atom_series(part, mo.tag, values, qv)
            series = _mul_trunc(series, atom, min(len(series), len(atom)))
        monos.append((cs, series))
    order = min(len(series) for _, series in monos)
    for j in range(order):
        total = sum(c * series[j - e] for cs, series in monos for e, c in enumerate(cs) if e <= j)
        if total != 0:
            return f"equation fails at x^{j}"
    return None


# ---------------------------------------------------------------------------
# operator expressions


def _leaf_values(result, count: int) -> list[Fraction]:
    """f(v) = -c0(v)/c1(v) for a rational closed form c0 + c1 f = 0."""
    if result.schema.klass != "rat" or result.q:
        raise ValueError(f"unsupported leaf class {result.schema.klass!r}")
    coeff = {mo.parts: cs for mo, cs in zip(result.schema.monomials, result.coeffs)}
    c0, c1 = coeff.get((), []), coeff.get((1,), [])
    out = []
    for v in range(count):
        den = _peval(c1, Fraction(v))
        if den == 0:
            raise ValueError(f"closed form has a pole at {v}")
        out.append(-Fraction(_peval(c0, Fraction(v))) / den)
    return out


def _expr_values(expr, count: int) -> list[Fraction]:
    if count <= 0:
        return []
    if expr.kind == "leaf":
        return _leaf_values(expr.child, count)
    if expr.kind == "sum":
        child = _expr_values(expr.child, count - 1)
        out = [Fraction(expr.base or 0)]
        for c in child:
            out.append(out[-1] + c)
        return out
    if expr.kind == "product":
        zeros = min(expr.offset, count)
        child = _expr_values(expr.child, count - zeros - 1)
        out = [Fraction(0)] * zeros
        if count > zeros:
            out.append(Fraction(1 if expr.base is None else expr.base))
            for c in child:
                out.append(out[-1] * c)
        return out
    raise ValueError(f"unknown operator kind {expr.kind!r}")


def _check_operator(expr, full) -> str | None:
    if not hasattr(expr, "kind"):
        return f"expected an operator expression, got {type(expr).__name__}"
    got = _expr_values(expr, len(full))
    for n, (a, b) in enumerate(zip(got, full)):
        if a != b:
            return f"expression gives {a} at n={n}, planted {b}"
    return None
