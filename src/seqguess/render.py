"""Text and JSON rendering of guessed equations.

Conventions, fixed here and documented in the README:

  * monomials print in descending partition order (then descending
    mixed q-power), parts within a monomial descending;
  * the equation is scaled to coprime integer coefficients (clearing
    q-denominators first in q mode) and signed so that the leading
    coefficient of the first printed monomial is positive;
  * sequence results print as [f(n): ... = 0, f(0)= 1, ...], series
    results as [[x^n]f(x): ... = 0, ...];
  * a rational closed form prints as f(n) = p/q instead of an implicit
    equation, and a generating polynomial (constant denominator) does
    the same for pade results.
"""

from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from .models import Monomial, Schema
from .rings import (QQ, ZZ, RatPoly, clear_denominators, dec_str, fraction_from_dec, fraction_str, int_from_dec, padd,
                    pdiv_exact, pgcd)

RESULT_SCHEMA = "seqguess-result-v1"
OPERATOR_SCHEMA = "seqguess-operator-v1"

_SUM_VARS = ("s", "t", "u", "v", "w")
_PROD_VARS = ("p", "q", "r")


# ---------------------------------------------------------------------------
# canonical integer form


def _primitive_scale(values: list[Fraction]) -> Fraction:
    """Multiplier turning the values into coprime integers."""
    den = 1
    for v in values:
        den = lcm(den, v.denominator)
    num = 0
    for v in values:
        num = gcd(num, v.numerator * (den // v.denominator))
    return Fraction(den, num) if num else Fraction(1)


def canonical_rows(rows: list[list], q: bool) -> list[list]:
    """Scale equation coefficients to the canonical integer form.

    Non-q entries become ints; q entries become int coefficient lists of
    polynomials in q.  The common scalar is chosen so all integers are
    coprime; the caller fixes the overall sign.
    """
    if not q:
        flat = [c for row in rows for c in row if c]
        s = _primitive_scale(flat)
        out = []
        for row in rows:
            ints = [(c * s) for c in row]
            assert all(v.denominator == 1 for v in ints)
            out.append([int(v) for v in ints])
        return out
    nums = iter(clear_denominators([e for row in rows for e in row])[0])
    polys = [[next(nums) for _ in row] for row in rows]
    g = reduce(lambda a, b: pgcd(a, b, QQ), [p for row in polys for p in row if p])
    polys = [[pdiv_exact(p, g, QQ) for p in row] for row in polys]
    s = _primitive_scale([c for row in polys for p in row for c in p if c])
    return [[[int(c * s) for c in p] for p in row] for row in polys]


def _negate_rows(rows, q: bool):
    if not q:
        return [[-c for c in row] for row in rows]
    return [[[-c for c in p] for p in row] for row in rows]


def _display_order(schema: Schema) -> list[int]:
    return sorted(
        range(len(schema.monomials)),
        key=lambda l: (schema.monomials[l].parts, schema.monomials[l].mixed),
        reverse=True,
    )


def _fix_sign(rows, order, q: bool):
    for l in order:
        if rows[l]:
            lead = rows[l][-1]
            if q:
                lead = lead[-1]
            return _negate_rows(rows, q) if lead < 0 else rows
    return rows


# ---------------------------------------------------------------------------
# small string builders


def _power_str(var: str, e: int) -> str:
    if e == 0:
        return ""
    if var == "q^n":
        return "q^n" if e == 1 else f"q^({e}n)"
    return var if e == 1 else f"{var}^{e}"


def _int_terms(coeffs: list[int], var: str) -> list[tuple[int, str]]:
    """(sign, body) per printed term, descending powers."""
    out = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        sign = 1 if c > 0 else -1
        mag, pw = abs(c), _power_str(var, e)
        if not pw:
            out.append((sign, dec_str(mag)))
        elif mag == 1:
            out.append((sign, pw))
        else:
            out.append((sign, f"{dec_str(mag)}{pw}"))
    return out


def _join_terms(terms: list[tuple[int, str]]) -> str:
    if not terms:
        return "0"
    parts = [("-" if terms[0][0] < 0 else "") + terms[0][1]]
    for sign, body in terms[1:]:
        parts.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(parts)


def _qpoly_factor(p: list[int]) -> tuple[int, str, bool]:
    """Render a q-polynomial coefficient: (sign, body, needs_parens).

    A lone q-term is juxtaposed directly (q^3q^(2n)); anything with
    several terms is parenthesized with its signs kept inside.
    """
    terms = _int_terms(p, "q")
    if len(terms) == 1:
        return terms[0][0], terms[0][1], False
    return 1, f"({_join_terms(terms)})", True


def _coeff_terms(row, var: str, q: bool) -> list[tuple[int, str]]:
    """Terms of one coefficient polynomial in the point variable."""
    if not q:
        return _int_terms(row, var)
    out = []
    for e in range(len(row) - 1, -1, -1):
        p = row[e]
        if not p:
            continue
        pw = _power_str(var, e)
        sign, body, wrapped = _qpoly_factor(p)
        if not pw:
            if wrapped:
                out.extend(_int_terms(p, "q"))
            else:
                out.append((sign, body))
        elif body == "1" and not wrapped:
            out.append((sign, pw))
        elif wrapped or var == "q^n" or body.isdigit():
            out.append((sign, f"{body}{pw}"))
        else:
            # a bare q-power times n or x reads ambiguously; keep parens
            out.append((sign, f"({body}){pw}"))
    return out


def _monomial_str(mo: Monomial, names: tuple) -> str:
    fn, idx, var = names
    pieces = []
    if mo.mixed:
        pieces.append(f"q^{idx}" if mo.mixed == 1 else f"q^({mo.mixed}{idx})")
    parts = list(mo.parts)
    i = 0
    while i < len(parts):
        k = parts[i]
        count = 1
        while i + count < len(parts) and parts[i + count] == k:
            count += 1
        i += count
        if mo.tag == "shift":
            arg = idx if k == 1 else f"{idx}+{k - 1}"
            base = f"{fn}({arg})"
        elif mo.tag == "derivative":
            order = k - 1
            mark = "'" * order if order <= 3 else f"^({order})"
            base = f"{fn}{mark}({var})"
        elif mo.tag == "mahler":
            base = f"{fn}({var})" if k == 1 else f"{fn}({var}^{k})"
        else:  # qdilation
            if k == 1:
                base = f"{fn}({var})"
            elif k == 2:
                base = f"{fn}(q{var})"
            else:
                base = f"{fn}(q^{k - 1}{var})"
        pieces.append(base if count == 1 else f"{base}^{count}")
    return "".join(pieces)


def _value_str(v) -> str:
    if isinstance(v, RatPoly):  # num/den in q, with the closed forms' scaling and parentheses
        return _fraction_str(list(v.num), list(v.den), False, "q")
    return fraction_str(Fraction(v))


# ---------------------------------------------------------------------------
# equations


def _point_var(result) -> str:
    fn, idx, var = result.names
    schema = result.schema
    if schema.series:
        return var
    if schema.points_kind == "qpower":
        return "q^n" if idx == "n" else f"q^{idx}"
    return idx


def _equation_terms(result, rows) -> list[tuple[int, str]]:
    schema = result.schema
    var = _point_var(result)
    out = []
    for l in _display_order(schema):
        row = rows[l]
        if not row:
            continue
        mo = schema.monomials[l]
        mono = _monomial_str(mo, result.names)
        if not mono:  # the constant monomial: splice its terms in directly
            out.extend(_coeff_terms(row, var, schema.q))
            continue
        terms = _coeff_terms(row, var, schema.q)
        if len(terms) == 1:
            sign, body = terms[0]
            out.append((sign, mono if body == "1" else f"{body}{mono}"))
        else:
            out.append((1, f"({_join_terms(terms)}){mono}"))
    return out


def _fraction_str(num_row, den_row, q: bool, var: str) -> str:
    # sign fixed on the denominator so f = -g renders -num/den, never num/-den
    rows = canonical_rows([num_row, den_row], q)
    lead = rows[1][-1][-1] if q else rows[1][-1]
    if lead < 0:
        rows = _negate_rows(rows, q)
    num_terms = _coeff_terms(rows[0], var, q)
    den_terms = _coeff_terms(rows[1], var, q)
    ns = _join_terms(num_terms)
    if den_terms == [(1, "1")]:
        return ns
    ds = _join_terms(den_terms)
    if len(num_terms) > 1:
        ns = f"({ns})"
    if len(den_terms) > 1:
        ds = f"({ds})"
    return f"{ns}/{ds}"


def _nonneg_integer_root(coeffs) -> bool:
    """Exact check for a root of sum(c_k n^k) at some integer n >= 0."""
    den = reduce(lcm, (c.denominator for c in coeffs), 1)
    ints = [int(c * den) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return True
    if ints[0] == 0:
        return True
    if len(ints) == 1:
        return False
    # any integer root divides the (nonzero) constant term
    a0 = abs(ints[0])
    if a0 > 10**12:
        return True  # conservative: keep the implicit form
    divs = set()
    d = 1
    while d * d <= a0:
        if a0 % d == 0:
            divs.add(d)
            divs.add(a0 // d)
        d += 1
    for r in divs:
        acc = 0
        for c in reversed(ints):
            acc = acc * r + c
        if acc == 0:
            return True
    return False


def _den_can_vanish(c_f, result) -> bool:
    """Whether dividing by c_f is unsafe somewhere on the index domain.

    A closed form f = -p0/p1 only restates the equation at indices where
    p1 does not vanish; anywhere else the data is unconstrained and the
    printed fraction would lie about it.
    """
    if result.schema.series:
        return c_f[0] == 0  # unit in the power-series ring or not
    if not result.q:
        return _nonneg_integer_root([Fraction(c) for c in c_f])
    # q mode: the argument runs over q^0, q^1, ...; beyond the degree span
    # of the coefficients the top term dominates and the value is nonzero
    polys = [RatPoly.coerce(c) for c in c_f]
    span = max(len(p.num) + len(p.den) for p in polys if p)
    nums = clear_denominators(polys)[0]  # over one denominator: test sum_k n_k q^(jk) in Z[q]
    for j in range(span + 1):
        val = []
        for k, n in enumerate(nums):
            val = padd(val, [0] * (j * k) + n, ZZ)
        if not val:
            return True
    return False


def _closed_form(result) -> str | None:
    """f = -p0/p1 for rat always, for pade when p1 is constant."""
    if result.klass not in ("rat", "pade"):
        return None
    c_const, c_f = result.coeffs[0], result.coeffs[1]
    if not c_f:
        return None
    if result.klass == "pade" and len(c_f) > 1:
        return None
    if _den_can_vanish(c_f, result):
        return None
    if not c_const:
        return "0"
    return _fraction_str([-c for c in c_const], list(c_f), result.q, _point_var(result))


def _taylor_name(fn: str, k: int) -> str:
    mark = "'" * k if k <= 3 else f"^({k})"
    return f"{fn}{mark}(0)"


def _series_prefix_str(values, fn: str, var: str) -> str:
    terms = []
    for e, v in enumerate(values):
        if isinstance(v, RatPoly):
            if not v:
                continue
            body = _value_str(v)
            if body.lstrip("-").isdigit():
                c = int_from_dec(body)
                sign, body = (1 if c > 0 else -1), dec_str(abs(c))
            else:
                sign = 1
                if e > 0 or " " in body:
                    body = f"({body})"
        else:
            v = Fraction(v)
            if v == 0:
                continue
            sign = 1 if v > 0 else -1
            mag = abs(v)
            body = fraction_str(mag) if mag.denominator == 1 else f"({fraction_str(mag)})"
        pw = _power_str(var, e)
        if pw:
            body = pw if body == "1" else f"{body}{pw}"
        terms.append((sign, body))
    terms.append((1, f"O({_power_str(var, len(values))})"))
    return f"{fn}({var}) = {_join_terms(terms)}"


def _ic_strings(result) -> list[str]:
    fn, idx, var = result.names
    if result.ic_kind == "terms":
        return [f"{fn}({k})= {_value_str(v)}" for k, v in result.ics]
    if result.ic_kind == "taylor":
        return [f"{_taylor_name(fn, k)}= {_value_str(v)}" for k, v in result.ics]
    if result.ic_kind == "prefix":
        return [_series_prefix_str(result.ics, fn, var)]
    return []


def render_text(result) -> str:
    """The bracketed human-readable form of one guessed equation."""
    fn, idx, var = result.names
    head = f"[{var}^{idx}]{fn}({var})" if result.schema.series else f"{fn}({idx})"
    closed = _closed_form(result)
    if closed is not None:
        arg = var if result.schema.series else idx
        body = f"{fn}({arg}) = {closed}"
    else:
        rows = canonical_rows(result.coeffs, result.q)
        rows = _fix_sign(rows, _display_order(result.schema), result.q)
        body = f"{_join_terms(_equation_terms(result, rows))} = 0"
    pieces = [body] + _ic_strings(result)
    return f"[{head}: {', '.join(pieces)}]"


# ---------------------------------------------------------------------------
# operator expressions


def _leaf_names(expr) -> tuple:
    node = expr
    while node.kind != "leaf":
        node = node.child
    return node.child.names


def _needs_parens(child) -> bool:
    # a nested body that starts with a base term or ends with a zero-prefix
    # note would otherwise bind ambiguously to the enclosing operator
    if child.kind == "sum":
        return bool(child.base)
    if child.kind == "product":
        return bool(child.offset) or (child.base is not None and child.base != 1)
    return False


def _op_body(expr, bound: str, si: int, pi: int, nested: bool) -> str:
    if expr.kind == "leaf":
        result = expr.child
        fn, idx, var = result.names
        swapped = replace(result, names=(fn, bound, var))
        closed = _closed_form(swapped)
        if closed is None:
            return render_text(swapped)
        return f"({closed})" if nested else closed
    if expr.kind == "sum":
        v = _SUM_VARS[si] if si < len(_SUM_VARS) else f"s{si}"
        inner = _op_body(expr.child, v, si + 1, pi, True)
        if _needs_parens(expr.child):
            inner = f"({inner})"
        body = f"sum_{{{v}=0}}^{{{bound}-1}} {inner}"
        if expr.base:
            body = f"{_value_str(expr.base)} + {body}"
        return body
    v = _PROD_VARS[pi] if pi < len(_PROD_VARS) else f"p{pi}"
    inner = _op_body(expr.child, v, si, pi + 1, True)
    if _needs_parens(expr.child):
        inner = f"({inner})"
    upper = f"{bound}-{expr.offset + 1}" if expr.offset else f"{bound}-1"
    body = f"prod_{{{v}=0}}^{{{upper}}} {inner}"
    if expr.base is not None and expr.base != 1:
        body = f"{_value_str(expr.base)}*{body}"
    if expr.offset:
        body = f"{body} [first {expr.offset} terms 0]"
    return body


def render_operator(expr) -> str:
    fn, idx, var = _leaf_names(expr)
    return f"[{fn}({idx}): {fn}({idx}) = {_op_body(expr, idx, 0, 0, False)}]"


# ---------------------------------------------------------------------------
# JSON


def _value_to_json(v):
    if isinstance(v, RatPoly):
        return {"num": [fraction_str(c) for c in v.num], "den": [fraction_str(c) for c in v.den]}
    return fraction_str(Fraction(v))


def _value_from_json(v):
    if isinstance(v, dict):
        return RatPoly.make([fraction_from_dec(c) for c in v["num"]], [fraction_from_dec(c) for c in v["den"]])
    return fraction_from_dec(v)


def _result_obj(result) -> dict:
    return {
        "schema": RESULT_SCHEMA,
        "class": result.klass,
        "q": result.q,
        "points_kind": result.schema.points_kind,
        "names": list(result.names),
        "monomials": [
            {"parts": list(mo.parts), "tag": mo.tag, "mixed": mo.mixed} for mo in result.schema.monomials
        ],
        "coefficients": [[_value_to_json(c) for c in row] for row in result.coeffs],
        "initial_conditions": {
            "kind": result.ic_kind,
            "values": [_value_to_json(v) for v in result.ics]
            if result.ic_kind == "prefix"
            else [[k, _value_to_json(v)] for k, v in result.ics],
        },
        "checked": result.checked,
        "text": render_text(result),
    }


def _operator_obj(expr) -> dict:
    child = _result_obj(expr.child) if expr.kind == "leaf" else _operator_obj(expr.child)
    return {
        "schema": OPERATOR_SCHEMA,
        "kind": expr.kind,
        "base": None if expr.base is None else _value_to_json(expr.base),
        "offset": expr.offset,
        "child": child,
        "text": render_operator(expr),
    }


def to_obj(obj) -> dict:
    """JSON-ready dict for a GuessResult or OperatorExpr."""
    from .guess import GuessResult

    return _result_obj(obj) if isinstance(obj, GuessResult) else _operator_obj(obj)


def result_to_json(obj) -> str:
    return json.dumps(to_obj(obj), indent=2)


def _result_from_obj(obj):
    from .guess import GuessResult

    if obj.get("schema") != RESULT_SCHEMA:
        raise ValueError(f"unknown result schema {obj.get('schema')!r}")
    monomials = tuple(Monomial(tuple(mo["parts"]), mo["tag"], mo["mixed"]) for mo in obj["monomials"])
    schema = Schema(monomials, obj["class"], obj["q"], obj["points_kind"])
    ic = obj["initial_conditions"]
    if ic["kind"] == "prefix":
        ics = tuple(_value_from_json(v) for v in ic["values"])
    else:
        ics = tuple((k, _value_from_json(v)) for k, v in ic["values"])
    return GuessResult(
        schema=schema,
        coeffs=[[_value_from_json(c) for c in row] for row in obj["coefficients"]],
        ic_kind=ic["kind"],
        ics=ics,
        checked=obj["checked"],
        names=tuple(obj["names"]),
    )


def _operator_from_obj(obj):
    from .guess import OperatorExpr

    base = None if obj["base"] is None else _value_from_json(obj["base"])
    return OperatorExpr(obj["kind"], _from_obj(obj["child"]), base=base, offset=obj["offset"])


def _from_obj(obj):
    return _operator_from_obj(obj) if obj.get("schema") == OPERATOR_SCHEMA else _result_from_obj(obj)


def result_from_json(text: str):
    return _from_obj(json.loads(text))
