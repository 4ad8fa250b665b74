"""Command-line front end.

Input can be inline terms (arguments or comma/whitespace separated text),
a file of such text, or an OEIS b-file (lines "index value", '#' comments,
contiguous indices).  Terms are exact rationals, or polynomial/rational
expressions in one parameter declared with --param.

Exit codes: 0 guess found, 1 no guess, 2 usage or parse error,
3 internal abort (reconstruction resource cap).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import CheckFailed, ParseError, ReconstructionAborted, UsageError
from .guess import Options, guess, guess_class
from .models import CLASS_NAMES
from .render import result_to_json, to_obj
from .rings import MAX_POWER_BITS, RatPoly, fraction_from_dec, int_from_dec

_CHECK_MODES = {"det": "deterministic", "mc": "montecarlo", "skip": "none"}


@dataclass
class InputSpec:
    """Parsed input: exact terms plus provenance."""

    terms: list
    offset: int = 0
    source: str = "inline"  # "inline" | "file" | "b-file"
    param: str | None = None


def _clip(text: str, keep: int = 24) -> str:
    """text for an error message, its middle elided when longer than 2 * keep characters."""
    if len(text) <= 2 * keep:
        return text
    return f"{text[:keep]}...{text[-keep:]} ({len(text)} characters)"


# ---------------------------------------------------------------------------
# term expression parsing


@dataclass
class _Tok:
    kind: str  # "int" | "name" | "op" | "end"
    text: str
    line: int
    col: int


def _tokenize(text: str, line: int = 1, col: int = 1) -> list[_Tok]:
    toks = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in "+-*/^(),":
            toks.append(_Tok("op", c, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(_Tok("end", "", line, col))
    return toks


class _ExprParser:
    """Recursive descent over +, -, *, /, ^, parentheses, one parameter."""

    def __init__(self, toks: list[_Tok], param: str | None):
        self.toks = toks
        self.pos = 0
        self.param = param

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def take(self) -> _Tok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def _const(self, v: Fraction):
        return RatPoly.const(v) if self.param else v

    @staticmethod
    def _int(tok: _Tok) -> int:
        try:
            return int_from_dec(tok.text)
        except ValueError:  # a digit that int() does not read, such as a superscript
            raise ParseError(f"bad integer {_clip(tok.text)!r}", tok.line, tok.col) from None

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            if self.take().text == "+":
                node = node + self.term()
            else:
                node = node - self.term()
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.take()
            rhs = self.factor()
            if tok.text == "*":
                node = node * rhs
            else:
                if rhs == self._const(Fraction(0)):
                    raise ParseError("division by zero", tok.line, tok.col)
                node = node / rhs
        return node

    def factor(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.take()
            val = self.factor()
            return val if tok.text == "+" else -val
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            caret = self.take()
            etok = self.take()
            if etok.kind != "int":
                raise ParseError("exponent must be a nonnegative integer", caret.line, caret.col)
            e = self._int(etok)
            if _power_bits(node, e) > MAX_POWER_BITS:
                raise ParseError(f"power exceeds the size limit MAX_POWER_BITS = {MAX_POWER_BITS} bits",
                                 caret.line, caret.col)
            return node**e
        return node

    def atom(self):
        tok = self.take()
        if tok.kind == "int":
            return self._const(Fraction(self._int(tok)))
        if tok.kind == "name":
            if self.param and tok.text == self.param:
                return RatPoly.make([Fraction(0), Fraction(1)])
            hint = f"; declare it with --param {tok.text}" if not self.param else ""
            raise ParseError(f"unknown name {tok.text!r}{hint}", tok.line, tok.col)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            closing = self.take()
            if closing.kind != "op" or closing.text != ")":
                raise ParseError("expected ')'", closing.line, closing.col)
            return node
        raise ParseError(f"expected a term, got {tok.text or 'end of input'!r}", tok.line, tok.col)


def _power_bits(base, e: int) -> float:
    """Upper bound on the bits of base^e, base a Fraction or a RatPoly.

    Per polynomial a = b/d with b integral: the coefficients of a^e number
    e*deg(a) + 1, and each has at most e*log2(|b|_1 * d) bits, as every
    coefficient of b^e is at most |b|_1^e in absolute value.
    """
    total = 0.0
    for a in (base.num, base.den) if isinstance(base, RatPoly) else ((base,),):
        if not a:
            continue
        d = math.lcm(*(c.denominator for c in a))
        height = math.log2(max(sum(abs(c.numerator) * (d // c.denominator) for c in a) * d, 1))
        count = e * (len(a) - 1) + 1
        if count > MAX_POWER_BITS or (height and e > MAX_POWER_BITS):
            return math.inf  # decided in ints: e may have thousands of digits
        total += count * (1 + e * height)
    return total


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    start = text.rfind("\n", 0, pos) + 1
    return line, pos - start + 1


def parse_sequence(text: str, param: str | None = None) -> InputSpec:
    """Inline terms: comma-separated expressions, or whitespace-separated
    single terms when no comma appears."""
    if "," in text:
        toks = _tokenize(text)
        parser = _ExprParser(toks, param)
        terms = []
        while parser.peek().kind != "end":
            terms.append(parser.expr())
            nxt = parser.peek()
            if nxt.kind == "op" and nxt.text == ",":
                parser.take()
            elif nxt.kind != "end":
                raise ParseError("expected ',' between terms", nxt.line, nxt.col)
    else:
        terms = []
        for m in re.finditer(r"\S+", text):
            line, col = _line_col(text, m.start())
            parser = _ExprParser(_tokenize(m.group(), line, col), param)
            terms.append(parser.expr())
            tail = parser.peek()
            if tail.kind != "end":
                raise ParseError(f"trailing input {tail.text!r}", tail.line, tail.col)
    if not terms:
        raise ParseError("no terms given")
    return InputSpec(terms, param=param)


def parse_bfile(text: str) -> InputSpec:
    terms = []
    offset = 0
    prev = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        fields = body.split()
        if len(fields) != 2:
            raise ParseError("b-file line must be 'index value'", lineno, 1)
        try:
            idx = int_from_dec(fields[0])
        except ValueError:
            raise ParseError(f"bad b-file index {_clip(fields[0])!r}", lineno, raw.index(fields[0]) + 1) from None
        try:
            val = fraction_from_dec(fields[1])
        except (ValueError, ZeroDivisionError) as exc:
            why = f": {exc}" if isinstance(exc, UsageError) else ""  # the size limit names itself
            raise ParseError(f"bad b-file value {_clip(fields[1])!r}{why}", lineno, raw.rindex(fields[1]) + 1) from None
        if prev is None:
            offset = idx
        elif idx != prev + 1:
            raise ParseError(
                f"non-contiguous b-file indices: {prev} followed by {idx} (expected {prev + 1})", lineno, 1
            )
        prev = idx
        terms.append(val)
    if not terms:
        raise ParseError("b-file contains no terms")
    return InputSpec(terms, offset=offset, source="b-file")


def _looks_like_bfile(text: str) -> bool:
    rows = [l.split("#", 1)[0].strip() for l in text.splitlines()]
    rows = [r for r in rows if r]
    if len(rows) < 2 or any("," in r for r in rows):
        return False
    indices = []
    for r in rows:
        fields = r.split()
        if len(fields) != 2:
            return False
        try:
            indices.append(int_from_dec(fields[0]))
        except ValueError:
            return False
    # increasing first column = index column; contiguity itself is checked
    # by parse_bfile so that gaps are reported, not silently reinterpreted
    return all(b > a for a, b in zip(indices, indices[1:]))


# ---------------------------------------------------------------------------
# argument handling


def _bool_or_int(label: str):
    def convert(value: str):
        if value == "true":
            return True
        try:
            return int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{label} takes an integer or 'true'") from None

    return convert


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="seqguess",
        description="Guess a defining equation (closed form, recurrence, algebraic or "
        "functional equation) from the first terms of a sequence.",
    )
    p.add_argument("terms", nargs="*", help="sequence terms (e.g. 0 1 4 9 or '1, 1+q, 1+q+q^2')")
    p.add_argument("--file", help="read terms from a file ('-' for stdin); b-files are autodetected")
    p.add_argument("--class", dest="klass", default="rat",
                   help=f"equation class(es), comma separated; one of {','.join(CLASS_NAMES)} (default rat)")
    p.add_argument("--q", action="store_true", help="q-analogue mode (q-shifts / q-dilations)")
    p.add_argument("--param", help="name of the polynomial parameter used in the terms (implies --q)")
    p.add_argument("--max-shift", type=int, help="largest shift f(n+k) considered")
    p.add_argument("--max-derivative", type=int, help="largest derivative order considered")
    p.add_argument("--max-power", type=int, help="largest total power of f (nonlinear classes)")
    p.add_argument("--max-degree", type=int, help="largest coefficient degree per monomial")
    p.add_argument("--max-level", type=int, help="largest Mahler level / operator nesting depth")
    p.add_argument("--homogeneous", nargs="?", const="true", type=_bool_or_int("--homogeneous"),
                   help="restrict to homogeneous equations (optionally of the given degree)")
    p.add_argument("--somos", nargs="?", const="true", type=_bool_or_int("--somos"),
                   help="restrict to Somos-like quadratic recurrences (optionally Somos-k)")
    p.add_argument("--all-degrees", action="store_true",
                   help="try every degree vector of each total size, not just the balanced one")
    p.add_argument("--mixed-degree", type=int, default=0,
                   help="largest power j of q^n allowed as an explicit factor (q sequences)")
    p.add_argument("--safety", type=int, default=1, help="extra conditions held back as a plausibility check")
    p.add_argument("--check", choices=sorted(_CHECK_MODES), default="det",
                   help="verification mode: det (exact), mc (random primes), skip")
    p.add_argument("--all", action="store_true", help="report every equation found, not just the first")
    p.add_argument("--no-extra-check", action="store_true",
                   help="interpolate only; do not test candidates against the unused data")
    p.add_argument("--operators", help="wrap base classes in inverted operators: sum,product")
    p.add_argument("--names", default="f,n,x", help="function,index,variable names (default f,n,x)")
    p.add_argument("--json", action="store_true", help="emit the versioned JSON form instead of text")
    p.add_argument("--debug", action="store_true", help="stream search progress to stderr")
    p.add_argument("--seed", type=int, help="RNG seed (default: $SEQGUESS_SEED or 0)")
    return p


def _load_input(args) -> InputSpec:
    if args.file:
        if args.terms:
            raise ParseError("give terms inline or with --file, not both")
        text = sys.stdin.read() if args.file == "-" else Path(args.file).read_text(encoding="utf-8")
        if _looks_like_bfile(text):
            return parse_bfile(text)
        spec = parse_sequence(text, args.param)
        spec.source = "file"
        return spec
    if args.terms:
        return parse_sequence(" ".join(args.terms), args.param)
    text = sys.stdin.read()
    if _looks_like_bfile(text):
        return parse_bfile(text)
    return parse_sequence(text, args.param)


def _options_from_args(args) -> Options:
    names = tuple(s.strip() for s in args.names.split(","))
    if len(names) != 3 or not all(names):
        raise UsageError("--names needs three comma-separated names: function,index,variable")
    seed = args.seed
    if seed is None:
        env = os.environ.get("SEQGUESS_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise UsageError(f"SEQGUESS_SEED must be an integer, got {env!r}") from None
    return Options(
        max_shift=args.max_shift,
        max_derivative=args.max_derivative,
        max_power=args.max_power,
        max_degree=args.max_degree,
        max_level=args.max_level,
        homogeneous=args.homogeneous if args.homogeneous is not None else False,
        somos=args.somos if args.somos is not None else False,
        all_degrees=True if args.all_degrees else None,
        max_mixed_degree=args.mixed_degree,
        safety=args.safety,
        check=_CHECK_MODES[args.check],
        check_extra_values=not args.no_extra_check,
        one=not args.all,
        function_name=names[0],
        index_name=names[1],
        variable_name=names[2],
        debug=args.debug,
        seed=seed,
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _load_input(args)
        opts = _options_from_args(args)
        classes = [c.strip() for c in args.klass.split(",") if c.strip()]
        if not classes:
            raise UsageError(f"--class needs at least one of {','.join(CLASS_NAMES)}")
        for c in classes:
            if c not in CLASS_NAMES:
                raise UsageError(f"unknown class {c!r}; choose from {','.join(CLASS_NAMES)}")
        operators = None
        if args.operators is not None:
            operators = tuple(o.strip() for o in args.operators.split(",") if o.strip())
            if not operators:
                raise UsageError("--operators needs at least one of sum,product")
            for o in operators:
                if o not in ("sum", "product"):
                    raise UsageError(f"unknown operator {o!r}; choose from sum,product")
        q_mode = args.q or bool(args.param)
        if operators and q_mode:
            raise UsageError("operator search works on plain rational sequences, not in q mode")
    except (ValueError, OSError) as e:
        print(f"seqguess: {e}", file=sys.stderr)
        return 2

    if spec.offset and args.debug:
        print(f"[seqguess] input offset {spec.offset}; equations index from 0", file=sys.stderr)

    try:
        if operators:
            results = guess(spec.terms, guessers=classes, operators=operators, opts=opts)
        else:
            results = []
            for klass in classes:
                results.extend(guess_class(spec.terms, klass, opts, q=q_mode))
                if results and opts.one:
                    break
        if not results:
            text = ("[]" if args.all else "null") if args.json else "no guess"
        elif args.json:
            text = json.dumps([to_obj(r) for r in results], indent=2) if args.all else result_to_json(results[0])
        else:
            text = "\n".join(str(r) for r in results)
    except ReconstructionAborted as e:
        print(f"seqguess: aborted: {e}", file=sys.stderr)
        return 3
    except UsageError as e:
        print(f"seqguess: {e}", file=sys.stderr)
        return 2
    except (CheckFailed, ValueError) as e:
        print(f"seqguess: internal error: {e}", file=sys.stderr)
        return 3
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed the pipe early (`| head -1`): the outcome stands, and with
        # no sys.stdout the interpreter's flush at exit does not raise again
        sys.stdout = None
    return 0 if results else 1

if __name__ == "__main__":
    sys.exit(main())
