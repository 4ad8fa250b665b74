"""Output-identity corpus: a fixed call list and its rendered results.

Every call's results are rendered as text (`str`) and as JSON
(`result_to_json`) into one document; `tests/corpus_output.txt` holds that
document as committed, and `tests/test_corpus.py` replays the list and
compares byte for byte.  A change that must not alter any answer proves
it by leaving this file untouched.

    python3 tests/corpus.py            # compare against the committed file
    python3 tests/corpus.py --write    # regenerate it (a deliberate act)

The list covers every equation class with one=True and one=False, q mode,
somos, the operator search, `check_extra_values=False`, Monte-Carlo and
unchecked verification, the textbook goldens, and the four benchmark
workloads at seed 1 with their tiny sizes (`bench/workloads.py`, imported
read-only).
"""

from __future__ import annotations

import difflib
import math
import sys
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUT = HERE / "corpus_output.txt"

for _p in (HERE, ROOT / "src", ROOT / "bench"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import seqguess  # noqa: E402
import workloads  # noqa: E402
from oracles import gen_prec_terms  # noqa: E402
from seqguess import RatPoly, result_to_json  # noqa: E402

_SOMOS4 = [1, 1, 1, 1, 2, 3, 7, 23, 59, 314, 1529, 8209, 83313]
_CATALAN = [1, 1, 2, 5, 14, 42]
_SINE = [F(0), F(1), F(0), F(-1, 6), F(0), F(1, 120), F(0), F(-1, 5040)]
_BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]
_TREE = [0, 1, 1, 1, 2, 3, 6, 11, 23]
_Q_BINOMIAL = [RatPoly.const(1), RatPoly.make([1, 1, 1]),
               RatPoly.make([1, 1, 1]) * RatPoly.make([1, 0, 1]),
               RatPoly.make([1, 0, 1]) * RatPoly.make([1, 1, 1, 1, 1])]
_Q_FACTORIAL = [RatPoly.make([0] * (n * (n - 1)) + [math.factorial(n)]) for n in range(8)]
_Q_INTS = [RatPoly.make([1] * n) for n in range(6)]


def _prec(order, deg, count, seed):
    return gen_prec_terms(order, deg, count, seed)[0]


# (label, entry point, terms, keyword arguments)
CALLS = [
    # every class, first result and all results
    *((f"{entry} one={one}", entry, terms, {"one": one, **kw})
      for entry, terms, kw in (
          ("guess_rat", [0, 1, 4, 9, 16], {}),
          ("guess_rat", [F(1, k + 1) for k in range(6)], {}),
          ("guess_pade", [1, 1, 2, 3, 5, 8], {}),
          ("guess_prec", [math.factorial(k) for k in range(8)], {}),
          ("guess_rec", [1, 1, 0, 1, -1, 2, -1, 5, -4, 29, -13, 854, -685], {}),
          ("guess_holo", _SINE, {}),
          ("guess_alg", _CATALAN + [132], {}),
          ("guess_ade", [F(b, math.factorial(k)) for k, b in enumerate(_BELL)], {}),
          ("guess_fe", _TREE, {}),
          ("guess_rec", [1, 1, 0, 1, 0, 0, 1, 0, 1, 1], {}),
      )
      for one in (True, False)),
    # no equation of the shape
    ("pade too short", "guess_pade", [1, 2, 3], {}),
    ("pade trailing zero", "guess_pade", [1, 2, 3, 0], {}),
    ("rat safety 2", "guess_rat", [0, 1, 4, 9], {"safety": 2}),
    ("rat constant one=False", "guess_rat", [5, 5, 5], {"one": False}),
    ("prec random order 2", "guess_prec", _prec(2, 2, 14, 7),
     {"homogeneous": 1, "max_shift": 2, "max_degree": 2}),
    ("prec random order 3", "guess_prec", _prec(3, 1, 14, 8),
     {"homogeneous": 1, "max_shift": 3, "max_degree": 1, "one": False}),
    # wider order bases
    ("prec random order 4 degree 6", "guess_prec", _prec(4, 6, 44, 51),
     {"homogeneous": 1, "max_shift": 4, "max_degree": 6}),
    ("prec random order 5 degree 10", "guess_prec", _prec(5, 10, 71, 51),
     {"homogeneous": 1, "max_shift": 5, "max_degree": 10}),
    ("holo random order 3", "guess_holo", _prec(3, 3, 45, 9), {}),
    ("prec unbounded one=False", "guess_prec", _prec(3, 3, 30, 9), {"one": False}),
    # q mode
    ("q rat binomial", "guess_rat", _Q_BINOMIAL, {"q": True}),
    ("q rat binomial one=False", "guess_rat", _Q_BINOMIAL, {"q": True, "one": False}),
    ("q prec factorial mixed", "guess_prec", _Q_FACTORIAL,
     {"q": True, "max_mixed_degree": 2, "homogeneous": True}),
    ("q rat constant", "guess_rat", [RatPoly.const(5)] * 4, {"q": True}),
    ("q prec q-integers", "guess_prec", _Q_INTS, {"q": True, "max_shift": 1, "one": False}),
    ("q pade q-integers", "guess_pade", _Q_INTS, {"q": True}),
    # somos
    ("rec somos=4", "guess_rec", _SOMOS4, {"somos": 4, "max_shift": 4}),
    ("rec somos=True", "guess_rec", _SOMOS4, {"somos": True, "max_shift": 4, "max_power": 2}),
    # verification modes
    ("alg montecarlo", "guess_alg", _CATALAN, {"check": "montecarlo"}),
    ("alg unchecked", "guess_alg", _CATALAN, {"check": "none"}),
    # two rejected basis columns combine into the answer (pairwise retry)
    ("holo pairwise retry", "guess_holo", [0, 0, 1, 0, 0, 0, 0, 1], {"one": False}),
    ("ade pairwise retry", "guess_ade", [1, 0, 0, 1, 0, 0, 1, 0, 1, 0], {"one": False}),
    ("rec idempotent no extra values", "guess_rec", [1, 1, 0, 1, 0, 0, 1, 0, 1, 1],
     {"check_extra_values": False, "one": False}),
    ("rat no extra values", "guess_rat", [0, 1, 4, 9, 16, 25], {"check_extra_values": False}),
    ("prec no extra values", "guess_prec", [math.factorial(k) for k in range(8)],
     {"check_extra_values": False, "one": False}),
    # operator search
    ("operator sum of products", "guess", [0, 1, 3, 9, 33], {}),
    ("operator random terms", "guess", [3, -7, 12, 5, -1, 8], {}),
    ("operator one=False", "guess", [1, 2, 6, 24, 120, 720], {"one": False}),
    ("rat custom names", "guess_rat", [0, 1, 4, 9], {"function_name": "a", "index_name": "k"}),
    # the textbook goldens
    *((f"golden {entry} {text or 'no guess'}", entry, terms, kw)
      for entry, terms, kw, text in workloads.TEXTBOOK),
]


def _cases():
    """(label, thunk) for every corpus call, bench workloads last."""
    for label, entry, terms, kw in CALLS:
        fn = getattr(seqguess, entry)
        yield label, (lambda fn=fn, terms=terms, kw=kw: fn(terms, **kw))
    for name in workloads.WORKLOADS:
        for case in workloads.build(name, 1, seqguess, tiny=True):
            yield f"{name}: {case.label}", case.run


def render() -> str:
    """The corpus document: each call's label, then its results as text and JSON."""
    parts = []
    for label, run in _cases():
        results = run()
        parts.append(f"=== {label}\n")
        if not results:
            parts.append("no guess\n")
        for r in results:
            parts.append(f"{r}\n{result_to_json(r)}\n")
    return "".join(parts)


def main(argv: list[str]) -> int:
    text = render()
    if "--write" in argv:
        OUTPUT.write_text(text)
        print(f"wrote {OUTPUT.name}: {text.count('=== ')} calls")
        return 0
    old = OUTPUT.read_text()
    if old == text:
        print(f"identical: {text.count('=== ')} calls")
        return 0
    sys.stdout.writelines(difflib.unified_diff(old.splitlines(True), text.splitlines(True),
                                               "committed", "now"))
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
