"""seqguess: guess defining equations of sequences and power series.

Given the first terms of a sequence of rationals (or of rational functions
in a parameter q), search for a rational closed form, a linear or
polynomial recurrence, an algebraic equation or algebraic differential
equation of the generating series, or a Mahler-type functional equation.
All arithmetic is exact; the search solves simultaneous Hermite-Pade
approximation problems modulo random machine primes and reconstructs the
rational answer by Chinese remaindering.
"""

from .errors import (
    BadModulus,
    CheckFailed,
    NoSolution,
    ParseError,
    ReconstructionAborted,
    SchemaExhausted,
    UsageError,
)
from .guess import (
    GuessResult,
    OperatorExpr,
    Options,
    check_deterministic,
    check_monte_carlo,
    guess,
    guess_ade,
    guess_alg,
    guess_class,
    guess_fe,
    guess_holo,
    guess_pade,
    guess_prec,
    guess_rat,
    guess_rec,
)
from .models import CLASS_NAMES
from .render import render_operator, render_text, result_from_json, result_to_json
from .rings import RatPoly

__version__ = "0.1.0"

__all__ = [
    "BadModulus",
    "CheckFailed",
    "NoSolution",
    "ParseError",
    "ReconstructionAborted",
    "SchemaExhausted",
    "UsageError",
    "GuessResult",
    "OperatorExpr",
    "Options",
    "check_deterministic",
    "check_monte_carlo",
    "guess",
    "guess_ade",
    "guess_alg",
    "guess_class",
    "guess_fe",
    "guess_holo",
    "guess_pade",
    "guess_prec",
    "guess_rat",
    "guess_rec",
    "CLASS_NAMES",
    "render_operator",
    "render_text",
    "result_from_json",
    "result_to_json",
    "RatPoly",
    "__version__",
]
