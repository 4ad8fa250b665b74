"""Parser and CLI fuzz: random input never reaches an unexpected error.

The token strings and argument vectors are drawn from fixed seeds, so
every run sees the same cases.  parse_sequence must return or raise
UsageError (ParseError is one); cli.main must exit 0 to 3, with 2 for
every call it cannot run, and never report an internal error.
"""

import random

import pytest

from seqguess.cli import main, parse_sequence
from seqguess.errors import UsageError

# tokens of the term grammar, plus characters it has no rule for
_TOKENS = ("0", "1", "2", "7", "q", "x", "n", "+", "-", "*", "/", "^", "(", ")", ",", " ", "\n",
           ".", "#", "²", "٣")


def _token_string(rng: random.Random) -> str:
    """One to twelve tokens; a quarter of them integers of up to five digits."""
    return "".join(str(rng.randrange(10 ** rng.randint(1, 5))) if rng.random() < 0.25 else rng.choice(_TOKENS)
                   for _ in range(rng.randint(1, 12)))


def test_parse_sequence_returns_or_raises_usage_error():
    rng, failures = random.Random(2027), []
    for i in range(20_000):
        text, param = _token_string(rng), ("q" if i % 2 else None)
        try:
            parse_sequence(text, param)
        except UsageError:
            pass
        except Exception as exc:  # noqa: BLE001 - any other exception is the finding
            failures.append((text, param, repr(exc)))
    assert failures == []


# flag -> (valid values, malformed values); switches take no value
_FLAGS = {
    "--class": (["rat", "prec", "rec", "pade", "alg", "holo", "rat,pade"], ["bogus", ","]),
    "--param": (["q"], []),
    "--max-shift": (["0", "1", "2"], ["-1", "x"]),
    "--max-derivative": (["0", "1", "2"], ["-2", "1.5"]),
    "--max-power": (["1", "2"], ["-1", "two"]),
    "--max-degree": (["0", "1", "2"], ["-1", ""]),
    "--max-level": (["0", "1", "2"], ["-3", "x"]),
    "--homogeneous": (["1", "2", "true"], ["-1", "maybe"]),
    "--somos": (["1", "2"], ["x"]),
    "--mixed-degree": (["0", "1"], ["-1", "y"]),
    "--safety": (["0", "1", "2"], ["-1", "s"]),
    "--check": (["det", "mc", "skip"], ["fast"]),
    "--operators": (["sum", "product", "sum,product"], ["diff", ","]),
    "--names": (["f,n,x", "g,k,t"], ["f,n", ",,"]),
    "--seed": (["0", "5"], ["s"]),
}
_SWITCHES = ("--q", "--all-degrees", "--all", "--no-extra-check", "--json", "--debug")
_TERMS = (["1", "2", "4", "8", "16", "32"], ["0", "1", "1", "2", "3", "5", "8", "13"], ["1", "1", "2", "5", "14", "42"],
          ["1,", "1+q,", "1+q+q^2,", "1+q+q^2+q^3,", "1+q+q^2+q^3+q^4"], ["1/2", "3", "-5/7", "2"])
_BAD_TERMS = (["1", "2", "x"], ["1,,2"], [")"], ["1/0", "1"], ["2^"])


def _argv(rng: random.Random) -> tuple[list, bool]:
    """A random call over the documented flags on a short input, and
    whether a malformed value or term list was drawn."""
    argv, malformed = [], False
    for flag in rng.sample(sorted(_FLAGS), rng.randint(0, 4)):
        good, bad = _FLAGS[flag]
        use_bad = bool(bad) and rng.random() < 0.3
        malformed |= use_bad
        argv += [flag, rng.choice(bad if use_bad else good)]
    argv += rng.sample(_SWITCHES, rng.randint(0, 2))
    use_bad = rng.random() < 0.15
    malformed |= use_bad
    return argv + rng.choice(_BAD_TERMS if use_bad else _TERMS), malformed


def test_cli_on_random_argv_exits_cleanly(capsys):
    rng, failures = random.Random(2028), []
    for _ in range(300):
        argv, malformed = _argv(rng)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the call
            code = exc.code
        err = capsys.readouterr().err
        if code not in (0, 1, 2) or (malformed and code != 2) or "internal error" in err or (code == 2 and not err):
            failures.append((argv, code, err[-300:]))
    assert failures == []
