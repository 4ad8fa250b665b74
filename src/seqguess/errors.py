"""Exceptions shared across the package."""


class BadModulus(Exception):
    """The chosen prime (or evaluation point) cannot represent the data.

    Raised when a denominator vanishes under reduction, or when the point
    schedule collapses (repeated points) modulo the chosen prime.  The
    driver reacts by discarding the modulus and sampling a fresh one; a
    bad modulus is never counted as a bad reduction.
    """


class NoSolution(Exception):
    """The solution module is provably empty within the degree bounds.

    Raised as soon as one good modular reduction has no positive-defect
    column: the modular solution space can only be larger than the exact
    one, so an empty modular space settles the question.
    """


class SchemaExhausted(Exception):
    """No further monomials exist under the active schema filters."""


class ReconstructionAborted(Exception):
    """The modular driver hit its resource cap without a stable answer."""


class CheckFailed(Exception):
    """A reconstructed equation failed the exact verification.

    This indicates an internal inconsistency (the modular lift produced a
    candidate that does not hold over the exact field); it is not a normal
    "no equation found" outcome.
    """


class UsageError(ValueError):
    """The caller's input or options are invalid.

    Kept apart from other ValueErrors so that a front end can tell a bad
    request from an internal failure of the engine.
    """


class ParseError(UsageError):
    """Invalid input text; carries a position for CLI diagnostics."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
