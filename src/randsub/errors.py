"""Exception hierarchy shared by all randsub modules.

The CLI maps these onto exit codes: spec-format errors are usage errors
(exit 2), budget exhaustion is exit 3, every other domain error is exit 1.
"""

from __future__ import annotations


class RandsubError(Exception):
    """Base class for all errors raised by this package."""


class SpecError(RandsubError):
    """A problem in a substitution spec text; carries a 1-based position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class SpecSyntaxError(SpecError):
    """Input does not match the spec grammar."""


class UnknownLetterError(SpecError):
    """A word or rule refers to a letter that is not in the alphabet."""


class BadProbabilityError(SpecError):
    """A probability is malformed, out of [0, 1], or a rule does not sum to 1."""


class EmptyImageError(SpecError):
    """A rule maps a letter to the empty word, which is not allowed."""


class BudgetExceededError(RandsubError):
    """An enumeration grew past its work budget; retry with a larger budget."""

    def __init__(self, message: str, budget: int):
        self.detail = message
        self.budget = budget
        super().__init__(f"{message} (budget {budget})")


class EmptySubshiftError(RandsubError):
    """The subshift is empty: every image of every letter has length 1."""

    def __init__(
        self,
        message: str = "empty subshift: all images have length 1, no legal words beyond letters",
    ):
        super().__init__(message)


class NotPrimitiveError(RandsubError):
    """Operation requires a primitive substitution (or primitive matrix)."""


class NoConvergenceError(RandsubError):
    """Power iteration failed to converge within the iteration cap.

    ``point`` is the index, within a stack of matrices iterated together,
    of the first one that failed, when the raiser knows it.
    """

    def __init__(self, message: str, point: int | None = None):
        self.point = point
        super().__init__(message)


class DegenerateRuleError(RandsubError):
    """A rule with no positive-probability image; kept as public API.

    Nothing raises it: such a rule is refused with ``BadProbabilityError``
    when the substitution is built.
    """


class WordTooShortError(RandsubError):
    """The word is shorter than the requested window length."""


class LengthOrderError(RandsubError):
    """Affix test called with |u| > |v|."""
