"""Exceptions with a fixed mapping to CLI exit codes, and the default
enumeration budget that BudgetExceededError enforces.

ParseError -> 2, BudgetExceededError -> 3, VerificationError -> 4.
Plain ValueError (bad arguments to library calls) maps to 2 as well, and
MemoryError (an allocation the machine cannot serve) to 3.
"""


class ParseError(ValueError):
    """Malformed input file or value. Carries an optional 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget."""


DEFAULT_BOX_BUDGET = 2 ** 24  # the budget of every enumeration that takes one


class VerificationError(AssertionError):
    """An internal cross-check failed. Deliberately loud: this means a

    mathematical invariant the library promises was observed to be false.
    """
