"""Exception hierarchy shared by the whole package."""


class OlmError(Exception):
    """Base class for all errors raised by olmcheck."""


class DivisionByZero(OlmError, ZeroDivisionError):
    """Division or inversion by the zero element of a coefficient field."""


class TableMismatch(OlmError):
    """Operation mixing polynomials from different rings."""


class MissingImage(OlmError):
    """Ring homomorphism applied to a variable without an assigned image."""


class InvalidDivisor(OlmError):
    """Zero polynomial passed as a divisor to the division algorithm."""


class InvalidInput(OlmError):
    """Zero polynomial passed where a nonzero one is required."""


class BudgetExceeded(OlmError):
    """A Groebner computation ran over its explicit step or time budget.

    This is a reportable outcome, never silently swallowed.
    """


class EmptyVariety(OlmError):
    """Dimension requested for the unit ideal."""


class InvalidChart(OlmError):
    """Chart parameters (d, l) outside the supported range."""


class NotApplicable(OlmError):
    """Operation not defined for this parity case."""
