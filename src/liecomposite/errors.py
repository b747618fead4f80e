"""Exception hierarchy shared across the package."""

from __future__ import annotations


class LibError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LibError):
    """Malformed textual input (expressions, rational literals, entry strings)."""


class ZeroDenominatorError(LibError, ZeroDivisionError):
    """A rational function was built with, or divided by, a zero denominator."""


class PoleError(LibError):
    """Evaluation requested at a pole of a rational function."""

    def __init__(self, point, message: str | None = None):
        self.point = point
        super().__init__(message or f"pole at {point}")


class NegativeExponentError(LibError):
    """An operator would produce a negative-degree monomial with nonzero coefficient."""


class DomainError(LibError):
    """A numeric routine was called outside its domain (e.g. weight h0 <= 0)."""


class DimensionMismatchError(LibError):
    """Matrix or vector dimensions are inconsistent."""


class MalformedInputError(LibError):
    """A structured input (file, table) violates its declared invariants."""
