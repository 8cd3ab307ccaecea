"""Exception types shared across the package, and how their texts show numbers.

The CLI maps these onto process exit codes: parse errors exit with 2,
domain and precondition errors with 3, resource errors with 4.
"""

from __future__ import annotations

from fractions import Fraction

#: Integers of at most this many bits (617 decimal digits) appear in texts in
#: decimal, longer ones by their bit length.  The interpreter refuses to write
#: integers past its int-to-str digit limit as text, 4300 digits by default and
#: never fewer than 640; certificate brackets at width 1e-300 stay below it.
DECIMAL_TEXT_BITS = 2048


def number_text(value: int | Fraction) -> str:
    """str(value), except that an integer part of more than DECIMAL_TEXT_BITS
    bits is written as its bit length, as in '1/<16610-bit integer>'."""

    def part(n: int) -> str:
        if n.bit_length() <= DECIMAL_TEXT_BITS:
            return str(n)
        return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit integer>"

    if value.denominator == 1:
        return part(value.numerator)
    return f"{part(value.numerator)}/{part(value.denominator)}"


class SelfPowerError(Exception):
    """Base class for all library errors."""


class ParseError(SelfPowerError):
    """Malformed textual input; carries the offending position when known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class DomainError(SelfPowerError):
    """An argument lies outside an operation's domain."""


class PreconditionError(DomainError):
    """A checked precondition (for instance x^a = y^b) does not hold."""


class TargetShapeError(DomainError):
    """The target polynomial is reducible or not of the shape s*x^d - r."""


class UnsupportedInputError(DomainError):
    """Input outside the supported range (for instance classify with q <= 1)."""


class ResourceError(SelfPowerError):
    """An effort budget or size cap was exceeded; never a wrong answer."""
