"""Scalar domains for exact and floating-point determinant work.

Matrix entries are plain Python values: ``fractions.Fraction``, ``int``
or ``float``.  A :class:`ScalarKind` bundles everything that differs
between those domains (text parsing, canonical formatting, exact
division, zero test, the constants zero and one) so the matrix and
condensation code can stay generic.  Ordinary arithmetic uses the
values' native operators, which all three domains support; magnitude
comparisons use built-in ``abs``.

Integers of any length format and parse, including those past
Python's int/str conversion limit (``sys.get_int_max_str_digits()``),
which condensation entries reach at n >= 16: such values are cut into
decimal chunks instead of raising the limit for the whole process.

The kinds are stateless singletons ``RATIONAL``, ``INTEGER`` and
``FLOAT``, also reachable by name through the ``KINDS`` mapping.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

__all__ = [
    "ScalarParseError",
    "ExactDivisionError",
    "OpCounts",
    "ScalarKind",
    "RationalKind",
    "IntegerKind",
    "FloatKind",
    "RATIONAL",
    "INTEGER",
    "FLOAT",
    "KINDS",
    "bit_length",
]

Scalar = Union[Fraction, int, float]


class ScalarParseError(ValueError):
    """Scalar text that does not parse under the requested kind."""


class ExactDivisionError(ArithmeticError):
    """A division that was promised to be exact is not.

    Raised on a nonzero remainder under the integer kind and on any
    zero divisor.  Inside a determinant run this signals a broken
    divisibility invariant, not bad user input.
    """


@dataclass
class OpCounts:
    """Running tally of scalar operations performed by a computation."""

    multiplications: int = 0
    subtractions: int = 0
    divisions: int = 0


_INT_RE = re.compile(r"[+-]?\d+\Z")
_FRACTION_RE = re.compile(r"([+-]?\d+)\s*/\s*([+-]?\d+)\Z")
_DECIMAL_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")
_SQRT_RE = re.compile(r"(-?)sqrt\((.+)\)\Z")

# Decimal digits per chunk for values past the int/str conversion limit;
# the smallest limit Python accepts is 640 digits.
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def _int_text(value: int) -> str:
    """Decimal text of ``value``, however many digits it has."""
    try:
        return str(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        pass
    sign, rest = ("-", -value) if value < 0 else ("", value)
    chunks = []
    while rest >= _CHUNK:
        rest, low = divmod(rest, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    chunks.append(str(rest))
    return sign + "".join(reversed(chunks))


def _text_int(text: str) -> int:
    """``int(text)`` for optionally signed decimal digits of any length."""
    try:
        return int(text)
    except ValueError:  # past sys.get_int_max_str_digits()
        pass
    sign, digits = (text[0], text[1:]) if text[0] in "+-" else ("", text)
    head = len(digits) % _CHUNK_DIGITS or _CHUNK_DIGITS
    value = int(digits[:head])
    for start in range(head, len(digits), _CHUNK_DIGITS):
        value = value * _CHUNK + int(digits[start : start + _CHUNK_DIGITS])
    return -value if sign == "-" else value


class ScalarKind:
    """One scalar domain: parsing, formatting and exact division."""

    name: str = "abstract"
    zero: Scalar
    one: Scalar

    def parse(self, text: str) -> Scalar:
        raise NotImplementedError

    def format(self, value: Scalar) -> str:
        raise NotImplementedError

    def exact_div(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def check(self, value) -> Scalar:
        """Validate (and canonicalize) one entry value for this kind."""
        raise NotImplementedError

    def is_zero(self, value: Scalar) -> bool:
        # Exact comparison for every kind, floats included.  Tolerances
        # belong to callers that want them, never to the domain itself.
        return value == self.zero

    def __repr__(self) -> str:
        return f"<scalar kind {self.name!r}>"


class RationalKind(ScalarKind):
    """Arbitrary-precision rationals backed by ``fractions.Fraction``."""

    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def parse(self, text: str) -> Fraction:
        t = text.strip()
        m = _FRACTION_RE.match(t)
        if m:
            num, den = _text_int(m.group(1)), _text_int(m.group(2))
            if den == 0:
                raise ScalarParseError(f"zero denominator in {text!r}")
            return Fraction(num, den)
        if _INT_RE.match(t):
            return Fraction(_text_int(t))
        if _DECIMAL_RE.match(t):
            # Decimal text converts exactly (0.5 -> 1/2), never via float,
            # with the digits read by _text_int at any length.
            mantissa, _, exp = t.lower().partition("e")
            whole, _, frac = mantissa.partition(".")
            try:
                shift = int(exp or 0) - len(frac)
            except ValueError:  # past the int/str limit: 10**exp could never be built
                raise ScalarParseError(f"exponent out of range: {text!r}") from None
            value = Fraction(_text_int(whole + frac))
            return value * 10**shift if shift >= 0 else value / 10**-shift
        raise ScalarParseError(f"not a rational scalar: {text!r}")

    def format(self, value: Fraction) -> str:
        if value.denominator == 1:
            return _int_text(value.numerator)
        return f"{_int_text(value.numerator)}/{_int_text(value.denominator)}"

    def exact_div(self, a: Fraction, b: Fraction) -> Fraction:
        if b == 0:
            raise ExactDivisionError("rational division by zero")
        return a / b

    def check(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"rational entries must be Fraction or int, got {value!r}")

    def integer_row(self, row: Sequence[Fraction]) -> Tuple[List[int], int]:
        """A rational row as an integer row over one denominator:
        ``(nums, scale)`` with ``row[j] == Fraction(nums[j], scale)``,
        ``scale`` being the lcm of the row's denominators.

        Exact work on a rational matrix runs on these plain ints.
        Scaling row i by scale_i scales every minor that uses row i by
        scale_i, so a 2x2 determinant of rows i and k comes out scaled
        by scale_i * scale_k and a full determinant by the product of
        all the scales.  One ``Fraction`` per result then replaces a
        gcd normalisation per product, difference and division.
        """
        dens = [v.denominator for v in row]
        scale = math.lcm(*dens)
        return [v.numerator * (scale // d) for v, d in zip(row, dens)], scale


class IntegerKind(ScalarKind):
    """Arbitrary-precision integers; division must be remainder-free."""

    name = "integer"
    zero = 0
    one = 1

    def parse(self, text: str) -> int:
        t = text.strip()
        if _INT_RE.match(t):
            return _text_int(t)
        if _FRACTION_RE.match(t) or _DECIMAL_RE.match(t):
            raise ScalarParseError(f"not an integer scalar (fractional text): {text!r}")
        raise ScalarParseError(f"not an integer scalar: {text!r}")

    def format(self, value: int) -> str:
        return _int_text(value)

    def exact_div(self, a: int, b: int) -> int:
        if b == 0:
            raise ExactDivisionError("integer division by zero")
        q, r = divmod(a, b)
        if r != 0:
            # Bit lengths, not digits: operands can be far past the
            # int/str conversion limit.
            raise ExactDivisionError(
                f"non-exact integer division: {a.bit_length()}-bit dividend"
                f" by {b.bit_length()}-bit divisor"
            )
        return q

    def check(self, value) -> int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise TypeError(f"integer entries must be int, got {value!r}")


class FloatKind(ScalarKind):
    """IEEE doubles.  The zero test stays exact; tolerances live in callers."""

    name = "float"
    zero = 0.0
    one = 1.0

    def parse(self, text: str) -> float:
        t = text.strip()
        m = _SQRT_RE.match(t)
        if m:
            # A small convenience for irrational fixture entries,
            # e.g. "sqrt(3)" or "-sqrt(2)".
            inner = self.parse(m.group(2))
            if inner < 0:
                raise ScalarParseError(f"square root of a negative value: {text!r}")
            root = math.sqrt(inner)
            return -root if m.group(1) else root
        m = _FRACTION_RE.match(t)
        if m:
            num, den = _text_int(m.group(1)), _text_int(m.group(2))
            if den == 0:
                raise ScalarParseError(f"zero denominator in {text!r}")
            try:
                value = num / den
            except OverflowError:
                value = math.inf
        elif _DECIMAL_RE.match(t):
            value = float(t)
        else:
            raise ScalarParseError(f"not a float scalar: {text!r}")
        # float() turns out-of-range text such as "1e400" into inf.
        if not math.isfinite(value):
            raise ScalarParseError(f"float out of range: {text!r}")
        return value

    def format(self, value: float) -> str:
        # repr of a float is the shortest text that round-trips exactly.
        return repr(value)

    def exact_div(self, a: float, b: float) -> float:
        if b == 0.0:
            raise ExactDivisionError("float division by zero")
        return a / b

    def check(self, value) -> float:
        if isinstance(value, float):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        raise TypeError(f"float entries must be float or int, got {value!r}")


RATIONAL = RationalKind()
INTEGER = IntegerKind()
FLOAT = FloatKind()

KINDS = {kind.name: kind for kind in (RATIONAL, INTEGER, FLOAT)}


def bit_length(value: int) -> int:
    """Bit length of ``abs(value)``; 0 has bit length 0."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"bit_length is defined for int, got {value!r}")
    return abs(value).bit_length()
