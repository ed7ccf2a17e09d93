"""Scalar domains for exact and floating-point determinant work.

Matrix entries are plain Python values: ``fractions.Fraction``, ``int``
or ``float``.  A :class:`ScalarKind` holds what every domain has its
own version of: text parsing, canonical formatting, the entry check
and the constants zero and one.  Arithmetic, zero tests (``== 0``,
exact for every kind) and magnitude comparisons (built-in ``abs``) use
the values' native operators.  The remainder-checked division of
condensation and Bareiss runs on integers, rational and float
matrices included: those run as integer rows
(``RationalKind.integer_row``), so it is ``IntegerKind.exact_div``.
Every determinant is an exact ratio of two ints until ``_as_kind``
turns it into the caller's kind: an int, a ``Fraction``, or a float
rounded once.

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
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple, Union

__all__ = [
    "ScalarParseError",
    "ExactDivisionError",
    "OpCounts",
    "ScalarKind",
    "RATIONAL",
    "INTEGER",
    "FLOAT",
    "KINDS",
    "bit_length",
]

Scalar = Union[Fraction, int, float]


class ScalarParseError(ValueError):
    """Scalar text that does not parse under the requested kind."""


# The longest echo of bad input a message carries: past it, a message
# shows the head and the length, so one huge cell cannot flood stderr.
_ECHO_LIMIT = 100


def _echo(value) -> str:
    """``repr(value)`` for an error message, cut to its first
    ``_ECHO_LIMIT`` characters plus ``… (N characters)`` when longer;
    an int past the int/str digit limit is written out in full first."""
    try:
        text = _int_text(value) if isinstance(value, int) else repr(value)
    except ValueError:  # repr of a container that holds such an int
        return f"a {type(value).__name__} holding an int past the int/str digit limit"
    if len(text) <= _ECHO_LIMIT:
        return text
    return f"{text[:_ECHO_LIMIT]}… ({len(text)} characters)"


class ExactDivisionError(ArithmeticError):
    """A division that was promised to be exact is not.

    Raised on a nonzero remainder under the integer kind and on an
    integer zero divisor.  Inside a determinant run this signals a broken
    divisibility invariant, not bad user input.
    """


class OpCounts:
    """Running tally of scalar operations performed by a computation."""

    # A slotted class, not a dataclass (whose import pulls in inspect,
    # ast and dis): the hot loops bump these counters, and a slot update
    # is cheaper than an instance-dict one.
    __slots__ = ("multiplications", "subtractions", "divisions")

    def __init__(self, multiplications: int = 0, subtractions: int = 0, divisions: int = 0):
        self.multiplications = multiplications
        self.subtractions = subtractions
        self.divisions = divisions

    def _counts(self) -> Tuple[int, int, int]:
        return (self.multiplications, self.subtractions, self.divisions)

    def __eq__(self, other):
        if not isinstance(other, OpCounts):
            return NotImplemented
        return self._counts() == other._counts()

    def __repr__(self) -> str:
        return (
            f"OpCounts(multiplications={self.multiplications}, "
            f"subtractions={self.subtractions}, divisions={self.divisions})"
        )


_INT_RE = re.compile(r"[+-]?\d+\Z")
_FRACTION_RE = re.compile(r"([+-]?\d+)\s*/\s*([+-]?\d+)\Z")
_DECIMAL_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")
_SQRT_RE = re.compile(r"(-?)sqrt\((.+)\)\Z")

# Largest written exponent rational decimal text may carry.  10**100000
# is about 41 KB; an unchecked "1e1000000000" would make Fraction build
# 10**1000000000.  The fraction digits need no cap: 10**len(frac) is no
# larger than the digits already read.
MAX_DECIMAL_SHIFT = 100_000

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


# Divisors longer than this divide by recursion (``_divmod_recursive``),
# and the recursion hands quotients no longer than this to the builtin.
# Below it CPython's quadratic long division is as fast or faster: on a
# 2-CPU x86-64 host under CPython 3.11, with a quotient as long as the
# divisor, the recursion cost 1.01-1.15x the builtin at 4,000-6,000
# divisor bits and 0.75-0.83x at 7,000-10,000.
_RECURSIVE_DIV_BITS = 6000


def _divmod_for(b: int) -> Callable[[int, int], Tuple[int, int]]:
    """The ``divmod`` for divisor ``b``: ``_divmod_recursive`` past
    ``_RECURSIVE_DIV_BITS`` bits, the builtin up to there."""
    return _divmod_recursive if b.bit_length() > _RECURSIVE_DIV_BITS else divmod


def _divmod_recursive(a: int, b: int) -> Tuple[int, int]:
    """``divmod(a, b)`` for ``b != 0`` by Burnikel and Ziegler's
    recursive division ("Fast Recursive Division", MPI-I-98-1-022,
    1998): each level costs a few products, which are subquadratic
    (Karatsuba) where CPython's long division is quadratic.  The
    dividend is split into digits of the divisor's bit length and
    divided digit by digit, as in schoolbook long division.
    """
    if b < 0:
        q, r = _divmod_recursive(-a, -b)
        return q, -r
    if a < 0:  # floor semantics: -a - 1 = q*b + r gives a = ~q*b + (b + ~r)
        q, r = _divmod_recursive(~a, b)
        return ~q, b + ~r
    n = b.bit_length()
    mask = (1 << n) - 1
    q = r = 0
    for shift in range(a.bit_length() // n * n, -1, -n):
        digit, r = _div2n1n((r << n) | ((a >> shift) & mask), b, n)
        q = (q << n) | digit
    return q, r


def _div2n1n(a: int, b: int, n: int) -> Tuple[int, int]:
    """``divmod(a, b)`` for ``b`` of exactly n bits and ``0 <= a < b << n``."""
    if a.bit_length() - n <= _RECURSIVE_DIV_BITS:
        return divmod(a, b)
    pad = n & 1  # an even n splits b into two halves of h bits
    a, b, n = a << pad, b << pad, n + pad
    h = n >> 1
    mask = (1 << h) - 1
    b1, b2 = b >> h, b & mask
    q, r = 0, a >> n
    for low in ((a >> h) & mask, a & mask):
        # Divide (r << h | low) by b: estimate the h-bit quotient digit
        # from the top halves, then correct it (it is at most 2 too big).
        if r >> h == b1:
            digit, r = mask, r - (b1 << h) + b1
        else:
            digit, r = _div2n1n(r, b1, h)
        r = ((r << h) | low) - digit * b2
        while r < 0:
            digit -= 1
            r += b
        q = (q << h) | digit
    return q, r >> pad


class ScalarKind:
    """One scalar domain: parsing, formatting and the entry check."""

    name: str = "abstract"
    zero: Scalar
    one: Scalar

    def parse(self, text: str) -> Scalar:
        raise NotImplementedError

    def format(self, value: Scalar) -> str:
        raise NotImplementedError

    def check(self, value) -> Scalar:
        """Validate (and canonicalize) one entry value for this kind."""
        raise NotImplementedError

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
                raise ScalarParseError(f"zero denominator in {_echo(text)}")
            return Fraction(num, den)
        if _INT_RE.match(t):
            return Fraction(_text_int(t))
        if _DECIMAL_RE.match(t):
            # Decimal text converts exactly (0.5 -> 1/2), never via float,
            # with the digits read by _text_int at any length.
            mantissa, _, exp = t.lower().partition("e")
            whole, _, frac = mantissa.partition(".")
            try:
                power = int(exp or 0)
            except ValueError:  # past the int/str limit: 10**exp could never be built
                power = math.inf
            if abs(power) > MAX_DECIMAL_SHIFT:
                raise ScalarParseError(f"exponent out of range: {_echo(text)}")
            value = Fraction(_text_int(whole + frac))
            shift = power - len(frac)
            return value * 10**shift if shift >= 0 else value / 10**-shift
        raise ScalarParseError(f"not a rational scalar: {_echo(text)}")

    def format(self, value: Fraction) -> str:
        if value.denominator == 1:
            return _int_text(value.numerator)
        return f"{_int_text(value.numerator)}/{_int_text(value.denominator)}"

    def check(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"rational entries must be Fraction or int, got {value!r}")

    def integer_row(self, row: Sequence[Union[Fraction, float]]) -> Tuple[List[int], int]:
        """A rational or float row as an integer row over one
        denominator: ``(nums, scale)`` with ``row[j] == Fraction(nums[j],
        scale)``, ``scale`` being the lcm of the row's denominators.

        Exact work on a rational matrix runs on these plain ints.
        Scaling row i by scale_i scales every minor that uses row i by
        scale_i, so a 2x2 determinant of rows i and k comes out scaled
        by scale_i * scale_k and a full determinant by the product of
        all the scales.  One ``Fraction`` per result then replaces a
        gcd normalisation per product, difference and division.

        Each value is read by ``as_integer_ratio()``, which ``Fraction``,
        ``int`` and ``float`` all have.  A finite double is m * 2**e, so
        a float row's denominators are powers of two and its scale is
        the largest of them: every float determinant runs on these
        rows.
        """
        pairs = [v.as_integer_ratio() for v in row]
        scale = math.lcm(*[d for _, d in pairs])
        return [n * (scale // d) for n, d in pairs], scale


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
            raise ScalarParseError(f"not an integer scalar (fractional text): {_echo(text)}")
        raise ScalarParseError(f"not an integer scalar: {_echo(text)}")

    def format(self, value: int) -> str:
        return _int_text(value)

    def exact_div(self, a: int, b: int) -> int:
        if b == 0:
            raise ExactDivisionError("integer division by zero")
        q, r = _divmod_for(b)(a, b)
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


def _parse_plain_float(text: str) -> float:
    # A float fraction or decimal, within the double range.
    t = text.strip()
    m = _FRACTION_RE.match(t)
    if m:
        num, den = _text_int(m.group(1)), _text_int(m.group(2))
        if den == 0:
            raise ScalarParseError(f"zero denominator in {_echo(text)}")
        try:
            value = num / den
        except OverflowError:
            value = math.inf
    elif _DECIMAL_RE.match(t):
        value = float(t)
    else:
        raise ScalarParseError(f"not a float scalar: {_echo(text)}")
    # float() turns out-of-range text such as "1e400" into inf.
    if not math.isfinite(value):
        raise ScalarParseError(f"float out of range: {_echo(text)}")
    return value


class FloatKind(ScalarKind):
    """IEEE doubles.  Comparisons stay exact; determinants run on integer rows."""

    name = "float"
    zero = 0.0
    one = 1.0

    def parse(self, text: str) -> float:
        m = _SQRT_RE.match(text.strip())
        if not m:
            return _parse_plain_float(text)
        # A small convenience for irrational fixture entries, e.g.
        # "sqrt(3)" or "-sqrt(2)": one level, with a plain fraction or
        # decimal inside, so a nested form is refused in linear time.
        inner = _parse_plain_float(m.group(2))
        if inner < 0:
            raise ScalarParseError(f"square root of a negative value: {_echo(text)}")
        root = math.sqrt(inner)
        return -root if m.group(1) else root

    def format(self, value: float) -> str:
        # repr of a float is the shortest text that round-trips exactly.
        return repr(value)

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


def _as_kind(kind: ScalarKind, numerator: int, denominator: int) -> Scalar:
    """numerator / denominator (> 0) in ``kind``: an int by ``exact_div``, a
    ``Fraction``, or the nearest double (CPython's int / int rounds once,
    underflow included; ``OverflowError`` naming the double range past it)."""
    if kind is INTEGER:
        return INTEGER.exact_div(numerator, denominator)
    if kind is RATIONAL:
        return Fraction(numerator, denominator)
    try:
        return numerator / denominator
    except OverflowError:
        magnitude = round(math.log10(abs(numerator)) - math.log10(denominator))
        raise OverflowError(
            f"the float determinant has magnitude near 1e{magnitude}, past the double range (up to 1.8e308)"
        ) from None


def _max_bits(rows: Sequence[Sequence[int]]) -> int:
    """The largest bit length of any entry of the nonempty integer
    ``rows`` (0 for no rows): one ``max`` and one ``min`` a row, then
    one ``bit_length``."""
    return max(max(map(max, rows), default=0), -min(map(min, rows), default=0)).bit_length()


def bit_length(value: int) -> int:
    """Bit length of ``abs(value)``; 0 has bit length 0."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"bit_length is defined for int, got {value!r}")
    return abs(value).bit_length()
