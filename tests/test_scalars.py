"""Scalar kind parsing, formatting, exact division and algebra."""

import math
import random
import sys
from fractions import Fraction

import pytest

from condet import (
    FLOAT,
    INTEGER,
    KINDS,
    RATIONAL,
    ExactDivisionError,
    ScalarParseError,
    bit_length,
)


def test_rational_parse_canonicalizes():
    assert RATIONAL.parse("3/6") == Fraction(1, 2)
    assert RATIONAL.parse("-4/8") == Fraction(-1, 2)
    assert RATIONAL.parse("7") == Fraction(7)
    assert RATIONAL.parse(" -12 ") == Fraction(-12)
    assert RATIONAL.parse("0.5") == Fraction(1, 2)
    assert RATIONAL.parse("2.5e1") == Fraction(25)


def test_rational_parse_rejects_garbage():
    for bad in ("", "x", "1/2/3", "3//4", "1 2", "--3"):
        with pytest.raises(ScalarParseError):
            RATIONAL.parse(bad)


def test_rational_zero_denominator():
    with pytest.raises(ScalarParseError):
        RATIONAL.parse("3/0")


def test_integer_parse():
    assert INTEGER.parse("-7") == -7
    assert INTEGER.parse("0") == 0
    with pytest.raises(ScalarParseError):
        INTEGER.parse("1/2")
    with pytest.raises(ScalarParseError):
        INTEGER.parse("1.5")
    with pytest.raises(ScalarParseError):
        INTEGER.parse("seven")


def test_float_parse():
    assert FLOAT.parse("0.5") == 0.5
    assert FLOAT.parse("-3") == -3.0
    assert FLOAT.parse("1e-3") == 1e-3
    assert FLOAT.parse("1/2") == 0.5
    assert FLOAT.parse("sqrt(3)") == math.sqrt(3)
    assert FLOAT.parse("-sqrt(2)") == -math.sqrt(2)
    assert FLOAT.parse("sqrt(1/4)") == 0.5
    with pytest.raises(ScalarParseError):
        FLOAT.parse("sqrt(-1)")
    with pytest.raises(ScalarParseError):
        FLOAT.parse("sqrt()")
    with pytest.raises(ScalarParseError):
        FLOAT.parse("1/0")
    # text that would parse to a non-finite float is rejected, not inf
    for bad in ("1e400", "-1e400", "sqrt(1e400)", "1" + "0" * 400 + "/3"):
        with pytest.raises(ScalarParseError, match="out of range"):
            FLOAT.parse(bad)


def test_round_trips():
    rng = random.Random(1001)
    for _ in range(200):
        q = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert RATIONAL.parse(RATIONAL.format(q)) == q
        k = rng.randint(-10**9, 10**9)
        assert INTEGER.parse(INTEGER.format(k)) == k
        x = rng.uniform(-1e6, 1e6)
        # float formatting must round-trip bit-exactly
        assert FLOAT.parse(FLOAT.format(x)) == x


def test_rational_format_is_canonical():
    assert RATIONAL.format(Fraction(4, 2)) == "2"
    assert RATIONAL.format(Fraction(-3, 9)) == "-1/3"


def test_exact_div_integer():
    assert INTEGER.exact_div(84, -7) == -12
    with pytest.raises(ExactDivisionError):
        INTEGER.exact_div(7, 2)
    with pytest.raises(ExactDivisionError):
        INTEGER.exact_div(7, 0)


def test_exact_div_error_names_bit_lengths_of_long_operands():
    # formatting 5000-digit operands in full would itself raise
    # ValueError (past the int/str conversion limit)
    a = 7 * 10**4999 + 1
    b = 3 * 10**4999
    with pytest.raises(ExactDivisionError, match=f"{a.bit_length()}-bit dividend by {b.bit_length()}-bit divisor"):
        INTEGER.exact_div(a, b)


@pytest.mark.parametrize("digits", [1, 599, 600, 601, 4300, 4301, 12_345])
def test_exact_kinds_format_and_parse_past_int_str_limit(digits):
    limit = sys.get_int_max_str_digits()
    rng = random.Random(digits)
    value = -(10 ** (digits - 1) + rng.randrange(10 ** (digits - 1)))
    den = 10 ** (digits - 1) + 1
    try:
        sys.set_int_max_str_digits(0)
        want_int, want_den = str(value), str(den)
    finally:
        sys.set_int_max_str_digits(limit)
    assert INTEGER.format(value) == want_int
    assert INTEGER.parse(want_int) == value
    assert INTEGER.parse("+" + want_int[1:]) == -value
    frac = Fraction(value, den)
    text = RATIONAL.format(frac)
    assert RATIONAL.parse(text) == frac
    if math.gcd(value, den) == 1:
        assert text == f"{want_int}/{want_den}"
    assert sys.get_int_max_str_digits() == limit


def test_rational_decimal_text_parses_exactly_at_any_length():
    rng = random.Random(108)
    for _ in range(500):
        whole = str(rng.randrange(10**6)) if rng.random() < 0.8 else ""
        frac = str(rng.randrange(10**6)).zfill(rng.randint(1, 7))
        exp = rng.choice(["", f"e{rng.randint(-12, 12)}", f"E+{rng.randint(0, 9)}"])
        text = rng.choice(["", "-", "+"]) + whole + "." + frac + exp
        assert RATIONAL.parse(text) == Fraction(text), text
    # 5,000 fraction digits: past the int/str limit that Fraction(text) hits
    assert RATIONAL.parse("-1." + "3" * 5000) == -(1 + Fraction(10**5000 - 1, 3 * 10**5000))
    assert RATIONAL.parse("2." + "0" * 5000 + "e5000") == 2 * 10**5000
    with pytest.raises(ScalarParseError, match="exponent out of range"):
        RATIONAL.parse("1e" + "9" * 5000)


def test_float_fraction_text_past_int_str_limit():
    big = "1" + "0" * 5000
    assert FLOAT.parse(f"{big}/{big[:-1]}") == 10.0
    assert FLOAT.parse(f"-{big[:-1]}/{big}") == -0.1
    with pytest.raises(ScalarParseError, match="float out of range"):
        FLOAT.parse(f"{big}/3")


def test_exact_div_rational_and_float():
    assert RATIONAL.exact_div(Fraction(1, 3), Fraction(2)) == Fraction(1, 6)
    assert FLOAT.exact_div(1.0, 4.0) == 0.25
    with pytest.raises(ExactDivisionError):
        RATIONAL.exact_div(Fraction(1), Fraction(0))
    with pytest.raises(ExactDivisionError):
        FLOAT.exact_div(1.0, 0.0)


def test_exact_arithmetic_laws_rational():
    # Exact kinds obey ring laws exactly, no epsilon anywhere.
    rng = random.Random(77)
    for _ in range(1000):
        a = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        b = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        c = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * (b * c) == (a * b) * c


def test_exact_div_inverts_multiplication():
    rng = random.Random(78)
    for _ in range(500):
        a = rng.randint(-999, 999)
        b = rng.randint(1, 99) * rng.choice((1, -1))
        assert INTEGER.exact_div(a * b, b) == a
        qa = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        qb = Fraction(rng.randint(1, 99), rng.randint(1, 99))
        assert RATIONAL.exact_div(qa * qb, qb) == qa


def test_float_identities():
    rng = random.Random(79)
    for _ in range(200):
        x = rng.uniform(-1e9, 1e9)
        assert x + 0.0 == x
        assert x * 1.0 == x


def test_is_zero_is_exact():
    assert RATIONAL.is_zero(Fraction(0))
    assert not RATIONAL.is_zero(Fraction(1, 10**9))
    assert FLOAT.is_zero(0.0)
    assert FLOAT.is_zero(-0.0)
    assert not FLOAT.is_zero(1e-300)


def test_check_validates_entry_types():
    assert RATIONAL.check(3) == Fraction(3)
    with pytest.raises(TypeError):
        RATIONAL.check(0.5)
    with pytest.raises(TypeError):
        INTEGER.check(Fraction(1, 2))
    assert FLOAT.check(2) == 2.0
    with pytest.raises(TypeError):
        FLOAT.check(Fraction(1, 2))


def test_bit_length():
    assert bit_length(0) == 0
    assert bit_length(1) == 1
    assert bit_length(-255) == 8
    assert bit_length(256) == 9
    with pytest.raises(TypeError):
        bit_length(1.5)


def test_kind_registry():
    assert set(KINDS) == {"rational", "integer", "float"}
    assert KINDS["rational"] is RATIONAL
