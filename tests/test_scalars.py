"""Scalar kind parsing, formatting, exact division and algebra."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condet import (
    FLOAT,
    INTEGER,
    KINDS,
    RATIONAL,
    ExactDivisionError,
    OpCounts,
    ScalarParseError,
    bit_length,
)
from condet.scalars import _max_bits


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


@pytest.mark.parametrize("kind, prefix", [(RATIONAL, "not a rational"), (INTEGER, "not an integer"), (FLOAT, "not a float")])
def test_parse_errors_echo_long_text_cut_to_its_head(kind, prefix):
    # Text whose repr fits in 100 characters is echoed whole; longer text
    # shows the first 100 characters of its repr and the repr's length.
    short = "x" * 98
    with pytest.raises(ScalarParseError, match=f"^{prefix} scalar: '{short}'$"):
        kind.parse(short)
    with pytest.raises(ScalarParseError) as info:
        kind.parse("x" * 10**6)
    assert str(info.value) == f"{prefix} scalar: '{'x' * 99}… (1000002 characters)"


def test_echo_of_a_container_past_the_digit_limit_is_short():
    # repr raises on a container holding an int past the int/str digit
    # limit; the echo says what it is instead.
    from condet.scalars import _echo

    assert _echo(10**5000) == f"1{'0' * 99}… (5001 characters)"
    assert _echo([1, 10**5000]) == "a list holding an int past the int/str digit limit"
    assert _echo({"k": (10**5000,)}) == "a dict holding an int past the int/str digit limit"
    assert _echo([1, -2]) == "[1, -2]"


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
    # one level only: the inside is a plain fraction or decimal
    with pytest.raises(ScalarParseError, match=r"^not a float scalar: 'sqrt\(16\)'$"):
        FLOAT.parse("sqrt(sqrt(16))")
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


def test_rational_decimal_shift_is_capped(monkeypatch):
    import condet.scalars as scalars_module

    limit = scalars_module.MAX_DECIMAL_SHIFT
    assert RATIONAL.parse(f"1e{limit}") == 10**limit
    assert RATIONAL.parse(f"1e-{limit}") == Fraction(1, 10**limit)
    assert RATIONAL.parse(f"1.5e-{limit}") == Fraction(15, 10 ** (limit + 1))
    for text in (f"1e{limit + 1}", f"0.5e{limit + 1}", f"1e-{limit + 1}"):
        with pytest.raises(ScalarParseError, match="exponent out of range"):
            RATIONAL.parse(text)
    # Only the written exponent is capped: more fraction digits than the
    # cap, with no exponent, still convert exactly.
    assert RATIONAL.parse("0." + "0" * limit + "1") == Fraction(1, 10 ** (limit + 1))
    assert RATIONAL.parse("2." + "0" * limit + "e-5") == Fraction(2, 10**5)

    # Huge exponents are refused before the digits are even read, so no
    # power of ten is built (an uncapped 10**1000000000 would take
    # minutes and about 400 MB; with _text_int failing, this test fails
    # fast instead).
    def no_digits(text):
        raise AssertionError(f"digits of {text!r} were read")

    monkeypatch.setattr(scalars_module, "_text_int", no_digits)
    for text in ("1e1000000000", "1e-1000000000", "-2.5E+999999999"):
        with pytest.raises(ScalarParseError, match="exponent out of range"):
            RATIONAL.parse(text)


def test_float_fraction_text_past_int_str_limit():
    big = "1" + "0" * 5000
    assert FLOAT.parse(f"{big}/{big[:-1]}") == 10.0
    assert FLOAT.parse(f"-{big[:-1]}/{big}") == -0.1
    with pytest.raises(ScalarParseError, match="float out of range"):
        FLOAT.parse(f"{big}/3")


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


def test_float_identities():
    rng = random.Random(79)
    for _ in range(200):
        x = rng.uniform(-1e9, 1e9)
        assert x + 0.0 == x
        assert x * 1.0 == x


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


ROW_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-(2**70), 2**70),
    # past the int/str digit limit (4300 digits by default)
    st.builds(lambda sign, low: sign * (10**5000 + low), st.sampled_from((-1, 1)), st.integers(0, 2**64)),
)


@st.composite
def int_rows(draw):
    # One to five rows of one width, some of them all zero, some all negative.
    cols = draw(st.integers(1, 6))
    row = st.one_of(
        st.lists(ROW_ENTRIES, min_size=cols, max_size=cols),
        st.lists(ROW_ENTRIES.map(lambda v: -abs(v) or -1), min_size=cols, max_size=cols),
        st.just([0] * cols),
    )
    return draw(st.lists(row, min_size=1, max_size=5))


@settings(max_examples=300, deadline=None)
@given(int_rows())
def test_max_bits_is_the_largest_entry_bit_length(rows):
    assert _max_bits(rows) == max(bit_length(v) for row in rows for v in row)


def test_max_bits_cases():
    huge = -(10**5000)
    assert huge.bit_length() == 16610
    assert _max_bits([(huge, 1)]) == 16610
    assert _max_bits([(-8, -1), (7, 0)]) == 4  # |-8| has 4 bits, 7 has 3
    assert _max_bits([(-7, -1)]) == 3
    assert _max_bits([(0, 0), (0, 0)]) == 0
    assert _max_bits([]) == 0


def test_kind_registry():
    assert set(KINDS) == {"rational", "integer", "float"}
    assert KINDS["rational"] is RATIONAL


def test_op_counts_compare_and_print_by_value():
    ops = OpCounts()
    ops.multiplications += 2
    ops.subtractions += 1
    assert ops == OpCounts(multiplications=2, subtractions=1, divisions=0)
    assert ops == OpCounts(2, 1)
    assert ops != OpCounts(2, 1, 1)
    assert ops != (2, 1, 0)
    assert repr(ops) == "OpCounts(multiplications=2, subtractions=1, divisions=0)"
    with pytest.raises(AttributeError):
        ops.additions = 1  # slotted: a misspelt counter is an error
