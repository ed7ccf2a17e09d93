"""Exact integer division past the recursion cutoff, and the divide-back
that uses it: ``IntegerKind.exact_div`` sends divisors longer than
``scalars._RECURSIVE_DIV_BITS`` through Burnikel-Ziegler recursive
division, which must agree with the builtin ``divmod`` everywhere."""

import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condet.condense as condense_module
import condet.scalars as scalars_module
from condet import (
    INTEGER,
    RATIONAL,
    ExactDivisionError,
    Matrix,
    PivotStrategy,
    SplitMix64,
    det_bareiss,
    det_condensation,
    random_integer_matrix,
)
from condet.cli import EXIT_INTERNAL_ERROR, main

CUT = scalars_module._RECURSIVE_DIV_BITS
divmod_recursive = scalars_module._divmod_recursive

DIVISOR_BITS = st.sampled_from([CUT - 1, CUT, CUT + 1, 2 * CUT + 1, 10 * CUT])
# Divisor shapes: random, many trailing zero bits, all ones, and a top
# bit over a run of zeros above an all-ones low half (the quotient
# estimate from the top halves is then as far off as it gets).
DIVISOR_SHAPES = st.sampled_from(["random", "trailing-zeros", "all-ones", "sparse-top"])
SIGNS = st.sampled_from([1, -1])


@st.composite
def divisors(draw):
    bits = draw(DIVISOR_BITS)
    shape = draw(DIVISOR_SHAPES)
    rng = draw(st.randoms(use_true_random=False))
    if shape == "all-ones":
        b = (1 << bits) - 1
    elif shape == "sparse-top":
        b = (1 << (bits - 1)) | ((1 << (bits // 2)) - 1)
    else:
        b = rng.getrandbits(bits) | (1 << (bits - 1))
        if shape == "trailing-zeros":
            zeros = draw(st.integers(1, bits - 1))
            b = (b >> zeros | 1) << zeros
    return b * draw(SIGNS)


@st.composite
def quotients(draw, divisor_bits):
    # shorter than, as long as and longer than the divisor
    bits = draw(st.sampled_from([1, 64, divisor_bits // 2, divisor_bits, divisor_bits + 1, 3 * divisor_bits]))
    rng = draw(st.randoms(use_true_random=False))
    return (rng.getrandbits(bits) | (1 << (bits - 1))) * draw(SIGNS)


@st.composite
def division_cases(draw):
    b = draw(divisors())
    q = draw(quotients(abs(b).bit_length()))
    # remainder 0, 1, |b| - 1 or random, with the sign of b (floor division)
    rng = draw(st.randoms(use_true_random=False))
    size = abs(b)
    r = draw(st.sampled_from([0, 1, size - 1, rng.randrange(size)]))
    return q * b + (r if b > 0 else -r), b


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@PROPERTY_SETTINGS
@given(division_cases())
def test_recursive_divmod_matches_builtin(case):
    a, b = case
    assert divmod_recursive(a, b) == divmod(a, b)


@PROPERTY_SETTINGS
@given(divisors(), st.data())
def test_exact_div_returns_quotient_or_names_bit_lengths(b, data):
    q = data.draw(quotients(abs(b).bit_length()))
    assert INTEGER.exact_div(q * b, b) == q
    rng = data.draw(st.randoms(use_true_random=False))
    a = q * b + rng.randrange(1, abs(b))
    text = f"non-exact integer division: {a.bit_length()}-bit dividend by {b.bit_length()}-bit divisor"
    with pytest.raises(ExactDivisionError) as exc_info:
        INTEGER.exact_div(a, b)
    assert str(exc_info.value) == text


def test_recursive_divmod_edge_cases():
    b = (1 << (CUT + 1)) - 1
    for a in (0, 1, b - 1, b, b + 1, b * b, b * b - 1, b << (5 * CUT), (b << (5 * CUT)) - 1):
        for sa in (1, -1):
            for sb in (1, -1):
                assert divmod_recursive(sa * a, sb * b) == divmod(sa * a, sb * b)
    # A sparse-top divisor with a random quotient needs the quotient
    # digit corrected twice.
    for bits in (CUT + 2, 10 * CUT):
        b = (1 << (bits - 1)) | ((1 << (bits // 2)) - 1)
        q = random.Random(1).getrandbits(bits) | 1 << (bits - 1)
        for r in (0, b - 1):
            assert divmod_recursive(q * b + r, b) == (q, r)


def test_only_divisors_past_the_cutoff_take_the_recursive_path(monkeypatch):
    calls = []

    def spy(a, b):
        calls.append(b.bit_length())
        return divmod(a, b)

    monkeypatch.setattr(scalars_module, "_divmod_recursive", spy)
    for bits in (1, CUT - 1, CUT):
        b = -((1 << bits) - 1)
        assert INTEGER.exact_div(3 * b, b) == 3
    assert calls == []
    for bits in (CUT + 1, 10 * CUT):
        b = -((1 << bits) - 1)
        assert INTEGER.exact_div(3 * b, b) == 3
    assert calls == [CUT + 1, 10 * CUT]


def test_recursion_splits_long_divisions(monkeypatch):
    # a 10x-cutoff division recurses down to quotients within the cutoff
    calls = []
    inner = scalars_module._div2n1n

    def spy(a, b, n):
        calls.append(n)
        return inner(a, b, n)

    monkeypatch.setattr(scalars_module, "_div2n1n", spy)
    b = random.Random(10).getrandbits(10 * CUT) | 1 << (10 * CUT - 1)
    assert divmod_recursive(b * b + 5, b) == (b, 5)
    assert len(calls) > 8 and min(calls) <= CUT < max(calls)


@pytest.mark.parametrize("strategy", list(PivotStrategy))
def test_condensation_past_the_cutoff_matches_bareiss_and_closed_form_counts(strategy, monkeypatch):
    # The acceptance corpus stops at n = 10, far below the cutoff; from
    # n = 16 the divide-back divisors of a traced run are past it.
    recursive_calls = []
    inner = scalars_module._divmod_recursive

    def spy(a, b):
        recursive_calls.append(b.bit_length())
        return inner(a, b)

    monkeypatch.setattr(scalars_module, "_divmod_recursive", spy)
    master = SplitMix64(1518)
    for n in range(15, 19):
        m = random_integer_matrix(n, 9, master.split())
        result = det_condensation(m, strategy, record_trace=True)
        assert result.value == det_bareiss(m)
        block_mults = sum(2 * (s - 1) ** 2 for s in range(3, n + 1)) + 2
        power_mults = sum(s - 3 for s in range(3, n + 1))
        assert result.op_counts.multiplications == block_mults + power_mults
        assert result.op_counts.subtractions == sum((s - 1) ** 2 for s in range(3, n + 1)) + 1
        assert result.op_counts.divisions == n - 2
    assert recursive_calls and max(recursive_calls) > 10 * CUT


# --- divide-back errors carry their level ------------------------------------

# Seed 3 reaches a pivot at column 2 on its first level.
FAULT_MATRIX = random_integer_matrix(6, 9, SplitMix64(3))


def _off_by_one_at(monkeypatch, size, division=0):
    """Make the condensation of the size-``size`` level of
    ``FAULT_MATRIX`` come out one off; returns the list the faulty rows
    land in, as an integer matrix (``det_condensation`` condenses
    integer rows for the integer and the rational kind alike).

    An undivided level, which a traced run condenses, gets entry (1, 1)
    of its condensed matrix plus 1.  A divided pass divides each
    numerator as it computes it, and calls ``_divmod_for`` once, when it
    starts: call i (0-based) is the pass on level 2i.  So there
    numerator number ``division`` (0-based, in the order the pass
    divides them) of the pass on the size-``size`` level is made one too
    large before it is divided, and the list stays empty.  The first
    pass divides by 1, which cannot fail, so a numerator corrupted there
    surfaces in a later pass."""
    inner = condense_module._condense_rows
    divmod_for = condense_module._divmod_for
    faulty = []
    passes = itertools.count()
    faulty_pass = (FAULT_MATRIX.rows - size) // 2

    def condense_rows(src, k, l):
        if len(src) != size or faulty:
            return inner(src, k, l)
        rows = [list(row) for row in inner(src, k, l)]
        rows[0][0] += 1
        faulty.append(Matrix(rows, INTEGER))
        return [tuple(row) for row in rows]

    def off_by_one_divmod_for(b):
        divide = divmod_for(b)
        if next(passes) != faulty_pass:
            return divide
        countdown = [division]  # divisions left before the faulty one

        def bumped(a, b):
            countdown[0] -= 1
            return divide(a + (countdown[0] == -1), b)

        return bumped

    monkeypatch.setattr(condense_module, "_condense_rows", condense_rows)
    monkeypatch.setattr(condense_module, "_divmod_for", off_by_one_divmod_for)
    return faulty


def _check_divide_back_error(monkeypatch, size, kind):
    m = Matrix(FAULT_MATRIX.to_rows(), kind)
    clean = det_condensation(m)
    step = next(s for s in clean.trace if s.condensed.rows == size - 1)
    # The divisor is the pivot of the level's integer rows: for a
    # rational matrix, integer_row of the level's first row.
    level = m if size == m.rows else next(s.condensed for s in clean.trace if s.condensed.rows == size)
    first_row = RATIONAL.integer_row(level.row(1))[0] if kind is RATIONAL else level.row(1)
    divisor = first_row[step.pivot.l - 1] ** (size - 2)
    faulty = _off_by_one_at(monkeypatch, size)
    with pytest.raises(ExactDivisionError) as exc_info:
        det_condensation(m)
    # Deeper levels condense the faulty rows consistently, so this
    # level's division is the first that cannot be exact.
    dividend = det_bareiss(faulty[0])
    assert dividend % divisor != 0
    assert str(exc_info.value) == (
        f"divide-back of the size-{size} level, pivot (1, {step.pivot.l}): "
        f"non-exact integer division: {dividend.bit_length()}-bit dividend"
        f" by {divisor.bit_length()}-bit divisor"
    )


@pytest.mark.parametrize("size", [6, 4, 3])
def test_divide_back_error_names_level_pivot_and_bit_lengths(monkeypatch, size):
    _check_divide_back_error(monkeypatch, size, INTEGER)


@pytest.mark.parametrize("size", [6, 4, 3])
def test_rational_divide_back_error_names_level_pivot_and_bit_lengths(monkeypatch, size):
    # Rationals divide back in integers too, with the same located message.
    _check_divide_back_error(monkeypatch, size, RATIONAL)


def _check_fault_exit(tmp_path, capsys, monkeypatch, argv, message, size=6):
    path = tmp_path / "m.txt"
    path.write_text("\n".join(" ".join(map(str, row)) for row in FAULT_MATRIX.to_rows()) + "\n")
    _off_by_one_at(monkeypatch, size)
    assert main(["det", str(path), *argv]) == EXIT_INTERNAL_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"internal error: {message}")
    return err


def _check_divide_back_exit(tmp_path, capsys, monkeypatch, scalar):
    # Only a traced det condenses undivided and divides back.
    trace = tmp_path / "trace.json"
    argv = ["--scalar", scalar, "--trace", str(trace)]
    _check_fault_exit(tmp_path, capsys, monkeypatch, argv, "divide-back of the size-6 level, pivot (1, 2): non-exact")
    assert not trace.exists()


def test_divide_back_error_exits_3_with_nothing_on_stdout(tmp_path, capsys, monkeypatch):
    _check_divide_back_exit(tmp_path, capsys, monkeypatch, "integer")


def test_rational_divide_back_error_exits_3_with_nothing_on_stdout(tmp_path, capsys, monkeypatch):
    _check_divide_back_exit(tmp_path, capsys, monkeypatch, "rational")


# The first division of a run that can fail: row 1 of level 3, in the
# pass on level 2.  The rows of the fault matrix are integers, so its
# rational rows are the same, and both kinds fail with the same message.
FIRST_DIVISION = "divided level 3: a 16-bit entry is not a multiple of the 5-bit pivot (1, 1) of level 1"


@pytest.mark.parametrize("scalar", ["integer", "rational"])
def test_divided_level_error_exits_3_with_nothing_on_stdout(tmp_path, capsys, monkeypatch, scalar):
    # An untraced det runs divided condensation, whose second pass, on
    # the size-4 level 2, is the first to divide by more than 1.
    err = _check_fault_exit(tmp_path, capsys, monkeypatch, ["--scalar", scalar], FIRST_DIVISION, size=4)
    assert err == f"internal error: {FIRST_DIVISION}\n"


# --- divided condensation divides each entry exactly -------------------------

# Passes run on the levels of size 6 (level 0, which divides by 1), 4
# (level 2) and 2 (level 4).  The pass on level 2 divides by the pivot
# of level 1, in this order: row 1 of level 3 (divisions 0-2), then per
# later row its two coefficients (3 and 4, 7 and 8) and its entries of
# level 4 (5 and 6, 9 and 10).  The pass on level 4 divides its one 2x2
# minor by the pivot of level 3.  Magnitude pivots go (6, 5), (3, 1),
# (1), so their first divisor sits past column 1.
#
# The pass on level 0 divides row 1 of level 1 (divisions 0-4), then per
# later row two coefficients and four entries of level 2 (5 and 6, then
# 7-10; 11 and 12, then 13-16; and so on).  Its division by 1 is always
# exact, so a corrupted numerator is caught by the pass on level 2, at
# level 3 or 4.  A row-1 entry other than the pivot (divisions 1-4 under
# first-nonzero, 0-3 under max-magnitude) feeds no later level, so
# corrupting it changes nothing.
FIRST, MAX = PivotStrategy.FIRST_NONZERO, PivotStrategy.MAX_MAGNITUDE
DIVIDED_FAULTS = [
    (FIRST, 6, 5, "divided level 3: a 18-bit entry is not a multiple of the 5-bit pivot (1, 1) of level 1"),
    (FIRST, 6, 10, "divided level 3: a 16-bit entry is not a multiple of the 5-bit pivot (1, 1) of level 1"),
    (FIRST, 6, 17, "divided level 4: a 22-bit entry is not a multiple of the 5-bit pivot (1, 1) of level 1"),
    (MAX, 6, 5, "divided level 3: a 21-bit entry is not a multiple of the 7-bit pivot (1, 5) of level 1"),
    (MAX, 6, 20, "divided level 4: a 25-bit entry is not a multiple of the 7-bit pivot (1, 5) of level 1"),
    (FIRST, 4, 0, FIRST_DIVISION),
    (FIRST, 4, 3, "divided level 3: a 17-bit entry is not a multiple of the 5-bit pivot (1, 1) of level 1"),
    # the coefficient b of the first later row: its numerator belongs to level 3 too
    (FIRST, 4, 4, "divided level 3: a 17-bit entry is not a multiple of the 5-bit pivot (1, 1) of level 1"),
    (FIRST, 4, 10, "divided level 4: a 17-bit entry is not a multiple of the 5-bit pivot (1, 1) of level 1"),
    (FIRST, 2, 0, "divided level 5: a 29-bit entry is not a multiple of the 11-bit pivot (1, 1) of level 3"),
    (MAX, 4, 0, "divided level 3: a 21-bit entry is not a multiple of the 7-bit pivot (1, 5) of level 1"),
    (MAX, 4, 10, "divided level 4: a 23-bit entry is not a multiple of the 7-bit pivot (1, 5) of level 1"),
    (MAX, 2, 0, "divided level 5: a 32-bit entry is not a multiple of the 14-bit pivot (1, 1) of level 3"),
]


@pytest.mark.parametrize("kind", [INTEGER, RATIONAL], ids=lambda k: k.name)
@pytest.mark.parametrize(
    "strategy, size, division, message",
    [pytest.param(*case, id=f"{case[0].value}-{case[1]}-{case[2]}") for case in DIVIDED_FAULTS],
)
def test_divided_level_error_names_level_and_pivot(monkeypatch, kind, strategy, size, division, message):
    m = Matrix(FAULT_MATRIX.to_rows(), kind)
    _off_by_one_at(monkeypatch, size, division)
    with pytest.raises(ExactDivisionError) as exc_info:
        det_condensation(m, strategy, record_trace=False)
    assert str(exc_info.value) == message


@pytest.mark.parametrize("n", [4, 5])
def test_divided_condensation_divides_recursively_past_the_cutoff(monkeypatch, n):
    # Entries near 2**7000: every pass after the first (which divides by
    # 1, through the builtin) divides by the row-1 pivot of the level
    # before its source, a 2x2 minor of A or more, past
    # _RECURSIVE_DIV_BITS.  A pass on a size-s level divides s - 1
    # entries of row 1 of the level below, two coefficients per later
    # row and (s - 2)**2 entries: s**2 - s - 1 numerators, each through
    # the recursive division, called from the pass itself.
    rng = random.Random(7000 + n)
    m = Matrix([[rng.choice((-1, 1)) * rng.randrange(2**6999, 2**7000) for _ in range(n)] for _ in range(n)], INTEGER)
    divisors = []
    inner = scalars_module._divmod_recursive
    loop = condense_module._divided_levels.__code__

    def spy(a, b):
        if sys._getframe(1).f_code is loop:  # not the recursion's own calls
            divisors.append(b.bit_length())
        return inner(a, b)

    monkeypatch.setattr(scalars_module, "_divmod_recursive", spy)
    value = det_condensation(m, record_trace=False).value
    assert len(divisors) == sum(s * s - s - 1 for s in range(n - 2, 1, -2)) == {4: 1, 5: 5}[n]
    assert min(divisors) > CUT
    monkeypatch.undo()
    assert value == det_bareiss(m)
