"""Rational condensation and Bareiss run on integer rows (each row
scaled by the lcm of its denominators); these properties check both
against plain ``Fraction`` references kept here.  ``det_condensation``
converts a rational matrix once and carries its integer rows across
levels, so its whole trace is checked level by level as well."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condet import (
    RATIONAL,
    Matrix,
    OpCounts,
    PivotSpec,
    PivotStrategy,
    SplitMix64,
    ZeroRowExit,
    condense_at,
    det_bareiss,
    det_condensation,
    random_rational_matrix,
)

# Zero-heavy, signed numerators; small and large (up to 10**6) denominators.
NUMERATORS = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**6, 10**6))
DENOMINATORS = st.one_of(st.integers(1, 9), st.integers(1, 10**6))
ENTRIES = st.builds(Fraction, NUMERATORS, DENOMINATORS)
SHAPES = ("plain", "duplicate-row", "rank-deficient", "zero-row", "zero-column")

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def rational_rows(draw, min_size=0, max_size=6):
    n = draw(st.integers(min_size, max_size))
    rows = [[draw(ENTRIES) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(SHAPES))
    if n >= 2 and shape != "plain":
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        if shape == "duplicate-row":
            rows[j] = list(rows[i])
        elif shape == "rank-deficient":
            # row j becomes a combination of rows i and p (p may be i)
            p = draw(st.integers(0, n - 1).filter(lambda x: x != j))
            a, b = draw(ENTRIES), draw(ENTRIES)
            rows[j] = [a * x + b * y for x, y in zip(rows[i], rows[p])]
        elif shape == "zero-row":
            rows[j] = [Fraction(0)] * n
        else:
            for row in rows:
                row[j] = Fraction(0)
    return rows


def reference_condense(rows, k, l):
    """Condensed entries at the 1-based pivot (k, l), one 2x2 Fraction
    determinant each: block rows and columns in source order."""
    n = len(rows)
    out = []
    for i in range(1, n):
        r = i if i < k else i + 1
        top, bottom = (r, k) if r < k else (k, r)
        line = []
        for j in range(1, n):
            c = j if j < l else j + 1
            left, right = (c, l) if c < l else (l, c)
            a = rows[top - 1]
            b = rows[bottom - 1]
            line.append(a[left - 1] * b[right - 1] - a[right - 1] * b[left - 1])
        out.append(line)
    return out


def reference_bareiss(rows):
    """Fraction-free elimination carried out on Fractions, with the
    scalar operations it performs."""
    n = len(rows)
    ops = OpCounts()
    if n == 0:
        return Fraction(1), ops
    grid = [list(row) for row in rows]
    sign, prev = 1, Fraction(1)
    for k in range(n - 1):
        nonzero = [r for r in range(k, n) if grid[r][k] != 0]
        if not nonzero:
            return Fraction(0), ops
        r = max(nonzero, key=lambda x: (abs(grid[x][k]), -x))
        if r != k:
            grid[k], grid[r] = grid[r], grid[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                grid[i][j] = (grid[i][j] * grid[k][k] - grid[i][k] * grid[k][j]) / prev
                ops.multiplications += 2
                ops.subtractions += 1
                ops.divisions += 1
        prev = grid[k][k]
    return sign * grid[n - 1][n - 1], ops


@PROPERTY_SETTINGS
@given(rational_rows(max_size=6))
def test_integer_row_is_the_row_over_its_lcm(rows):
    for row in rows:
        nums, scale = RATIONAL.integer_row(row)
        assert scale == math.lcm(*(v.denominator for v in row))
        assert all(type(v) is int for v in nums)
        assert [Fraction(v, scale) for v in nums] == row


@PROPERTY_SETTINGS
@given(rational_rows(min_size=2, max_size=6))
def test_condense_at_every_pivot_matches_fraction_reference(rows):
    m = Matrix(rows, RATIONAL)
    n = len(rows)
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            got = condense_at(m, PivotSpec(k, l)).condensed.to_rows()
            want = reference_condense(rows, k, l)
            assert repr(got) == repr(want)


@PROPERTY_SETTINGS
@given(rational_rows(max_size=6))
def test_det_bareiss_matches_fraction_reference(rows):
    m = Matrix(rows, RATIONAL, cols=len(rows))
    ops = OpCounts()
    got = det_bareiss(m, ops)
    want, want_ops = reference_bareiss(rows)
    assert type(got) is Fraction
    assert got == want
    # op counts tally scalar-level updates, not the row scaling
    assert ops == want_ops
    assert det_condensation(m).value == want


def reference_pivot(row, strategy):
    """1-based pivot column of ``row`` under ``strategy``, or None."""
    nonzero = [j for j, v in enumerate(row) if v != 0]
    if not nonzero:
        return None
    if strategy is PivotStrategy.FIRST_NONZERO:
        return nonzero[0] + 1
    return max(nonzero, key=lambda j: (abs(row[j]), -j)) + 1


def reference_det_condensation(rows, strategy):
    """First-row condensation on Fractions throughout: (value, steps,
    ops), a step being ``(pivot column, pivot value, condensed rows)``
    or ``ZeroRowExit(size)``."""
    ops = OpCounts()
    if not rows:
        return Fraction(1), [], ops
    if len(rows) == 1:
        return rows[0][0], [], ops
    steps, pending = [], []
    while len(rows) > 2:
        size = len(rows)
        l = reference_pivot(rows[0], strategy)
        if l is None:
            steps.append(ZeroRowExit(size))
            value = Fraction(0)
            break
        condensed = reference_condense(rows, 1, l)
        ops.multiplications += 2 * (size - 1) ** 2
        ops.subtractions += (size - 1) ** 2
        steps.append((l, rows[0][l - 1], condensed))
        pending.append((rows[0][l - 1], size))
        rows = condensed
    else:
        (a, b), (c, d) = rows
        ops.multiplications += 2
        ops.subtractions += 1
        value = a * d - b * c
    for pivot, size in reversed(pending):
        value /= pivot ** (size - 2)
        ops.multiplications += size - 3
        ops.divisions += 1
    return value, steps, ops


def check_against_reference(rows, strategy):
    want_value, want_steps, want_ops = reference_det_condensation(rows, strategy)
    m = Matrix(rows, RATIONAL, cols=len(rows))
    got = det_condensation(m, strategy)
    assert len(got.trace) == len(want_steps)
    for entry, want in zip(got.trace, want_steps):
        if isinstance(want, ZeroRowExit):
            assert entry == want
            continue
        l, pivot_value, condensed = want
        assert entry.pivot == PivotSpec(1, l)
        assert repr(entry.pivot_value) == repr(pivot_value)
        # repr: every entry a Fraction, equal and canonical
        assert repr(entry.condensed.to_rows()) == repr(condensed)
    assert repr(got.value) == repr(Fraction(want_value))
    assert got.op_counts == want_ops
    # Untraced, the run is the divided one, with op counts of its own.
    untraced = det_condensation(m, strategy, record_trace=False)
    assert untraced.trace == ()
    assert repr(untraced.value) == repr(got.value)
    return got


# Row 2 is twice row 1, so the size-3 level has a zero first row; row 1
# starts with a zero, so the first pivot is at l = 2 (first-nonzero) or
# l = 3 (max-magnitude).
ZERO_ROW_AT_DEPTH = [
    [Fraction(0), Fraction(1, 2), Fraction(3), Fraction(1)],
    [Fraction(0), Fraction(1), Fraction(6), Fraction(2)],
    [Fraction(1), Fraction(2), Fraction(0), Fraction(1, 3)],
    [Fraction(5, 7), Fraction(0), Fraction(1), Fraction(1)],
]
# Rows 1 and 2 agree in their first two columns up to a factor, so the
# size-4 level's first row starts with a zero and its pivot is at l > 1.
LATE_PIVOT_AT_DEPTH = [
    [Fraction(1), Fraction(2), Fraction(1), Fraction(0), Fraction(1, 2)],
    [Fraction(3), Fraction(6), Fraction(0), Fraction(1), Fraction(1)],
    [Fraction(1, 3), Fraction(0), Fraction(1), Fraction(2), Fraction(-1)],
    [Fraction(2), Fraction(1), Fraction(-1), Fraction(0), Fraction(1, 5)],
    [Fraction(0), Fraction(0), Fraction(1, 4), Fraction(1), Fraction(1)],
]


@pytest.mark.parametrize("strategy", list(PivotStrategy))
def test_hand_built_matrices_reach_zero_rows_and_late_pivots_at_depth(strategy):
    got = check_against_reference(ZERO_ROW_AT_DEPTH, strategy)
    assert got.trace[0].pivot.l > 1 and got.trace[1] == ZeroRowExit(3)
    got = check_against_reference(LATE_PIVOT_AT_DEPTH, strategy)
    assert got.trace[1].pivot.l > 1


@settings(max_examples=150, deadline=None)
@given(rational_rows(max_size=8))
def test_det_condensation_trace_matches_fraction_reference_level_by_level(rows):
    for strategy in PivotStrategy:
        check_against_reference(rows, strategy)


@pytest.mark.parametrize("record_trace", [True, False])
@pytest.mark.parametrize("strategy", list(PivotStrategy))
def test_det_condensation_converts_rational_rows_once(monkeypatch, strategy, record_trace):
    # The levels run on the integer rows of the input: n conversions in
    # all, none per level or per trace step.
    calls = []
    inner = type(RATIONAL).integer_row

    def counting(self, row):
        calls.append(len(row))
        return inner(self, row)

    # on the class: undoing a patch of the instance would leave the
    # bound method behind as an instance attribute
    monkeypatch.setattr(type(RATIONAL), "integer_row", counting)
    gen = SplitMix64(8)
    for n in range(2, 10):
        m = random_rational_matrix(n, gen.split())
        calls.clear()
        det_condensation(m, strategy, record_trace)
        assert calls == [n] * n
