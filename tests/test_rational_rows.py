"""Rational condensation and Bareiss run on integer rows (each row
scaled by the lcm of its denominators); these properties check both
against plain ``Fraction`` references kept here."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from condet import RATIONAL, Matrix, OpCounts, PivotSpec, condense_at, det_bareiss, det_condensation

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
