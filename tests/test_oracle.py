"""The three independent determinant oracles against each other and
against structural ground truths."""

import math
import random
from fractions import Fraction
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condet.oracle as oracle_module
import condet.scalars as scalars_module
from condet import (
    FLOAT,
    INTEGER,
    RATIONAL,
    ExactDivisionError,
    Matrix,
    OpCounts,
    SplitMix64,
    bit_length,
    det_bareiss,
    det_cofactor,
    det_gauss_rational,
    hadamard_bit_bound,
    random_integer_matrix,
    remove_rows_cols,
)
from condet.oracle import COFACTOR_SIZE_LIMIT, _adjugate, _pivot_row, _require_square
from condet.scalars import Scalar


def random_int_matrix(rng, n, bound=9):
    return Matrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)], INTEGER)


def random_rat_matrix(rng, n):
    return Matrix(
        [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)
        ],
        RATIONAL,
    )


def identity(n, kind=INTEGER):
    return Matrix([[kind.one if i == j else kind.zero for j in range(n)] for i in range(n)], kind)


def matmul(a, b):
    n = a.rows
    rows = [
        [sum(a.get(i, k) * b.get(k, j) for k in range(1, n + 1)) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    return Matrix(rows, a.kind)


def test_cofactor_known_values():
    assert det_cofactor(identity(4)) == 1
    m = Matrix([[2, 1, 3], [4, 5, 6], [7, 8, 10]], INTEGER)
    assert det_cofactor(m) == -3
    assert det_cofactor(Matrix([], INTEGER)) == 1
    assert det_cofactor(Matrix([[7]], INTEGER)) == 7
    # A rational matrix expands on its integer rows, past the 0x0 case.
    assert same_value(det_cofactor(Matrix([], RATIONAL)), Fraction(1))
    assert same_value(det_cofactor(Matrix([[Fraction(-6, 8)]], RATIONAL)), Fraction(-3, 4))


def test_cofactor_size_cap():
    m = identity(11)
    with pytest.raises(ValueError):
        det_cofactor(m)


def test_cofactor_rejects_non_square():
    with pytest.raises(ValueError):
        det_cofactor(Matrix([[1, 2, 3], [4, 5, 6]], INTEGER))


def test_bareiss_known_values():
    assert det_bareiss(Matrix([[2, 5], [0, 1]], INTEGER)) == 2
    m = Matrix([[2, 1, 3], [4, 5, 6], [7, 8, 10]], INTEGER)
    assert det_bareiss(m) == -3
    assert det_bareiss(identity(6)) == 1


def test_bareiss_singular_matrix():
    # rows 4 and 5 are combinations of rows 1..3, so the rank is 3
    rng = random.Random(300)
    base = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(3)]
    row4 = [2 * a - b for a, b in zip(base[0], base[1])]
    row5 = [a + 3 * c for a, c in zip(base[0], base[2])]
    m = Matrix(base + [row4, row5], INTEGER)
    assert det_bareiss(m) == 0
    assert det_cofactor(m) == 0


def test_bareiss_divisions_are_exact_by_construction():
    # 200 random integer matrices; a non-exact division would raise
    rng = random.Random(301)
    for _ in range(200):
        n = rng.randint(2, 7)
        m = random_int_matrix(rng, n)
        assert det_bareiss(m) == det_cofactor(m)


def test_bareiss_stage_bits():
    rng = random.Random(302)
    m = random_int_matrix(rng, 6)
    bits = []
    det_bareiss(m, stage_bits=bits)
    assert len(bits) == 5  # one per elimination stage
    assert all(b >= 1 for b in bits)
    with pytest.raises(ValueError):
        det_bareiss(random_rat_matrix(rng, 3), stage_bits=[])


def test_gauss_known_values():
    assert det_gauss_rational(identity(5, RATIONAL)) == 1
    empty = det_gauss_rational(Matrix([], RATIONAL))
    assert empty == 1 and isinstance(empty, Fraction)
    diag = Matrix(
        [[Fraction(2), 0, 0], [0, Fraction(3), 0], [0, 0, Fraction(1, 6)]], RATIONAL
    )
    assert det_gauss_rational(diag) == 1


def test_gauss_answers_in_the_kind_of_its_input():
    # integer and float entries are read as exact ratios, like rational
    # ones, and the determinant comes back as an int or a double rounded
    # once, equal to Bareiss's
    rng = random.Random(131)
    for _ in range(30):
        m = random_int_matrix(rng, rng.randint(0, 7))
        value = det_gauss_rational(m)
        assert type(value) is int and value == det_bareiss(m)
        doubles = Matrix([[v / 2 ** rng.randint(-40, 40) for v in row] for row in m.as_tuples()], FLOAT, cols=m.cols)
        value = det_gauss_rational(doubles)
        assert type(value) is float and value == det_bareiss(doubles)
    assert repr(det_gauss_rational(Matrix([[1, 2], [2, 4]], INTEGER))) == "0"
    assert repr(det_gauss_rational(Matrix([[0.5, 1.0], [1.0, 2.0]], FLOAT))) == "0.0"
    assert repr(det_gauss_rational(Matrix([[0.1, 0.2], [0.3, 0.4]], FLOAT))) == repr(det_bareiss(Matrix([[0.1, 0.2], [0.3, 0.4]], FLOAT)))


def test_three_way_agreement():
    rng = random.Random(303)
    for _ in range(100):
        n = rng.randint(2, 6)
        m = random_rat_matrix(rng, n)
        a = det_cofactor(m)
        b = det_bareiss(m)
        c = det_gauss_rational(m)
        assert a == b == c, f"oracles disagree on {m!r}"


def test_transpose_invariance():
    rng = random.Random(304)
    for _ in range(60):
        n = rng.randint(2, 6)
        m = random_rat_matrix(rng, n)
        t = m.transpose()
        assert det_cofactor(t) == det_cofactor(m)
        assert det_bareiss(t) == det_bareiss(m)
        assert det_gauss_rational(t) == det_gauss_rational(m)


def test_equal_rows_make_determinant_zero():
    rng = random.Random(305)
    for _ in range(60):
        n = rng.randint(2, 6)
        m = random_rat_matrix(rng, n)
        rows = m.to_rows()
        i, j = rng.sample(range(n), 2)
        rows[i] = list(rows[j])
        dup = Matrix(rows, RATIONAL)
        assert det_bareiss(dup) == 0
        assert det_cofactor(dup) == 0
        assert det_gauss_rational(dup) == 0


def test_multiplicativity():
    rng = random.Random(306)
    for _ in range(25):
        a = random_rat_matrix(rng, 4)
        b = random_rat_matrix(rng, 4)
        assert det_bareiss(matmul(a, b)) == det_bareiss(a) * det_bareiss(b)


def test_float_bareiss_matches_exact_result():
    # Float Bareiss and cofactor expansion run on the integer rows of
    # the doubles and round once: each prints the double nearest the
    # exact determinant of the Fraction entries, with the counts of
    # the integer rows.
    rng = random.Random(307)
    cases = []
    for _ in range(40):
        n = rng.randint(2, 6)
        cases.append([[float(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)])
    # Products of entries near 1e156 are about 1e311, past the double
    # range, though the determinant is -3e155; the last matrix's rows
    # have different power-of-two scales.
    cases.append([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7e155, 8e155, 1e156]])
    cases.append([[0.5, 0.25, 3.0], [1e-3, 5.0, 0.125], [7.0, 1.5, 1e-300]])
    for rows in cases:
        m = Matrix(rows, FLOAT)
        exact = det_gauss_rational(Matrix([[Fraction(v) for v in row] for row in rows], RATIONAL))
        integer_rows = Matrix([RATIONAL.integer_row(row)[0] for row in rows], INTEGER)
        for det in (det_bareiss, det_cofactor):
            value, ops = with_counts(det, m)
            assert same_value(value, float(exact))
            assert ops == with_counts(det, integer_rows)[1]
    # stage 1 updates four entries, stage 2 one, as on integer rows
    ops = with_counts(det_bareiss, Matrix(cases[40], FLOAT))[1]
    assert ops == OpCounts(multiplications=10, subtractions=5, divisions=5)


def test_op_counting_is_optional_and_additive():
    m = Matrix([[2, 1, 3], [4, 5, 6], [7, 8, 10]], INTEGER)
    ops = OpCounts()
    det_bareiss(m, ops)
    # 3x3 Bareiss: stage 1 updates four entries, stage 2 one entry
    assert ops.multiplications == 10
    assert ops.subtractions == 5
    assert ops.divisions == 5


# --- the per-entry loops as reference -----------------------------------------
#
# det_cofactor and det_bareiss as they stood at b7b4a6d, bodies verbatim
# but for floats: cofactor copies every minor, and Bareiss counts and
# divides entry by entry through INTEGER.exact_div.  A float matrix is
# worked on as the Fraction of each entry and the result rounded once,
# which raises OverflowError past the double range.  det_gauss_rational
# as it stood at 9a7c9e7, verbatim: Fraction arithmetic, counted entry
# by entry.  The oracles must match them exactly: value (floats by
# repr), OpCounts and stage bits.


def on_fraction_entries(reference, m: Matrix, ops: Optional[OpCounts]) -> float:
    exact = Matrix([[Fraction(v) for v in row] for row in m.as_tuples()], RATIONAL, cols=m.cols)
    return float(reference(exact, ops))


def reference_det_cofactor(m: Matrix, ops: Optional[OpCounts] = None) -> Scalar:
    n = _require_square(m, "det_cofactor")
    if n > COFACTOR_SIZE_LIMIT:
        raise ValueError(f"cofactor expansion is limited to {COFACTOR_SIZE_LIMIT}x{COFACTOR_SIZE_LIMIT}, got {n}")
    kind = m.kind
    if kind is FLOAT:
        return on_fraction_entries(reference_det_cofactor, m, ops)
    if ops is None:
        ops = OpCounts()

    def expand(grid) -> Scalar:
        size = len(grid)
        if size == 0:
            return kind.one
        if size == 1:
            return grid[0][0]
        if size == 2:
            ops.multiplications += 2
            ops.subtractions += 1
            return grid[0][0] * grid[1][1] - grid[0][1] * grid[1][0]
        total = kind.zero
        rest = grid[1:]
        for j, head in enumerate(grid[0]):
            if head == kind.zero:
                continue  # a zero coefficient contributes nothing
            minor = tuple(row[:j] + row[j + 1 :] for row in rest)
            term = head * expand(minor)
            ops.multiplications += 1
            ops.subtractions += 1
            total = total + term if j % 2 == 0 else total - term
        return total

    return expand(m.as_tuples())


def reference_det_bareiss(
    m: Matrix,
    ops: Optional[OpCounts] = None,
    stage_bits: Optional[List[int]] = None,
) -> Scalar:
    n = _require_square(m, "det_bareiss")
    kind = m.kind
    if stage_bits is not None and kind is not INTEGER:
        raise ValueError("stage_bits tracking needs integer entries")
    if n == 0:
        return kind.one
    if kind is FLOAT:
        return on_fraction_entries(reference_det_bareiss, m, ops)
    if ops is None:
        ops = OpCounts()
    # Rationals eliminate on integer rows: det(m) is the integer
    # determinant over the product of the row scales.
    ring, rows, scale = kind, m.as_tuples(), 1
    if kind is RATIONAL:
        rows, scales = zip(*map(RATIONAL.integer_row, rows))
        ring, scale = INTEGER, math.prod(scales)
    grid = [list(row) for row in rows]
    sign = 1
    prev = ring.one
    for k in range(n - 1):
        r = _pivot_row(grid, k, k, n)
        if r is None:
            return kind.zero
        if r != k:
            grid[k], grid[r] = grid[r], grid[k]
            sign = -sign
        piv = grid[k][k]
        for i in range(k + 1, n):
            row_i = grid[i]
            row_k = grid[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                num = row_i[j] * piv - lead * row_k[j]
                ops.multiplications += 2
                ops.subtractions += 1
                ops.divisions += 1
                row_i[j] = INTEGER.exact_div(num, prev)
        prev = piv
        if stage_bits is not None:
            stage_bits.append(
                max(bit_length(grid[i][j]) for i in range(n) for j in range(n))
            )
    value = grid[n - 1][n - 1]
    if sign == -1:
        value = -value
    return Fraction(value, scale) if kind is RATIONAL else value


def largest_pivot_row(grid, col, start, n):
    # Partial pivoting: the largest magnitude, earliest row on ties.
    # Gauss's counts skip zero leads, so they depend on this rule.
    best = None
    for r in range(start, n):
        v = grid[r][col]
        if v and (best is None or abs(v) > abs(grid[best][col])):
            best = r
    return best


def reference_det_gauss_rational(m: Matrix, ops: Optional[OpCounts] = None) -> Scalar:
    """Determinant by rational Gaussian elimination with partial pivoting."""
    n = _require_square(m, "det_gauss_rational")
    if m.kind is not RATIONAL:
        raise ValueError("det_gauss_rational needs rational entries")
    if ops is None:
        ops = OpCounts()
    grid = [list(row) for row in m.as_tuples()]
    sign = 1
    for k in range(n - 1):
        r = largest_pivot_row(grid, k, k, n)
        if r is None:
            return RATIONAL.zero
        if r != k:
            grid[k], grid[r] = grid[r], grid[k]
            sign = -sign
        piv = grid[k][k]
        for i in range(k + 1, n):
            lead = grid[i][k]
            if lead == 0:
                continue
            factor = lead / piv
            ops.divisions += 1
            for j in range(k + 1, n):
                grid[i][j] = grid[i][j] - factor * grid[k][j]
                ops.multiplications += 1
                ops.subtractions += 1
    value = RATIONAL.one
    for k in range(n):
        value = value * grid[k][k]
        ops.multiplications += 1
    return value if sign == 1 else -value


ENTRIES = {
    INTEGER: st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70)),
    RATIONAL: st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    # huge magnitudes take determinants past the double range, where
    # both must raise OverflowError
    FLOAT: st.one_of(
        st.integers(-9, 9).map(float),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(1e150, 1e160) | st.floats(-1e160, -1e150),
    ),
}
SHAPES = ["random", "zero-heavy", "singular", "row-swap", "duplicate-row"]


@st.composite
def shaped_matrices(draw, kinds=(INTEGER, RATIONAL, FLOAT), max_size=8):
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(0, max_size))
    shape = draw(st.sampled_from(SHAPES))
    entry = ENTRIES[kind]
    if shape == "zero-heavy":
        entry = st.one_of(st.just(kind.zero), st.just(kind.zero), entry)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n >= 2:
        i, j, *rest = draw(st.permutations(range(n)))
        if shape == "singular":
            rows[i] = [a + b for a, b in zip(rows[j], rows[rest[0]])] if rest else [kind.zero] * n
        elif shape == "duplicate-row":
            rows[i] = list(rows[j])
        elif shape == "row-swap":
            # a zero corner makes the first stage swap rows
            rows[0][0], rows[-1][0] = kind.zero, kind.one
    return Matrix(rows, kind, cols=n)


def same_value(a, b):
    return repr(a) == repr(b) and type(a) is type(b)


def with_counts(det, m, **kwargs):
    ops = OpCounts()
    try:
        return det(m, ops, **kwargs), ops
    except OverflowError:  # a float determinant past the double range
        return OverflowError, None


@settings(max_examples=300, deadline=None)
@given(shaped_matrices())
def test_bareiss_matches_the_per_entry_loop(m):
    (value, ops), (ref_value, ref_ops) = with_counts(det_bareiss, m), with_counts(reference_det_bareiss, m)
    assert same_value(value, ref_value)
    assert ops == ref_ops
    if m.kind is INTEGER:
        bits, ref_bits = [], []
        det_bareiss(m, stage_bits=bits)
        reference_det_bareiss(m, stage_bits=ref_bits)
        assert bits == ref_bits


@settings(max_examples=150, deadline=None)
@given(shaped_matrices())
def test_cofactor_matches_the_minor_copying_expansion(m):
    (value, ops), (ref_value, ref_ops) = with_counts(det_cofactor, m), with_counts(reference_det_cofactor, m)
    assert same_value(value, ref_value)
    assert ops == ref_ops


def reference_gauss_in_kind(m: Matrix, ops: Optional[OpCounts] = None) -> Scalar:
    # the Fraction loop on the Fraction of each entry, its value turned
    # into the matrix's kind
    if m.kind is RATIONAL:
        return reference_det_gauss_rational(m, ops)
    exact = Matrix([[Fraction(v) for v in row] for row in m.as_tuples()], RATIONAL, cols=m.cols)
    value = reference_det_gauss_rational(exact, ops)
    return float(value) if m.kind is FLOAT else int(value)


@settings(max_examples=300, deadline=None)
@given(shaped_matrices())
def test_gauss_matches_the_fraction_loop(m):
    (value, ops), (ref_value, ref_ops) = with_counts(det_gauss_rational, m), with_counts(reference_gauss_in_kind, m)
    assert same_value(value, ref_value)
    assert ops == ref_ops


def big_rat_rows(rng, n):
    # numerators and denominators near 2**70 with small common factors,
    # so that every gcd split of the pair arithmetic finds one
    return [
        [
            Fraction(
                rng.choice([-1, 1]) * (2**70 + rng.randint(0, 2**20)) * rng.choice([2, 3, 6, 10]),
                (2**70 - rng.randint(0, 2**20)) * rng.choice([1, 3, 5, 6]),
            )
            for _ in range(n)
        ]
        for _ in range(n)
    ]


F = Fraction
GAUSS_CASES = {
    # |-3/2| in the second row ties |3/2| in the third, and the earlier
    # (index 1) is the pivot.  The first row's lead then drops to 0 and
    # the third's does not, so the last stage pivots on index 2 and
    # updates nothing; pivoting on the third row first would leave both
    # leads nonzero and divide once more.
    "magnitude tie": (
        [[F(1, 2), F(-1, 2), F(2, 3)], [F(-3, 2), F(3, 2), F(5, 7)], [F(3, 2), F(1, 4), F(-4, 5)]],
        [1, 2],
    ),
    # every factor lead / (-3/2) comes out with a negative denominator
    # before its sign moves to the numerator
    "negative pivot": (
        [[F(-3, 2), F(1, 3), F(2)], [F(1), F(5, 7), F(-1)], [F(1, 2), F(2, 5), F(3)]],
        [0, 1],
    ),
    "entries near 2**70": (big_rat_rows(random.Random(309), 6), None),
}


@pytest.mark.parametrize("case", GAUSS_CASES)
def test_gauss_pairs_stay_in_lowest_terms(monkeypatch, case):
    # Before each pivot search, every entry still to be eliminated is a
    # numerator/denominator pair in lowest terms with a positive
    # denominator: the rationals of the Fraction loop, entry by entry.
    rows, pivots = GAUSS_CASES[case]
    m = Matrix(rows, RATIONAL)
    pivot_pair_row = oracle_module._pivot_pair_row
    chosen = []

    def checked(nums, dens, col, start, n):
        for i in range(start, n):
            for j in range(start, n):
                assert dens[i][j] > 0 and math.gcd(nums[i][j], dens[i][j]) == 1, (i, j)
        chosen.append(pivot_pair_row(nums, dens, col, start, n))
        return chosen[-1]

    monkeypatch.setattr(oracle_module, "_pivot_pair_row", checked)
    (value, ops), (ref_value, ref_ops) = with_counts(det_gauss_rational, m), with_counts(reference_det_gauss_rational, m)
    assert same_value(value, ref_value)
    assert ops == ref_ops
    assert len(chosen) == m.rows - 1
    if pivots is not None:
        assert chosen == pivots


def test_gauss_never_scales_rows_to_integers(monkeypatch):
    # Gauss is an oracle for the integer-row representation that Bareiss
    # and condensation share, so it must never build one.
    calls = []
    integer_row = type(RATIONAL).integer_row

    def spy(self, row):
        calls.append(row)
        return integer_row(self, row)

    monkeypatch.setattr(type(RATIONAL), "integer_row", spy)
    m = random_rat_matrix(random.Random(310), 6)
    det_bareiss(m)
    assert len(calls) == 6  # the spy sees Bareiss scale each row
    del calls[:]
    value = det_gauss_rational(m)
    assert calls == []
    assert value == det_bareiss(m)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_rational_cofactor_expands_integer_rows(n):
    # Rational cofactor expansion runs on the integer rows: its value is
    # the Fraction elimination's, and its counts are those of expanding
    # the integer rows, zero heads skipped at the same places.
    rng = random.Random(320 + n)
    rows = big_rat_rows(rng, n)
    for i, j in rng.sample([(i, j) for i in range(n) for j in range(n)], n + 2):
        rows[i][j] = Fraction(0)
    m = Matrix(rows, RATIONAL)
    value, ops = with_counts(det_cofactor, m)
    assert same_value(value, det_gauss_rational(m))
    integer_rows = Matrix([RATIONAL.integer_row(row)[0] for row in m.as_tuples()], INTEGER)
    assert ops == with_counts(det_cofactor, integer_rows)[1]


# --- a planted non-exact division --------------------------------------------

def _plant_after_first_stage(monkeypatch):
    """From the second elimination stage on, every pivot search
    (``_pivot_row``, in the oracle and in the reference loops here)
    first adds 1 to the bottom-right entry of the square block, which
    no stage has yet eliminated, so a later division by the previous
    pivot is off."""
    pivot_row = oracle_module._pivot_row

    def planted(grid, col, start, n):
        if start >= 1:
            grid[n - 1][n - 1] += 1
        return pivot_row(grid, col, start, n)

    monkeypatch.setattr(oracle_module, "_pivot_row", planted)
    monkeypatch.setitem(globals(), "_pivot_row", planted)


PLANT_MATRIX = random_integer_matrix(5, 9, SplitMix64(12))


@pytest.mark.parametrize("cutoff", [scalars_module._RECURSIVE_DIV_BITS, 0])
@pytest.mark.parametrize("kind", [INTEGER, RATIONAL])
def test_planted_non_exact_division_raises_the_per_entry_error(monkeypatch, kind, cutoff):
    # Both branches of the once-per-stage division: builtin divmod for
    # short divisors, recursive division with the cutoff forced to 0.
    m = Matrix(PLANT_MATRIX.to_rows(), kind)
    recursive = []
    inner = scalars_module._divmod_recursive

    def spy(a, b):
        recursive.append(b)
        return inner(a, b)

    monkeypatch.setattr(scalars_module, "_RECURSIVE_DIV_BITS", cutoff)
    monkeypatch.setattr(scalars_module, "_divmod_recursive", spy)
    _plant_after_first_stage(monkeypatch)
    with pytest.raises(ExactDivisionError) as expected:
        reference_det_bareiss(m)
    del recursive[:]
    with pytest.raises(ExactDivisionError) as raised:
        det_bareiss(m)
    assert str(raised.value) == str(expected.value)
    assert str(raised.value).startswith("non-exact integer division: ")
    assert bool(recursive) == (cutoff == 0)


@pytest.mark.parametrize("kind", [INTEGER, RATIONAL])
def test_recursive_and_builtin_division_agree(monkeypatch, kind):
    rng = random.Random(308)
    mats = [random_int_matrix(rng, n, 10**6) for n in range(1, 9) for _ in range(3)]
    if kind is RATIONAL:
        mats = [random_rat_matrix(rng, n) for n in range(1, 9) for _ in range(3)]
    builtin = [with_counts(det_bareiss, m) for m in mats]
    monkeypatch.setattr(scalars_module, "_RECURSIVE_DIV_BITS", 0)
    recursive = [with_counts(det_bareiss, m) for m in mats]
    assert recursive == builtin


# --- the adjugate that verify reads its one-removed minors from -------------

def signed_cofactors(m: Matrix) -> List[List[int]]:
    """adj(m) entry by entry: entry (i, j) is (-1)**(i+j) * det M({j},{i}),
    one Bareiss call per one-removed minor."""
    n = m.rows
    return [
        [(-1) ** (i + j) * det_bareiss(remove_rows_cols(m, (j,), (i,))) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]


@st.composite
def adjugate_inputs(draw):
    # Integer matrices, half of them zero-heavy and half of them with a
    # duplicated row.
    n = draw(st.integers(1, 8))
    entry = draw(st.sampled_from([ENTRIES[INTEGER], st.one_of(st.just(0), st.just(0), ENTRIES[INTEGER])]))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        i, j, *_ = draw(st.permutations(range(n)))
        rows[i] = list(rows[j])
    return Matrix(rows, INTEGER)


@settings(max_examples=300, deadline=None)
@given(adjugate_inputs())
def test_adjugate_is_the_signed_cofactor_matrix(m):
    adj = _adjugate(m)
    if det_bareiss(m) == 0:
        assert adj is None
    else:
        assert adj == signed_cofactors(m)


@pytest.mark.parametrize(
    "rows, swapped",
    [
        # the first-column entry of the first row is zero
        ([[0, 2, 1], [3, 1, 4], [5, 9, 2]], [0]),
        # the first stage leaves 0 and -1 in the second column: the
        # second one swaps
        ([[1, 2, 3], [2, 4, 1], [1, 1, 1]], [1]),
    ],
    ids=["zero-corner", "later-swap"],
)
def test_adjugate_signs_each_row_swap(monkeypatch, rows, swapped):
    m = Matrix(rows, INTEGER)
    steps = []
    search = oracle_module._pivot_row

    def spy(grid, col, start, n):
        r = search(grid, col, start, n)
        steps.append(r - start)
        return r

    # the reference runs Bareiss, which pivots by _pivot_row too
    expected = signed_cofactors(m)
    monkeypatch.setattr(oracle_module, "_pivot_row", spy)
    assert _adjugate(m) == expected
    assert [stage for stage, step in enumerate(steps) if step] == swapped


def bareiss_with_bits(m):
    ops, bits = OpCounts(), []
    return det_bareiss(m, ops, stage_bits=bits), ops, bits


@settings(max_examples=200, deadline=None)
@given(shaped_matrices(kinds=(INTEGER,), max_size=12))
def test_bareiss_and_adjugate_do_not_depend_on_the_pivot_rule(m):
    # Every entry of a fraction-free stage is a minor of m, whichever
    # nonzero pivot was picked, and stage k finds none exactly when the
    # first k + 1 columns have rank k: the first-nonzero rule and
    # Gauss's largest-magnitude rule give one value, one count and one
    # adjugate.  Entries stay below the Hadamard bound under both,
    # unless a zero row collapses that bound to 1.
    value, ops, bits = bareiss_with_bits(m)
    adj = _adjugate(m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle_module, "_pivot_row", largest_pivot_row)
        largest_value, largest_ops, largest_bits = bareiss_with_bits(m)
        largest_adj = _adjugate(m)
    assert (value, ops, adj) == (largest_value, largest_ops, largest_adj)
    if bits and all(any(row) for row in m.as_tuples()):
        bound = hadamard_bit_bound(m)
        assert max(bits) < 2 * bound and max(largest_bits) < 2 * bound


def test_adjugate_divides_recursively_past_the_cutoff(monkeypatch):
    # Entries near 2**4000: from the third stage on, the previous pivot
    # is a 2x2 minor of about 8,000 bits, past _RECURSIVE_DIV_BITS.
    # The reference's Bareiss calls on 3x3 minors never divide by more
    # than one entry, so they stay on the builtin division.
    rng = random.Random(4000)
    m = Matrix([[rng.choice((-1, 1)) * rng.randrange(2**3999, 2**4000) for _ in range(4)] for _ in range(4)], INTEGER)
    divisors = []
    inner = scalars_module._divmod_recursive

    def spy(a, b):
        divisors.append(b.bit_length())
        return inner(a, b)

    monkeypatch.setattr(scalars_module, "_divmod_recursive", spy)
    adj = _adjugate(m)
    assert divisors and min(divisors) > scalars_module._RECURSIVE_DIV_BITS
    del divisors[:]
    assert adj == signed_cofactors(m)
    assert divisors == []


@pytest.mark.parametrize("cutoff", [scalars_module._RECURSIVE_DIV_BITS, 0])
def test_planted_non_exact_division_in_the_adjugate_raises(monkeypatch, cutoff):
    monkeypatch.setattr(scalars_module, "_RECURSIVE_DIV_BITS", cutoff)
    _plant_after_first_stage(monkeypatch)
    with pytest.raises(ExactDivisionError, match="^non-exact integer division: "):
        _adjugate(PLANT_MATRIX)


@pytest.mark.parametrize("run", [det_bareiss, _adjugate], ids=["bareiss", "adjugate"])
@pytest.mark.parametrize("seed, remainder", [(14, -1), (65, 1)])
def test_a_remainder_of_one_raises_in_both_callers(monkeypatch, seed, remainder, run):
    # The planted fault's first non-exact division in Bareiss and in
    # the adjugate leaves a remainder of -1 or 1, the smallest there is:
    # the shared stage's inline test must raise at that division, not
    # at a later one the fault spreads to.
    m = random_integer_matrix(4, 9, SplitMix64(seed))
    remainders = []
    divmod_for = oracle_module._divmod_for

    def spy(prev):
        div = divmod_for(prev)

        def recorded(a, b):
            q, rem = div(a, b)
            if rem:
                remainders.append(rem)
            return q, rem

        return recorded

    monkeypatch.setattr(oracle_module, "_divmod_for", spy)
    _plant_after_first_stage(monkeypatch)
    with pytest.raises(ExactDivisionError, match="^non-exact integer division: "):
        run(m)
    assert remainders == [remainder]


def test_adjugate_needs_integer_entries():
    with pytest.raises(ValueError, match="needs integer entries"):
        _adjugate(Matrix([[Fraction(1, 2)]], RATIONAL))
