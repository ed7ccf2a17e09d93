"""Matrix container, minors, row-major reshape and the pivot rotation
behind the condensation sign argument."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from condet import (
    FLOAT,
    INTEGER,
    RATIONAL,
    Matrix,
    PivotSpec,
    SplitMix64,
    condense_at,
    condense_at_11,
    det_cofactor,
    random_integer_matrix,
    random_rational_matrix,
    remove_rows_cols,
)
from condet.matrix import matrix_from_doc, matrix_to_doc
from conftest import golden_matrix


def random_int_matrix(rng, n, bound=9):
    return Matrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)], INTEGER)


def rotate_pivot_to_front(m, pivot):
    """Cyclically rotate row ``k`` and column ``l`` into position (1,1).

    Rows k, 1, 2, ..., k-1 become rows 1, 2, ..., k (likewise for
    columns), which is a cascade of adjacent swaps, so the determinant
    changes by exactly ``(-1)**((k-1)+(l-1))``.  Returns ``(rotated,
    sign)``.
    """
    n = m.rows
    k, l = pivot
    if not (1 <= k <= n and 1 <= l <= n):
        raise IndexError(f"pivot {pivot} out of range for size {n}")
    row_order = [k - 1] + [i for i in range(n) if i != k - 1]
    col_order = [l - 1] + [j for j in range(n) if j != l - 1]
    src = m.as_tuples()
    data = [tuple(src[i][j] for j in col_order) for i in row_order]
    sign = 1 if (k + l) % 2 == 0 else -1
    return Matrix(data, m.kind, cols=n), sign


def test_get_is_one_based():
    m = golden_matrix()
    assert m.get(1, 1) == 2.0
    assert m.get(4, 4) == math.sqrt(3)
    assert m.get(5, 6) == 0.5
    assert m.get(7, 7) == 3.0


def test_get_bounds():
    m = Matrix([[1, 2], [3, 4]], INTEGER)
    with pytest.raises(IndexError):
        m.get(0, 1)
    with pytest.raises(IndexError):
        m.get(1, 3)
    with pytest.raises(IndexError):
        m.get(3, 1)
    for i in (0, 3):
        with pytest.raises(IndexError, match=f"row {i} out of range 1..2"):
            m.row(i)


def test_construction_rejects_ragged():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]], INTEGER)


def test_construction_rejects_empty_rows():
    with pytest.raises(ValueError, match="matrix rows must not be empty"):
        Matrix([[]], INTEGER)


def test_construction_rejects_wrong_kind():
    with pytest.raises(TypeError):
        Matrix([[1, 0.5]], INTEGER)


def test_construction_rejects_negative_sizes():
    with pytest.raises(ValueError, match=r"^matrix cols must be >= 0, got -1$"):
        Matrix([], INTEGER, cols=-1)
    with pytest.raises(ValueError, match=r"^matrix cols must be >= 0, got -2$"):
        random_integer_matrix(-2, 9, SplitMix64(1))
    with pytest.raises(ValueError, match=r"^matrix cols must be >= 0, got -1$"):
        random_rational_matrix(-1, SplitMix64(1))
    assert Matrix([], INTEGER, cols=0) == random_integer_matrix(0, 9, SplitMix64(1)) == Matrix([], INTEGER)
    assert random_rational_matrix(0, SplitMix64(1)) == Matrix([], RATIONAL)


def test_row_and_transpose():
    m = Matrix([[1, 2, 3], [4, 5, 6]], INTEGER)
    assert m.row(2) == (4, 5, 6)
    t = m.transpose()
    assert (t.rows, t.cols) == (3, 2)
    assert t.get(3, 1) == 3
    assert t.transpose() == m


def test_remove_rows_cols_basic():
    m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]], INTEGER)
    top_left = remove_rows_cols(m, (3,), (3,))
    assert top_left == Matrix([[1, 2], [4, 5]], INTEGER)
    middle = remove_rows_cols(m, (1, 3), (2,))
    assert middle == Matrix([[4, 6]], INTEGER)


def test_remove_rows_cols_to_empty():
    m = Matrix([[1, 2], [3, 4]], INTEGER)
    empty = remove_rows_cols(m, (1, 2), (1, 2))
    assert (empty.rows, empty.cols) == (0, 0)
    assert det_cofactor(empty) == 1


def test_remove_rows_cols_keeps_order():
    rng = random.Random(210)
    for _ in range(50):
        n = rng.randint(2, 7)
        m = random_int_matrix(rng, n)
        rr = sorted(rng.sample(range(1, n + 1), rng.randint(0, n - 1)))
        rc = sorted(rng.sample(range(1, n + 1), rng.randint(0, n - 1)))
        sub = remove_rows_cols(m, rr, rc)
        kept_rows = [i for i in range(1, n + 1) if i not in rr]
        kept_cols = [j for j in range(1, n + 1) if j not in rc]
        assert (sub.rows, sub.cols) == (len(kept_rows), len(kept_cols))
        for a, i in enumerate(kept_rows, start=1):
            for b, j in enumerate(kept_cols, start=1):
                assert sub.get(a, b) == m.get(i, j)


def test_remove_rows_cols_rejects_bad_indices():
    m = Matrix([[1, 2], [3, 4]], INTEGER)
    with pytest.raises(IndexError, match=r"^row index 3 out of range 1\.\.2$"):
        remove_rows_cols(m, (3,), ())
    with pytest.raises(IndexError, match=r"^column index 0 out of range 1\.\.2$"):
        remove_rows_cols(m, (), (0,))
    with pytest.raises(ValueError, match=r"^duplicate row indices in \[1, 1\]$"):
        remove_rows_cols(m, (1, 1), ())
    with pytest.raises(ValueError, match=r"^duplicate column indices in \[2, 2\]$"):
        remove_rows_cols(m, (), (2, 2))
    # rows left with no entries are no matrix, as for a checked build
    with pytest.raises(ValueError, match=r"^matrix rows must not be empty$"):
        remove_rows_cols(m, (1,), (1, 2))


@pytest.mark.parametrize("kind", [INTEGER, RATIONAL, FLOAT], ids=lambda k: k.name)
def test_remove_rows_cols_equals_the_checked_build(kind):
    # Every minor of a 3x4 matrix whose rows keep an entry, 0x0 and
    # all-rows-removed (0 x c) minors included, equals the same rows
    # built through the per-entry check.
    text = "{}" if kind is INTEGER else "{}/{}"
    m = Matrix([[kind.parse(text.format(3 * i + j - 5, j)) for j in range(1, 5)] for i in range(3)], kind)
    subsets = lambda size: [c for r in range(size + 1) for c in itertools.combinations(range(1, size + 1), r)]
    for rows in subsets(m.rows):
        for cols in subsets(m.cols):
            if len(cols) == m.cols and len(rows) < m.rows:
                continue
            minor = remove_rows_cols(m, rows, cols)
            kept = [[m.get(i, j) for j in range(1, m.cols + 1) if j not in cols] for i in range(1, m.rows + 1) if i not in rows]
            checked = Matrix(kept, kind, cols=m.cols - len(cols))
            assert minor == checked and (minor.rows, minor.cols) == (checked.rows, checked.cols)
            assert all(type(row) is tuple for row in minor.as_tuples())


def test_rotate_identity_pivot():
    m = Matrix([[1, 2], [3, 4]], INTEGER)
    rotated, sign = rotate_pivot_to_front(m, PivotSpec(1, 1))
    assert rotated == m
    assert sign == 1


def test_rotate_row_two():
    m = Matrix([[2, 1, 3], [4, 5, 6], [7, 8, 10]], INTEGER)
    rotated, sign = rotate_pivot_to_front(m, PivotSpec(2, 1))
    assert rotated.to_rows() == [[4, 5, 6], [2, 1, 3], [7, 8, 10]]
    assert sign == -1


def test_rotate_preserves_determinant_with_sign():
    rng = random.Random(211)
    for _ in range(30):
        n = rng.randint(2, 5)
        m = Matrix(
            [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)],
            RATIONAL,
        )
        det = det_cofactor(m)
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                rotated, sign = rotate_pivot_to_front(m, PivotSpec(k, l))
                assert rotated.get(1, 1) == m.get(k, l)
                assert sign * det_cofactor(rotated) == det, f"pivot ({k},{l})"
                # the sign argument: in-place condensation at (k,l) and
                # corner condensation of the rotated matrix differ in
                # determinant by exactly the rotation sign
                if n >= 2:
                    in_place = det_cofactor(condense_at(m, PivotSpec(k, l)).condensed)
                    assert in_place == sign * det_cofactor(condense_at_11(rotated).condensed)
                # the entry multiset survives the rotation
                flat = sorted(v for row in rotated.to_rows() for v in row)
                assert flat == sorted(v for row in m.to_rows() for v in row)


def test_rotate_rejects_out_of_range():
    m = Matrix([[1, 2], [3, 4]], INTEGER)
    with pytest.raises(IndexError):
        rotate_pivot_to_front(m, PivotSpec(3, 1))


def test_matrix_from_doc_reshapes_and_rejects_bad_dimensions():
    m = matrix_from_doc({"rows": 2, "cols": 3, "entries": ["1", "2", "3", "4", "5", "6"]}, INTEGER)
    assert m.to_rows() == [[1, 2, 3], [4, 5, 6]]
    assert matrix_from_doc(matrix_to_doc(m), INTEGER) == m
    with pytest.raises(ValueError, match="claims rows = -2"):
        matrix_from_doc({"rows": -2, "cols": -2, "entries": ["1", "2", "3", "4"]}, INTEGER)
    with pytest.raises(ValueError, match="claims cols = -1"):
        matrix_from_doc({"rows": 0, "cols": -1, "entries": []}, INTEGER)
    with pytest.raises(ValueError, match="claims 2x2 = 4 entries, got 3"):
        matrix_from_doc({"rows": 2, "cols": 2, "entries": ["1", "2", "3"]}, INTEGER)
    with pytest.raises(ValueError, match="must be a JSON object, got list"):
        matrix_from_doc([1, 2, 3, 4], INTEGER)
    # The shape is checked first: no row is built for a claim the
    # entries cannot fill, and no entry is read.
    with pytest.raises(ValueError, match=r"^claims cols = 0, must be >= 1$"):
        matrix_from_doc({"rows": 30_000_000, "cols": 0, "entries": []}, INTEGER)
    with pytest.raises(ValueError, match=r"^claims 2x2 = 4 entries, got 5$"):
        matrix_from_doc({"rows": 2, "cols": 2, "entries": ["x", 1, "3", "4", "5"]}, INTEGER)
    assert matrix_from_doc({"rows": 0, "cols": 0, "entries": []}, INTEGER) == Matrix([], INTEGER)
    # Dimensions are echoed capped, their product too, however long.
    huge = int("9" * 4000)
    for doc in ({"rows": 1, "cols": huge, "entries": []}, {"rows": huge, "cols": huge, "entries": []},
                {"rows": -huge, "cols": 1, "entries": []}):
        with pytest.raises(ValueError, match="^claims ") as info:
            matrix_from_doc(doc, INTEGER)
        assert len(str(info.value)) < 400 and " characters)" in str(info.value)


def test_equality_spans_kind_and_data():
    a = Matrix([[1, 2], [3, 4]], INTEGER)
    b = Matrix([[1, 2], [3, 4]], INTEGER)
    c = Matrix([[1, 2], [3, 4]], RATIONAL)
    assert a == b
    assert a != c
    assert hash(a) == hash(b)
