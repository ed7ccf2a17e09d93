"""The three independent determinant oracles against each other and
against structural ground truths."""

import random
from fractions import Fraction

import pytest

from condet import (
    INTEGER,
    RATIONAL,
    Matrix,
    OpCounts,
    det_bareiss,
    det_cofactor,
    det_gauss_rational,
)


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
    diag = Matrix(
        [[Fraction(2), 0, 0], [0, Fraction(3), 0], [0, 0, Fraction(1, 6)]], RATIONAL
    )
    assert det_gauss_rational(diag) == 1


def test_gauss_requires_rational():
    with pytest.raises(ValueError):
        det_gauss_rational(identity(3, INTEGER))


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
    rng = random.Random(307)
    from condet import FLOAT

    for _ in range(40):
        n = rng.randint(2, 6)
        ints = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        exact = det_bareiss(Matrix(ints, INTEGER))
        approx = det_bareiss(Matrix([[float(v) for v in row] for row in ints], FLOAT))
        assert abs(approx - exact) <= 1e-9 * max(1.0, abs(exact))


def test_float_bareiss_divides_first_where_the_product_overflows():
    # The second stage multiplies two entries near 1e156 (about 1e311,
    # past the double range), although the determinant is -3e155.
    from condet import FLOAT

    m = Matrix([[1, 2, 3], [4, 5, 6], [7e155, 8e155, 1e156]], FLOAT)
    ops = OpCounts()
    value = det_bareiss(m, ops)
    assert abs(value - -3e155) <= 1e-12 * 3e155
    # five entry updates, one of them recomputed as a*(piv/prev) - (lead/prev)*b
    assert ops == OpCounts(multiplications=12, subtractions=6, divisions=6)


def test_op_counting_is_optional_and_additive():
    m = Matrix([[2, 1, 3], [4, 5, 6], [7, 8, 10]], INTEGER)
    ops = OpCounts()
    det_bareiss(m, ops)
    # 3x3 Bareiss: stage 1 updates four entries, stage 2 one entry
    assert ops.multiplications == 10
    assert ops.subtractions == 5
    assert ops.divisions == 5
