"""Every determinant method in ``bench.METHODS``, under every scalar kind
it accepts, against sympy's ``Matrix.det`` as a test-only oracle, on
the matrices where pivoting and exact division are most fragile:
zero-heavy, rank-deficient and duplicate-row matrices up to 8x8."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condet import FLOAT, INTEGER, RATIONAL, Matrix
from condet.bench import METHODS

sympy = pytest.importorskip("sympy")

# Mostly zeros, the rest small and signed.
ENTRIES = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-9, 9))
SHAPES = ("zero-heavy", "rank-deficient", "duplicate-row")
FLOAT_TOLERANCE = 1e-9

METHOD_KINDS = [
    pytest.param(name, kind, id=f"{name}-{kind.name}")
    for name, method in METHODS.items()
    for kind in method.kinds
]


@st.composite
def integer_rows(draw, max_size=8):
    n = draw(st.integers(1, max_size))
    rows = [[draw(ENTRIES) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(SHAPES))
    if n >= 2 and shape != "zero-heavy":
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        if shape == "duplicate-row":
            rows[j] = list(rows[i])
        else:
            # row j becomes a combination of two other rows (or of one)
            p = draw(st.integers(0, n - 1).filter(lambda x: x != j))
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows[j] = [a * x + b * y for x, y in zip(rows[i], rows[p])]
    return rows


@st.composite
def matrices_for(draw, kind):
    """(condet matrix, sympy matrix) with the same values.  Rational
    matrices divide each row by its own denominator, and float ones
    each row by its own power of two (so the doubles are exact), so the
    integer-row scaling of the exact methods is exercised too."""
    rows = draw(integer_rows())
    if kind is INTEGER:
        return Matrix(rows, kind), sympy.Matrix(rows)
    dens = [draw(st.integers(1, 9)) if kind is RATIONAL else 2 ** draw(st.integers(0, 10)) for _ in rows]
    values = [[Fraction(v, d) for v in row] for row, d in zip(rows, dens)]
    if kind is FLOAT:
        values = [[float(v) for v in row] for row in values]
    return Matrix(values, kind), sympy.Matrix([[sympy.Rational(v, d) for v in row] for row, d in zip(rows, dens)])


@pytest.mark.parametrize("name, kind", METHOD_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_method_matches_sympy(name, kind, data):
    m, oracle = data.draw(matrices_for(kind))
    expected = oracle.det()
    exact = Fraction(int(expected.p), int(expected.q))
    value = METHODS[name].run(m).value
    if kind is FLOAT and name == "condensation":
        # the bench's condensation is the traced run, on floats
        assert math.isclose(value, float(exact), rel_tol=FLOAT_TOLERANCE, abs_tol=FLOAT_TOLERANCE)
    elif kind is FLOAT:
        # Bareiss and cofactor expansion run on integer rows and round once
        assert type(value) is float and value == float(exact)
    elif kind is INTEGER:
        assert type(value) is int and value == int(expected)
    else:
        assert value == exact
