"""Condensation steps, the pivot-power determinant identities, the
Dodgson minor identity, and the condensation determinant driver."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condet import (
    FLOAT,
    INTEGER,
    RATIONAL,
    CondensationStep,
    Matrix,
    OpCounts,
    PivotSpec,
    PivotStrategy,
    ZeroRowExit,
    condense_at,
    condense_at_11,
    det_bareiss,
    det_cofactor,
    det_condensation,
    dodgson_identity_residual,
    select_pivot,
    trace_document,
    trace_from_document,
)
from condet.condense import _condense_rows
from conftest import GOLDEN_CONDENSED, GOLDEN_FACTOR, golden_matrix


def random_rat_matrix(rng, n):
    return Matrix(
        [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)
        ],
        RATIONAL,
    )


def random_int_matrix(rng, n, bound=9):
    return Matrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)], INTEGER)


def random_matrix(rng, n, kind):
    """Random n x n matrix of ``kind`` with about one entry in five zero."""
    draw = {
        RATIONAL: lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        INTEGER: lambda: rng.randint(-9, 9),
        FLOAT: lambda: rng.uniform(-9, 9),
    }[kind]
    return Matrix([[draw() if rng.random() > 0.2 else 0 for _ in range(n)] for _ in range(n)], kind)


def pivot_block(m, k, l, i, j):
    """Reference layout: the 2x2 block (top_left, top_right, bottom_left,
    bottom_right) behind entry (i, j) of the condensation at (k, l).

    ``i`` and ``j`` run over 1..n-1.  Indices at or past the pivot row
    (column) skip over it, and the pivot row/column supplies the
    anchoring entries; the four quadrants differ only in which of the
    two rows (columns) comes first:

        j < l, i < k:   [[a(i,j),  a(i,l)],  [a(k,j),   a(k,l)]]
        j >= l, i < k:  [[a(i,l),  a(i,j+1)],[a(k,l),   a(k,j+1)]]
        j < l, i >= k:  [[a(k,j),  a(k,l)],  [a(i+1,j), a(i+1,l)]]
        j >= l, i >= k: [[a(k,l),  a(k,j+1)],[a(i+1,l), a(i+1,j+1)]]
    """
    a = m.get
    if i < k:
        if j < l:
            return (a(i, j), a(i, l), a(k, j), a(k, l))
        return (a(i, l), a(i, j + 1), a(k, l), a(k, j + 1))
    if j < l:
        return (a(k, j), a(k, l), a(i + 1, j), a(i + 1, l))
    return (a(k, l), a(k, j + 1), a(i + 1, l), a(i + 1, j + 1))


def reference_condense(m, k, l):
    """Condensed entries at (k, l), one block determinant at a time."""
    n = m.rows
    blocks = [[pivot_block(m, k, l, i, j) for j in range(1, n)] for i in range(1, n)]
    return [[tl * br - tr * bl for tl, tr, bl, br in row] for row in blocks]


def same_entries(condensed, reference):
    # repr comparison: bit-identical floats, signed zeros included
    return repr(condensed.to_rows()) == repr(reference)


# --- the 2x2 block layout ------------------------------------------------

def test_pivot_block_literal_case_table():
    # positional entries a(i,j) = 100*i + j make each case table row
    # checkable by eye
    n = 5
    m = Matrix([[100 * i + j for j in range(1, n + 1)] for i in range(1, n + 1)], INTEGER)
    k, l = 3, 3
    a = lambda i, j: 100 * i + j
    # j < l, i < k
    assert tuple(pivot_block(m, k, l, 2, 1)) == (a(2, 1), a(2, 3), a(3, 1), a(3, 3))
    # j >= l, i < k   (j skips over the pivot column)
    assert tuple(pivot_block(m, k, l, 2, 3)) == (a(2, 3), a(2, 4), a(3, 3), a(3, 4))
    # j < l, i >= k   (i skips over the pivot row)
    assert tuple(pivot_block(m, k, l, 3, 2)) == (a(3, 2), a(3, 3), a(4, 2), a(4, 3))
    # j >= l, i >= k
    assert tuple(pivot_block(m, k, l, 4, 4)) == (a(3, 3), a(3, 5), a(5, 3), a(5, 5))


def test_pivot_block_det_orientation():
    m = Matrix([[1, 2], [3, 4]], INTEGER)
    assert pivot_block(m, 1, 1, 1, 1) == (1, 2, 3, 4)
    # the condensed entry is top_left*bottom_right - top_right*bottom_left
    assert condense_at(m, PivotSpec(1, 1)).condensed.to_rows() == [[1 * 4 - 2 * 3]]
    assert reference_condense(m, 1, 1) == [[1 * 4 - 2 * 3]]


# --- corner condensation -------------------------------------------------

def test_condense_at_11_worked_example():
    m = Matrix([[2, 1, 3], [4, 5, 6], [7, 8, 10]], INTEGER)
    step = condense_at_11(m)
    assert step.condensed.to_rows() == [[6, 0], [9, -1]]
    assert step.pivot == PivotSpec(1, 1)
    assert step.pivot_value == 2
    # 2**(3-2) * det(m) = det(condensed):  2 * -3 = -6
    assert det_cofactor(step.condensed) == 2 * det_cofactor(m)


def test_condense_at_11_golden_spot_values():
    step = condense_at_11(golden_matrix())
    c = step.condensed
    assert (c.rows, c.cols) == (6, 6)
    for j in range(1, 7):
        assert abs(c.get(1, j) - GOLDEN_CONDENSED[0][j - 1]) < 1e-12
    assert abs(c.get(3, 3) - GOLDEN_CONDENSED[2][2]) < 1e-12
    assert abs(c.get(6, 6) - GOLDEN_CONDENSED[5][5]) < 1e-12
    assert step.pivot_value ** 5 == GOLDEN_FACTOR


def test_condense_identity_at_corner_exact():
    # a(1,1)**(n-2) * det(A) = det(condensed), exactly over rationals
    rng = random.Random(400)
    for _ in range(80):
        n = rng.randint(3, 8)
        m = random_rat_matrix(rng, n)
        step = condense_at_11(m)
        assert step.pivot_value ** (n - 2) * det_bareiss(m) == det_bareiss(step.condensed)


def test_zero_corner_gives_singular_condensed():
    rng = random.Random(401)
    for _ in range(40):
        n = rng.randint(3, 7)
        rows = random_rat_matrix(rng, n).to_rows()
        rows[0][0] = Fraction(0)
        m = Matrix(rows, RATIONAL)
        step = condense_at_11(m)
        assert det_bareiss(step.condensed) == 0


def test_condense_at_11_minimum_size():
    step = condense_at_11(Matrix([[2, 5], [0, 1]], INTEGER))
    assert step.condensed.to_rows() == [[2]]
    with pytest.raises(ValueError):
        condense_at_11(Matrix([[3]], INTEGER))


def test_condensation_is_bilinear_in_scaling():
    # scaling the source by c scales every condensed entry by c**2
    rng = random.Random(402)
    for _ in range(30):
        n = rng.randint(3, 6)
        m = random_rat_matrix(rng, n)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        scaled = Matrix([[c * v for v in row] for row in m.to_rows()], RATIONAL)
        lhs = condense_at_11(scaled).condensed
        rhs = condense_at_11(m).condensed
        assert lhs.to_rows() == [[c * c * v for v in row] for row in rhs.to_rows()]


# --- general-pivot condensation ------------------------------------------

def test_condense_at_corner_matches_condense_at_11():
    rng = random.Random(403)
    for kind in (RATIONAL, INTEGER, FLOAT):
        for _ in range(25):
            n = rng.randint(2, 6)
            m = random_matrix(rng, n, kind)
            corner = condense_at_11(m).condensed
            assert condense_at(m, PivotSpec(1, 1)).condensed == corner
            assert same_entries(corner, reference_condense(m, 1, 1))


def test_condense_at_identity_all_pivots():
    # every pivot, every kind: entries match the reference layout bit
    # for bit; over exact kinds also
    # a(k,l)**(n-2) * det(A) = det(condensed at (k,l))
    rng = random.Random(404)
    for kind in (RATIONAL, INTEGER, FLOAT):
        for _ in range(25):
            n = rng.randint(3, 5)
            m = random_matrix(rng, n, kind)
            det = det_bareiss(m)
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    step = condense_at(m, PivotSpec(k, l))
                    assert (step.condensed.rows, step.condensed.cols) == (n - 1, n - 1)
                    assert same_entries(step.condensed, reference_condense(m, k, l)), f"pivot ({k},{l})"
                    if kind is not FLOAT:
                        assert step.pivot_value ** (n - 2) * det == det_bareiss(step.condensed), (
                            f"pivot ({k},{l})"
                        )


@pytest.mark.parametrize("n", [3, 4])
def test_condense_identity_holds_symbolically(n):
    # a(k,l)**(n-2) * det(A) = det(condensed at (k,l)) as a polynomial
    # identity in the n*n entries of A, at every pivot: a proof for
    # these sizes, not a sample.
    sympy = pytest.importorskip("sympy")
    a = sympy.Matrix(n, n, lambda i, j: sympy.Symbol(f"a{i + 1}{j + 1}"))
    det = a.det()
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            condensed = sympy.Matrix(_condense_rows(a.tolist(), k - 1, l - 1))
            residual = a[k - 1, l - 1] ** (n - 2) * det - condensed.det()
            assert sympy.expand(residual) == 0, f"pivot ({k},{l})"


# A prime above any entry the points below draw: by Schwartz-Zippel, a
# nonzero polynomial of degree d vanishes at a uniformly random point of
# (Z/p)^(n*n) with probability at most d/p, here below 2**-50.
PRIME = 2**61 - 1


def det_mod(rows, p: int) -> int:
    """det(rows) modulo the prime p, by Gaussian elimination over Z/p."""
    a = [[v % p for v in row] for row in rows]
    n, det = len(a), 1
    for c in range(n):
        r = next((r for r in range(c, n) if a[r][c]), None)
        if r is None:
            return 0
        if r != c:
            a[c], a[r] = a[r], a[c]
            det = -det
        det = det * a[c][c] % p
        inverse = pow(a[c][c], -1, p)
        for r in range(c + 1, n):
            factor = a[r][c] * inverse % p
            a[r] = [(x - factor * y) % p for x, y in zip(a[r], a[c])]
    return det % p


@pytest.mark.parametrize("n", range(3, 25))
def test_condense_identity_holds_modulo_a_prime(n):
    # a(k,l)**(n-2) * det(A) = det(condensed at (k,l)) at a random point
    # mod PRIME: every pivot for n <= 10, above that pivots in odd and
    # even columns, since a sign fault confined to the columns left of
    # the pivot shows only when their number is odd.
    rng = random.Random(n)
    a = [[rng.randrange(PRIME) for _ in range(n)] for _ in range(n)]
    det = det_mod(a, PRIME)
    if n <= 10:
        pivots = [(k, l) for k in range(n) for l in range(n)]
    else:
        pivots = [(rng.randrange(n), rng.randrange(parity, n, 2)) for parity in (0, 1, 0, 1)]
    for k, l in pivots:
        lhs = pow(a[k][l], n - 2, PRIME) * det % PRIME
        assert lhs == det_mod(_condense_rows(a, k, l), PRIME), f"pivot ({k + 1},{l + 1})"


def test_condense_at_zero_pivot_vanishes():
    # With a zero pivot the identity degenerates: the condensed matrix
    # must be singular.  Exploratory extension of the pivot identity;
    # not wired into any gate.
    rng = random.Random(406)
    for _ in range(40):
        n = rng.randint(3, 5)
        rows = random_rat_matrix(rng, n).to_rows()
        k = rng.randint(1, n)
        l = rng.randint(1, n)
        rows[k - 1][l - 1] = Fraction(0)
        m = Matrix(rows, RATIONAL)
        step = condense_at(m, PivotSpec(k, l))
        assert det_bareiss(step.condensed) == 0


def test_condense_at_rejects_bad_pivot():
    m = Matrix([[1, 2], [3, 4]], INTEGER)
    with pytest.raises(IndexError):
        condense_at(m, PivotSpec(3, 1))
    with pytest.raises(ValueError):
        condense_at(Matrix([[1]], INTEGER), PivotSpec(1, 1))


# --- Dodgson minor identity ----------------------------------------------

def test_dodgson_residual_two_by_two():
    m = Matrix([[3, 7], [2, 5]], INTEGER)
    assert dodgson_identity_residual(m, 1, 2) == 0


def test_dodgson_residual_zero_on_exact_kinds():
    rng = random.Random(407)
    for _ in range(40):
        n = rng.randint(3, 6)
        m = random_rat_matrix(rng, n)
        for k in range(1, n + 1):
            for l in range(k + 1, n + 1):
                assert dodgson_identity_residual(m, k, l) == 0, f"(k,l)=({k},{l})"


def test_dodgson_residual_float_golden():
    from condet import remove_rows_cols

    m = golden_matrix()
    residual = dodgson_identity_residual(m, 6, 7)
    lhs = det_bareiss(m) * det_bareiss(remove_rows_cols(m, (6, 7), (6, 7)))
    assert abs(residual) <= 1e-9 * max(1.0, abs(lhs))


def test_dodgson_rejects_bad_pairs():
    m = Matrix([[1, 2], [3, 4]], INTEGER)
    with pytest.raises(ValueError):
        dodgson_identity_residual(m, 2, 1)
    with pytest.raises(ValueError):
        dodgson_identity_residual(m, 1, 3)
    with pytest.raises(ValueError, match="needs size >= 2, got 1"):
        dodgson_identity_residual(Matrix([[5]], INTEGER), 1, 2)


# --- pivot selection -------------------------------------------------------

def test_select_pivot_first_nonzero():
    assert select_pivot((0, 0, 3, 1), PivotStrategy.FIRST_NONZERO) == 3
    assert select_pivot((7,), PivotStrategy.FIRST_NONZERO) == 1
    assert select_pivot((0, 0), PivotStrategy.FIRST_NONZERO) is None


def test_select_pivot_max_magnitude():
    assert select_pivot((1, -5, 2), PivotStrategy.MAX_MAGNITUDE) == 2
    assert select_pivot((Fraction(1, 2), Fraction(-1, 2)), PivotStrategy.MAX_MAGNITUDE) == 1
    assert select_pivot((0, 0.0), PivotStrategy.MAX_MAGNITUDE) is None
    # ties keep the lowest column
    assert select_pivot((3, -3, 1), PivotStrategy.MAX_MAGNITUDE) == 1


def test_select_pivot_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="unknown pivot strategy 'first-nonzero'"):
        select_pivot((1, 2), "first-nonzero")


# --- the condensation determinant driver -----------------------------------

def test_det_condensation_trivial_sizes():
    assert det_condensation(Matrix([], INTEGER)).value == 1
    assert det_condensation(Matrix([[9]], INTEGER)).value == 9
    result = det_condensation(Matrix([[2, 5], [0, 1]], INTEGER))
    assert result.value == 2
    assert result.trace == ()
    assert result.op_counts == OpCounts(multiplications=2, subtractions=1, divisions=0)


def test_det_condensation_worked_example():
    result = det_condensation(Matrix([[2, 1, 3], [4, 5, 6], [7, 8, 10]], INTEGER))
    assert result.value == -3
    assert len(result.trace) == 1
    step = result.trace[0]
    assert isinstance(step, CondensationStep)
    assert step.condensed.to_rows() == [[6, 0], [9, -1]]


def test_det_condensation_matches_cofactor_on_integers():
    rng = random.Random(408)
    for _ in range(60):
        n = rng.randint(3, 8)
        m = random_int_matrix(rng, n)
        result = det_condensation(m)
        assert result.value == det_cofactor(m)
        assert len(result.trace) <= n - 2


def test_det_condensation_matches_bareiss_on_rationals():
    rng = random.Random(409)
    for _ in range(20):
        n = rng.randint(3, 9)
        m = random_rat_matrix(rng, n)
        assert det_condensation(m).value == det_bareiss(m)


def test_det_condensation_zero_first_row():
    rng = random.Random(410)
    rows = random_int_matrix(rng, 5).to_rows()
    rows[0] = [0, 0, 0, 0, 0]
    m = Matrix(rows, INTEGER)
    result = det_condensation(m)
    assert result.value == 0
    assert result.trace == (ZeroRowExit(5),)
    assert det_cofactor(m) == 0


def test_det_condensation_zero_row_surfacing_mid_recursion():
    # two proportional leading rows zero out the first condensed row
    # one level down
    m = Matrix(
        [
            [1, 2, 3, 4],
            [2, 4, 6, 8],
            [5, 1, 0, 2],
            [3, 3, 3, 3],
        ],
        INTEGER,
    )
    result = det_condensation(m)
    assert result.value == 0
    assert any(isinstance(s, ZeroRowExit) for s in result.trace)
    assert det_cofactor(m) == 0


def test_det_condensation_float_golden_first_step():
    m = golden_matrix()
    result = det_condensation(m)
    step = result.trace[0]
    for i in range(1, 7):
        for j in range(1, 7):
            assert abs(step.condensed.get(i, j) - GOLDEN_CONDENSED[i - 1][j - 1]) <= 1e-9
    reference = det_bareiss(m)
    assert abs(result.value - reference) <= 1e-9 * max(1.0, abs(reference))


def test_det_condensation_pivot_skips_leading_zero():
    # a(1,1) = 0 forces the pivot to a later column; the value must
    # still be exact
    rng = random.Random(411)
    for _ in range(30):
        n = rng.randint(3, 6)
        rows = random_int_matrix(rng, n).to_rows()
        rows[0][0] = 0
        m = Matrix(rows, INTEGER)
        result = det_condensation(m)
        assert result.value == det_cofactor(m)
        first = result.trace[0]
        if isinstance(first, CondensationStep):
            assert first.pivot.k == 1
            assert first.pivot.l >= 2


def test_det_condensation_strategies_agree():
    rng = random.Random(412)
    for _ in range(30):
        n = rng.randint(3, 7)
        m = random_rat_matrix(rng, n)
        a = det_condensation(m, PivotStrategy.FIRST_NONZERO)
        b = det_condensation(m, PivotStrategy.MAX_MAGNITUDE)
        assert a.value == b.value


def test_det_condensation_trace_off_keeps_value_and_counts():
    rng = random.Random(413)
    m = random_int_matrix(rng, 6)
    on = det_condensation(m, record_trace=True)
    off = det_condensation(m, record_trace=False)
    assert off.trace == ()
    assert off.value == on.value
    assert off.op_counts == on.op_counts


def test_det_condensation_op_counts_integer():
    # over an exact kind: per level of size s, 2*(s-1)**2 block
    # multiplications, plus s-3 pivot-power multiplications and one
    # division; plus the closed-form 2x2 base (2 mults, 1 sub).
    # Max-magnitude pivots land past column 1, so both strategies run.
    rng = random.Random(414)
    for strategy in PivotStrategy:
        for n in range(3, 9):
            m = random_int_matrix(rng, n)
            result = det_condensation(m, strategy)
            if any(isinstance(s, ZeroRowExit) for s in result.trace):
                continue
            expected_mults = sum(2 * (s - 1) ** 2 for s in range(3, n + 1)) + 2
            expected_mults += sum(s - 3 for s in range(3, n + 1))
            expected_subs = sum((s - 1) ** 2 for s in range(3, n + 1)) + 1
            assert result.op_counts.multiplications == expected_mults
            assert result.op_counts.subtractions == expected_subs
            assert result.op_counts.divisions == n - 2


def test_det_condensation_op_counts_float_divides_per_level():
    # floats divide repeatedly instead of building pivot powers
    rng = random.Random(415)
    n = 6
    m = Matrix([[float(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)], FLOAT)
    result = det_condensation(m)
    assert not any(isinstance(s, ZeroRowExit) for s in result.trace)
    assert result.op_counts.divisions == sum(s - 2 for s in range(3, n + 1))
    expected_mults = sum(2 * (s - 1) ** 2 for s in range(3, n + 1)) + 2
    assert result.op_counts.multiplications == expected_mults


def test_det_condensation_levels_divide_at_return():
    # each recorded condensed matrix carries undivided entries: its
    # determinant equals pivot**(s-2) times the determinant one level up
    rng = random.Random(416)
    m = random_rat_matrix(rng, 6)
    result = det_condensation(m)
    level_value = det_bareiss(m)
    size = 6
    for step in result.trace:
        assert isinstance(step, CondensationStep)
        below = det_bareiss(step.condensed)
        assert below == step.pivot_value ** (size - 2) * level_value
        level_value = below
        size -= 1


# Zero-heavy entries, so that some levels have their pivot past column 1.
KIND_ENTRIES = {
    RATIONAL: st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))),
    INTEGER: st.one_of(st.just(0), st.integers(-9, 9)),
    FLOAT: st.one_of(st.just(0.0), st.floats(-9, 9)),
}


@pytest.mark.parametrize("kind", [RATIONAL, INTEGER, FLOAT], ids=lambda k: k.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_trace_step_is_condense_at_of_the_level_before(kind, data):
    n = data.draw(st.integers(3, 7))
    m = Matrix([[data.draw(KIND_ENTRIES[kind]) for _ in range(n)] for _ in range(n)], kind)
    for strategy in PivotStrategy:
        level = m
        for step in det_condensation(m, strategy).trace:
            if isinstance(step, ZeroRowExit):
                break
            assert step == condense_at(level, step.pivot)
            level = step.condensed


def test_det_condensation_rejects_non_square():
    with pytest.raises(ValueError):
        det_condensation(Matrix([[1, 2, 3], [4, 5, 6]], INTEGER))


# --- trace serialization ---------------------------------------------------

def test_trace_document_round_trip():
    rng = random.Random(417)
    for kind_name, make in (
        ("rational", lambda: random_rat_matrix(rng, 5)),
        ("integer", lambda: random_int_matrix(rng, 5)),
    ):
        m = make()
        result = det_condensation(m)
        doc = trace_document(m, result)
        assert doc["scalar_kind"] == kind_name
        m2, value2, steps2 = trace_from_document(doc)
        assert m2 == m
        assert value2 == result.value
        assert steps2 == result.trace


def test_trace_document_zero_row_marker():
    m = Matrix([[0, 0, 0], [1, 2, 3], [4, 5, 6]], INTEGER)
    result = det_condensation(m)
    doc = trace_document(m, result)
    assert doc["steps"] == [{"kind": "zero-row", "size": 3}]
    _, value, steps = trace_from_document(doc)
    assert value == 0
    assert steps == (ZeroRowExit(3),)


def test_trace_document_rejects_foreign_format():
    with pytest.raises(ValueError):
        trace_from_document({"format": "something-else"})


def test_trace_document_rejects_negative_dimensions():
    m = Matrix([[1, 2], [3, 4]], INTEGER)
    doc = trace_document(m, det_condensation(m))
    doc["matrix"].update(rows=-2, cols=-2)
    with pytest.raises(ValueError, match="rows = -2"):
        trace_from_document(doc)


def test_trace_document_rejects_non_object():
    with pytest.raises(ValueError, match="^trace document: must be a JSON object, got list$"):
        trace_from_document([])


MISSING = object()


@pytest.mark.parametrize(
    "step, field, value, message",
    [
        (None, "steps", MISSING, "trace document: missing 'steps'"),
        (None, "steps", {"kind": "condense"}, "trace document: 'steps' must be a list, got {'kind': 'condense'}"),
        (None, "value", MISSING, "trace document: missing 'value'"),
        (None, "value", 7, "trace document: 'value' must be a string, got 7"),
        (None, "value", "x", "trace document: 'value': not an integer scalar: 'x'"),
        (0, None, 5, "trace step 1: must be a JSON object, got int"),
        (0, "pivot", MISSING, "trace step 1: missing 'pivot'"),
        (0, "pivot", 5, "trace step 1: 'pivot' must be a pair of integers >= 1, got 5"),
        (0, "pivot", [1], "trace step 1: 'pivot' must be a pair of integers >= 1, got [1]"),
        (0, "pivot", [1, "1"], "trace step 1: 'pivot' must be a pair of integers >= 1, got [1, '1']"),
        (0, "pivot", [1, 1.0], "trace step 1: 'pivot' must be a pair of integers >= 1, got [1, 1.0]"),
        (0, "pivot", [0, -3], "trace step 1: 'pivot' must be a pair of integers >= 1, got [0, -3]"),
        (0, "pivot", [1, 4], "trace step 1: 'pivot' must lie within its size-3 level, got [1, 4]"),
        (0, "pivot", [4, 1], "trace step 1: 'pivot' must lie within its size-3 level, got [4, 1]"),
        (0, "sign", 2, "trace step 1: 'sign' must be 1, got 2"),
        (0, "sign", True, "trace step 1: 'sign' must be 1, got True"),
        (0, "sign", "1", "trace step 1: 'sign' must be 1, got '1'"),
        (0, "sign", -1, "trace step 1: 'sign' must be 1, got -1"),
        (0, "pivot_value", 7, "trace step 1: 'pivot_value' must be a string, got 7"),
        (0, "pivot_value", None, "trace step 1: 'pivot_value' must be a string, got None"),
        (0, "pivot_value", "1/2", "trace step 1: 'pivot_value': not an integer scalar (fractional text): '1/2'"),
        (None, "scalar_kind", "complex", "unknown scalar kind 'complex'"),
        (0, "kind", "rotate", "unknown trace step kind 'rotate'"),
        (None, "scalar_kind", ["integer"], "unknown scalar kind ['integer']"),
        (None, "scalar_kind", MISSING, "trace document: missing 'scalar_kind'"),
        (None, "matrix", MISSING, "trace document: missing 'matrix'"),
        (0, "condensed", MISSING, "trace step 1: missing 'condensed'"),
        (0, "kind", ["condense"], "unknown trace step kind ['condense']"),
        (None, "format", ["condensation-trace/1"], "not a condensation-trace/1 document: format=['condensation-trace/1']"),
    ],
)
def test_trace_document_rejects_malformed_fields(step, field, value, message):
    m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]], INTEGER)
    doc = trace_document(m, det_condensation(m))
    if field is None:
        doc["steps"][step] = value
    else:
        target = doc if step is None else doc["steps"][step]
        if value is MISSING:
            del target[field]
        else:
            target[field] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        trace_from_document(doc)


@pytest.mark.parametrize(
    "where, message",
    [
        ("document", "trace document: unknown key 'extra'; known keys: format, scalar_kind, matrix, steps, value"),
        ("condense step", "trace step 1: unknown key 'extra'; known keys: kind, pivot, pivot_value, sign, condensed"),
        ("zero-row step", "trace step 1: unknown key 'extra'; known keys: kind, size"),
        ("matrix", "trace matrix: unknown key 'extra'; known keys: rows, cols, entries"),
        ("condensed", "trace step 1 condensed matrix: unknown key 'extra'; known keys: rows, cols, entries"),
    ],
)
def test_trace_document_refuses_unknown_keys(where, message):
    rows = [[0, 0, 0], [1, 2, 3], [4, 5, 6]] if where == "zero-row step" else [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    m = Matrix(rows, INTEGER)
    doc = trace_document(m, det_condensation(m))
    step = doc["steps"][0]
    target = {"document": doc, "matrix": doc["matrix"], "condensed": step.get("condensed")}.get(where, step)
    target["extra"] = 1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        trace_from_document(doc)


@pytest.mark.parametrize(
    "value, message",
    [
        (MISSING, "trace step 1: missing 'size'"),
        ("3", "trace step 1: 'size' must be an integer >= 3, got '3'"),
        (3.0, "trace step 1: 'size' must be an integer >= 3, got 3.0"),
        (False, "trace step 1: 'size' must be an integer >= 3, got False"),
        (-5, "trace step 1: 'size' must be an integer >= 3, got -5"),
        (2, "trace step 1: 'size' must be an integer >= 3, got 2"),
    ],
)
def test_trace_document_rejects_malformed_zero_row_size(value, message):
    m = Matrix([[0, 0, 0], [1, 2, 3], [4, 5, 6]], INTEGER)
    doc = trace_document(m, det_condensation(m))
    if value is MISSING:
        del doc["steps"][0]["size"]
    else:
        doc["steps"][0]["size"] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        trace_from_document(doc)


@pytest.mark.parametrize(
    "where, field, value, message",
    [
        ("matrix", "entries", ["1", 2, "3", "4"], r"trace matrix: entry 2 \(row-major\): must be a string, got 2"),
        ("matrix", "rows", None, "trace matrix: missing 'rows'"),
        ("matrix", "entries", "1234", "trace matrix: 'entries' must be a list, got '1234'"),
        ("matrix", "cols", "2", "trace matrix: 'cols' must be an integer, got '2'"),
        ("step", "entries", ["x"], r"trace step 1 condensed matrix: entry 1 \(row-major\): not an integer"),
        ("step", "rows", None, "trace step 1 condensed matrix: missing 'rows'"),
    ],
)
def test_trace_document_rejects_malformed_matrices(where, field, value, message):
    m = Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]], INTEGER)
    doc = trace_document(m, det_condensation(m))
    target = doc["matrix"] if where == "matrix" else doc["steps"][0]["condensed"]
    if value is None:
        del target[field]
    else:
        target[field] = value
    with pytest.raises(ValueError, match=message):
        trace_from_document(doc)
