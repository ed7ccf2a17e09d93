"""Condensation steps, the pivot-power determinant identities, the
Dodgson minor identity, and the condensation determinant driver."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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
    SplitMix64,
    ZeroRowExit,
    bit_length,
    condense_at,
    condense_at_11,
    det_bareiss,
    det_cofactor,
    det_condensation,
    dodgson_identity_residual,
    hadamard_bit_bound,
    random_integer_matrix,
    random_rational_matrix,
    select_pivot,
    trace_document,
    trace_from_document,
)
from condet.condense import _condense_rows, _divided_levels
from condet.oracle import _LEVEL_BUDGET
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=repr)
def test_det_condensation_of_a_non_finite_1x1_raises_as_bareiss_does(value):
    # A 1x1 goes through the integer rows as every larger size does, so
    # it is refused, not returned as a determinant.
    m = Matrix([[value]], FLOAT)
    with pytest.raises((ValueError, OverflowError)) as bareiss:
        det_bareiss(m)
    for record_trace in (True, False):
        with pytest.raises(type(bareiss.value), match=f"^{re.escape(str(bareiss.value))}$"):
            det_condensation(m, record_trace=record_trace)


@pytest.mark.parametrize("kind, value", [(INTEGER, -7), (RATIONAL, Fraction(-3, 6)), (FLOAT, -0.0)],
                         ids=["integer", "rational", "float"])
def test_det_condensation_of_a_1x1_is_what_bareiss_returns(kind, value):
    m = Matrix([[value]], kind)
    for record_trace in (True, False):
        assert repr(det_condensation(m, record_trace=record_trace).value) == repr(det_bareiss(m))


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
    # A float trace records each entry of its exact levels rounded once,
    # and its value is the correctly rounded determinant, as Bareiss's is.
    m = golden_matrix()
    result = det_condensation(m)
    step = result.trace[0]
    exact = _condense_rows([[Fraction(v) for v in row] for row in m.as_tuples()], 0, step.pivot.l - 1)
    for i in range(1, 7):
        for j in range(1, 7):
            assert step.condensed.get(i, j) == float(exact[i - 1][j - 1])
            assert abs(step.condensed.get(i, j) - GOLDEN_CONDENSED[i - 1][j - 1]) <= 1e-9
    assert result.value == det_bareiss(m)


@pytest.mark.parametrize("kind, n", [(INTEGER, 18), (RATIONAL, 12), (FLOAT, 12)], ids=lambda v: getattr(v, "name", v))
def test_seeded_traced_runs_stay_under_the_level_budget(kind, n):
    # The library default traces undivided levels, whose bits double; the
    # benchmark's probes trace integer 18x18s and rational and quarter
    # 12x12s, which must stay under the per-level budget.  For integer
    # rows a level's weight is size**2 times the bits of its row 1.
    gen = SplitMix64(1000 + n)
    for _ in range(20):
        if kind is INTEGER:
            m = random_integer_matrix(n, 9, gen.split())
        elif kind is RATIONAL:
            m = random_rational_matrix(n, gen.split())
        else:
            m = Matrix([[gen.int_in(-36, 36) / 4 for _ in range(n)] for _ in range(n)], FLOAT)
        result = det_condensation(m)
        assert result.value == det_bareiss(m)
        if kind is INTEGER:
            levels = [m] + [step.condensed for step in result.trace if isinstance(step, CondensationStep)]
            weight = max(level.rows**2 * max(64, max(map(abs, level.as_tuples()[0])).bit_length()) for level in levels)
            assert weight <= _LEVEL_BUDGET // 2


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
    # Untraced, the run is the divided one: the same value, no trace,
    # and the op counts of three two-level passes (see divided_op_counts).
    rng = random.Random(413)
    m = random_int_matrix(rng, 6)
    on = det_condensation(m, record_trace=True)
    off = det_condensation(m, record_trace=False)
    assert off.trace == ()
    assert off.value == on.value
    assert off.op_counts == divided_op_counts(6)


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
    # A float run is the rational run on the same values, rounded once:
    # one division per level, as over an exact kind, and the same counts.
    rng = random.Random(415)
    for strategy in PivotStrategy:
        for n in range(3, 9):
            halves = [[v / 2 for v in row] for row in random_int_matrix(rng, n).as_tuples()]
            rational = det_condensation(Matrix([[Fraction(v) for v in row] for row in halves], RATIONAL), strategy)
            result = det_condensation(Matrix(halves, FLOAT), strategy)
            assert result.op_counts == rational.op_counts
            if not any(isinstance(s, ZeroRowExit) for s in result.trace):
                assert result.op_counts.divisions == n - 2


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
}


@pytest.mark.parametrize("kind", [RATIONAL, INTEGER], ids=lambda k: k.name)
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


# Doubles of every scale: zeros, quarters, any double in [-9, 9], and
# magnitudes whose products leave the double range either way.
FLOAT_ENTRIES = st.one_of(
    st.just(0.0),
    st.integers(-36, 36).map(lambda q: q / 4),
    st.floats(-9, 9),
    st.sampled_from((1e-200, -1e-200, 1e200, -1e200, 1e-300, 1e300)),
)


def rounded(value: Fraction) -> float:
    """The IEEE rounding of an exact value: +-inf past the double range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


FLOAT_MATRICES = st.integers(2, 7).flatmap(
    lambda n: st.lists(st.lists(FLOAT_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=100, deadline=None)
@given(rows=FLOAT_MATRICES)
@example(rows=[[1e-20, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 1.0]])  # a tiny first pivot
@example(rows=[[1e-200, 0.0, 0.0, 0.0], [0.0, 1e-200, 0.0, 0.0], [0.0, 0.0, 1e200, 0.0], [0.0, 0.0, 0.0, 1e200]])
@example(rows=[[1e200, 1.0, 0.0], [1.0, 1e200, 0.0], [0.0, 0.0, 1e-200]])  # an entry past the range
def test_float_trace_is_the_rounded_rational_trace(rows):
    # A float run is the run on the Fraction values of its doubles with
    # every scalar rounded once: the same steps and pivots, each pivot
    # value and entry the IEEE rounding of the rational one (0.0 or a
    # subnormal on underflow, +-inf past the range), and the value
    # float() of the rational value, or OverflowError where it has none.
    exact = Matrix([[Fraction(v) for v in row] for row in rows], RATIONAL)
    m = Matrix(rows, FLOAT)
    for strategy in PivotStrategy:
        want = det_condensation(exact, strategy)
        try:
            value = float(want.value)
        except OverflowError:
            with pytest.raises(OverflowError, match=r"past the double range \(up to 1\.8e308\)$"):
                det_condensation(m, strategy)
            continue
        got = det_condensation(m, strategy)
        assert repr(got.value) == repr(value), strategy
        assert len(got.trace) == len(want.trace), strategy
        for g, w in zip(got.trace, want.trace):
            assert type(g) is type(w), strategy
            if isinstance(w, ZeroRowExit):
                assert g == w, strategy
                continue
            assert g.pivot == w.pivot, strategy
            assert repr(g.pivot_value) == repr(rounded(w.pivot_value)), strategy
            texts = [[*map(repr, row)] for row in g.condensed.as_tuples()]
            assert texts == [[repr(rounded(v)) for v in row] for row in w.condensed.as_tuples()], strategy


def test_det_condensation_rejects_non_square():
    with pytest.raises(ValueError):
        det_condensation(Matrix([[1, 2, 3], [4, 5, 6]], INTEGER))


# --- divided condensation --------------------------------------------------

def check_divided_levels_are_minors(a, strategy, minor_det, reduce=lambda v: v, entries=None):
    """Step through the production loop ``_divided_levels`` on the
    integer rows ``a`` and assert that entry (r, c) of level t, reduced
    by ``reduce``, is ``minor_det`` of the minor of ``a`` on rows 1..t
    and t+1+r and on the columns of the t pivots so far plus the source
    column of c, in increasing order, with no sign.  A pass that goes
    down two levels also yields row 1 of the level between, and every
    entry of that row is checked.  Also asserts the entry bits of each
    level and row within ``hadamard_bit_bound(a)`` when ``a`` has no
    zero row.  ``entries(size)`` picks the cells to check of each built
    level (default: all).  Returns how many levels pivoted past column 1."""
    bound = hadamard_bit_bound(Matrix(a, INTEGER)) if all(any(row) for row in a) else None
    cols = list(range(len(a)))  # source column of each column of the level
    pivots = []
    moved = 0
    t = 0

    def check(t, level, cells):
        if bound is not None:
            # A minor is at most the product of its rows' norms.
            assert max(bit_length(v) for row in level for v in row) <= bound, f"level {t}"
        for r, c in cells:
            rows = list(range(t)) + [t + r]
            columns = sorted(pivots + [cols[c]])
            minor = minor_det([[a[i][j] for j in columns] for i in rows])
            assert reduce(level[r][c]) == minor, f"level {t}, entry ({r + 1},{c + 1})"

    for pass_pivots, row, level in _divided_levels(a, strategy, OpCounts()):
        for i, l in enumerate(pass_pivots):
            if i:  # row 1 of the level between the two of this pass
                check(t, [row], [(0, c) for c in range(len(row))])
            t += 1
            moved += l > 1
            pivots.append(cols.pop(l - 1))
        size = len(level)
        check(t, level, [(r, c) for r in range(size) for c in range(size)] if entries is None else entries(size))
    return moved


@pytest.mark.parametrize("strategy", list(PivotStrategy), ids=lambda s: s.value)
def test_divided_level_entries_are_minors_of_the_matrix(strategy):
    # Exactly, against Bareiss, on zero-heavy matrices so that pivots
    # move past column 1 and some levels stop at a zero first row.
    rng = random.Random(1801)
    moved = 0
    for _ in range(150):
        n = rng.randint(2, 7)
        a = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
        moved += check_divided_levels_are_minors(a, strategy, lambda rows: det_bareiss(Matrix(rows, INTEGER)))
    assert moved > 50


@pytest.mark.parametrize("n", range(3, 25))
def test_divided_level_entries_are_minors_modulo_a_prime(n):
    # The same identity at a random point mod PRIME (Schwartz-Zippel):
    # entry and minor are polynomials of degree t + 1 in the entries of
    # A once the pivots are fixed.  Row i starts with i % 3 zeros, so
    # first-nonzero pivots leave column 1 too.  Every entry up to
    # n = 10; above that two opposite corners and one random cell a level.
    rng = random.Random(1800 + n)
    a = [[0 if j < i % 3 else rng.randrange(1, PRIME) for j in range(n)] for i in range(n)]

    def sample(size):
        return {(0, 0), (size - 1, size - 1), (rng.randrange(size), rng.randrange(size))}

    moved = sum(
        check_divided_levels_are_minors(
            a, strategy, lambda rows: det_mod(rows, PRIME), lambda v: v % PRIME, None if n <= 10 else sample
        )
        for strategy in PivotStrategy
    )
    assert moved > 0


def divided_op_counts(n):
    """Op counts of a divided integer run that reaches its 1x1 level.

    A pass on a size-s level builds row 1 of the level below (s - 1
    entries of 2 products, 1 subtraction and 1 division), two
    coefficients per later row (the same again, 2(s - 2) of them) and
    (s - 2)**2 entries of 3 products, 2 additions and 1 division: per
    pass 3s^2 - 6s + 2 products, (2s - 3)(s - 1) subtractions and
    s^2 - s - 1 divisions.  A size-2 level is row 1 alone, so the forms
    hold there too.  Passes run on sizes n, n - 2, ... down to 2 or 3,
    and the first divides by 1, as Bareiss's first stage does."""
    sizes = range(n, 1, -2)
    return OpCounts(
        sum(3 * s * s - 6 * s + 2 for s in sizes),
        sum((2 * s - 3) * (s - 1) for s in sizes),
        sum(s * s - s - 1 for s in sizes),
    )


@pytest.mark.parametrize("kind", [INTEGER, RATIONAL], ids=lambda k: k.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_divided_condensation_matches_bareiss(kind, data):
    # Zero-heavy, with a(1,1) = 0, so that pivots lie past column 1.
    # Row k (0-based, 2 <= k <= n-2) may be zero, a copy of a row above
    # it or the sum of two rows above it: the first row of level k is
    # then a row of minors on rows 0..k, all zero, and the divided
    # levels stop before the 1x1 level.
    # Entries come from one seeded generator rather than a draw each, so
    # that a failure shrinks in seconds.
    n = data.draw(st.integers(2, 24))
    rng = data.draw(st.randoms(use_true_random=False))

    def entry():
        if rng.random() < 0.5:
            return kind.zero
        return rng.randint(-9, 9) if kind is INTEGER else Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    rows[0][0] = kind.zero
    defect = data.draw(st.sampled_from(["none", "zero", "duplicate", "sum"])) if n >= 4 else "none"
    if defect != "none":
        k = data.draw(st.integers(2, n - 2))
        i, j = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        rows[k] = {
            "zero": [kind.zero] * n,
            "duplicate": list(rows[i]),
            "sum": [a + b for a, b in zip(rows[i], rows[j])],
        }[defect]
    m = Matrix(rows, kind)
    expected = det_bareiss(m)
    full_run = divided_op_counts(n).subtractions
    for strategy in PivotStrategy:
        result = det_condensation(m, strategy, record_trace=False)
        assert result.value == expected
        if defect != "none":
            assert expected == 0
            assert result.op_counts.subtractions < full_run, "the levels did not stop early"


def mod_prime(v):
    """An integer or a Fraction as an element of Z/PRIME."""
    return v.numerator * pow(v.denominator, -1, PRIME) % PRIME


@pytest.mark.parametrize("kind", [INTEGER, RATIONAL], ids=lambda k: k.name)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_divided_condensation_matches_det_modulo_a_prime(kind, data):
    # det_mod eliminates over Z/PRIME with modular inverses: it shares no
    # division code with divided condensation, where Bareiss shares
    # _divmod_for.  A wrong answer D' passes only if PRIME divides
    # D' - D.  Entries are drawn from a seeded generator, zero with a
    # drawn chance, and one row may be zero, a copy of another row or the
    # sum of two others, anywhere in the matrix.
    n = data.draw(st.integers(1, 40))
    rng = data.draw(st.randoms(use_true_random=False))
    zeros = data.draw(st.sampled_from([0.0, 0.5, 0.9]))

    def entry():
        if rng.random() < zeros:
            return kind.zero
        return rng.randint(-9, 9) if kind is INTEGER else Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    defect = data.draw(st.sampled_from(["none", "zero", "duplicate", "sum"])) if n >= 3 else "none"
    if defect != "none":
        k, i, j = rng.sample(range(n), 3)
        rows[k] = {
            "zero": [kind.zero] * n,
            "duplicate": list(rows[i]),
            "sum": [a + b for a, b in zip(rows[i], rows[j])],
        }[defect]
    m = Matrix(rows, kind)
    expected = det_mod([[mod_prime(v) for v in row] for row in rows], PRIME)
    for strategy in PivotStrategy:
        value = det_condensation(m, strategy, record_trace=False).value
        assert mod_prime(value) == expected, strategy
        if defect != "none":
            assert value == 0, strategy


def test_divided_condensation_counts_what_it_does():
    # Odd n end on a 3x3 pass, even n on a size-2 level.  The values for
    # n = 2..8 are spelled out as well as computed.
    rng = random.Random(1802)
    pinned = {2: (2, 1, 1), 3: (11, 6, 5), 4: (28, 16, 12), 5: (58, 34, 24)}
    pinned.update({6: (102, 61, 41), 7: (165, 100, 65), 8: (248, 152, 96)})
    for n in range(2, 9):
        m = random_int_matrix(rng, n)
        result = det_condensation(m, record_trace=False)
        assert result.trace == ()
        assert result.value == det_bareiss(m)
        assert result.op_counts == divided_op_counts(n) == OpCounts(*pinned[n]), n


@pytest.mark.parametrize("n", range(10, 41, 5))
def test_divided_float_condensation_is_accurate_past_n_9(n):
    # One-decimal entries in [-9, 9]; the reference is the exact
    # determinant of the doubles themselves, rounded once.
    rng = random.Random(1803 + n)
    rows = [[round(rng.uniform(-9, 9), 1) for _ in range(n)] for _ in range(n)]
    exact = det_bareiss(Matrix([[Fraction(v) for v in row] for row in rows], RATIONAL))
    m = Matrix(rows, FLOAT)
    for strategy in PivotStrategy:
        value = det_condensation(m, strategy, record_trace=False).value
        assert repr(value) == repr(float(exact)), strategy


def float_rows(n, center):
    """n x n rows of doubles +-m * 2**e, m a 53-bit odd integer and e
    within 200 of ``center``, one entry in five zero."""
    entry = st.builds(
        lambda sign, m, e: sign * math.ldexp(m, center + e),
        st.sampled_from((-1, 1, -1, 1, 0)),
        st.integers(2**52, 2**53 - 1).map(lambda m: m | 1),
        st.integers(-200, 200),
    )
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


# Entries near 1e20 at n = 10: the minors near the end are near 1e168,
# so their products leave the double range, though det(A), near 1e210,
# does not.
WIDE_ROWS = [[v * 1e20 for v in row] for row in random_int_matrix(random.Random(1805), 10).to_rows()]


@settings(max_examples=150, deadline=None)
@given(rows=st.tuples(st.integers(1, 6), st.integers(-400, 300)).flatmap(lambda nc: float_rows(*nc)))
@example(rows=WIDE_ROWS)
@example(rows=[[math.ldexp(2**53 - 1, -590), 1.0], [0.0, math.ldexp(2**52 + 1, -540)]])  # a subnormal det
def test_untraced_float_det_is_the_correctly_rounded_exact_value(rows):
    # The reference is the exact determinant of the doubles, rounded
    # once by float(): bit for bit, signed zeros and subnormals included,
    # or an OverflowError past the double range.
    exact = det_bareiss(Matrix([[Fraction(v) for v in row] for row in rows], RATIONAL))
    m = Matrix(rows, FLOAT)
    try:
        want = float(exact)
    except OverflowError:
        for strategy in PivotStrategy:
            with pytest.raises(OverflowError, match=r"past the double range \(up to 1\.8e308\)$"):
                det_condensation(m, strategy, record_trace=False)
        return
    for strategy in PivotStrategy:
        assert repr(det_condensation(m, strategy, record_trace=False).value) == repr(want), strategy


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
        # repr of a pair holding an int past the int/str digit limit raises
        (0, "pivot", [1, 10**5000], "trace step 1: 'pivot' must lie within its size-3 level,"
                                    " got a list holding an int past the int/str digit limit"),
        (0, "pivot", [0, 10**5000], "trace step 1: 'pivot' must be a pair of integers >= 1,"
                                    " got a list holding an int past the int/str digit limit"),
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
        # Shaped as claimed: a count that does not match is refused before any entry is read.
        ("matrix", "entries", ["1", 2] + ["3"] * 7, r"trace matrix: entry 2 \(row-major\): must be a string, got 2"),
        ("matrix", "rows", None, "trace matrix: missing 'rows'"),
        ("matrix", "entries", "1234", "trace matrix: 'entries' must be a list, got '1234'"),
        ("matrix", "cols", "2", "trace matrix: 'cols' must be an integer, got '2'"),
        ("step", "entries", ["x", "1", "1", "1"], r"trace step 1 condensed matrix: entry 1 \(row-major\): not an integer"),
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


def _chain_cases():
    # (source rows, edit of the trace document, message); each edit
    # breaks the rule that step i condenses the level step i - 1 built.
    square = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    zero_row = [[0, 0, 0], [1, 2, 3], [4, 5, 6]]

    def condensed(rows, cols):
        return lambda doc: doc["steps"][0].update(condensed={"rows": rows, "cols": cols, "entries": ["1"] * (rows * cols)})

    return [
        (square, condensed(1, 3), "trace step 1: 'condensed' must be 2x2, one size below its size-3 level, got 1x3"),
        (square, condensed(3, 3), "trace step 1: 'condensed' must be 2x2, one size below its size-3 level, got 3x3"),
        (square, condensed(0, 5), "trace step 1: 'condensed' must be 2x2, one size below its size-3 level, got 0x5"),
        (square, lambda doc: doc["steps"].append(doc["steps"][0]), "trace step 2: follows the end of the run at size 2"),
        (zero_row, lambda doc: doc["steps"].append(doc["steps"][0]),
         "trace step 2: follows the end of the run at a zero-row exit"),
        (zero_row, lambda doc: doc["steps"][0].update(size=4), "trace step 1: 'size' must be 3, the size of its level, got 4"),
        ([[1, 2], [3, 4]], lambda doc: doc["steps"].append({"kind": "zero-row", "size": 3}),
         "trace step 1: follows the end of the run at size 2"),
    ]


@pytest.mark.parametrize("rows, edit, message", _chain_cases())
def test_trace_document_refuses_levels_that_do_not_chain(rows, edit, message):
    m = Matrix(rows, INTEGER)
    doc = trace_document(m, det_condensation(m))
    edit(doc)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        trace_from_document(doc)


def test_trace_document_chains_through_every_level():
    # Each level one size below the last, down to size 2, and the
    # 0x0 and 1x1 traces with no step at all, all load.
    rng = random.Random(31)
    for n in range(0, 9):
        m = random_int_matrix(rng, n) if n else Matrix([], INTEGER)
        result = det_condensation(m)
        m2, value, steps = trace_from_document(trace_document(m, result))
        assert (m2, value, steps) == (m, result.value, result.trace)
        assert [s.condensed.rows for s in steps if isinstance(s, CondensationStep)] == list(range(n - 1, 1, -1))[: len(steps)]
