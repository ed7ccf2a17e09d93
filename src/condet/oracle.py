"""Independent determinant oracles.

Three classical routines that share no code with the condensation path,
used as ground truth when checking it:

* ``det_cofactor``   - Laplace expansion along row 1, recursive, capped
  at 10x10 (factorial cost).
* ``det_bareiss``    - fraction-free single-pass elimination, pivoting
  on the first nonzero entry of each column; every division is exact
  by construction.
* ``det_gauss_rational`` - plain Gaussian elimination with partial
  pivoting over rationals, for every kind.

Each routine accepts an optional ``OpCounts`` tally and counts the
scalar multiplications, subtractions and divisions it actually
performs (pivot searches and swaps are comparisons, not counted).

The inner loops pay for arithmetic, not for bookkeeping.  Bareiss
and Gauss add each stage's counts in one step.  A stage divides every
entry by the same previous pivot, so ``_exact_stage`` picks the
integer division once per stage and tests each remainder inline.
Cofactor expansion recurses over a row index and a tuple of kept
column indices into the input rows instead of copying each minor, and
works its 3x3 minors' three 2x2 minors inline.  Values and counts are
those of the plain per-entry loops.

``det_bareiss`` and ``det_cofactor`` run on integers only.  A rational
or float matrix (a finite double is m * 2**e) becomes integer rows
once: each row is scaled by the lcm of its denominators
(``RationalKind.integer_row``), and the integer determinant over the
product of the scales is a ``Fraction``, or for floats the double
nearest it, rounded once (``scalars._as_kind``).  So float results are
the correctly rounded determinants of the doubles, with no float
arithmetic on the way.  Gaussian elimination runs on
canonical numerator/denominator pairs of plain ints (any entry's
``as_integer_ratio()``), each reduced with the gcd splits of ``Fraction``, so it
holds every entry as its own rational in lowest terms and shares
nothing with the row-scaling representation on purpose: a fault in
the row scaling would show as a disagreement with it, not be repeated
by it.

The private ``_adjugate`` gives adj(m) of a nonsingular integer matrix
by one fraction-free Gauss-Jordan elimination on ``[m | I]`` (Bareiss,
1968), in O(n^3): entry (l, k) is (-1)**(k+l) times the minor with row
k and column l removed, so ``verify`` reads all n*n one-removed minors
from it instead of running n*n eliminations of size n-1.  It counts no
operations.  ``det_bareiss`` and ``_adjugate`` run the same
stage, ``_exact_stage``, on different rows and columns (the rows below
the pivot and n columns, every other row and 2n columns), and pick
their pivots by the same ``_pivot_row``.  Neither forms a condensed
matrix, so a fault in condensation cannot be repeated by them.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, List, Optional, Sequence, Tuple

from .matrix import Matrix, _require_square
from .scalars import INTEGER, RATIONAL, OpCounts, Scalar, _as_kind, _divmod_for, _max_bits

__all__ = [
    "det_cofactor",
    "det_bareiss",
    "det_gauss_rational",
    "COFACTOR_SIZE_LIMIT",
]

COFACTOR_SIZE_LIMIT = 10

# The cost model, calibrated on a 2-CPU x86-64 host under CPython 3.11.7
# (seeded matrices, entries in [-9, 9] unless noted; seconds, units):
#   divided det / Bareiss, n = 200          1.9 / 2.8 s    2.1e7
#     on doubles 2**U(-1000, 1000), n = 40  13 / 21 s      9.1e7
#   Gauss, p/q, 1 <= |p|, q <= 9, n = 60    0.47 s         1.8e6
#   cofactor, integer / doubles, n = 10     0.29 / 1.07 s  1.1e7
#   verify, n = 32                          4.7 s          2.3e7
#   undivided condensation, n = 20          0.55 s         1.2e7
# So a unit is 0.03-0.26 us and the budget 10-25 s; 400x400 Bareiss is 5e8.
# A traced level weighs size**2 times the bits of row 1, at least 64: the
# peak is 9.6e5 over 150 integer 18x18s, 1.8e6 for a rational 19x19 traced
# in 5 s, 2.5e6 for the rational 20x20 that takes 29 s (README has more).
_WORK_BUDGET = 10**8
_LEVEL_BUDGET = 2 * 10**6


class _OverBudget(ValueError):
    """A traced level past ``_LEVEL_BUDGET``: bad input, not a fault."""


def _level_weight(size: int, bits: int) -> int:
    """Weight of a traced level, held to ``_LEVEL_BUDGET``: size**2 times the bits of its row 1, at least 64."""
    return size * size * max(64, bits)


def _level_cost(size: int, bits: float) -> float:
    """Work units of a condensation level or elimination stage: size**2 products."""
    return size * size * (1 + (bits / 128) ** 1.6)


@functools.lru_cache(maxsize=256)  # det and bench repeat a few sizes and bit lengths
def _work(method: str, n: int, bits: int) -> float:
    """Estimated work of ``method`` (a ``bench.METHODS`` key, or
    ``verify``) on n x n integer rows of at most ``bits`` bits.  Stage k
    of Bareiss and level k of divided condensation hold k x k minors,
    below the Hadamard bound; undivided level t holds about bits * 2**t."""
    if n > 10**4:  # its first level alone holds 10**8 entries
        return math.inf
    if method == "cofactor":  # n! terms; 170! is the largest a double holds
        return 3.0 * math.factorial(min(n, 170))
    if method == "condensation":  # level 64 is past any budget
        return sum(_level_cost(n - t, bits << t) for t in range(min(n - 2, 64)))
    if method == "verify":  # n*n condensed matrices and n*n/2 Dodgson pairs
        return 1.5 * n * n * _work("bareiss", n - 1, 2 * bits)
    divided = sum(_level_cost(n - k, k * (bits + math.log2(k) / 2)) for k in range(1, n))
    return 5 * divided if method == "gauss-rational" else divided


def _integer_matrix(m: Matrix) -> Tuple[Matrix, Sequence[int], Callable[[int], Scalar]]:
    # m as integer rows I, row i being I[i] / scales[i] (unpacked from a list, as Matrix.__init__
    # does), and the map from det(I) to det(m): det(I) over the scales' product, in m's kind.
    if m.kind is INTEGER or not m.rows:
        return m, (1,) * m.rows, lambda value: value
    rows, scales = zip(*[RATIONAL.integer_row(row) for row in m.as_tuples()])
    scale = math.prod(scales)
    return Matrix._trusted([*map(tuple, rows)], INTEGER, len(rows)), scales, lambda value: _as_kind(m.kind, value, scale)


def det_cofactor(m: Matrix, ops: Optional[OpCounts] = None) -> Scalar:
    """Determinant by recursive cofactor expansion along the first row.

    Exact, but factorial in the size, so sizes above
    ``COFACTOR_SIZE_LIMIT`` are rejected.  A rational or float matrix
    is expanded on its integer rows (row i is ``I[i] / scale_i``, as in
    ``det_bareiss``) and det(m) is det(I) over the scales' product: a
    ``Fraction``, or the nearest double, which raises ``OverflowError``
    past the double range.  A zero entry has a zero numerator, so the
    same heads are skipped and the counts are those of the expansion on
    the entries themselves.
    """
    n = _require_square(m, "det_cofactor")
    if n > COFACTOR_SIZE_LIMIT:
        raise ValueError(f"cofactor expansion is limited to {COFACTOR_SIZE_LIMIT}x{COFACTOR_SIZE_LIMIT}, got {n}")
    if n == 0:
        return m.kind.one
    if m.kind is not INTEGER:
        im, _, back = _integer_matrix(m)
        return back(det_cofactor(im, ops))
    if ops is None:
        ops = OpCounts()
    rows = m.as_tuples()
    if n == 1:
        return rows[0][0]
    if n == 2:
        ops.multiplications += 2
        ops.subtractions += 1
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]

    def expand(r: int, cols) -> Scalar:
        # The minor of rows r.. and the columns in cols (at least 3),
        # indexed into the original rows rather than copied.
        top = rows[r]
        total = 0
        terms = 0
        if len(cols) == 3:
            # The three 2x2 minors inline, each as a*d - b*c, signs +, -, +.
            a, b = rows[r + 1], rows[r + 2]
            c0, c1, c2 = cols
            head = top[c0]
            if head != 0:
                total = total + head * (a[c1] * b[c2] - a[c2] * b[c1])
                terms += 1
            head = top[c1]
            if head != 0:
                total = total - head * (a[c0] * b[c2] - a[c2] * b[c0])
                terms += 1
            head = top[c2]
            if head != 0:
                total = total + head * (a[c0] * b[c1] - a[c1] * b[c0])
                terms += 1
            ops.multiplications += 3 * terms
            ops.subtractions += 2 * terms
            return total
        for j, c in enumerate(cols):
            head = top[c]
            if head == 0:
                continue  # a zero coefficient contributes nothing
            term = head * expand(r + 1, cols[:j] + cols[j + 1 :])
            terms += 1
            total = total + term if j % 2 == 0 else total - term
        ops.multiplications += terms
        ops.subtractions += terms
        return total

    return expand(0, tuple(range(n)))


def _pivot_row(grid, col: int, start: int, n: int) -> Optional[int]:
    # The first row from start on with a nonzero entry in col.  Exact
    # integer stages need no magnitude search: whichever nonzero pivot
    # is picked, every entry is a minor of A (Bareiss, 1968).
    for r in range(start, n):
        if grid[r][col]:
            return r
    return None


def _exact_stage(grid, k: int, rows, stop: int, prev: int) -> None:
    # One exact fraction-free stage on integer rows: each row i in rows
    # becomes (row_i * piv - lead * row_k) / prev over columns k+1 to
    # stop-1, with piv = grid[k][k] and lead = row_i[k].
    row_k = grid[k]
    piv = row_k[k]
    div = _divmod_for(prev)  # prev is fixed for the stage
    for i in rows:
        row_i = grid[i]
        lead = row_i[k]
        for j in range(k + 1, stop):
            num = row_i[j] * piv - lead * row_k[j]
            q, rem = div(num, prev)
            if rem:
                INTEGER.exact_div(num, prev)  # raises, naming the operands
            row_i[j] = q


def det_bareiss(
    m: Matrix,
    ops: Optional[OpCounts] = None,
    stage_bits: Optional[List[int]] = None,
) -> Scalar:
    """Determinant by fraction-free (Bareiss) elimination.

    Elimination runs on integers: a rational or float matrix becomes
    integer rows at the door (row i is ``I[i] / scale_i``), and det(m)
    is det(I) over the scales' product, a ``Fraction`` or the nearest
    double (``OverflowError`` past the double range).  Each division
    by the previous pivot is exact, and a nonzero remainder raises
    ``ExactDivisionError`` through ``IntegerKind.exact_div`` (a stage
    that raises adds none of its counts).  The pivot is the first
    nonzero entry in the column, and each row swap flips the sign.

    When ``stage_bits`` is given (integer matrices only) the maximum
    entry bit length of the working grid is appended after each
    elimination stage.
    """
    n = _require_square(m, "det_bareiss")
    kind = m.kind
    if stage_bits is not None and kind is not INTEGER:
        raise ValueError("stage_bits tracking needs integer entries")
    if n == 0:
        return kind.one
    if kind is not INTEGER:
        im, _, back = _integer_matrix(m)
        return back(det_bareiss(im, ops))
    if ops is None:
        ops = OpCounts()
    grid = [list(row) for row in m.as_tuples()]
    sign = 1
    prev = 1
    for k in range(n - 1):
        r = _pivot_row(grid, k, k, n)
        if r is None:
            return 0
        if r != k:
            grid[k], grid[r] = grid[r], grid[k]
            sign = -sign
        piv = grid[k][k]
        _exact_stage(grid, k, range(k + 1, n), n, prev)
        size = n - k - 1
        ops.multiplications += 2 * size * size
        ops.subtractions += size * size
        ops.divisions += size * size
        prev = piv
        if stage_bits is not None:
            stage_bits.append(_max_bits(grid))
    value = grid[n - 1][n - 1]
    return -value if sign == -1 else value


def _adjugate(m: Matrix) -> Optional[List[List[int]]]:
    """adj(m) of an integer matrix, or None when m is singular.

    Fraction-free Gauss-Jordan elimination on ``[m | I]`` (Bareiss,
    Math. Comp. 22, 1968), with the stage and the pivot rule of
    ``det_bareiss``: the first nonzero entry in the column is its pivot,
    each row swap flips the sign, and stage k sets every row but the
    pivot row to ``(row * piv - lead * pivot row) / prev``, each
    division exact (a nonzero remainder raises ``ExactDivisionError``).
    Left block = right block * m throughout, and the left block ends as
    ``d * I`` with ``d = sign * det(m)``, so the right block is
    ``sign * adj(m)``.  A column with no nonzero pivot means m is
    singular.  Stage k updates only the columns past k: the columns
    already eliminated (zero but for the pivot) are never read again.
    """
    n = _require_square(m, "_adjugate")
    if m.kind is not INTEGER:
        raise ValueError("_adjugate needs integer entries")
    grid = [list(row) + [0] * n for row in m.as_tuples()]
    for i, row in enumerate(grid):
        row[n + i] = 1
    sign = 1
    prev = 1
    for k in range(n):
        r = _pivot_row(grid, k, k, n)
        if r is None:
            return None
        if r != k:
            grid[k], grid[r] = grid[r], grid[k]
            sign = -sign
        _exact_stage(grid, k, [i for i in range(n) if i != k], 2 * n, prev)
        prev = grid[k][k]
    return [[-v for v in row[n:]] if sign == -1 else row[n:] for row in grid]


def _pivot_pair_row(nums, dens, col: int, start: int, n: int) -> Optional[int]:
    # Partial pivoting on (numerator, positive denominator) pairs: the
    # largest |a/b|, earliest row on ties, compared as |a|*d > |c|*b.
    best = None
    for r in range(start, n):
        a = nums[r][col]
        if a and (best is None or abs(a) * d > abs(c) * dens[r][col]):
            best, c, d = r, a, dens[r][col]
    return best


def det_gauss_rational(m: Matrix, ops: Optional[OpCounts] = None) -> Scalar:
    """Determinant by rational Gaussian elimination with partial pivoting.

    Each row is held as two int lists, numerators and positive
    denominators in lowest terms, and updated with the gcd splits of
    ``Fraction`` division, multiplication and subtraction (Knuth,
    TAOCP vol. 2, 4.5.1), so the grid holds exactly the rationals a
    ``Fraction`` loop holds, whatever the kind: each entry is read by
    ``as_integer_ratio()``, and the result comes back in the matrix's
    kind (``scalars._as_kind``).  The pivot is the largest magnitude in
    the column, earliest row on ties; each swap flips the sign.
    """
    n = _require_square(m, "det_gauss_rational")
    if ops is None:
        ops = OpCounts()
    pairs = [[v.as_integer_ratio() for v in row] for row in m.as_tuples()]
    nums = [[p for p, _ in row] for row in pairs]
    dens = [[q for _, q in row] for row in pairs]
    gcd = math.gcd
    sign = 1
    for k in range(n - 1):
        r = _pivot_pair_row(nums, dens, k, k, n)
        if r is None:
            return m.kind.zero
        if r != k:
            nums[k], nums[r] = nums[r], nums[k]
            dens[k], dens[r] = dens[r], dens[k]
            sign = -sign
        pn, pd = nums[k], dens[k]
        p, q = pn[k], pd[k]
        updated = 0
        for i in range(k + 1, n):
            xn, xd = nums[i], dens[i]
            a = xn[k]
            if a == 0:
                continue
            updated += 1
            # factor = (a/b) / (p/q)
            b = xd[k]
            g1, g2 = gcd(a, p), gcd(q, b)
            fn, fd = (a // g1) * (q // g2), (p // g1) * (b // g2)
            if fd < 0:
                fn, fd = -fn, -fd
            for j in range(k + 1, n):
                # y = factor * pivot-row entry
                yn, yd = fn, fd
                zn, zd = pn[j], pd[j]
                g1 = gcd(yn, zd)
                if g1 > 1:
                    yn //= g1
                    zd //= g1
                g2 = gcd(zn, yd)
                if g2 > 1:
                    zn //= g2
                    yd //= g2
                yn, yd = yn * zn, zd * yd
                # x - y
                un, ud = xn[j], xd[j]
                g = gcd(ud, yd)
                if g == 1:
                    xn[j], xd[j] = un * yd - ud * yn, ud * yd
                    continue
                s = ud // g
                t = un * (yd // g) - yn * s
                g2 = gcd(t, g)
                if g2 == 1:
                    xn[j], xd[j] = t, s * yd
                else:
                    xn[j], xd[j] = t // g2, s * (yd // g2)
        size = n - k - 1
        ops.divisions += updated
        ops.multiplications += updated * size
        ops.subtractions += updated * size
    ops.multiplications += n
    return _as_kind(m.kind, sign * math.prod(nums[k][k] for k in range(n)), math.prod(dens[k][k] for k in range(n)))
