"""Independent determinant oracles.

Three classical routines that share no code with the condensation path,
used as ground truth when checking it:

* ``det_cofactor``   - Laplace expansion along row 1, recursive, capped
  at 10x10 (factorial cost).
* ``det_bareiss``    - fraction-free single-pass elimination with row
  pivoting; every division is exact by construction.
* ``det_gauss_rational`` - plain Gaussian elimination with partial
  pivoting over rationals.

Each routine accepts an optional ``OpCounts`` tally and counts the
scalar multiplications, subtractions and divisions it actually
performs (pivot searches and swaps are comparisons, not counted).

The inner loops pay for arithmetic, not for bookkeeping.  Bareiss
and Gauss add each stage's counts in one step; only the float
divide-first fallback adds its extra ones per entry.  An exact stage
divides every entry by the same previous pivot, so ``_exact_stage``
picks the integer division once per stage and tests each remainder
inline.
Cofactor expansion recurses over a row index and a tuple of kept
column indices into the input rows instead of copying each minor, and
works its 3x3 minors' three 2x2 minors inline.  Values and counts are
those of the plain per-entry loops, floats bit for bit.

Over rationals, ``det_bareiss`` and ``det_cofactor`` run on integer
rows: each row is scaled once by the lcm of its denominators
(``RationalKind.integer_row``) and the integer determinant is divided
by the product of the scales at the end.  Gaussian elimination runs on
canonical numerator/denominator pairs of plain ints, each entry
reduced on its own with the same gcd splits as ``Fraction``, so it
holds every entry as its own rational in lowest terms and shares
nothing with the row-scaling representation on purpose: a fault in
the row scaling would show as a disagreement with it, not be repeated
by it.

The private ``_adjugate`` gives adj(m) of a nonsingular integer matrix
by one fraction-free Gauss-Jordan elimination on ``[m | I]`` (Bareiss,
1968), in O(n^3): entry (l, k) is (-1)**(k+l) times the minor with row
k and column l removed, so ``verify`` reads all n*n one-removed minors
from it instead of running n*n eliminations of size n-1.  It counts no
operations.  Exact ``det_bareiss`` and ``_adjugate`` run the same
stage, ``_exact_stage``, on different rows and columns (the rows below
the pivot and n columns, every other row and 2n columns), and pick
their pivots by the same ``_pivot_row``.  Neither forms a condensed
matrix, so a fault in condensation cannot be repeated by them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional

from .matrix import Matrix, _require_square
from .scalars import FLOAT, INTEGER, RATIONAL, OpCounts, Scalar, _divmod_for, bit_length

__all__ = [
    "det_cofactor",
    "det_bareiss",
    "det_gauss_rational",
    "COFACTOR_SIZE_LIMIT",
]

COFACTOR_SIZE_LIMIT = 10


def det_cofactor(m: Matrix, ops: Optional[OpCounts] = None) -> Scalar:
    """Determinant by recursive cofactor expansion along the first row.

    Exact for every scalar kind but factorial in the size, so sizes
    above ``COFACTOR_SIZE_LIMIT`` are rejected.  A rational matrix is
    expanded on its integer rows (row i is ``I[i] / scale_i``, as in
    ``det_bareiss``) and det(m) is det(I) over the scales' product; a
    zero entry has a zero numerator, so the same heads are skipped and
    the counts are those of the ``Fraction`` expansion.
    """
    n = _require_square(m, "det_cofactor")
    if n > COFACTOR_SIZE_LIMIT:
        raise ValueError(f"cofactor expansion is limited to {COFACTOR_SIZE_LIMIT}x{COFACTOR_SIZE_LIMIT}, got {n}")
    kind = m.kind
    if n == 0:
        return kind.one
    if kind is RATIONAL:
        rows, scales = zip(*[RATIONAL.integer_row(row) for row in m.as_tuples()])
        return Fraction(det_cofactor(Matrix._trusted(rows, INTEGER, n), ops), math.prod(scales))
    if ops is None:
        ops = OpCounts()
    rows = m.as_tuples()
    zero = kind.zero
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
        total = zero
        terms = 0
        if len(cols) == 3:
            # The three 2x2 minors inline, each as a*d - b*c, signs +, -, +.
            a, b = rows[r + 1], rows[r + 2]
            c0, c1, c2 = cols
            head = top[c0]
            if head != zero:
                total = total + head * (a[c1] * b[c2] - a[c2] * b[c1])
                terms += 1
            head = top[c1]
            if head != zero:
                total = total - head * (a[c0] * b[c2] - a[c2] * b[c0])
                terms += 1
            head = top[c2]
            if head != zero:
                total = total + head * (a[c0] * b[c1] - a[c1] * b[c0])
                terms += 1
            ops.multiplications += 3 * terms
            ops.subtractions += 2 * terms
            return total
        for j, c in enumerate(cols):
            head = top[c]
            if head == zero:
                continue  # a zero coefficient contributes nothing
            term = head * expand(r + 1, cols[:j] + cols[j + 1 :])
            terms += 1
            total = total + term if j % 2 == 0 else total - term
        ops.multiplications += terms
        ops.subtractions += terms
        return total

    return expand(0, tuple(range(n)))


def _pivot_row(grid, col: int, start: int, n: int) -> Optional[int]:
    # Partial pivoting: pick the largest magnitude, earliest row on ties.
    best = None
    best_mag = None
    for r in range(start, n):
        v = grid[r][col]
        if v == 0:
            continue
        mag = abs(v)
        if best is None or mag > best_mag:
            best, best_mag = r, mag
    return best


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

    A rational matrix becomes integer rows at the door (row i is
    ``I[i] / scale_i``) and det(m) is det(I) over the scales' product,
    so elimination runs on integers or floats: each division by
    the previous pivot is exact, and a nonzero remainder raises
    ``ExactDivisionError`` through ``IntegerKind.exact_div`` (a stage
    that raises adds none of its counts).  Row pivoting
    picks the largest magnitude in the column, flipping the sign per
    swap, so the routine is also usable on
    floats.  Where a float product ``a*piv - lead*b`` leaves the double
    range, that entry is recomputed as ``a*(piv/prev) - (lead/prev)*b``
    (two more multiplications, one more subtraction, and two divisions
    in place of one); every other entry is the plain fraction-free one.

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
    if kind is RATIONAL:
        rows, scales = zip(*[RATIONAL.integer_row(row) for row in m.as_tuples()])
        return Fraction(det_bareiss(Matrix._trusted(rows, INTEGER, n), ops), math.prod(scales))
    if ops is None:
        ops = OpCounts()
    grid = [list(row) for row in m.as_tuples()]
    sign = 1
    prev = kind.one
    for k in range(n - 1):
        r = _pivot_row(grid, k, k, n)
        if r is None:
            return kind.zero
        if r != k:
            grid[k], grid[r] = grid[r], grid[k]
            sign = -sign
        row_k = grid[k]
        piv = row_k[k]
        if kind is FLOAT:
            for i in range(k + 1, n):
                row_i = grid[i]
                lead = row_i[k]
                for j in range(k + 1, n):
                    num = row_i[j] * piv - lead * row_k[j]
                    if not math.isfinite(num):
                        # The fraction-free product left the double range,
                        # though the entry need not: divide first.
                        row_i[j] = row_i[j] * (piv / prev) - (lead / prev) * row_k[j]
                        ops.multiplications += 2
                        ops.subtractions += 1
                        ops.divisions += 1
                    else:
                        row_i[j] = num / prev
        else:
            _exact_stage(grid, k, range(k + 1, n), n, prev)
        size = n - k - 1
        ops.multiplications += 2 * size * size
        ops.subtractions += size * size
        ops.divisions += size * size
        prev = piv
        if stage_bits is not None:
            stage_bits.append(
                max(bit_length(grid[i][j]) for i in range(n) for j in range(n))
            )
    value = grid[n - 1][n - 1]
    return -value if sign == -1 else value


def _adjugate(m: Matrix) -> Optional[List[List[int]]]:
    """adj(m) of an integer matrix, or None when m is singular.

    Fraction-free Gauss-Jordan elimination on ``[m | I]`` (Bareiss,
    Math. Comp. 22, 1968), with the stage and the pivot rule of
    ``det_bareiss``: the largest magnitude in the column is its pivot,
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
    # _pivot_row on (numerator, positive denominator) pairs: the largest
    # |a/b|, earliest row on ties, compared as |a|*d > |c|*b.
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
    ``Fraction`` loop holds.  The pivot is the largest magnitude in the
    column, earliest row on ties; each swap flips the sign.
    """
    n = _require_square(m, "det_gauss_rational")
    if m.kind is not RATIONAL:
        raise ValueError("det_gauss_rational needs rational entries")
    if ops is None:
        ops = OpCounts()
    rows = m.as_tuples()
    nums = [[v.numerator for v in row] for row in rows]
    dens = [[v.denominator for v in row] for row in rows]
    gcd = math.gcd
    sign = 1
    for k in range(n - 1):
        r = _pivot_pair_row(nums, dens, k, k, n)
        if r is None:
            return RATIONAL.zero
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
    return Fraction(sign * math.prod(nums[k][k] for k in range(n)), math.prod(dens[k][k] for k in range(n)))
