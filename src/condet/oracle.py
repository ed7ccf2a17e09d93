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

Over rationals, ``det_bareiss`` eliminates on integer rows, as
condensation does: each row is scaled once by the lcm of its
denominators (``RationalKind.integer_row``) and the integer determinant
is divided by the product of the scales at the end.  Cofactor expansion
and Gaussian elimination stay on ``Fraction`` arithmetic on purpose, so
that two oracles share nothing with that representation: a fault in the
row scaling would show as a disagreement with them, not be repeated by
them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional

from .matrix import Matrix
from .scalars import FLOAT, INTEGER, RATIONAL, OpCounts, Scalar, bit_length

__all__ = [
    "det_cofactor",
    "det_bareiss",
    "det_gauss_rational",
    "COFACTOR_SIZE_LIMIT",
]

COFACTOR_SIZE_LIMIT = 10


def _require_square(m: Matrix, who: str) -> int:
    if not m.is_square():
        raise ValueError(f"{who} needs a square matrix, got {m.rows}x{m.cols}")
    return m.rows


def det_cofactor(m: Matrix, ops: Optional[OpCounts] = None) -> Scalar:
    """Determinant by recursive cofactor expansion along the first row.

    Exact for every scalar kind but factorial in the size, so sizes
    above ``COFACTOR_SIZE_LIMIT`` are rejected.
    """
    n = _require_square(m, "det_cofactor")
    if n > COFACTOR_SIZE_LIMIT:
        raise ValueError(f"cofactor expansion is limited to {COFACTOR_SIZE_LIMIT}x{COFACTOR_SIZE_LIMIT}, got {n}")
    kind = m.kind
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


def det_bareiss(
    m: Matrix,
    ops: Optional[OpCounts] = None,
    stage_bits: Optional[List[int]] = None,
) -> Scalar:
    """Determinant by fraction-free (Bareiss) elimination.

    Intermediate entries stay in the ground domain: each division by
    the previous pivot is exact, which ``ScalarKind.exact_div``
    enforces.  Row pivoting picks the largest magnitude in the column,
    flipping the sign per swap, so the routine is also usable on
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
    if ops is None:
        ops = OpCounts()
    # Rationals eliminate on integer rows: det(m) is the integer
    # determinant over the product of the row scales.
    ring, rows, scale = kind, m.as_tuples(), 1
    if kind is RATIONAL:
        rows, scales = zip(*map(RATIONAL.integer_row, rows))
        ring, scale = INTEGER, math.prod(scales)
    grid = [list(row) for row in rows]
    floats = kind is FLOAT
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
                if floats and not math.isfinite(num):
                    # The fraction-free product left the double range,
                    # though the entry need not: divide first.
                    row_i[j] = row_i[j] * (piv / prev) - (lead / prev) * row_k[j]
                    ops.multiplications += 2
                    ops.subtractions += 1
                    ops.divisions += 1
                else:
                    row_i[j] = ring.exact_div(num, prev)
        prev = piv
        if stage_bits is not None:
            stage_bits.append(
                max(bit_length(grid[i][j]) for i in range(n) for j in range(n))
            )
    value = grid[n - 1][n - 1]
    if sign == -1:
        value = -value
    return Fraction(value, scale) if kind is RATIONAL else value


def det_gauss_rational(m: Matrix, ops: Optional[OpCounts] = None) -> Scalar:
    """Determinant by rational Gaussian elimination with partial pivoting."""
    n = _require_square(m, "det_gauss_rational")
    if m.kind is not RATIONAL:
        raise ValueError("det_gauss_rational needs rational entries")
    if n == 0:
        return RATIONAL.one
    if ops is None:
        ops = OpCounts()
    grid = [list(row) for row in m.as_tuples()]
    sign = 1
    for k in range(n - 1):
        r = _pivot_row(grid, k, k, n)
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
