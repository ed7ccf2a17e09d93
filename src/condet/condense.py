"""Determinant condensation: collapse an n x n matrix into an
(n-1) x (n-1) matrix of pivot-anchored 2x2 minors.

With pivot (k, l), entry (i, j) of the condensed matrix is the
determinant of a 2x2 block built from the pivot row/column and row
i (or i+1, once past the pivot row) and column j (or j+1, once past
the pivot column) of the source.  That block layout absorbs all
permutation signs (the argument is in ``_condense_rows``), giving the
identity

    a(k,l) ** (n-2) * det(A) = det(condensed)

with no extra sign factor, for any pivot with a(k,l) != 0.  Two
consequences drive the determinant driver ``det_condensation``:

* if a(1,1) = 0 the condensed matrix at (1,1) is singular, so the
  driver scans row 1 for a usable pivot instead of insisting on (1,1);
* repeated condensation shrinks the matrix one size per level, and a
  single division by the pivot power per level recovers det(A).

A traced run, which records every condensed matrix, keeps entries
undivided, and their bits roughly double per level.  The untraced run,
``det_condensation(m, record_trace=False)``, instead divides every
entry of each new level exactly by the pivot of the step before
(Sylvester's identity, as in Bareiss, Math. Comp. 22, 1968, and
Dodgson, Proc. R. Soc. 15, 1866): entry (r, c) of level t is then the
minor of A on rows 1..t and t+1+r and on the columns of the t pivots
so far plus the source column of c, in increasing order and with no
sign, so entries stay below the Hadamard bound and the last 1x1 level
is det(A) itself.  It runs on integer rows, those of a rational or
float matrix included (``RationalKind.integer_row``), and goes down
two levels per pass in ``_condense_twice``: Bareiss's two-step method,
which builds each entry from a bordered 3x3 minor with one exact
division, by 1 on the first pass as in Bareiss's first stage.  So an
untraced float determinant is exact until one final, correctly rounded
division.

``dodgson_identity_residual`` evaluates the classical Dodgson
(Desnanot-Jacobi) minor identity through the independent oracles,
as a cross-check that never touches the condensation code above it.
"""

from __future__ import annotations

import enum
import math
import operator
from fractions import Fraction
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .matrix import (
    Matrix, PivotSpec, _field, _is_json, _json_object, _require_square, matrix_from_doc, matrix_to_doc, remove_rows_cols
)
from .oracle import det_bareiss
from .scalars import (
    FLOAT, INTEGER, KINDS, RATIONAL, ExactDivisionError, OpCounts, Scalar, ScalarKind, ScalarParseError, _divmod_for, _echo,
    _nearest_double,
)

__all__ = [
    "CondensationStep",
    "ZeroRowExit",
    "DetResult",
    "PivotStrategy",
    "condense_at_11",
    "condense_at",
    "dodgson_identity_residual",
    "select_pivot",
    "det_condensation",
    "trace_document",
    "trace_from_document",
    "TRACE_FORMAT",
]


class CondensationStep(NamedTuple):
    """One condensation level, with pivot_value**(n-2) * det(A) = det(condensed)."""

    pivot: PivotSpec
    pivot_value: Scalar
    condensed: Matrix


class ZeroRowExit(NamedTuple):
    """Marker for a level whose first row was entirely zero, which
    forces the determinant to zero without further condensation."""

    size: int


TraceEntry = Union[CondensationStep, ZeroRowExit]


class DetResult(NamedTuple):
    """Value, per-level trace and operation counts of one run."""

    value: Scalar
    trace: Tuple[TraceEntry, ...]
    op_counts: OpCounts


class PivotStrategy(enum.Enum):
    """How ``det_condensation`` picks its pivot within row 1."""

    FIRST_NONZERO = "first-nonzero"
    MAX_MAGNITUDE = "max-magnitude"


def _condense_rows(src: Sequence[Sequence], k: int, l: int) -> List[tuple]:
    """Condense the rows ``src`` at the 0-based pivot (k, l): the one
    place the pivot-anchored 2x2 determinants of the undivided identity
    are computed.

    Each source row r != k is paired with the pivot row in source
    order, ``(top, bottom) = (row_r, pivot_row)`` above the pivot and
    ``(pivot_row, row_r)`` below it; each column c != l is paired with
    column l the same way.  The condensed entry is the determinant of
    that 2x2 block:

        c < l:  top[c]*bottom[l] - top[l]*bottom[c]
        c > l:  top[l]*bottom[c] - top[c]*bottom[l]

    Why no sign appears in the identity: rotating row k and column l
    to the front is k + l adjacent swaps, so it multiplies det(m) by
    (-1)**(k+l), and corner condensation of the rotated matrix puts the
    pivot row on top and column l first in every block.  The in-place
    layout above differs from that exactly in the k rows above the
    pivot (block rows swapped) and the l columns left of it (block
    columns swapped); each swap negates one whole row or column of the
    condensed matrix, which multiplies its determinant by the same
    (-1)**(k+l).  The two signs cancel.
    """
    pivot_row = src[k]
    data = []
    for r, row in enumerate(src):
        if r == k:
            continue
        top, bottom = (row, pivot_row) if r < k else (pivot_row, row)
        top_l, bottom_l = top[l], bottom[l]
        left = [t * bottom_l - top_l * b for t, b in zip(top[:l], bottom[:l])]
        right = [top_l * b - t * bottom_l for t, b in zip(top[l + 1 :], bottom[l + 1 :])]
        data.append(tuple(left + right))
    return data


def _condense_twice(
    src: Sequence[Sequence[int]],
    l: int,
    strategy: PivotStrategy,
    divisor: int,
    level: int,
    column: Optional[int],
) -> Tuple[List[int], Optional[int], Optional[List[tuple]]]:
    """Two Sylvester-divided levels of the integer rows ``src`` (level
    ``level``, size s) in one pass: Bareiss's two-step method (Math.
    Comp. 22, 1968).  ``l`` is the 0-based pivot column in row 1 of
    ``src`` and ``divisor`` D the pivot of level ``level - 1``, found at
    column ``column`` of its row 1; level 0 has D = 1 and no column, as
    Bareiss's first stage divides by a previous pivot of 1.

    With X0, X1 the first two rows of ``src``, p = X0[l] and q = X1[l],
    row 1 of level ``level + 1`` is the kernel's one-step row,
    ``(X0[c]*q - p*X1[c]) / D`` left of l and ``(p*X1[c] - X0[c]*q) / D``
    right of it.  Its pivot, picked by ``strategy`` at column m, is cc,
    and u < v are the source columns of l and m.  Each later row R
    gives two coefficients and an entry of level ``level + 2`` at every
    other column c:

        a = (X1[u]*R[v] - X1[v]*R[u]) / D
        b = (X0[u]*R[v] - X0[v]*R[u]) / D
        entry = +-(X0[c]*a - X1[c]*b + R[c]*cc) / D,  minus iff u < c < v

    Why: by Sylvester's identity a 2x2 minor of ``src`` on columns in
    increasing order is D times a minor of A, and a 3x3 one D**2 times
    a minor of A.  cc, a and b are the 2x2 minors on columns u, v of
    rows (1, 2), (2, R) and (1, R) over D, and expanding the 3x3 minor
    on rows 1, 2, R and the sorted columns {u, v, c} along column c
    gives D times the bracket, with the minus of c's middle place.  So
    the entry is that 3x3 minor over D**2, the same minor of A that two
    one-step levels reach; their division by p cancels.  An entry costs
    3 multiplications, 2 additions and 1 division, where two one-step
    levels cost 4, 2 and 2.

    Each division, level 0's by 1 included, is exact and tested inline;
    a nonzero remainder raises ``ExactDivisionError`` naming the level
    the numerator belongs to (``level + 1`` for row 1 and the
    coefficients), its bit length and the pivot divided by.  Returns
    ``(row, m, rows)``: row 1 of level ``level + 1``, its 1-based pivot
    column and the rows of level ``level + 2``; m and rows are None
    where the pass stops at row 1, for s = 2 (row 1 is then the 1x1
    level) or an all-zero row 1.
    """
    x0, x1 = src[0], src[1]
    p, q = x0[l], x1[l]
    divide = _divmod_for(divisor)  # the divisor is fixed for the pass
    row = []
    for t, b in zip(x0[:l], x1[:l]):
        e, rem = divide(t * q - p * b, divisor)
        if rem:
            raise _not_a_multiple(t * q - p * b, divisor, level + 1, column, level - 1)
        row.append(e)
    for t, b in zip(x0[l + 1 :], x1[l + 1 :]):
        e, rem = divide(p * b - t * q, divisor)
        if rem:
            raise _not_a_multiple(p * b - t * q, divisor, level + 1, column, level - 1)
        row.append(e)
    m = select_pivot(row, strategy) if len(src) > 2 else None
    if m is None:
        return row, None, None
    cc = row[m - 1]
    j = m - (m <= l)  # column m - 1 of row 1 is column m - 1 or m of src
    u, v = (l, j) if l < j else (j, l)
    x0u, x0v, x1u, x1v = x0[u], x0[v], x1[u], x1[v]
    # Every column but u and v, with the sign of its place folded in.
    middle = slice(u + 1, v)
    y0 = [*x0[:u], *map(operator.neg, x0[middle]), *x0[v + 1 :]]
    y1 = [*x1[:u], *map(operator.neg, x1[middle]), *x1[v + 1 :]]
    ks = [cc] * u + [-cc] * (v - u - 1) + [cc] * (len(x0) - v - 1)
    rows = []
    for r in src[2:]:
        ru, rv = r[u], r[v]
        a, rem = divide(x1u * rv - x1v * ru, divisor)
        if rem:
            raise _not_a_multiple(x1u * rv - x1v * ru, divisor, level + 1, column, level - 1)
        b, rem = divide(x0u * rv - x0v * ru, divisor)
        if rem:
            raise _not_a_multiple(x0u * rv - x0v * ru, divisor, level + 1, column, level - 1)
        others = r[:u] + r[middle] + r[v + 1 :]
        out = []
        for s, t, k, w in zip(y0, y1, ks, others):
            e, rem = divide(s * a - t * b + w * k, divisor)
            if rem:
                raise _not_a_multiple(s * a - t * b + w * k, divisor, level + 2, column, level - 1)
            out.append(e)
        rows.append(tuple(out))
    return row, m, rows


def _not_a_multiple(entry: int, divisor: int, level: int, column: int, source: int) -> ExactDivisionError:
    return ExactDivisionError(
        f"divided level {level}: a {entry.bit_length()}-bit entry is not a multiple of the "
        f"{divisor.bit_length()}-bit pivot (1, {column}) of level {source}"
    )


def condense_at_11(m: Matrix) -> CondensationStep:
    """Condense at the natural corner pivot (1, 1).

    Entry (i, j) of the result is a(1,1)*a(i+1,j+1) - a(1,j+1)*a(i+1,1).
    The pivot value may be zero; the identity then degenerates to a
    singular condensed matrix.
    """
    return condense_at(m, PivotSpec(1, 1))


def condense_at(m: Matrix, pivot: PivotSpec) -> CondensationStep:
    """Condense at an arbitrary pivot (k, l) without moving any rows.

    The block layout absorbs the sign a front-rotation of the pivot
    would contribute, so the step satisfies the identity as it stands.
    """
    n = _require_square(m, "condense_at")
    if n < 2:
        raise ValueError(f"condense_at needs size >= 2, got {n}")
    k, l = pivot
    if not (1 <= k <= n and 1 <= l <= n):
        raise IndexError(f"pivot {pivot!r} out of range for size {n}")
    condensed = Matrix._trusted(_condense_rows(m.as_tuples(), k - 1, l - 1), m.kind, n - 1)
    return CondensationStep(PivotSpec(k, l), m.get(k, l), condensed)


MinorDet = Callable[[Tuple[int, ...], Tuple[int, ...]], Scalar]


def dodgson_identity_residual(m: Matrix, k: int, l: int, minor_det: Optional[MinorDet] = None) -> Scalar:
    """Residual of the Dodgson (Desnanot-Jacobi) identity at rows/cols k < l.

    Writing M(R, C) for the minor of ``m`` with rows R and columns C
    removed, the identity states

        det(m) * det(M({k,l}, {k,l})) =
            det(M({l},{l})) * det(M({k},{k})) - det(M({l},{k})) * det(M({k},{l}))

    and the residual is left side minus right side: exactly zero over
    exact kinds, tiny over floats.

    ``minor_det(rows, cols)`` gives det(M(rows, cols)) for tuples of
    1-based indices, ``((), ())`` being det(m) itself.  It defaults to
    the Bareiss oracle on ``remove_rows_cols(m, rows, cols)``, which is
    independent of the condensation path.  A caller that checks many
    pairs of one matrix passes a memo of that default, so that each
    distinct minor is computed once: the six determinants of one pair
    share det(m) and their one-removed minors with the other pairs.
    """
    n = _require_square(m, "dodgson_identity_residual")
    if n < 2:
        raise ValueError(f"dodgson_identity_residual needs size >= 2, got {n}")
    if not (1 <= k < l <= n):
        raise ValueError(f"need 1 <= k < l <= {n}, got k={k}, l={l}")
    if minor_det is None:
        minor_det = lambda rows, cols: det_bareiss(remove_rows_cols(m, rows, cols))
    lhs = minor_det((), ()) * minor_det((k, l), (k, l))
    ll = minor_det((l,), (l,))
    kk = minor_det((k,), (k,))
    lk = minor_det((l,), (k,))
    kl = minor_det((k,), (l,))
    return lhs - (ll * kk - lk * kl)


def select_pivot(row1: Sequence, strategy: PivotStrategy) -> Optional[int]:
    """Pick a pivot column (1-based) from the first row, or None if the
    row is entirely zero.

    ``FIRST_NONZERO`` returns the lowest column with a nonzero entry;
    ``MAX_MAGNITUDE`` the column with the largest ``abs`` among nonzero
    entries, lowest column on ties.  Zero tests are exact for every
    kind.
    """
    if strategy is PivotStrategy.FIRST_NONZERO:
        for idx, v in enumerate(row1):
            if v != 0:
                return idx + 1
        return None
    if strategy is PivotStrategy.MAX_MAGNITUDE:
        mags = [*map(abs, row1)]
        best = max(mags, default=0)
        return mags.index(best) + 1 if best else None
    raise ValueError(f"unknown pivot strategy {strategy!r}")


def _divide_back(kind: ScalarKind, value: Scalar, pivot: Scalar, size: int, ops: OpCounts) -> Scalar:
    # Undo one level: det(A) = det(condensed) / pivot**(size-2).
    # Exact kinds build the pivot power explicitly (size-3 extra
    # multiplications) and divide once, keeping the division exact.
    # Floats divide repeatedly instead, which avoids inflating
    # intermediate magnitudes.
    if kind is FLOAT:
        for _ in range(size - 2):
            value /= pivot
            ops.divisions += 1
        return value
    power = pivot
    for _ in range(size - 3):
        power = power * pivot
        ops.multiplications += 1
    ops.divisions += 1
    return INTEGER.exact_div(value, power)


def _reduce_rows(rows: List[tuple], scales: Sequence[int]) -> Tuple[List[tuple], List[int], int]:
    """Integer rows condensed at a pivot in row 1, with the row scales
    of the level they came from: condensed row r carries the scale
    ``scales[r + 1] * scales[0]``.  Each row and its scale are divided
    by their gcd, which leaves exactly ``RationalKind.integer_row`` of
    the reduced ``Fraction`` row.  Returns the rows, their scales and
    the product of the gcds, the factor by which the determinant of the
    rows shrank."""
    head = scales[0]
    out_rows, out_scales, product = [], [], 1
    for row, scale in zip(rows, scales[1:]):
        scale *= head
        g = math.gcd(scale, *row)
        if g != 1:
            row = tuple([v // g for v in row])
            scale //= g
            product *= g
        out_rows.append(row)
        out_scales.append(scale)
    return out_rows, out_scales, product


def _divided_levels(
    rows: Sequence[Sequence[int]], strategy: PivotStrategy, ops: OpCounts
) -> Iterator[Tuple[Tuple[int, ...], Optional[List[int]], List[tuple]]]:
    """Sylvester-divided condensation of the square integer ``rows``,
    two levels per pass.

    Level t (level 0 being ``rows``) is condensed at the pivot (1, l)
    picked in its first row by ``strategy``; entry (r, c) of level t is
    the minor of ``rows`` on rows 1..t and t+1+r and on the columns of
    the t pivots so far plus the source column of c, in increasing
    order and with no sign.  Each pass yields ``(pivots, row, level)``:
    the 1-based pivot columns it picked, one per level it went down,
    row 1 of the level between (None for the one-level pass of a
    size-2 level) and the level it built.  The last level yielded is
    1x1 and its entry is det(rows), unless a first row is all zero:
    then det(rows) = 0 and nothing more is yielded.

    Each pass runs ``_condense_twice``, dividing exactly by the pivot
    of the level before its source, or by 1 on level 0, as Bareiss's
    first stage does; a size-2 level ends with its one 2x2 minor over
    that pivot.  Every division is counted, and a nonzero remainder
    raises ``ExactDivisionError`` naming the level and the pivot
    divided by.
    """
    prev, prev_l = 1, None
    level = 0
    while len(rows) > 1:
        l = select_pivot(rows[0], strategy)
        if l is None:
            return
        s = len(rows)
        row, m, rows = _condense_twice(rows, l - 1, strategy, prev, level, prev_l)
        # Row 1 of the level between: s - 1 entries of 2 products,
        # 1 subtraction and 1 division each.
        ops.multiplications += 2 * (s - 1)
        ops.subtractions += s - 1
        ops.divisions += s - 1
        if s == 2:
            yield (l,), None, [tuple(row)]
            return
        if m is None:
            return
        # Per later row, 2 coefficients like the entries of row 1;
        # then (s-2)**2 entries of 3 products, 2 additions (counted
        # as subtractions) and 1 division each.
        t = s - 2
        ops.multiplications += 4 * t + 3 * t * t
        ops.subtractions += 2 * t + 2 * t * t
        ops.divisions += 2 * t + t * t
        prev, prev_l = row[m - 1], m
        level += 2
        yield (l, m), row, rows


def det_condensation(
    m: Matrix,
    strategy: PivotStrategy = PivotStrategy.FIRST_NONZERO,
    record_trace: bool = True,
) -> DetResult:
    """Determinant by repeated first-row condensation.

    ``record_trace`` chooses the run.  The traced run (the default)
    picks a pivot in row 1 of each level (``strategy``), condenses the
    current s x s matrix into (s-1) x (s-1), and records the step; a
    fully zero first row short-circuits the level to determinant zero
    (recorded as a :class:`ZeroRowExit`).  Once the recursion bottoms
    out at size 2 the pivot-power divisions are applied in reverse
    level order, so all condensation happens on undivided entries.
    Sizes 0..2 use the closed forms directly and leave an empty trace.

    A rational matrix is turned into integer rows once
    (``RationalKind.integer_row``: row i is ``I[i] / scale_i``), and
    every level runs on ints.  ``_reduce_rows`` divides each condensed
    row and its scale s by g = gcd(s, entries...), which keeps the rows
    exactly the integer rows of the level's reduced ``Fraction``
    matrix: entry c_j / s has denominator s / gcd(c_j, s), and the lcm
    of those is s / g.  With G the product of a level's row gcds and
    p its integer pivot, det(I) = det(I_next) * G / p**(s-2) is an
    exact integer division, and det(A) = Fraction(det(I_0), product of
    the input scales).  ``Fraction`` values are built only for trace
    steps and the result.  Row scales are positive, so both pivot
    strategies pick the same column on the integer row.

    Operation counts tally the scalar multiplications, subtractions and
    divisions actually performed, including the closed-form 2x2 base
    case and the pivot-power build-up; the scale and gcd bookkeeping of
    rational rows is representation, not counted.

    ``record_trace=False`` runs ``_divided_levels`` instead, down to the
    1x1 level that is det(A): no divide-back, no sign, and entries that
    are minors of A; the additions of its passes count as subtractions,
    and the first pass's divisions by 1 count too.  A rational or float
    matrix (a double is m * 2**e) runs on its integer rows with no
    per-level gcd.  A rational result is ``Fraction(det(I_0), product
    of the scales)``, a float one their int/int quotient, which is
    correctly rounded: the double nearest the exact determinant, 0.0 or
    a subnormal on underflow, and ``OverflowError`` naming the double
    range past it.  Divided levels are not the condensed matrices of
    the identity above, so the trace is empty.
    """
    n = _require_square(m, "det_condensation")
    kind = m.kind
    ops = OpCounts()
    if n == 0:
        return DetResult(kind.one, (), ops)
    if n == 1:
        return DetResult(m.get(1, 1), (), ops)

    rows = m.as_tuples()
    ring, scales = kind, None
    if kind is RATIONAL or (kind is FLOAT and not record_trace):
        # Unpacked from a list: unpacking a map builds its argument
        # tuple by resizing (see Matrix.__init__).
        rows, scales = zip(*[RATIONAL.integer_row(row) for row in rows])
        ring, denominator = INTEGER, math.prod(scales)
    if not record_trace:
        level = rows
        for *_, level in _divided_levels(rows, strategy, ops):
            pass
        value = level[0][0] if len(level) == 1 else 0
        if kind is FLOAT:
            return DetResult(_nearest_double(value, denominator), (), ops)
        return DetResult(value if scales is None else Fraction(value, denominator), (), ops)
    trace: List[TraceEntry] = []
    pending: List[Tuple[Scalar, int, int, int]] = []
    while True:
        size = len(rows)
        if size == 2:
            (a, b), (c, d) = rows
            ops.multiplications += 2
            ops.subtractions += 1
            value = a * d - b * c
            break
        row1 = rows[0]
        l = select_pivot(row1, strategy)
        if l is None:
            trace.append(ZeroRowExit(size))
            value = ring.zero
            break
        pivot = row1[l - 1]
        condensed = _condense_rows(rows, 0, l - 1)
        ops.multiplications += 2 * (size - 1) ** 2
        ops.subtractions += (size - 1) ** 2
        if scales is None:
            pivot_value, view, gcds = pivot, condensed, 1
        else:
            pivot_value = Fraction(pivot, scales[0])
            condensed, scales, gcds = _reduce_rows(condensed, scales)
            view = [tuple([Fraction(v, scale) for v in row]) for row, scale in zip(condensed, scales)]
        trace.append(CondensationStep(PivotSpec(1, l), pivot_value, Matrix._trusted(view, kind, size - 1)))
        pending.append((pivot, l, size, gcds))
        rows = condensed

    for pivot, l, size, gcds in reversed(pending):
        try:
            value = _divide_back(ring, value * gcds, pivot, size, ops)
        except ExactDivisionError as exc:
            raise ExactDivisionError(f"divide-back of the size-{size} level, pivot (1, {l}): {exc}") from exc
    if scales is not None:
        value = Fraction(value, denominator)
    return DetResult(value, tuple(trace), ops)


TRACE_FORMAT = "condensation-trace/1"


def trace_document(m: Matrix, result: DetResult) -> dict:
    """JSON-ready document for one run: source matrix, per-level steps
    (pivot position, pivot value text, the format's constant ``"sign":
    1``, condensed entries in row-major order) and the final value, all
    scalars as canonical text."""
    kind = m.kind
    steps: List[dict] = []
    for entry in result.trace:
        if isinstance(entry, ZeroRowExit):
            steps.append({"kind": "zero-row", "size": entry.size})
        else:
            steps.append(
                {
                    "kind": "condense",
                    "pivot": [entry.pivot.k, entry.pivot.l],
                    "pivot_value": kind.format(entry.pivot_value),
                    "sign": 1,
                    "condensed": matrix_to_doc(entry.condensed),
                }
            )
    return {
        "format": TRACE_FORMAT,
        "scalar_kind": kind.name,
        "matrix": matrix_to_doc(m),
        "steps": steps,
        "value": kind.format(result.value),
    }


def _is_pivot(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(_is_json(v, int) and v >= 1 for v in value)


def _read_scalar(obj: dict, name: str, kind: ScalarKind, where: str) -> Scalar:
    text = _field(obj, name, where, lambda v: isinstance(v, str), "a string")
    try:
        return kind.parse(text)
    except ScalarParseError as exc:
        raise ValueError(f"{where}'{name}': {exc}") from exc


def trace_from_document(doc: dict) -> Tuple[Matrix, Scalar, Tuple[TraceEntry, ...]]:
    """Rebuild (source matrix, value, steps) from a trace document; a
    ValueError names the field, unknown key, step or matrix entry at fault.
    The document's format and each step's kind are read before their
    keys are judged, since the keys a document may hold depend on them."""
    where = "trace document: "
    if _json_object(doc, None, where).get("format") != TRACE_FORMAT:
        raise ValueError(f"not a {TRACE_FORMAT} document: format={_echo(doc.get('format'))}")
    _json_object(doc, ("format", "scalar_kind", "matrix", "steps", "value"), where)
    kind_name = _field(doc, "scalar_kind", where)
    kind = KINDS.get(kind_name) if isinstance(kind_name, str) else None
    if kind is None:
        raise ValueError(f"unknown scalar kind {_echo(kind_name)}")
    m = matrix_from_doc(_field(doc, "matrix", where), kind, "trace matrix: ")
    steps: List[TraceEntry] = []
    step_docs = _field(doc, "steps", where, lambda v: isinstance(v, list), "a list")
    for number, step in enumerate(step_docs, start=1):
        at = f"trace step {number}: "
        tag = _json_object(step, None, at).get("kind")
        if tag == "zero-row":
            _json_object(step, ("kind", "size"), at)
            steps.append(ZeroRowExit(_field(step, "size", at, lambda v: _is_json(v, int) and v >= 3, "an integer >= 3")))
        elif tag == "condense":
            _json_object(step, ("kind", "pivot", "pivot_value", "sign", "condensed"), at)
            k, l = _field(step, "pivot", at, _is_pivot, "a pair of integers >= 1")
            pivot_value = _read_scalar(step, "pivot_value", kind, at)
            _field(step, "sign", at, lambda v: _is_json(v, int) and v == 1, "1")
            condensed = matrix_from_doc(_field(step, "condensed", at), kind, f"trace step {number} condensed matrix: ")
            size = condensed.rows + 1
            if max(k, l) > size:
                raise ValueError(f"{at}'pivot' must lie within its size-{size} level, got {[k, l]!r}")
            steps.append(CondensationStep(PivotSpec(k, l), pivot_value, condensed))
        else:
            raise ValueError(f"unknown trace step kind {_echo(tag)}")
    value = _read_scalar(doc, "value", kind, where)
    return m, value, tuple(steps)
