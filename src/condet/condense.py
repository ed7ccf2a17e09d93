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

``dodgson_identity_residual`` evaluates the classical Dodgson
(Desnanot-Jacobi) minor identity through the independent oracles,
as a cross-check that never touches the condensation code above it.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .matrix import (
    Matrix, PivotSpec, _field, _is_json, _json_object, _require_square, matrix_from_doc, matrix_to_doc, remove_rows_cols
)
from .oracle import det_bareiss
from .scalars import FLOAT, INTEGER, KINDS, RATIONAL, ExactDivisionError, OpCounts, Scalar, ScalarKind, ScalarParseError, _echo

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
    place the pivot-anchored 2x2 determinants are computed.

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
        best = None
        best_mag = None
        for idx, v in enumerate(row1):
            if v == 0:
                continue
            mag = abs(v)
            if best is None or mag > best_mag:
                best, best_mag = idx + 1, mag
        return best
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
            row = tuple(v // g for v in row)
            scale //= g
            product *= g
        out_rows.append(row)
        out_scales.append(scale)
    return out_rows, out_scales, product


def det_condensation(
    m: Matrix,
    strategy: PivotStrategy = PivotStrategy.FIRST_NONZERO,
    record_trace: bool = True,
) -> DetResult:
    """Determinant by repeated first-row condensation.

    Each level picks a pivot in row 1 (``strategy``), condenses the
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
    """
    n = _require_square(m, "det_condensation")
    kind = m.kind
    ops = OpCounts()
    trace: List[TraceEntry] = []
    if n == 0:
        return DetResult(kind.one, (), ops)
    if n == 1:
        return DetResult(m.get(1, 1), (), ops)

    rows = m.as_tuples()
    ring, scales = kind, None
    if kind is RATIONAL:
        rows, scales = zip(*map(RATIONAL.integer_row, rows))
        ring, denominator = INTEGER, math.prod(scales)
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
            if record_trace:
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
            if record_trace:
                view = [tuple([Fraction(v, scale) for v in row]) for row, scale in zip(condensed, scales)]
        if record_trace:
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
