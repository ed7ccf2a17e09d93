"""Determinant condensation: collapse an n x n matrix into an
(n-1) x (n-1) matrix of pivot-anchored 2x2 minors.

With pivot (k, l), entry (i, j) of the condensed matrix is the
determinant of a 2x2 block built from the pivot row/column and row
i (or i+1, once past the pivot row) and column j (or j+1, once past
the pivot column) of the source.  That block layout absorbs all
permutation signs (the argument is in ``_condense``), giving the
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
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .matrix import Matrix, PivotSpec, matrix_from_doc, matrix_to_doc, remove_rows_cols
from .oracle import det_bareiss
from .scalars import FLOAT, KINDS, RATIONAL, OpCounts, Scalar, ScalarKind

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


@dataclass(frozen=True)
class CondensationStep:
    """One condensation level: pivot position, its value, the sign the
    rotation convention contributes (+1 for the in-place block layout),
    and the condensed matrix."""

    pivot: PivotSpec
    pivot_value: Scalar
    sign: int
    condensed: Matrix


@dataclass(frozen=True)
class ZeroRowExit:
    """Marker for a level whose first row was entirely zero, which
    forces the determinant to zero without further condensation."""

    size: int


TraceEntry = Union[CondensationStep, ZeroRowExit]


@dataclass(frozen=True)
class DetResult:
    """Value, per-level trace and operation counts of one run."""

    value: Scalar
    trace: Tuple[TraceEntry, ...]
    op_counts: OpCounts


class PivotStrategy(enum.Enum):
    """How ``det_condensation`` picks its pivot within row 1."""

    FIRST_NONZERO = "first-nonzero"
    MAX_MAGNITUDE = "max-magnitude"


def _require_condensable(m: Matrix, who: str) -> int:
    if not m.is_square():
        raise ValueError(f"{who} needs a square matrix, got {m.rows}x{m.cols}")
    if m.rows < 2:
        raise ValueError(f"{who} needs size >= 2, got {m.rows}")
    return m.rows


def _condense(m: Matrix, k: int, l: int) -> Matrix:
    """Condense ``m`` at the 0-based pivot (k, l): the one place the
    pivot-anchored 2x2 determinants are computed.

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

    Rational matrices run on integer rows (``RationalKind.integer_row``):
    each 2x2 determinant of row r and the pivot row comes out scaled by
    both rows' scales and turns back into one ``Fraction``.
    """
    src = m.as_tuples()
    scales = None
    if m.kind is RATIONAL:
        src, scales = zip(*map(RATIONAL.integer_row, src))
    pivot_row = src[k]
    data = []
    for r, row in enumerate(src):
        if r == k:
            continue
        top, bottom = (row, pivot_row) if r < k else (pivot_row, row)
        top_l, bottom_l = top[l], bottom[l]
        left = [t * bottom_l - top_l * b for t, b in zip(top[:l], bottom[:l])]
        right = [top_l * b - t * bottom_l for t, b in zip(top[l + 1 :], bottom[l + 1 :])]
        entries = left + right
        if scales is not None:
            scale = scales[r] * scales[k]
            entries = [Fraction(v, scale) for v in entries]
        data.append(tuple(entries))
    return Matrix._trusted(data, m.kind, len(src) - 1)


def condense_at_11(m: Matrix) -> CondensationStep:
    """Condense at the natural corner pivot (1, 1).

    Entry (i, j) of the result is a(1,1)*a(i+1,j+1) - a(1,j+1)*a(i+1,1).
    The pivot value may be zero; the identity then degenerates to a
    singular condensed matrix.
    """
    _require_condensable(m, "condense_at_11")
    return CondensationStep(PivotSpec(1, 1), m.get(1, 1), 1, _condense(m, 0, 0))


def condense_at(m: Matrix, pivot: PivotSpec) -> CondensationStep:
    """Condense at an arbitrary pivot (k, l) without moving any rows.

    The recorded sign is the one a front-rotation of the pivot would
    contribute, ``(-1)**((k-1)+(l-1))``; the block layout already
    absorbs it, so the condensation identity itself needs no sign.
    """
    n = _require_condensable(m, "condense_at")
    k, l = pivot
    if not (1 <= k <= n and 1 <= l <= n):
        raise IndexError(f"pivot {pivot!r} out of range for size {n}")
    sign = 1 if (k + l) % 2 == 0 else -1
    return CondensationStep(PivotSpec(k, l), m.get(k, l), sign, _condense(m, k - 1, l - 1))


def dodgson_identity_residual(m: Matrix, k: int, l: int) -> Scalar:
    """Residual of the Dodgson (Desnanot-Jacobi) identity at rows/cols k < l.

    Writing M(R, C) for the minor of ``m`` with rows R and columns C
    removed, the identity states

        det(m) * det(M({k,l}, {k,l})) =
            det(M({l},{l})) * det(M({k},{k})) - det(M({l},{k})) * det(M({k},{l}))

    and the residual is left side minus right side: exactly zero over
    exact kinds, tiny over floats.  All determinants go through the
    Bareiss oracle, independent of the condensation path.
    """
    n = m.rows
    if not m.is_square():
        raise ValueError("dodgson_identity_residual needs a square matrix")
    if n < 2:
        raise ValueError(f"dodgson_identity_residual needs size >= 2, got {n}")
    if not (1 <= k < l <= n):
        raise ValueError(f"need 1 <= k < l <= {n}, got k={k}, l={l}")
    lhs = det_bareiss(m) * det_bareiss(remove_rows_cols(m, (k, l), (k, l)))
    ll = det_bareiss(remove_rows_cols(m, (l,), (l,)))
    kk = det_bareiss(remove_rows_cols(m, (k,), (k,)))
    lk = det_bareiss(remove_rows_cols(m, (l,), (k,)))
    kl = det_bareiss(remove_rows_cols(m, (k,), (l,)))
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
            value = kind.exact_div(value, pivot)
            ops.divisions += 1
        return value
    power = pivot
    for _ in range(size - 3):
        power = power * pivot
        ops.multiplications += 1
    ops.divisions += 1
    return kind.exact_div(value, power)


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

    Operation counts tally the scalar multiplications, subtractions and
    divisions actually performed, including the closed-form 2x2 base
    case and the pivot-power build-up.
    """
    if not m.is_square():
        raise ValueError(f"det_condensation needs a square matrix, got {m.rows}x{m.cols}")
    kind = m.kind
    ops = OpCounts()
    trace: List[TraceEntry] = []
    n = m.rows
    if n == 0:
        return DetResult(kind.one, (), ops)
    if n == 1:
        return DetResult(m.get(1, 1), (), ops)

    current = m
    pending: List[Tuple[Scalar, int]] = []
    while True:
        size = current.rows
        if size == 2:
            (a, b), (c, d) = current.as_tuples()
            ops.multiplications += 2
            ops.subtractions += 1
            value = a * d - b * c
            break
        row1 = current.row(1)
        l = select_pivot(row1, strategy)
        if l is None:
            if record_trace:
                trace.append(ZeroRowExit(size))
            value = kind.zero
            break
        pivot = row1[l - 1]
        condensed = _condense(current, 0, l - 1)
        ops.multiplications += 2 * (size - 1) ** 2
        ops.subtractions += (size - 1) ** 2
        if record_trace:
            trace.append(CondensationStep(PivotSpec(1, l), pivot, 1, condensed))
        pending.append((pivot, size))
        current = condensed

    for pivot, size in reversed(pending):
        value = _divide_back(kind, value, pivot, size, ops)
    return DetResult(value, tuple(trace), ops)


TRACE_FORMAT = "condensation-trace/1"


def _read_matrix(doc, kind: ScalarKind, where: str) -> Matrix:
    try:
        return matrix_from_doc(doc, kind)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def trace_document(m: Matrix, result: DetResult) -> dict:
    """JSON-ready document for one run: source matrix, per-level steps
    (pivot position, pivot value text, sign, condensed entries in
    row-major order) and the final value, all scalars as canonical
    text."""
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
                    "sign": entry.sign,
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


def trace_from_document(doc: dict) -> Tuple[Matrix, Scalar, Tuple[TraceEntry, ...]]:
    """Rebuild (source matrix, value, steps) from a trace document."""
    if doc.get("format") != TRACE_FORMAT:
        raise ValueError(f"not a {TRACE_FORMAT} document: format={doc.get('format')!r}")
    kind = KINDS.get(doc.get("scalar_kind"))
    if kind is None:
        raise ValueError(f"unknown scalar kind {doc.get('scalar_kind')!r}")
    m = _read_matrix(doc.get("matrix"), kind, "trace matrix")
    steps: List[TraceEntry] = []
    for number, step in enumerate(doc["steps"], start=1):
        if step.get("kind") == "zero-row":
            steps.append(ZeroRowExit(int(step["size"])))
        elif step.get("kind") == "condense":
            k, l = (int(x) for x in step["pivot"])
            steps.append(
                CondensationStep(
                    PivotSpec(k, l),
                    kind.parse(step["pivot_value"]),
                    int(step["sign"]),
                    _read_matrix(step.get("condensed"), kind, f"trace step {number} condensed matrix"),
                )
            )
        else:
            raise ValueError(f"unknown trace step kind {step.get('kind')!r}")
    value = kind.parse(doc["value"])
    return m, value, tuple(steps)
