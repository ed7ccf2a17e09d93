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

Both runs work on integer rows, those of a rational or float matrix
included (``RationalKind.integer_row``).  A traced run, which records
every condensed matrix, keeps entries undivided, and their bits roughly
double per level.  The untraced run,
``det_condensation(m, record_trace=False)``, instead divides every
entry of each new level exactly by the pivot of the step before
(Sylvester's identity, as in Bareiss, Math. Comp. 22, 1968, and
Dodgson, Proc. R. Soc. 15, 1866): entry (r, c) of level t is then the
minor of A on rows 1..t and t+1+r and on the columns of the t pivots
so far plus the source column of c, in increasing order and with no
sign, so entries stay below the Hadamard bound and the last 1x1 level
is det(A) itself.  One loop, ``_divided_levels``, goes down two levels
per pass by Bareiss's two-step method: it builds row 1 of the level
between, then each entry of the level after from a bordered 3x3 minor,
every entry with one exact division, by 1 on the first pass as in
Bareiss's first stage.  So a float determinant, traced or not, is exact
until one final, correctly rounded division, and a float trace records
each scalar of its exact levels rounded once.

``dodgson_identity_residual`` evaluates the classical Dodgson
(Desnanot-Jacobi) minor identity through the independent oracles,
as a cross-check that never touches the condensation code above it.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .matrix import (
    Matrix, PivotSpec, _field, _is_json, _json_object, _read_row, _require_square, matrix_from_doc, matrix_to_doc,
    remove_rows_cols,
)
from .oracle import _LEVEL_BUDGET, _OverBudget, _integer_matrix, _level_weight, det_bareiss
from .scalars import (
    FLOAT, INTEGER, KINDS, RATIONAL, ExactDivisionError, OpCounts, Scalar, ScalarKind, _divmod_for, _echo, _max_bits
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


def _divide_back(value: int, pivot: int, size: int, ops: OpCounts) -> int:
    # Undo one level: det(A) = det(condensed) / pivot**(size-2), with the
    # pivot power built explicitly (size-3 extra multiplications) and
    # divided once, exactly.
    power = pivot
    for _ in range(size - 3):
        power = power * pivot
        ops.multiplications += 1
    ops.divisions += 1
    return INTEGER.exact_div(value, power)


def _double(numerator: int, denominator: int) -> float:
    # numerator / denominator (> 0) rounded once, as IEEE rounding does
    # it: +-inf past the double range, where int / int raises instead.
    try:
        return numerator / denominator
    except OverflowError:
        return math.inf if numerator > 0 else -math.inf


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


def _not_a_multiple(entry: int, divisor: int, level: int, column: int, source: int) -> ExactDivisionError:
    return ExactDivisionError(
        f"divided level {level}: a {entry.bit_length()}-bit entry is not a multiple of the "
        f"{divisor.bit_length()}-bit pivot (1, {column}) of level {source}"
    )


def _divided_levels(
    rows: Sequence[Sequence[int]], strategy: PivotStrategy, ops: OpCounts
) -> Iterator[Tuple[Tuple[int, ...], Optional[List[int]], List[tuple]]]:
    """Sylvester-divided condensation of the square integer ``rows``,
    two levels per pass: Bareiss's two-step method (Math. Comp. 22,
    1968), with pivots picked along row 1.

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

    A pass on level t divides by D, the pivot of level t - 1, or by 1
    on level 0, as Bareiss's first stage does.  With X0, X1 the first
    two rows of level t and p, q their entries in the pivot column, row
    1 of level t + 1 is ``(X0[c]*q - p*X1[c]) / D`` at each column c
    left of the pivot and ``(p*X1[c] - X0[c]*q) / D`` right of it; a
    size-2 level ends there.  The pivot cc of that row lies over
    another column of level t, and u < v are the two pivot columns.
    Each later row R gives two coefficients and an entry of level t + 2
    at every other column c:

        a = (X1[u]*R[v] - X1[v]*R[u]) / D
        b = (X0[u]*R[v] - X0[v]*R[u]) / D
        entry = +-(X0[c]*a - X1[c]*b + R[c]*cc) / D,  minus iff u < c < v

    Why: by Sylvester's identity a 2x2 minor of level t on columns in
    increasing order is D times a minor of A, and a 3x3 one D**2 times
    a minor of A.  cc, a and b are the 2x2 minors on columns u, v of
    rows (1, 2), (2, R) and (1, R) over D, and expanding the 3x3 minor
    on rows 1, 2, R and the sorted columns {u, v, c} along column c
    gives D times the bracket, with the minus of c's middle place.  So
    the entry is that 3x3 minor over D**2, the same minor of A that two
    one-step levels reach; their division by p cancels.  An entry costs
    3 multiplications, 2 additions (counted as subtractions) and 1
    division, where two one-step levels cost 4, 2 and 2.

    Every division is exact, tested inline and counted; a nonzero
    remainder raises ``ExactDivisionError`` naming the level the
    numerator belongs to (t + 1 for row 1 and the coefficients), its
    bit length and the pivot divided by.
    """
    divisor, column, level = 1, None, 0
    while len(rows) > 1:
        x0, x1, size = rows[0], rows[1], len(rows)
        l = select_pivot(x0, strategy)
        if l is None:
            return
        p, q = x0[l - 1], x1[l - 1]
        divide = _divmod_for(divisor)  # the divisor is fixed for the pass
        row = []
        for t, b in zip(x0[: l - 1], x1[: l - 1]):
            e, rem = divide(t * q - p * b, divisor)
            if rem:
                raise _not_a_multiple(t * q - p * b, divisor, level + 1, column, level - 1)
            row.append(e)
        for t, b in zip(x0[l:], x1[l:]):
            e, rem = divide(p * b - t * q, divisor)
            if rem:
                raise _not_a_multiple(p * b - t * q, divisor, level + 1, column, level - 1)
            row.append(e)
        ops.multiplications += 2 * (size - 1)
        ops.subtractions += size - 1
        ops.divisions += size - 1
        if size == 2:
            yield (l,), None, [tuple(row)]
            return
        m = select_pivot(row, strategy)
        if m is None:
            return
        cc = row[m - 1]
        j = m - (m < l)  # the 0-based column of level t that column m of row 1 lies over
        u, v = (l - 1, j) if l - 1 < j else (j, l - 1)
        x0u, x0v, x1u, x1v = x0[u], x0[v], x1[u], x1[v]
        # Every column but u and v, with the sign of its place folded in.
        middle = slice(u + 1, v)
        y0 = [*x0[:u], *map(operator.neg, x0[middle]), *x0[v + 1 :]]
        y1 = [*x1[:u], *map(operator.neg, x1[middle]), *x1[v + 1 :]]
        ks = [cc] * u + [-cc] * (v - u - 1) + [cc] * (size - v - 1)
        built = []
        for r in rows[2:]:
            ru, rv = r[u], r[v]
            a, rem = divide(x1u * rv - x1v * ru, divisor)
            if rem:
                raise _not_a_multiple(x1u * rv - x1v * ru, divisor, level + 1, column, level - 1)
            b, rem = divide(x0u * rv - x0v * ru, divisor)
            if rem:
                raise _not_a_multiple(x0u * rv - x0v * ru, divisor, level + 1, column, level - 1)
            out = []
            for f0, f1, k, w in zip(y0, y1, ks, r[:u] + r[middle] + r[v + 1 :]):
                e, rem = divide(f0 * a - f1 * b + w * k, divisor)
                if rem:
                    raise _not_a_multiple(f0 * a - f1 * b + w * k, divisor, level + 2, column, level - 1)
                out.append(e)
            built.append(tuple(out))
        # Per later row, 2 coefficients like the entries of row 1, then
        # size - 2 entries of 3 products, 2 additions and 1 division.
        ops.multiplications += (size - 2) * (3 * size - 2)
        ops.subtractions += 2 * (size - 2) * (size - 1)
        ops.divisions += (size - 2) * size
        divisor, column, level, rows = cc, m, level + 2, built
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
    Bits about double a level, so one weighing more than ``_LEVEL_BUDGET``
    (size**2 times the bits of row 1, at least 64) raises ``ValueError``.

    A rational or float matrix is turned into integer rows once
    (``RationalKind.integer_row``: row i is ``I[i] / scale_i``, and a
    double is m * 2**e), and every level runs on ints.  Traced,
    ``_reduce_rows`` divides each condensed row and its scale s by g =
    gcd(s, entries...), which keeps the rows exactly the integer rows of
    the level's reduced ``Fraction`` matrix: entry c_j / s has
    denominator s / gcd(c_j, s), and the lcm of those is s / g.  With G
    the product of a level's row gcds and p its integer pivot, det(I) =
    det(I_next) * G / p**(s-2) is an exact integer division.  Row
    scales are positive, so both pivot strategies pick the same column
    on the integer row, for a float matrix the same as for the
    ``Fraction`` values of its doubles.

    A rational result is ``Fraction(det(I_0), product of the input
    scales)``, a float one their int / int quotient, rounded once (0.0
    or a subnormal on underflow), and ``OverflowError`` naming the
    double range past it.  Trace steps hold ``Fraction``s, or int / int
    rounded once and +-inf past the range, so no recorded scalar raises.

    Operation counts tally the scalar multiplications, subtractions and
    divisions actually performed, including the closed-form 2x2 base
    case and the pivot-power build-up; the scale and gcd bookkeeping of
    integer rows is representation, not counted.

    ``record_trace=False`` runs the one loop ``_divided_levels``
    instead, two levels a pass, down to the 1x1 level that is det(A):
    no divide-back, no sign, no per-level gcd, and entries that are
    minors of A; the additions of its passes count as subtractions, and
    the first pass's divisions by 1 count too.
    Divided levels are not the condensed matrices of the identity above,
    so the trace is empty.
    """
    n = _require_square(m, "det_condensation")
    kind = m.kind
    ops = OpCounts()
    if n == 0:
        return DetResult(kind.one, (), ops)

    im, scales, back = _integer_matrix(m)
    rows = level = im.as_tuples()
    if n == 1:
        return DetResult(back(rows[0][0]), (), ops)
    # A recorded scalar int / int: exact, or a double rounded once.
    scalar = Fraction if kind is RATIONAL else _double
    if not record_trace:
        for *_, level in _divided_levels(rows, strategy, ops):
            pass
        return DetResult(back(level[0][0] if len(level) == 1 else 0), (), ops)
    trace: List[TraceEntry] = []
    pending: List[Tuple[int, int, int, int]] = []
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
            value = 0
            break
        weight = _level_weight(size, _max_bits((row1,)))
        if weight > _LEVEL_BUDGET:
            raise _OverBudget(f"traced condensation: level {len(trace)} ({size}x{size}) holds about"
                              f" {weight:.3g} bit-entries, past the budget of {_LEVEL_BUDGET:.0e} a level")
        pivot = row1[l - 1]
        condensed = _condense_rows(rows, 0, l - 1)
        ops.multiplications += 2 * (size - 1) ** 2
        ops.subtractions += (size - 1) ** 2
        if kind is INTEGER:
            pivot_value, view, gcds = pivot, condensed, 1
        else:
            pivot_value = scalar(pivot, scales[0])
            condensed, scales, gcds = _reduce_rows(condensed, scales)
            view = [tuple([scalar(v, scale) for v in row]) for row, scale in zip(condensed, scales)]
        trace.append(CondensationStep(PivotSpec(1, l), pivot_value, Matrix._trusted(view, kind, size - 1)))
        pending.append((pivot, l, size, gcds))
        rows = condensed

    for pivot, l, size, gcds in reversed(pending):
        try:
            value = _divide_back(value * gcds, pivot, size, ops)
        except ExactDivisionError as exc:
            raise ExactDivisionError(f"divide-back of the size-{size} level, pivot (1, {l}): {exc}") from exc
    return DetResult(back(value), tuple(trace), ops)


TRACE_FORMAT = "condensation-trace/1"


def trace_document(m: Matrix, result: DetResult) -> dict:
    """JSON-ready document for one run: source matrix, per-level steps
    (pivot position, pivot value text, the format's constant ``"sign":
    1``, condensed entries in row-major order) and the final value, all
    scalars as canonical text.  A float step with a pivot value or entry
    past the double range (+-inf, which the format cannot read back)
    raises ``OverflowError`` naming the step."""
    kind = m.kind
    steps: List[dict] = []
    for number, entry in enumerate(result.trace, start=1):
        if isinstance(entry, ZeroRowExit):
            steps.append({"kind": "zero-row", "size": entry.size})
        else:
            values = itertools.chain([entry.pivot_value], *entry.condensed.as_tuples())
            if kind is FLOAT and not all(map(math.isfinite, values)):
                raise OverflowError(f"trace step {number}: an entry is past the double range (up to 1.8e308)")
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
    return _read_row([text], kind, lambda col, exc: ValueError(f"{where}'{name}': {exc}"), "_" not in text)[0]


def trace_from_document(doc: dict) -> Tuple[Matrix, Scalar, Tuple[TraceEntry, ...]]:
    """Rebuild (source matrix, value, steps) from a trace document; a
    ValueError names the field, unknown key, matrix entry or step at
    fault; each step must condense the level the step before it built.
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
    size = m.rows  # of the level the next step condenses
    steps: List[TraceEntry] = []
    step_docs = _field(doc, "steps", where, lambda v: isinstance(v, list), "a list")
    for number, step in enumerate(step_docs, start=1):
        at = f"trace step {number}: "
        if size <= 2 or steps and isinstance(steps[-1], ZeroRowExit):
            raise ValueError(f"{at}follows the end of the run at {f'size {size}' if size <= 2 else 'a zero-row exit'}")
        tag = _json_object(step, None, at).get("kind")
        if tag == "zero-row":
            _json_object(step, ("kind", "size"), at)
            if _field(step, "size", at, lambda v: _is_json(v, int) and v >= 3, "an integer >= 3") != size:
                raise ValueError(f"{at}'size' must be {size}, the size of its level, got {_echo(step['size'])}")
            steps.append(ZeroRowExit(size))
        elif tag == "condense":
            _json_object(step, ("kind", "pivot", "pivot_value", "sign", "condensed"), at)
            k, l = _field(step, "pivot", at, _is_pivot, "a pair of integers >= 1")
            pivot_value = _read_scalar(step, "pivot_value", kind, at)
            _field(step, "sign", at, lambda v: _is_json(v, int) and v == 1, "1")
            condensed = matrix_from_doc(_field(step, "condensed", at), kind, f"trace step {number} condensed matrix: ")
            if not condensed.rows == condensed.cols == size - 1:
                raise ValueError(f"{at}'condensed' must be {size - 1}x{size - 1}, one size below its size-{size}"
                                 f" level, got {condensed.rows}x{_echo(condensed.cols)}")
            if max(k, l) > size:
                raise ValueError(f"{at}'pivot' must lie within its size-{size} level, got {_echo([k, l])}")
            steps.append(CondensationStep(PivotSpec(k, l), pivot_value, condensed))
            size -= 1
        else:
            raise ValueError(f"unknown trace step kind {_echo(tag)}")
    value = _read_scalar(doc, "value", kind, where)
    return m, value, tuple(steps)
