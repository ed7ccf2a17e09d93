"""Dense matrices over one scalar kind, with 1-based indexing.

Rows and columns are numbered from 1 throughout the package; that is
the native convention of the condensation formulas and it keeps every
off-by-one in a single place (this module).  A :class:`Matrix` is
immutable: helpers return new instances.

Besides the container this module holds minor extraction
(`remove_rows_cols`) and the one JSON form of a matrix, the object
``{"rows": R, "cols": C, "entries": [...]}`` with entry texts in
row-major order, that matrix files and trace documents share
(`matrix_to_doc` / `matrix_from_doc`), and the two checks every JSON
object condet reads goes through, matrix, bench config and trace
document alike (`_json_object` / `_field`).
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .scalars import Scalar, ScalarKind, ScalarParseError, _echo

__all__ = [
    "PivotSpec",
    "Matrix",
    "remove_rows_cols",
    "matrix_to_doc",
    "matrix_from_doc",
]


class PivotSpec(NamedTuple):
    """A 1-based (row, column) pivot position."""

    k: int
    l: int


class Matrix:
    """Immutable dense matrix; every entry belongs to one scalar kind."""

    __slots__ = ("_data", "_cols", "_kind")

    def __init__(self, rows: Iterable[Sequence], kind: ScalarKind, *, cols: Optional[int] = None):
        data = []
        width = cols
        for lineno, row in enumerate(rows, start=1):
            entries = tuple(kind.check(v) for v in row)
            if width is None:
                width = len(entries)
            elif len(entries) != width:
                raise ValueError(
                    f"ragged matrix: row {lineno} has {len(entries)} entries, expected {width}"
                )
            data.append(entries)
        if width is None:
            width = 0
        if data and width == 0:
            raise ValueError("matrix rows must not be empty")
        self._data = tuple(data)
        self._cols = width
        self._kind = kind

    @classmethod
    def _trusted(cls, data: list, kind: ScalarKind, cols: int) -> "Matrix":
        """Wrap rectangular rows of values already valid for ``kind``.

        Skips the per-entry ``kind.check``, which is the identity on
        differences of products of checked entries; the condensation
        kernel builds its results that way.
        """
        m = object.__new__(cls)
        m._data = tuple(data)
        m._cols = cols
        m._kind = kind
        return m

    @property
    def rows(self) -> int:
        return len(self._data)

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def kind(self) -> ScalarKind:
        return self._kind

    def is_square(self) -> bool:
        return self.rows == self.cols

    def get(self, i: int, j: int) -> Scalar:
        """Entry at 1-based position (i, j)."""
        if not 1 <= i <= self.rows:
            raise IndexError(f"row {i} out of range 1..{self.rows}")
        if not 1 <= j <= self.cols:
            raise IndexError(f"column {j} out of range 1..{self.cols}")
        return self._data[i - 1][j - 1]

    def row(self, i: int) -> tuple:
        """Row ``i`` (1-based) as a tuple of values."""
        if not 1 <= i <= self.rows:
            raise IndexError(f"row {i} out of range 1..{self.rows}")
        return self._data[i - 1]

    def as_tuples(self) -> tuple:
        """The underlying tuple-of-row-tuples (no copy)."""
        return self._data

    def to_rows(self) -> list:
        """Entries as a fresh list of row lists."""
        return [list(row) for row in self._data]

    def transpose(self) -> "Matrix":
        flipped = tuple(zip(*self._data)) if self._data else ()
        return Matrix(flipped, self._kind, cols=self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self._kind is other._kind
            and self._cols == other._cols
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self._kind.name, self._cols, self._data))

    def __repr__(self) -> str:
        return f"Matrix({self.to_rows()!r}, kind={self._kind.name})"


def _require_square(m: Matrix, who: str) -> int:
    """The size of ``m``; a ValueError naming ``who`` if it is not square."""
    if not m.is_square():
        raise ValueError(f"{who} needs a square matrix, got {m.rows}x{m.cols}")
    return m.rows


def _check_removed(indices: Iterable[int], limit: int, what: str) -> list:
    out = sorted(set(int(i) for i in indices))
    given = list(indices)
    if len(given) != len(out):
        raise ValueError(f"duplicate {what} indices in {given!r}")
    for i in out:
        if not 1 <= i <= limit:
            raise IndexError(f"{what} index {i} out of range 1..{limit}")
    return out


def remove_rows_cols(m: Matrix, removed_rows: Iterable[int], removed_cols: Iterable[int]) -> Matrix:
    """Minor of ``m``: drop the listed 1-based rows and columns.

    Surviving rows and columns keep their relative order.  Removing
    everything is legal and yields a 0x0 matrix.  The entries were
    checked when ``m`` was built, so the minor skips the re-check.
    """
    rr = set(_check_removed(list(removed_rows), m.rows, "row"))
    rc = set(_check_removed(list(removed_cols), m.cols, "column"))
    kept_cols = [j for j in range(m.cols) if j + 1 not in rc]
    if not kept_cols and len(rr) < m.rows:
        raise ValueError("matrix rows must not be empty")
    data = [
        tuple(row[j] for j in kept_cols)
        for i, row in enumerate(m.as_tuples())
        if i + 1 not in rr
    ]
    return Matrix._trusted(data, m.kind, len(kept_cols))


def _is_json(value, typ: type) -> bool:
    # JSON true/false load as bool, which Python counts as an int.
    return isinstance(value, typ) and not isinstance(value, bool)


def _json_object(doc, known: Optional[Sequence[str]], where: str) -> dict:
    """``doc`` if it is a JSON object whose keys are all in ``known``
    (any keys when ``known`` is None); else a ValueError after the
    ``where`` prefix.  Matrix files, bench configs and trace documents
    are all read through this and :func:`_field`."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}must be a JSON object, got {type(doc).__name__}")
    for key in doc:
        if known is not None and key not in known:
            raise ValueError(f"{where}unknown key {_echo(key)}; known keys: {', '.join(known)}")
    return doc


def _field(obj: dict, name: str, where: str, ok: Callable[[object], bool] = lambda v: True, what: str = ""):
    """``obj[name]``; a ValueError after the ``where`` prefix if it is
    missing or fails ``ok``, saying that it must be ``what``."""
    if name not in obj:
        raise ValueError(f"{where}missing '{name}'")
    value = obj[name]
    if not ok(value):
        raise ValueError(f"{where}'{name}' must be {what}, got {_echo(value)}")
    return value


def matrix_to_doc(m: Matrix) -> dict:
    """``m`` as its JSON object: dimensions and canonical entry texts in
    row-major order."""
    fmt = m.kind.format
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [fmt(v) for row in m.as_tuples() for v in row],
    }


def matrix_from_doc(doc, kind: ScalarKind, where: str = "") -> Matrix:
    """Read the JSON object written by :func:`matrix_to_doc`; anything
    else, an unknown key included, raises a ValueError that starts with
    ``where`` and names the key, or the entry by its 1-based row-major
    position, at fault."""
    _json_object(doc, ("rows", "cols", "entries"), where)
    rows, cols = (_field(doc, name, where, lambda v: _is_json(v, int), "an integer") for name in ("rows", "cols"))
    entries = _field(doc, "entries", where, lambda v: isinstance(v, list), "a list")
    for name, size in (("rows", rows), ("cols", cols)):
        if size < 0:
            raise ValueError(f"{where}claims {name} = {size}, must be >= 0")
    parsed = []
    for idx, cell in enumerate(entries, start=1):
        if not isinstance(cell, str):
            raise ValueError(f"{where}entry {idx} (row-major): must be a string, got {_echo(cell)}")
        try:
            parsed.append(kind.parse(cell))
        except ScalarParseError as exc:
            raise ValueError(f"{where}entry {idx} (row-major): {exc}") from exc
    if len(parsed) != rows * cols:
        raise ValueError(f"{where}claims {rows}x{cols} = {rows * cols} entries, got {len(parsed)}")
    return Matrix([parsed[r * cols : (r + 1) * cols] for r in range(rows)], kind, cols=cols)
