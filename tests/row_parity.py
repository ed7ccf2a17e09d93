"""Row parsing against cell-by-cell parsing, on edge cells.

Matrix files of both shapes and trace documents read their cells
through one row reader, ``condet.matrix._read_row``: a row of integer
or float cells with one ``int()`` or ``float()`` call per cell, a row
of rational cells with ``int()`` on each side of a cell's ``/``
(``matrix._rational_cell``), and the row cell by cell with
``kind.parse`` only where that fails.  Each cell here is read both
ways, alone and next to a plain cell, as a plain-text row through
``parse_matrix_text`` and as a one-row JSON matrix through
``matrix_from_doc``, and must give equal values (floats compared by
``repr``) or the same located message.  The builtins' grammar is the
interpreter's, so this runs on every supported Python, test tools or
not:

    PYTHONPATH=src:tests python -c 'import row_parity; row_parity.main()'
"""

import sys
import unicodedata
from fractions import Fraction

from condet import FLOAT, INTEGER, RATIONAL, ScalarParseError
from condet.cli import MatrixFileError, parse_matrix_text
from condet.matrix import matrix_from_doc

EDGE_CELLS = [
    # signs and plain forms
    "0", "-0", "+0", "007", "+5", "-5", "+-5", "--5", "-", "+", "5-",
    "1.5", "-0.0", ".5", "5.", "+.5", "-5.", ".", "1e3", "1E+3", "1e-3",
    "1.e5", ".5e1", "e5", "1e", "1e+", "1/2", "-3/4", "1/0", "sqrt(2)",
    "0x10", "0o7", "0b1", "1j", "0x1p3",
    # underscores, which int() and float() accept and the kinds refuse
    "1_000", "_1", "1_", "1__0", "1_0.5", "1.0_5", "1e1_0", "٣_٣",
    # non-finite and out-of-range floats
    "nan", "NaN", "-nan", "inf", "-inf", "+Inf", "infinity", "-Infinity",
    "1e400", "-1e400", "1e-400", "1.7976931348623157e308", "1.8e308",
    "4.9e-324", "2e-324",
    # digits other than 0-9: Arabic-Indic, fullwidth, mathematical
    # (decimal, so int() and the kinds' \d take them) and superscript,
    # vulgar fraction and Roman numeral (neither takes them)
    "٣", "١٢", "-٣", "٣.٥", "١e٣", "۴۲", "１２", "－１", "１.５",
    "𝟏𝟐", "𝟘", "𝟙.𝟝", "²", "1²", "½", "Ⅻ", "١٫٥",
    # past the int/str digit limit (4,300 digits from Python 3.11)
    "9" * 5000, "-" + "1" * 5000, "0." + "1" * 5000, "1" * 5000 + "e-5000",
    # rational p/q: signs on either side, zero denominators, a slash too
    # many or with a side missing, decimal sides, other decimal digits
    # and sides past the digit limit
    "1/-2", "+1/+2", "-0/5", "0/0", "1/+0", "1/2/3", "/2", "2/", "1//2",
    "1/2.5", "1.5/2", "1e3/2", "٣/٤", "１/２", "9" * 5000 + "/7", "7/" + "9" * 5000,
]


def numeric_characters():
    """Every character Python calls numeric that is not ASCII."""
    return [c for c in map(chr, range(0x80, sys.maxunicode + 1)) if c.isnumeric()]


def _cellwise(kind, cells, where):
    # What parsing the row cell by cell gives: values or the message
    # locating the first bad cell, ``where`` being its location format.
    values = []
    for col, cell in enumerate(cells, start=1):
        try:
            values.append(kind.parse(cell))
        except ScalarParseError as exc:
            return f"{where.format(col)}: {exc}"
    return values


def _key(values):
    # Floats by repr (-0.0 is not 0.0), other values by type and value:
    # repr of an int past the digit limit raises.
    if isinstance(values, str):
        return values
    return [repr(v) if isinstance(v, float) else (type(v), v) for v in values]


def differences(kinds=(INTEGER, FLOAT, RATIONAL), cells=None):
    """``(kind, row, by row, cell by cell)`` for every row on which the
    two ways disagree, the row read as plain text or as JSON."""
    if cells is None:
        cells = EDGE_CELLS + numeric_characters()
    found = []
    for kind in kinds:
        for cell in cells:
            for row in ([cell], ["1", cell], [cell, "1"]):
                try:
                    got = list(parse_matrix_text(" ".join(row) + "\n", kind).row(1))
                except MatrixFileError as exc:
                    got = str(exc)
                want = _cellwise(kind, row, "line 1, entry {}")
                if _key(got) != _key(want):
                    found.append((kind.name, row, got, want))
                try:
                    got = list(matrix_from_doc({"rows": 1, "cols": len(row), "entries": row}, kind).row(1))
                except ValueError as exc:
                    got = str(exc)
                want = _cellwise(kind, row, "entry {} (row-major)")
                if _key(got) != _key(want):
                    found.append((f"{kind.name} JSON", row, got, want))
    return found


def _show_value(v):
    # repr of an int past the digit limit raises, and so does a Fraction's.
    if isinstance(v, int) and v.bit_length() > 1000:
        return f"<{v.bit_length()}-bit int>"
    if isinstance(v, Fraction) and max(abs(v.numerator), v.denominator).bit_length() > 1000:
        return f"<{_show_value(v.numerator)}/{_show_value(v.denominator)}>"
    return repr(v)


def _show(values):
    if isinstance(values, str):
        return repr(values)
    return "[" + ", ".join(map(_show_value, values)) + "]"


def main():
    found = differences()
    for kind, row, got, want in found[:20]:
        print(f"{kind} {row!r:.200}: by row {_show(got):.200}, cell by cell {_show(want):.200}")
    print(f"{len(found)} rows differ on Python {sys.version.split()[0]}, Unicode {unicodedata.unidata_version}")
    sys.exit(1 if found else 0)
