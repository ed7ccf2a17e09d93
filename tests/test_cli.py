"""The condet command line: det, verify and bench subcommands, exit
codes, matrix file parsing and trace output."""

import gc
import json
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condet import (
    FLOAT,
    INTEGER,
    RATIONAL,
    Matrix,
    PivotStrategy,
    SplitMix64,
    ZeroRowExit,
    det_bareiss,
    det_condensation,
    random_integer_matrix,
    random_rational_matrix,
    trace_from_document,
)
import condet.cli as cli
import condet.bench as bench_module
from condet.bench import METHODS
from condet.cli import (
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    EXIT_USER_ERROR,
    EXIT_VERIFY_FAILED,
    MatrixFileError,
    main,
    parse_matrix_text,
)
import row_parity
from conftest import DOCS, FIXTURES, GOLDEN_PATH


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SMALL = "2 5\n0 1\n"


# --- matrix file parsing ---------------------------------------------------

def test_parse_plain_rows_with_commas_and_spaces():
    m = parse_matrix_text("1, 2\n 3  4 \n", INTEGER)
    assert m.to_rows() == [[1, 2], [3, 4]]


def test_parse_skips_blank_lines():
    m = parse_matrix_text("\n1 2\n\n3 4\n\n", INTEGER)
    assert m.rows == 2


def test_parse_ragged_names_line():
    with pytest.raises(MatrixFileError, match="line 2"):
        parse_matrix_text("1 2\n3\n", INTEGER)


def test_parse_bad_entry_names_position():
    with pytest.raises(MatrixFileError, match="line 2, entry 1"):
        parse_matrix_text("1 2\nx 4\n", INTEGER)


def test_parse_json_object_form():
    doc = {"rows": 2, "cols": 3, "entries": ["1", "1/2", "3", "4", "5", "6"]}
    m = parse_matrix_text(json.dumps(doc), RATIONAL)
    assert m.rows == 2 and m.cols == 3
    assert str(m.get(1, 2)) == "1/2"


def test_parse_json_rejects_entry_count_mismatch():
    doc = {"rows": 2, "cols": 2, "entries": ["1", "2", "3"]}
    with pytest.raises(MatrixFileError, match="claims"):
        parse_matrix_text(json.dumps(doc), INTEGER)


def test_parse_json_rejects_negative_dimensions(tmp_path, capsys):
    doc = {"rows": -2, "cols": -2, "entries": ["1", "2", "3", "4"]}
    with pytest.raises(MatrixFileError, match="rows = -2"):
        parse_matrix_text(json.dumps(doc), INTEGER)
    path = write(tmp_path, "m.json", json.dumps(doc))
    assert main(["det", path]) == EXIT_USER_ERROR
    assert "rows = -2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"cols": 1, "entries": ["1"]}', "missing 'rows'"),
        ('{"rows": "1", "cols": 1, "entries": ["1"]}', "'rows' must be an integer, got '1'"),
        ('{"rows": 1, "cols": true, "entries": ["1"]}', "'cols' must be an integer, got True"),
        ('{"rows": 1, "cols": 2, "entries": "12"}', "'entries' must be a list, got '12'"),
        ('{"rows": 1, "cols": 2, "entries": ["1", 2]}', r"entry 2 \(row-major\): must be a string, got 2"),
        ('{"rows": 1, "cols": 2, "entries": ["1", "x"]}', r"entry 2 \(row-major\): not an integer scalar"),
        ('{"rows": 1, "cols": ', "JSON matrix file: Expecting value"),
    ],
)
def test_parse_json_names_the_bad_field(tmp_path, capsys, doc, message):
    with pytest.raises(MatrixFileError, match=message):
        parse_matrix_text(doc, INTEGER)
    assert main(["det", write(tmp_path, "m.json", doc), "--scalar", "integer"]) == EXIT_USER_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: JSON matrix file: ")


def test_json_matrix_file_refuses_unknown_keys(tmp_path, capsys):
    # A foreign "kind" key must not pass for a choice of scalar kind.
    path = write(tmp_path, "m.json", '{"rows": 1, "cols": 1, "entries": ["5"], "kind": "float"}')
    assert main(["det", path, "--scalar", "rational"]) == EXIT_USER_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: JSON matrix file: unknown key 'kind'; known keys: rows, cols, entries\n"


# Deeper than any recursion limit json.loads can run under.
DEEP_JSON = '{"rows": ' + "[" * 100_000 + "]" * 100_000 + "}"


def test_deeply_nested_json_matrix_file_is_user_error(tmp_path, capsys):
    # json.loads raises RecursionError, which is bad input here, not a fault.
    assert main(["det", write(tmp_path, "m.json", DEEP_JSON)]) == EXIT_USER_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: JSON matrix file: nested too deeply to read\n"


def test_parse_empty_file(tmp_path, capsys):
    with pytest.raises(MatrixFileError, match="no rows"):
        parse_matrix_text("   \n", INTEGER)
    # One emptiness rule for both shapes: a JSON matrix of no rows too.
    for text in ("   \n", '{"rows": 0, "cols": 0, "entries": []}', '{"rows": 0, "cols": 3, "entries": []}'):
        assert main(["det", write(tmp_path, "m.txt", text)]) == EXIT_USER_ERROR
        assert capsys.readouterr() == ("", "error: matrix file has no rows\n")


def test_json_shape_is_checked_before_anything_is_built(tmp_path, capsys):
    # 44 bytes that claim 30,000,000 rows of no columns: refused at once,
    # naming the field, as is a 2x2 claim that holds 10**6 entries.
    for doc, message in (
        ('{"rows": 30000000, "cols": 0, "entries": []}', "claims cols = 0, must be >= 1"),
        (json.dumps({"rows": 2, "cols": 2, "entries": ["x"] * 10**6}), "claims 2x2 = 4 entries, got 1000000"),
    ):
        assert main(["det", write(tmp_path, "m.json", doc)]) == EXIT_USER_ERROR
        assert capsys.readouterr() == ("", f"error: JSON matrix file: {message}\n")


@pytest.mark.parametrize(
    "text, where",
    [
        ("1,,2\n3,,4\n", "line 1, entry 2"),
        ("1 2\n3, ,4\n", "line 2, entry 2"),
        ("1, 2,\n3, 4\n", "line 1, entry 3"),
        ("1 2\n3 4 ,\n", "line 2, entry 3"),
        (",1, 2\n3, 4\n", "line 1, entry 1"),
        ("1 2\n,\n3 4\n", "line 2, entry 1"),
    ],
)
def test_empty_entry_is_located_user_error(tmp_path, capsys, text, where):
    # A blank between two commas, or before or after one, is an entry
    # left out, not a separator: reading past it would give a smaller
    # matrix (1,,2 / 3,,4 read as the 2x2 with det -2).
    for scalar in ("integer", "float", "rational"):
        assert main(["det", write(tmp_path, "m.txt", text), "--scalar", scalar]) == EXIT_USER_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {where}: empty entry\n"


def test_row_readers_match_cellwise_parse():
    # Integer, float and rational rows are read with int() and float()
    # whole (rational cells with int() on each side of the slash); on
    # every edge cell, and every numeric character, the values and the
    # located messages are those of kind.parse cell by cell.
    assert not row_parity.differences()
    # The readers take the rows the kinds take, not some other grammar.
    assert parse_matrix_text("١٢ 𝟏 -0\n", INTEGER).row(1) == (12, 1, 0)
    assert parse_matrix_text("1/-2 ٣/٤ 7 0.5\n", RATIONAL).row(1) == (
        Fraction(-1, 2), Fraction(3, 4), Fraction(7), Fraction(1, 2),
    )
    for text, message in (
        ("1 1/0\n", "line 1, entry 2: zero denominator in '1/0'"),
        ("0/0 1\n", "line 1, entry 1: zero denominator in '0/0'"),
        ("1 1/2/3\n", "line 1, entry 2: not a rational scalar: '1/2/3'"),
    ):
        with pytest.raises(MatrixFileError) as info:
            parse_matrix_text(text, RATIONAL)
        assert str(info.value) == message
    assert list(map(repr, parse_matrix_text("-0 .5 5. 1e-400\n", FLOAT).row(1))) == ["-0.0", "0.5", "5.0", "0.0"]
    for text, message in (
        ("1 1_0\n", "line 1, entry 2: not an integer scalar: '1_0'"),
        ("1 ²\n", "line 1, entry 2: not an integer scalar: '²'"),
        ("0x10 1\n", "line 1, entry 1: not an integer scalar: '0x10'"),
        ("1 1e3\n", "line 1, entry 2: not an integer scalar (fractional text): '1e3'"),
    ):
        with pytest.raises(MatrixFileError) as info:
            parse_matrix_text(text, INTEGER)
        assert str(info.value) == message
    for text, message in (
        ("1 nan\n", "line 1, entry 2: not a float scalar: 'nan'"),
        ("infinity 1\n", "line 1, entry 1: not a float scalar: 'infinity'"),
        ("1 1e400\n", "line 1, entry 2: float out of range: '1e400'"),
        ("1_0.5 1\n", "line 1, entry 1: not a float scalar: '1_0.5'"),
    ):
        with pytest.raises(MatrixFileError) as info:
            parse_matrix_text(text, FLOAT)
        assert str(info.value) == message


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789+-._eE/xnaifty٣１𝟏²", min_size=1, max_size=8))
def test_row_readers_match_cellwise_parse_on_random_cells(cell):
    assert not row_parity.differences(cells=[cell])


# --- det -------------------------------------------------------------------

def test_det_all_methods_agree_on_small_matrix(tmp_path, capsys):
    path = write(tmp_path, "m.txt", SMALL)
    for method in ("condense", "cofactor", "bareiss", "gauss"):
        assert main(["det", path, "--method", method]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "2"


def test_det_defaults_to_condense_rational(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1/2 0\n0 4\n")
    assert main(["det", path]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2"


def test_det_rational_fraction_output(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1/2 1/3\n1/4 1/5\n")
    assert main(["det", path]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1/60"


def test_det_methods_agree_across_random_rational_files(tmp_path, capsys):
    rng = random.Random(500)
    for trial in range(5):
        n = rng.randint(3, 6)
        lines = "\n".join(
            " ".join(f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" for _ in range(n))
            for _ in range(n)
        )
        path = write(tmp_path, f"m{trial}.txt", lines + "\n")
        outputs = set()
        for method in ("condense", "cofactor", "bareiss", "gauss"):
            assert main(["det", path, "--method", method]) == EXIT_OK
            outputs.add(capsys.readouterr().out.strip())
        assert len(outputs) == 1, f"methods disagree: {outputs}"


def test_det_float_condense_matches_bareiss_on_golden(capsys):
    # both are exact until one rounding, so they print the same double
    assert main(["det", str(GOLDEN_PATH), "--scalar", "float"]) == EXIT_OK
    condensed = capsys.readouterr().out
    assert main(["det", str(GOLDEN_PATH), "--scalar", "float", "--method", "bareiss"]) == EXIT_OK
    assert capsys.readouterr().out == condensed


def test_det_pivot_strategy_flag(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1 9 2\n3 4 5\n6 7 8\n")
    assert main(["det", path, "--method", "bareiss"]) == EXIT_OK
    reference = capsys.readouterr().out.strip()
    for strategy in ("first-nonzero", "max-magnitude"):
        assert main(["det", path, "--pivot", strategy]) == EXIT_OK
        assert capsys.readouterr().out.strip() == reference


@pytest.mark.parametrize("scalar, cell, want", [("integer", "-7", "-7"), ("rational", "-3/6", "-1/2"),
                                                 ("float", "-0.0", "0.0")])
def test_det_of_a_1x1_prints_the_same_under_every_method_and_run(tmp_path, capsys, scalar, cell, want):
    path = write(tmp_path, "m.txt", cell + "\n")
    runs = [["--method", method] for method in ("condense", "cofactor", "bareiss", "gauss")]
    runs.append(["--trace", str(tmp_path / "trace.json")])
    for run in runs:
        assert main(["det", path, "--scalar", scalar, *run]) == EXIT_OK
        assert capsys.readouterr().out == want + "\n", run


def test_det_non_square_is_user_error(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1 2 3\n4 5 6\n")
    assert main(["det", path]) == EXIT_USER_ERROR
    assert "square" in capsys.readouterr().err


def test_det_unparsable_file_is_user_error(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1 x\n3 4\n")
    assert main(["det", path]) == EXIT_USER_ERROR
    err = capsys.readouterr().err
    assert "line 1" in err


def test_det_missing_file_is_user_error(tmp_path, capsys):
    assert main(["det", str(tmp_path / "absent.txt")]) == EXIT_USER_ERROR
    assert "cannot read" in capsys.readouterr().err
    binary = tmp_path / "m.bin"
    binary.write_bytes(b"\xff\xfe 1 2\n")
    assert main(["det", str(binary)]) == EXIT_USER_ERROR
    assert f"cannot read {binary}" in capsys.readouterr().err


def test_det_ragged_file_is_user_error(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1 2\n3\n")
    assert main(["det", path]) == EXIT_USER_ERROR
    assert "line 2" in capsys.readouterr().err


def identity_text(n: int) -> str:
    return "".join(" ".join("1" if i == j else "0" for j in range(n)) + "\n" for i in range(n))


def test_det_cofactor_size_cap_is_user_error(tmp_path, capsys, monkeypatch):
    # 11! terms are past the work budget, so the estimate refuses them
    # before det_cofactor, whose own cap would be an internal fault.
    calls = []
    monkeypatch.setattr(bench_module, "det_cofactor", lambda m, ops=None: calls.append(m.rows) or 1)
    assert main(["det", write(tmp_path, "ten.txt", identity_text(10)), "--method", "cofactor"]) == EXIT_OK
    assert capsys.readouterr().out == "1\n"
    assert main(["det", write(tmp_path, "big.txt", identity_text(11)), "--method", "cofactor"]) == EXIT_USER_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: cofactor of a 11x11 matrix of 1-bit integer rows needs an estimated 1.2e+08 work units,"
        " over the budget of 1e+08 (use --method bareiss)\n"
    )
    assert calls == [10]


def test_det_condense_size_cap_is_user_error(tmp_path, capsys):
    # A traced run is bounded by the bits each level holds, not by its
    # size: a traced random 24x24 is refused at the first level past the
    # budget, with nothing on stdout and no trace, while the identity,
    # whose bits never grow, is traced at 21x21 and 64x64.
    trace = tmp_path / "trace.json"
    m = random_integer_matrix(24, 9, SplitMix64(24).split())
    path = write(tmp_path, "m.txt", "".join(" ".join(map(str, row)) + "\n" for row in m.to_rows()))
    for scalar in ("rational", "integer", "float"):
        assert main(["det", path, "--scalar", scalar, "--trace", str(trace)]) == EXIT_USER_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: traced condensation: level ")
        assert captured.err.endswith(", past the budget of 2e+06 a level (drop --trace, or use --method bareiss)\n")
        assert not trace.exists()
    assert main(["det", path]) == EXIT_OK
    assert capsys.readouterr().out == f"{det_bareiss(m)}\n"
    for n in (21, 64):
        assert main(["det", write(tmp_path, "id.txt", identity_text(n)), "--trace", str(trace)]) == EXIT_OK
        assert capsys.readouterr().out == "1\n"
        assert len(json.loads(trace.read_text())["steps"]) == n - 2


def test_det_traces_a_64x64_permutation_and_refuses_400x400_before_any_work(tmp_path, capsys, monkeypatch):
    n = 64
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    m = Matrix([[int(j == perm[i]) for j in range(n)] for i in range(n)], INTEGER)
    path = write(tmp_path, "perm.txt", "".join(" ".join(map(str, row)) + "\n" for row in m.to_rows()))
    trace = tmp_path / "trace.json"
    assert main(["det", path, "--trace", str(trace)]) == EXIT_OK
    assert capsys.readouterr().out == f"{det_bareiss(m)}\n"
    assert json.loads(trace.read_text())["value"] == str(det_bareiss(m))
    # An untraced 400x400 is estimated past the work budget and refused
    # before any determinant, condensation or conversion runs.
    work = []
    for module, name in ((cli, "det_condensation"), (bench_module, "det_bareiss"), (bench_module, "det_cofactor"),
                         (bench_module, "det_gauss_rational"), (type(RATIONAL), "integer_row")):
        monkeypatch.setattr(module, name, lambda *args, name=name: work.append(name))
    big = random_integer_matrix(400, 9, SplitMix64(400).split())
    path = write(tmp_path, "big.txt", "".join(" ".join(map(str, row)) + "\n" for row in big.to_rows()))
    for method, estimate in (("condense", "condensation ... 5.03e+08"), ("bareiss", "bareiss ... 5.03e+08"),
                             ("cofactor", "cofactor ... 2.18e+307")):
        assert main(["det", path, "--scalar", "integer", "--method", method]) == EXIT_USER_ERROR
        captured = capsys.readouterr()
        what, units = estimate.split(" ... ")
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: {what} of a 400x400 matrix of 4-bit integer rows needs an estimated {units} work units,"
            " over the budget of 1e+08"
        )
    assert work == []


def test_untraced_det_converts_the_rows_once(tmp_path, capsys, monkeypatch):
    # The estimate and the run share one conversion to integer rows.
    m = random_rational_matrix(7, SplitMix64(7))
    path = write(tmp_path, "m.txt", "".join(" ".join(map(RATIONAL.format, row)) + "\n" for row in m.as_tuples()))
    want, convert = f"{RATIONAL.format(det_bareiss(m))}\n", type(RATIONAL).integer_row
    calls = []
    monkeypatch.setattr(type(RATIONAL), "integer_row", lambda self, row: calls.append(1) or convert(self, row))
    for method in ("condense", "bareiss", "cofactor"):
        calls.clear()
        assert main(["det", path, "--method", method]) == EXIT_OK
        assert capsys.readouterr().out == want
        assert len(calls) == 7, method


@pytest.mark.parametrize("kind", [INTEGER, RATIONAL], ids=lambda k: k.name)
def test_det_exact_default_runs_divided_past_the_size_cap(tmp_path, capsys, kind):
    # Untraced exact det runs divided condensation, whose levels are
    # minors of the matrix, so it needs no size cap.
    n = 64
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    gen = SplitMix64(n).split()
    matrices = {
        "identity": Matrix([[int(i == j) for j in range(n)] for i in range(n)], kind),
        "permutation": Matrix([[int(j == perm[i]) for j in range(n)] for i in range(n)], kind),
        "random": random_integer_matrix(n, 9, gen) if kind is INTEGER else random_rational_matrix(n, gen),
    }
    for name, m in matrices.items():
        path = write(tmp_path, f"{name}.txt", "\n".join(" ".join(map(kind.format, row)) for row in m.as_tuples()) + "\n")
        for argv in ([], ["--pivot", "max-magnitude"]):
            assert main(["det", path, "--scalar", kind.name, *argv]) == EXIT_OK, name
            assert capsys.readouterr().out == f"{kind.format(det_bareiss(m))}\n", name


def test_det_leaves_no_row_tuples_behind(tmp_path, capsys):
    # CPython keeps freed tuples on a free list per size, up to 2,000
    # each, until a full collection.  A tuple built from a generator is
    # allocated at one size and resized, so freeing it adds to a free
    # list that no allocation of its final size drains: a det building
    # its n row tuples that way parks them there.  Each run starts from
    # empty free lists (a full collection empties them) with automatic
    # collection off.  The runs cover every row reader (int(), float()
    # and the rational cell reader) and the divided default as well as
    # Bareiss.
    gen = SplitMix64(14)
    paths = []
    for i in range(200):
        m = random_integer_matrix(14, 9, gen.split())
        paths.append(write(tmp_path, f"m{i}.txt", "\n".join(" ".join(map(str, row)) for row in m.to_rows()) + "\n"))
    for argv in (
        ["--scalar", "integer", "--method", "bareiss"],
        ["--scalar", "integer"],
        ["--scalar", "float"],
        ["--scalar", "rational"],
    ):
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            for i, path in enumerate(paths):
                if i == 20:
                    warm = tracemalloc.get_traced_memory()[0]
                assert main(["det", path, *argv]) == EXIT_OK
                capsys.readouterr()
            grown = tracemalloc.get_traced_memory()[0] - warm
        finally:
            tracemalloc.stop()
            gc.enable()
        assert grown < 16 * 1024, argv


def test_det_float_default_runs_divided_unless_traced(tmp_path, capsys):
    # The matrix of test_det_float_trace_prints_the_exact_10x10_determinant:
    # untraced, the float default divides, under either pivot strategy
    # (the default is first-nonzero), and prints the correctly rounded
    # value of -346185508.
    gen = SplitMix64(11)
    gen.split()
    m = random_integer_matrix(10, 9, gen.split())
    path = write(tmp_path, "m.txt", "\n".join(" ".join(map(str, row)) for row in m.to_rows()) + "\n")
    for argv in ([], ["--pivot", "max-magnitude"]):
        assert main(["det", path, "--scalar", "float", *argv]) == EXIT_OK
        assert capsys.readouterr().out == "-346185508.0\n"
    # Divided levels are minors of the matrix, so a random 64x64 stays
    # in range, well inside the work budget.
    m = random_integer_matrix(64, 9, SplitMix64(1).split())
    path = write(tmp_path, "big.txt", "\n".join(" ".join(map(str, row)) for row in m.to_rows()) + "\n")
    assert main(["det", path, "--scalar", "float"]) == EXIT_OK
    assert capsys.readouterr().out == f"{float(det_bareiss(m))!r}\n"


def test_det_float_default_pivot_is_first_nonzero_and_cannot_change_the_value(tmp_path, capsys):
    # Its determinant is 2 (199999999999999999997/10**20 exactly).  A
    # run is exact until its last division, so it prints 2.0 under
    # either pivot, traced or not, the default first-nonzero included,
    # where undivided float levels at the pivot 1e-20 would read 0.0.
    path = write(tmp_path, "m.txt", "1e-20 1 1\n1 1 2\n1 2 1\n")
    for argv in ([], *(["--pivot", strategy.value] for strategy in PivotStrategy)):
        assert main(["det", path, "--scalar", "float", *argv]) == EXIT_OK
        assert capsys.readouterr().out == "2.0\n", argv
    # A trace records the first-nonzero pivot (1, 1).
    trace = tmp_path / "trace.json"
    assert main(["det", path, "--scalar", "float", "--trace", str(trace)]) == EXIT_OK
    assert capsys.readouterr().out == "2.0\n"
    assert json.loads(trace.read_text())["steps"][0]["pivot"] == [1, 1]


def test_det_float_prints_the_correctly_rounded_determinant(tmp_path, capsys):
    # The exact product of these doubles is just below 1, though a
    # product of the first two underflows to 0.0.  Untraced
    # condensation, Bareiss and cofactor expansion all run on the
    # integer rows of the doubles and round once.
    path = write(tmp_path, "diag.txt", "1e-200 0 0 0\n0 1e-200 0 0\n0 0 1e200 0\n0 0 0 1e200\n")
    for method in ("condense", "bareiss", "cofactor"):
        assert main(["det", path, "--scalar", "float", "--method", method]) == EXIT_OK
        assert capsys.readouterr().out == "0.9999999999999999\n", method
        assert main(["det", str(GOLDEN_PATH), "--scalar", "float", "--method", method]) == EXIT_OK
        assert capsys.readouterr().out == "74389.14702357294\n", method
    # So does a traced run, on the same integer rows, under either
    # pivot.  The diagonal's step-2 pivot is exactly 1e-400, which its
    # trace records as the IEEE rounding 0.0; the trace reads back.
    trace = tmp_path / "trace.json"
    for strategy in PivotStrategy:
        traced = ["--scalar", "float", "--pivot", strategy.value, "--trace", str(trace)]
        assert main(["det", str(GOLDEN_PATH), *traced]) == EXIT_OK
        assert capsys.readouterr().out == "74389.14702357294\n", strategy
        assert main(["det", path, *traced]) == EXIT_OK
        assert capsys.readouterr().out == "0.9999999999999999\n", strategy
        doc = json.loads(trace.read_text())
        assert doc["steps"][1]["pivot_value"] == "0.0"
        m, value, steps = trace_from_document(doc)
        assert value == 0.9999999999999999 and steps == det_condensation(m, strategy).trace


@pytest.mark.parametrize("n", [5, 10, 20])
def test_det_float_default_is_accurate_across_twelve_decades(tmp_path, capsys, n):
    # Entries +-10**U(-6, 6).  The reference is the exact determinant of
    # the doubles themselves, Bareiss on the Fraction of each entry,
    # rounded once.  Untraced float det is exact until its last
    # division, so no pivot choice is needed.  With float levels,
    # first-nonzero missed 1e-9 on 3, 18 and 25 of the 50 at n = 5, 10
    # and 20, and pivoting by magnitude missed the correctly rounded
    # value on 42, 42 and 49 of them, by up to 2.7e-13.
    rng = random.Random(2400 + n)
    path = tmp_path / "m.txt"
    for _ in range(50):
        rows = [[rng.choice((-1, 1)) * 10 ** rng.uniform(-6, 6) for _ in range(n)] for _ in range(n)]
        path.write_text("".join(" ".join(map(repr, row)) + "\n" for row in rows))
        assert main(["det", str(path), "--scalar", "float"]) == EXIT_OK
        exact = det_bareiss(Matrix([[Fraction(v) for v in row] for row in rows], RATIONAL))
        assert capsys.readouterr().out == f"{float(exact)!r}\n"


def test_cli_methods_pair_each_method_flag_with_one_bench_method():
    # each --method choice names one METHODS entry, and every entry is
    # named exactly once
    assert sorted(cli._CLI_METHODS.values()) == sorted(METHODS)
    for flag, name in cli._CLI_METHODS.items():
        assert METHODS[name].cli_name == flag
        assert cli.build_parser().parse_args(["det", "m.txt", "--method", flag]).method == flag


def test_det_gauss_takes_every_scalar(tmp_path, capsys):
    # Gauss answers in the kind asked for, as Bareiss does: an int for
    # --scalar integer, the nearest double for --scalar float
    cases = (("2 5\n0 1\n", "integer", "2"), ("0.1 0.2\n0.3 0.4\n", "float", "-0.019999999999999997"),
             ("1/3 2\n5 7/2\n", "rational", "-53/6"))
    for text, scalar, want in cases:
        path = write(tmp_path, "m.txt", text)
        for method in ("gauss", "bareiss"):
            assert main(["det", path, "--method", method, "--scalar", scalar]) == EXIT_OK
            assert capsys.readouterr().out == want + "\n"


def test_det_integer_scalar_rejects_fraction_entries(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1/2 0\n0 4\n")
    assert main(["det", path, "--scalar", "integer"]) == EXIT_USER_ERROR


def test_det_float_overflow_text_is_user_error(tmp_path, capsys):
    for bad in ("1e400", "-1e400", "sqrt(1e400)"):
        path = write(tmp_path, "m.txt", f"1 2\n3 {bad}\n")
        assert main(["det", path, "--scalar", "float"]) == EXIT_USER_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2, entry 2" in captured.err
        assert "out of range" in captured.err


def test_det_float_refuses_a_nested_sqrt(tmp_path, capsys):
    # The inside of sqrt( is a plain fraction or decimal, so a cell
    # nested 1,200 deep is bad input, not a RecursionError traceback.
    cell = "sqrt(" * 1200 + "4" + ")" * 1200
    path = write(tmp_path, "m.txt", f"1 2\n3 {cell}\n")
    assert main(["det", path, "--scalar", "float"]) == EXIT_USER_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 2, entry 2: not a float scalar: 'sqrt(sqrt(")
    assert captured.err.count("\n") == 1
    # The message echoes the inside of the outer sqrt( as a repr of
    # 7,197 characters, cut to its head and its length.
    assert len(captured.err) < 200
    assert captured.err.endswith("… (7197 characters)\n")


def test_json_matrix_with_a_huge_field_gets_a_short_message(tmp_path, capsys):
    path = write(tmp_path, "m.json", json.dumps({"rows": "7" * 10**6, "cols": 1, "entries": ["1"]}))
    assert main(["det", path]) == EXIT_USER_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: JSON matrix file: 'rows' must be an integer, got '{'7' * 99}… (1000002 characters)\n"


def test_det_trace_requires_condense(tmp_path, capsys):
    path = write(tmp_path, "m.txt", SMALL)
    out = str(tmp_path / "trace.json")
    assert main(["det", path, "--method", "bareiss", "--trace", out]) == EXIT_USER_ERROR
    assert "--trace" in capsys.readouterr().err
    assert main(["det", path, "--method", "bareiss", "--pivot", "max-magnitude"]) == EXIT_USER_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--pivot is only available with --method condense" in captured.err


def test_det_unwritable_trace_is_user_error(tmp_path, capsys):
    path = write(tmp_path, "m.txt", SMALL)
    trace = tmp_path / "no-such-dir" / "trace.json"
    assert main(["det", path, "--trace", str(trace)]) == EXIT_USER_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot write {trace}" in captured.err


def test_det_huge_rational_exponent_is_located(tmp_path, capsys):
    from condet.scalars import MAX_DECIMAL_SHIFT

    entry = f"1e-{MAX_DECIMAL_SHIFT + 1}"
    path = write(tmp_path, "m.txt", f"1 0\n0 {entry}\n")
    assert main(["det", path]) == EXIT_USER_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line 2, entry 2: exponent out of range: '{entry}'" in captured.err


def test_det_long_numeric_text_parses_or_fails_located(tmp_path, capsys):
    # 5,000 digits: past Python's int/str conversion limit
    path = write(tmp_path, "m.txt", f"1.{'3' * 5000} 0\n0 3\n")
    assert main(["det", path]) == EXIT_OK
    assert capsys.readouterr().out == f"3{'9' * 5000}/1{'0' * 5000}\n"
    big = "1" + "0" * 5000
    path = write(tmp_path, "f.txt", f"{big}/{big[:-1]} 0\n0 {big}/3\n")
    assert main(["det", path, "--scalar", "float"]) == EXIT_USER_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 2, entry 2: float out of range")


def test_det_trace_round_trips_and_validates(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    rng = random.Random(501)
    lines = "\n".join(" ".join(str(rng.randint(-9, 9)) for _ in range(6)) for _ in range(6))
    path = write(tmp_path, "m.txt", lines + "\n")
    out = str(tmp_path / "trace.json")
    assert main(["det", path, "--scalar", "integer", "--trace", out]) == EXIT_OK
    printed = capsys.readouterr().out.strip()
    doc = json.loads((tmp_path / "trace.json").read_text())

    schema = json.loads((DOCS / "trace-schema.json").read_text())
    jsonschema.validate(doc, schema)

    m, value, steps = trace_from_document(doc)
    assert str(value) == printed
    # per-level identity: det(condensed) = pivot**(s-2) * det(level above)
    level, size = det_bareiss(m), m.rows
    for step in steps:
        if isinstance(step, ZeroRowExit):
            break
        below = det_bareiss(step.condensed)
        assert below == step.pivot_value ** (size - 2) * level
        level, size = below, size - 1


@pytest.mark.parametrize("scalar", ["integer", "rational"])
def test_det_trace_past_int_str_limit(tmp_path, capsys, scalar):
    # undivided condensation of a 16x16 reaches ~40k-bit entries, past
    # Python's default 4300-digit int/str conversion limit
    jsonschema = pytest.importorskip("jsonschema")
    gen = SplitMix64(16)
    lines = "\n".join(" ".join(str(gen.int_in(-9, 9)) for _ in range(16)) for _ in range(16))
    path = write(tmp_path, "m16.txt", lines + "\n")
    out = tmp_path / "trace.json"
    assert main(["det", path, "--scalar", scalar, "--trace", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out.strip()
    doc = json.loads(out.read_text())
    longest = max(len(t) for step in doc["steps"] for t in step["condensed"]["entries"])
    assert longest > sys.get_int_max_str_digits() > 0

    jsonschema.validate(doc, json.loads((DOCS / "trace-schema.json").read_text()))
    m, value, steps = trace_from_document(doc)
    result = det_condensation(m)
    assert steps == result.trace
    assert value == result.value == det_bareiss(m)
    assert RATIONAL.format(value) == printed


def test_det_float_trace_prints_the_exact_10x10_determinant(tmp_path, capsys):
    # Undivided levels of this matrix in float arithmetic leave the
    # double range (inf - inf is nan).  A float trace runs on the
    # integer rows of the doubles and rounds each recorded scalar once,
    # so it prints the exact determinant, -346185508, and its trace
    # reads back.
    gen = SplitMix64(11)
    gen.split()
    m = random_integer_matrix(10, 9, gen.split())
    path = write(tmp_path, "m.txt", "\n".join(" ".join(map(str, row)) for row in m.to_rows()) + "\n")
    trace = tmp_path / "trace.json"
    assert main(["det", path, "--scalar", "float", "--trace", str(trace)]) == EXIT_OK
    assert capsys.readouterr().out == "-346185508.0\n"
    source, value, steps = trace_from_document(json.loads(trace.read_text()))
    assert value == -346185508.0
    assert steps == det_condensation(source).trace


def test_det_float_trace_of_unit_random_12x12_is_correctly_rounded(tmp_path, capsys):
    # Entries random.Random(12004).uniform(-1, 1), row-major, written
    # with repr.  In float arithmetic its undivided levels underflow to
    # an all-zero row at level 10.
    rng = random.Random(12004)
    rows = [" ".join(repr(rng.uniform(-1, 1)) for _ in range(12)) for _ in range(12)]
    path = write(tmp_path, "m.txt", "\n".join(rows) + "\n")
    for strategy in PivotStrategy:
        argv = ["det", path, "--scalar", "float", "--pivot", strategy.value]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == "1.1104439719428716\n"
        assert main([*argv, "--trace", str(tmp_path / "trace.json")]) == EXIT_OK
        assert capsys.readouterr().out == "1.1104439719428716\n"


def test_det_float_trace_past_the_double_range_is_internal_error(tmp_path, capsys):
    # Entries randint(-36, 36) / 4 from random.Random(1616): the value,
    # about -2.6e17, is in range, but the undivided entries of step 9
    # are not, and a trace cannot record inf.
    rng = random.Random(1616)
    rows = [" ".join(repr(rng.randint(-36, 36) / 4) for _ in range(16)) for _ in range(16)]
    path = write(tmp_path, "m.txt", "\n".join(rows) + "\n")
    trace = tmp_path / "trace.json"
    assert main(["det", path, "--scalar", "float", "--trace", str(trace)]) == EXIT_INTERNAL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: trace step 9: an entry is past the double range (up to 1.8e308);"
        " use --scalar rational for an exact result\n"
    )
    assert not trace.exists()
    # A value past the range gives the same line traced as untraced.
    path = write(tmp_path, "big.txt", "1e308 1e308\n-1e308 1e308\n")
    head = "internal error: the float determinant has magnitude near 1e616, past the double range (up to 1.8e308)"
    for argv in ([], ["--trace", str(trace)]):
        assert main(["det", path, "--scalar", "float", *argv]) == EXIT_INTERNAL_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{head}; use --scalar rational for an exact result\n"
    assert not trace.exists()


@pytest.mark.parametrize(
    "method, hint",
    [
        ("condense", "use --scalar rational for an exact result\n"),
        ("cofactor", "use --scalar rational for an exact result\n"),
        ("bareiss", "use --scalar rational for an exact result\n"),
    ],
)
def test_det_non_finite_float_hint_names_another_method(tmp_path, capsys, method, hint):
    # The determinant is about -3e401.  Untraced condensation, Bareiss
    # and cofactor expansion are exact until their last division, which
    # names the double range.
    path = write(tmp_path, "m.txt", "1e200 2e200 3\n4e200 5e200 6\n7 8 10\n")
    assert main(["det", path, "--scalar", "float", "--method", method]) == EXIT_INTERNAL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    head = "the float determinant has magnitude near 1e401, past the double range (up to 1.8e308)"
    assert captured.err == f"internal error: {head}; {hint}"


def test_det_float_bareiss_survives_an_overflowing_product(tmp_path, capsys):
    # a fraction-free product of doubles would overflow; on integer
    # rows it prints the exact determinant of the doubles, rounded once
    path = write(tmp_path, "m.txt", "1 2 3\n4 5 6\n7e155 8e155 1e156\n")
    assert main(["det", path, "--scalar", "float", "--method", "bareiss"]) == EXIT_OK
    assert capsys.readouterr().out == "-2.999999999999998e+155\n"


def test_det_internal_divide_failure_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    import condet.cli as cli_module
    from condet.scalars import ExactDivisionError

    def boom(m, strategy, record_trace):
        raise ExactDivisionError("non-exact integer division: 7 / 2")

    monkeypatch.setattr(cli_module, "det_condensation", boom)
    path = write(tmp_path, "m.txt", "1 2 3\n4 5 6\n7 8 10\n")
    assert main(["det", path]) == EXIT_INTERNAL_ERROR
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ValueError("internal bug"), RuntimeError("internal bug")])
def test_det_internal_fault_exits_3_with_traceback(tmp_path, capsys, monkeypatch, error):
    # only bad input exits 2; a library exception of any other kind is a fault
    import condet.cli as cli_module

    def boom(m, strategy, record_trace):
        raise error

    monkeypatch.setattr(cli_module, "det_condensation", boom)
    path = write(tmp_path, "m.txt", "1 2 3\n4 5 6\n7 8 10\n")
    assert main(["det", path]) == EXIT_INTERNAL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback")
    assert f"{type(error).__name__}: internal bug" in captured.err


PINNED_SOURCES = {
    "golden": GOLDEN_PATH,
    "rational": FIXTURES / "rational_7x7.txt",
    "bench": FIXTURES / "bench_default.json",
    # random_integer_matrix(6, 9, SplitMix64(4)), as text
    "integer": FIXTURES / "integer_6x6.txt",
}


@pytest.mark.parametrize(
    "argv, pinned",
    [
        (["det", "--scalar", "float", "--trace"], "golden_7x7_trace.json"),
        (
            ["det", "--scalar", "float", "--pivot", "max-magnitude", "--trace"],
            "golden_7x7_trace_max_magnitude.json",
        ),
        (["bench", "--out"], "bench_default_report.csv"),
        (["det", "--scalar", "rational", "--trace"], "rational_7x7_trace.json"),
        (
            ["det", "--scalar", "rational", "--pivot", "max-magnitude", "--trace"],
            "rational_7x7_trace_max_magnitude.json",
        ),
        (["verify"], "rational_7x7_verify.txt"),
        # float residual digits depend on the order of evaluation
        (["verify", "--scalar", "float"], "golden_7x7_verify_float.txt"),
        (["verify", "--scalar", "integer"], "integer_6x6_verify.txt"),
    ],
)
def test_outputs_match_pinned_bytes(tmp_path, capsys, argv, pinned):
    # trace JSON, bench CSV and verify output are formats: any byte
    # change must be a deliberate, versioned one.  The rational source
    # starts row 1 with a zero, so the first-nonzero pivot moves.
    source = PINNED_SOURCES[pinned.split("_")[0]]
    if argv[-1] in ("--trace", "--out"):
        out = tmp_path / pinned
        assert main([argv[0], str(source), *argv[1:], str(out)]) == EXIT_OK
        capsys.readouterr()
        produced = out.read_bytes()
    else:
        assert main([argv[0], str(source), *argv[1:]]) == EXIT_OK
        produced = capsys.readouterr().out.encode("utf-8")
    assert produced == (FIXTURES / pinned).read_bytes()


# --- verify ----------------------------------------------------------------

def test_verify_passes_on_rational_matrix(tmp_path, capsys):
    rng = random.Random(502)
    lines = "\n".join(
        " ".join(f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" for _ in range(5))
        for _ in range(5)
    )
    path = write(tmp_path, "m.txt", lines + "\n")
    assert main(["verify", path]) == EXIT_OK
    out = capsys.readouterr().out
    lines_out = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines_out[:-1])
    # identity at (1,1), per-pivot identities, pair identities
    assert "condense-identity pivot=(1,1)" in out
    assert "dodgson-identity rows/cols=(4,5)" in out
    assert lines_out[-1].startswith("verify ok")


def test_verify_passes_on_golden_float(capsys):
    assert main(["verify", str(GOLDEN_PATH), "--scalar", "float"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.strip().splitlines()[-1].startswith("verify ok")


def test_verify_counts_all_identities(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1 2 3\n4 5 6\n7 8 10\n")
    assert main(["verify", path]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    # 1 corner + 9 nonzero pivots + 3 pairs = 13 identity lines + summary
    assert len(out) == 14
    assert out[-1] == "verify ok: 13/13 identities hold"


def verify_passes_throughout(path, capsys, count: int) -> None:
    assert main(["verify", path, "--scalar", "float"]) == EXIT_OK
    captured = capsys.readouterr()
    *lines, summary = captured.out.splitlines()
    assert captured.err == ""
    assert all(line.startswith("PASS ") and line.endswith(" residual=0.0") for line in lines)
    assert summary == f"verify ok: {count}/{count} identities hold"


def test_verify_float_overflow_names_the_identity(tmp_path, capsys):
    # a(1,1)**8 with a(1,1) near 4e40 is past the double range; on the
    # integer rows of the doubles every identity is still checked
    # exactly, as for the rational reading.
    gen = SplitMix64(10)
    rows = [" ".join(f"{gen.int_in(30, 50) / 10}e40" for _ in range(10)) for _ in range(10)]
    path = write(tmp_path, "m.txt", "\n".join(rows) + "\n")
    verify_passes_throughout(path, capsys, 146)
    assert main(["verify", path]) == EXIT_OK
    assert capsys.readouterr().out.endswith("verify ok: 146/146 identities hold\n")


def test_verify_non_finite_float_residual_is_no_verdict(tmp_path, capsys):
    # a(1,4)**2 * det(A) is about 3e320 (det(A) is about 3e160), past
    # the double range; on integer rows each residual is an exact zero.
    path = write(tmp_path, "m.txt", "2 1 3 1e80\n1 4 1 2\n3 1 5 1\n1 2 1 1e160\n")
    verify_passes_throughout(path, capsys, 23)


def test_verify_needs_size_three(tmp_path, capsys):
    path = write(tmp_path, "m.txt", SMALL)
    assert main(["verify", path]) == EXIT_USER_ERROR
    assert "size >= 3" in capsys.readouterr().err
    path = write(tmp_path, "wide.txt", "1 2 3\n4 5 6\n")
    assert main(["verify", path]) == EXIT_USER_ERROR
    assert "verify needs a square matrix, got 2x3" in capsys.readouterr().err


def test_verify_refuses_sizes_past_its_cap_before_any_work(tmp_path, capsys, monkeypatch):
    # verify costs about 1.5 n**2 Bareiss calls of size n - 1; a run
    # estimated past the work budget is refused before any determinant,
    # condensation or conversion is computed.  A 44x44 identity is just
    # inside it, a 48x48 one past it.
    work = []
    for module, name in ((cli, "det_bareiss"), (cli, "_adjugate"), (cli, "condense_at"), (cli, "condense_at_11"),
                         (type(RATIONAL), "integer_row")):
        monkeypatch.setattr(module, name, lambda *args, name=name: work.append(name))
    path = write(tmp_path, "m.txt", identity_text(48))
    assert main(["verify", path, "--scalar", "integer"]) == EXIT_USER_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: verify of a 48x48 matrix of 1-bit integer rows needs an estimated 1.49e+08 work units,"
        " over the budget of 1e+08\n"
    )
    assert work == []
    assert cli._work("verify", 44, 1) < 10**8 < cli._work("verify", 48, 1)


def test_verify_runs_at_its_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_WORK_BUDGET", cli._work("verify", 3, 4))
    assert main(["verify", write(tmp_path, "m.txt", "1 2 3\n4 5 6\n7 8 10\n")]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", write(tmp_path, "m4.txt", "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")]) == EXIT_USER_ERROR
    assert "error: verify of a 4x4 matrix of 1-bit integer rows needs an estimated 120 work units" in capsys.readouterr().err


def test_verify_failure_exits_one(tmp_path, capsys, monkeypatch):
    import condet.cli as cli_module

    # sabotage the residual computation to force a failed identity
    monkeypatch.setattr(cli_module, "dodgson_identity_residual", lambda m, k, l, minor_det=None: m.kind.one)
    path = write(tmp_path, "m.txt", "1 2 3\n4 5 6\n7 8 10\n")
    assert main(["verify", path]) == EXIT_VERIFY_FAILED
    out = capsys.readouterr().out
    assert "FAIL dodgson-identity" in out
    assert "verify FAILED" in out.strip().splitlines()[-1]


# --- bench -----------------------------------------------------------------

def test_bench_with_config_file(tmp_path, capsys):
    cfg = {
        "sizes": [4, 5],
        "trials_per_size": 2,
        "entry_bound": 9,
        "seed": 77,
        "methods": ["condensation", "bareiss"],
    }
    path = write(tmp_path, "cfg.json", json.dumps(cfg))
    out_path = tmp_path / "report.csv"
    assert main(["bench", path, "--out", str(out_path)]) == EXIT_OK
    text = out_path.read_text()
    from condet import parse_report

    rows = parse_report(text)
    assert len(rows) == 8
    digests = {}
    for row in rows:
        digests.setdefault((row["n"], row["trial"]), set()).add(row["digest"])
    assert all(len(d) == 1 for d in digests.values())


def test_bench_shipped_default_config(capsys):
    assert main(["bench", str(FIXTURES / "bench_default.json")]) == EXIT_OK
    from condet import parse_report

    rows = parse_report(capsys.readouterr().out)
    assert len(rows) == 4 * 3 * 4  # sizes x trials x methods
    digests = {}
    for row in rows:
        digests.setdefault((row["n"], row["trial"]), set()).add(row["digest"])
    assert all(len(d) == 1 for d in digests.values())


def test_bench_without_config_uses_default(capsys):
    assert main(["bench"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("method,n,trial,")


def test_bench_seed_override_changes_corpus(tmp_path, capsys):
    cfg = {
        "sizes": [5],
        "trials_per_size": 1,
        "entry_bound": 9,
        "seed": 1,
        "methods": ["bareiss"],
    }
    path = write(tmp_path, "cfg.json", json.dumps(cfg))
    assert main(["bench", path]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["bench", path, "--seed", "2"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first != second


def test_bench_corrupted_method_list_is_user_error(tmp_path, capsys):
    cfg = {
        "sizes": [3],
        "trials_per_size": 1,
        "entry_bound": 9,
        "seed": 1,
        "methods": ["condensation", "sorcery"],
    }
    path = write(tmp_path, "cfg.json", json.dumps(cfg))
    assert main(["bench", path]) == EXIT_USER_ERROR
    assert "sorcery" in capsys.readouterr().err


def test_bench_invalid_json_is_user_error(tmp_path, capsys):
    path = write(tmp_path, "cfg.json", "{not json")
    assert main(["bench", path]) == EXIT_USER_ERROR
    assert "invalid JSON" in capsys.readouterr().err


def test_bench_deeply_nested_config_is_user_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_bench", lambda cfg: pytest.fail("the run started"))
    path = write(tmp_path, "cfg.json", DEEP_JSON)
    assert main(["bench", path]) == EXIT_USER_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bench config {path}: nested too deeply to read\n"


def test_bench_missing_field_is_user_error(tmp_path, capsys):
    path = write(tmp_path, "cfg.json", json.dumps({"sizes": [3]}))
    assert main(["bench", path]) == EXIT_USER_ERROR
    assert capsys.readouterr().err == f"error: bench config {path}: missing 'trials_per_size'\n"


def test_bench_unwritable_out_is_user_error(tmp_path, capsys, monkeypatch):
    import condet.cli as cli_module

    runs = []
    monkeypatch.setattr(cli_module, "run_bench", lambda cfg: runs.append(cfg) or [])
    for out in (tmp_path / "no-such-dir" / "report.csv", tmp_path):
        assert main(["bench", "--out", str(out)]) == EXIT_USER_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot write {out}" in captured.err
    assert runs == [], "the bench ran before its --out path was checked"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_write_failure_after_open_is_user_error(tmp_path, capsys):
    # /dev/full opens fine and fails on the write (ENOSPC).
    path = write(tmp_path, "m.txt", "1 2\n3 4\n")
    for argv in (["det", path, "--trace", "/dev/full"], ["bench", "--out", "/dev/full"]):
        assert main(argv) == EXIT_USER_ERROR
        assert "cannot write /dev/full" in capsys.readouterr().err


def test_bench_condensation_size_cap_is_user_error(tmp_path, capsys):
    # A condensation config is estimated from doubling bits and refused
    # past the work budget; within it, a size whose traced levels may
    # pass the level budget is refused too, before any run, so a report
    # already at --out stays as it was.
    cfg = {**BENCH_CFG, "sizes": [3, 22], "methods": ["condensation"]}
    path = write(tmp_path, "cfg.json", json.dumps(cfg))
    assert main(["bench", path]) == EXIT_USER_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bench config {path}: config asks for 1 trials of an estimated")
    path = write(tmp_path, "cfg20.json", json.dumps({**cfg, "sizes": [3, 20]}))
    out = write(tmp_path, "report.csv", "an old report\n")
    assert main(["bench", path, "--out", out]) == EXIT_USER_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: bench config {path}: condensation at size 20 may trace a level of up to 5.9e+06 bit-entries,"
        " past the budget of 2e+06 a level\n"
    )
    assert Path(out).read_text() == "an old report\n"


BENCH_CFG = {"sizes": [3], "trials_per_size": 1, "entry_bound": 9, "seed": 1, "methods": ["bareiss"]}


def test_bench_config_over_the_work_limit_is_user_error(tmp_path, capsys, monkeypatch):
    import condet.cli as cli_module

    def run_bench(cfg):  # a config this big would fill the memory
        raise AssertionError("the run started")

    monkeypatch.setattr(cli_module, "run_bench", run_bench)
    cfg = {**BENCH_CFG, "sizes": [100000], "trials_per_size": 10**12}
    path = write(tmp_path, "cfg.json", json.dumps(cfg))
    assert main(["bench", path]) == EXIT_USER_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: bench config {path}: config asks for {10**12} trials of an estimated inf work units each,"
        " over the budget of 1e+08\n"
    )


def test_bench_entry_bound_over_the_cap_is_user_error(tmp_path, capsys):
    path = write(tmp_path, "cfg.json", json.dumps({**BENCH_CFG, "entry_bound": 10**30}))
    assert main(["bench", path]) == EXIT_USER_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bench config {path}: entry_bound must be <= {2**31}, got {10**30}\n"


@pytest.mark.parametrize(
    "field, value",
    [
        (None, [3, 4]),
        ("sizes", 5),
        ("sizes", "34"),
        ("sizes", [3, None]),
        ("methods", "bareiss"),
        ("methods", [["bareiss"]]),
        ("trials_per_size", None),
        ("trials_per_size", "1"),
        ("entry_bound", 9.0),
        ("seed", True),
    ],
)
def test_bench_config_types_are_user_errors(tmp_path, capsys, field, value):
    doc = value if field is None else {**BENCH_CFG, field: value}
    path = write(tmp_path, "cfg.json", json.dumps(doc))
    assert main(["bench", path]) == EXIT_USER_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bench config {path}: ")
    assert (f"{field!r} must be a JSON " if field else "must be a JSON object") in captured.err


def test_bench_config_refuses_unknown_keys(tmp_path, capsys):
    path = write(tmp_path, "cfg.json", json.dumps({**BENCH_CFG, "trials": 50, "entry_bounds": 3}))
    assert main(["bench", path]) == EXIT_USER_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: bench config {path}: unknown key 'trials'; "
        "known keys: sizes, trials_per_size, entry_bound, seed, methods\n"
    )


def test_bench_config_without_methods_is_user_error(tmp_path, capsys):
    path = write(tmp_path, "cfg.json", json.dumps({**BENCH_CFG, "methods": []}))
    assert main(["bench", path]) == EXIT_USER_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bench config {path}: config needs at least one method\n"


def test_bench_method_disagreement_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    import condet.bench as bench_module
    from condet import DetResult, OpCounts

    bareiss = bench_module.METHODS["bareiss"]._replace(run=lambda m: DetResult(999999999, (), OpCounts()))
    monkeypatch.setitem(bench_module.METHODS, "bareiss", bareiss)
    cfg = {
        "sizes": [3],
        "trials_per_size": 1,
        "entry_bound": 9,
        "seed": 5,
        "methods": ["condensation", "bareiss"],
    }
    path = write(tmp_path, "cfg.json", json.dumps(cfg))
    assert main(["bench", path]) == EXIT_INTERNAL_ERROR
    assert "disagreement" in capsys.readouterr().err
    # A failed run leaves an existing report as it was.
    out = write(tmp_path, "report.csv", "old report\n")
    assert main(["bench", path, "--out", out]) == EXIT_INTERNAL_ERROR
    assert Path(out).read_text() == "old report\n"


def test_import_loads_no_heavy_stdlib_modules():
    # dataclasses alone would pull in inspect, ast, dis and tokenize.
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import condet.cli; "
        "print(' '.join(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize') "
        "if m in sys.modules)))"
    )
    # -S: no site hooks, which may import any of these on their own.
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == ""


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    import argparse

    import condet.cli as cli_module

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    path = write(tmp_path, "m.txt", SMALL)
    cli_module._shared_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["det", path]) == EXIT_OK
    assert len(built) == 4  # condet and its three subcommands
    assert main(["det", path, "--method", "bareiss"]) == EXIT_OK
    assert main(["verify", "--scalar", "integer", str(tmp_path / "no-such-file")]) == EXIT_USER_ERROR
    assert len(built) == 4
    assert capsys.readouterr().out == "2\n2\n"


def test_patched_handlers_reach_a_parser_built_earlier(tmp_path, monkeypatch, capsys):
    import condet.cli as cli_module

    path = write(tmp_path, "m.txt", SMALL)
    assert main(["det", path]) == EXIT_OK
    assert capsys.readouterr().out == "2\n"

    monkeypatch.setattr(cli_module, "load_matrix", lambda p, kind: parse_matrix_text("3 0\n0 7\n", kind))
    assert main(["det", path]) == EXIT_OK
    assert capsys.readouterr().out == "21\n"

    seen = []
    monkeypatch.setattr(cli_module, "cmd_det", lambda args: seen.append(args.file) or EXIT_VERIFY_FAILED)
    assert main(["det", path]) == EXIT_VERIFY_FAILED
    assert seen == [path]


def test_build_parser_results_are_independent():
    from condet.cli import build_parser

    first = build_parser()
    first.parse_args = lambda argv=None: "patched"
    second = build_parser()
    assert second is not first
    assert "parse_args" not in vars(second)
    args = second.parse_args(["det", "m.txt", "--scalar", "integer"])
    assert (args.command, args.file, args.scalar, args.method) == ("det", "m.txt", "integer", "condense")
    assert first.parse_args(["det", "m.txt"]) == "patched"
