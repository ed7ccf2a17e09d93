"""The condet command line: det, verify and bench subcommands, exit
codes, matrix file parsing and trace output."""

import json
import random
import sys

import pytest

from condet import (
    INTEGER,
    RATIONAL,
    SplitMix64,
    ZeroRowExit,
    det_bareiss,
    det_condensation,
    random_integer_matrix,
    trace_from_document,
)
from condet.cli import (
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    EXIT_USER_ERROR,
    EXIT_VERIFY_FAILED,
    MatrixFileError,
    main,
    parse_matrix_text,
)
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
        ('{"rows": 1, "cols": 2, "entries": "12"}', "'entries' must be a list, got str"),
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


def test_parse_empty_file():
    with pytest.raises(MatrixFileError, match="no rows"):
        parse_matrix_text("   \n", INTEGER)


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
    assert main(["det", str(GOLDEN_PATH), "--scalar", "float"]) == EXIT_OK
    condensed = float(capsys.readouterr().out.strip())
    assert main(["det", str(GOLDEN_PATH), "--scalar", "float", "--method", "bareiss"]) == EXIT_OK
    reference = float(capsys.readouterr().out.strip())
    assert abs(condensed - reference) <= 1e-9 * max(1.0, abs(reference))


def test_det_pivot_strategy_flag(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1 9 2\n3 4 5\n6 7 8\n")
    assert main(["det", path, "--method", "bareiss"]) == EXIT_OK
    reference = capsys.readouterr().out.strip()
    for strategy in ("first-nonzero", "max-magnitude"):
        assert main(["det", path, "--pivot", strategy]) == EXIT_OK
        assert capsys.readouterr().out.strip() == reference


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


def test_det_cofactor_size_cap_is_user_error(tmp_path, capsys):
    n = 11
    text = "\n".join(" ".join("1" if i == j else "0" for j in range(n)) for i in range(n))
    path = write(tmp_path, "big.txt", text + "\n")
    assert main(["det", path, "--method", "cofactor"]) == EXIT_USER_ERROR
    assert "limited" in capsys.readouterr().err


def test_det_gauss_needs_rational_scalar(tmp_path, capsys):
    path = write(tmp_path, "m.txt", SMALL)
    assert main(["det", path, "--method", "gauss", "--scalar", "integer"]) == EXIT_USER_ERROR
    assert "rational" in capsys.readouterr().err


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


def test_det_non_finite_float_is_internal_error(tmp_path, capsys):
    # undivided float condensation overflows at n = 10 and prints nan;
    # the exact determinant of this matrix is -346185508
    gen = SplitMix64(11)
    gen.split()
    m = random_integer_matrix(10, 9, gen.split())
    path = write(tmp_path, "m.txt", "\n".join(" ".join(map(str, row)) for row in m.to_rows()) + "\n")
    trace = tmp_path / "trace.json"
    assert main(["det", path, "--scalar", "float", "--trace", str(trace)]) == EXIT_INTERNAL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nan" in captured.err
    assert "--scalar rational" in captured.err and "--method bareiss" in captured.err
    assert not trace.exists()
    assert main(["det", path, "--scalar", "rational"]) == EXIT_OK
    assert capsys.readouterr().out == "-346185508\n"


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


def test_verify_needs_size_three(tmp_path, capsys):
    path = write(tmp_path, "m.txt", SMALL)
    assert main(["verify", path]) == EXIT_USER_ERROR
    assert "size >= 3" in capsys.readouterr().err


def test_verify_failure_exits_one(tmp_path, capsys, monkeypatch):
    import condet.cli as cli_module

    # sabotage the residual computation to force a failed identity
    monkeypatch.setattr(cli_module, "dodgson_identity_residual", lambda m, k, l: m.kind.one)
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


def test_bench_missing_field_is_user_error(tmp_path, capsys):
    path = write(tmp_path, "cfg.json", json.dumps({"sizes": [3]}))
    assert main(["bench", path]) == EXIT_USER_ERROR
    assert "missing field" in capsys.readouterr().err


def test_bench_unwritable_out_is_user_error(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "report.csv"
    assert main(["bench", "--out", str(out)]) == EXIT_USER_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot write {out}" in captured.err


BENCH_CFG = {"sizes": [3], "trials_per_size": 1, "entry_bound": 9, "seed": 1, "methods": ["bareiss"]}


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
    assert (f"field {field!r}" if field else "must be a JSON object") in captured.err


def test_bench_method_disagreement_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    import dataclasses

    import condet.bench as bench_module
    from condet import DetResult, OpCounts

    bareiss = dataclasses.replace(
        bench_module.METHODS["bareiss"], run=lambda m: DetResult(999999999, (), OpCounts())
    )
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
