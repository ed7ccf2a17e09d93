"""Every input door, fed seeded edge inputs.

``main`` reads plain-row and JSON matrix files (``det``, ``verify``),
bench configs and ``--seed`` values, and ``trace_from_document`` reads
trace documents.  The cases here are built from edge atoms: ``1/0``,
``nan``, ``1e99999``, a BOM, NUL, ``sqrt(...)``, ``_``, ragged rows,
wrong JSON types, truncated JSON, and dimensions that are 0, negative,
far too large for the entries or 4,000 digits long.  Whatever the input,
``main`` must exit 0, 1 or 2, or 3 with the double-range line only; a
failure must write exactly one line to stderr; and no case may allocate
more than ``PEAK_BYTES``, so that no claim in a file can make a reader
build more than the file holds.  ``trace_from_document`` must return or
raise ``ValueError`` under the same bound.
"""

import contextlib
import copy
import io
import json
import random
import tracemalloc

from condet import FLOAT, INTEGER, RATIONAL, Matrix, det_condensation, trace_document, trace_from_document
from condet.cli import main

SEED = 20261021
PEAK_BYTES = 16 * 2**20

HUGE = int("9" * 4000)
CELLS = [
    "0", "1", "-2", "7", "3/4", "-1/3", "0.5", "1e3", "1/0", "0/0", "nan", "inf", "-inf",
    "1e99999", "1e400", "1e-400", "1e300", "-1e300", "\ufeff1", "1\x00", "\x00", "sqrt(2)", "-sqrt(3)", "sqrt(-1)",
    "sqrt(sqrt(2))", "1_0", "٣", "１２", "x", "9" * 5000, "1/" + "9" * 5000,
]
DIMENSIONS = [0, 1, 2, 3, -1, -HUGE, HUGE, 10**6, 30_000_000, "2", 2.0, True, None, [2]]
NOT_STRINGS = [1, 2.5, None, True, [], {}]
DOUBLE_RANGE = "past the double range (up to 1.8e308)"


def run_main(argv):
    """``(exit code, stderr, peak bytes)`` of one in-process ``main``."""
    err = io.StringIO()
    tracemalloc.reset_peak()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue(), tracemalloc.get_traced_memory()[1]


def check_door(argv, what):
    code, err, peak = run_main(argv)
    assert peak < PEAK_BYTES, f"{what}: {peak} bytes traced"
    assert code in (0, 1, 2, 3), f"{what}: exit {code}"
    if code in (2, 3):
        assert err.count("\n") == 1 and err.endswith("\n"), f"{what}: stderr {err[:2000]!r}"
    if code == 3:
        assert DOUBLE_RANGE in err, f"{what}: {err!r}"


def cell(rng):
    return rng.choice(CELLS) if rng.random() < 0.1 else str(rng.randint(-9, 9))


def plain_text(rng):
    rows = rng.randint(1, 4)
    cols = rows if rng.random() < 0.8 else rng.randint(1, 4)
    lines = []
    for _ in range(rows):
        width = cols if rng.random() < 0.95 else rng.randint(1, 5)  # ragged now and then
        cells = [cell(rng) for _ in range(width)]
        lines.append((", " if rng.random() < 0.2 else " ").join(cells))
    text = "\n".join(lines) + "\n"
    if rng.random() < 0.1:
        text = "\ufeff" + text
    return text


def json_matrix(rng):
    size = rng.randint(1, 4)
    doc = {"rows": size, "cols": size}
    for name in ("rows", "cols"):
        if rng.random() < 0.2:
            doc[name] = rng.choice(DIMENSIONS)
        elif rng.random() < 0.03:
            del doc[name]
    rows, cols = doc.get("rows"), doc.get("cols")
    n = rows * cols if type(rows) is int and type(cols) is int and 0 <= rows * cols <= 16 else rng.randint(0, 9)
    entries = [cell(rng) for _ in range(n if rng.random() < 0.9 else rng.randint(0, 9))]
    if entries and rng.random() < 0.1:
        entries[rng.randrange(len(entries))] = rng.choice(NOT_STRINGS)
    if rng.random() < 0.95:
        doc["entries"] = entries if rng.random() < 0.95 else rng.choice(NOT_STRINGS + ["12"])
    if rng.random() < 0.05:
        doc["kind"] = "float"
    text = json.dumps(doc)
    if rng.random() < 0.1:
        text = text[: rng.randrange(1, len(text))]
    return text


def bench_config(rng):
    edge = lambda good, bad: rng.choice(good) if rng.random() < 0.85 else rng.choice(bad)
    doc = {
        "sizes": [edge([1, 2, 3, 4, 5], [0, -1, HUGE, 10**6, "3", 2.5]) for _ in range(edge([1, 2, 3], [0]))],
        "trials_per_size": edge([0, 1, 2], [-1, HUGE, 10**9, "1", None]),
        "entry_bound": edge([1, 9, 2**31], [0, -5, 2**31 + 1, HUGE, 9.0]),
        "seed": edge([0, 1, -1, 2**64], [HUGE, "1", True]),
        "methods": rng.sample(["condensation", "cofactor", "bareiss", "gauss-rational"], edge([1, 2, 3], [0])),
    }
    if rng.random() < 0.1:
        doc["methods"].append("bogus")
    for name in list(doc):
        if rng.random() < 0.05:
            del doc[name]
    if rng.random() < 0.05:
        doc["extra"] = 1
    text = json.dumps(doc)
    if rng.random() < 0.1:
        text = text[: rng.randrange(1, len(text))]
    return text


def matrix_argv(rng, path):
    if rng.random() < 0.2:
        return ["verify", path, "--scalar", rng.choice(["rational", "integer", "float"])]
    argv = ["det", path, "--scalar", rng.choice(["rational", "integer", "float"])]
    argv += ["--method", rng.choice(["condense", "condense", "bareiss", "cofactor", "gauss"])]
    if rng.random() < 0.3:
        argv += ["--pivot", rng.choice(["first-nonzero", "max-magnitude"])]
    if rng.random() < 0.2:
        argv += ["--trace", path + ".trace.json"]
    return argv


def test_main_keeps_its_exit_contract_on_edge_inputs(tmp_path):
    rng = random.Random(SEED)
    path = str(tmp_path / "input")
    fixed = [
        ("json", '{"rows": 30000000, "cols": 0, "entries": []}'),
        ("json", json.dumps({"rows": HUGE, "cols": 0, "entries": []})),
        ("json", json.dumps({"rows": HUGE, "cols": HUGE, "entries": ["1"]})),
        ("json", json.dumps({"rows": 2, "cols": 2, "entries": ["x"] * 10_000})),
        ("json", '{"rows": 0, "cols": 0, "entries": []}'),
        ("plain", ""),
        ("plain", "\x00\n"),
    ]
    cases = fixed + [(rng.choice(["plain", "json", "json"]), None) for _ in range(1000)]
    tracemalloc.start()
    try:
        for number, (shape, text) in enumerate(cases):
            if text is None:
                text = plain_text(rng) if shape == "plain" else json_matrix(rng)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            check_door(matrix_argv(rng, path), f"case {number}: {text[:300]!r}")
        for number in range(200):
            text = bench_config(rng)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            check_door(["bench", path, "--out", path + ".csv"], f"bench {number}: {text[:300]!r}")
        for seed in (0, -1, 2**64, 2**64 + 1, HUGE, -HUGE):
            argv = ["bench", "--seed", str(seed), "--out", path + ".csv"]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write('{"sizes": [3], "trials_per_size": 1, "entry_bound": 9, "seed": 1, "methods": ["bareiss"]}')
            check_door(argv[:1] + [path] + argv[1:], f"--seed {str(seed)[:20]}")
    finally:
        tracemalloc.stop()


def mutate(rng, doc):
    """``doc`` with one to three random edits: a field removed or
    replaced, a step dropped, repeated or swapped, or a matrix resized."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        steps = doc.get("steps") if isinstance(doc.get("steps"), list) else []
        matrices = [doc["matrix"]] if isinstance(doc.get("matrix"), dict) else []
        matrices += [s["condensed"] for s in steps if isinstance(s, dict) and isinstance(s.get("condensed"), dict)]
        edit = rng.randrange(6)
        if edit == 0 and steps:
            steps.append(copy.deepcopy(rng.choice(steps)))
        elif edit == 1 and steps:
            del steps[rng.randrange(len(steps))]
        elif edit == 2 and len(steps) > 1:
            i, j = rng.sample(range(len(steps)), 2)
            steps[i], steps[j] = steps[j], steps[i]
        elif edit == 3 and matrices:
            m = rng.choice(matrices)
            m[rng.choice(["rows", "cols"])] = rng.choice(DIMENSIONS)
            if rng.random() < 0.5 and isinstance(m.get("entries"), list):
                m["entries"] = m["entries"][: rng.randint(0, len(m["entries"]))]
        else:
            target = rng.choice([doc] + [s for s in steps if isinstance(s, dict)] + matrices)
            if target:
                key = rng.choice(sorted(target))
                if rng.random() < 0.2:
                    del target[key]
                else:
                    target[key] = rng.choice(CELLS + DIMENSIONS + NOT_STRINGS)
    return doc


def test_trace_reader_returns_or_raises_value_error_on_mutated_documents():
    rng = random.Random(SEED)
    sources = [
        Matrix([[2, 1, 3], [4, 5, 6], [7, 8, 10]], INTEGER),
        Matrix([[0, 0, 0], [1, 2, 3], [4, 5, 6]], INTEGER),
        Matrix([[1, 2, 0, 1], [3, -1, 2, 2], [0, 1, 1, 5], [2, 2, 1, 1]], RATIONAL),
        Matrix([[1.5, 2.0, -1.0], [0.25, 3.0, 1.0], [2.0, 1.0, 1.0]], FLOAT),
        Matrix([], INTEGER),
    ]
    docs = [trace_document(m, det_condensation(m)) for m in sources]
    for doc in docs:
        assert trace_from_document(doc)[1] == trace_from_document(json.loads(json.dumps(doc)))[1]
    tracemalloc.start()
    try:
        for number in range(1000):
            doc = mutate(rng, rng.choice(docs))
            tracemalloc.reset_peak()
            try:
                trace_from_document(doc)
            except ValueError:
                pass
            peak = tracemalloc.get_traced_memory()[1]
            assert peak < PEAK_BYTES, f"document {number}: {peak} bytes traced"
    finally:
        tracemalloc.stop()
