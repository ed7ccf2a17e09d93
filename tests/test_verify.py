"""``condet verify`` computes each distinct minor determinant once per
run and prints exactly what the uncached identities give."""

import contextlib
import inspect
import io
import os
import random
import tempfile
import types
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condet.cli as cli
import condet.condense as condense
from condet import (
    FLOAT,
    INTEGER,
    RATIONAL,
    Matrix,
    PivotSpec,
    SplitMix64,
    condense_at,
    condense_at_11,
    det_bareiss,
    dodgson_identity_residual,
    random_integer_matrix,
    random_rational_matrix,
    remove_rows_cols,
)
from conftest import FIXTURES
from condet.cli import EXIT_INTERNAL_ERROR, EXIT_OK, EXIT_VERIFY_FAILED, main, parse_matrix_text
from condet.oracle import _adjugate


def matrix_text(m: Matrix) -> str:
    return "".join(" ".join(m.kind.format(v) for v in row) + "\n" for row in m.as_tuples())


def run_verify(text: str, kind) -> tuple:
    """(exit code, stdout) of ``condet verify`` on ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", path, "--scalar", kind.name])
    return code, out.getvalue()


def uncached_verify_lines(m: Matrix, condense=condense_at, remove=remove_rows_cols) -> tuple:
    """(exit code, stdout) that verify must print for ``m``, built from
    one Bareiss call per determinant, with no determinant shared
    between identities, and the public ``dodgson_identity_residual``.
    A rational ``m`` is worked on as ``Fraction``s throughout, and a
    float one as the ``Fraction`` of each entry, each residual printed
    as its double.
    ``condense`` and ``remove`` stand in for ``condense_at`` and
    ``remove_rows_cols``, so that a planted fault reaches the reference
    as it reaches verify."""
    kind, n = m.kind, m.rows
    if kind is FLOAT:
        m = Matrix([[Fraction(v) for v in row] for row in m.as_tuples()], RATIONAL)
    det_full = det_bareiss(remove(m, (), ()))
    lines = []

    def line(label, residual):
        text = kind.format(float(residual) if kind is FLOAT else residual)
        lines.append(f"{'PASS' if residual == 0 else 'FAIL'} {label} residual={text}")

    steps = [condense_at_11(m)]
    steps += [condense(m, PivotSpec(k, l)) for k in range(1, n + 1) for l in range(1, n + 1) if m.get(k, l) != 0]
    for step in steps:
        lhs = step.pivot_value ** (n - 2) * det_full
        line(f"condense-identity pivot=({step.pivot.k},{step.pivot.l})", lhs - det_bareiss(step.condensed))
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            residual = dodgson_identity_residual(m, k, l, lambda rows, cols: det_bareiss(remove(m, rows, cols)))
            line(f"dodgson-identity rows/cols=({k},{l})", residual)
    failures = sum(text.startswith("FAIL") for text in lines)
    status = "ok" if failures == 0 else "FAILED"
    lines.append(f"verify {status}: {len(lines) - failures}/{len(lines)} identities hold")
    return (EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED), "".join(text + "\n" for text in lines)


def main_on(m: Matrix) -> int:
    code, _ = run_verify(matrix_text(m), m.kind)
    return code


@pytest.fixture
def bareiss_calls(monkeypatch):
    """Count every Bareiss call that verify makes, through either module."""
    calls = []

    def counting(m, *args, **kwargs):
        calls.append(m)
        return det_bareiss(m, *args, **kwargs)

    for module in (cli, condense):
        monkeypatch.setattr(module, "det_bareiss", counting)
    return calls


@pytest.mark.parametrize("n", range(3, 9))
def test_verify_makes_one_bareiss_call_per_distinct_determinant(n, bareiss_calls):
    # det(A), the corner, the n*n pivots and the C(n,2) two-removed
    # minors; the n*n one-removed minors come from one adjugate.
    # Without sharing it was 2 + n*n + 7*C(n,2).
    m = random_rational_matrix(n, SplitMix64(n))
    assert main_on(m) == EXIT_OK
    assert len(bareiss_calls) == 2 + n * n + comb(n, 2)


def zero_pattern(m: Matrix) -> Matrix:
    """``m`` with a zero corner, and zeros spread over every row and column."""
    rows = [[0 if (i + 2 * j) % 3 == 0 else v for j, v in enumerate(row)] for i, row in enumerate(m.to_rows())]
    return Matrix(rows, m.kind)


@pytest.mark.parametrize("n", range(3, 9))
def test_verify_call_count_skips_zero_pivots(n, bareiss_calls):
    m = zero_pattern(random_rational_matrix(n, SplitMix64(n)))
    assert det_bareiss(m) != 0
    nonzero = sum(v != 0 for row in m.as_tuples() for v in row)
    assert main_on(m) == EXIT_OK
    assert len(bareiss_calls) == 2 + nonzero + comb(n, 2)


@pytest.mark.parametrize("n", range(3, 9))
def test_float_verify_computes_each_one_removed_minor(n, bareiss_calls):
    # The p/q text read as floats is checked on its integer rows, so it
    # reads its n*n one-removed minors from one adjugate, as exact
    # input does, and prints what one Bareiss call per minor prints.
    m = zero_pattern(random_rational_matrix(n, SplitMix64(n)))
    nonzero = sum(v != 0 for row in m.as_tuples() for v in row)
    text = matrix_text(m)
    code, out = run_verify(text, FLOAT)
    assert code == EXIT_OK
    assert len(bareiss_calls) == 2 + nonzero + comb(n, 2)
    assert (code, out) == uncached_verify_lines(parse_matrix_text(text, FLOAT))


def duplicate_last_row(m: Matrix) -> Matrix:
    first, *rest = m.as_tuples()
    return Matrix([first, *rest[:-1], first], m.kind)


@pytest.mark.parametrize("kind", [RATIONAL, INTEGER, FLOAT])
@pytest.mark.parametrize("n", range(3, 9))
def test_singular_verify_computes_each_one_removed_minor(n, kind, bareiss_calls):
    # On a singular matrix the adjugate's elimination meets a column
    # with no pivot, so each one-removed minor keeps a Bareiss call.
    m = duplicate_last_row(zero_pattern(random_integer_matrix(n, 9, SplitMix64(n))))
    m = Matrix(m.to_rows(), kind)
    assert det_bareiss(m) == 0
    nonzero = sum(v != 0 for row in m.as_tuples() for v in row)
    assert main_on(m) == EXIT_OK
    assert len(bareiss_calls) == 2 + nonzero + n * n + comb(n, 2)


@pytest.fixture
def adjugate_calls(monkeypatch):
    """Every matrix verify computes an adjugate of."""
    calls = []

    def spy(m):
        calls.append(m)
        return _adjugate(m)

    monkeypatch.setattr(cli, "_adjugate", spy)
    return calls


@pytest.mark.parametrize("kind", [RATIONAL, INTEGER, FLOAT])
@pytest.mark.parametrize("singular", [False, True], ids=["nonsingular", "singular"])
def test_verify_takes_one_adjugate_of_exact_nonsingular_input(kind, singular, adjugate_calls):
    m = zero_pattern(random_rational_matrix(6, SplitMix64(6)))
    if singular:
        m = duplicate_last_row(m)
    if kind is INTEGER:
        m = Matrix([RATIONAL.integer_row(row)[0] for row in m.as_tuples()], INTEGER)
    text = matrix_text(m)
    code, _ = run_verify(text, kind)
    assert code == EXIT_OK
    # on the integer rows, for a rational or float matrix the ones
    # converted once from the values read (p/q as one float division)
    integer_rows = Matrix([RATIONAL.integer_row(row)[0] for row in parse_matrix_text(text, kind).as_tuples()], INTEGER)
    assert adjugate_calls == ([] if singular else [integer_rows])


@pytest.mark.parametrize(
    "kind, zero_a, zero_b, tiny",
    [(FLOAT, "-0.0", "0.0", "1e-300"), (RATIONAL, "0", "0", "1/1000000000")],
)
def test_verify_pivots_on_exactly_the_nonzero_entries(kind, zero_a, zero_b, tiny):
    # The zero test is exact: signed float zeros are zero, and an entry
    # however tiny is a pivot.  Zeros sit at (1,1) and (2,2); the corner
    # line comes first whatever its value.
    code, out = run_verify(f"{zero_a} 2 {tiny}\n3 {zero_b} 4\n5 6 7\n", kind)
    assert code == EXIT_OK
    pivots = [line.split()[2] for line in out.splitlines() if " condense-identity pivot=" in line]
    nonzero = [(k, l) for k in range(1, 4) for l in range(1, 4) if (k, l) not in ((1, 1), (2, 2))]
    assert pivots == ["pivot=(1,1)"] + [f"pivot=({k},{l})" for k, l in nonzero]


# Small signed entries; the zero-heavy draw below makes most of them zero.
ENTRIES = st.one_of(st.just(0), st.integers(-9, 9))


@st.composite
def verify_inputs(draw):
    kind = draw(st.sampled_from([RATIONAL, INTEGER, FLOAT]))
    n = draw(st.integers(3, 6))
    entries = draw(st.sampled_from([ENTRIES, st.one_of(st.just(0), st.just(0), st.just(0), ENTRIES)]))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[j] = list(rows[i])
    if kind is INTEGER:
        text = "".join(" ".join(map(str, row)) + "\n" for row in rows)
    else:
        # p/q parses as a Fraction, or as one float division
        dens = [[draw(st.integers(1, 9)) for _ in row] for row in rows]
        text = "".join(" ".join(f"{v}/{d}" for v, d in zip(row, ds)) + "\n" for row, ds in zip(rows, dens))
    return kind, text


@settings(max_examples=60, deadline=None)
@given(verify_inputs())
def test_verify_output_matches_uncached_identities(case):
    kind, text = case
    m = parse_matrix_text(text, kind)
    assert run_verify(text, kind) == uncached_verify_lines(m)


def first_row_doubled(m: Matrix) -> Matrix:
    first, *rest = m.as_tuples()
    return Matrix([[2 * v for v in first], *rest], m.kind)


def minor_doubled_at(target, built: list):
    """``remove_rows_cols`` whose minor ``target`` = (rows, cols) comes
    out with its first row doubled; every minor built is listed in
    ``built``."""

    def remove(m, rows, cols):
        minor = remove_rows_cols(m, rows, cols)
        built.append((tuple(rows), tuple(cols)))
        return first_row_doubled(minor) if built[-1] == target else minor

    return remove


def condensed_doubled_at(target):
    """``condense_at`` whose condensed matrix at the pivot ``target``
    comes out with its first row doubled."""

    def condense(m, pivot):
        step = condense_at(m, pivot)
        return step._replace(condensed=first_row_doubled(step.condensed)) if pivot == target else step

    return condense


def adjugate_doubled_at(target, computed: list):
    """``_adjugate`` whose entry for the one-removed minor ``target`` =
    ((k,), (l,)), entry (l, k), comes out doubled, and with it
    det(M({k},{l})); every matrix it runs on is listed in ``computed``.
    Any other ``target`` plants nothing."""

    def adjugate(m):
        computed.append(m)
        adj = _adjugate(m)
        if adj is not None and target is not None and len(target[0]) == 1:
            (k,), (l,) = target
            adj[l - 1][k - 1] *= 2
        return adj

    return adjugate


def plant_minor(mp, target) -> tuple:
    """Make the determinant of the minor ``target`` come out doubled in
    ``verify``, whichever path computes it: a one-removed minor of an
    exact nonsingular matrix comes from the adjugate, any other minor
    from Bareiss on ``remove_rows_cols``.  Returns the lists of minors
    built and of adjugates computed."""
    built, computed = [], []
    mp.setattr(cli, "remove_rows_cols", minor_doubled_at(target, built))
    mp.setattr(cli, "_adjugate", adjugate_doubled_at(target, computed))
    return built, computed


FAULT_N = 5


@pytest.fixture
def fault_matrix(tmp_path):
    m = random_rational_matrix(FAULT_N, SplitMix64(7))
    indices = range(1, FAULT_N + 1)
    one_removed = [det_bareiss(remove_rows_cols(m, (i,), (j,))) for i in indices for j in indices]
    assert 0 not in one_removed, "each planted fault must change a residual"
    path = tmp_path / "m.txt"
    path.write_text(matrix_text(m))
    return str(path)


@pytest.mark.parametrize(
    "target, outcome",
    [
        # A one-removed minor is an entry of the one adjugate, so a
        # fault in it fails the self-check A*adj(A) = det(A)*I before
        # any line is printed: the entry named is the first the
        # doubled entry of adj(A) changes.
        (((2,), (2,)), "entry (1,2) of A*adj(A) is not 0"),
        (((2,), (3,)), "entry (1,2) of A*adj(A) is not 0"),
        (((2, 3), (2, 3)), {(2, 3)}),
    ],
    ids=["M(2,2)", "M(2,3)", "M(23,23)"],
)
def test_a_wrong_minor_fails_only_the_pairs_that_use_it(capsys, monkeypatch, fault_matrix, target, outcome):
    built, computed = plant_minor(monkeypatch, target)
    code = main(["verify", fault_matrix])
    out, err = capsys.readouterr()
    # the one-removed minors are computed once, as the entries of the one adjugate
    assert len(computed) == 1
    assert not any(len(rows) == 1 for rows, _ in built)
    if isinstance(outcome, str):
        assert (code, out, err) == (EXIT_INTERNAL_ERROR, "", f"internal error: adjugate self-check failed: {outcome}\n")
        return
    assert code == EXIT_VERIFY_FAILED
    *lines, summary = out.splitlines()
    # a two-removed minor is computed once and shared
    assert built.count(target) == 1
    fields = [line.split() for line in lines]
    assert sum(identity == "dodgson-identity" for _, identity, _, _ in fields) == comb(FAULT_N, 2)
    assert {where for verdict, _, where, _ in fields if verdict == "FAIL"} == {
        f"rows/cols=({k},{l})" for k, l in outcome
    }
    assert summary == f"verify FAILED: {len(lines) - len(outcome)}/{len(lines)} identities hold"


def test_dodgson_reads_each_one_removed_minor_with_its_sign(monkeypatch):
    # The identity cannot see a sign flip of every one-removed minor at
    # once (each of its products has two of them), so the values fed to
    # it are compared with Bareiss on each minor.
    m = random_integer_matrix(5, 9, SplitMix64(7))
    assert det_bareiss(m) != 0  # so that the minors come from the adjugate
    seen = {}

    def residual(a, k, l, minor_det):
        for rows, cols in (((k,), (k,)), ((l,), (l,)), ((k,), (l,)), ((l,), (k,))):
            seen[rows, cols] = minor_det(rows, cols)
        return dodgson_identity_residual(a, k, l, minor_det)

    monkeypatch.setattr(cli, "dodgson_identity_residual", residual)
    assert main_on(m) == EXIT_OK
    indices = range(1, 6)
    assert seen == {((i,), (j,)): det_bareiss(remove_rows_cols(m, (i,), (j,))) for i in indices for j in indices}


@pytest.mark.parametrize("kind", [INTEGER, RATIONAL])
def test_verify_stops_on_an_adjugate_with_a_common_sign_fault(capsys, monkeypatch, kind):
    # Negating every one-removed minor leaves each Dodgson line as it
    # was; the self-check A*adj(A) = det(A)*I sees it at entry (1,1).
    m = random_integer_matrix(5, 9, SplitMix64(7))
    assert det_bareiss(m) != 0
    monkeypatch.setattr(cli, "_adjugate", lambda a: [[-v for v in row] for row in _adjugate(a)])
    code, out = run_verify(matrix_text(m), kind)
    assert (code, out) == (EXIT_INTERNAL_ERROR, "")
    assert capsys.readouterr().err == "internal error: adjugate self-check failed: entry (1,1) of A*adj(A) is not det(A)\n"


MINOR_MAP = "(-1) ** (k + l) * adj[l - 1][k - 1]"


def cli_with_minor_map(expression: str):
    """A fresh copy of ``condet.cli`` whose ``verify`` reads each
    one-removed minor M(k,l) from adj(A) by ``expression``."""
    source = inspect.getsource(cli)
    assert source.count(MINOR_MAP) == 1
    module = types.ModuleType("condet._cli_copy")
    module.__package__ = "condet"
    exec(compile(source.replace(MINOR_MAP, expression), cli.__file__, "exec"), module.__dict__)
    return module


@pytest.mark.parametrize(
    "expression",
    ["(-1) ** (k + l + 1) * adj[l - 1][k - 1]", "(-1) ** (k + l) * adj[k - 1][l - 1]"],
    ids=["parity", "transposed"],
)
def test_self_check_reads_the_adjugate_through_the_minor_map(capsys, expression):
    # The self-check expands det(A) through the same map the Dodgson
    # lines read, so a fault in the map exits 3 before any line.  The
    # parity fault negates every one-removed minor, which the Dodgson
    # lines alone cannot see.
    path = str(FIXTURES / "rational_7x7.txt")
    assert cli_with_minor_map(MINOR_MAP).main(["verify", path]) == EXIT_OK
    assert capsys.readouterr().out == (FIXTURES / "rational_7x7_verify.txt").read_text()
    assert cli_with_minor_map(expression).main(["verify", path]) == EXIT_INTERNAL_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: adjugate self-check failed: entry (1,1) of A*adj(A) is not det(A)\n"


def test_float_verify_holds_on_exponents_spread_over_twelve_decades():
    # Entries +-10**U(-6, 6), on which float arithmetic leaves residuals
    # as large as -9285 (at pivot (1,3)) on identities that hold.  On
    # the integer rows of the doubles every residual is exactly zero.
    rng = random.Random(85)
    rows = [[rng.choice((-1, 1)) * 10 ** rng.uniform(-6, 6) for _ in range(8)] for _ in range(8)]
    code, out = run_verify("".join(" ".join(map(repr, row)) + "\n" for row in rows), FLOAT)
    *lines, summary = out.splitlines()
    assert code == EXIT_OK
    assert all(line.startswith("PASS ") and line.endswith(" residual=0.0") for line in lines)
    assert summary == "verify ok: 93/93 identities hold"


def test_public_residual_takes_a_minor_callable():
    m = random_integer_matrix(4, 9, SplitMix64(3))
    seen = []

    def minor_det(rows, cols):
        seen.append((rows, cols))
        return det_bareiss(remove_rows_cols(m, rows, cols))

    assert dodgson_identity_residual(m, 2, 4, minor_det) == dodgson_identity_residual(m, 2, 4) == 0
    assert seen == [((), ()), ((2, 4), (2, 4)), ((4,), (4,)), ((2,), (2,)), ((4,), (2,)), ((2,), (4,))]


# Row denominators far apart, so that rows get different scales (the
# lcm of a row's denominators) and the exponent of s_k, the choice of
# s_k or s_l and S or S*S all change a nonzero residual.
ROW_DENOMINATORS = st.sampled_from([1, 2, 3, 5, 7, 8, 9, 12])


@st.composite
def scaled_rational_faults(draw):
    """A rational matrix with per-row scales, and a planted fault: a
    condensed matrix at one nonzero pivot, a minor, both or neither."""
    n = draw(st.integers(3, 6))
    entries = draw(st.sampled_from([ENTRIES, st.one_of(st.just(0), st.just(0), ENTRIES)]))
    rows = []
    for _ in range(n):
        den = draw(ROW_DENOMINATORS)
        rows.append([Fraction(draw(entries), den * draw(st.integers(1, 3))) for _ in range(n)])
    m = Matrix(rows, RATIONAL)
    pivots = [PivotSpec(k, l) for k in range(1, n + 1) for l in range(1, n + 1) if rows[k - 1][l - 1] != 0]
    minors = [((), ())] + [((k,), (l,)) for k in range(1, n + 1) for l in range(1, n + 1)]
    minors += [((k, l), (k, l)) for k in range(1, n + 1) for l in range(k + 1, n + 1)]
    return m, draw(st.sampled_from([None, *pivots])), draw(st.sampled_from([None, *minors]))


def check_against_fraction_reference(m: Matrix, pivot, minor) -> tuple:
    """verify's exit code and full stdout on ``m``, with the faults
    planted, equal the uncached identities worked on the ``Fraction``
    matrix with the same faults (a fault at None is no fault); returns
    them.  On a nonsingular ``m``, a fault that changes det(m) or a
    one-removed minor (an entry of adj(m)) fails verify's adjugate
    self-check instead: exit 3 before any line is printed."""
    expected = uncached_verify_lines(m, condensed_doubled_at(pivot), minor_doubled_at(minor, []))
    if minor is not None and len(minor[0]) < 2 and 0 not in (det_bareiss(m), det_bareiss(remove_rows_cols(m, *minor))):
        expected = (EXIT_INTERNAL_ERROR, "")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "condense_at", condensed_doubled_at(pivot))
        plant_minor(mp, minor)
        assert run_verify(matrix_text(m), RATIONAL) == expected
    return expected


@settings(max_examples=60, deadline=None)
@given(scaled_rational_faults())
def test_rational_residuals_rescale_to_the_fraction_reference(case):
    check_against_fraction_reference(*case)


@pytest.mark.parametrize(
    "pivot, minor, exit_code",
    [
        (PivotSpec(2, 3), None, EXIT_VERIFY_FAILED),
        (PivotSpec(5, 1), None, EXIT_VERIFY_FAILED),
        (None, ((2,), (3,)), EXIT_INTERNAL_ERROR),
        (None, ((1, 4), (1, 4)), EXIT_VERIFY_FAILED),
        (PivotSpec(4, 4), ((), ()), EXIT_INTERNAL_ERROR),
    ],
    ids=["condensed(2,3)", "condensed(5,1)", "M(2,3)", "M(14,14)", "condensed(4,4)+det"],
)
def test_rescaled_fail_lines_match_the_fraction_reference(pivot, minor, exit_code):
    # Row scales 1, 6, 35, 4 and 9, so every factor is distinct, and
    # no minor is zero, so that each fault changes its residuals.
    dens = [1, 6, 35, 4, 9]
    a = random_integer_matrix(5, 9, SplitMix64(3))
    m = Matrix([[Fraction(v, d) for v in row] for row, d in zip(a.as_tuples(), dens)], RATIONAL)
    assert [RATIONAL.integer_row(row)[1] for row in m.as_tuples()] == dens
    assert pivot is None or m.get(*pivot) != 0
    code, _ = check_against_fraction_reference(m, pivot, minor)
    assert code == exit_code


@pytest.mark.parametrize("n", range(3, 9))
def test_verify_converts_a_rational_matrix_once(n, monkeypatch, bareiss_calls):
    # Every determinant runs on the integer rows of m, built by n
    # integer_row calls; the one Bareiss call on the whole matrix gets
    # exactly the rows that rational Bareiss builds for det(m).
    m = zero_pattern(random_rational_matrix(n, SplitMix64(n)))
    rows = m.to_rows()
    integer_rows = [RATIONAL.integer_row(row)[0] for row in m.as_tuples()]
    conversions = []
    condensed = []

    inner = type(RATIONAL).integer_row

    def integer_row(self, row):
        conversions.append(row)
        return inner(self, row)

    def spy(function):
        def call(a, *args):
            condensed.append(a)
            return function(a, *args)

        return call

    # on the class: undoing a patch of the instance would leave the
    # bound method behind as an instance attribute
    monkeypatch.setattr(type(RATIONAL), "integer_row", integer_row)
    monkeypatch.setattr(cli, "condense_at", spy(condense_at))
    monkeypatch.setattr(cli, "condense_at_11", spy(condense_at_11))
    assert main_on(m) == EXIT_OK
    nonzero = sum(v != 0 for row in rows for v in row)
    assert len(conversions) == n
    assert len(condensed) == 1 + nonzero
    assert len(bareiss_calls) == 2 + nonzero + comb(n, 2)
    assert {a.kind for a in condensed + bareiss_calls} == {INTEGER}
    assert Matrix(integer_rows, INTEGER) in bareiss_calls
