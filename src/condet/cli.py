"""Command-line interface.

Three subcommands:

* ``condet det FILE``     - print one determinant.
* ``condet verify FILE``  - evaluate the condensation identities and the
  Dodgson minor identity on the matrix, one pass/fail line each.
* ``condet bench [CONFIG]`` - run the seeded bench and emit the report.

Exit codes: 0 success, 1 at least one identity failed to verify,
2 bad input from a file, flag or config (the message says where), or
a run past a budget of ``oracle``'s cost model: checked before any
determinant, and before each traced level is condensed,
3 anything else: one line for a non-exact division, a method
disagreement, a float determinant or trace entry past the double
range or a verify adjugate that fails its self-check, a traceback for
any other fault.  Commands raise; ``main`` alone reports and picks the
code.  A failed ``det`` prints nothing on stdout and writes no trace.

Matrix files come in two shapes, picked apart automatically:
plain text with one row per line (entries separated by whitespace
and/or commas, with an entry on each side of every comma) or a JSON
object ``{"rows": R, "cols": C, "entries":
[...texts...]}`` with entries in row-major order.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import operator
import sys
from typing import List, Optional, Sequence

from .bench import (
    DEFAULT_CONFIG,
    METHODS,
    BenchConfig,
    MethodDisagreement,
    format_report,
    run_bench,
)
from .condense import (
    PivotStrategy,
    condense_at,
    condense_at_11,
    det_condensation,
    dodgson_identity_residual,
    trace_document,
)
from .matrix import Matrix, PivotSpec, _read_row, matrix_from_doc, remove_rows_cols
# det_cofactor and det_gauss_rational run through METHODS; they stay
# importable from this module alongside det_bareiss and det_condensation.
from .oracle import (
    _WORK_BUDGET, _OverBudget, _adjugate, _integer_matrix, _work, det_bareiss, det_cofactor, det_gauss_rational
)
from .scalars import KINDS, ScalarKind, _as_kind

__all__ = ["main", "cmd_det", "cmd_verify", "cmd_bench", "load_matrix", "parse_matrix_text", "UsageError", "MatrixFileError"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USER_ERROR = 2
EXIT_INTERNAL_ERROR = 3

# Each ``--method`` spelling to its ``METHODS`` key, the name messages use.
_CLI_METHODS = {method.cli_name: name for name, method in METHODS.items()}


class UsageError(ValueError):
    """Bad input from a file, flag or config; the message says where."""


class MatrixFileError(UsageError):
    """A matrix file that cannot be parsed; the message locates the problem."""


def parse_matrix_text(text: str, kind: ScalarKind) -> Matrix:
    """Parse matrix text (plain rows or the JSON object form) of at least one row."""
    if text.lstrip().startswith("{"):
        try:
            m = matrix_from_doc(json.loads(text), kind)
        except ValueError as exc:  # json.JSONDecodeError is one
            raise MatrixFileError(f"JSON matrix file: {exc}") from exc
        except RecursionError:
            raise MatrixFileError("JSON matrix file: nested too deeply to read") from None
    else:
        rows: List[tuple] = []
        width = None
        bad_cell = lambda col, exc: MatrixFileError(f"line {lineno}, entry {col}: {exc}")  # of the line being read
        for lineno, line in enumerate(text.splitlines(), start=1):
            if "," in line:
                cells = []
                for field in line.split(","):
                    entries = field.split()
                    if not entries:
                        raise MatrixFileError(f"line {lineno}, entry {len(cells) + 1}: empty entry")
                    cells += entries
            else:
                cells = line.split()
                if not cells:
                    continue
            if len(cells) != (width := width or len(cells)):
                raise MatrixFileError(f"line {lineno}: row has {len(cells)} entries, previous rows have {width}")
            rows.append(_read_row(cells, kind, bad_cell, "_" not in line))
        m = Matrix._trusted(rows, kind, width or 0)
    if not m.rows:
        raise MatrixFileError("matrix file has no rows")
    return m


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str, mode: str = "w") -> None:
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def load_matrix(path: str, kind: ScalarKind) -> Matrix:
    return parse_matrix_text(_read_text(path), kind)


def _check_work(what: str, method: str, m: Matrix) -> None:
    rows, n = m.as_tuples(), m.rows
    bits = max(max(map(max, rows), default=0), -min(map(min, rows), default=0)).bit_length()
    work = _work(method, n, bits)
    if work > _WORK_BUDGET:
        hint = " (use --method bareiss)" if method in ("cofactor", "gauss-rational") else ""
        raise UsageError(f"{what} of a {n}x{n} matrix of {bits}-bit integer rows needs an estimated"
                         f" {work:.3g} work units, over the budget of {_WORK_BUDGET:.0e}{hint}")


def cmd_det(args: argparse.Namespace) -> int:
    kind = KINDS[args.scalar]
    m = load_matrix(args.file, kind)
    if not m.is_square():
        raise UsageError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    for flag, value in (("--trace", args.trace), ("--pivot", args.pivot)):
        if value is not None and args.method != "condense":
            raise UsageError(f"{flag} is only available with --method condense")
    name = _CLI_METHODS[args.method]
    method = METHODS[name]
    strategy = PivotStrategy(args.pivot or PivotStrategy.FIRST_NONZERO.value)
    trace = None
    try:
        if args.trace is not None:  # undivided: each level is weighed as it is built
            result = det_condensation(m, strategy)
            value, trace = result.value, json.dumps(trace_document(m, result), indent=2) + "\n"
        else:
            # Converted once, for the estimate and the run; untraced
            # condensation divides, so it costs what Bareiss costs.
            im, _, back = _integer_matrix(m)
            _check_work(name, "bareiss" if name == "condensation" else name, im)
            if name == "condensation":
                value = back(det_condensation(im, strategy, record_trace=False).value)
            else:  # Gauss on its own rationals, with no row scaling
                value = method.run(m).value if name == "gauss-rational" else back(method.run(im).value)
    except _OverBudget as exc:
        raise UsageError(f"{exc} (drop --trace, or use --method bareiss)") from None
    except OverflowError as exc:  # a float value or trace scalar past the double range
        raise OverflowError(f"{exc}; use --scalar rational for an exact result") from None
    if trace is not None:
        _write_text(args.trace, trace)
    print(kind.format(value))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    kind = KINDS[args.scalar]
    m = load_matrix(args.file, kind)
    if not m.is_square():
        raise UsageError(f"verify needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n < 3:
        raise UsageError(f"verify needs size >= 3, got {n}")

    # A rational or float matrix is checked on its integer rows,
    # converted once (a double is m * 2**e): row i of m is I[i] /
    # scales[i] (``RationalKind.integer_row``), and every determinant
    # below runs on I.  Both identities are homogeneous in each row,
    # so each residual of m is the residual of I divided by
    # an exact positive integer.  With S the product of the scales, a
    # minor of m is the same minor of I over the scales of its rows; a
    # condensed row of rows r and k carries s_r * s_k, so det(condensed
    # at (k,l)) picks up S * s_k**(n-2), as does a(k,l)**(n-2) * det(m):
    # the condensation identity at (k,l) divides by s_k**(n-2) * S.
    # Both Dodgson products leave rows k and l out once each, so the
    # pair (k,l) divides by S*S / (s_k*s_l).  Residuals turn back into
    # the matrix's kind only in ``report`` (a float one rounded once),
    # and every kind passes on an exact zero residual.  An integer
    # matrix is checked as it is, every scale being 1.
    m, scales, _ = _integer_matrix(m)
    scale = math.prod(scales)
    _check_work("verify", "verify", m)

    # Every determinant below other than the condensed ones is a minor
    # of m: det(m), the n*n one-removed and the C(n,2) two-removed
    # minors.  The memo lives for this run only and computes each once,
    # by Bareiss on the minor.  With det(m) != 0, one fraction-free
    # elimination gives all n*n one-removed minors as the entries of
    # adj(m): det M({k},{l}) is (-1)**(k+l) times entry (l,k).  On a
    # singular m that elimination stops at a column with no pivot, so
    # each one-removed minor keeps a Bareiss call.  Either way the
    # minors share no code with condensation.  No minor is read from
    # adj(m) before the one-removed minors, read through ``minor``
    # itself, pass a Laplace expansion along each row i with the entries
    # of each row r: the sum over j of a(r,j) * (-1)**(i+j) * M(i,j) is
    # det(m), by Bareiss, if r == i and 0 otherwise (entry (r,i) of
    # m * adj(m) = det(m) * I).  The Dodgson identity alone cannot see a
    # sign fault common to every one-removed minor, since each of its
    # products reads two of them.
    bareiss_minor = functools.cache(lambda rows, cols: det_bareiss(remove_rows_cols(m, rows, cols)))
    det_full = bareiss_minor((), ())
    minor = bareiss_minor
    if det_full != 0:
        adj = _adjugate(m)

        def minor(rows, cols):
            if len(rows) != 1:
                return bareiss_minor(rows, cols)
            (k,), (l,) = rows, cols
            return (-1) ** (k + l) * adj[l - 1][k - 1]

        cofactors = [[(-1) ** (i + j) * minor((i,), (j,)) for j in range(1, n + 1)] for i in range(1, n + 1)]
        for r, row in enumerate(m.as_tuples(), start=1):
            for i, cofactor_row in enumerate(cofactors, start=1):
                if sum(map(operator.mul, row, cofactor_row)) != (det_full if r == i else 0):
                    raise ArithmeticError(
                        f"adjugate self-check failed: entry ({r},{i}) of A*adj(A)"
                        f" is not {'det(A)' if r == i else 0}"
                    )

    failures = 0
    checked = 0

    def report(label: str, residual: int, factor: int) -> None:
        nonlocal failures, checked
        checked += 1
        ok = residual == 0
        if not ok:
            failures += 1
        text = kind.format(_as_kind(kind, residual, factor))
        print(f"{'PASS' if ok else 'FAIL'} {label} residual={text}")

    def report_condensation(step) -> None:
        # a(k,l)**(n-2) * det(A) = det(condensed at (k,l)).
        k, l = step.pivot
        residual = step.pivot_value ** (n - 2) * det_full - det_bareiss(step.condensed)
        report(f"condense-identity pivot=({k},{l})", residual, scales[k - 1] ** (n - 2) * scale)

    # The corner pivot, then every position with a nonzero pivot.
    report_condensation(condense_at_11(m))
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            if m.get(k, l) != 0:
                report_condensation(condense_at(m, PivotSpec(k, l)))

    # Dodgson minor identity for every row/column pair k < l.
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            residual = dodgson_identity_residual(m, k, l, minor)
            factor = scale * scale // (scales[k - 1] * scales[l - 1])
            report(f"dodgson-identity rows/cols=({k},{l})", residual, factor)

    status = "ok" if failures == 0 else "FAILED"
    print(f"verify {status}: {checked - failures}/{checked} identities hold")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = DEFAULT_CONFIG
    if args.config is not None:
        config_text = _read_text(args.config)
        try:
            cfg = BenchConfig.from_dict(json.loads(config_text))
        except json.JSONDecodeError as exc:
            raise UsageError(f"invalid JSON in {args.config}: {exc}") from exc
        except ValueError as exc:
            raise UsageError(f"bench config {args.config}: {exc}") from exc
        except RecursionError:
            raise UsageError(f"bench config {args.config}: nested too deeply to read") from None
    if args.seed is not None:
        cfg = cfg._replace(seed=args.seed)
    if args.out != "-":
        # Appending nothing checks the path without truncating an old
        # report, so a path that cannot be written exits 2 before the run.
        _write_text(args.out, "", mode="a")
    text = format_report(run_bench(cfg))
    if args.out == "-":
        sys.stdout.write(text)
    else:
        _write_text(args.out, text)
    return EXIT_OK


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condet",
        description="Exact determinants by pivot-anchored condensation, with oracles and a bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Handlers are looked up by name when called, so that patching
    # ``cmd_det`` and friends (for tracing or in tests) reaches a parser
    # built before the patch.
    det = sub.add_parser("det", help="print the determinant of a matrix file")
    det.add_argument("file", help="matrix file (plain rows or JSON object)")
    det.add_argument(
        "--method",
        choices=tuple(_CLI_METHODS),
        default="condense",
        help="determinant algorithm (default: condense)",
    )
    det.add_argument(
        "--scalar",
        choices=tuple(KINDS),
        default="rational",
        help="scalar kind for parsing and arithmetic (default: rational)",
    )
    det.add_argument(
        "--pivot",
        choices=tuple(s.value for s in PivotStrategy),
        help="pivot strategy for --method condense (default: first-nonzero; an untraced value"
        " is exact before any rounding, so only a trace's levels differ)",
    )
    det.add_argument(
        "--trace",
        metavar="PATH",
        help="write the per-level condensation trace as JSON (condense only)",
    )
    det.set_defaults(func=lambda args: cmd_det(args))

    verify = sub.add_parser("verify", help="check the condensation and minor identities on a matrix")
    verify.add_argument("file", help="matrix file (plain rows or JSON object)")
    verify.add_argument(
        "--scalar",
        choices=tuple(KINDS),
        default="rational",
        help="scalar kind for parsing and arithmetic (default: rational)",
    )
    verify.set_defaults(func=lambda args: cmd_verify(args))

    bench = sub.add_parser("bench", help="run the seeded determinant bench")
    bench.add_argument(
        "config",
        nargs="?",
        default=None,
        help="JSON bench config (default: the built-in config, "
        "mirrored in fixtures/bench_default.json)",
    )
    bench.add_argument("--seed", type=int, default=None, help="override the config seed")
    bench.add_argument("--out", default="-", help="report path (default: stdout)")
    bench.set_defaults(func=lambda args: cmd_bench(args))

    return parser


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Each call returns a shallow copy of the one parser, so that setting
    an attribute on a result (a wrapped ``parse_args``, say) leaves the
    next result untouched.  Parsing never changes the shared parts.
    """
    return copy.copy(_shared_parser())


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except (ArithmeticError, MethodDisagreement) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    except Exception:  # an internal fault, never passed off as bad input
        import traceback  # imported only on this path, to keep start-up lean

        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
