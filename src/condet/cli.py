"""Command-line interface.

Three subcommands:

* ``condet det FILE``     - print one determinant.
* ``condet verify FILE``  - evaluate the condensation identities and the
  Dodgson minor identity on the matrix, one pass/fail line each.
* ``condet bench [CONFIG]`` - run the seeded bench and emit the report.

Exit codes: 0 success, 1 at least one identity failed to verify,
2 bad input from a file, flag or config (the message says where),
3 anything else: one line for a non-exact division, a method
disagreement or a float determinant that came out nan or infinite,
a traceback for any other fault.  Commands raise; ``main`` alone
reports and picks the code.  A failed ``det`` prints nothing on
stdout and writes no trace.

Matrix files come in two shapes, picked apart automatically:
plain text with one row per line (entries separated by whitespace
and/or commas) or a JSON object ``{"rows": R, "cols": C, "entries":
[...texts...]}`` with entries in row-major order.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
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
from .matrix import Matrix, PivotSpec, matrix_from_doc, remove_rows_cols
# det_cofactor and det_gauss_rational run through METHODS; they stay
# importable from this module alongside det_bareiss and det_condensation.
from .oracle import det_bareiss, det_cofactor, det_gauss_rational
from .scalars import FLOAT, KINDS, ScalarKind, ScalarParseError

__all__ = ["main", "cmd_det", "cmd_verify", "cmd_bench", "load_matrix", "parse_matrix_text", "UsageError", "MatrixFileError"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USER_ERROR = 2
EXIT_INTERNAL_ERROR = 3

VERIFY_REL_TOL = 1e-9

_CLI_METHODS = {method.cli_name: method for method in METHODS.values()}


class UsageError(ValueError):
    """Bad input from a file, flag or config; the message says where."""


class MatrixFileError(UsageError):
    """A matrix file that cannot be parsed; the message locates the problem."""


def parse_matrix_text(text: str, kind: ScalarKind) -> Matrix:
    """Parse matrix text (plain rows or the JSON object form)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return matrix_from_doc(json.loads(text), kind)
        except ValueError as exc:  # json.JSONDecodeError is one
            raise MatrixFileError(f"JSON matrix file: {exc}") from exc
    rows: List[List] = []
    width = None
    row_count = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        cells = line.replace(",", " ").split()
        if not cells:
            continue
        row_count += 1
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise MatrixFileError(
                f"line {lineno}: row has {len(cells)} entries, previous rows have {width}"
            )
        row = []
        for col, cell in enumerate(cells, start=1):
            try:
                row.append(kind.parse(cell))
            except ScalarParseError as exc:
                raise MatrixFileError(f"line {lineno}, entry {col}: {exc}") from exc
        rows.append(row)
    if not rows:
        raise MatrixFileError("matrix file has no rows")
    return Matrix(rows, kind)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def load_matrix(path: str, kind: ScalarKind) -> Matrix:
    return parse_matrix_text(_read_text(path), kind)


def _residual_passes(residual, reference, kind: ScalarKind) -> bool:
    # Exact kinds demand residual zero; floats get a relative test
    # against the reference magnitude (floored at one).
    if kind is FLOAT:
        return abs(residual) <= VERIFY_REL_TOL * max(1.0, abs(reference))
    return residual == kind.zero


def cmd_det(args: argparse.Namespace) -> int:
    kind = KINDS[args.scalar]
    m = load_matrix(args.file, kind)
    if not m.is_square():
        raise UsageError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    for flag, value in (("--trace", args.trace), ("--pivot", args.pivot)):
        if value is not None and args.method != "condense":
            raise UsageError(f"{flag} is only available with --method condense")
    method = _CLI_METHODS[args.method]
    if kind not in method.kinds:
        needed = " or ".join(k.name for k in method.kinds)
        raise UsageError(f"--method {args.method} needs --scalar {needed}")
    limit = method.size_limit
    if limit is not None and m.rows > limit:
        raise UsageError(f"{method.title} is limited to {limit}x{limit}, got {m.rows}x{m.cols}")
    if args.method == "condense":
        strategy = PivotStrategy(args.pivot or PivotStrategy.FIRST_NONZERO.value)
        result = det_condensation(m, strategy, record_trace=args.trace is not None)
    else:
        result = method.run(m)
    if kind is FLOAT and not math.isfinite(result.value):
        # Undivided condensation entries roughly double their exponent
        # per level and leave the double range by n = 10 (inf - inf is
        # nan): there is no answer to print.
        raise FloatingPointError(
            f"the float determinant came out {result.value!r}; "
            "use --scalar rational for an exact result, or --method bareiss"
        )
    if args.trace is not None:
        _write_text(args.trace, json.dumps(trace_document(m, result), indent=2) + "\n")
    print(kind.format(result.value))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    kind = KINDS[args.scalar]
    m = load_matrix(args.file, kind)
    if not m.is_square():
        raise UsageError(f"verify needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n < 3:
        raise UsageError(f"verify needs size >= 3, got {n}")

    det_full = det_bareiss(m)
    failures = 0
    checked = 0

    def report(label: str, residual, reference) -> None:
        nonlocal failures, checked
        checked += 1
        ok = _residual_passes(residual, reference, kind)
        if not ok:
            failures += 1
        print(f"{'PASS' if ok else 'FAIL'} {label} residual={kind.format(residual)}")

    # Corner-pivot condensation identity:
    # a(1,1)**(n-2) * det(A) = det(condensed at (1,1)).
    step = condense_at_11(m)
    lhs = step.pivot_value ** (n - 2) * det_full
    residual = lhs - det_bareiss(step.condensed)
    report("condense-identity pivot=(1,1)", residual, lhs)

    # General-pivot identity at every position with a nonzero pivot:
    # a(k,l)**(n-2) * det(A) = det(condensed at (k,l)).
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            pivot_value = m.get(k, l)
            if kind.is_zero(pivot_value):
                continue
            step = condense_at(m, PivotSpec(k, l))
            lhs = pivot_value ** (n - 2) * det_full
            residual = lhs - det_bareiss(step.condensed)
            report(f"condense-identity pivot=({k},{l})", residual, lhs)

    # Dodgson minor identity for every row/column pair k < l.
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            residual = dodgson_identity_residual(m, k, l)
            lhs = det_full * det_bareiss(remove_rows_cols(m, (k, l), (k, l)))
            report(f"dodgson-identity rows/cols=({k},{l})", residual, lhs)

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
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    text = format_report(run_bench(cfg))
    if args.out == "-":
        sys.stdout.write(text)
    else:
        _write_text(args.out, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condet",
        description="Exact determinants by pivot-anchored condensation, with oracles and a bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
        help="pivot strategy for --method condense (default: first-nonzero)",
    )
    det.add_argument(
        "--trace",
        metavar="PATH",
        help="write the per-level condensation trace as JSON (condense only)",
    )
    det.set_defaults(func=cmd_det)

    verify = sub.add_parser("verify", help="check the condensation and minor identities on a matrix")
    verify.add_argument("file", help="matrix file (plain rows or JSON object)")
    verify.add_argument(
        "--scalar",
        choices=tuple(KINDS),
        default="rational",
        help="scalar kind for parsing and arithmetic (default: rational)",
    )
    verify.set_defaults(func=cmd_verify)

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
    bench.set_defaults(func=cmd_bench)

    return parser


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
