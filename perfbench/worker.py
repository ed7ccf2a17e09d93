"""The process that runs a plan's ops against condet.

    python3 perfbench/worker.py PLAN.json RESULT.json SECONDS TRACE

It imports ``condet`` from ``src/`` of the checkout it lives in, runs
the closed loop (one client: the next op starts when the previous one
returns) for SECONDS, and at least once over every planned op, with
tracing off, and writes every op's time and
failure reason to RESULT.json.  With TRACE=1 it then replays the ops
the loop reached once more, with spans around the calls into each
layer, and runs the untimed per-layer probes on the same inputs.

The ops run here and not in ``run.py`` so that the peak resident
memory this process reports belongs to the ops alone, not to set-up.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

import refcheck

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The loop runs past SECONDS until it has MIN_SAMPLES ops (at least ten
# above the 90th percentile) and has run every planned op once, but
# never past HARD_CAP_S.
MIN_SAMPLES = 110
HARD_CAP_S = 60.0
# Ops run untimed before the loop (at least WARMUP_OPS of them, for at
# least WARMUP_S), so that lazy set-up in the interpreter and the
# package (argparse, regex compiles, allocator arenas) is not charged
# to the first timed ops.
WARMUP_OPS = 5
WARMUP_S = 1.0


def import_condet():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import condet.cli

    if not os.path.abspath(condet.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"condet was imported from {condet.cli.__file__}, not from {src}")
    return condet


def run_op(main: Callable, op: dict) -> Tuple[int, Optional[str]]:
    """Run one op in process; return its time in ns and why it failed."""
    check = op["check"]
    for key in ("trace", "out"):
        if key in check and os.path.exists(check[key]):
            os.remove(check[key])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = main(op["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that raises is counted, never fatal
            code = f"{type(exc).__name__}: {exc}"
        ns = time.perf_counter_ns() - start
    why = refcheck.failure(check, code, out.getvalue())
    if why is not None and err.getvalue().strip():
        why += f" [{err.getvalue().strip().splitlines()[-1]}]"
    return ns, why


def closed_loop(main: Callable, ops: List[dict], seconds: float, min_samples: int = MIN_SAMPLES) -> List[list]:
    """Issue the plan's ops in order, cycling, one at a time, for
    ``seconds`` and at least ``min_samples`` ops (within a hard cap).

    Each sample is ``[op index, ns, failure or None, probe ns]``: the
    speed probe runs once after every op, outside the op's time."""
    samples = []
    start = time.perf_counter()
    deadline, cap = start + seconds, start + max(seconds, HARD_CAP_S)
    while True:
        now = time.perf_counter()
        if (now >= deadline and len(samples) >= min_samples) or now >= cap:
            return samples
        idx = len(samples) % len(ops)
        ns, why = run_op(main, ops[idx])
        samples.append([idx, ns, why, refcheck.probe_ns()])


class Recorder:
    """Spans kept in memory: (name, op, parent span, start ns, end ns)."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.stack: List[int] = []
        self.op = -1
        self.entries_built = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(idx)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                self.spans[idx] = (name, self.op, parent, start, end)

        return traced


def _patch_points(condet) -> List[tuple]:
    cli, condense, bench = condet.cli, condet.condense, condet.bench
    points = [
        (cli, "build_parser", "cli.build_parser"),
        (cli, "load_matrix", "cli.load_matrix"),
        (cli, "cmd_det", "cli.cmd"),
        (cli, "cmd_verify", "cli.cmd"),
        (cli, "cmd_bench", "cli.cmd"),
        (cli, "condense_at", "condense.condense_at"),
        (cli, "condense_at_11", "condense.condense_at"),
        (cli, "dodgson_identity_residual", "condense.dodgson"),
        (cli, "run_bench", "bench.run"),
        (cli, "format_report", "bench.report"),
        (bench, "random_integer_matrix", "bench.corpus"),
    ]
    for mod in (cli, condense):
        points.append((mod, "remove_rows_cols", "matrix.minor"))
    for mod in (cli, condense, bench):
        points.append((mod, "det_bareiss", "oracle.bareiss"))
    for mod in (cli, bench):
        points += [
            (mod, "det_condensation", "condense.det"),
            (mod, "det_cofactor", "oracle.cofactor"),
            (mod, "det_gauss_rational", "oracle.gauss"),
        ]
    return points


@contextlib.contextmanager
def tracing(condet, rec: Recorder):
    """Wrap the layer entry points for the duration of the block."""
    points = _patch_points(condet)
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in points]
    build_parser = condet.cli.build_parser
    matrix_cls = condet.matrix.Matrix
    matrix_init = matrix_cls.__init__

    def parser_with_traced_parse(*args, **kwargs):
        parser = build_parser(*args, **kwargs)
        parser.parse_args = rec.wrap("cli.parse_args", parser.parse_args)
        return parser

    def counting_init(self, *args, **kwargs):
        matrix_init(self, *args, **kwargs)
        rec.entries_built += self.rows * self.cols

    try:
        for mod, attr, name in points:
            fn = parser_with_traced_parse if attr == "build_parser" else getattr(mod, attr)
            setattr(mod, attr, rec.wrap(name, fn))
        matrix_cls.__init__ = counting_init
        yield
    finally:
        matrix_cls.__init__ = matrix_init
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def _ms(ns: float) -> float:
    return ns / 1e6


def _matrix_texts(op: dict) -> List[List[List[str]]]:
    """Entry texts of every matrix an op reads: its file, or for a
    bench op each corpus matrix."""
    if op["method"] == "bench":
        return [[[str(v) for v in row] for row in rows] for _, _, rows in refcheck.corpus(op["config"])]
    with open(op["file"], "r", encoding="utf-8") as fh:
        return [[line.split() for line in fh if line.strip()]]


class Probes:
    """Untimed-by-the-op measurements on each replayed op's inputs."""

    def __init__(self, condet):
        self.c = condet
        self.ns = defaultdict(int)
        self.n = defaultdict(int)
        self.bits = defaultdict(list)
        self.method_ms = defaultdict(list)
        self.growth = defaultdict(lambda: defaultdict(list))

    def _timed(self, key: str, fn: Callable, count: int = 1):
        start = time.perf_counter_ns()
        value = fn()
        self.ns[key] += time.perf_counter_ns() - start
        self.n[key] += count
        return value

    def run(self, op: dict, det_ms: float) -> None:
        c = self.c
        kind = c.KINDS[op["kind"]]
        bench_op = op["method"] == "bench"
        for texts in _matrix_texts(op):
            size = sum(len(row) for row in texts)
            rows = self._timed("parse", lambda: [[kind.parse(t) for t in row] for row in texts], size)
            m = self._timed("build", lambda: c.Matrix(rows, kind), size)
            if op["method"] == "condense" or (bench_op and "condensation" in op["config"]["methods"]):
                self._condense(m, kind, op, det_ms)
        if bench_op:
            cfg = op["config"]
            self.n["corpus_entries"] += cfg["trials_per_size"] * sum(n * n for n in cfg["sizes"])
            for method in cfg["methods"]:
                one = c.BenchConfig.from_dict({**cfg, "methods": [method]})
                start = time.perf_counter_ns()
                c.run_bench(one)
                self.method_ms[method].append(_ms(time.perf_counter_ns() - start))

    def _condense(self, m, kind, op: dict, det_ms: float) -> None:
        c = self.c
        result = c.det_condensation(m, record_trace=True)
        ops = result.op_counts
        self.n["condensed"] += 1
        self.n["mults"] += ops.multiplications
        self.n["subs"] += ops.subtractions
        self.n["divs"] += ops.divisions
        level_bits = []
        for step in result.trace:
            if isinstance(step, c.ZeroRowExit):
                self.n["zero_row_exits"] += 1
                continue
            self.n["levels"] += 1
            grid = step.condensed.as_tuples()
            self._timed("build", lambda: c.Matrix(grid, kind), len(grid) * len(grid))
            if kind is not c.FLOAT:
                level_bits.append(max(refcheck.entry_bits(v) for row in grid for v in row))
        if kind is c.FLOAT:
            if refcheck.float_failure(repr(result.value), Fraction(op["check"]["want"])):
                self.n["float_bad"] += 1
            return
        if not level_bits:
            return
        rows = m.as_tuples()
        start_bits = max(refcheck.entry_bits(v) for row in rows for v in row)
        peak = max(level_bits)
        self.bits["peak"].append(peak)
        if start_bits:
            self.bits["growth"].append((level_bits[-1] / start_bits) ** (1 / len(level_bits)))
        if kind is c.INTEGER:
            hadamard = refcheck.hadamard_bits(rows)
            self.bits["over_hadamard"].append(peak / hadamard)
            if op["method"] == "condense":
                start = time.perf_counter_ns()
                c.det_bareiss(m)
                bareiss_ms = _ms(time.perf_counter_ns() - start)
                row = self.growth[m.rows]
                for key, value in (("det_ms", det_ms), ("bareiss_ms", bareiss_ms),
                                   ("last_bits", level_bits[-1]), ("hadamard_bits", hadamard)):
                    row[key].append(value)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(rec: Recorder, probes: Probes, op_ns: List[int], untraced_p50_ms: float) -> dict:
    total, calls, child = defaultdict(int), defaultdict(int), defaultdict(int)
    for name, _, parent, start, end in rec.spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    emit_ns = sum(end - start - child[i] for i, (name, _, _, start, end) in enumerate(rec.spans) if name == "cli.cmd")
    ops = len(op_ns)
    per_op = lambda name: _ms(total[name]) / ops
    p, n = probes.ns, probes.n
    condensed = n["condensed"] or 1
    traced_p50 = _ms(statistics.median(op_ns))
    metrics = {
        "cli.args_ms": (per_op("cli.build_parser") + per_op("cli.parse_args"), "ms"),
        "cli.load_ms": (per_op("cli.load_matrix"), "ms"),
        "cli.emit_ms": (_ms(emit_ns) / ops, "ms"),
        "scalars.parse_us_per_entry": (p["parse"] / 1e3 / max(n["parse"], 1), "us"),
        "matrix.build_us_per_entry": (p["build"] / 1e3 / max(n["build"], 1), "us"),
        "matrix.entries_built_per_op": (rec.entries_built / ops, "count"),
        "matrix.minor_ms_per_op": (per_op("matrix.minor"), "ms"),
        "condense.det_ms": (per_op("condense.det"), "ms"),
        "condense.op_share": (total["condense.det"] / sum(op_ns), "ratio"),
        "condense.levels": (n["levels"] / condensed, "count"),
        "condense.zero_row_exits": (n["zero_row_exits"], "count"),
        "condense.mults": (n["mults"] / condensed, "count"),
        "condense.subs": (n["subs"] / condensed, "count"),
        "condense.divs": (n["divs"] / condensed, "count"),
        "condense.peak_bits": (_median(probes.bits["peak"]), "bits"),
        "condense.peak_bits_over_hadamard": (_median(probes.bits["over_hadamard"]), "ratio"),
        "condense.bits_growth_per_level": (_median(probes.bits["growth"]), "ratio"),
        "condense.condense_at_us": (total["condense.condense_at"] / 1e3 / max(calls["condense.condense_at"], 1), "us"),
        "condense.dodgson_ms_per_op": (per_op("condense.dodgson"), "ms"),
        "condense.float_bad": (n["float_bad"], "count"),
        "oracle.bareiss_ms_per_op": (per_op("oracle.bareiss"), "ms"),
        "oracle.bareiss_calls_per_op": (calls["oracle.bareiss"] / ops, "count"),
        "oracle.cofactor_ms_per_op": (per_op("oracle.cofactor"), "ms"),
        "oracle.gauss_ms_per_op": (per_op("oracle.gauss"), "ms"),
        "bench.run_ms": (per_op("bench.run"), "ms"),
        "bench.report_ms": (per_op("bench.report"), "ms"),
        "bench.corpus_us_per_entry": (total["bench.corpus"] / 1e3 / max(n["corpus_entries"], 1), "us"),
        "trace.op_ms_mean": (_ms(sum(op_ns)) / ops, "ms"),
        "trace.op_ms_p50": (traced_p50, "ms"),
        "trace.overhead_ratio": (traced_p50 / untraced_p50_ms, "ratio"),
    }
    for method in ("condensation", "cofactor", "bareiss", "gauss-rational"):
        runs = probes.method_ms[method]
        metrics[f"bench.method_ms.{method}"] = (statistics.fmean(runs) if runs else 0.0, "ms")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def traced_run(condet, ops: List[dict], samples: List[list], budget_s: float) -> dict:
    """Replay, with spans, each op the closed loop reached (first pass
    only), then probe the same inputs; returns the per-layer metrics."""
    order = list(dict.fromkeys(idx for idx, _, _, _ in samples))
    rec = Recorder()
    op_ns, det_ms = [], defaultdict(float)
    deadline = time.perf_counter() + budget_s
    with tracing(condet, rec):
        for idx in order:
            rec.op = idx
            op_ns.append(run_op(condet.cli.main, ops[idx])[0])
            if time.perf_counter() >= deadline:
                break
    replayed = order[: len(op_ns)]
    for name, op, _, start, end in rec.spans:
        if name == "condense.det":
            det_ms[op] += _ms(end - start)
    probes = Probes(condet)
    for idx in replayed:
        probes.run(ops[idx], det_ms[idx])
    untraced_p50 = _ms(statistics.median(ns for _, ns, _, _ in samples))
    growth = [
        {"n": size, **{key: _median(vals) for key, vals in row.items()}, "matrices": len(row["det_ms"])}
        for size, row in sorted(probes.growth.items())
    ]
    return {"layers": layer_metrics(rec, probes, op_ns, untraced_p50), "growth": growth, "replayed": len(replayed)}


def main(argv: List[str]) -> int:
    plan_path, result_path, seconds, trace = argv[0], argv[1], float(argv[2]), argv[3] == "1"
    start = time.perf_counter()
    try:
        condet = import_condet()
    except ImportError as exc:
        print(f"worker: cannot import condet: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    with open(plan_path, "r", encoding="utf-8") as fh:
        ops = json.load(fh)
    os.chdir(ROOT)
    closed_loop(condet.cli.main, ops, WARMUP_S, min_samples=WARMUP_OPS)
    import_probe_ns = statistics.median(refcheck.probe_ns() for _ in range(21))
    samples = closed_loop(condet.cli.main, ops, seconds, min_samples=max(MIN_SAMPLES, len(ops)))
    result = {
        "import_s": import_s,
        "import_probe_ns": import_probe_ns,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "samples": samples,
    }
    if trace:
        result.update(traced_run(condet, ops, samples, budget_s=seconds / 2))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
