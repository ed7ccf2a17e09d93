"""Seeded inputs and op lists for the four benchmark workloads.

``build(workload, seed, run_dir)`` writes every matrix file and bench
config an op needs into ``run_dir`` and returns the plan: one dict per
op with the argv for ``condet.cli.main`` and the answer the reference
computed for it.  The same seed writes byte-identical files.

Ops come in rounds.  A round holds one op per stratum (size, kind) in
a seeded order, and the closed loop walks the plan round after round,
so any prefix it reaches in a timed run has nearly the mix of the
whole plan, whatever the speed of the program.  Each plan is small
enough for the loop to run all of it within one timed run.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import comb
from typing import Callable, Dict, List

from refcheck import SplitMix64, corpus, det_exact, exact_text

BENCH_METHODS = ("condensation", "cofactor", "bareiss", "gauss-rational")
ENTRY_BOUND = 9


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _matrix_text(rows: List[List[str]]) -> str:
    return "".join(" ".join(row) + "\n" for row in rows)


def _entry(gen: SplitMix64, kind: str):
    """One entry as (text, exact value)."""
    if kind == "integer":
        value = gen.int_in(-ENTRY_BOUND, ENTRY_BOUND)
        return str(value), value
    if kind == "float":
        # Quarters are exact in binary, so the exact reference is the
        # determinant of the very values the program parses.
        quarters = gen.int_in(-4 * ENTRY_BOUND, 4 * ENTRY_BOUND)
        return repr(quarters / 4), Fraction(quarters, 4)
    num = 0
    while num == 0:
        num = gen.int_in(-ENTRY_BOUND, ENTRY_BOUND)
    den = gen.int_in(1, ENTRY_BOUND)
    return f"{num}/{den}", Fraction(num, den)


def _matrix(gen: SplitMix64, n: int, kind: str):
    """Entry texts and exact determinant.  Float matrices are redrawn
    while singular, because a relative tolerance has no meaning at 0."""
    while True:
        cells = [[_entry(gen, kind) for _ in range(n)] for _ in range(n)]
        value = det_exact([[v for _, v in row] for row in cells])
        if kind != "float" or value != 0:
            return [[t for t, _ in row] for row in cells], value


class _Ops:
    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        self.ops: List[dict] = []

    def path(self, suffix: str) -> str:
        return os.path.join(self.run_dir, f"op{len(self.ops):04d}{suffix}")

    def add(self, argv: List[str], check: dict, **info) -> None:
        self.ops.append({"argv": argv, "check": check, **info})


def _det_op(ops: _Ops, gen: SplitMix64, n: int, kind: str, method: str = "condense", trace: bool = False) -> None:
    rows, value = _matrix(gen, n, kind)
    path = ops.path(".txt")
    _write(path, _matrix_text(rows))
    argv = ["det", path, "--scalar", kind]
    if method != "condense":
        argv += ["--method", method]
    if kind == "float":
        check = {"type": "float", "want": str(value)}
    else:
        check = {"type": "text", "want": exact_text(value)}
    if trace:
        check["trace"] = ops.path(".trace.json")
        argv += ["--trace", check["trace"]]
    ops.add(argv, check, file=path, n=n, kind=kind, method=method)


def det_int_growth(ops: _Ops, gen: SplitMix64) -> None:
    for _ in range(80):
        for n in gen.shuffle(list(range(14, 19))):
            _det_op(ops, gen, n, "integer")


# One op in six leaves the default method; one rational condense op in
# four also writes a trace.  Counters run over the whole plan, so the
# shares are exact.
_ALT_EVERY = 6
_TRACE_EVERY = 4


def det_small_mixed(ops: _Ops, gen: SplitMix64) -> None:
    strata = [(n, kind) for n in range(3, 13) for kind in ("rational", "float", "integer")]
    alt = {"rational": 0, "float": 0, "integer": 0}
    traced = 0
    for _ in range(40):
        for n, kind in gen.shuffle(list(strata)):
            alt[kind] += 1
            method, trace = "condense", False
            if alt[kind] % _ALT_EVERY == 0:
                method = ("bareiss", "gauss", "cofactor")[(alt[kind] // _ALT_EVERY) % 3]
                if (method == "gauss" and kind != "rational") or (method == "cofactor" and n > 7):
                    method = "bareiss"
            elif kind == "rational":
                traced += 1
                trace = traced % _TRACE_EVERY == 0
            _det_op(ops, gen, n, kind, method, trace)


def verify_rational(ops: _Ops, gen: SplitMix64) -> None:
    # Twice as many n=6 ops as the other sizes puts the median inside
    # the n=6 stratum and the 90th percentile inside n=8, not on a gap
    # between sizes, whose op times differ by a factor of two or more.
    # 32 rounds, so that one pass over the plan (about 19 s on a 2-CPU
    # host) fits in a 25 s run.
    for _ in range(32):
        for n in gen.shuffle([5, 6, 6, 7, 8]):
            rows, _ = _matrix(gen, n, "rational")
            path = ops.path(".txt")
            _write(path, _matrix_text(rows))
            # Every entry is nonzero, so every position is a pivot.
            k = 1 + n * n + comb(n, 2)
            check = {"type": "verify", "want": f"verify ok: {k}/{k} identities hold"}
            ops.add(["verify", path], check, file=path, n=n, kind="rational", method="verify")


def _size_triples(gen: SplitMix64, sizes: range):
    """Endless distinct size triples in which, over each block of
    ``len(sizes)`` triples, every size appears three times: windows of
    three stepping by three around a deck reshuffled per block.  This
    keeps the plan's cost nearly the same from seed to seed."""
    while True:
        deck = gen.shuffle(list(sizes))
        for k in range(len(deck)):
            yield sorted(deck[(3 * k + j) % len(deck)] for j in range(3))


def _bench_op(ops: _Ops, gen: SplitMix64, sizes: List[int], methods, trials: int) -> None:
    cfg = {
        "sizes": sizes,
        "trials_per_size": trials,
        "entry_bound": ENTRY_BOUND,
        "seed": gen.next() & 0xFFFFFFFF,
        "methods": list(methods),
    }
    path = ops.path(".json")
    _write(path, json.dumps(cfg, indent=2) + "\n")
    out = ops.path(".csv")
    want = [
        f"{method},{n},{trial},{exact_text(det_exact(rows))}"
        for n, trial, rows in corpus(cfg)
        for method in cfg["methods"]
    ]
    check = {"type": "bench", "out": out, "rows": want}
    ops.add(["bench", path, "--out", out], check, file=path, config=cfg, kind="integer", method="bench")


def bench_crosscheck(ops: _Ops, gen: SplitMix64) -> None:
    # All four methods where cofactor expansion is affordable (n <= 7);
    # the three polynomial-time ones on n in 8..15.
    small, large = _size_triples(gen, range(3, 8)), _size_triples(gen, range(8, 16))
    for _ in range(60):
        for which in gen.shuffle(["small", "large"]):
            if which == "small":
                _bench_op(ops, gen, next(small), BENCH_METHODS, 2)
            else:
                _bench_op(ops, gen, next(large), ("condensation", "bareiss", "gauss-rational"), 1)


WORKLOADS: Dict[str, Callable[[_Ops, SplitMix64], None]] = {
    "det-int-growth": det_int_growth,
    "det-small-mixed": det_small_mixed,
    "verify-rational": verify_rational,
    "bench-crosscheck": bench_crosscheck,
}


def build(workload: str, seed: int, run_dir: str) -> List[dict]:
    """Write the inputs of ``workload`` for ``seed`` into ``run_dir``
    (created, and expected empty) and return its op list."""
    os.makedirs(run_dir, exist_ok=True)
    ops = _Ops(run_dir)
    WORKLOADS[workload](ops, SplitMix64(seed))
    return ops.ops
