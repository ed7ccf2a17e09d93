"""Operation-count and entry-growth benchmarking.

A bench run generates a reproducible corpus of integer matrices, runs
the selected determinant methods on each, and records per run the
scalar operation counts, wall time, per-level entry bit lengths (for
condensation) and the canonical text of the result.  All methods run on
the same matrix must agree on that text; a mismatch aborts the run by
raising :class:`MethodDisagreement`, flagging the offending pair.

Corpus generation is pinned down to the bit so independent
implementations can reproduce it; see ``docs/corpus-rng.md`` and the
:class:`SplitMix64` docstring.  In short: a master SplitMix64 generator
is seeded from the config, each (size, trial) draws one child seed from
it in listing order, and the child generator fills the matrix row-major
with ``next_u64() % (2*bound + 1) - bound``.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .condense import CondensationStep, DetResult, det_condensation
from .matrix import Matrix
from .oracle import (
    COFACTOR_SIZE_LIMIT,
    det_bareiss,
    det_cofactor,
    det_gauss_rational,
)
from .scalars import FLOAT, INTEGER, RATIONAL, OpCounts, Scalar, ScalarKind, bit_length

__all__ = [
    "SplitMix64",
    "random_integer_matrix",
    "random_rational_matrix",
    "BenchConfig",
    "BenchRecord",
    "MethodDisagreement",
    "Method",
    "METHODS",
    "BENCH_METHODS",
    "DEFAULT_CONFIG",
    "run_bench",
    "format_report",
    "parse_report",
    "growth_report",
    "hadamard_bit_bound",
]


class SplitMix64:
    """The SplitMix64 pseudo-random generator (Steele-Lea-Flood mixing).

    State advances by the 64-bit golden-gamma constant; each output is
    the advanced state pushed through two xor-shift-multiply mixing
    rounds.  All arithmetic is modulo 2**64:

        state    = (state + 0x9E3779B97F4A7C15) mod 2**64
        z        = state
        z        = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
        z        = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2**64
        output   = z ^ (z >> 31)

    ``split`` derives an independent child generator seeded with the
    next output, which is how the bench fans one config seed out into
    per-matrix streams.
    """

    _MASK = (1 << 64) - 1
    _GAMMA = 0x9E3779B97F4A7C15

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + self._GAMMA) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def split(self) -> "SplitMix64":
        return SplitMix64(self.next_u64())

    def int_in(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] by modulo reduction.

        The tiny modulo bias (span never exceeds a few hundred here) is
        accepted and part of the pinned corpus definition.
        """
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)


def random_integer_matrix(n: int, bound: int, gen: SplitMix64) -> Matrix:
    """n x n integer matrix, entries uniform-ish in [-bound, bound],
    drawn row-major from ``gen``."""
    if bound < 1:
        raise ValueError(f"entry bound must be >= 1, got {bound}")
    data = [
        [gen.int_in(-bound, bound) for _ in range(n)]
        for _ in range(n)
    ]
    return Matrix(data, INTEGER, cols=n)


def random_rational_matrix(
    n: int,
    gen: SplitMix64,
    num_bound: int = 9,
    den_bound: int = 9,
) -> Matrix:
    """n x n rational matrix with nonzero entries.

    Per entry, row-major: draw the numerator from [-num_bound,
    num_bound] excluding 0 (redraw on 0), then the denominator from
    [1, den_bound].
    """
    data = []
    for _ in range(n):
        row = []
        for _ in range(n):
            num = 0
            while num == 0:
                num = gen.int_in(-num_bound, num_bound)
            den = gen.int_in(1, den_bound)
            row.append(Fraction(num, den))
        data.append(row)
    return Matrix(data, RATIONAL, cols=n)


@dataclass(frozen=True)
class Method:
    """One determinant method: its ``condet det --method`` spelling,
    the wording error messages use for it, how to run it, the scalar
    kinds it accepts and its size cap (None for no cap)."""

    cli_name: str
    title: str
    run: Callable[[Matrix], DetResult]
    kinds: Tuple[ScalarKind, ...] = (RATIONAL, INTEGER, FLOAT)
    size_limit: Optional[int] = None


def _oracle_result(det: Callable[[Matrix, OpCounts], Scalar], m: Matrix) -> DetResult:
    ops = OpCounts()
    return DetResult(det(m, ops), (), ops)


# Keyed by the bench and report name.  Each ``run`` looks its function
# up in this module's globals at call time, so patching the module
# attribute (for tracing or in tests) reaches every caller.
METHODS: Dict[str, Method] = {
    "condensation": Method("condense", "condensation", lambda m: det_condensation(m)),
    "cofactor": Method(
        "cofactor",
        "cofactor expansion",
        lambda m: _oracle_result(det_cofactor, m),
        size_limit=COFACTOR_SIZE_LIMIT,
    ),
    "bareiss": Method("bareiss", "Bareiss elimination", lambda m: _oracle_result(det_bareiss, m)),
    "gauss-rational": Method(
        "gauss",
        "rational Gaussian elimination",
        lambda m: _oracle_result(det_gauss_rational, m),
        kinds=(RATIONAL,),
    ),
}

BENCH_METHODS = tuple(METHODS)


@dataclass(frozen=True)
class BenchConfig:
    """One bench run: matrix sizes, trials per size, the symmetric
    integer entry bound, the master seed and the methods to compare."""

    sizes: Tuple[int, ...]
    trials_per_size: int
    entry_bound: int
    seed: int
    methods: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.sizes:
            raise ValueError("config needs at least one size")
        for n in self.sizes:
            if n < 1:
                raise ValueError(f"matrix size must be >= 1, got {n}")
        if self.trials_per_size < 0:
            raise ValueError(f"trials_per_size must be >= 0, got {self.trials_per_size}")
        if self.entry_bound < 1:
            raise ValueError(f"entry_bound must be >= 1, got {self.entry_bound}")
        if not self.methods:
            raise ValueError("config needs at least one method")
        for name in self.methods:
            if name not in METHODS:
                raise ValueError(f"unknown method {name!r}; known: {', '.join(BENCH_METHODS)}")
            limit = METHODS[name].size_limit
            too_big = [n for n in self.sizes if limit is not None and n > limit]
            if too_big:
                raise ValueError(f"{name} method is limited to size {limit}, config asks for {too_big}")

    @classmethod
    def from_dict(cls, doc) -> "BenchConfig":
        """Build a config from its JSON object; a ValueError names the
        field that is missing or of the wrong JSON type."""
        if not isinstance(doc, dict):
            raise ValueError(f"must be a JSON object, got {type(doc).__name__}")
        for name in ("sizes", "trials_per_size", "entry_bound", "seed", "methods"):
            if name not in doc:
                raise ValueError(f"missing field {name!r}")
        for name, item, what in (("sizes", int, "integers"), ("methods", str, "strings")):
            value = doc[name]
            if not (isinstance(value, list) and all(_is_json(v, item) for v in value)):
                raise ValueError(f"field {name!r} must be a JSON list of {what}, got {value!r}")
        for name in ("trials_per_size", "entry_bound", "seed"):
            if not _is_json(doc[name], int):
                raise ValueError(f"field {name!r} must be a JSON integer, got {doc[name]!r}")
        return cls(
            sizes=tuple(doc["sizes"]),
            trials_per_size=doc["trials_per_size"],
            entry_bound=doc["entry_bound"],
            seed=doc["seed"],
            methods=tuple(doc["methods"]),
        )


def _is_json(value, typ: type) -> bool:
    # JSON true/false load as bool, which Python counts as an int.
    return isinstance(value, typ) and not isinstance(value, bool)


DEFAULT_CONFIG = BenchConfig(
    sizes=(3, 4, 5, 6),
    trials_per_size=3,
    entry_bound=9,
    seed=20240817,
    methods=BENCH_METHODS,
)


@dataclass(frozen=True)
class BenchRecord:
    """One (method, matrix) measurement.

    ``max_bit_length_per_level`` is condensation-specific: the largest
    entry bit length of each condensed matrix, one value per level, in
    level order; empty for other methods and for non-integer runs.
    ``result_digest`` is the canonical text of the determinant.
    """

    method: str
    n: int
    trial: int
    scalar_kind: str
    wall_time_ns: int
    multiplications: int
    subtractions: int
    divisions: int
    max_bit_length_per_level: Tuple[int, ...] = field(default_factory=tuple)
    result_digest: str = ""


class MethodDisagreement(RuntimeError):
    """Two methods produced different determinant texts for one matrix."""

    def __init__(self, n: int, trial: int, method_a: str, digest_a: str, method_b: str, digest_b: str):
        self.n, self.trial = n, trial
        self.method_a, self.digest_a = method_a, digest_a
        self.method_b, self.digest_b = method_b, digest_b
        super().__init__(
            f"method disagreement on n={n} trial={trial}: "
            f"{method_a} -> {digest_a!r} but {method_b} -> {digest_b!r}"
        )


def _condensation_bits(trace) -> Tuple[int, ...]:
    bits = []
    for step in trace:
        if isinstance(step, CondensationStep):
            grid = step.condensed.as_tuples()
            bits.append(max(bit_length(v) for row in grid for v in row))
    return tuple(bits)


def run_bench(cfg: BenchConfig) -> List[BenchRecord]:
    """Run every configured method over the seeded corpus.

    Record order is sizes x trials x methods, all in config order.
    Results for one matrix must agree across methods (same canonical
    determinant text) or the run aborts with MethodDisagreement.
    """
    master = SplitMix64(cfg.seed)
    records: List[BenchRecord] = []
    for n in cfg.sizes:
        for trial in range(cfg.trials_per_size):
            child = master.split()
            m = random_integer_matrix(n, cfg.entry_bound, child)
            first: Optional[BenchRecord] = None
            for name in cfg.methods:
                method = METHODS[name]
                # The corpus is integer; a method without integer
                # support runs on the same values in its first kind.
                kind = INTEGER if INTEGER in method.kinds else method.kinds[0]
                t0 = time.perf_counter_ns()
                result = method.run(m if kind is INTEGER else Matrix(m.to_rows(), kind))
                elapsed = time.perf_counter_ns() - t0
                ops = result.op_counts
                record = BenchRecord(
                    method=name,
                    n=n,
                    trial=trial,
                    scalar_kind=kind.name,
                    wall_time_ns=elapsed,
                    multiplications=ops.multiplications,
                    subtractions=ops.subtractions,
                    divisions=ops.divisions,
                    max_bit_length_per_level=_condensation_bits(result.trace),
                    result_digest=kind.format(result.value),
                )
                if first is None:
                    first = record
                elif record.result_digest != first.result_digest:
                    raise MethodDisagreement(
                        n, trial, first.method, first.result_digest, name, record.result_digest
                    )
                records.append(record)
    return records


_FIXED_COLUMNS = ("method", "n", "trial", "mults", "subs", "divs")
_BITS_PREFIX = "max_bits_level_"
_LAST_COLUMN = "digest"


def format_report(records: List[BenchRecord]) -> str:
    """Render records as comma-separated text with a fixed header.

    Columns: method, n, trial, mults, subs, divs, then one
    ``max_bits_level_i`` column per condensation level seen in the run
    (blank where a record has no such level), then digest.  An empty
    record list renders as the header alone.
    """
    levels = max((len(r.max_bit_length_per_level) for r in records), default=0)
    header = list(_FIXED_COLUMNS)
    header += [f"{_BITS_PREFIX}{i}" for i in range(1, levels + 1)]
    header.append(_LAST_COLUMN)
    lines = [",".join(header)]
    for r in records:
        bits = [str(b) for b in r.max_bit_length_per_level]
        bits += [""] * (levels - len(bits))
        row = [
            r.method,
            str(r.n),
            str(r.trial),
            str(r.multiplications),
            str(r.subtractions),
            str(r.divisions),
            *bits,
            r.result_digest,
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> List[dict]:
    """Parse report text back into dicts, enforcing the pinned layout
    (the same layout ``docs/bench-report-schema.json`` documents)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty report")
    header = lines[0].split(",")
    if tuple(header[: len(_FIXED_COLUMNS)]) != _FIXED_COLUMNS:
        raise ValueError(f"report header must start with {','.join(_FIXED_COLUMNS)}")
    if header[-1] != _LAST_COLUMN:
        raise ValueError(f"report header must end with {_LAST_COLUMN!r}")
    bits_cols = header[len(_FIXED_COLUMNS) : -1]
    for i, name in enumerate(bits_cols, start=1):
        if name != f"{_BITS_PREFIX}{i}":
            raise ValueError(f"unexpected bit-length column {name!r} at position {i}")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"report line {lineno} has {len(cells)} cells, expected {len(header)}")
        rec = {
            "method": cells[0],
            "n": int(cells[1]),
            "trial": int(cells[2]),
            "mults": int(cells[3]),
            "subs": int(cells[4]),
            "divs": int(cells[5]),
            "max_bits": [int(c) for c in cells[6:-1] if c != ""],
            "digest": cells[-1],
        }
        if rec["method"] not in BENCH_METHODS:
            raise ValueError(f"report line {lineno} has unknown method {rec['method']!r}")
        out.append(rec)
    return out


def growth_report(records: List[BenchRecord]) -> str:
    """Median condensation entry growth per level, as ``n,level,median_bits``.

    Uses integer condensation records only; raises ValueError when the
    record list has none.  Rows are ordered by size then level, the
    median at each level taken over the trials that reached it.
    """
    per_size: Dict[int, List[Tuple[int, ...]]] = {}
    order: List[int] = []
    for r in records:
        if r.method != "condensation" or r.scalar_kind != "integer":
            continue
        if r.n not in per_size:
            per_size[r.n] = []
            order.append(r.n)
        per_size[r.n].append(r.max_bit_length_per_level)
    if not per_size:
        raise ValueError("no integer condensation records")
    lines = ["n,level,median_bits"]
    for n in order:
        runs = per_size[n]
        levels = max((len(bits) for bits in runs), default=0)
        for level in range(1, levels + 1):
            at_level = [bits[level - 1] for bits in runs if len(bits) >= level]
            med = statistics.median(at_level)
            med_text = str(int(med)) if float(med).is_integer() else str(float(med))
            lines.append(f"{n},{level},{med_text}")
    return "\n".join(lines) + "\n"


def hadamard_bit_bound(m: Matrix) -> int:
    """Bit-length bound on |det| from the Hadamard row-norm product.

    For an integer matrix, |det| is at most the product of the row
    Euclidean norms, so its bit length is at most
    ``ceil(sum_i log2 ||row_i||)`` (plus one spare bit for the ceiling;
    at least 1).  Any row of zeros makes the determinant zero and the
    bound collapses to 1.
    """
    if not m.is_square():
        raise ValueError("hadamard_bit_bound needs a square matrix")
    if m.kind is not INTEGER:
        raise ValueError("hadamard_bit_bound needs integer entries")
    total = 0.0
    for row in m.as_tuples():
        sq = sum(v * v for v in row)
        if sq == 0:
            return 1
        total += 0.5 * math.log2(sq)
    return max(1, math.ceil(total) + 1)
