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
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .condense import CondensationStep, DetResult, det_condensation
from .matrix import Matrix, _field, _is_json, _json_object, _require_square
from .oracle import _LEVEL_BUDGET, _WORK_BUDGET, _level_weight, _work, det_bareiss, det_cofactor, det_gauss_rational
from .scalars import INTEGER, RATIONAL, OpCounts, Scalar, _echo, bit_length

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

        One 64-bit draw is reduced modulo the span ``s = hi - lo + 1``,
        so each value comes up ``floor(2**64 / s)`` or one more times in
        2**64 draws: the most likely value is at most ``1 + s / 2**64``
        times as likely as the least.  Bench corpora keep ``s`` at or
        below ``2**32 + 1`` (``entry_bound <= 2**31``), which bounds that
        ratio by about ``1 + 2**-32``; the bias is accepted and part of
        the pinned corpus definition.  A span past 2**64 would leave
        every draw within 2**64 of ``lo``.
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


class Method(NamedTuple):
    """One determinant method: its ``condet det --method`` spelling and
    how to run it, on a matrix of any scalar kind.  What a run may cost
    is estimated by its key in ``METHODS`` (``oracle._work``)."""

    cli_name: str
    run: Callable[[Matrix], DetResult]


def _oracle_result(det: Callable[[Matrix, OpCounts], Scalar], m: Matrix) -> DetResult:
    ops = OpCounts()
    return DetResult(det(m, ops), (), ops)


# The largest entry_bound a bench config may ask for: the span 2**32 + 1
# keeps the modulo bias of SplitMix64.int_in near 2**-32 (and far from
# the 2**64 span past which entries cover only one end of the range),
# and entries stay within 32 bits.
_ENTRY_BOUND_LIMIT = 2**31

# Keyed by the bench and report name.  Each ``run`` looks its function
# up in this module's globals at call time, so patching the module
# attribute (for tracing or in tests) reaches every caller.
METHODS: Dict[str, Method] = {
    "condensation": Method("condense", lambda m: det_condensation(m)),
    "cofactor": Method("cofactor", lambda m: _oracle_result(det_cofactor, m)),
    "bareiss": Method("bareiss", lambda m: _oracle_result(det_bareiss, m)),
    "gauss-rational": Method("gauss", lambda m: _oracle_result(det_gauss_rational, m)),
}

BENCH_METHODS = tuple(METHODS)


class _BenchConfigFields(NamedTuple):
    sizes: Tuple[int, ...]
    trials_per_size: int
    entry_bound: int
    seed: int
    methods: Tuple[str, ...]


class BenchConfig(_BenchConfigFields):
    """One bench run: matrix sizes, trials per size, the symmetric
    integer entry bound, the master seed and the methods to compare.
    Every construction is validated, ``_replace`` included."""

    __slots__ = ()

    def __new__(cls, sizes, trials_per_size, entry_bound, seed, methods):
        sizes = tuple(sizes)
        methods = tuple(methods)
        if not sizes:
            raise ValueError("config needs at least one size")
        for name, value, least in (*(("matrix size", n, 1) for n in sizes), ("trials_per_size", trials_per_size, 0),
                                   ("entry_bound", entry_bound, 1), ("seed", seed, -math.inf)):
            if not _is_json(value, int):
                raise ValueError(f"{name} must be an int, got {_echo(value)}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {_echo(value)}")
        if entry_bound > _ENTRY_BOUND_LIMIT:
            raise ValueError(f"entry_bound must be <= {_ENTRY_BOUND_LIMIT}, got {_echo(entry_bound)}")
        if not methods:
            raise ValueError("config needs at least one method")
        for name in methods:
            if name not in METHODS:
                raise ValueError(f"unknown method {_echo(name)}; known: {', '.join(BENCH_METHODS)}")
        # A trial runs every method at every size, each run with some 64
        # units (about 8 us) of bookkeeping besides its determinant.
        bits = entry_bound.bit_length()
        per_trial = sum(64 + _work(name, n, bits) for name in methods for n in sizes)
        if trials_per_size > _WORK_BUDGET / per_trial:
            raise ValueError(f"config asks for {_echo(trials_per_size)} trials of an estimated {per_trial:.3g}"
                             f" work units each, over the budget of {_WORK_BUDGET:.0e}")
        # The bench's condensation is traced, so each of its levels answers to the level budget.  An entry
        # of level t is a 2x2 determinant of level t - 1: at most (bits + 1) * 2**t - 1 bits.  Level 64
        # of size 3 or more is past the budget.
        if "condensation" in methods:
            for n in sizes:
                levels = range(min(n - 2, 64))
                weight = max([_level_weight(n - t, ((bits + 1) << t) - 1) for t in levels], default=0)
                if weight > _LEVEL_BUDGET:
                    raise ValueError(f"condensation at size {n} may trace a level of up to {weight:.3g}"
                                     f" bit-entries, past the budget of {_LEVEL_BUDGET:.0e} a level")
        return super().__new__(cls, sizes, trials_per_size, entry_bound, seed, methods)

    @classmethod
    def _make(cls, iterable) -> "BenchConfig":
        # namedtuple's _make (and so _replace) skips __new__.
        return cls(*iterable)

    @classmethod
    def from_dict(cls, doc) -> "BenchConfig":
        """Build a config from its JSON object; a ValueError names the
        field that is missing, unknown or of the wrong JSON type."""
        _json_object(doc, cls._fields, "")
        is_int = lambda v: _is_json(v, int)
        list_of = lambda item: lambda v: isinstance(v, list) and all(_is_json(x, item) for x in v)
        return cls(
            sizes=tuple(_field(doc, "sizes", "", list_of(int), "a JSON list of integers")),
            trials_per_size=_field(doc, "trials_per_size", "", is_int, "a JSON integer"),
            entry_bound=_field(doc, "entry_bound", "", is_int, "a JSON integer"),
            seed=_field(doc, "seed", "", is_int, "a JSON integer"),
            methods=tuple(_field(doc, "methods", "", list_of(str), "a JSON list of strings")),
        )


DEFAULT_CONFIG = BenchConfig(
    sizes=(3, 4, 5, 6),
    trials_per_size=3,
    entry_bound=9,
    seed=20240817,
    methods=BENCH_METHODS,
)


class BenchRecord(NamedTuple):
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
    max_bit_length_per_level: Tuple[int, ...] = ()
    result_digest: str = ""


class MethodDisagreement(RuntimeError):
    """Two methods produced different determinant texts for one matrix.

    ``seed``, ``child`` and ``entry_bound`` locate the matrix in the
    corpus: it is ``random_integer_matrix(n, entry_bound, gen)`` where
    ``gen`` is split number ``child`` (0-based) of ``SplitMix64(seed)``.
    The message ends with a ``python -c`` command that rebuilds it and
    prints it in the plain-row format ``condet det`` reads.
    """

    def __init__(
        self,
        n: int,
        trial: int,
        method_a: str,
        digest_a: str,
        method_b: str,
        digest_b: str,
        seed: int,
        child: int,
        entry_bound: int,
    ):
        self.n, self.trial = n, trial
        self.method_a, self.digest_a = method_a, digest_a
        self.method_b, self.digest_b = method_b, digest_b
        self.seed, self.child, self.entry_bound = seed, child, entry_bound
        super().__init__(
            f"method disagreement on n={n} trial={trial} "
            f"(corpus seed {seed}, child {child}, entry bound {entry_bound}): "
            f"{method_a} -> {digest_a!r} but {method_b} -> {digest_b!r}; rebuild the matrix with: "
            'python -c "from condet.bench import SplitMix64, random_integer_matrix; '
            f"g = SplitMix64({seed}); [g.split() for _ in range({child})]; "
            f"m = random_integer_matrix({n}, {entry_bound}, g.split()); "
            "print(*(' '.join(map(str, row)) for row in m.to_rows()), sep='\\n')\""
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
    for size_index, n in enumerate(cfg.sizes):
        for trial in range(cfg.trials_per_size):
            m = random_integer_matrix(n, cfg.entry_bound, master.split())
            first: Optional[BenchRecord] = None
            for name in cfg.methods:
                t0 = time.perf_counter_ns()
                result = METHODS[name].run(m)
                elapsed = time.perf_counter_ns() - t0
                ops = result.op_counts
                record = BenchRecord(
                    method=name,
                    n=n,
                    trial=trial,
                    scalar_kind=INTEGER.name,
                    wall_time_ns=elapsed,
                    multiplications=ops.multiplications,
                    subtractions=ops.subtractions,
                    divisions=ops.divisions,
                    max_bit_length_per_level=_condensation_bits(result.trace),
                    result_digest=INTEGER.format(result.value),
                )
                if first is None:
                    first = record
                elif record.result_digest != first.result_digest:
                    raise MethodDisagreement(
                        n, trial, first.method, first.result_digest, name, record.result_digest,
                        cfg.seed, size_index * cfg.trials_per_size + trial, cfg.entry_bound,
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
    _require_square(m, "hadamard_bit_bound")
    if m.kind is not INTEGER:
        raise ValueError("hadamard_bit_bound needs integer entries")
    total = 0.0
    for row in m.as_tuples():
        sq = sum(v * v for v in row)
        if sq == 0:
            return 1
        total += 0.5 * math.log2(sq)
    return max(1, math.ceil(total) + 1)
