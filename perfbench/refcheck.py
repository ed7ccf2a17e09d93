"""Exact reference answers, answer checks and the host speed probe.

Standard library only and independent of condet: the determinant here
clears denominators row by row and runs its own fraction-free
elimination, and the bench corpus is regenerated with its own
SplitMix64 as ``docs/corpus-rng.md`` specifies it.  Nothing in this
module imports the package under test.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from fractions import Fraction
from typing import List, Optional, Sequence

FLOAT_REL_TOL = 1e-9
_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 exactly as ``docs/corpus-rng.md`` pins it down."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def split(self) -> "SplitMix64":
        return SplitMix64(self.next())

    def int_in(self, lo: int, hi: int) -> int:
        return lo + self.next() % (hi - lo + 1)

    def shuffle(self, items: list) -> list:
        """Fisher-Yates, in place; returns ``items``."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next() % (i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def corpus(cfg: dict) -> List[tuple]:
    """``(n, trial, rows)`` for every bench corpus matrix of ``cfg``, in
    the order the bench visits them."""
    master = SplitMix64(cfg["seed"])
    bound = cfg["entry_bound"]
    out = []
    for n in cfg["sizes"]:
        for trial in range(cfg["trials_per_size"]):
            child = master.split()
            rows = [[child.int_in(-bound, bound) for _ in range(n)] for _ in range(n)]
            out.append((n, trial, rows))
    return out


def _det_int(grid: List[List[int]]) -> int:
    # Fraction-free elimination: every division by the previous pivot
    # is exact, so the grid stays integral.
    n = len(grid)
    sign, prev = 1, 1
    for k in range(n - 1):
        if grid[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if grid[r][k] != 0), None)
            if swap is None:
                return 0
            grid[k], grid[swap] = grid[swap], grid[k]
            sign = -sign
        piv, row_k = grid[k][k], grid[k]
        for i in range(k + 1, n):
            row_i = grid[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * piv - lead * row_k[j]) // prev
        prev = piv
    return sign * grid[n - 1][n - 1] if n else 1


def det_exact(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square matrix of ints, Fractions or
    rational texts (``7``, ``-3/4``, ``2.25``)."""
    scale = 1
    grid = []
    for row in rows:
        vals = [Fraction(v) if isinstance(v, str) else v for v in row]
        lcm = math.lcm(*(v.denominator for v in vals)) if vals else 1
        grid.append([v.numerator * (lcm // v.denominator) for v in vals])
        scale *= lcm
    return Fraction(_det_int(grid), scale)


# The speed probe is one fixed computation in this module: the reference
# determinant of an 8x8 rational matrix.  It shares no code with condet,
# so its time moves only with the speed of the host, which on small
# shared machines swings by 1.5-2x within seconds.  Timings are scaled
# by REF_PROBE_NS / (median probe time around them): "ms at the host
# speed where the probe takes 60 us".
REF_PROBE_NS = 60_000
_probe_gen = SplitMix64(8)
_PROBE_ROWS = [[Fraction(_probe_gen.int_in(1, 9), _probe_gen.int_in(1, 9)) for _ in range(8)] for _ in range(8)]


def probe_ns() -> int:
    """Time of the speed probe in ns: the fastest of three back-to-back
    runs, so that caches left cold by the op just before do not count."""
    times = []
    for _ in range(3):
        start = time.perf_counter_ns()
        det_exact(_PROBE_ROWS)
        times.append(time.perf_counter_ns() - start)
    return min(times)


def speed_factors(probes: Sequence[int], half: int = 10) -> List[float]:
    """For each probe time, REF_PROBE_NS over the median of the centred
    window of up to ``2 * half + 1`` probe times around it."""
    return [REF_PROBE_NS / statistics.median(probes[max(0, i - half) : i + half + 1]) for i in range(len(probes))]


def exact_text(value: Fraction) -> str:
    """Canonical text of an exact value: ``num`` or ``num/den``."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def entry_bits(value) -> int:
    """Bit length of an int, or of the larger part of a Fraction."""
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    return abs(value).bit_length()


def hadamard_bits(rows: Sequence[Sequence[int]]) -> int:
    """Bit bound on |det| of an integer matrix from the row norms,
    ``ceil(sum log2 ||row||) + 1``; a zero row gives 1."""
    total = 0.0
    for row in rows:
        sq = sum(v * v for v in row)
        if sq == 0:
            return 1
        total += 0.5 * math.log2(sq)
    return max(1, math.ceil(total) + 1)


def float_failure(text: str, want: Fraction) -> Optional[str]:
    """Why a printed float misses the exact ``want`` (nonzero), or None."""
    try:
        got = float(text)
    except ValueError:
        return f"not a number: {text!r}"
    if not math.isfinite(got):
        return f"non-finite {text}"
    if abs(Fraction(got) - want) > FLOAT_REL_TOL * abs(want):
        return f"{text} is beyond 1e-9 relative of {float(want)!r}"
    return None


def bench_rows(report: str) -> List[str]:
    """``method,n,trial,digest`` of every record in a bench CSV report."""
    lines = [ln for ln in report.splitlines() if ln.strip()]
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append(",".join((cells[0], cells[1], cells[2], cells[-1])))
    return rows


def _read(path: str) -> Optional[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def failure(check: dict, code, stdout: str) -> Optional[str]:
    """Why one op's outcome is wrong, or None when it is right.

    ``code`` is the return value of ``main`` (or the reason string of an
    exception it raised); ``check`` is the op's expected answer.
    """
    if code != 0:
        return f"exit {code!r}"
    kind = check["type"]
    got = stdout.strip()
    if kind == "float":
        return float_failure(got, Fraction(check["want"]))
    if kind == "verify":
        last = got.splitlines()[-1] if got else ""
        return None if last == check["want"] else f"last line {last!r}, want {check['want']!r}"
    if kind == "bench":
        report = _read(check["out"])
        if report is None:
            return f"no report at {check['out']}"
        rows = bench_rows(report)
        if rows != check["rows"]:
            bad = next((i for i, (a, b) in enumerate(zip(rows, check["rows"])) if a != b), None)
            where = f"record {bad}: {rows[bad]!r}, want {check['rows'][bad]!r}" if bad is not None else ""
            return f"report has {len(rows)} records, want {len(check['rows'])} {where}".strip()
        return None
    if got != check["want"]:
        return f"printed {got!r}, want {check['want']!r}"
    if "trace" in check:
        text = _read(check["trace"])
        try:
            value = json.loads(text)["value"] if text is not None else None
        except (ValueError, KeyError, TypeError):
            value = None
        if value != check["want"]:
            return f"trace {check['trace']} value {value!r}, want {check['want']!r}"
    return None
