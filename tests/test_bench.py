"""Seeded corpus generation, bench records, reports and growth data."""

import json
import math
import os
import re
import shlex
import subprocess
import sys

import pytest

from condet import (
    INTEGER,
    RATIONAL,
    BenchConfig,
    DEFAULT_CONFIG,
    Matrix,
    MethodDisagreement,
    SplitMix64,
    bit_length,
    det_bareiss,
    det_cofactor,
    format_report,
    growth_report,
    hadamard_bit_bound,
    parse_report,
    random_integer_matrix,
    random_rational_matrix,
    run_bench,
)
import condet.bench as bench_module
import condet.condense as condense_module
from condet.oracle import COFACTOR_SIZE_LIMIT, _LEVEL_BUDGET, _level_cost, _level_weight, _work
from condet.cli import EXIT_OK, main, parse_matrix_text
from conftest import FIXTURES, REPO_ROOT


def test_splitmix64_is_deterministic():
    a = SplitMix64(42)
    b = SplitMix64(42)
    seq_a = [a.next_u64() for _ in range(8)]
    seq_b = [b.next_u64() for _ in range(8)]
    assert seq_a == seq_b
    assert all(0 <= v < 2**64 for v in seq_a)
    # regression anchor: the documented mixing must never drift
    assert seq_a[:3] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
    ]
    # the published reference sequence for seed 0
    g0 = SplitMix64(0)
    assert [g0.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_split_streams_differ():
    g = SplitMix64(7)
    c1 = g.split()
    c2 = g.split()
    assert [c1.next_u64() for _ in range(4)] != [c2.next_u64() for _ in range(4)]


def test_int_in_range_and_bias_definition():
    g = SplitMix64(11)
    draws = [g.int_in(-9, 9) for _ in range(2000)]
    assert all(-9 <= v <= 9 for v in draws)
    assert len(set(draws)) == 19  # every value appears over 2000 draws
    with pytest.raises(ValueError):
        g.int_in(3, 2)


def test_random_integer_matrix_reproducible():
    m1 = random_integer_matrix(5, 9, SplitMix64(123))
    m2 = random_integer_matrix(5, 9, SplitMix64(123))
    assert m1 == m2
    assert m1.kind is INTEGER
    assert all(-9 <= v <= 9 for row in m1.as_tuples() for v in row)


def test_random_integer_matrix_rejects_bound_below_one():
    with pytest.raises(ValueError, match="entry bound must be >= 1, got 0"):
        random_integer_matrix(3, 0, SplitMix64(1))


def test_random_rational_matrix_entries_nonzero():
    m = random_rational_matrix(6, SplitMix64(5))
    for row in m.as_tuples():
        for v in row:
            assert v != 0
            assert abs(v) <= 9
            assert v.denominator <= 9


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(sizes=(), trials_per_size=1, entry_bound=9, seed=1, methods=("bareiss",))
    with pytest.raises(ValueError):
        BenchConfig(sizes=(3,), trials_per_size=-1, entry_bound=9, seed=1, methods=("bareiss",))
    with pytest.raises(ValueError):
        BenchConfig(sizes=(3,), trials_per_size=1, entry_bound=0, seed=1, methods=("bareiss",))
    with pytest.raises(ValueError):
        BenchConfig(sizes=(3,), trials_per_size=1, entry_bound=9, seed=1, methods=("sorcery",))
    with pytest.raises(ValueError):
        BenchConfig(sizes=(11,), trials_per_size=1, entry_bound=9, seed=1, methods=("cofactor",))
    with pytest.raises(ValueError):
        BenchConfig.from_dict({"sizes": [3]})
    with pytest.raises(ValueError, match="over the budget of 1e[+]08"):
        BenchConfig(sizes=(20, 22), trials_per_size=1, entry_bound=9, seed=1, methods=("condensation",))


def test_config_refuses_non_int_fields_and_caps_its_echoes():
    base = dict(sizes=(3,), trials_per_size=1, entry_bound=9, seed=1, methods=("bareiss",))
    for field, value, message in (
        ("sizes", (3.7,), "matrix size must be an int, got 3.7"),
        ("sizes", (3, True), "matrix size must be an int, got True"),
        ("trials_per_size", 1.5, "trials_per_size must be an int, got 1.5"),
        ("entry_bound", 9.5, "entry_bound must be an int, got 9.5"),
        ("entry_bound", True, "entry_bound must be an int, got True"),
        ("seed", "1", "seed must be an int, got '1'"),
    ):
        with pytest.raises(ValueError) as info:
            BenchConfig(**{**base, field: value})
        assert str(info.value) == message
    huge = int("9" * 4000)
    for field, value, message in (
        ("sizes", (-huge,), "matrix size must be >= 1, got -9999"),
        ("trials_per_size", -huge, "trials_per_size must be >= 0, got -9999"),
        ("entry_bound", huge, "entry_bound must be <= 2147483648, got 9999"),
        ("entry_bound", -huge, "entry_bound must be >= 1, got -9999"),
    ):
        with pytest.raises(ValueError) as info:
            BenchConfig(**{**base, field: value})
        assert str(info.value).startswith(message) and len(str(info.value)) < 200


def test_bench_config_with_a_huge_entry_bound_exits_2_with_a_short_line(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"sizes": [3], "trials_per_size": 1, "entry_bound": ' + "9" * 4000 + ', "seed": 1, "methods": ["bareiss"]}')
    assert main(["bench", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bench config {path}: entry_bound must be <= 2147483648, got 9999")
    assert len(err) < 300 + len(str(path))


def test_config_replace_validates():
    cfg = DEFAULT_CONFIG._replace(seed=7)
    assert isinstance(cfg, BenchConfig)
    assert cfg.seed == 7 and cfg.sizes == DEFAULT_CONFIG.sizes
    assert cfg._replace(sizes=[3]).sizes == (3,)
    with pytest.raises(ValueError, match="matrix size must be >= 1"):
        cfg._replace(sizes=(0,))
    per_trial = config_work({**cfg._asdict(), "trials_per_size": 1})
    message = f"config asks for {10**9} trials of an estimated {per_trial:.3g} work units each"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}, over the budget of 1e[+]08$"):
        cfg._replace(trials_per_size=10**9)


def test_config_entry_bound_is_capped():
    # Past 2**64 the modulo draw puts every entry near -entry_bound.
    over = {"sizes": [3], "trials_per_size": 1, "entry_bound": 2**31 + 1, "seed": 1, "methods": ["bareiss"]}
    message = f"entry_bound must be <= {2**31}, got {2**31 + 1}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BenchConfig.from_dict(over)
    with pytest.raises(ValueError, match=f"^entry_bound must be <= {2**31}, got {10**30}$"):
        DEFAULT_CONFIG._replace(entry_bound=10**30)
    cfg = BenchConfig.from_dict({**over, "sizes": [6], "entry_bound": 2**31})
    m = random_integer_matrix(6, 2**31, SplitMix64(1).split())
    assert run_bench(cfg)[0].result_digest == str(det_cofactor(m))
    entries = [v for row in m.as_tuples() for v in row]
    assert all(-(2**31) <= v <= 2**31 for v in entries)
    assert min(entries) < -(2**29) and max(entries) > 2**29  # both signs, both ends


def test_config_work_is_bounded():
    # trials_per_size times the estimated work of a trial may reach 10**8, no further
    big = {"sizes": [100000], "trials_per_size": 10**12, "entry_bound": 9, "seed": 1, "methods": ["bareiss"]}
    message = f"config asks for {10**12} trials of an estimated inf work units each, over the budget of 1e+08"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BenchConfig.from_dict(big)
    one = {**big, "sizes": [100], "trials_per_size": 1}
    most = int(10**8 // config_work(one))
    assert BenchConfig.from_dict({**one, "trials_per_size": most})
    with pytest.raises(ValueError, match=f"^config asks for {most + 1} trials"):
        BenchConfig.from_dict({**one, "trials_per_size": most + 1})
    # Every run pays its bookkeeping, so a trial of 1x1s is not free.
    with pytest.raises(ValueError, match="over the budget"):
        BenchConfig(sizes=(1,), trials_per_size=10**7, entry_bound=9, seed=1, methods=("bareiss",))
    # a roadmap perf config: every size 4..64, 20 trials
    assert BenchConfig(sizes=range(4, 65), trials_per_size=20, entry_bound=9, seed=1, methods=("bareiss",))


def config_work(cfg) -> float:
    bits = cfg["entry_bound"].bit_length()
    return cfg["trials_per_size"] * sum(64 + _work(name, n, bits) for name in cfg["methods"] for n in cfg["sizes"])


def test_config_work_charges_each_method_its_own_cost():
    n, bits = 10, 4
    bareiss = sum(_level_cost(n - k, k * (bits + math.log2(k) / 2)) for k in range(1, n))
    assert _work("bareiss", n, bits) == bareiss
    assert _work("gauss-rational", n, bits) == 5 * bareiss
    assert _work("cofactor", n, bits) == 3 * math.factorial(n)
    assert _work("condensation", n, bits) == sum(_level_cost(n - t, bits * 2**t) for t in range(n - 2))
    assert _work("verify", n, bits) == 1.5 * n * n * _work("bareiss", n - 1, 2 * bits)
    # More bits cost more; so does every size past cofactor's cap.
    assert _work("bareiss", n, 64) > _work("bareiss", n, bits)
    assert _work("cofactor", COFACTOR_SIZE_LIMIT + 1, 0) > 10**8 > _work("cofactor", COFACTOR_SIZE_LIMIT, 64)
    # Cofactor expansion at n = 10 takes about 0.3-1 s a matrix: some 17 h.
    cofactor = {"sizes": [10], "trials_per_size": 100000, "entry_bound": 9, "seed": 1, "methods": ["cofactor"]}
    with pytest.raises(ValueError, match="over the budget"):
        BenchConfig.from_dict(cofactor)
    # Undivided condensation at sizes 14..22: its bits double a level,
    # so it is refused where Bareiss on the same corpus is not.
    growth = {"sizes": list(range(14, 23)), "trials_per_size": 1, "entry_bound": 9, "seed": 1}
    with pytest.raises(ValueError, match="over the budget"):
        BenchConfig.from_dict({**growth, "methods": ["condensation"]})
    assert BenchConfig.from_dict({**growth, "methods": ["bareiss"]})
    # Every listed method is charged, a repeated one each time.
    most = int(10**8 // config_work({**growth, "methods": ["bareiss"]}))
    assert BenchConfig.from_dict({**growth, "trials_per_size": most, "methods": ["bareiss"]})
    with pytest.raises(ValueError, match="over the budget"):
        BenchConfig.from_dict({**growth, "trials_per_size": most, "methods": ["bareiss", "bareiss"]})
    # The roadmap perf config that Bareiss may run (4.6e7 units) is
    # charged five times over for rational Gauss, and refused.
    perf = {"sizes": list(range(4, 65)), "trials_per_size": 20, "entry_bound": 9, "seed": 1}
    assert BenchConfig.from_dict({**perf, "methods": ["bareiss"]})
    with pytest.raises(ValueError, match="over the budget"):
        BenchConfig.from_dict({**perf, "methods": ["gauss-rational"]})


# A traced condensation level t of a corpus matrix holds 2x2
# determinants of level t - 1, so entries of at most (b + 1) * 2**t - 1
# bits for entries of b bits.  Per entry bound: the largest size whose
# levels stay within the level budget, the exact text refusing the next
# size, and the first size the work estimate refuses.
TRACED_SIZES = {
    9: (18, "2.95e+06", 22),
    1: (19, "2.36e+06", 24),
    2**31: (15, "2.43e+06", 19),
}


def level_bound(n, bound):
    bits = bound.bit_length()
    return max(_level_weight(n - t, ((bits + 1) << t) - 1) for t in range(n - 2))


@pytest.mark.parametrize("bound", TRACED_SIZES)
def test_config_refuses_condensation_sizes_past_the_level_budget(bound):
    largest, weight, over_work = TRACED_SIZES[bound]

    def config(n, methods=("condensation",)):
        return BenchConfig(sizes=(3, n), trials_per_size=1, entry_bound=bound, seed=1, methods=methods)

    assert config(largest)
    message = (f"condensation at size {largest + 1} may trace a level of up to {weight} bit-entries,"
               " past the budget of 2e+06 a level")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        config(largest + 1)
    for n in range(largest + 1, over_work):
        with pytest.raises(ValueError, match=f"^condensation at size {n} may trace a level"):
            config(n)
        with pytest.raises(ValueError, match=f"^condensation at size {n} may trace a level"):
            config(n, ("bareiss", "condensation"))
        assert config(n, ("bareiss",))  # untraced
    # The work budget is checked first, so its refusals keep their text.
    with pytest.raises(ValueError, match="^config asks for 1 trials .* over the budget of 1e[+]08$"):
        config(over_work)
    assert level_bound(18, 9) == 9 * ((5 << 15) - 1)  # 1.47e6, at the last level of size 3


@pytest.mark.parametrize("bound", TRACED_SIZES)
def test_corpus_at_the_largest_accepted_size_stays_under_its_level_bound(monkeypatch, bound):
    # Ten corpus matrices at each bound's largest size run traced, and
    # no level they condense weighs more than the bound the config used.
    n = TRACED_SIZES[bound][0]
    weights = []

    def spy(size, bits):
        weights.append(_level_weight(size, bits))
        return weights[-1]

    monkeypatch.setattr(condense_module, "_level_weight", spy)
    records = run_bench(BenchConfig(sizes=(n,), trials_per_size=10, entry_bound=bound, seed=1, methods=("condensation",)))
    assert len(records) == 10 and weights
    assert max(weights) <= level_bound(n, bound) <= _LEVEL_BUDGET


def test_pinned_and_default_configs_stay_far_below_the_work_limit():
    names = ("bench_default", "bench_sizes_5_7", "bench_sizes_13_15")
    configs = [json.loads((FIXTURES / f"{name}.json").read_text()) for name in names]
    configs.append(DEFAULT_CONFIG._asdict())
    assert max(map(config_work, configs)) < 10**6
    # the costliest config the bench-crosscheck workload writes
    worst = {"sizes": [13, 14, 15], "trials_per_size": 1, "entry_bound": 9,
             "methods": ["condensation", "bareiss", "gauss-rational"]}
    assert config_work(worst) < 10**6


def test_run_bench_shape_and_agreement():
    cfg = BenchConfig(
        sizes=(5,), trials_per_size=3, entry_bound=9, seed=42,
        methods=("condensation", "bareiss"),
    )
    records = run_bench(cfg)
    assert len(records) == 6
    assert [r.method for r in records] == ["condensation", "bareiss"] * 3
    by_matrix = {}
    for r in records:
        by_matrix.setdefault((r.n, r.trial), set()).add(r.result_digest)
    assert all(len(digests) == 1 for digests in by_matrix.values())
    for r in records:
        if r.method == "condensation":
            assert len(r.max_bit_length_per_level) == 3  # sizes 5 -> 4 -> 3 -> 2
            assert r.divisions == 3
        else:
            assert r.max_bit_length_per_level == ()


def test_run_bench_digest_is_true_determinant():
    cfg = BenchConfig(
        sizes=(4, 6), trials_per_size=2, entry_bound=9, seed=99,
        methods=("condensation",),
    )
    records = run_bench(cfg)
    master = SplitMix64(99)
    for r in records:
        m = random_integer_matrix(r.n, 9, master.split())
        assert r.result_digest == str(det_cofactor(m))


def test_run_bench_zero_trials():
    cfg = BenchConfig(sizes=(3,), trials_per_size=0, entry_bound=9, seed=1, methods=("bareiss",))
    assert run_bench(cfg) == []
    assert format_report([]).strip() == "method,n,trial,mults,subs,divs,digest"


def test_run_bench_determinism():
    cfg = BenchConfig(
        sizes=(4, 5), trials_per_size=2, entry_bound=9, seed=7,
        methods=("condensation", "gauss-rational"),
    )
    one = run_bench(cfg)
    two = run_bench(cfg)
    strip_time = lambda r: (r.method, r.n, r.trial, r.multiplications, r.subtractions,
                            r.divisions, r.max_bit_length_per_level, r.result_digest)
    assert [strip_time(r) for r in one] == [strip_time(r) for r in two]


def test_run_bench_aborts_on_disagreement(monkeypatch):
    # sabotage one runner to return a wrong digest; the run must abort
    # naming the offending pair
    def bad_bareiss(m):
        from condet import DetResult, OpCounts

        return DetResult(12345678901, (), OpCounts())

    bareiss = bench_module.METHODS["bareiss"]._replace(run=bad_bareiss)
    monkeypatch.setitem(bench_module.METHODS, "bareiss", bareiss)
    cfg = BenchConfig(
        sizes=(3,), trials_per_size=1, entry_bound=9, seed=3,
        methods=("condensation", "bareiss"),
    )
    with pytest.raises(MethodDisagreement) as exc_info:
        run_bench(cfg)
    err = exc_info.value
    assert err.method_a == "condensation"
    assert err.method_b == "bareiss"
    assert "n=3 trial=0" in str(err)


def test_disagreement_rebuilds_the_failing_matrix(monkeypatch):
    # sabotage bareiss on the fifth corpus matrix (sizes 3, 3, 4, 4, 5, 5
    # in config order); the exception alone must rebuild that matrix
    seen = []
    good = bench_module.METHODS["bareiss"]

    def bad_bareiss(m):
        seen.append(m)
        result = good.run(m)
        return result._replace(value=result.value + 1) if len(seen) == 5 else result

    monkeypatch.setitem(bench_module.METHODS, "bareiss", good._replace(run=bad_bareiss))
    cfg = BenchConfig(
        sizes=(3, 4, 5), trials_per_size=2, entry_bound=7, seed=31,
        methods=("condensation", "bareiss"),
    )
    with pytest.raises(MethodDisagreement) as exc_info:
        run_bench(cfg)
    err = exc_info.value
    assert (err.n, err.trial, err.seed, err.child, err.entry_bound) == (5, 0, 31, 4, 7)
    assert "n=5 trial=0 (corpus seed 31, child 4, entry bound 7)" in str(err)
    master = SplitMix64(err.seed)
    for _ in range(err.child):
        master.split()
    assert random_integer_matrix(err.n, err.entry_bound, master.split()) == seen[-1]
    # the message ends with one command that prints the same matrix
    command = str(err).rpartition("rebuild the matrix with: ")[2]
    argv = shlex.split(command)
    assert argv[:2] == ["python", "-c"]
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run(
        [sys.executable, *argv[1:]], cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=True
    )
    assert parse_matrix_text(proc.stdout, INTEGER) == seen[-1]


def test_condensation_mult_closed_form_n7():
    # per level of size s: 2*(s-1)**2 block multiplications; the 2x2
    # base adds 2; exact kinds add s-3 pivot-power multiplications per
    # level
    cfg = BenchConfig(
        sizes=(7,), trials_per_size=4, entry_bound=9, seed=12,
        methods=("condensation",),
    )
    base = sum(2 * (s - 1) ** 2 for s in range(3, 8)) + 2
    powers = sum(s - 3 for s in range(3, 8))
    for r in run_bench(cfg):
        assert r.multiplications == base + powers == 192


def test_level_one_bits_bounded_by_entry_bound():
    # first-level entries are 2x2 minors of entries in [-9, 9], so
    # their magnitude is at most 2 * 81 = 162, which has 8 bits
    cfg = BenchConfig(
        sizes=(6,), trials_per_size=10, entry_bound=9, seed=2024,
        methods=("condensation",),
    )
    for r in run_bench(cfg):
        if r.max_bit_length_per_level:
            assert r.max_bit_length_per_level[0] <= 8


def test_report_round_trip_and_layout():
    cfg = BenchConfig(
        sizes=(4,), trials_per_size=2, entry_bound=9, seed=31,
        methods=("condensation", "bareiss", "gauss-rational"),
    )
    records = run_bench(cfg)
    text = format_report(records)
    header = text.splitlines()[0].split(",")
    assert header[:6] == ["method", "n", "trial", "mults", "subs", "divs"]
    assert header[-1] == "digest"
    assert header[6:-1] == ["max_bits_level_1", "max_bits_level_2"]
    parsed = parse_report(text)
    assert len(parsed) == len(records)
    for rec, row in zip(records, parsed):
        assert row["method"] == rec.method
        assert row["mults"] == rec.multiplications
        assert row["digest"] == rec.result_digest
        assert tuple(row["max_bits"]) == rec.max_bit_length_per_level


def test_parse_report_rejects_malformed():
    with pytest.raises(ValueError):
        parse_report("")
    with pytest.raises(ValueError):
        parse_report("wrong,header\n")
    good = "method,n,trial,mults,subs,divs,digest\n"
    with pytest.raises(ValueError):
        parse_report(good + "bareiss,3,0,1\n")  # cell count mismatch
    with pytest.raises(ValueError):
        parse_report(good + "sorcery,3,0,1,1,1,42\n")
    with pytest.raises(ValueError, match="must end with 'digest'"):
        parse_report("method,n,trial,mults,subs,divs,max_bits_level_1\n")
    with pytest.raises(ValueError, match="unexpected bit-length column 'max_bits_level_2' at position 1"):
        parse_report("method,n,trial,mults,subs,divs,max_bits_level_2,digest\n")


def test_growth_report_structure():
    cfg = BenchConfig(
        sizes=(5, 6), trials_per_size=5, entry_bound=9, seed=8,
        methods=("condensation",),
    )
    records = run_bench(cfg)
    lines = growth_report(records).strip().splitlines()
    assert lines[0] == "n,level,median_bits"
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(r[0]), int(r[1])) for r in rows] == (
        [(5, 1), (5, 2), (5, 3), (6, 1), (6, 2), (6, 3), (6, 4)]
    )
    medians = [float(r[2]) for r in rows]
    assert all(v > 0 for v in medians)


def test_growth_report_needs_condensation_records():
    cfg = BenchConfig(sizes=(4,), trials_per_size=2, entry_bound=9, seed=8, methods=("bareiss",))
    records = run_bench(cfg)
    with pytest.raises(ValueError, match="no integer condensation records"):
        growth_report(records)


def test_hadamard_bound_dominates_actual_bits():
    master = SplitMix64(55)
    for n in (3, 5, 7, 9):
        for _ in range(10):
            m = random_integer_matrix(n, 9, master.split())
            det = det_bareiss(m)
            assert bit_length(det) <= hadamard_bit_bound(m)


def test_hadamard_bound_validation():
    with pytest.raises(ValueError):
        hadamard_bit_bound(Matrix([[1, 2, 3], [4, 5, 6]], INTEGER))
    with pytest.raises(ValueError, match="needs integer entries"):
        hadamard_bit_bound(Matrix([[1, 2], [3, 4]], RATIONAL))
    assert hadamard_bit_bound(Matrix([[0, 0], [1, 2]], INTEGER)) == 1


def test_bareiss_stage_bits_below_twice_hadamard():
    master = SplitMix64(56)
    for _ in range(10):
        m = random_integer_matrix(8, 9, master.split())
        bits = []
        det_bareiss(m, stage_bits=bits)
        bound = hadamard_bit_bound(m)
        assert bits, "stage bits must be recorded"
        assert max(bits) < 2 * bound


def test_default_config_is_valid_and_runs():
    assert DEFAULT_CONFIG.methods == ("condensation", "cofactor", "bareiss", "gauss-rational")
    records = run_bench(DEFAULT_CONFIG)
    assert len(records) == len(DEFAULT_CONFIG.sizes) * DEFAULT_CONFIG.trials_per_size * 4


@pytest.mark.parametrize("config", ["bench_sizes_5_7", "bench_sizes_13_15"])
def test_bench_reports_at_larger_sizes_match_pinned_bytes(tmp_path, capsys, config):
    # The default report stops at n = 6; these pin cofactor counts at
    # n = 7 and Bareiss counts, with row swaps, up to n = 15.
    out = tmp_path / "report.csv"
    assert main(["bench", str(FIXTURES / f"{config}.json"), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert out.read_bytes() == (FIXTURES / f"{config}_report.csv").read_bytes()
