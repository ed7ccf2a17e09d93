"""Self-tests of the benchmark: seeded inputs, the exact reference, the
answer checks, the closed loop and the traced replay."""

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import plan
import refcheck
import run
import worker

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

condet = worker.import_condet()


def _files(path: pathlib.Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("workload", sorted(plan.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    ops_a = plan.build(workload, 7, str(a))
    ops_b = plan.build(workload, 7, str(b))
    plan.build(workload, 8, str(c))
    assert _files(a) == _files(b)
    assert json.dumps(ops_a).replace(str(a), "") == json.dumps(ops_b).replace(str(b), "")
    assert _files(a) != _files(c)


def test_reference_matches_golden_7x7():
    # The golden fixture is linear in its one irrational entry, sqrt(3)
    # at (4,4): det = det(A with a44 = 0) + sqrt(3) * minor(4,4).
    rows = [line.split() for line in (ROOT / "fixtures" / "golden_7x7.txt").read_text().splitlines() if line.strip()]
    assert rows[3][3] == "sqrt(3)"
    zeroed = [row[:] for row in rows]
    zeroed[3][3] = "0"
    minor = [row[:3] + row[4:] for i, row in enumerate(rows) if i != 3]
    assert refcheck.det_exact(zeroed) == 91604
    assert refcheck.det_exact(minor) == -9939
    golden = 91604 - 9939 * math.sqrt(3)
    m = condet.cli.load_matrix(str(ROOT / "fixtures" / "golden_7x7.txt"), condet.FLOAT)
    for value in (condet.det_bareiss(m), condet.det_condensation(m).value):
        assert abs(value - golden) <= 1e-9 * abs(golden)


def test_reference_matches_bareiss_oracle():
    gen = condet.SplitMix64(99)
    matrices = [condet.random_integer_matrix(n, 9, gen.split()) for n in (1, 2, 3, 6, 11)]
    matrices += [condet.random_rational_matrix(n, gen.split()) for n in (3, 5, 8)]
    matrices.append(condet.Matrix([[0, 2, 1], [3, 0, 4], [6, 1, 9]], condet.INTEGER))  # zero corner
    matrices.append(condet.Matrix([[1, 2, 3], [2, 4, 6], [0, 1, 5]], condet.INTEGER))  # singular
    for m in matrices:
        assert refcheck.det_exact(m.as_tuples()) == condet.det_bareiss(m)


def test_corpus_regeneration_matches_the_bench():
    cfg = {"sizes": [3, 5, 9], "trials_per_size": 2, "entry_bound": 7, "seed": 4242,
           "methods": ["condensation", "bareiss"]}
    records = condet.run_bench(condet.BenchConfig.from_dict(cfg))
    want = [f"{method},{n},{trial},{refcheck.exact_text(refcheck.det_exact(rows))}"
            for n, trial, rows in refcheck.corpus(cfg) for method in cfg["methods"]]
    assert refcheck.bench_rows(condet.format_report(records)) == want


@pytest.mark.parametrize("check,code,stdout", [
    ({"type": "text", "want": "12"}, 0, "13\n"),
    ({"type": "text", "want": "12"}, 2, "12\n"),
    ({"type": "text", "want": "12"}, "RuntimeError: boom", ""),
    ({"type": "float", "want": "3/4"}, 0, "nan\n"),
    ({"type": "float", "want": "3/4"}, 0, "inf\n"),
    ({"type": "float", "want": "3/4"}, 0, "0.7500001\n"),
    ({"type": "verify", "want": "verify ok: 9/9 identities hold"}, 0, "PASS x\nverify ok: 8/8 identities hold\n"),
])
def test_wrong_answers_are_failures(check, code, stdout):
    assert refcheck.failure(check, code, stdout) is not None


def test_speed_factors_use_the_centred_median():
    ref = refcheck.REF_PROBE_NS
    probes = [ref] * 5 + [2 * ref] * 5
    factors = refcheck.speed_factors(probes, half=2)
    assert factors[:3] == [1.0] * 3
    assert factors[-3:] == [0.5] * 3
    assert refcheck.probe_ns() > 0


def test_right_answers_pass():
    assert refcheck.failure({"type": "text", "want": "-7/2"}, 0, "-7/2\n") is None
    assert refcheck.failure({"type": "float", "want": "-7/2"}, 0, "-3.5000000000001\n") is None
    assert refcheck.float_failure("1e-300", Fraction(1, 10**300)) is None


def _fake_ops(count):
    return [{"argv": ["det", f"m{i}.txt"], "check": {"type": "text", "want": str(i)}} for i in range(count)]


def test_closed_loop_issues_exactly_the_planned_ops():
    ops = _fake_ops(4)
    seen = []

    def main(argv):
        seen.append(argv)
        print(argv[1][1:-4])
        return 0

    samples = worker.closed_loop(main, ops, seconds=0.0, min_samples=11)
    assert len(samples) == 11
    assert seen == [ops[i % 4]["argv"] for i in range(11)]
    assert [idx for idx, _, _, _ in samples] == [i % 4 for i in range(11)]
    assert all(why is None and probe > 0 for _, _, why, probe in samples)


def test_closed_loop_counts_injected_wrong_and_nan_answers():
    ops = _fake_ops(3)
    ops[2]["check"] = {"type": "float", "want": "2"}
    answers = {"m0.txt": "0", "m1.txt": "41", "m2.txt": "nan"}

    def main(argv):
        print(answers[argv[1]])
        return 0

    samples = worker.closed_loop(main, ops, seconds=0.0, min_samples=6)
    assert [why is not None for _, _, why, _ in samples] == [False, True, True] * 2
    # Failures count once per planned op, however many runs the loop made.
    assert sorted(run.failed_ops(samples)) == [1, 2]
    assert sorted(run.failed_ops(samples[:4])) == [1, 2]


def test_closed_loop_counts_raising_and_exiting_ops():
    def main(argv):
        if argv[1] == "m0.txt":
            raise ZeroDivisionError("boom")
        raise SystemExit(2)

    samples = worker.closed_loop(main, _fake_ops(2), seconds=0.0, min_samples=2)
    assert ["ZeroDivisionError" in samples[0][2], "exit 2" in samples[1][2]] == [True, True]


@pytest.mark.parametrize("workload", ["det-small-mixed", "verify-rational", "bench-crosscheck"])
def test_traced_replay_reports_every_layer(tmp_path, workload, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ops = plan.build(workload, 3, "run")[:8]
    samples = worker.closed_loop(condet.cli.main, ops, seconds=0.0, min_samples=8)
    assert all(why is None or ops[idx]["kind"] == "float" for idx, _, why, _ in samples)
    traced = worker.traced_run(condet, ops, samples, budget_s=60)
    layers = traced["layers"]
    bench_json = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(layers) == sorted(metric["name"] for metric in bench_json["per_layer"])
    assert layers["cli.args_ms"]["value"] > 0
    assert condet.cli.det_bareiss is condet.oracle.det_bareiss  # patches are undone


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "det-int-growth", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not os.path.exists(tmp_path / ".perfbench_work")
