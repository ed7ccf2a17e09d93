"""End-to-end and per-layer benchmark of the condet command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up writes the workload's inputs
for the seed under ``.perfbench_work/run`` and computes every answer
with the benchmark's own exact reference (``refcheck.py``); it runs
five times and the median time is reported.  A separate worker
process (``worker.py``) then calls ``condet.cli.main(argv)`` in
process, one op at a time in a closed loop with one client, for S
seconds and at least one full pass over the plan, and every answer is
checked.  ``attempted`` counts the planned ops (distinct inputs) and
``failed`` the planned ops that gave a wrong answer in any of their
runs, so a seed gives the same counts however fast the host is.

Every end-to-end time is scaled to a reference host speed: a fixed
stdlib-only computation (``refcheck.probe_ns``) runs after every op and
around every set-up, and a time is multiplied by 60 us over the median
probe time around it.  On a shared host whose speed swings by 1.5-2x
this keeps the figures of one program steady; the raw times are
printed as well.

With ``--trace 0`` the last line of output is a JSON object carrying
the end-to-end metrics, measured with tracing off; with ``--trace 1``
it carries the per-layer metrics (raw times) of a traced replay of the
same ops.  Failed ops are counted, never fatal: each keeps its input
under ``.perfbench_work/failures`` with a one-line command reproducing
it.  Exit status 2 means the benchmark could not run (no
``src/condet``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import plan
import refcheck

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = ".perfbench_work"
RUN_DIR = os.path.join(WORK, "run")
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 170

# Times per n from the ROADMAP baseline table (2-CPU machine, best of 3,
# integer entries in [-9, 9]): det_condensation ms, Bareiss ms,
# last-level bits, Hadamard bits.
ROADMAP_BASELINE = {12: (0.67, 0.33, 2457, 52), 16: (15.0, 0.80, 40584, 73)}


def setup(workload: str, seed: int) -> List[dict]:
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    ops = plan.build(workload, seed, RUN_DIR)
    with open(os.path.join(RUN_DIR, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump(ops, fh)
    return ops


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile, as ``statistics.quantiles(n=100)`` gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def failed_ops(samples: List[list]) -> Dict[int, str]:
    """Each planned op that failed in any of its runs, with the reason
    from its first failing run."""
    first: Dict[int, str] = {}
    for idx, _, why, _ in samples:
        if why is not None and idx not in first:
            first[idx] = why
    return first


def keep_failures(workload: str, seed: int, ops: List[dict], first: Dict[int, str]) -> List[str]:
    """Copy each failing op's inputs aside and describe it in one line."""
    keep = os.path.join(WORK, "failures", f"{workload}-seed{seed}")
    shutil.rmtree(keep, ignore_errors=True)
    if first:
        os.makedirs(keep)
    lines = []
    for idx, why in sorted(first.items()):
        op = ops[idx]
        shutil.copy(op["file"], keep)
        argv = [a.replace(RUN_DIR, keep) for a in op["argv"]]
        repro = "PYTHONPATH=src python3 -m condet.cli " + shlex.join(argv)
        lines.append(f"failed op: workload={workload} seed={seed} op={idx} ({why}); reproduce: {repro}")
    return lines


def timed_setup(workload: str, seed: int):
    """Run set-up once; return the op list, and its time in s both raw
    and scaled by the speed probe run just before and after it."""
    probes = [refcheck.probe_ns() for _ in range(11)]
    start = time.perf_counter()
    ops = setup(workload, seed)
    raw = time.perf_counter() - start
    probes += [refcheck.probe_ns() for _ in range(11)]
    return ops, raw, raw * refcheck.REF_PROBE_NS / statistics.median(probes)


def end_to_end(samples: List[list], fail_ratio: float, setup_s: float, maxrss_kb: int, scaled: bool = True) -> dict:
    """The end-to-end metrics; times scaled to the reference host speed,
    or raw with ``scaled=False``.  ``ops_per_s`` counts the runs that
    gave a right answer; ``success_ratio`` is 1 - ``fail_ratio``, the
    share of planned ops with a right answer in every run."""
    factors = refcheck.speed_factors([probe for _, _, _, probe in samples]) if scaled else [1.0] * len(samples)
    ms = [ns / 1e6 * f for (_, ns, _, _), f in zip(samples, factors)]
    failed_runs = sum(1 for _, _, why, _ in samples if why is not None)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((len(samples) - failed_runs) / (sum(ms) / 1e3), "1/s"),
        "latency_ms_p50": (statistics.median(ms), "ms"),
        "latency_ms_p90": (quantile(ms, 90), "ms"),
        "success_ratio": (1 - fail_ratio, "ratio"),
        "peak_rss_mb": (maxrss_kb / 1024, "MB"),
    }


def growth_table(rows: List[dict]) -> List[str]:
    lines = ["growth (integer det, condense; medians per n): n, matrices, condense.det_ms, bareiss_ms, "
             "last-level bits, hadamard bits | ROADMAP baseline"]
    for row in rows:
        base = ROADMAP_BASELINE.get(row["n"])
        tail = " | %.2f ms, %.2f ms, %d bits, %d bits" % base if base else ""
        lines.append("  n=%d  %d  %.3f ms  %.3f ms  %d bits  %d bits%s" % (
            row["n"], row["matrices"], row["det_ms"], row["bareiss_ms"],
            row["last_bits"], row["hadamard_bits"], tail))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(plan.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "condet", "cli.py")):
        print(f"error: no condet sources under {os.path.join(ROOT, 'src')}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)

    repeats = 1 if args.trace else SETUP_REPEATS
    setups = [timed_setup(args.workload, args.seed) for _ in range(repeats)]
    ops = setups[-1][0]

    result_path = os.path.join(RUN_DIR, "result.json")
    worker = [sys.executable, os.path.join("perfbench", "worker.py"),
              os.path.join(RUN_DIR, "plan.json"), result_path, str(args.seconds), str(args.trace)]
    proc = subprocess.run(worker, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 2
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    samples = result["samples"]
    # The loop makes at least one full pass over the plan, so every
    # planned op is attempted (short of the worker's hard time cap).
    attempted = len(set(idx for idx, _, _, _ in samples))
    failures = failed_ops(samples)
    failed = len(failures)
    # Exact kinds (and verify and bench, which are exact) have one right
    # answer, so any failure there makes the run incorrect.  A float op
    # that misses 1e-9 relative or prints nan/inf is a counted failure
    # (fail_ratio), which the program is known to produce at n >= 10.
    correct = all(ops[idx]["kind"] == "float" for idx in failures)

    ms = sorted(ns / 1e6 for _, ns, _, _ in samples)
    probe_us = [probe / 1e3 for _, _, _, probe in samples]
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, {len(samples)} ops "
          f"({attempted} distinct of {len(ops)} planned), "
          f"{sum(1 for v in ms if v > quantile(ms, 90))} above p90")
    print(f"context: Python {platform.python_version()}, nproc {os.cpu_count()}, end-to-end metrics with "
          f"tracing off; speed probe median %.1f us (quartiles %.1f, %.1f), reference %.1f us"
          % (statistics.median(probe_us), *statistics.quantiles(probe_us, n=4)[::2], refcheck.REF_PROBE_NS / 1e3))
    failed_runs = sum(1 for _, _, why, _ in samples if why is not None)
    print(f"fail_ratio = {failed / attempted:.6f} ratio ({failed} of {attempted} planned ops; "
          f"{failed_runs} of {len(samples)} runs; correct: {correct})")
    for line in keep_failures(args.workload, args.seed, ops, failures):
        print(line)

    if args.trace:
        metrics = result["layers"]
        print(f"traced replay of {result['replayed']} ops; spans around each layer's entry points, "
              f"no queues or threads, so no wait metrics")
        if result["growth"]:
            print("\n".join(growth_table(result["growth"])))
    else:
        import_factor = refcheck.REF_PROBE_NS / result["import_probe_ns"]
        setup_s = statistics.median(scaled for _, _, scaled in setups) + result["import_s"] * import_factor
        raw_setup_s = statistics.median(raw for _, raw, _ in setups) + result["import_s"]
        raw = end_to_end(samples, failed / attempted, raw_setup_s, result["maxrss_kb"], scaled=False)
        print("raw (unscaled): " + ", ".join(f"{name} = {value:.6g} {unit}" for name, (value, unit) in raw.items()
                                             if unit in ("s", "ms", "1/s")))
        scaled = end_to_end(samples, failed / attempted, setup_s, result["maxrss_kb"])
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in scaled.items()}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
