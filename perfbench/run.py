"""Benchmark runner for sparse-tcp: timed workloads and a traced per-layer run.

One workload, in the form `BENCHMARK.json` names:

    python3 perfbench/run.py --workload solve-planted --seed 1 --seconds 60 --trace 0

prints a JSON line {"report": ...} with every metric, its unit and direction,
the environment and the failing instance labels, then, as its last line, the
result object {"correct", "attempted", "failed", "metrics"}.  `--trace 0` runs
the timed pass and reports the end-to-end metrics; `--trace 1` runs a fixed
set of instances untraced and then traced, and reports per-layer metrics.

Every workload, each in its own process, untraced and traced, as one table:

    python3 perfbench/run.py --seed 0 --seconds 60

The package is imported from `src/` next to this directory, never from an
installed copy; without it the runner exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy, sparse_tcp and the modules beside this file that import them are
# imported inside functions: pin_threads() must run before numpy loads, and
# import_package() decides where sparse_tcp comes from.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7  # setup_s is the median of this many full set-ups
TAIL_BEYOND = 10  # latency_tail_s: highest percentile with this many samples above it

# (name, unit, better) of the end-to-end metrics in the result object.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("instances_per_s", "1/s", "higher"),
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("card_match_frac", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
# Reported with the others, left out of the result object because it is 0
# on a healthy run; the result's `failed` and `attempted` carry it.
FAILED_FRAC = ("failed_frac", "ratio", "lower")

PER_INSTANCE_CALLS = "calls/instance"
PER_INSTANCE_S = "s/instance"
PER_LAYER = (
    ("tensors.contract_m1.calls", PER_INSTANCE_CALLS, "lower"),
    ("tensors.contract_m2.calls", PER_INSTANCE_CALLS, "lower"),
    ("tensors.self_s", PER_INSTANCE_S, "lower"),
    ("tensors.us_per_call", "us", "lower"),
    ("tensors.flops_computed", "flop/instance", "lower"),
    ("tensors.bytes_computed", "B/instance", "lower"),
    ("merit.grad_merit.calls", PER_INSTANCE_CALLS, "lower"),
    ("merit.merit_fb.calls", PER_INSTANCE_CALLS, "lower"),
    ("merit.objective.calls", PER_INSTANCE_CALLS, "lower"),
    ("merit.self_s", PER_INSTANCE_S, "lower"),
    ("solve.smooth_grad.calls", PER_INSTANCE_CALLS, "lower"),
    ("solve.smooth_objective.calls", PER_INSTANCE_CALLS, "lower"),
    ("solve.evals_per_grad", "ratio", "lower"),
    ("solve.polish_on_support.calls", PER_INSTANCE_CALLS, "lower"),
    ("solve.polish_ok_frac", "ratio", "higher"),
    ("solve.self_s", PER_INSTANCE_S, "lower"),
    ("oracle.reduced_newton.calls", PER_INSTANCE_CALLS, "lower"),
    ("oracle.reduced_newton.ok_frac", "ratio", "higher"),
    ("oracle.reduced_newton.contract_m1_per_call", "calls/call", "lower"),
    ("oracle.brute_force_sparse.calls", PER_INSTANCE_CALLS, "lower"),
    ("oracle.verify_solution.calls", PER_INSTANCE_CALLS, "lower"),
    ("oracle.sample_feasible.self_s", PER_INSTANCE_S, "lower"),
    ("oracle.self_s", PER_INSTANCE_S, "lower"),
    ("regpath.self_s", PER_INSTANCE_S, "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)
WORKLOAD_NAMES = ("solve-planted", "oracle-planted", "solve-wide")


def pin_threads():
    """One BLAS/OpenMP thread: must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_package():
    """Put the checkout's src/ first on the path and import sparse_tcp from it."""
    pkg = SRC / "sparse_tcp"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"run.py: package source not found at {pkg}")
    sys.path.insert(0, str(SRC))
    import sparse_tcp

    if Path(sparse_tcp.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"run.py: imported sparse_tcp from {sparse_tcp.__file__}, not {pkg}")
    return sparse_tcp


def git_revision() -> str:
    """HEAD of the checkout read from .git; 'unknown' outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def metric(value, unit, better) -> dict:
    return {"value": value, "unit": unit, "better": better}


def ratio(num, den) -> float:
    return num / den if den else 0.0


def setup(workload, seed: int, count: int):
    """Generate the instances and verify each plant; the plant check is the warm-up.

    Returns the cases and the seconds the set-up took.
    """
    from workloads import ORACLE_TOL

    import sparse_tcp

    start = time.perf_counter()
    cases = workload.cases(seed, count)
    for case in cases:
        _, ok = sparse_tcp.verify_solution(case.inst, case.plant, ORACLE_TOL)
        if not ok:
            raise RuntimeError(f"{case.label}: planted solution does not verify")
    return cases, time.perf_counter() - start


def call(workload, case):
    """The program's answer for one instance, or the exception it raised."""
    try:
        return workload.run(case)
    except Exception as exc:  # a failing instance is recorded, never aborts the run
        return exc


def tail(latencies):
    """Value at the highest percentile with TAIL_BEYOND samples above it.

    Falls back to the maximum, with fewer samples beyond, on short runs.
    """
    lat = sorted(latencies)
    k = len(lat) - 1 - TAIL_BEYOND if len(lat) > TAIL_BEYOND else len(lat) - 1
    return lat[k], 100.0 * (k + 1) / len(lat), len(lat) - 1 - k


def timed_run(workload, seed: int, seconds: float):
    """Closed loop over the pool, one instance at a time, for `seconds`."""
    pool_size = int(seconds * workload.pool_per_second) + len(workload.shapes)
    setups = []
    for _ in range(SETUP_REPEATS):
        cases, took = setup(workload, seed, pool_size)
        setups.append(took)

    latencies, verdicts, labels = [], [], []
    deadline = time.perf_counter() + seconds
    while not latencies or time.perf_counter() < deadline:
        case = cases[len(latencies) % len(cases)]
        start = time.perf_counter()
        out = call(workload, case)
        latencies.append(time.perf_counter() - start)
        verdicts.append(workload.check(case, out))
        labels.append(case.label)

    n = len(latencies)
    tail_s, tail_pct, beyond = tail(latencies)
    failed = sum(v.failed for v in verdicts)
    values = {
        "setup_s": statistics.median(setups),
        "instances_per_s": n / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "card_match_frac": sum(v.card_match for v in verdicts) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: metric(values[name], unit, better) for name, unit, better in END_TO_END}
    metrics[FAILED_FRAC[0]] = metric(failed / n, *FAILED_FRAC[1:])
    wrong = [lab for lab, v in zip(labels, verdicts) if v.failed and v.claimed]
    report = {
        "metrics": metrics,
        "attempted": n,
        "distinct_instances": min(n, len(cases)),
        "setup_runs_s": setups,
        "latency_tail": {"percentile": tail_pct, "samples_beyond": beyond, "samples": n},
        "failures": [
            {"label": lab, "error": v.error} for lab, v in zip(labels, verdicts) if v.failed
        ],
        "wrong_answers": wrong,
        "card_mismatches": [lab for lab, v in zip(labels, verdicts) if not v.card_match],
    }
    result = {"correct": not wrong, "attempted": n, "failed": failed, "metrics": metrics}
    return result, report


def layer_metrics(tr, k: int, overhead: float) -> dict:
    """Per-instance layer figures from a tracer that ran k instances."""
    calls = tr.calls
    m1, m2 = tr.fns["tensors.contract_m1"], tr.fns["tensors.contract_m2"]
    rn = tr.fns["oracle.reduced_newton"]
    polish = tr.fns["solve.polish_on_support"]
    elems = m1.elems + m2.elems  # flops 2 n^m and bytes 8 n^m per kernel call, computed
    values = {
        "tensors.contract_m1.calls": m1.calls / k,
        "tensors.contract_m2.calls": m2.calls / k,
        "tensors.self_s": tr.layer_self_s("tensors") / k,
        "tensors.us_per_call": 1e6 * ratio(tr.layer_self_s("tensors"), tr.layer_calls("tensors")),
        "tensors.flops_computed": 2.0 * elems / k,
        "tensors.bytes_computed": 8.0 * elems / k,
        "merit.grad_merit.calls": calls("merit.grad_merit") / k,
        "merit.merit_fb.calls": calls("merit.merit_fb") / k,
        "merit.objective.calls": calls("merit.objective") / k,
        "merit.self_s": tr.layer_self_s("merit") / k,
        "solve.smooth_grad.calls": calls("solve.smooth_grad") / k,
        "solve.smooth_objective.calls": calls("solve.smooth_objective") / k,
        "solve.evals_per_grad": ratio(calls("solve.smooth_objective"), calls("solve.smooth_grad")),
        "solve.polish_on_support.calls": polish.calls / k,
        "solve.polish_ok_frac": ratio(polish.ok, polish.calls),
        "solve.self_s": tr.layer_self_s("solve") / k,
        "oracle.reduced_newton.calls": rn.calls / k,
        "oracle.reduced_newton.ok_frac": ratio(rn.ok, rn.calls),
        "oracle.reduced_newton.contract_m1_per_call": ratio(
            tr.within["oracle.reduced_newton", "tensors.contract_m1"], rn.calls
        ),
        "oracle.brute_force_sparse.calls": calls("oracle.brute_force_sparse") / k,
        "oracle.verify_solution.calls": calls("oracle.verify_solution") / k,
        "oracle.sample_feasible.self_s": tr.fns["oracle.sample_feasible"].self_s / k,
        "oracle.self_s": tr.layer_self_s("oracle") / k,
        "regpath.self_s": tr.layer_self_s("regpath") / k,
        "trace_overhead_frac": overhead,
    }
    return {name: metric(values[name], unit, better) for name, unit, better in PER_LAYER}


def traced_run(workload, seed: int, count: int | None = None):
    """The same `count` instances untraced, then traced; answers must match bit for bit."""
    from tracer import Tracer

    count = count or workload.traced
    cases, _ = setup(workload, seed, count)
    plain_s = 0.0
    plain = []
    for case in cases:
        start = time.perf_counter()
        plain.append(call(workload, case))
        plain_s += time.perf_counter() - start

    traced_s = 0.0
    traced = []
    with Tracer() as tr:
        for case in cases:
            tr.instance = case.label
            start = time.perf_counter()
            traced.append(call(workload, case))
            traced_s += time.perf_counter() - start

    verdicts = [workload.check(c, out) for c, out in zip(cases, traced)]
    mismatched = [
        c.label
        for c, a, b in zip(cases, plain, traced)
        if workload.fingerprint(a) != workload.fingerprint(b)
    ]
    wrong = [c.label for c, v in zip(cases, verdicts) if v.failed and v.claimed]
    failed = sum(v.failed for v in verdicts)
    metrics = layer_metrics(tr, count, traced_s / plain_s - 1.0)
    report = {
        "metrics": metrics,
        "attempted": count,
        "failed_frac": failed / count,
        "card_match_frac": sum(v.card_match for v in verdicts) / count,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "trace_mismatches": mismatched,
        "wrong_answers": wrong,
        "failures": [{"label": c.label, "error": v.error} for c, v in zip(cases, verdicts) if v.failed],
        "bases": {
            "solve.evals_per_grad": tr.calls("solve.smooth_grad"),
            "solve.polish_ok_frac": tr.calls("solve.polish_on_support"),
            "oracle.reduced_newton.ok_frac": tr.calls("oracle.reduced_newton"),
            "oracle.reduced_newton.contract_m1_per_call": tr.calls("oracle.reduced_newton"),
            "tensors.us_per_call": tr.layer_calls("tensors"),
        },
        "spans": tr.roots,
    }
    result = {
        "correct": not wrong and not mismatched,
        "attempted": count,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report


def run_one(name: str, seed: int, seconds: float, trace: bool):
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if trace:
        result, report = traced_run(workload, seed)
    else:
        result, report = timed_run(workload, seed, seconds)
    report = {"workload": name, "trace": int(trace), "env": environment(seed), **report}
    print(json.dumps({"report": report}))
    # the result object's metrics carry value and unit only
    result["metrics"] = {
        k: {"value": v["value"], "unit": v["unit"]}
        for k, v in result["metrics"].items()
        if k != FAILED_FRAC[0]
    }
    print(json.dumps(result))


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, untraced then traced, as one table."""
    status = 0
    print(f"{'workload':<16} {'metric':<44} {'value':>14}  unit            better")
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name}: trace={trace} exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            report = json.loads(lines[-2])["report"]
            result = json.loads(lines[-1])
            for key, m in report["metrics"].items():
                print(f"{name:<16} {key:<44} {m['value']:>14.6g}  {m['unit']:<15} {m['better']}")
            extra = {k: report[k] for k in ("failures", "trace_mismatches") if report.get(k)}
            print(f"{name:<16} {'(correct, attempted, failed)':<44} "
                  f"{json.dumps([result['correct'], result['attempted'], result['failed']])} "
                  f"{json.dumps(extra) if extra else ''}")
            if not result["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; omit to run every workload as a table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    import_package()
    run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    pin_threads()
    sys.exit(main())
