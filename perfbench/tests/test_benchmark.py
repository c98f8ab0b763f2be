"""Tests of the benchmark itself: tracer completeness, determinism, BENCHMARK.json agreement.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracer import Tracer, public_functions
from workloads import WORKLOADS

ROOT = Path(run.__file__).resolve().parent.parent


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_equal_cprofile_ncalls(name):
    """Every wrapped function's traced count equals cProfile's ncalls for it."""
    workload = WORKLOADS[name]
    case = workload.cases(seed=0, count=1)[0]

    prof = cProfile.Profile()
    prof.enable()
    plain = workload.run(case)
    prof.disable()
    ncalls = {key: stat[1] for key, stat in pstats.Stats(prof).stats.items()}

    with Tracer() as tr:
        traced = workload.run(case)

    for key, fn in tr.originals.items():
        code = fn.__code__
        expected = ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        assert tr.fns[key].calls == expected, key
    assert tr.calls("tensors.contract_m1") > 0
    assert workload.fingerprint(traced) == workload.fingerprint(plain)


def test_tracer_patches_every_binding_and_restores_them():
    bindings = list(public_functions())
    # names imported by value: the tensor kernel is bound in several modules
    homes = {mod.__name__ for key, mod, _, _ in bindings if key == "tensors.contract_m1"}
    assert {"sparse_tcp", "sparse_tcp.tensors", "sparse_tcp.merit", "sparse_tcp.solve",
            "sparse_tcp.oracle"} <= homes
    with Tracer():
        for _, mod, attr, fn in bindings:
            assert getattr(mod, attr).__wrapped__ is fn
    for _, mod, attr, fn in bindings:
        assert getattr(mod, attr) is fn


@pytest.mark.parametrize("name", ["solve-planted", "oracle-planted"])
def test_traced_run_repeats_counts_and_quality_exactly(name):
    """Same seed, two traced runs: identical counts and quality; only timings move."""
    first, first_report = run.traced_run(WORKLOADS[name], seed=3, count=3)
    second, second_report = run.traced_run(WORKLOADS[name], seed=3, count=3)
    assert first["correct"] and second["correct"]
    assert not first_report["trace_mismatches"]
    timings = ("self_s", "us_per_call", "trace_overhead_frac")
    counts = [k for k in first["metrics"] if not k.endswith(timings)]
    assert len(counts) >= 17
    for key in counts:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    for key in ("failed_frac", "card_match_frac"):
        assert first_report[key] == second_report[key], key


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(40)])
    assert (value, beyond) == (29.0, 10)
    assert pct == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)  # short run: the maximum


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [m[0] for m in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [m[1] for m in run.END_TO_END]
    assert [m["better"] for m in spec["end_to_end"]] == [m[2] for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)


def test_runner_fails_without_package_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-planted", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "package source not found" in proc.stderr
