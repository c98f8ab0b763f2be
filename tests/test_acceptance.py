"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and runtimes.  Criteria 3-5 and 7 share one seeded 50-instance planted
family; the exact enumeration results and solver reports are cached so each
criterion's budget covers only its own work.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from sparse_tcp import (
    BoundInputs,
    DenseTensor,
    Instance,
    ObjectiveParams,
    OracleOptions,
    Schedule,
    SolveOptions,
    brute_force_sparse,
    compute_Bbar,
    contract_full,
    contract_m1,
    contract_m2,
    gamma_k,
    gen_instance,
    gen_z_feasible,
    grad_check,
    least_element,
    lp_norm_p,
    minimal_lp_select,
    objective,
    q_tilde,
    sample_feasible,
    semi_symmetrize,
    solve_sparse_tcp,
    t_upper_for_nonzero,
    tensor_norm,
    verify_solution,
)
from sparse_tcp.cli import example_report
from sparse_tcp.merit import phi_fb

SUITE_SEEDS = list(range(50))
SUITE_NS = [3, 4, 5]

_suite_cache: dict = {}


def _report_line(num, ok, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} ({elapsed:.1f}s) - {detail}")


def planted_suite():
    if "instances" not in _suite_cache:
        _suite_cache["instances"] = [
            gen_z_feasible(SUITE_NS[seed % 3], 3, seed) for seed in SUITE_SEEDS
        ]
    return _suite_cache["instances"]


def oracle_results():
    if "oracle" not in _suite_cache:
        _suite_cache["oracle"] = [
            brute_force_sparse(inst, OracleOptions(exhaustive=True, seed=seed))
            for seed, (inst, _, _) in zip(SUITE_SEEDS, planted_suite())
        ]
    return _suite_cache["oracle"]


def solve_reports():
    if "solve" not in _suite_cache:
        _suite_cache["solve"] = [
            solve_sparse_tcp(inst, SolveOptions()) for inst, _, _ in planted_suite()
        ]
    return _suite_cache["solve"]


def test_criterion_1_fb_equivalence():
    start = time.perf_counter()
    grid = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    ok = True
    for a in grid:
        for b in grid:
            member = a >= 0 and b >= 0 and a * b == 0
            ok = ok and ((phi_fb(a, b) == 0.0) == member)
    rng = np.random.default_rng(101)
    for _ in range(1000):
        a, b = rng.uniform(-3.0, 3.0, 2)
        val = phi_fb(a, b)
        if a > 0 and b > 0:
            ok = ok and val < 0
        elif a >= 0 and b >= 0 and a * b == 0:
            ok = ok and val == 0
        else:
            ok = ok and val > 0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report_line(1, ok, elapsed, "FB zero set exact on 49-point grid; sign law on 1000 randoms")
    assert ok


def test_criterion_2_gradient_lemma():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for n in (2, 3, 5):
        for m in (3, 4):
            family = [
                gen_instance("diagonal", n, m, 11),
                gen_z_feasible(n, m, 12)[0],
            ]
            raw = gen_instance("random", n, m, 13)
            family.append(Instance(semi_symmetrize(raw.tensor), raw.q))
            for inst in family:
                done = 0
                while done < 100:
                    u = rng.normal(scale=1.5, size=n)
                    w = contract_m1(inst.tensor, u) + inst.q
                    if float(np.min(np.hypot(u, w))) <= 1e-6:
                        continue
                    worst = max(worst, grad_check(inst, u, step=1e-5))
                    done += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    _report_line(2, ok, elapsed, f"max relative gradient error {worst:.2e} over 18 families x 100 points")
    assert ok


def test_criterion_3_oracle_minimality():
    start = time.perf_counter()
    ok = True
    for (inst, v, support), result in zip(planted_suite(), oracle_results()):
        ok = ok and result.min_card == len(support)
        ok = ok and result.sparse_solution is not None
        ok = ok and float(np.max(np.abs(result.sparse_solution - v))) < 1e-8
        if result.min_card and result.min_card > 0:
            # exhaustive re-enumeration below the planted cardinality
            smaller = brute_force_sparse(
                inst, OracleOptions(max_card=result.min_card - 1, exhaustive=True)
            )
            ok = ok and not smaller.solutions
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report_line(3, ok, elapsed, "min_card equals planted cardinality on 50 instances")
    assert ok


def test_criterion_4_least_element():
    oracle_results()  # cached outside this criterion's budget
    start = time.perf_counter()
    ok = True
    for seed, ((inst, v, support), result) in enumerate(zip(planted_suite(), oracle_results())):
        le = least_element(inst)
        _, passed = verify_solution(inst, le, 1e-8)
        ok = ok and passed
        samples = sample_feasible(inst, 1000, seed=seed + 1)
        ok = ok and len(samples) == 1000
        for s in samples:
            if not np.all(le <= s + 1e-8):
                ok = False
                break
        ok = ok and int(np.count_nonzero(np.abs(le) > 1e-9)) == result.min_card
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report_line(4, ok, elapsed, "least element verifies, dominates 1000 samples, matches min_card")
    assert ok


def test_criterion_5_continuation():
    oracle_results()
    start = time.perf_counter()
    verified_and_lp = 0
    card_match = 0
    caveats = []
    for seed, ((inst, v, support), result, report) in enumerate(
        zip(planted_suite(), oracle_results(), solve_reports())
    ):
        ubar = minimal_lp_select(result, 0.5)
        _, passed = verify_solution(inst, report.u_final, 1e-6)
        lp_ok = lp_norm_p(report.u_final, 0.5) <= lp_norm_p(ubar, 0.5) + 1e-4
        if passed and lp_ok:
            verified_and_lp += 1
        if report.card == result.min_card:
            card_match += 1
        else:
            caveats.append(f"seed {seed}: solver card {report.card} vs oracle {result.min_card}")
    elapsed = time.perf_counter() - start
    ok = verified_and_lp >= 45 and card_match >= 40 and elapsed < 300.0
    detail = (
        f"{verified_and_lp}/50 verified at 1e-6 with minimal-lp slack, "
        f"{card_match}/50 cardinality matches"
    )
    if caveats:
        detail += "; caveats: " + "; ".join(caveats)
    _report_line(5, ok, elapsed, detail)
    assert ok


def test_criterion_6_zero_minimizer_regime():
    start = time.perf_counter()
    ok = True
    for seed in range(100, 110):
        inst, v, support = gen_z_feasible(4, 3, seed)
        qt = q_tilde(inst.q)
        f0 = 2.0 * float(qt @ qt)
        b = BoundInputs(
            t=1.0, p=0.5, m=inst.m, normA=tensor_norm(inst.tensor),
            mu=compute_Bbar(inst.n, 0.5, 1.0), f0=f0,
        )
        t_big = 1.01 * gamma_k(1, b)
        report = solve_sparse_tcp(inst, SolveOptions(schedule=Schedule(t_big, 0.5, 1)))
        for entry in report.per_start:
            ok = ok and all(x == 0.0 for x in entry["u_final"])

        result = brute_force_sparse(inst, OracleOptions(exhaustive=True, seed=seed))
        ubar = minimal_lp_select(result, 0.5)
        t_small = 0.5 * t_upper_for_nonzero(inst.q, ubar, 0.5)
        report2 = solve_sparse_tcp(inst, SolveOptions(schedule=Schedule(t_small, 0.5, 1)))
        f_final = objective(inst, report2.u_final, ObjectiveParams(t=t_small, p=0.5))
        ok = ok and bool(np.any(report2.u_final != 0.0)) and f_final < f0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report_line(6, ok, elapsed, "t = 1.01*gamma(1) forces 0 on all starts; t below bound beats f(0)")
    assert ok


def test_criterion_7_lower_bound_floor():
    solve_reports()
    start = time.perf_counter()
    ok = True
    checked = 0
    for report in solve_reports():
        if not report.converged:
            continue
        checked += 1
        nz = np.abs(report.u_final[report.u_final != 0.0])
        if nz.size:
            ok = ok and report.L_used is not None and bool(np.all(nz >= report.L_used))
        bound = report.f0_used / (report.t_final * report.L_used ** 0.5)
        ok = ok and report.card <= bound
    ok = ok and checked > 0
    elapsed = time.perf_counter() - start
    _report_line(7, ok, elapsed, f"magnitude floor and count bound hold on {checked} converged reports")
    assert ok


def test_criterion_8_example_reproduction():
    start = time.perf_counter()
    report_a = example_report()
    report_b = example_report()
    ok = report_a == report_b
    for entry in report_a["family"]:
        ok = ok and entry["encoded_n3"]["identity_residual_row1"] < 1e-12
    cand = report_a["claimed_sparse_solution"]
    ok = ok and cand["claimed"] == [1.0, 0.0, 0.0]
    ok = ok and cand["encoded_n3"]["pass"] is False
    ok = ok and cand["truncated_n2"]["pass"] is True
    text = str(report_a)
    ok = ok and "T_{3,2}" in text
    ok = ok and any("component-3" in note for note in report_a["notes"])
    ok = ok and any("dimension-label" in note for note in report_a["notes"])
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report_line(8, ok, elapsed, "family identity < 1e-12; discrepancy notes emitted; deterministic")
    assert ok


def _naive_m1(A, u):
    arr = A.as_array()
    out = np.zeros(A.n)
    for i in range(A.n):
        for idx in itertools.product(range(A.n), repeat=A.m - 1):
            term = arr[(i, *idx)]
            for j in idx:
                term *= u[j]
            out[i] += term
    return out


def _naive_m2(A, u):
    arr = A.as_array()
    out = np.zeros((A.n, A.n))
    for i in range(A.n):
        for j in range(A.n):
            if A.m == 2:
                out[i, j] = arr[i, j]
                continue
            for idx in itertools.product(range(A.n), repeat=A.m - 2):
                term = arr[(i, j, *idx)]
                for k in idx:
                    term *= u[k]
                out[i, j] += term
    return out


def test_criterion_9_contraction_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(2, 5))
        A = DenseTensor(m, n, rng.uniform(-1.0, 1.0, n**m))
        u = rng.uniform(-1.0, 1.0, n)
        np.testing.assert_allclose(contract_m1(A, u), _naive_m1(A, u), rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(contract_m2(A, u), _naive_m2(A, u), rtol=1e-12, atol=1e-13)
        naive_full = float(u @ _naive_m1(A, u))
        assert contract_full(A, u) == pytest.approx(naive_full, rel=1e-12, abs=1e-13)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report_line(9, ok, elapsed, "kernels match the naive reference on 200 random pairs")
    assert ok
