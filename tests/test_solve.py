"""Prox descent, continuation, thresholding, the FB Newton finish, smoothing and support polish."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparse_tcp.solve as solve_mod
import sparse_tcp.oracle as oracle
from sparse_tcp import (
    BoundInputs,
    DivergedError,
    Instance,
    ObjectiveParams,
    OracleOptions,
    Schedule,
    SolveOptions,
    brute_force_sparse,
    compute_Bbar,
    gamma_k,
    gen_instance,
    gen_z_feasible,
    grad_merit,
    identity_tensor,
    lp_norm_p,
    minimal_lp_select,
    objective,
    polish_on_support,
    q_tilde,
    smooth_grad,
    smooth_objective,
    solve_sparse_tcp,
    t_upper_for_nonzero,
    tensor_norm,
    verify_solution,
)
from sparse_tcp.solve import _descend, _fb_newton


def diag_instance(q):
    q = np.asarray(q, dtype=float)
    return Instance(identity_tensor(q.size, 3), q)


def single_t_options(t):
    return SolveOptions(schedule=Schedule(t, 0.5, 1))


# -- smoothing ------------------------------------------------------------------


def test_smooth_objective_bounds():
    inst = diag_instance([-1.0, 0.5])
    params = ObjectiveParams(t=0.3, p=0.5)
    rng = np.random.default_rng(3)
    for _ in range(25):
        u = rng.normal(size=2)
        for eps in (1e-1, 1e-3, 1e-6):
            smooth = smooth_objective(inst, u, params, eps)
            exact = objective(inst, u, params)
            assert exact <= smooth <= exact + params.t * 2 * eps**params.p + 1e-15


def test_smooth_objective_at_zero():
    inst = diag_instance([-2.0, 1.0])
    params = ObjectiveParams(t=0.3, p=0.5)
    qt = q_tilde(inst.q)
    eps = 1e-2
    expected = 2.0 * float(qt @ qt) + params.t * 2 * eps**params.p
    assert smooth_objective(inst, np.zeros(2), params, eps) == pytest.approx(expected, rel=1e-13)


def test_smooth_objective_monotone_in_eps():
    inst = diag_instance([-1.0, -1.0])
    params = ObjectiveParams(t=0.5, p=0.7)
    u = np.array([0.4, 1.3])
    vals = [smooth_objective(inst, u, params, eps) for eps in (1e-6, 1e-3, 1e-1, 1.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_smooth_grad_matches_finite_differences():
    inst = diag_instance([-1.0, 0.5, -0.2])
    params = ObjectiveParams(t=0.3, p=0.5)
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(20):
        u = rng.normal(size=3) + 0.5
        eps = float(rng.uniform(0.01, 0.5))
        g = smooth_grad(inst, u, params, eps)
        fd = np.empty(3)
        for i in range(3):
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            fd[i] = (smooth_objective(inst, up, params, eps) - smooth_objective(inst, um, params, eps)) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(g))))
        assert float(np.max(np.abs(g - fd))) / scale < 1e-6


def test_smooth_grad_zero_reg_part_at_origin():
    inst = diag_instance([-1.0, -1.0])
    params = ObjectiveParams(t=0.5, p=0.5)
    np.testing.assert_array_equal(
        smooth_grad(inst, np.zeros(2), params, 1e-3), grad_merit(inst, np.zeros(2))
    )


def test_smooth_grad_linear_regime_large_eps():
    inst = diag_instance([0.1, 0.1])
    params = ObjectiveParams(t=1.0, p=0.5)
    eps = 1e4
    u = np.array([1e-3, -2e-3])
    reg = smooth_grad(inst, u, params, eps) - grad_merit(inst, u)
    expected = params.t * params.p * eps ** (params.p - 2.0) * u
    np.testing.assert_allclose(reg, expected, rtol=1e-6)


# -- the l_p prox --------------------------------------------------------------------


def prox_value(x, y, lam, p):
    """The prox objective (x - y)^2 / 2 + lam |x|^p."""
    return 0.5 * (x - y) ** 2 + lam * np.abs(x) ** p


@settings(max_examples=200, deadline=None)
@given(
    y=st.floats(-50.0, 50.0),
    lam=st.floats(1e-6, 10.0),
    p=st.one_of(st.just(0.5), st.floats(0.05, 0.95)),
)
def test_prox_is_the_minimizer(y, lam, p):
    # the closed form equals the Newton prox at p = 1/2, and for every p the
    # prox is no worse than 0 or any point of a dense grid around y
    y_arr, lam_arr = np.array([y]), np.array([lam])
    x = float(solve_mod._prox_lp(y_arr, lam_arr, p)[0])
    if p == 0.5:
        newton = float(solve_mod._prox_newton(y_arr, lam_arr, 0.5)[0])
        assert abs(x - newton) <= 1e-14 * max(1.0, abs(y))
    best = prox_value(x, y, lam, p)
    tol = 1e-12 * max(1.0, y * y)
    assert best <= prox_value(0.0, y, lam, p) + tol
    grid = np.linspace(-abs(y) - 1.0, abs(y) + 1.0, 20001)
    assert best <= float(np.min(prox_value(grid, y, lam, p))) + tol
    assert x == 0.0 or (np.sign(x) == np.sign(y) and abs(x) <= abs(y))


def test_prox_threshold_splits_zero_from_nonzero():
    for p in (0.3, 0.5, 0.8):
        lam = 0.7
        thr = solve_mod._prox_threshold(lam, p)
        y = np.array([-thr * (1 + 1e-9), -thr * (1 - 1e-9), thr * (1 - 1e-9), thr * (1 + 1e-9)])
        x = solve_mod._prox_lp(y, lam, p)
        assert x[1] == x[2] == 0.0
        assert x[0] < 0.0 < x[3]


# -- batched descent ----------------------------------------------------------------


def descend_one_start(inst, u, params):
    """The prox descent for one start as a plain loop: the reference for the batch.

    Returns the final point and its objective.
    """
    t, p = params.t, params.p
    x = np.asarray(u, dtype=float).copy()
    f = float(objective(inst, x, params))
    g = grad_merit(inst, x)
    alpha, held = solve_mod._STEP0, 0
    for _ in range(solve_mod._MAX_INNER):
        step = alpha
        for _ in range(solve_mod._ARMIJO_TRIES):
            x_new = solve_mod._prox_lp(x - step * g, step * t, p)
            f_new = float(objective(inst, x_new, params))
            dist = float((x_new - x) @ (x_new - x))
            if f_new <= f - solve_mod._ARMIJO_C / (2.0 * step) * dist:
                break
            step *= solve_mod._ARMIJO_SHRINK
        else:
            break  # no step length accepted
        s = x_new - x
        move = float(np.max(np.abs(s))) / step
        held = held + 1 if np.array_equal(x_new != 0.0, x != 0.0) else 0
        x, f = x_new, f_new
        if move <= solve_mod._STOP_TOL or (
            held >= solve_mod._HELD_STEPS and move <= solve_mod._HELD_TOL
        ):
            break
        g_new = grad_merit(inst, x)
        sy = float(s @ (g_new - g))
        alpha = float(s @ s) / sy if sy > 1e-300 else step
        alpha = min(max(alpha, solve_mod._STEP_MIN), min(4.0 * step, solve_mod._STEP_MAX))
        g = g_new
    return x, f


@pytest.mark.parametrize("ladder_entries", [oracle._LADDER_ENTRIES, 1])
def test_batched_descent_matches_one_start_loop(monkeypatch, ladder_entries):
    # rows of a batch follow their own BB steps, backtracking and exits.  The
    # kernels round batches differently in the last bits and BB steps amplify
    # that with every iteration, so the runs are short and the tolerance is a
    # few ulps of it
    monkeypatch.setattr(oracle, "_LADDER_ENTRIES", ladder_entries)
    monkeypatch.setattr(solve_mod, "_MAX_INNER", 8)
    rng = np.random.default_rng(5)
    for n, seed, p in ((3, 4, 0.5), (4, 11, 0.5), (5, 2, 0.3)):
        params = ObjectiveParams(t=0.05, p=p)
        inst, _, _ = gen_z_feasible(n, 3, seed)
        u0 = rng.uniform(0.1, 1.5, (4, n))
        u0[0] = 0.0  # the prox of a step from 0 may keep every entry at 0
        u, f_final, max_norm, finite = _descend(inst, u0, params)
        assert finite.all() and f_final.shape == (4,)
        for r in range(4):
            ref_u, ref_f = descend_one_start(inst, u0[r], params)
            np.testing.assert_allclose(u[r], ref_u, rtol=1e-9, atol=1e-11)
            np.testing.assert_allclose(f_final[r], ref_f, rtol=1e-9, atol=1e-12)
            assert max_norm[r] >= max(np.linalg.norm(u0[r]), np.linalg.norm(u[r])) - 1e-15


def descent_steps(monkeypatch):
    """Collect the line searches of one-row descents: call it, then steps(u0) after each.

    steps(u0) lists (x, x_new, step, found) per _armijo call, x being the
    point the search started from: u0, then each accepted point.
    """
    calls = []
    armijo = solve_mod._armijo

    def armijo_seen(*args, **kwargs):
        x_new, f_new, step, found = armijo(*args, **kwargs)
        calls.append((x_new[0].copy(), float(step[0]), bool(found[0])))
        return x_new, f_new, step, found

    monkeypatch.setattr(solve_mod, "_armijo", armijo_seen)

    def steps(u0):
        x, out = np.asarray(u0, dtype=float), []
        for x_new, step, found in calls:
            out.append((x, x_new, step, found))
            x = x_new if found else x
        calls.clear()
        return out

    return steps


@pytest.mark.parametrize("p", [0.5, 0.3])
def test_descent_objective_never_rises(monkeypatch, p):
    # every accepted step lowers F by at least _ARMIJO_C / (2 alpha) ||x+ - x||^2,
    # re-evaluated here one point at a time
    steps = descent_steps(monkeypatch)
    params = ObjectiveParams(t=0.05, p=p)
    rng = np.random.default_rng(1)
    for seed in (5, 8):
        inst, _, _ = gen_z_feasible(4, 3, seed)
        u0 = np.maximum(q_tilde(inst.q), 0.1) + rng.uniform(0, 0.1, 4)
        descend_one_row(inst, u0, params.t, p)
        accepted = [(x, x_new, step) for x, x_new, step, found in steps(u0) if found]
        assert len(accepted) > 5
        for x, x_new, step in accepted:
            f, f_new = objective(inst, x, params), objective(inst, x_new, params)
            decrease = solve_mod._ARMIJO_C / (2.0 * step) * float((x_new - x) @ (x_new - x))
            assert f_new <= f - decrease + 1e-13 * max(1.0, abs(f))


def test_descent_rows_stop_by_the_rule(monkeypatch):
    # a row returns its last accepted point, after the first step that meets a
    # stop rule (or finds no step length, or is the _MAX_INNER-th), and no
    # earlier step met one
    steps = descent_steps(monkeypatch)
    rng = np.random.default_rng(2)
    rules = set()
    for seed, t in ((3, 0.1), (5, 0.05), (6, 0.1 * 0.5**11), (9, 0.1 * 0.5**11)):
        inst, _, _ = gen_z_feasible(4, 3, seed)
        u0 = rng.uniform(0.1, 1.5, 4)
        u, _, _ = descend_one_row(inst, u0, t)
        held, stops = 0, []
        trace = steps(u0)
        for x, x_new, step, found in trace:
            move = float(np.max(np.abs(x_new - x))) / step
            held = held + 1 if np.array_equal(x_new != 0.0, x != 0.0) else 0
            if not found:
                stops.append("no step")
            elif move <= solve_mod._STOP_TOL:
                stops.append("small step")
            elif held >= solve_mod._HELD_STEPS and move <= solve_mod._HELD_TOL:
                stops.append("support held")
            else:
                stops.append(None)
        assert all(rule is None for rule in stops[:-1])
        assert stops[-1] is not None or len(trace) == solve_mod._MAX_INNER
        rules.add(stops[-1])
        x, x_new, _, found = trace[-1]
        np.testing.assert_array_equal(u, x_new if found else x)
    assert "support held" in rules


# -- one-row descent ----------------------------------------------------------------


def descend_one_row(inst, u0, t, p=0.5):
    """_descend on the one-row block u0 at the fixed weight t: (u, f_final, finite)."""
    u0 = np.asarray(u0, dtype=float)[None]
    u, f_final, _, finite = _descend(inst, u0, ObjectiveParams(t=t, p=p))
    return u[0], f_final[0], finite[0]


def test_descend_one_row_diagonal():
    inst = diag_instance([-1.0, -1.0])
    u, _, finite = descend_one_row(inst, [2.0, 2.0], 1e-6)
    assert finite
    np.testing.assert_allclose(u, np.ones(2), atol=1e-4)
    residuals, passed = verify_solution(inst, u, 1e-6)
    assert passed and residuals.fb_norm < 1e-6


def test_descend_one_row_zero_regime():
    inst, _, _ = gen_z_feasible(3, 3, 2)
    qt = q_tilde(inst.q)
    f0 = 2.0 * float(qt @ qt)
    b = BoundInputs(
        t=1.0, p=0.5, m=inst.m, normA=tensor_norm(inst.tensor),
        mu=compute_Bbar(inst.n, 0.5, 1.0), f0=f0,
    )
    t_big = 1.01 * gamma_k(1, b)
    rng = np.random.default_rng(0)
    u, _, _ = descend_one_row(inst, rng.uniform(0.5, 2.0, 3), t_big)
    np.testing.assert_allclose(u, np.zeros(3), atol=1e-6)


def test_descend_one_row_at_solution_stays():
    inst = diag_instance([-1.0, -1.0])
    params = ObjectiveParams(t=1e-12, p=0.5)
    u0 = np.ones(2)
    f_before = objective(inst, u0, params)
    u, _, _ = descend_one_row(inst, u0, params.t)
    assert objective(inst, u, params) <= f_before + 1e-12
    np.testing.assert_allclose(u, u0, atol=1e-6)
    assert verify_solution(inst, u, 1e-9)[0].fb_norm < 1e-9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_descend_one_row_overflow_is_not_finite():
    # the row drops out with a NaN objective; the driver turns that into DivergedError
    inst = diag_instance([-1.0, -1.0])
    _, f_final, finite = descend_one_row(inst, [1e200, 1e200], 0.1)
    assert not finite
    assert np.isnan(f_final)


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(starts=0)
    for p in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="p must lie in"):
            SolveOptions(p=p)


@pytest.mark.parametrize("name", ["residual_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
def test_solve_options_reject_non_finite_tolerances(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
        SolveOptions(**{name: value})


# -- polish_on_support -------------------------------------------------------------


def test_polish_scalar_newton():
    inst = diag_instance([-1.0, 0.5])
    u = np.array([0.9, 0.0])
    out, flag = polish_on_support(inst, u, [0], tol=1e-12)
    assert flag == "ok"
    assert out[0] == pytest.approx(1.0, abs=1e-12)
    assert out[1] == 0.0


def test_polish_recovers_plant():
    inst, v, support = gen_z_feasible(4, 3, 9)
    u = v + np.where(v > 0, 0.05, 0.0)
    out, flag = polish_on_support(inst, u, support, tol=1e-12)
    assert flag == "ok"
    np.testing.assert_allclose(out, v, atol=1e-10)


def test_polish_rejects_infeasible_support():
    # on the planted instance, any support missing a planted row cannot hold a
    # solution: either Newton fails or the polished point breaks feasibility
    inst, v, support = gen_z_feasible(4, 3, 9, card=2)
    wrong = [i for i in range(4) if i not in support][:1]
    out, flag = polish_on_support(inst, np.full(4, 0.5) * np.isin(np.arange(4), wrong), wrong)
    assert flag in ("negative", "not_converged", "singular")
    if flag != "ok":
        np.testing.assert_array_equal(out, np.full(4, 0.5) * np.isin(np.arange(4), wrong))


def test_polish_empty_support_raises():
    inst = diag_instance([-1.0, 0.5])
    with pytest.raises(ValueError, match="support"):
        polish_on_support(inst, np.zeros(2), [])


# -- solve_sparse_tcp ---------------------------------------------------------------


def test_solve_planted_card1():
    inst, v, support = gen_z_feasible(4, 3, 7, card=1)
    report = solve_sparse_tcp(inst, SolveOptions())
    assert report.card == 1
    assert report.converged
    np.testing.assert_allclose(report.u_final, v, atol=1e-8)


def test_solve_diagonal_nonnegative_q_returns_zero():
    inst = diag_instance([0.5, 0.2, 1.0])
    report = solve_sparse_tcp(inst, SolveOptions())
    np.testing.assert_array_equal(report.u_final, np.zeros(3))
    assert report.converged
    assert report.card == 0


def test_solve_report_fields_and_floor():
    inst, v, support = gen_z_feasible(4, 3, 3)
    report = solve_sparse_tcp(inst, SolveOptions())
    assert len(report.t_history) == 2
    assert len(report.f_history) == 2
    assert len(report.lp_history) == 2
    assert len(report.per_start) == 5
    assert report.L_used is not None and report.L_used > 0
    assert report.L_statement is not None
    nz = np.abs(report.u_final[report.u_final != 0.0])
    assert np.all(nz >= report.L_used)
    assert report.options["steps"] == 2
    assert report.t_final == report.t_history[-1] == 0.1 * 0.5**11


def test_solve_report_dict_has_one_key_per_field():
    report = solve_sparse_tcp(diag_instance([-1.0, 0.5]), SolveOptions(starts=2))
    out = report.to_dict()
    assert list(out) == [f.name for f in dataclasses.fields(report)]
    assert out["u_final"] == [float(x) for x in report.u_final]
    assert out["residuals"] == report.residuals.to_dict()
    assert out["support"] == list(report.support)
    json.dumps(out, allow_nan=False)


def test_solve_nonzero_count_bound():
    inst, v, support = gen_z_feasible(5, 3, 6)
    report = solve_sparse_tcp(inst, SolveOptions())
    assert report.converged
    bound = report.f0_used / (report.t_final * report.L_used**0.5)
    assert report.card <= bound


def test_solve_zero_regime_all_starts():
    inst, _, _ = gen_z_feasible(4, 3, 1)
    qt = q_tilde(inst.q)
    f0 = 2.0 * float(qt @ qt)
    b = BoundInputs(
        t=1.0, p=0.5, m=inst.m, normA=tensor_norm(inst.tensor),
        mu=compute_Bbar(inst.n, 0.5, 1.0), f0=f0,
    )
    t_big = 1.01 * gamma_k(1, b)
    report = solve_sparse_tcp(inst, single_t_options(t_big))
    for entry in report.per_start:
        assert np.all(np.asarray(entry["u_final"]) == 0.0)
    np.testing.assert_array_equal(report.u_final, np.zeros(4))


def test_solve_nonzero_regime_beats_zero_point():
    inst, _, _ = gen_z_feasible(4, 3, 1)
    result = brute_force_sparse(inst, OracleOptions(exhaustive=True))
    ubar = minimal_lp_select(result, 0.5)
    t_small = 0.5 * t_upper_for_nonzero(inst.q, ubar, 0.5)
    report = solve_sparse_tcp(inst, single_t_options(t_small))
    qt = q_tilde(inst.q)
    f0 = 2.0 * float(qt @ qt)
    f_final = objective(inst, report.u_final, ObjectiveParams(t=t_small, p=0.5))
    assert np.any(report.u_final != 0.0)
    assert f_final < f0


def test_solve_theorem4_path_inequality():
    # on instances the solver certifiably solves, every t_k iterate keeps
    # sum|u_i|^p within slack of the oracle minimal value
    for seed in (0, 5, 22):
        n = [3, 4, 5][seed % 3]
        inst, v, _ = gen_z_feasible(n, 3, seed)
        report = solve_sparse_tcp(inst, SolveOptions())
        assert report.converged
        np.testing.assert_allclose(report.u_final, v, atol=1e-8)
        lp_star = lp_norm_p(v, 0.5)
        for lp_k in report.lp_history:
            assert lp_k <= lp_star + 1e-4


def test_solve_deterministic():
    inst, _, _ = gen_z_feasible(4, 3, 13)
    a = solve_sparse_tcp(inst, SolveOptions(seed=5))
    b = solve_sparse_tcp(inst, SolveOptions(seed=5))
    np.testing.assert_array_equal(a.u_final, b.u_final)
    assert a.to_dict() == b.to_dict()


def test_solve_example_instance_reports_without_solution():
    # the fixed reproduction instance has an empty solution set under its
    # m=3, n=3 encoding: the driver still produces a full report
    from sparse_tcp.tensors import example_instance

    report = solve_sparse_tcp(example_instance(), SolveOptions(starts=2))
    assert not report.converged
    assert len(report.t_history) == 2
    assert report.residuals.fb_norm > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_start_is_dropped_and_the_others_report(monkeypatch):
    plain = solve_mod._initial_point

    def one_start_overflows(qt, rng, start, m):
        u = plain(qt, rng, start, m)
        return np.full_like(u, 1e200) if start == 1 else u

    monkeypatch.setattr(solve_mod, "_initial_point", one_start_overflows)
    inst, v, _ = gen_z_feasible(4, 3, 7, card=1)
    report = solve_sparse_tcp(inst, SolveOptions())
    assert [entry["start"] for entry in report.per_start] == [0, 1, 2, 3, 4]
    dropped = report.per_start[1]
    assert dropped["f_final"] is None and dropped["card"] is None
    assert any("diverged" in note for note in dropped["notes"])
    assert any("diverged" in note for note in report.discrepancies)
    for entry in report.per_start[:1] + report.per_start[2:]:
        assert entry["f_final"] is not None
    assert report.converged
    np.testing.assert_allclose(report.u_final, v, atol=1e-8)
    json.dumps(report.to_dict(), allow_nan=False)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_every_start_diverging_raises(monkeypatch):
    monkeypatch.setattr(
        solve_mod, "_initial_point", lambda qt, rng, start, m: np.full(qt.size, 1e200)
    )
    with pytest.raises(DivergedError, match="every start"):
        solve_sparse_tcp(diag_instance([-1.0, -1.0]), SolveOptions(starts=2))


# (n, seed) of planted instances where every start's former support polish
# was rejected; the card follows the benchmark's rule for instance seed % 1000
FORMER_FAILURES = ((5, 2041), (5, 2077), (5, 5059), (5, 6119), (5, 10005), (4, 8088))


@pytest.mark.parametrize("n, seed", FORMER_FAILURES)
def test_fb_newton_repair_solves_former_failures(n, seed):
    inst, v, _ = gen_z_feasible(n, 3, seed, card=(1, 2)[seed % 1000 // 3 % 2])
    report = solve_sparse_tcp(inst, SolveOptions())
    assert report.converged
    _, passed = verify_solution(inst, report.u_final, 1e-6)
    assert passed
    assert report.card == 2
    np.testing.assert_allclose(report.u_final, v, atol=1e-8)


def test_wide_instance_that_the_anneal_lost_converges():
    # the smoothing anneal gave up here at card 16; the prox descent finds the plant's card
    inst, v, support = gen_z_feasible(16, 4, 3)
    report = solve_sparse_tcp(inst, SolveOptions())
    assert report.converged
    assert verify_solution(inst, report.u_final, 1e-6)[1]
    assert report.card == len(support) == 2


def test_fb_newton_reaches_plant_and_snaps_zeros():
    inst, v, support = gen_z_feasible(5, 3, 5059, card=2)
    rng = np.random.default_rng(3)
    x0 = np.maximum(v + rng.uniform(-0.05, 0.05, (3, 5)), 0.0)
    x0[1, [i for i in range(5) if i not in support][0]] = 0.3  # a wrong extra entry
    x = _fb_newton(inst, x0)
    for row in x:
        np.testing.assert_allclose(row, v, atol=1e-12)
        assert np.all(row[v == 0.0] == 0.0)


def test_fb_newton_degenerate_pair_uses_grad_cfg():
    # at u = (1, 0) with q_2 = 0 the second pair is (u_2, w_2) = (0, 0); its
    # (v_2, z_2) = (-1, -1) gives the Jacobian row -e_2, a regular step
    inst = diag_instance([-1.0, 0.0])
    x = _fb_newton(inst, np.array([[0.5, 0.0]]))
    np.testing.assert_allclose(x[0], [1.0, 0.0], atol=1e-14)
    assert x[0, 1] == 0.0


def test_solve_multistart_tie_break():
    inst = diag_instance([0.5, 0.2])
    report = solve_sparse_tcp(inst, SolveOptions(starts=3))
    # all starts hit the zero solution: ties resolve to identical payloads
    assert report.card == 0
    assert len(report.per_start) == 3


# A contiguous block of planted seeds, disjoint from the acceptance suite's
# (0-49 and 100-109); each (n, card) of n = 3..5, card = 1..2 occurs 20 times.
DIFFERENTIAL_SEEDS = range(200, 320)


def test_solver_against_plants_on_a_seed_block():
    # the plant is a sparsest solution of its instance, so its card is the
    # oracle's min_card.  Every report must be a verified solution; card
    # matches are counted (120 of 120 measured) with room for two
    # platform-dependent rounding flips
    card_matches = 0
    for seed in DIFFERENTIAL_SEEDS:
        inst, _, support = gen_z_feasible(3 + seed % 3, 3, seed, card=1 + seed // 3 % 2)
        report = solve_sparse_tcp(inst, SolveOptions())
        assert report.converged, seed
        assert verify_solution(inst, report.u_final, 1e-6)[1], seed
        card_matches += report.card == len(support)
    assert card_matches >= len(DIFFERENTIAL_SEEDS) - 2


@pytest.mark.parametrize("p", [0.3, 0.7])
def test_newton_prox_solves_plants_at_other_p(p):
    # away from p = 1/2 the descent takes the Newton prox; on the first 48
    # seeds of the block (each (n, card) 8 times) every report verifies and
    # matches its plant's card (120 of 120 on the whole block at either p)
    card_matches = 0
    for seed in DIFFERENTIAL_SEEDS[:48]:
        inst, _, support = gen_z_feasible(3 + seed % 3, 3, seed, card=1 + seed // 3 % 2)
        report = solve_sparse_tcp(inst, SolveOptions(p=p))
        assert report.converged, seed
        assert verify_solution(inst, report.u_final, 1e-6)[1], seed
        card_matches += report.card == len(support)
    assert card_matches >= 47


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["z_feasible", "random"]),
    n=st.integers(3, 5),
    seed=st.integers(0, 10_000),
)
def test_verified_card_never_below_the_oracle_min_card(kind, n, seed):
    # a verified report is a TCP solution, so its card cannot undercut the
    # sparsest one exhaustive enumeration finds (and there must be one)
    inst = gen_instance(kind, n, 3, seed)
    report = solve_sparse_tcp(inst, SolveOptions())
    if report.converged:
        result = brute_force_sparse(inst, OracleOptions(exhaustive=True, seed=seed))
        assert result.min_card is not None
        assert report.card >= result.min_card
