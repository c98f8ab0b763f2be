"""FB function equivalence, merit values, gradient lemma against finite differences."""

from __future__ import annotations

import numpy as np
import pytest

from sparse_tcp import (
    Instance,
    ObjectiveParams,
    brute_force_sparse,
    gen_z_feasible,
    grad_check,
    grad_merit,
    identity_tensor,
    merit_fb,
    objective,
    phi_fb,
    q_tilde,
    residual_fb,
    semi_symmetrize,
    verify_solution,
)
from sparse_tcp.merit import _fb_eval, _fb_grad, _fb_slopes
from sparse_tcp.oracle import OracleOptions
from sparse_tcp.solve import smooth_grad, smooth_objective
from sparse_tcp.tensors import contract_m1, example_instance, gen_instance

GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


def in_complementarity_set(a, b):
    return a >= 0 and b >= 0 and a * b == 0


def test_phi_fb_point_values():
    assert phi_fb(0.0, 0.0) == 0.0
    assert phi_fb(3.0, 4.0) == pytest.approx(-2.0)
    assert phi_fb(-1.0, 0.0) == pytest.approx(2.0)


def test_phi_fb_grid_zero_set_exact():
    for a in GRID:
        for b in GRID:
            if in_complementarity_set(a, b):
                assert phi_fb(a, b) == 0.0, (a, b)
            else:
                assert phi_fb(a, b) != 0.0, (a, b)


def test_phi_fb_sign_trichotomy_random():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        a, b = rng.uniform(-3.0, 3.0, 2)
        val = phi_fb(a, b)
        if a > 0 and b > 0:
            assert val < 0
        elif in_complementarity_set(a, b):
            assert val == 0
        else:
            assert val > 0


def test_residual_fb_solution_points():
    inst = Instance(identity_tensor(3, 3), -np.ones(3))
    np.testing.assert_allclose(residual_fb(inst, np.ones(3)), 0.0, atol=1e-15)
    inst2 = Instance(identity_tensor(3, 3), np.array([0.3, 0.0, 1.0]))
    np.testing.assert_array_equal(residual_fb(inst2, np.zeros(3)), 0.0)


def test_residual_fb_example_candidate():
    # w at (1,0,0) is (0, 0, -1): rows give phi(1,0)=0, phi(0,0)=0, phi(0,-1)=2
    inst = example_instance()
    np.testing.assert_allclose(
        residual_fb(inst, np.array([1.0, 0.0, 0.0])), [0.0, 0.0, 2.0], atol=1e-15
    )


def test_residual_fb_dimension_mismatch():
    inst = Instance(identity_tensor(3, 3), np.zeros(3))
    with pytest.raises(ValueError, match="dim"):
        residual_fb(inst, np.ones(2))


def test_merit_at_zero_is_two_qtilde_sq():
    rng = np.random.default_rng(19)
    for _ in range(10):
        inst = gen_instance("random", 4, 3, int(rng.integers(1000)))
        qt = q_tilde(inst.q)
        assert merit_fb(inst, np.zeros(4)) == pytest.approx(2.0 * float(qt @ qt), rel=1e-13)


def test_merit_recomputes_from_residual():
    rng = np.random.default_rng(23)
    inst = gen_instance("random", 3, 3, 5)
    u = rng.uniform(-1.0, 1.0, 3)
    r = residual_fb(inst, u)
    assert merit_fb(inst, u) == pytest.approx(0.5 * float(r @ r), rel=1e-14)


def test_objective_values():
    inst = Instance(identity_tensor(2, 3), -np.ones(2))
    params = ObjectiveParams(t=0.25, p=0.5)
    qt = q_tilde(inst.q)
    assert objective(inst, np.zeros(2), params) == pytest.approx(2.0 * float(qt @ qt))
    # at the solution e the merit vanishes and only the regularization remains
    assert objective(inst, np.ones(2), params) == pytest.approx(0.25 * 2.0)
    rng = np.random.default_rng(3)
    u = rng.uniform(-1.0, 1.0, 2)
    split = merit_fb(inst, u) + 0.25 * float(np.sum(np.abs(u) ** 0.5))
    assert objective(inst, u, params) == pytest.approx(split, rel=1e-14)


def test_objective_dominates_both_parts():
    rng = np.random.default_rng(29)
    inst = gen_instance("random", 4, 3, 2)
    params = ObjectiveParams(t=0.7, p=0.5)
    for _ in range(50):
        u = rng.uniform(-2.0, 2.0, 4)
        f = objective(inst, u, params)
        assert f >= merit_fb(inst, u) - 1e-15
        assert f >= params.t * float(np.sum(np.abs(u) ** params.p)) - 1e-15


def test_coercivity_probe():
    rng = np.random.default_rng(31)
    inst = Instance(semi_symmetrize(gen_instance("random", 3, 3, 8).tensor),
                    gen_instance("random", 3, 3, 8).q)
    params = ObjectiveParams(t=0.1, p=0.5)
    for _ in range(20):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        assert objective(inst, 1e3 * d, params) > objective(inst, 10.0 * d, params)


def test_objective_params_validation():
    with pytest.raises(ValueError):
        ObjectiveParams(t=0.0, p=0.5)
    with pytest.raises(ValueError):
        ObjectiveParams(t=1.0, p=1.0)


def test_grad_merit_zero_at_solution():
    inst = Instance(identity_tensor(3, 3), -np.ones(3))
    np.testing.assert_array_equal(grad_merit(inst, np.ones(3)), np.zeros(3))


def test_batched_rows_match_one_vector_calls():
    rng = np.random.default_rng(41)
    params = ObjectiveParams(t=0.3, p=0.5)
    raw = gen_instance("random", 3, 4, 6)
    instances = [
        gen_z_feasible(4, 3, 2)[0],
        Instance(semi_symmetrize(raw.tensor), raw.q),
        Instance(semi_symmetrize(gen_instance("random", 3, 2, 1).tensor), np.ones(3)),
    ]
    for inst in instances:
        rows = rng.normal(size=(6, inst.n))
        rows[0] = 0.0
        fns = (
            lambda u: merit_fb(inst, u),
            lambda u: objective(inst, u, params),
            lambda u: grad_merit(inst, u),
            lambda u: smooth_objective(inst, u, params, 1e-3),
            lambda u: smooth_grad(inst, u, params, 1e-3),
        )
        for fn in fns:
            batch = fn(rows)
            single = np.array([fn(u) for u in rows])
            assert batch.shape == single.shape
            np.testing.assert_allclose(batch, single, rtol=1e-12, atol=1e-14)


def test_fb_eval_parts_give_objective_and_grad_merit():
    # one contract_m2 stack gives w = M u + q, the FB residual and so the
    # objective, and through _fb_slopes and _fb_grad the merit gradient J^T Phi;
    # a pair with u_i = w_i = 0 gets the slopes (v_i, z_i) = (-1, -1)
    rng = np.random.default_rng(12)
    params = ObjectiveParams(t=0.2, p=0.5)
    degenerate = Instance(identity_tensor(3, 3), np.array([-1.0, 0.0, 0.5]))
    instances = [degenerate] + [gen_z_feasible(n, m, 3)[0] for n, m in ((4, 2), (4, 3), (3, 4))]
    for inst in instances:
        u = rng.uniform(-1.0, 1.5, (5, inst.n))
        u[:2, 1] = 0.0  # w_1 = u_1^2 + q_1 = 0 there on the diagonal instance
        phi, w, r, mat = _fb_eval(inst, u)
        v, z = _fb_slopes(u, w, r)
        g = _fb_grad(inst.m, u, phi, w, r, mat)
        if inst is degenerate:
            assert np.all(r[:2, 1] == 0.0) and np.all(v[:2, 1] == -1.0) and np.all(z[:2, 1] == -1.0)
        w_ref = contract_m1(inst.tensor, u) + inst.q
        assert np.abs(w - w_ref).max() <= 1e-13 * np.abs(w_ref).max()
        f = 0.5 * (phi * phi).sum(axis=1) + params.t * (np.abs(u) ** params.p).sum(axis=1)
        np.testing.assert_allclose(f, objective(inst, u, params), rtol=1e-13, atol=0)
        for i, row in enumerate(u):
            jac = np.diag(v[i]) + (inst.m - 1) * z[i][:, None] * mat[i]
            scale = np.abs(g[i]).max()
            assert np.abs(g[i] - jac.T @ phi[i]).max() <= 1e-13 * scale
            assert np.abs(g[i] - grad_merit(inst, row)).max() <= 1e-13 * scale


def test_grad_merit_requires_semi_symmetric():
    inst = gen_instance("paper_example", 0, 0, 0)
    assert not inst.tensor.semi_symmetric()
    with pytest.raises(ValueError, match="semi-symmetric"):
        grad_merit(inst, np.ones(3))


def test_grad_merit_finite_at_degenerate_points():
    # u = 0 with q = 0 makes every pair (u_i, w_i) = (0, 0)
    inst = Instance(identity_tensor(3, 3), np.zeros(3))
    g = grad_merit(inst, np.zeros(3))
    assert np.all(np.isfinite(g))
    np.testing.assert_array_equal(g, np.zeros(3))


def test_grad_matches_finite_differences_diagonal():
    inst = Instance(identity_tensor(2, 3), -np.ones(2))
    assert grad_check(inst, 2.0 * np.ones(2), step=1e-5) < 1e-6


def test_grad_check_rejects_degenerate():
    inst = Instance(identity_tensor(2, 3), np.zeros(2))
    with pytest.raises(ValueError, match="degenerate"):
        grad_check(inst, np.zeros(2))


def test_grad_check_near_solution_small():
    inst = Instance(identity_tensor(2, 3), -np.ones(2))
    # at the solution both sides are ~0; the scaled deviation stays tiny
    assert grad_check(inst, np.ones(2), step=1e-5) < 1e-8


def _nondegenerate_points(inst, count, rng):
    pts = []
    while len(pts) < count:
        u = rng.normal(scale=1.5, size=inst.n)
        w = contract_m1(inst.tensor, u) + inst.q
        if np.min(np.hypot(u, w)) > 1e-6:
            pts.append(u)
    return pts


def test_grad_matches_finite_differences_families():
    rng = np.random.default_rng(37)
    instances = []
    for n in (2, 3, 5):
        instances.append(gen_instance("diagonal", n, 3, 1))
        instances.append(gen_z_feasible(n, 3, 2)[0])
        raw = gen_instance("random", n, 3, 3)
        instances.append(Instance(semi_symmetrize(raw.tensor), raw.q))
    for inst in instances:
        for _ in range(20):
            u = _nondegenerate_points(inst, 1, rng)[0]
            assert grad_check(inst, u, step=1e-5) < 1e-6


def test_residual_zero_iff_verifies_on_oracle_solutions():
    for seed in range(6):
        inst, _, _ = gen_z_feasible(3 + seed % 2, 3, seed)
        result = brute_force_sparse(inst, OracleOptions(exhaustive=True))
        assert result.solutions
        for u, _, _ in result.solutions:
            assert float(np.max(np.abs(residual_fb(inst, u)))) < 1e-9
            _, passed = verify_solution(inst, u, 1e-8)
            assert passed
        # a perturbed solution fails both sides
        u = result.solutions[0][0] + 0.05
        _, passed = verify_solution(inst, u, 1e-8)
        if float(np.max(np.abs(residual_fb(inst, u)))) >= 1e-9:
            assert not passed
