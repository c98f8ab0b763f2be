"""Support enumeration, least element, verification, and feasible sampling."""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_tcp import (
    Instance,
    OracleOptions,
    brute_force_sparse,
    card,
    gen_instance,
    gen_z_feasible,
    identity_tensor,
    least_element,
    lp_norm_p,
    minimal_lp_select,
    sample_feasible,
    solve_sparse_tcp,
    verify_solution,
)
from sparse_tcp import oracle, tensors
from sparse_tcp.oracle import LeastElementOptions, OracleResult, reduced_newton
from sparse_tcp.tensors import (
    DenseTensor,
    ResidualReport,
    contract_m1,
    contract_m2,
    example_instance,
)


def diag_instance(q):
    q = np.asarray(q, dtype=float)
    return Instance(identity_tensor(q.size, 3), q)


# -- verify_solution -----------------------------------------------------------


def test_verify_diagonal_solution():
    inst = diag_instance(-np.ones(3))
    report, passed = verify_solution(inst, np.ones(3), 1e-8)
    assert passed
    assert report.fb_norm < 1e-12
    assert report.support == (0, 1, 2)


def test_verify_negative_component_fails():
    inst = diag_instance(-np.ones(3))
    u = np.ones(3)
    u[0] = -1e-7
    report, passed = verify_solution(inst, u, 1e-8)
    assert not passed
    assert report.feas_u > 0


def test_verify_example_family():
    # the family (a + sqrt(2 a^2 + 1), 0, a): row 1 complementarity identity
    # holds exactly, but row 3 feasibility evaluates to -1 under the encoding
    inst = example_instance()
    for a in (0.0, 0.5, 1.0):
        x1 = a + np.sqrt(2 * a * a + 1)
        x = np.array([x1, 0.0, a])
        assert abs(x1 * x1 - 2 * a * x1 - a * a - 1.0) < 1e-12
        report, passed = verify_solution(inst, x, 1e-8)
        assert not passed
        assert report.feas_w == pytest.approx(1.0, abs=1e-12)


def test_verify_tol_validation():
    with pytest.raises(ValueError):
        verify_solution(diag_instance(-np.ones(2)), np.ones(2), 0.0)


# -- brute_force_sparse ---------------------------------------------------------


def test_brute_force_zero_solution():
    inst = diag_instance([0.5, 0.2, 1.0])
    result = brute_force_sparse(inst)
    assert result.min_card == 0
    np.testing.assert_array_equal(result.sparse_solution, np.zeros(3))


def test_brute_force_diagonal_full_support():
    inst = diag_instance(-np.ones(2))
    result = brute_force_sparse(inst, OracleOptions(exhaustive=True))
    assert result.min_card == 2
    assert len(result.solutions) == 1
    np.testing.assert_allclose(result.solutions[0][0], np.ones(2), atol=1e-10)


def test_brute_force_planted_card1():
    inst, v, support = gen_z_feasible(4, 3, 11, card=1)
    result = brute_force_sparse(inst, OracleOptions(exhaustive=True))
    assert result.min_card == 1
    np.testing.assert_allclose(result.sparse_solution, v, atol=1e-9)


def test_brute_force_sound():
    for seed in (0, 1, 2):
        inst, _, _ = gen_z_feasible(4, 3, seed)
        result = brute_force_sparse(inst, OracleOptions(exhaustive=True))
        for u, support, report in result.solutions:
            _, passed = verify_solution(inst, u, 1e-8)
            assert passed
            assert report.support == support
        # existence: verified solutions imply a sparse pick
        assert result.solutions and result.sparse_solution is not None
        assert result.min_card == min(len(s) for _, s, _ in result.solutions)


def test_brute_force_minimality_by_reenumeration():
    inst, v, support = gen_z_feasible(4, 3, 21)
    result = brute_force_sparse(inst, OracleOptions(exhaustive=True))
    smaller = brute_force_sparse(
        inst, OracleOptions(max_card=result.min_card - 1, exhaustive=True, newton_starts=30)
    )
    assert smaller.min_card is None
    assert not smaller.solutions


def test_brute_force_deterministic():
    inst, _, _ = gen_z_feasible(5, 3, 33)
    a = brute_force_sparse(inst, OracleOptions(seed=4, exhaustive=True))
    b = brute_force_sparse(inst, OracleOptions(seed=4, exhaustive=True))
    assert len(a.solutions) == len(b.solutions)
    for (ua, _, _), (ub, _, _) in zip(a.solutions, b.solutions):
        np.testing.assert_array_equal(ua, ub)


def test_brute_force_guard():
    inst = Instance(identity_tensor(9, 2), np.zeros(9))
    with pytest.raises(ValueError, match="n <= 8"):
        brute_force_sparse(inst)


@pytest.mark.parametrize(
    "name, value",
    [
        ("newton_starts", 0),
        ("max_card", -1),
        ("tol", float("nan")),
    ],
)
def test_oracle_options_reject_bad_values(name, value):
    with pytest.raises(ValueError, match=name):
        OracleOptions(**{name: value})


def test_brute_force_early_exit_not_exhaustive():
    inst, _, _ = gen_z_feasible(4, 3, 11, card=1)
    result = brute_force_sparse(inst)
    assert result.min_card == 1
    assert not result.exhaustive


def test_brute_force_verifies_only_screened_roots(monkeypatch):
    # the converged roots of a batch are screened together, so verify_solution
    # sees the empty support and one root per solution, not every converged
    # start (about 33 calls per instance without the screen)
    calls = []
    real = oracle.verify_solution
    monkeypatch.setattr(oracle, "verify_solution", lambda *a, **k: calls.append(1) or real(*a, **k))
    found = 0
    for i in range(12):
        inst, _, _ = gen_z_feasible((3, 4, 5)[i % 3], 3, 1000 + i, card=(1, 2)[i // 3 % 2])
        found += len(brute_force_sparse(inst, OracleOptions(exhaustive=True, seed=i)).solutions)
    assert len(calls) == 12 + found


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["random", "z_feasible"]),
    n=st.integers(2, 4),
    m=st.integers(2, 3),
    seed=st.integers(0, 10_000),
)
def test_brute_force_properties(kind, n, m, seed):
    # every reported solution verifies, the list is sorted and deduplicated,
    # and the early exit returns the exhaustive run's sparsest entries
    inst = gen_instance(kind, n, m, seed)
    opts = OracleOptions(exhaustive=True, seed=seed)
    full = brute_force_sparse(inst, opts)
    for u, support, _ in full.solutions:
        assert verify_solution(inst, u, opts.tol)[1]
    keys = [(len(sup), tuple(u)) for u, sup, _ in full.solutions]
    assert keys == sorted(keys)
    for (u, _, _), (v, _, _) in itertools.combinations(full.solutions, 2):
        assert np.max(np.abs(u - v)) >= oracle.DEDUP_TOL
    early = brute_force_sparse(inst, OracleOptions(seed=seed))
    assert early.min_card == full.min_card
    sparsest = [entry for entry in full.solutions if len(entry[1]) <= (full.min_card or 0)]
    assert len(early.solutions) == len(sparsest)
    for (u, sup, _), (v, sup_full, _) in zip(early.solutions, sparsest):
        assert sup == sup_full
        np.testing.assert_allclose(u, v, rtol=0, atol=1e-12)


# -- sign rule -----------------------------------------------------------------


def supports_up_to(n, last, first=1):
    """Supports of sizes first..last in enumeration order: by size, then lexicographic."""
    return [s for size in range(first, last + 1) for s in itertools.combinations(range(n), size)]


def ruled_out_supports(inst):
    """The supports, as sorted index tuples, that oracle._sign_ruled_out rules out."""
    table = oracle._sign_ruled_out(inst)
    return {s for s in supports_up_to(inst.n, inst.n, 0) if table[sum(1 << i for i in s)]}


def tensor_instance(m, n, entries, q):
    """Instance from a dict {multi-index: value}; every other entry is 0."""
    arr = np.zeros((n,) * m)
    for index, value in entries.items():
        arr[index] = value
    return Instance(DenseTensor(m, n, arr.reshape(-1)), np.asarray(q, dtype=float))


@pytest.mark.parametrize("m", [2, 3])
def test_sign_rule_each_rule_fires(m):
    def diag(*values):
        return {(i,) * m: v for i, v in enumerate(values)}

    # rule 1: q_0 > 0 and row 0 holds no negative entry inside {0}; at
    # {0, 1} the coupling a_0(1..1) < 0 lies inside and keeps it
    inst = tensor_instance(m, 2, {**diag(1.0, 1.0), (0,) + (1,) * (m - 1): -1.0}, [1.0, 0.0])
    assert ruled_out_supports(inst) == {(0,)}
    # rule 2: q_0 < 0 and row 0 holds no positive entry inside {0} or {0, 1}
    inst = tensor_instance(m, 2, diag(-1.0, 1.0), [-1.0, 0.0])
    assert ruled_out_supports(inst) == {(), (0,), (1,), (0, 1)}
    inst = tensor_instance(m, 2, {**diag(-1.0, 1.0), (0,) + (1,) * (m - 1): 2.0}, [-1.0, 0.0])
    assert ruled_out_supports(inst) == {(), (0,)}
    # rule 3: q_1 < 0 and row 1 holds no positive entry inside {0}, so every
    # support that misses 1 is infeasible
    inst = tensor_instance(m, 2, diag(1.0, 1.0), [0.0, -1.0])
    assert ruled_out_supports(inst) == {(), (0,)}


@pytest.mark.parametrize("q", list(itertools.product([-1.0, 0.0, 1.0], repeat=3)))
def test_sign_rule_keeps_supports_with_both_signs_in_every_row(q):
    # every row holds a positive and a negative entry inside every support of
    # size 2 or more, so no rule fires there, whatever the signs of q
    m2 = tensor_instance(2, 2, {(0, 0): 1.0, (0, 1): -1.0, (1, 0): -1.0, (1, 1): 1.0}, q[:2])
    assert (0, 1) not in ruled_out_supports(m2)
    triples = itertools.product(range(3), repeat=3)
    entries = {(i, j, k): 1.0 if j == k else -0.5 for i, j, k in triples}
    m3 = tensor_instance(3, 3, entries, q)
    assert all(len(s) < 2 for s in ruled_out_supports(m3))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(2, 3), seed=st.integers(0, 10_000))
def test_sign_rule_is_sound_at_nonnegative_points(n, m, seed):
    # at nonnegative points that vanish off a ruled-out support S, some i in S
    # has w_i != 0 with the sign of q_i, or some j off S has w_j < 0
    rng = np.random.default_rng(seed)
    signs = rng.integers(-1, 2, n**m) * (rng.random(n**m) < 0.7)
    q = rng.integers(-1, 2, n) * rng.uniform(0.1, 2.0, n)
    inst = Instance(DenseTensor(m, n, signs * rng.uniform(0.1, 2.0, n**m)), q)
    for support in ruled_out_supports(inst):
        on = np.zeros(n, dtype=bool)
        on[list(support)] = True
        u = np.where(on, rng.uniform(0.0, 3.0, (50, n)) * (rng.random((50, n)) < 0.8), 0.0)
        w = contract_m1(inst.tensor, u) + inst.q
        forbidden = np.where(on, np.sign(w) * np.sign(inst.q) > 0, w < 0)
        assert forbidden.any(axis=1).all(), (support, u[~forbidden.any(axis=1)])


def sign_rule_seeds():
    """Planted, coupled and random instances with the seed their enumeration draws with."""
    for s in range(20):
        yield gen_z_feasible(3 + s % 3, 3, s)[0], s
        yield coupled_z_instance(s), s
        yield gen_instance("random", 3 + s % 3, 3, s), s


def test_sign_rule_ruled_out_supports_hold_no_verified_root():
    # every start a ruled-out support draws in the enumeration ends on a point
    # that fails verify_solution
    ruled = 0
    for inst, seed in sign_rule_seeds():
        work = tensors.semi_symmetric_instance(inst)
        supports = supports_up_to(inst.n, inst.n)
        mask, x0 = support_batch(inst.n, supports, 20, np.random.default_rng(seed))
        out = np.repeat([s in ruled_out_supports(work) for s in supports], 20)
        xs, _ = reduced_newton(work, mask[out], x0[out])
        assert not any(verify_solution(inst, x, 1e-8)[1] for x in xs), seed
        ruled += out.sum() // 20
    assert ruled > 500  # 802 of the 1,460 supports


@pytest.mark.parametrize("exhaustive", [True, False])
def test_sign_rule_changes_no_answer(monkeypatch, exhaustive):
    # with nothing ruled out, every kept support draws the same starts, so the
    # enumeration finds the same solutions, to the last bits of the batch width
    instances = list(sign_rule_seeds())

    def enumerate_all():
        return [brute_force_sparse(inst, OracleOptions(exhaustive=exhaustive, seed=s))
                for inst, s in instances]

    results = enumerate_all()
    monkeypatch.setattr(oracle, "_sign_ruled_out", lambda inst: np.zeros(2**inst.n, dtype=bool))
    for result, full in zip(results, enumerate_all()):
        assert (result.min_card, result.exhaustive) == (full.min_card, full.exhaustive)
        assert [sup for _, sup, _ in result.solutions] == [sup for _, sup, _ in full.solutions]
        for (u, _, _), (v, _, _) in zip(result.solutions, full.solutions):
            np.testing.assert_allclose(u, v, rtol=0, atol=1e-12)


@pytest.mark.parametrize("exhaustive", [True, False])
def test_sign_rule_keeps_the_starts_of_kept_supports(monkeypatch, exhaustive):
    # the batches reduced_newton sees are the kept supports' rows of the
    # batch every support draws, bit for bit
    seen = []
    real = oracle.reduced_newton

    def spy(inst, mask, x0):
        seen.append((mask, x0))
        return real(inst, mask, x0)

    monkeypatch.setattr(oracle, "reduced_newton", spy)
    cases = [(gen_z_feasible(5, 3, 7)[0], 7), (coupled_z_instance(3), 3)]
    for inst, seed in cases + [(gen_instance("random", 4, 3, 2), 2)]:
        seen.clear()
        result = brute_force_sparse(inst, OracleOptions(exhaustive=exhaustive, seed=seed))
        last = inst.n if exhaustive or result.min_card is None else result.min_card
        supports = supports_up_to(inst.n, last)
        mask, x0 = support_batch(inst.n, supports, 20, np.random.default_rng(seed))
        ruled = ruled_out_supports(tensors.semi_symmetric_instance(inst))
        kept = np.repeat([s not in ruled for s in supports], 20)
        assert 0 < kept.sum() < kept.size
        np.testing.assert_array_equal(np.concatenate([b[0] for b in seen]), mask[kept])
        np.testing.assert_array_equal(np.concatenate([b[1] for b in seen]), x0[kept])


# -- reduced_newton ------------------------------------------------------------


def _restrict(inst, support):
    """Sub-tensor and sub-vector over the support: the square system of the reference."""
    support = list(support)
    arr = inst.tensor.as_array()[np.ix_(*([support] * inst.m))]
    return DenseTensor(inst.m, len(support), arr.reshape(-1)), inst.q[support]


def halving_newton(inst, support, x, iters=60, tol=1e-12):
    """One start of damped Newton with a scalar halving line search: the reference."""
    sub, q_sub = _restrict(inst, support)
    g = contract_m1(sub, x) + q_sub
    best, stale = np.max(np.abs(g)), 0
    for _ in range(iters):
        if np.max(np.abs(g)) <= tol:
            return x, "ok"
        try:
            step = np.linalg.solve((inst.m - 1) * contract_m2(sub, x), g)
        except np.linalg.LinAlgError:
            return x, "singular"
        if not np.all(np.isfinite(step)):
            return x, "singular"
        lam, base = 1.0, np.linalg.norm(g)
        while lam > 1e-12:
            x_new = x - lam * step
            g_new = contract_m1(sub, x_new) + q_sub
            if np.all(np.isfinite(g_new)) and np.linalg.norm(g_new) <= (1 - 0.5 * lam) * base:
                break
            lam *= 0.5
        else:
            return x, "stalled"
        x, g = x_new, g_new
        if np.max(np.abs(g)) < 0.7 * best:
            best, stale = np.max(np.abs(g)), 0
        else:
            stale += 1
            if stale >= 8:
                return x, "stalled"
    return x, "ok" if np.max(np.abs(g)) <= tol else "stalled"


def support_batch(n, supports, starts, rng):
    """(mask, x0): `starts` rows per support, drawn as the enumeration draws them."""
    mask = np.zeros((starts * len(supports), n), dtype=bool)
    x0 = np.zeros(mask.shape)
    for i, support in enumerate(supports):
        rows = slice(starts * i, starts * (i + 1))
        mask[rows, list(support)] = True
        x0[rows, list(support)] = rng.uniform(0.05, 2.0, (starts, len(support)))
    return mask, x0


def test_reduced_newton_batch_matches_single_starts():
    # every support of planted instances, 20 starts each: one batch per
    # support and one batch over all supports give every start the status
    # and root it gets alone and under the scalar reference (some m = 4 starts
    # leave by the 8-step stale rule), and every row stays 0 off its support
    statuses = set()
    for n, m, seed in ((3, 3, 0), (4, 3, 1), (5, 3, 2), (4, 4, 1)):
        inst, _, _ = gen_z_feasible(n, m, seed)
        supports = [s for size in range(1, n + 1) for s in itertools.combinations(range(n), size)]
        mask, x0 = support_batch(n, supports, 20, np.random.default_rng(seed))
        xs_all, batch_all = reduced_newton(inst, mask, x0)
        assert type(batch_all) is tuple and all(type(s) is str for s in batch_all)
        np.testing.assert_array_equal(xs_all[~mask], 0.0)
        for i, support in enumerate(supports):
            rows = slice(20 * i, 20 * (i + 1))
            xs, batch = reduced_newton(inst, mask[rows], x0[rows])
            assert batch == batch_all[rows]
            for r in range(rows.start, rows.stop):
                one, (status_one,) = reduced_newton(inst, mask[r : r + 1], x0[r : r + 1])
                ref, status_ref = halving_newton(inst, support, x0[r, list(support)])
                assert status_one == status_ref == batch_all[r]
                np.testing.assert_array_equal(one[0][~mask[r]], 0.0)
                if status_ref == "ok":
                    for x in (xs_all[r], xs[r - rows.start], one[0]):
                        np.testing.assert_allclose(x[list(support)], ref, rtol=0, atol=1e-12)
        statuses.update(batch_all)
    assert statuses == {"ok", "stalled"}


@pytest.mark.parametrize("n, m, seed", [(4, 2, 3), (3, 5, 4)])
def test_reduced_newton_batch_matches_single_starts_at_degree_1_and_4(n, m, seed):
    # the closed-form step search on residuals of degree m - 1 = 1 and 4: one
    # batch over every support gives each start the status and root it gets
    # alone and under the scalar halving reference
    inst, _, _ = gen_z_feasible(n, m, seed)
    supports = [s for size in range(1, n + 1) for s in itertools.combinations(range(n), size)]
    mask, x0 = support_batch(n, supports, 20, np.random.default_rng(seed))
    xs_all, batch_all = reduced_newton(inst, mask, x0)
    np.testing.assert_array_equal(xs_all[~mask], 0.0)
    for i, support in enumerate(supports):
        for r in range(20 * i, 20 * (i + 1)):
            one, (status_one,) = reduced_newton(inst, mask[r : r + 1], x0[r : r + 1])
            ref, status_ref = halving_newton(inst, support, x0[r, list(support)])
            assert status_one == status_ref == batch_all[r]
            if status_ref == "ok":
                for x in (xs_all[r], one[0]):
                    np.testing.assert_allclose(x[list(support)], ref, rtol=0, atol=1e-12)
    assert "ok" in batch_all


def test_reduced_newton_singular_start_stays_alone():
    # at x = 0 the m = 3 Jacobian 2 * contract_m2(A, 0) vanishes; the starts'
    # entries off the support (column 1) are ignored
    inst, _, _ = gen_z_feasible(4, 3, 5)
    mask = np.tile([True, False, True, True], (3, 1))
    x0 = np.array([[0.7, 5.0, 1.1, 0.4], [0.0, 5.0, 0.0, 0.0], [1.5, 5.0, 0.3, 0.9]])
    xs, statuses = reduced_newton(inst, mask, x0)
    assert statuses[1] == "singular"
    assert "singular" not in (statuses[0], statuses[2])
    np.testing.assert_array_equal(xs[1], np.zeros(4))
    np.testing.assert_array_equal(xs[:, 1], 0.0)
    for i in range(3):
        assert reduced_newton(inst, mask[i : i + 1], x0[i : i + 1])[1] == (statuses[i],)


def test_reduced_newton_ladder_row_blocks(monkeypatch):
    # a one-row block cap splits every residual and line coefficient
    # contraction into one-row blocks; the accepted steps, and so the
    # statuses and roots, stay the same
    inst, _, _ = gen_z_feasible(5, 3, 2)  # planted support (0, 1)
    mask, x0 = support_batch(5, [(0, 1), (0, 2)], 20, np.random.default_rng(3))
    xs, statuses = reduced_newton(inst, mask, x0)
    monkeypatch.setattr(tensors, "_BLOCK_ENTRIES", 1)
    xs_b, statuses_b = reduced_newton(inst, mask, x0)
    assert statuses_b == statuses
    np.testing.assert_allclose(xs_b, xs, rtol=0, atol=1e-12)
    assert {statuses[0], statuses[20]} == {"ok", "stalled"}


def test_reduced_newton_empty_batch():
    inst, _, _ = gen_z_feasible(3, 3, 0)
    xs, statuses = reduced_newton(inst, np.zeros((0, 3), dtype=bool), np.zeros((0, 3)))
    assert xs.shape == (0, 3) and statuses == ()


# -- minimal_lp_select ----------------------------------------------------------


def _fake_report(u):
    return ResidualReport(0.0, 0.0, 0.0, 0.0, tuple(np.flatnonzero(u)), 1e-9)


def test_minimal_lp_single_solution():
    u = np.array([0.0, 2.0])
    res = OracleResult([(u, (1,), _fake_report(u))], 1, u.copy(), {}, True)
    np.testing.assert_array_equal(minimal_lp_select(res, 0.5), u)


def test_minimal_lp_prefers_sparser_mass():
    u1 = np.array([1.0, 0.0])
    u2 = np.array([0.6, 0.6])
    res = OracleResult(
        [(u1, (0,), _fake_report(u1)), (u2, (0, 1), _fake_report(u2))], 1, u1.copy(), {}, True
    )
    picked = minimal_lp_select(res, 0.5)
    np.testing.assert_array_equal(picked, u1)
    assert lp_norm_p(u1, 0.5) < lp_norm_p(u2, 0.5)
    assert res.minimal_lp[0.5] is not None


def test_minimal_lp_empty_raises():
    res = OracleResult([], None, None, {}, True)
    with pytest.raises(ValueError, match="empty"):
        minimal_lp_select(res, 0.5)


def test_minimal_lp_nonexhaustive_warns():
    u = np.array([1.0, 0.0])
    res = OracleResult([(u, (0,), _fake_report(u))], 1, u.copy(), {}, False)
    with pytest.warns(UserWarning, match="approximate"):
        minimal_lp_select(res, 0.5)


def test_minimal_lp_agrees_with_least_element_on_planted():
    for seed in (2, 3, 4):
        inst, v, _ = gen_z_feasible(4, 3, seed)
        result = brute_force_sparse(inst, OracleOptions(exhaustive=True))
        picked = minimal_lp_select(result, 0.5)
        np.testing.assert_allclose(picked, v, atol=1e-8)


# -- least_element ---------------------------------------------------------------


def test_least_element_zero():
    inst = diag_instance([0.5, 0.2, 1.0])
    np.testing.assert_array_equal(least_element(inst), np.zeros(3))


def test_least_element_generated_diagonal_zero():
    inst = gen_instance("diagonal", 2, 3, 4)  # q drawn nonnegative
    np.testing.assert_array_equal(least_element(inst), np.zeros(2))


def test_least_element_diagonal_ones():
    inst = diag_instance(-np.ones(3))
    np.testing.assert_allclose(least_element(inst), np.ones(3), atol=1e-10)


def test_least_element_planted():
    for seed in (5, 6):
        inst, v, _ = gen_z_feasible(4, 3, seed)
        le = least_element(inst)
        np.testing.assert_allclose(le, v, atol=1e-10)


def test_least_element_dominates_samples():
    inst, v, _ = gen_z_feasible(4, 3, 8)
    le = least_element(inst)
    samples = sample_feasible(inst, 500, seed=12)
    assert samples
    for s in samples:
        assert np.all(le <= s + 1e-8)


def test_least_element_requires_z_tensor():
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 1] = 0.7
    inst = Instance(DenseTensor(3, 2, arr.reshape(-1)), np.zeros(2))
    with pytest.raises(ValueError, match="Z-tensor"):
        least_element(inst)


def test_least_element_cardinality_is_min_card():
    inst, v, support = gen_z_feasible(5, 3, 14)
    le = least_element(inst)
    result = brute_force_sparse(inst, OracleOptions(exhaustive=True))
    assert int(np.count_nonzero(le > 1e-9)) == result.min_card


def coupled_z_instance(seed):
    """Z-tensor with dense negative couplings, n 3-6 and m 3-4, about 3 in 4 solvable.

    q is minus the image of a sparse positive point plus noise, so there is no
    plant: exhaustive enumeration is the ground truth.
    """
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(3, 7)), int(rng.integers(3, 5))
    arr = -rng.uniform(0.0, 0.3, (n,) * m)
    for i in range(n):
        arr[(i,) * m] = rng.uniform(1.5, 3.0)
    tensor = DenseTensor(m, n, arr.reshape(-1))
    v = np.zeros(n)
    k = int(rng.integers(1, n))
    v[rng.choice(n, k, replace=False)] = rng.uniform(0.3, 1.0, k)
    return Instance(tensor, -contract_m1(tensor, v) + rng.uniform(-0.3, 0.3, n))


COUPLED_SEEDS = range(40)


@functools.cache
def coupled_enumeration(seed):
    """Exhaustive enumeration of coupled_z_instance(seed), run once per session
    for every test of the family below."""
    return brute_force_sparse(coupled_z_instance(seed), OracleOptions(exhaustive=True, seed=seed))


def test_least_element_coupled_family():
    # off-diagonal couplings inside the support defeat one-step guesses; the
    # least element must verify and lie below every enumerated solution, and
    # an instance without solutions must never yield a point
    solvable = correct = returned_unsolvable = 0
    for seed in COUPLED_SEEDS:
        inst = coupled_z_instance(seed)
        result = coupled_enumeration(seed)
        try:
            le = least_element(inst)
        except (ValueError, RuntimeError):
            le = None
        if not result.solutions:
            returned_unsolvable += le is not None
            continue
        solvable += 1
        correct += (
            le is not None
            and verify_solution(inst, le, 1e-8)[1]
            and all(np.all(le <= u + 1e-8) for u, _, _ in result.solutions)
        )
    assert solvable >= 20
    assert correct == solvable
    assert returned_unsolvable == 0


def test_solver_default_schedule_on_coupled_family():
    # the exhaustive oracle's min_card is the ground truth.  30 of the 40
    # seeds are solvable, and the default solver matches 27 of them: on
    # seeds 27, 34 and 36 every start stalls at a non-solution with a
    # near-zero entry.  A converged report is a verified solution, so the
    # enumeration must have found one, with a card no larger than the report's
    matched = 0
    for seed in COUPLED_SEEDS:
        result = coupled_enumeration(seed)
        report = solve_sparse_tcp(coupled_z_instance(seed))
        if report.converged:
            assert result.solutions and report.card >= result.min_card, seed
            matched += report.card == result.min_card
    assert matched >= 27


def test_least_element_runs_no_enumeration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("least_element enumerated supports")

    monkeypatch.setattr(oracle, "brute_force_sparse", refuse)
    inst, v, _ = gen_z_feasible(5, 3, 14)
    np.testing.assert_allclose(least_element(inst), v, atol=1e-10)


def assert_least_element_is_sparsest(inst, seed):
    """Whenever least_element returns, it verifies, lies below every
    enumerated solution, and its card at support_tol is the minimal one.

    Returns the exhaustive enumeration, and the least element or None when
    least_element raised.  An enumeration that found no solution at all has
    no minimal card to compare with (see the enumeration miss below).
    """
    result = brute_force_sparse(inst, OracleOptions(exhaustive=True, seed=seed))
    opts = LeastElementOptions()
    try:
        le = least_element(inst, opts)
    except (ValueError, RuntimeError):
        return result, None
    assert verify_solution(inst, le, 1e-8)[1]
    for u, _, _ in result.solutions:
        assert np.all(le <= u + 1e-8)
    if result.solutions:
        assert card(le, opts.support_tol) == result.min_card
    return result, le


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 5), seed=st.integers(0, 10_000))
def test_least_element_is_sparsest_on_planted(n, seed):
    inst, v, support = gen_z_feasible(n, 3, seed)
    result, le = assert_least_element_is_sparsest(inst, seed)
    assert result.min_card == len(support)
    np.testing.assert_allclose(le, v, atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_least_element_is_sparsest_on_coupled(seed):
    assert_least_element_is_sparsest(coupled_z_instance(seed), seed)


def test_least_element_where_the_enumeration_misses_it():
    inst = coupled_z_instance(713)
    le = least_element(inst)
    assert verify_solution(inst, le, 1e-8)[1]
    assert card(le, LeastElementOptions().support_tol) == 4


@pytest.mark.xfail(strict=True, reason="20 starts in (0.05, 2) miss the full support's root")
def test_enumeration_finds_the_least_element_of_coupled_713():
    # the nonnegative root (2.05, 2.13, 2.33, 2.85) of the full support has a
    # small Newton basin; every start lands on a root with a negative entry
    # or stalls, so the exhaustive enumeration reports no solution
    result = brute_force_sparse(coupled_z_instance(713), OracleOptions(exhaustive=True, seed=713))
    assert result.min_card == 4


def test_solver_verifies_card_3_on_random_6147():
    inst = gen_instance("random", 4, 3, 6147)
    report = solve_sparse_tcp(inst)
    assert report.converged and report.card == 3
    assert verify_solution(inst, report.u_final, 1e-8)[1]


@pytest.mark.xfail(strict=True, reason="20 starts in (0.05, 2) miss the support (0, 1, 3) root")
def test_enumeration_finds_the_solver_root_of_random_6147():
    # the solver's verified root (19.47, 17.05, 0, 6.01) draws about 11% of the
    # starts on its support; seed 6147's 20 starts all miss it and no other
    # support holds a root, so the exhaustive enumeration reports no solution.
    # The hypothesis test test_verified_card_never_below_the_oracle_min_card
    # can draw this instance and fails there
    inst = gen_instance("random", 4, 3, 6147)
    result = brute_force_sparse(inst, OracleOptions(exhaustive=True, seed=6147))
    assert result.min_card == 3


def z_matrix_instance(rows, q):
    return Instance(DenseTensor(2, len(q), np.array(rows, dtype=float).reshape(-1)), q)


def test_least_element_z_matrix():
    # not a P-matrix: the LCP has the solutions (1, 0) and (5/3, 1/3)
    inst = z_matrix_instance([[1.0, -2.0], [-2.0, 1.0]], [-1.0, 3.0])
    result = brute_force_sparse(inst, OracleOptions(exhaustive=True))
    assert len(result.solutions) == 2
    np.testing.assert_allclose(least_element(inst), [1.0, 0.0], atol=1e-12)
    # the Jacobi iterates approach (200, 200) at rate 0.995 and would settle
    # to rounding only after about 5,400 steps, past the cap; the Newton root
    # found at step 1 ends the iteration once they come within 1e-6 of it,
    # after about 3,800 steps
    inst = z_matrix_instance([[1.0, -0.995], [-0.995, 1.0]], [-1.0, -1.0])
    np.testing.assert_allclose(least_element(inst), [200.0, 200.0], rtol=1e-12)


def test_least_element_skips_root_of_a_growing_support():
    # rows 0 and 1 rise to 2 at rate 1/2; row 2 turns positive only once
    # u_0 > 2 - 5e-7, two steps after the iterates come within 1e-6 of the
    # Newton root (2, 2, 0) of support (0, 1), which fails verification
    # (w_2 = -5e-5) and so must not end the iteration
    inst = z_matrix_instance(
        [[1.0, -0.5, 0.0], [-0.5, 1.0, 0.0], [-100.0, 0.0, 1.0]], [-1.0, -1.0, 199.99995]
    )
    np.testing.assert_allclose(least_element(inst), [2.0, 2.0, 5e-5], rtol=1e-9)


def test_least_element_stops_on_nonpositive_diagonal():
    # a_00 = 0 and q_0 = -1: w_0 = -1 at every u >= 0
    arr = np.zeros((2, 2, 2))
    arr[1, 1, 1] = 1.0
    inst = Instance(DenseTensor(3, 2, arr.reshape(-1)), [-1.0, 0.5])
    with pytest.raises(ValueError, match="infeasible: row 0 has a_ii <= 0"):
        least_element(inst)


def test_least_element_stops_when_unbounded():
    # u0^2 >= 1 + 2 u1^2 and u1^2 >= 1 + 2 u0^2 cannot both hold; the iterates
    # grow by sqrt(2) per step until they overflow
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 0] = arr[1, 1, 1] = 1.0
    arr[0, 1, 1] = arr[1, 0, 0] = -2.0
    inst = Instance(DenseTensor(3, 2, arr.reshape(-1)), [-1.0, -1.0])
    with pytest.raises(ValueError, match="infeasible: the monotone iteration is unbounded"):
        least_element(inst)


def test_least_element_stops_at_step_cap():
    # infeasible (adding the rows gives -0.001 (u0 + u1) >= 2), but the iterates
    # grow only by 1.001 per step and stay finite up to the cap
    inst = z_matrix_instance([[1.0, -1.001], [-1.001, 1.0]], [-1.0, -1.0])
    with pytest.raises(RuntimeError, match="no least element found after 5000 steps"):
        least_element(inst)


# -- sample_feasible --------------------------------------------------------------


def test_sample_feasible_includes_zero_when_q_nonneg():
    inst = diag_instance([0.5, 0.2, 1.0])
    samples = sample_feasible(inst, 10, seed=0)
    assert any(np.all(s == 0.0) for s in samples)


def test_sample_feasible_forces_floor():
    inst = diag_instance(-np.ones(3))
    samples = sample_feasible(inst, 50, seed=1)
    assert samples
    for s in samples:
        assert np.all(s >= 1.0 - 1e-6)


def test_sample_feasible_z_instance_nonempty():
    inst, _, _ = gen_z_feasible(5, 3, 4)
    samples = sample_feasible(inst, 200, seed=2)
    assert len(samples) == 200
