"""Closed-form bounds against high-precision evaluation, schedules, thresholding."""

from __future__ import annotations

import numpy as np
import pytest

from sparse_tcp import (
    BoundInputs,
    Schedule,
    card,
    compute_Bbar,
    gamma_k,
    lower_bound_L,
    lp_norm_p,
    q_tilde,
    t_upper_for_nonzero,
    threshold_by_L,
)

# frozen from a 50-digit mpmath evaluation of the same formulas
L_REFERENCE = 3.4722222222222222e-07  # p=.5, t=.01, m=3, normA=1, mu=1, f0=1
GAMMA1_REFERENCE = 4.119534287814236


def test_lp_norm_p_values():
    assert lp_norm_p(np.zeros(4), 0.5) == 0.0
    assert lp_norm_p(np.array([0.0, 1.0, 0.0]), 0.3) == pytest.approx(1.0)
    assert lp_norm_p(np.array([4.0, 0.0, 9.0]), 0.5) == pytest.approx(5.0)


def test_lp_norm_p_range():
    lp_norm_p(np.ones(2), 1.0)  # closed at 1
    for bad in (0.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            lp_norm_p(np.ones(2), bad)


def test_card():
    assert card(np.zeros(3)) == 0
    assert card(np.array([1.0, 0.0, 0.0])) == 1
    assert card(np.array([1e-12, 1.0]), 1e-9) == 1
    with pytest.raises(ValueError):
        card(np.ones(2), -1.0)


def test_q_tilde():
    np.testing.assert_array_equal(q_tilde(np.array([-1.0, 0.0, 1.0])), [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(q_tilde(np.array([0.5, 2.0])), [0.0, 0.0])
    np.testing.assert_array_equal(q_tilde(-np.ones(3)), np.ones(3))


def baseline_inputs(**kw):
    base = dict(t=0.01, p=0.5, m=3, normA=1.0, mu=1.0, f0=1.0)
    base.update(kw)
    return BoundInputs(**base)


def test_lower_bound_L_frozen_value():
    assert lower_bound_L(baseline_inputs()) == pytest.approx(L_REFERENCE, rel=1e-14)


def test_lower_bound_L_monotone_in_t():
    vals = [lower_bound_L(baseline_inputs(t=t)) for t in (0.001, 0.01, 0.1, 1.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_lower_bound_L_p_to_one_limit_behavior():
    # base < 1: exponent blowup drives L to 0
    small = lower_bound_L(baseline_inputs(t=0.01, p=0.999))
    assert small < 1e-100
    # base > 1: drives L to infinity-scale values
    large = lower_bound_L(baseline_inputs(t=1e4, p=0.999))
    assert large > 1e100


def test_lower_bound_L_statement_form_relation():
    b = baseline_inputs(f0=4.0)
    proof_form = lower_bound_L(b)
    statement = lower_bound_L(b, statement_form=True)
    # sqrt(f0) = 2 in the denominator, exponent 1/(1-p) = 2: factor 4
    assert statement == pytest.approx(4.0 * proof_form, rel=1e-12)


def test_lower_bound_L_zero_f0():
    with pytest.raises(ValueError, match="global minimum"):
        lower_bound_L(baseline_inputs(f0=0.0))


def test_gamma_k_frozen_value():
    assert gamma_k(1, baseline_inputs()) == pytest.approx(GAMMA1_REFERENCE, rel=1e-14)


def test_gamma_k_k1_drops_prefactor():
    b = baseline_inputs(f0=2.0)
    expected = (2.0 * np.sqrt(2.0) * 3.0 / 0.5) ** 0.5 * 2.0 ** 0.75
    assert gamma_k(1, b) == pytest.approx(expected, rel=1e-12)


def test_gamma_k_strictly_decreasing():
    b = baseline_inputs()
    vals = [gamma_k(k, b) for k in range(1, 9)]
    assert all(a > b_ for a, b_ in zip(vals, vals[1:]))


def test_gamma_k_input_validation():
    with pytest.raises(ValueError):
        gamma_k(0, baseline_inputs())


def test_compute_Bbar():
    assert compute_Bbar(1, 0.5, 3.0) == pytest.approx(3.0)
    assert compute_Bbar(4, 0.5, 1.0) == pytest.approx(8.0)
    assert compute_Bbar(9, 2.0 / 3.0, 2.0) == pytest.approx(18.0)
    with pytest.raises(ValueError):
        compute_Bbar(4, 0.5, 0.0)


def test_t_upper_for_nonzero():
    assert t_upper_for_nonzero(np.array([0.5, 1.0]), np.ones(2), 0.5) == 0.0
    assert t_upper_for_nonzero(-np.ones(2), np.ones(2), 0.5) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="nonzero"):
        t_upper_for_nonzero(-np.ones(2), np.zeros(2), 0.5)


def test_schedule():
    s = Schedule(1.0, 0.5, 3)
    assert s.values() == [1.0, 0.5, 0.25]
    assert s.value(2) == 0.25
    Schedule(1.0, 0.9999, 2)
    with pytest.raises(ValueError):
        Schedule(1.0, 1.0, 2)
    with pytest.raises(ValueError):
        Schedule(-1.0, 0.5, 2)


def test_schedule_positive_strictly_decreasing():
    s = Schedule(0.3, 0.77, 40)
    vals = s.values()
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_threshold_by_L():
    u = np.array([0.5, 2.0])
    np.testing.assert_array_equal(threshold_by_L(u, 0.25), u)
    np.testing.assert_array_equal(threshold_by_L(np.array([0.5, 2.0]), 1.0), [0.0, 2.0])
    with pytest.raises(ValueError):
        threshold_by_L(u, 0.0)


def test_threshold_floor_property():
    rng = np.random.default_rng(41)
    for _ in range(50):
        u = rng.normal(size=6)
        L = float(rng.uniform(0.1, 1.5))
        out = threshold_by_L(u, L)
        nz = out[out != 0.0]
        assert np.all(np.abs(nz) >= L)


def test_two_sided_norm_inequality():
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        u = rng.normal(size=n)
        p = float(rng.uniform(0.2, 0.95))
        l2 = float(np.linalg.norm(u))
        lp = lp_norm_p(u, p) ** (1.0 / p)
        assert l2 <= lp * (1 + 1e-12)
        assert lp <= n ** (1.0 / p - 0.5) * l2 * (1 + 1e-12)


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(t=-1.0, p=0.5, m=3, normA=1.0, mu=1.0, f0=1.0)
    with pytest.raises(ValueError):
        BoundInputs(t=1.0, p=0.5, m=3, normA=1.0, mu=np.inf, f0=1.0)
    with pytest.raises(ValueError):
        BoundInputs(t=1.0, p=1.2, m=3, normA=1.0, mu=1.0, f0=1.0)
