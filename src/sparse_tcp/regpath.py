"""l_p quasi-norm utilities, closed-form bounds, and continuation schedules.

All bound formulas take a BoundInputs bundle: the regularization weight t, the
exponent p, the tensor order m and Frobenius norm, an upper bound mu on the
norm of local minimizers, and the objective value f0 at the initial point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def lp_norm_p(u, p: float) -> float:
    """sum_j |u_j|^p (the p-th power form; p in (0, 1])."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    u = np.asarray(u, dtype=float)
    return float(np.sum(np.abs(u) ** p))


def card(u, tol_zero: float = 0.0) -> int:
    """Number of entries with |u_j| > tol_zero."""
    if tol_zero < 0:
        raise ValueError(f"tol_zero must be >= 0, got {tol_zero}")
    return int(np.count_nonzero(np.abs(np.asarray(u, dtype=float)) > tol_zero))


def q_tilde(q) -> np.ndarray:
    """Componentwise max(0, -q_i): the negative part of q."""
    return np.maximum(0.0, -np.asarray(q, dtype=float))


@dataclass(frozen=True)
class BoundInputs:
    t: float
    p: float
    m: int
    normA: float
    mu: float
    f0: float

    def __post_init__(self):
        vals = (self.t, self.p, self.normA, self.mu, self.f0)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("all bound inputs must be finite")
        if self.t <= 0 or self.mu <= 0:
            raise ValueError("need t > 0 and mu > 0")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"need p in (0, 1), got {self.p}")
        if self.normA < 0 or self.f0 < 0:
            raise ValueError("need normA >= 0 and f0 >= 0")
        if self.m < 2:
            raise ValueError(f"need order m >= 2, got {self.m}")


def _grad_envelope(b: BoundInputs) -> float:
    # 2*sqrt(2) * (1 + (m-1) * ||A|| * mu^(m-2)): bounds the merit-gradient rows.
    return 2.0 * math.sqrt(2.0) * (1.0 + (b.m - 1) * b.normA * b.mu ** (b.m - 2))


def lower_bound_L(b: BoundInputs, statement_form: bool = False) -> float:
    """Magnitude floor for nonzero entries of accepted local minimizers.

    The primary form carries the sqrt(f0) factor that the derivation produces:
    L = (t p / (2 sqrt(2) (1 + (m-1) ||A|| mu^(m-2)) sqrt(f0)))^(1/(1-p)).
    `statement_form` drops the sqrt(f0) factor; both values are reported by the
    solver so the discrepancy stays visible.
    """
    denom = _grad_envelope(b)
    if not statement_form:
        if b.f0 == 0.0:
            raise ValueError("already at global minimum: f0 = 0")
        denom *= math.sqrt(b.f0)
    try:
        return (b.t * b.p / denom) ** (1.0 / (1.0 - b.p))
    except OverflowError:
        # p -> 1 with base > 1: the floor grows without bound
        return math.inf


def gamma_k(k: int, b: BoundInputs) -> float:
    """k^(p-1) * (2 sqrt(2) (1 + (m-1)||A|| mu^(m-2)) / p)^p * f0^((2-p)/2).

    Regularization weights t >= gamma(k) force accepted local minimizers to
    have fewer than k nonzero entries; t >= gamma(1) forces the zero point.
    Strictly decreasing in k.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return (
        float(k) ** (b.p - 1.0)
        * (_grad_envelope(b) / b.p) ** b.p
        * b.f0 ** ((2.0 - b.p) / 2.0)
    )


def compute_Bbar(n: int, p: float, B: float) -> float:
    """n^(1/p - 1/2) * B: norm bound on local minimizers from a bound B on solutions."""
    if B <= 0:
        raise ValueError(f"need B > 0, got {B}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"need p in (0, 1), got {p}")
    return float(n) ** (1.0 / p - 0.5) * B


def t_upper_for_nonzero(q, ubar, p: float) -> float:
    """2 ||q~||^2 / sum|ubar_i|^p: weights at or below this keep 0 non-optimal.

    ubar must be a nonzero TCP solution for the guarantee to apply.
    """
    ubar = np.asarray(ubar, dtype=float)
    if not np.any(ubar != 0.0):
        raise ValueError("ubar must be nonzero")
    qt = q_tilde(q)
    return 2.0 * float(qt @ qt) / lp_norm_p(ubar, p)


@dataclass(frozen=True)
class Schedule:
    """Geometric continuation schedule t_k = t0 * factor^k, k = 0..steps-1."""

    t0: float
    factor: float
    steps: int

    def __post_init__(self):
        if not (self.t0 > 0 and math.isfinite(self.t0)):
            raise ValueError(f"need t0 > 0, got {self.t0}")
        if not 0.0 < self.factor < 1.0:
            raise ValueError(f"need factor in (0, 1), got {self.factor}")
        if self.steps < 1:
            raise ValueError(f"need steps >= 1, got {self.steps}")

    def value(self, k: int) -> float:
        return self.t0 * self.factor**k

    def values(self) -> list[float]:
        return [self.value(k) for k in range(self.steps)]


def threshold_by_L(u, L: float) -> np.ndarray:
    """Zero out every component with |u_i| < L; leave the rest unchanged."""
    if L <= 0:
        raise ValueError(f"need L > 0, got {L}")
    u = np.array(u, dtype=float)
    u[np.abs(u) < L] = 0.0
    return u
