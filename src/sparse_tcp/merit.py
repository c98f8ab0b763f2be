"""Fischer-Burmeister residual, merit function, gradient, and regularized objective.

The FB function phi(a, b) = sqrt(a^2 + b^2) - (a + b) vanishes exactly on the
complementarity set {a >= 0, b >= 0, ab = 0}, so the stacked residual over
(u_i, w_i) with w = A u^{m-1} + q vanishes exactly at TCP solutions.  The merit
function is half its squared norm, and its gradient is smooth everywhere.

One contract_m2 stack per batch of rows (_fb_eval) gives the residual and the
parts from which _fb_grad forms the gradient, so a point is contracted once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensors import Instance, contract_m1, contract_m2


@dataclass(frozen=True)
class ObjectiveParams:
    """Regularization weight t > 0 and quasi-norm exponent p in (0, 1)."""

    t: float
    p: float

    def __post_init__(self):
        if not (self.t > 0 and math.isfinite(self.t)):
            raise ValueError(f"need t > 0, got {self.t}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"need p in (0, 1), got {self.p}")


def phi_fb(a: float, b: float) -> float:
    """sqrt(a^2 + b^2) - (a + b); zero iff a >= 0, b >= 0, and ab = 0."""
    return math.hypot(a, b) - (a + b)


def _rows(u) -> np.ndarray:
    """u as one vector of length n or a (k, n) batch of rows."""
    u = np.asarray(u, dtype=float)
    return u if u.ndim == 2 else u.reshape(-1)


def residual_fb(inst: Instance, u) -> np.ndarray:
    """Componentwise phi_fb(u_i, w_i) with w = A u^{m-1} + q, row by row for a batch."""
    u = _rows(u)
    w = contract_m1(inst.tensor, u) + inst.q
    return np.hypot(u, w) - (u + w)


def merit_fb(inst: Instance, u):
    """Half squared norm of the FB residual; zero exactly at TCP solutions.

    A float for one vector, a length-k array for a (k, n) batch of rows.
    """
    r = residual_fb(inst, u)
    return 0.5 * (r * r).sum(axis=-1)


def _fb_eval(inst: Instance, u):
    """(phi, w, r, M) of the rows u: the FB residual from one contract_m2 stack M.

    w = M u + q and r_i = ||(u_i, w_i)||.  The tensor must be semi-symmetric:
    then M u = A u^{m-1}, and (m-1) M is the Jacobian of u -> A u^{m-1}.  A
    (k, n) batch of rows gives (k, n) pieces and a (k, n, n) stack M.
    """
    mat = contract_m2(inst.tensor, u)
    w = (mat @ u[..., None])[..., 0] + inst.q
    r = np.hypot(u, w)
    return r - (u + w), w, r, mat


def _fb_slopes(u, w, r):
    """(v, z) = (u/r - 1, w/r - 1), (-1, -1) where r_i = 0: J = diag(v) + diag(z) (m-1) M."""
    r = r + (r == 0.0)  # 1 where u_i = w_i = 0, so that both quotients are 0 there
    return u / r - 1.0, w / r - 1.0


def _fb_grad(m: int, u, phi, w, r, mat) -> np.ndarray:
    """grad_merit at the rows u from their _fb_eval parts, with no contraction."""
    v, z = _fb_slopes(u, w, r)
    return v * phi + (m - 1) * ((z * phi)[..., None, :] @ mat)[..., 0, :]


def grad_merit(inst: Instance, u) -> np.ndarray:
    """Gradient of merit_fb for a semi-symmetric tensor, row by row for a batch.

    Equals J^T Phi = D_v Phi + (m-1) M(u)^T D_z Phi for the generalized
    Jacobian J of the FB residual (see _fb_slopes).  The Jacobian enters
    transposed: the chain rule applies row i of it against component i of Phi.
    """
    if not inst.tensor.semi_symmetric():
        raise ValueError(
            "grad_merit requires a semi-symmetric tensor; apply semi_symmetrize first"
        )
    u = _rows(u)
    return _fb_grad(inst.m, u, *_fb_eval(inst, u))


def objective(inst: Instance, u, params: ObjectiveParams):
    """merit_fb(u) + t * sum_i |u_i|^p; a length-k array for a (k, n) batch."""
    u = _rows(u)
    return merit_fb(inst, u) + params.t * (np.abs(u) ** params.p).sum(axis=-1)


def grad_check(inst: Instance, u, step: float = 1e-5) -> float:
    """Max relative deviation of grad_merit from central finite differences.

    Rejects points with a (near-)degenerate pair, where finite differences of
    the merit function are not trustworthy.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    w = contract_m1(inst.tensor, u) + inst.q
    r = np.hypot(u, w)
    if np.any(r <= 1e-12):
        idx = int(np.argmin(r))
        raise ValueError(
            f"degenerate pair (u_{idx}, w_{idx}) ~ (0, 0); finite differences invalid there"
        )
    g = grad_merit(inst, u)
    fd = np.empty_like(g)
    for i in range(u.size):
        up = u.copy()
        um = u.copy()
        up[i] += step
        um[i] -= step
        fd[i] = (merit_fb(inst, up) - merit_fb(inst, um)) / (2.0 * step)
    scale = max(1.0, float(np.max(np.abs(g))), float(np.max(np.abs(fd))))
    return float(np.max(np.abs(g - fd)) / scale)
