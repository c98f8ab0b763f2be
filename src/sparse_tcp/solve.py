"""Smoothing gradient descent for the regularized objective, with continuation.

The nonsmooth term t * sum|u_i|^p is smoothed as t * sum (u_i^2 + eps^2)^(p/2),
so one descent loop covers every p in (0, 1).  Every t-step anneals eps over
the same geometric rounds _EPS_ROUNDS, from 0.1 down to 0.1 * 0.3^12 (about
5e-8), and every round ends once the smoothed gradient norm is at most eps,
the smoothing-gradient rule of X. Chen, "Smoothing methods for nonsmooth,
nonconvex minimization", Math. Program. 134 (2012), with gamma = 1.  No round
polishes to an exact stationarity test: the driver walks a decreasing
schedule of regularization weights with warm starts, all starts as one batch,
thresholds the final point by the closed-form magnitude floor L, and finishes
every nonzero thresholded point with semismooth Newton on the full
Fischer-Burmeister system (De Luca, Facchinei, Kanzow, Math. Program. 75,
1996), whose verified root replaces the descent's point.

The default schedule has two t-steps: one warm step at t0 = 0.1, then the
final step at t_final = 0.1 * 2^-11, the weight a 12-step halving walk ends
at, so L, the zero-minimizer regime and the final objective keep their
weight.  The sparsity result is about the end of the path, and at desk
sizes (n <= 8) the intermediate steps only seed the last one: the two-step
walk verifies and matches the plant on the same planted instances as the
12-step walk, in far fewer descent iterations.  A single step (no warm
start) loses planted seed 269 (card 5 against 2).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .merit import ObjectiveParams, _fb_parts, _rows, grad_merit, merit_fb, objective
from .oracle import _in_blocks, _newton_steps, _rows_per_call, reduced_newton, verify_solution
from .regpath import (
    BoundInputs,
    Schedule,
    card,
    compute_Bbar,
    lower_bound_L,
    lp_norm_p,
    q_tilde,
    threshold_by_L,
)
from .tensors import Instance, ResidualReport, contract_m1, semi_symmetric_instance, tensor_norm

# Anneal: the eps rounds 0.1 * 0.3^i, i < 13, of every t-step, built by
# repeated multiplication; each round runs at most _MAX_INNER descent iterations.
_EPS_ROUNDS = tuple(np.cumprod([0.1] + [0.3] * 12).tolist())
_MAX_INNER = 150
# Armijo sufficient-decrease constant of the descent and the FB Newton finish;
# the descent tries the step lengths alpha * _ARMIJO_SHRINK^j, j = 0..69.
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5
_ARMIJO_TRIES = 70
# FB Newton finish: iteration cap, residual target max|Phi|, step lengths
# 1, 1/2, ..., 2^-39 per line search, and the magnitude snapped to exact 0.
_FB_ITERS = 50
_FB_TOL = 1e-14
_FB_TRIES = 40
_SNAP = 1e-12


class DivergedError(RuntimeError):
    """Raised when the objective turns non-finite; carries the iterate."""

    def __init__(self, message, iterate=None):
        super().__init__(message)
        self.iterate = iterate


@dataclass
class SolveOptions:
    p: float = 0.5
    # one warm t-step, then t_final = 0.1 * 2^-11 (see the module docstring)
    schedule: Schedule = field(default_factory=lambda: Schedule(0.1, 0.5**11, 2))
    residual_tol: float = 1e-6
    starts: int = 5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        if not (self.residual_tol > 0 and math.isfinite(self.residual_tol)):
            raise ValueError(f"residual_tol must be finite and > 0, got {self.residual_tol}")
        if self.starts < 1:
            raise ValueError(f"starts must be >= 1, got {self.starts}")

    def to_dict(self) -> dict:
        """Every field, with the schedule flattened into t0, factor and steps."""
        out = asdict(self)
        out.update(out.pop("schedule"))
        return out


@dataclass
class SolveReport:
    u_final: np.ndarray
    residuals: ResidualReport
    support: tuple[int, ...]
    L_used: float | None
    f_history: list[float]
    t_history: list[float]
    converged: bool
    discrepancies: list[str]
    card: int
    lp_history: list[float]
    L_statement: float | None
    f0_used: float
    mu_used: float
    B_hat: float
    t_final: float
    per_start: list[dict]
    options: dict

    def to_dict(self) -> dict:
        """Every field, with u_final, residuals and support made JSON-ready."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(
            u_final=[float(x) for x in self.u_final],
            residuals=self.residuals.to_dict(),
            support=list(self.support),
        )
        return out


def smooth_objective(inst: Instance, u, params: ObjectiveParams, eps: float):
    """merit_fb(u) + t * sum (u_i^2 + eps^2)^(p/2); a length-k array for a (k, n) batch.

    Upper-bounds the true objective and exceeds it by at most t * n * eps^p.
    """
    if eps <= 0:
        raise ValueError(f"need eps > 0, got {eps}")
    u = _rows(u)
    reg = ((u * u + eps * eps) ** (params.p / 2.0)).sum(axis=-1)
    return merit_fb(inst, u) + params.t * reg


def smooth_grad(inst: Instance, u, params: ObjectiveParams, eps: float) -> np.ndarray:
    """Gradient of smooth_objective: merit gradient plus t*p*u*(u^2+eps^2)^(p/2-1), row-wise."""
    if eps <= 0:
        raise ValueError(f"need eps > 0, got {eps}")
    u = _rows(u)
    reg_grad = params.t * params.p * u * (u * u + eps * eps) ** (params.p / 2.0 - 1.0)
    return grad_merit(inst, u) + reg_grad


def _armijo(inst, fun, u, f, d, slope, alpha, c, shrink, tries):
    """Backtracking Armijo search along u - step * d for every row at once.

    Row r accepts the first step alpha_r * shrink^j, j = 0 .. tries-1, whose
    fun value is at most f_r - c * step * slope_r (a NaN value never is): the
    step a backtracking loop would accept.  fun(x) maps a block of candidate
    points to their values.  The full steps are evaluated first; the rows
    that reject theirs evaluate the ladder of shorter steps, stopping after
    the span of steps in which every row found its step.  Every fun call gets
    rows of at most the oracle's _LADDER_ENTRIES Kronecker entries in all, or
    one row.  Returns (u_new, f_new, step, found); rows with found False
    accepted no step and hold meaningless values.
    """
    u_new = u - alpha[:, None] * d
    f_new = _in_blocks(inst, fun, u_new)
    found = f_new <= f - c * alpha * slope
    if found.all():
        return u_new, f_new, alpha, found
    step = alpha.copy()
    pending = np.flatnonzero(~found)
    per_call = _rows_per_call(inst)
    j = 1
    while pending.size and j < tries:
        span = min(max(1, per_call // pending.size), tries - j)
        steps = alpha[pending, None] * shrink ** np.arange(j, j + span)
        cand = u[pending, None, :] - steps[..., None] * d[pending, None, :]
        f_cand = _in_blocks(inst, fun, cand.reshape(-1, u.shape[1])).reshape(steps.shape)
        ok = f_cand <= f[pending, None] - c * steps * slope[pending, None]
        rung = np.argmax(ok, axis=1)  # first accepted step of each row
        hit = ok[np.arange(pending.size), rung]
        rows, rung = pending[hit], rung[hit]
        u_new[rows] = cand[hit, rung]
        f_new[rows] = f_cand[hit, rung]
        step[rows] = steps[hit, rung]
        found[rows] = True
        pending = pending[~hit]
        j += span
    return u_new, f_new, step, found


def _descend(inst, u0, params):
    """Annealed smoothing descent at fixed t for a (k, n) block of starts.

    Returns (u, f_final, max_norm, finite): the final rows, the true
    objective of every row after the last eps round, each row's largest
    iterate norm, and a mask of the rows whose smoothed objective stayed
    finite.  A row whose objective turns non-finite at the start of a round
    stops there and is NaN in f_final.

    Every row walks the eps rounds _EPS_ROUNDS; within a round each row keeps
    its own Barzilai-Borwein step, Armijo test and exit (||g|| <= eps, see the
    module docstring; no step accepted; a step below machine noise; or
    _MAX_INNER iterations), and the round ends when every row has exited.
    The search direction is the gradient scaled by the diagonal curvature of
    the smoothing term, 1 + t*p*(u_i^2 + eps^2)^(p/2 - 1), which tames the
    stiff near-zero components without giving up the Armijo descent
    guarantee.  The smoothed objective is nonincreasing across accepted steps
    at fixed eps and can only drop when eps shrinks, so the true objective
    never rises by more than the smoothing slack t * n * eps^p between
    accepted iterates.
    """
    u = np.array(u0, dtype=float)
    k = len(u)
    norm2 = np.einsum("ij,ij->i", u, u)  # largest squared iterate norm per row
    finite = np.ones(k, dtype=bool)
    tp, ex = params.t * params.p, params.p / 2.0 - 1.0
    for eps in _EPS_ROUNDS:

        def fun(x):
            return smooth_objective(inst, x, params, eps)

        # The rows still iterating in this round, compacted: row i of x, f,
        # and the previous step (px, pd, pa) belongs to start idx[i].
        idx = np.flatnonzero(finite)
        f = fun(u[idx])
        finite[idx[~np.isfinite(f)]] = False
        keep = finite[idx]
        idx, x, f = idx[keep], u[idx[keep]], f[keep]
        px = None
        for _ in range(_MAX_INNER):
            if not idx.size:
                break
            g = smooth_grad(inst, x, params, eps)
            keep = np.einsum("ij,ij->i", g, g) > eps**2
            if not keep.all():
                u[idx[~keep]] = x[~keep]
                idx, x, f, g = idx[keep], x[keep], f[keep], g[keep]
                if px is not None:
                    px, pd, pa = px[keep], pd[keep], pa[keep]
                if not idx.size:
                    break
            d = g / (1.0 + tp * (x * x + eps * eps) ** ex)
            slope = np.einsum("ij,ij->i", g, d)  # positive: d is a descent direction
            if px is None:
                alpha = np.ones(idx.size)
            else:
                s, y = x - px, d - pd
                sy = np.einsum("ij,ij->i", s, y)
                ss = np.einsum("ij,ij->i", s, s)
                alpha = np.divide(ss, sy, out=pa.copy(), where=sy > 1e-300)
                alpha = np.minimum(np.minimum(alpha, 4.0 * pa), 1e4)
            alpha = np.maximum(alpha, 1e-18)
            x_new, f_new, step, found = _armijo(
                inst, fun, x, f, d, slope, alpha, _ARMIJO_C, _ARMIJO_SHRINK, _ARMIJO_TRIES
            )
            px, pd, pa = x, d, step
            x = np.where(found[:, None], x_new, x)
            f = np.where(found, f_new, f)
            rows = idx[found]
            norm2[rows] = np.maximum(norm2[rows], np.einsum("ij,ij->i", x[found], x[found]))
            # a row exits when no step was accepted or its step fell below machine noise
            keep = found & (step * np.abs(d).max(axis=1) >= 1e-15 * (1.0 + np.abs(x).max(axis=1)))
            if not keep.all():
                u[idx[~keep]] = x[~keep]
                idx, x, f = idx[keep], x[keep], f[keep]
                px, pd, pa = px[keep], pd[keep], pa[keep]
        u[idx] = x
    f_final = np.full(k, np.nan)
    f_final[finite] = objective(inst, u[finite], params)
    return u, f_final, np.sqrt(norm2), finite


def _support_tol(L: float | None) -> float:
    # dead zone tied to the magnitude floor, per the cardinality convention
    return max(L / 2.0, 1e-9) if L else 1e-9


def _check(inst, u, opts, L):
    """(residuals, converged): verify_solution at residual_tol plus an FB norm within it."""
    residuals, passed = verify_solution(inst, u, opts.residual_tol, tol_zero=_support_tol(L))
    return residuals, passed and residuals.fb_norm <= opts.residual_tol


def polish_on_support(inst: Instance, u, support, tol: float = 1e-12):
    """Newton refinement of u on a fixed support; returns (vector, flag).

    Solves w_i(u) = 0 for i in the support with the other components pinned to
    exactly zero.  Returns the input unchanged with a flag when the reduced
    Jacobian is singular ("singular"), Newton stalls ("not_converged"), a
    polished support component goes negative, or an off-support w_j drops
    below -tol (both "negative").  solve_sparse_tcp no longer calls it (its
    FB Newton finish verifies the same instances without it); it stays
    because the benchmark's tracer still hooks it by name.
    """
    support = sorted(int(i) for i in support)
    if not support:
        raise ValueError("support must be nonempty")
    u = np.asarray(u, dtype=float).reshape(-1)
    on = np.zeros(u.size, dtype=bool)
    on[support] = True
    (u_new,), (status,) = reduced_newton(semi_symmetric_instance(inst), on[None], u[None], tol=tol)
    if status == "singular":
        return u.copy(), "singular"
    if status != "ok":
        return u.copy(), "not_converged"
    if np.any(u_new[on] < 0.0):
        return u.copy(), "negative"
    w = contract_m1(inst.tensor, u_new) + inst.q
    if np.any(w[~on] < -tol):
        return u.copy(), "negative"
    return u_new, "ok"


def _initial_point(qt: np.ndarray, rng: np.random.Generator, start: int, m: int) -> np.ndarray:
    # Starts alternate between the raw q~ scale and its (m-1)-th root (w scales
    # like u^(m-1), so the root is the natural magnitude of solution entries),
    # and the perturbation cycles over an octave ladder, so the starts explore
    # genuinely different basins instead of clustering.
    base = np.maximum(qt, 0.1)
    if start % 2 == 1:
        base = base ** (1.0 / (m - 1))
    scale = 0.1 * 2.0 ** (start % 5)
    return base + rng.uniform(0.0, scale, qt.size)


def _fb_newton(inst: Instance, x0) -> np.ndarray:
    """Damped semismooth Newton on the full system Phi_FB(u) = 0, row by row.

    x0 is a (k, n) block of seeds advanced together.  The step solves
    J d = -Phi with J the generalized Jacobian of _fb_parts (a degenerate
    pair gets (v_i, z_i) = (-1, -1)), and an Armijo search on
    ||Phi||^2 damps it over the lengths 1, 1/2, ..., 2^-39.  Each row stops
    on its own once max|Phi| <= _FB_TOL, on a singular Jacobian or non-finite
    step, or when no step length is accepted.  Entries with |x_i| <= _SNAP
    are set to exactly 0 in the returned rows; the caller verifies them.
    """
    x = np.array(x0, dtype=float)
    act = np.arange(len(x))  # rows still iterating
    diag = np.arange(inst.n)

    for _ in range(_FB_ITERS):
        if not act.size:
            break
        phi, v, z, mat = _fb_parts(inst, x[act])
        jac = (inst.m - 1) * z[..., None] * mat
        jac[:, diag, diag] += v
        step = _newton_steps(jac, phi)
        moving = (np.max(np.abs(phi), axis=1) > _FB_TOL) & np.all(np.isfinite(step), axis=1)
        act, phi, step = act[moving], phi[moving], step[moving]
        psi = 0.5 * np.sum(phi * phi, axis=1)
        # along -step the slope of psi is -||Phi||^2 = -2 psi
        x_new, _, _, found = _armijo(
            inst, lambda y: merit_fb(inst, y), x[act], psi, step, 2.0 * psi, np.ones(act.size),
            _ARMIJO_C, 0.5, _FB_TRIES,
        )
        act = act[found]
        x[act] = x_new[found]
    x[np.abs(x) <= _SNAP] = 0.0
    return x


def _bounds(inst, p, t, f0, max_norm):
    """(L, L_stmt, mu, B_hat) of one start: its floors at weight t from f0 and its largest norm.

    Both floors are None when f0 is 0, where the start began at a global minimum.
    """
    B_hat = max(1.0, float(max_norm))
    mu = compute_Bbar(inst.n, p, B_hat)
    if not f0 > 0.0:
        return None, None, mu, B_hat
    b = BoundInputs(t, p, inst.m, tensor_norm(inst.tensor), mu, float(f0))
    return lower_bound_L(b), lower_bound_L(b, statement_form=True), mu, B_hat


def solve_sparse_tcp(inst: Instance, opts: SolveOptions | None = None) -> SolveReport:
    """Continuation driver: descend along the t-schedule, threshold, finish.

    The starts advance together as one block along the full schedule with
    warm starts.  Each start computes the magnitude floor L at the final t
    from the norms it actually observed and thresholds.  Every start with a
    nonzero thresholded point is finished by semismooth FB Newton on the full
    system, all as one block, seeded from max(u, 0) and from |u|; the best
    verified seed replaces the point, else a note says the finish failed.
    A start whose objective turns non-finite is dropped with a note, so
    floating-point overflow and invalid-value warnings are silenced.  The
    best remaining start wins by final objective, ties broken by smaller
    cardinality and then lexicographic order.
    """
    opts = opts or SolveOptions()
    with np.errstate(over="ignore", invalid="ignore"):
        inst = semi_symmetric_instance(inst)
        rng = np.random.default_rng(opts.seed)
        qt = q_tilde(inst.q)
        t_values = opts.schedule.values()
        t_final = t_values[-1]
        p = opts.p
        final_params = ObjectiveParams(t=t_final, p=p)

        k = opts.starts
        u = np.array([_initial_point(qt, rng, start, inst.m) for start in range(k)])
        max_norm = np.maximum(1.0, np.linalg.norm(u, axis=1))
        f_hist = np.full((len(t_values), k), np.nan)
        lp_hist = np.full((len(t_values), k), np.nan)
        f0 = np.full(k, np.nan)
        live = np.ones(k, dtype=bool)
        notes: list[list[str]] = [[] for _ in range(k)]
        for step, t in enumerate(t_values):
            params = ObjectiveParams(t=t, p=p)
            rows = np.flatnonzero(live)
            if step == len(t_values) - 1:
                f0[rows] = objective(inst, u[rows], params)
            u[rows], f_hist[step, rows], mx, finite = _descend(inst, u[rows], params)
            max_norm[rows] = np.maximum(max_norm[rows], mx)
            lp_hist[step, rows] = [lp_norm_p(x, p) for x in u[rows]]
            for r in rows[~finite]:
                notes[r].append(f"start {r}: diverged at t={t!r} (non-finite objective), dropped")
            live[rows[~finite]] = False
        if not live.any():
            raise DivergedError("every start diverged (non-finite objective)", iterate=u)

        bounds = {}  # (L, L_stmt, mu, B_hat) of every live start
        finish = []  # starts with a nonzero thresholded point
        for r in np.flatnonzero(live):
            bounds[r] = _bounds(inst, p, t_final, f0[r], max_norm[r])
            L = bounds[r][0]
            if L is not None:
                u[r] = threshold_by_L(u[r], L)
            if np.any(np.abs(u[r]) > _support_tol(L)):
                finish.append(r)
        if finish:
            seeds = np.concatenate([np.maximum(u[finish], 0.0), np.abs(u[finish])])
            seeds = _fb_newton(inst, seeds)
            f_seeds = objective(inst, seeds, final_params)
            for i, r in enumerate(finish):
                L = bounds[r][0]
                verified = [
                    (f_seeds[j], card(seeds[j], _support_tol(L)), tuple(seeds[j]), j)
                    for j in (i, i + len(finish))
                    if _check(inst, seeds[j], opts, L)[1]
                ]
                if verified:
                    u[r] = seeds[min(verified)[3]]
                else:
                    notes[r].append(f"start {r}: FB Newton finish failed")

        f_final = np.full(k, np.nan)
        f_final[live] = objective(inst, u[live], final_params)
        cards = {r: card(u[r], _support_tol(bounds[r][0])) for r in bounds}
        per_start = [
            {
                "start": r,
                "u_final": [float(x) for x in u[r]],
                "f_final": float(f_final[r]) if live[r] else None,
                "card": cards.get(r),
                "notes": notes[r],
            }
            for r in range(k)
        ]
        best = min(bounds, key=lambda r: (f_final[r], cards[r], tuple(u[r])))
        L, L_stmt, mu, B_hat = bounds[best]
        residuals, converged = _check(inst, u[best], opts, L)
    return SolveReport(
        u_final=u[best].copy(),
        residuals=residuals,
        support=residuals.support,
        L_used=L,
        f_history=[float(f) for f in f_hist[:, best]],
        t_history=list(t_values),
        converged=converged,
        discrepancies=[note for entry in notes for note in entry],
        card=cards[best],
        lp_history=[float(x) for x in lp_hist[:, best]],
        L_statement=L_stmt,
        f0_used=float(f0[best]),
        mu_used=mu,
        B_hat=B_hat,
        t_final=t_final,
        per_start=per_start,
        options=opts.to_dict(),
    )
