"""Smoothing gradient descent for the regularized objective, with continuation.

The nonsmooth term t * sum|u_i|^p is smoothed as t * sum (u_i^2 + eps^2)^(p/2)
and eps is annealed geometrically down to EPS_MIN inside each local solve, so
one descent loop covers every p in (0, 1).  Every eps round but the last ends
once the smoothed gradient norm is at most max(grad_tol, eps), the
smoothing-gradient rule of X. Chen, "Smoothing methods for nonsmooth, nonconvex
minimization", Math. Program. 134 (2012), with gamma = 1: the next, smaller eps
replaces such a round anyway.  The last round runs to ||g|| <= grad_tol, so the
returned point meets the exact stationarity test.  The driver walks a decreasing
schedule of regularization weights with warm starts, all starts as one
batch, thresholds the final point by the closed-form magnitude floor L, and
polishes the detected support with Newton's method on the reduced square
system; a rejected polish is repaired by semismooth Newton on the full
Fischer-Burmeister system.

The default schedule has two t-steps: one warm step at t0 = 0.1, then the
final step at t_final = 0.1 * 2^-11, the weight a 12-step halving walk ends
at, so L, the zero-minimizer regime and the final objective keep their
weight.  The sparsity result is about the end of the path, and at desk
sizes (n <= 8) the intermediate steps only seed the last one: on 120 planted
instances both walks verify and match the plant on all 120, and the two-step
walk takes 186 batched descent iterations per instance instead of 627, about
a third of the time.  On 60 wider planted instances (n 48 at m 3, n 16 at
m 4) both walks converge, verify and match the plant on the same 58, in
0.58 s per instance against 1.35 s.  A single step (no warm start) loses
planted seed 269 (card 5 against 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .merit import (
    FbGradConfig,
    ObjectiveParams,
    _fb_parts,
    _rows,
    grad_merit,
    merit_fb,
    objective,
)
from .oracle import _armijo, _newton_steps, reduced_newton, verify_solution
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

EPS_MIN = 1e-10
# Eps rounds of the warm-start t-steps.  Every t-step but the last only seeds
# the next one, so it stops annealing at eps0 * eps_factor^12 (about 5e-8
# with the defaults) instead of paying the rounds down to EPS_MIN; the final
# t-step anneals fully, within opts.max_outer.
WARM_MAX_OUTER = 13
# Step lengths alpha * shrink^j, j = 0..69, one Armijo search of the descent tries.
_ARMIJO_TRIES = 70
# FB Newton repair: iteration cap, residual target max|Phi|, step lengths
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
    params: ObjectiveParams = field(default_factory=lambda: ObjectiveParams(t=0.1, p=0.5))
    # one warm t-step, then t_final = 0.1 * 2^-11 (see the module docstring)
    schedule: Schedule = field(default_factory=lambda: Schedule(0.1, 0.5**11, 2))
    eps0: float = 0.1
    eps_factor: float = 0.3
    max_outer: int = 25
    max_inner: int = 150
    armijo_c: float = 1e-4
    armijo_shrink: float = 0.5
    grad_tol: float = 1e-8
    residual_tol: float = 1e-6
    starts: int = 5
    seed: int = 0
    polish: bool = True
    grad_cfg: FbGradConfig = field(default_factory=FbGradConfig)

    def __post_init__(self):
        for name in ("eps0", "grad_tol", "residual_tol"):
            val = getattr(self, name)
            if not (val > 0 and math.isfinite(val)):
                raise ValueError(f"{name} must be finite and > 0, got {val}")
        for name in ("eps_factor", "armijo_c", "armijo_shrink"):
            val = getattr(self, name)
            if not 0.0 < val < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {val}")
        if self.max_outer < 1 or self.max_inner < 1 or self.starts < 1:
            raise ValueError("max_outer, max_inner, starts must be >= 1")

    def to_dict(self) -> dict:
        return {
            "t": self.params.t,
            "p": self.params.p,
            "t0": self.schedule.t0,
            "factor": self.schedule.factor,
            "steps": self.schedule.steps,
            "eps0": self.eps0,
            "eps_factor": self.eps_factor,
            "max_outer": self.max_outer,
            "max_inner": self.max_inner,
            "armijo_c": self.armijo_c,
            "armijo_shrink": self.armijo_shrink,
            "grad_tol": self.grad_tol,
            "residual_tol": self.residual_tol,
            "starts": self.starts,
            "seed": self.seed,
            "polish": self.polish,
            "rho": self.grad_cfg.rho,
            "xi": self.grad_cfg.xi,
        }


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
    descent_trace: list[tuple[float, float]]

    def to_dict(self) -> dict:
        return {
            "u_final": [float(x) for x in self.u_final],
            "residuals": self.residuals.to_dict(),
            "support": list(self.support),
            "L_used": self.L_used,
            "f_history": self.f_history,
            "t_history": self.t_history,
            "converged": self.converged,
            "discrepancies": self.discrepancies,
            "card": self.card,
            "lp_history": self.lp_history,
            "L_statement": self.L_statement,
            "f0_used": self.f0_used,
            "mu_used": self.mu_used,
            "B_hat": self.B_hat,
            "t_final": self.t_final,
            "per_start": self.per_start,
            "options": self.options,
        }


def smooth_objective(inst: Instance, u, params: ObjectiveParams, eps: float):
    """merit_fb(u) + t * sum (u_i^2 + eps^2)^(p/2); a length-k array for a (k, n) batch.

    Upper-bounds the true objective and exceeds it by at most t * n * eps^p.
    """
    if eps <= 0:
        raise ValueError(f"need eps > 0, got {eps}")
    u = _rows(u)
    reg = ((u * u + eps * eps) ** (params.p / 2.0)).sum(axis=-1)
    return merit_fb(inst, u) + params.t * reg


def smooth_grad(
    inst: Instance,
    u,
    params: ObjectiveParams,
    eps: float,
    cfg: FbGradConfig = FbGradConfig(),
) -> np.ndarray:
    """Gradient of smooth_objective: merit gradient plus t*p*u*(u^2+eps^2)^(p/2-1), row-wise."""
    if eps <= 0:
        raise ValueError(f"need eps > 0, got {eps}")
    u = _rows(u)
    reg_grad = params.t * params.p * u * (u * u + eps * eps) ** (params.p / 2.0 - 1.0)
    return grad_merit(inst, u, cfg) + reg_grad


def _eps_rounds(opts: SolveOptions) -> list[float]:
    rounds = []
    eps = opts.eps0
    for _ in range(opts.max_outer):
        rounds.append(eps)
        if eps <= EPS_MIN:
            break
        eps = max(eps * opts.eps_factor, EPS_MIN)
    return rounds


def _descend(inst, u0, params, opts, traces=None):
    """Annealed smoothing descent at fixed t for a (k, n) block of starts.

    Returns (u, f_rounds, max_norm, finite): the final rows, the true
    objective of every row after each eps round as a (rounds, k) array, each
    row's largest iterate norm, and a mask of the rows whose smoothed
    objective stayed finite.  A row whose objective turns non-finite at the
    start of a round stops there and is NaN in f_rounds from that round on.

    Every row walks the same eps rounds; within a round each row keeps its own
    Barzilai-Borwein step, Armijo test and exit (a small gradient, no step
    accepted, a step below machine noise, or max_inner iterations), and the
    round ends when every row has exited.  A small gradient is
    ||g|| <= max(grad_tol, eps) in every round but the last (Chen 2012, see
    the module docstring) and ||g|| <= grad_tol in the last round, whatever
    opts.max_outer makes the number of rounds.  The search direction is the
    gradient scaled by the diagonal curvature of the smoothing term,
    1 + t*p*(u_i^2 + eps^2)^(p/2 - 1), which tames the stiff near-zero
    components without giving up the Armijo descent guarantee.  The smoothed
    objective is nonincreasing across accepted steps at fixed eps and can only
    drop when eps shrinks, so the true objective never rises by more than the
    smoothing slack t * n * eps^p between accepted iterates.  With traces, a
    list of k lists, row r's true objective after every accepted step is
    appended to traces[r] as (eps, value).
    """
    u = np.array(u0, dtype=float)
    k = len(u)
    norm2 = np.einsum("ij,ij->i", u, u)  # largest squared iterate norm per row
    finite = np.ones(k, dtype=bool)
    tp, ex = params.t * params.p, params.p / 2.0 - 1.0
    f_rounds = []
    rounds = _eps_rounds(opts)
    for i, eps in enumerate(rounds):
        tol = opts.grad_tol if i == len(rounds) - 1 else max(opts.grad_tol, eps)

        def fun(x, rows=None):  # rows: _armijo's candidate row indices, unused here
            return smooth_objective(inst, x, params, eps)

        # The rows still iterating in this round, compacted: row i of x, f,
        # and the previous step (px, pd, pa) belongs to start idx[i].
        idx = np.flatnonzero(finite)
        f = fun(u[idx])
        finite[idx[~np.isfinite(f)]] = False
        keep = finite[idx]
        idx, x, f = idx[keep], u[idx[keep]], f[keep]
        px = None
        for _ in range(opts.max_inner):
            if not idx.size:
                break
            g = smooth_grad(inst, x, params, eps, opts.grad_cfg)
            keep = np.einsum("ij,ij->i", g, g) > tol**2
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
                inst, fun, x, f, d, slope, alpha, opts.armijo_c, opts.armijo_shrink, _ARMIJO_TRIES
            )
            px, pd, pa = x, d, step
            x = np.where(found[:, None], x_new, x)
            f = np.where(found, f_new, f)
            rows = idx[found]
            norm2[rows] = np.maximum(norm2[rows], np.einsum("ij,ij->i", x[found], x[found]))
            if traces is not None:
                for r, val in zip(rows, objective(inst, x[found], params)):
                    traces[r].append((eps, float(val)))
            # a row exits when no step was accepted or its step fell below machine noise
            keep = found & (step * np.abs(d).max(axis=1) >= 1e-15 * (1.0 + np.abs(x).max(axis=1)))
            if not keep.all():
                u[idx[~keep]] = x[~keep]
                idx, x, f = idx[keep], x[keep], f[keep]
                px, pd, pa = px[keep], pd[keep], pa[keep]
        u[idx] = x
        f_round = np.full(k, np.nan)
        f_round[finite] = objective(inst, u[finite], params)
        f_rounds.append(f_round)
    return u, np.array(f_rounds), np.sqrt(norm2), finite


def _support_tol(L: float | None) -> float:
    # dead zone tied to the magnitude floor, per the cardinality convention
    return max(L / 2.0, 1e-9) if L else 1e-9


def _check(inst, u, opts, L):
    """(residuals, converged): verify_solution at residual_tol plus an FB norm within it."""
    residuals, passed = verify_solution(inst, u, opts.residual_tol, tol_zero=_support_tol(L))
    return residuals, passed and residuals.fb_norm <= opts.residual_tol


def _make_report(inst, u, opts, t_final, f_hist, t_hist, lp_hist, L, L_stmt, f0, mu, B_hat,
                 discrepancies, per_start, trace):
    residuals, converged = _check(inst, u, opts, L)
    return SolveReport(
        u_final=u,
        residuals=residuals,
        support=residuals.support,
        L_used=L,
        f_history=f_hist,
        t_history=t_hist,
        converged=converged,
        discrepancies=discrepancies,
        card=card(u, _support_tol(L)),
        lp_history=lp_hist,
        L_statement=L_stmt,
        f0_used=f0,
        mu_used=mu,
        B_hat=B_hat,
        t_final=t_final,
        per_start=per_start,
        options=opts.to_dict(),
        descent_trace=trace,
    )


def minimize_local(inst: Instance, u0, opts: SolveOptions) -> SolveReport:
    """Local minimization of the regularized objective at fixed t = opts.params.t."""
    if not inst.tensor.semi_symmetric():
        raise ValueError(
            "minimize_local requires a semi-symmetric tensor; apply semi_symmetrize first"
        )
    u0 = np.asarray(u0, dtype=float).reshape(-1)
    traces: list[list[tuple[float, float]]] = [[]]
    f0 = float(objective(inst, u0, opts.params))
    u, f_rounds, max_norm, finite = _descend(inst, u0[None], opts.params, opts, traces)
    u = u[0]
    if not finite[0]:
        raise DivergedError(f"non-finite smoothed objective at iterate {u!r}", iterate=u)
    L, L_stmt, mu, B_hat = _bounds(inst, opts.params.p, opts.params.t, f0, max_norm[0])
    return _make_report(
        inst, u, opts, opts.params.t, [float(f) for f in f_rounds[:, 0]], [opts.params.t],
        [lp_norm_p(u, opts.params.p)], L, L_stmt, f0, mu, B_hat, [], [], traces[0],
    )


def polish_on_support(inst: Instance, u, support, tol: float = 1e-12):
    """Newton refinement of u on a fixed support; returns (vector, flag).

    Solves w_i(u) = 0 for i in the support with the other components pinned to
    exactly zero.  Returns the input unchanged with a flag when the reduced
    Jacobian is singular ("singular"), Newton stalls ("not_converged"), a
    polished support component goes negative, or an off-support w_j drops
    below -tol (both "negative").
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


def _fb_newton(inst: Instance, x0, opts: SolveOptions) -> np.ndarray:
    """Damped semismooth Newton on the full system Phi_FB(u) = 0, row by row.

    x0 is a (k, n) block of seeds advanced together.  The step solves
    J d = -Phi with J the generalized Jacobian of _fb_parts (its degenerate
    rows use opts.grad_cfg), and an Armijo search on ||Phi||^2 damps it over
    the lengths 1, 1/2, ..., 2^-39.  Each row stops on its own once
    max|Phi| <= _FB_TOL, on a singular Jacobian or non-finite step, or when
    no step length is accepted.  Entries with |x_i| <= _SNAP are set to
    exactly 0 in the returned rows; the caller verifies them.
    """
    x = np.array(x0, dtype=float)
    act = np.arange(len(x))  # rows still iterating
    diag = np.arange(inst.n)

    def merit(y, rows):  # rows: _armijo's candidate row indices, unused here
        return merit_fb(inst, y)

    for _ in range(_FB_ITERS):
        if not act.size:
            break
        phi, v, z, mat = _fb_parts(inst, x[act], opts.grad_cfg)
        jac = (inst.m - 1) * z[..., None] * mat
        jac[:, diag, diag] += v
        step = _newton_steps(jac, phi)
        moving = (np.max(np.abs(phi), axis=1) > _FB_TOL) & np.all(np.isfinite(step), axis=1)
        act, phi, step = act[moving], phi[moving], step[moving]
        psi = 0.5 * np.sum(phi * phi, axis=1)
        # along -step the slope of psi is -||Phi||^2 = -2 psi
        x_new, _, _, found = _armijo(
            inst, merit, x[act], psi, step, 2.0 * psi, np.ones(act.size),
            opts.armijo_c, 0.5, _FB_TRIES,
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
    """Continuation driver: descend along the t-schedule, threshold, polish.

    The starts advance together as one block along the full schedule with
    warm starts.  Each start computes the magnitude floor L at the final t
    from the norms it actually observed, thresholds, and (optionally)
    polishes the detected support.  A start whose polish is rejected is
    repaired by semismooth FB Newton on the full system, seeded from
    max(u, 0) and from |u|; the best verified seed replaces the thresholded
    point.  A start whose objective turns non-finite is dropped with a note.
    The best remaining start wins by final objective, ties broken by smaller
    cardinality and then lexicographic order.
    """
    opts = opts or SolveOptions()
    inst = semi_symmetric_instance(inst)
    rng = np.random.default_rng(opts.seed)
    qt = q_tilde(inst.q)
    t_values = opts.schedule.values()
    t_final = t_values[-1]
    p = opts.params.p
    final_params = ObjectiveParams(t=t_final, p=p)
    warm_opts = replace(opts, max_outer=min(opts.max_outer, WARM_MAX_OUTER))

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
        last = step == len(t_values) - 1
        rows = np.flatnonzero(live)
        if last:
            f0[rows] = objective(inst, u[rows], params)
        u[rows], f_rounds, mx, finite = _descend(
            inst, u[rows], params, opts if last else warm_opts
        )
        max_norm[rows] = np.maximum(max_norm[rows], mx)
        f_hist[step, rows] = f_rounds[-1]
        lp_hist[step, rows] = [lp_norm_p(x, p) for x in u[rows]]
        for r in rows[~finite]:
            notes[r].append(f"start {r}: diverged at t={t!r} (non-finite objective), dropped")
        live[rows[~finite]] = False
    if not live.any():
        raise DivergedError("every start diverged (non-finite objective)", iterate=u)

    bounds = {}  # (L, L_stmt, mu, B_hat) of every live start
    repair = []  # starts whose polish was rejected
    for r in np.flatnonzero(live):
        bounds[r] = _bounds(inst, p, t_final, f0[r], max_norm[r])
        L = bounds[r][0]
        if L is not None:
            u[r] = threshold_by_L(u[r], L)
        support = [int(i) for i in np.flatnonzero(np.abs(u[r]) > _support_tol(L))]
        if opts.polish and support:
            u_pol, flag = polish_on_support(inst, u[r], support)
            if flag == "ok":
                u[r] = u_pol
            else:
                notes[r].append(f"start {r}: polish rejected ({flag})")
                repair.append(r)
    if repair:
        seeds = np.concatenate([np.maximum(u[repair], 0.0), np.abs(u[repair])])
        seeds = _fb_newton(inst, seeds, opts)
        f_seeds = objective(inst, seeds, final_params)
        for i, r in enumerate(repair):
            L = bounds[r][0]
            verified = [
                (f_seeds[j], card(seeds[j], _support_tol(L)), tuple(seeds[j]), j)
                for j in (i, i + len(repair))
                if _check(inst, seeds[j], opts, L)[1]
            ]
            if verified:
                u[r] = seeds[min(verified)[3]]
                notes[r].append(f"start {r}: repaired by FB Newton")
            else:
                notes[r].append(f"start {r}: FB Newton repair failed")

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
    return _make_report(
        inst,
        u[best].copy(),
        opts,
        t_final,
        [float(f) for f in f_hist[:, best]],
        list(t_values),
        [float(x) for x in lp_hist[:, best]],
        L,
        L_stmt,
        float(f0[best]),
        mu,
        B_hat,
        [note for entry in notes for note in entry],
        per_start,
        [],
    )
