"""Proximal-gradient descent on the l_p-regularized objective, with continuation.

At a fixed weight t the descent minimizes F(u) = merit_fb(u) + t * sum|u_i|^p
itself: a gradient step on the merit function, then the exact scalar prox of
alpha * t * |.|^p, which sets small entries to exactly 0.  At p = 1/2 the prox
is the half-thresholding operator of Z. Xu, X. Chang, F. Xu, H. Zhang, IEEE
TNNLS 23 (2012); at other p it is 0 up to a closed-form threshold and the
larger root of x + lam p x^(p-1) = |y| beyond it (W. Zuo, D. Meng, L. Zhang,
X. Feng, D. Zhang, ICCV 2013).  Each batch of trial points is evaluated once:
one contract_m2 stack gives its objective and, for an accepted step, the merit
gradient of the next one; a line search tests every row's full step in one
call and sends only the rows that reject it down a ladder of 4, then 20, then
the remaining shorter steps per call.  solve_sparse_tcp walks a decreasing
schedule of weights with warm starts, all starts as one batch, thresholds the
final point by the closed-form magnitude floor L, and finishes every nonzero
thresholded point with semismooth Newton on the full Fischer-Burmeister system
(De Luca, Facchinei, Kanzow, Math. Program. 75, 1996), whose verified root
replaces it, each of its step lengths found in closed form (see _fb_newton).

The default schedule has two t-steps: a warm step at t0 = 0.1, then the final
step at t_final = 0.1 * 2^-11, where a 12-step halving walk ends, so L, the
zero-minimizer regime and the final objective keep their weight.  At desk
sizes (n <= 8) the intermediate steps only seed the last one; a single step
(no warm start) loses planted seed 269 (card 5 against 2).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .merit import ObjectiveParams, _fb_eval, _fb_grad, _fb_slopes, _rows, grad_merit, merit_fb
from .merit import objective
from .oracle import _NEWTON_TRIES, _newton_steps, reduced_newton, verify_solution
from .regpath import (
    BoundInputs,
    Schedule,
    card,
    compute_Bbar,
    lower_bound_L,
    q_tilde,
    threshold_by_L,
)
from .tensors import (
    Instance,
    ResidualReport,
    block_rows,
    contract_line,
    contract_m1,
    semi_symmetric_instance,
    tensor_norm,
)

# Prox descent (see _descend): first step length of every t-step (a first step
# of 1 sends planted seed 102 to the zero minimizer at small t), clip of the
# Barzilai-Borwein steps, iteration cap per t-step, and the stop rules' values.
_STEP0 = 0.1
_STEP_MIN, _STEP_MAX = 1e-12, 1e4
_MAX_INNER = 150
_STOP_TOL = 1e-9
_HELD_STEPS = 5
_HELD_TOL = 1e-4
# Newton iterations of the prox root at p != 1/2 (it converges in far fewer).
_PROX_ITERS = 60
# Sufficient-decrease constant of the descent and the FB Newton finish; the
# descent tries the step lengths alpha * _ARMIJO_SHRINK^j, j = 0..69, and the
# finish the 1, 1/2, ..., 2^-39 of the oracle's _NEWTON_TRIES.
_ARMIJO_C = 1e-4
_ARMIJO_SHRINK = 0.5
_ARMIJO_TRIES = 70
# FB Newton finish: iteration cap, residual target max|Phi|, magnitude snapped to 0.
_FB_ITERS = 50
_FB_TOL = 1e-14
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
    """merit_fb(u) + t * sum (u_i^2 + eps^2)^(p/2), row-wise: F smoothed, within t * n * eps^p.

    Like smooth_grad, no longer called by the solver: kept for the benchmark's tracer.
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


def _prox_threshold(lam, p: float):
    """Largest |y| whose prox of lam * |.|^p is 0: (2-p)/(2-2p) * (2 lam (1-p))^(1/(2-p))."""
    return (2.0 - p) / (2.0 - 2.0 * p) * (2.0 * lam * (1.0 - p)) ** (1.0 / (2.0 - p))


def _prox_half(y, lam):
    """argmin_x (x - y)^2 / 2 + lam |x|^(1/2), entrywise: the half-thresholding operator.

    Xu et al. state it for (x - y)^2 + lam' |x|^(1/2), lam' = 2 lam; lam
    broadcasts against y.  Entries up to the threshold are evaluated at it
    and then replaced by 0, which keeps the computation dense.
    """
    a = np.abs(y)
    thr = 1.5 * lam ** (2.0 / 3.0)  # _prox_threshold(lam, 0.5), bit for bit
    phi = np.arccos(lam / 4.0 * (np.maximum(a, thr) / 3.0) ** -1.5)
    x = 2.0 / 3.0 * a * (1.0 + np.cos(2.0 * np.pi / 3.0 - 2.0 / 3.0 * phi))
    return np.where(a > thr, np.copysign(x, y), 0.0)


def _prox_newton(y, lam, p: float):
    """argmin_x (x - y)^2 / 2 + lam |x|^p, entrywise, for any p in (0, 1).

    Above _prox_threshold it is the larger root of x + lam p x^(p-1) = |y|;
    the left side is convex in x > 0 and exceeds |y| at x = |y|, so Newton's
    method from |y| decreases monotonically to it.  lam broadcasts against y.
    """
    a = np.abs(y)
    on = a > _prox_threshold(lam, p)
    a, lp = a[on], np.broadcast_to(lam, y.shape)[on] * p
    x = a.copy()
    for _ in range(_PROX_ITERS):
        step = (x + lp * x ** (p - 1.0) - a) / (1.0 + lp * (p - 1.0) * x ** (p - 2.0))
        x = x - step
        if not np.any(step > 4e-16 * x):
            break
    out = np.zeros_like(y)
    out[on] = np.copysign(x, y[on])
    return out


def _prox_lp(y, lam, p: float):
    """The prox of lam * |.|^p at y: closed form at p = 1/2 (solves 1.33x faster), else Newton."""
    return _prox_half(y, lam) if p == 0.5 else _prox_newton(y, lam, p)


def _prox_step(inst, params, x, f, g, alpha):
    """One backtracking prox-gradient step of the descent for every row at once.

    Row r accepts the first step = alpha_r * _ARMIJO_SHRINK^j, j < _ARMIJO_TRIES,
    whose x+ = prox_{step t |.|^p}(x_r - step g_r) has
    F(x+) <= f_r - _ARMIJO_C / (2 step) ||x+ - x_r||^2 (never a NaN value): the
    step a backtracking loop would accept.  Each batch of trial points costs
    one _fb_eval call.  The first tests every row's full step; the rows that
    reject it go down a ladder, 4 j lengths per call from step j (4, 20, the
    rest), fewer where M would pass tensors._BLOCK_ENTRIES entries (one row
    at least).  Returns (x_new, f_new, step, found, parts), parts the _fb_eval
    (phi, w, r, M) of x_new; a row with found False holds meaningless values.
    """

    def value(y, phi):  # F at the rows y from their FB residual phi
        return 0.5 * (phi * phi).sum(axis=-1) + params.t * (np.abs(y) ** params.p).sum(axis=-1)

    x_new = _prox_lp(x - alpha[:, None] * g, params.t * alpha[:, None], params.p)
    parts = _fb_eval(inst, x_new)
    f_new = value(x_new, parts[0])
    dx = x_new - x
    found = f_new <= f - _ARMIJO_C / (2.0 * alpha) * np.einsum("ij,ij->i", dx, dx)
    if found.all():
        return x_new, f_new, alpha, found, parts
    step, pending = alpha.copy(), np.flatnonzero(~found)
    per_call = block_rows(inst.tensor, inst.n if inst.m == 2 else 1)  # M: n^2 entries a row
    j = 1
    while pending.size and j < _ARMIJO_TRIES:
        span = min(max(1, per_call // pending.size), _ARMIJO_TRIES - j, 4 * j)
        steps = alpha[pending, None] * _ARMIJO_SHRINK ** np.arange(j, j + span)
        y = x[pending, None] - steps[..., None] * g[pending, None]
        cand = _prox_lp(y, params.t * steps[..., None], params.p)
        dx = cand - x[pending, None]
        bound = f[pending, None] - _ARMIJO_C / (2.0 * steps) * np.einsum("ijk,ijk->ij", dx, dx)
        cand = cand.reshape(-1, x.shape[1])
        got = _fb_eval(inst, cand)
        f_cand = value(cand, got[0])
        ok = f_cand.reshape(steps.shape) <= bound
        rung = np.argmax(ok, axis=1)  # first accepted step of each row
        hit = ok[np.arange(pending.size), rung]
        rows, pick = pending[hit], np.flatnonzero(hit) * span + rung[hit]
        x_new[rows], f_new[rows], step[rows] = cand[pick], f_cand[pick], steps.flat[pick]
        for kept, new in zip(parts, got):
            kept[rows] = new[pick]
        found[rows] = True
        pending = pending[~hit]
        j += span
    return x_new, f_new, step, found, parts


def _descend(inst, u0, params):
    """Proximal-gradient descent at fixed t for a (k, n) block of starts.

    Returns (u, f0, f_final, max_norm, finite): the final rows, the objective
    at u0 and at u, each row's largest iterate norm, and a mask of the rows
    with a finite objective at u0 (the others stay there, NaN in f_final).

    A step is x+ = prox_{alpha t |.|^p}(x - alpha g), g the merit gradient,
    accepted once F(x+) <= F(x) - _ARMIJO_C / (2 alpha) ||x+ - x||^2 (so F
    never rises), halving alpha up to _ARMIJO_TRIES times (_prox_step).  A
    trial point costs one contract_m2 stack: F comes from its _fb_eval parts,
    and the accepted point's next gradient from the same parts (_fb_grad).
    alpha starts at _STEP0, then each row takes the Barzilai-Borwein length
    s.s / s.y on its merit gradients, clipped to [_STEP_MIN, min(4 alpha_prev,
    _STEP_MAX)].  A row stops on the first of: max|x+ - x| / alpha <=
    _STOP_TOL; the support unchanged over _HELD_STEPS accepted steps and
    max|x+ - x| / alpha <= _HELD_TOL; no step accepted; _MAX_INNER iterations.
    """
    u = np.array(u0, dtype=float)
    norm2 = np.einsum("ij,ij->i", u, u)  # largest squared iterate norm per row
    f0 = objective(inst, u, params)
    finite = np.isfinite(f0)
    f_final = np.where(finite, f0, np.nan)
    # The rows still iterating, compacted: row i of x, f, g, parts, alpha and
    # held belongs to start idx[i].
    idx = np.flatnonzero(finite)
    x, f = u[idx], f_final[idx]
    g = grad_merit(inst, x)
    alpha, held = np.full(idx.size, _STEP0), np.zeros(idx.size, dtype=int)
    for _ in range(_MAX_INNER):
        if not idx.size:
            break
        x_new, f_new, step, found, parts = _prox_step(inst, params, x, f, g, alpha)
        x_new[~found], f_new[~found] = x[~found], f[~found]  # such a row stops where it is
        s = x_new - x
        move = np.abs(s).max(axis=1) / step
        held = (held + 1) * ((x_new != 0.0) == (x != 0.0)).all(axis=1)
        stop = ~found | (move <= _STOP_TOL) | ((held >= _HELD_STEPS) & (move <= _HELD_TOL))
        x, f = x_new, f_new
        norm2[idx] = np.maximum(norm2[idx], np.einsum("ij,ij->i", x, x))
        if stop.any():
            u[idx[stop]], f_final[idx[stop]] = x[stop], f[stop]
            idx, x, f, g, s, step, held, *parts = (
                a[~stop] for a in (idx, x, f, g, s, step, held, *parts)
            )
            if not idx.size:
                break
        g_new = _fb_grad(inst.m, x, *parts)
        y = g_new - g
        sy = np.einsum("ij,ij->i", s, y)
        alpha = np.divide(np.einsum("ij,ij->i", s, s), sy, out=step.copy(), where=sy > 1e-300)
        alpha = np.minimum(np.maximum(alpha, _STEP_MIN), np.minimum(4.0 * step, _STEP_MAX))
        g = g_new
    u[idx], f_final[idx] = x, f
    return u, f0, f_final, np.sqrt(norm2), finite


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
    below -tol (both "negative").  No longer called by the solver: kept
    because the benchmark's tracer hooks it by name.
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

    x0 is a (k, n) block of seeds advanced together.  The step d solves
    J d = Phi with J the generalized Jacobian of _fb_slopes (a degenerate pair
    gets (v_i, z_i) = (-1, -1)), and x - lam d takes the first lam of 1, 1/2,
    ..., 2^-39 with ||Phi(x - lam d)||^2 <= (1 - 2 _ARMIJO_C lam) ||Phi(x)||^2,
    the step a halving loop would take, found in closed form: w(x - lam d) is
    a polynomial in lam (one contract_line call) and u is linear in it, so Phi
    at all 40 lengths is elementwise.  Each row stops on its own once
    max|Phi| <= _FB_TOL, on a singular Jacobian or non-finite step, or when no
    step length is accepted.  Entries with |x_i| <= _SNAP are set to exactly 0
    in the returned rows; the caller verifies them.
    """
    x = np.array(x0, dtype=float)
    act = np.arange(len(x))  # rows still iterating
    diag = np.arange(inst.n)
    lams = 0.5 ** np.arange(_NEWTON_TRIES)
    powers = lams[:, None] ** np.arange(inst.m)  # lam^j against the s^j coefficients

    for _ in range(_FB_ITERS):
        if not act.size:
            break
        phi, w, r, mat = _fb_eval(inst, x[act])
        v, z = _fb_slopes(x[act], w, r)
        jac = (inst.m - 1) * z[..., None] * mat
        jac[:, diag, diag] += v
        step = _newton_steps(jac, phi)
        moving = (np.max(np.abs(phi), axis=1) > _FB_TOL) & np.all(np.isfinite(step), axis=1)
        act, phi, step = act[moving], phi[moving], step[moving]
        coef = contract_line(inst.tensor, x[act], -step)
        coef[:, 0] += inst.q
        u = x[act, None] - lams[:, None] * step[:, None]  # (rows, lengths, n)
        w = powers @ coef
        trial = np.hypot(u, w) - (u + w)
        norm2 = np.einsum("ijk,ijk->ij", trial, trial)
        ok = norm2 <= (1.0 - 2.0 * _ARMIJO_C * lams) * np.einsum("ij,ij->i", phi, phi)[:, None]
        rung = np.argmax(ok, axis=1)  # first accepted length of each row
        found = ok[np.arange(act.size), rung]
        act = act[found]
        x[act] = u[found, rung[found]]
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
    system, all as one block, seeded from max(u, 0) and, where u has a
    negative entry, from |u| too; the best verified seed replaces the point,
    else a note says the finish failed.
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
            # f0 ends as the objective at the start of the final t-step
            u[rows], f0[rows], f_hist[step, rows], mx, finite = _descend(inst, u[rows], params)
            max_norm[rows] = np.maximum(max_norm[rows], mx)
            lp_hist[step, rows] = (np.abs(u[rows]) ** p).sum(axis=1)  # lp_norm_p of each row
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
            # every start is seeded from max(u, 0), and from |u| where u has a negative entry
            neg = np.flatnonzero((u[finish] < 0.0).any(axis=1))
            seeds = np.concatenate([np.maximum(u[finish], 0.0), np.abs(u[finish][neg])])
            seeds = _fb_newton(inst, seeds)
            f_seeds = objective(inst, seeds, final_params)
            second = dict(zip(neg.tolist(), range(len(finish), len(seeds))))
            for i, r in enumerate(finish):
                L = bounds[r][0]
                ranked = sorted(  # so the first seed that verifies is the best verified one
                    (f_seeds[j], card(seeds[j], _support_tol(L)), tuple(seeds[j]), j)
                    for j in {i, second.get(i, i)}
                )
                best = next((j for *_, j in ranked if _check(inst, seeds[j], opts, L)[1]), None)
                if best is not None:
                    u[r] = seeds[best]
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
