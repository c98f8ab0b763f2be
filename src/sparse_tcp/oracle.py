"""Exact desk-scale ground truth for small TCP instances.

Support enumeration gives the full verified solution list, the minimal
cardinality, and the minimal-l_p selection: every support's seeded starts
become rows of one masked damped-Newton batch on the full tensor, with each
row's support as a mask instead of a sub-tensor.  On Z-tensor instances a
monotone Jacobi iteration from u = 0, finished by one reduced Newton solve,
computes the least element of the feasible set, which is a sparsest solution.
Its sparsity needs no enumeration: the iterates lie below every feasible point,
so every entry of the result above NEWTON_REACH is nonzero in every solution.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .merit import residual_fb
from .regpath import lp_norm_p, q_tilde
from .tensors import (
    Instance,
    ResidualReport,
    contract_m1,
    contract_m2,
    is_z_tensor,
    semi_symmetric_instance,
)

N_MAX = 8  # combinatorial guard for support enumeration


@dataclass
class OracleOptions:
    max_card: int | None = None
    newton_starts: int = 20
    tol: float = 1e-8
    seed: int = 0
    exhaustive: bool = False
    newton_iters: int = 60
    newton_tol: float = 1e-12
    dedup_tol: float = 1e-7
    tol_zero: float = 1e-9

    def __post_init__(self):
        for name in ("newton_starts", "newton_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.max_card is not None and self.max_card < 0:
            raise ValueError(f"max_card must be None or >= 0, got {self.max_card}")
        for name in ("tol", "newton_tol", "dedup_tol", "tol_zero"):
            val = getattr(self, name)
            if not (val > 0 and math.isfinite(val)):
                raise ValueError(f"{name} must be finite and > 0, got {val}")


@dataclass
class OracleResult:
    solutions: list  # (u, support tuple, ResidualReport), sorted by (card, lex)
    min_card: int | None
    sparse_solution: np.ndarray | None
    minimal_lp: dict = field(default_factory=dict)
    exhaustive: bool = False

    def to_dict(self) -> dict:
        return {
            "solutions": [
                {
                    "u": [float(x) for x in u],
                    "support": list(sup),
                    "residuals": rep.to_dict(),
                }
                for u, sup, rep in self.solutions
            ],
            "min_card": self.min_card,
            "sparse_solution": None
            if self.sparse_solution is None
            else [float(x) for x in self.sparse_solution],
            "minimal_lp": {str(p): [float(x) for x in u] for p, u in self.minimal_lp.items()},
            "exhaustive": self.exhaustive,
        }


def verify_solution(inst: Instance, u, tol: float, tol_zero: float = 1e-9):
    """Residual report plus pass/fail at tolerance tol.

    Passes iff u >= -tol componentwise, w = A u^{m-1} + q >= -tol componentwise,
    and |u^T w| <= tol.
    """
    if tol <= 0:
        raise ValueError(f"need tol > 0, got {tol}")
    u = np.asarray(u, dtype=float).reshape(-1)
    w = contract_m1(inst.tensor, u) + inst.q
    feas_u = max(0.0, -float(np.min(u)))
    feas_w = max(0.0, -float(np.min(w)))
    comp = abs(float(u @ w))
    fb = residual_fb(inst, u)
    report = ResidualReport(
        feas_u=feas_u,
        feas_w=feas_w,
        comp=comp,
        fb_norm=float(np.linalg.norm(fb)),
        support=tuple(int(i) for i in np.flatnonzero(np.abs(u) > tol_zero)),
        tol_zero=tol_zero,
    )
    passed = feas_u <= tol and feas_w <= tol and comp <= tol
    return report, passed


# Cap on the Kronecker entries (rows times n^(m-1)) of one contraction over a
# block of rows, about 0.5 MB: for n <= 5 and m = 3 a whole enumeration batch
# or step-length ladder is one call, while larger batches and tensors take it
# in row blocks (and a ladder stops at the first block that settles every row).
_LADDER_ENTRIES = 2**16


def _rows_per_call(inst: Instance) -> int:
    return max(1, _LADDER_ENTRIES // inst.n ** (inst.m - 1))


def _in_blocks(inst: Instance, fun, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """fun(x, rows) over row blocks of x under the _LADDER_ENTRIES cap, concatenated."""
    per_call = _rows_per_call(inst)
    if len(x) <= per_call:
        return fun(x, rows)
    return np.concatenate(
        [fun(x[i : i + per_call], rows[i : i + per_call]) for i in range(0, len(x), per_call)]
    )


def _newton_steps(jac: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Row-wise solutions of jac[r] @ step[r] = g[r]; NaN rows where jac[r] is singular."""
    try:
        return np.linalg.solve(jac, g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = np.full_like(g, np.nan)
        for r in range(len(g)):
            try:
                step[r] = np.linalg.solve(jac[r], g[r])
            except np.linalg.LinAlgError:
                pass
        return step


def _armijo(inst, fun, u, f, d, slope, alpha, c, shrink, tries):
    """Backtracking Armijo search along u - step * d for every row at once.

    Row r accepts the first step alpha_r * shrink^j, j = 0 .. tries-1, whose
    fun value is at most f_r - c * step * slope_r (a NaN value never is): the
    step a backtracking loop would accept.  fun(x, rows) takes candidate
    points x and, for each, the index of the row of u it belongs to.  The
    full steps are evaluated first; the rows that reject theirs evaluate the
    ladder of shorter steps, stopping after the span of steps in which every
    row found its step.  Every fun call gets rows of at most _LADDER_ENTRIES
    Kronecker entries in all, or one row.  Returns (u_new, f_new, step,
    found); rows with found False accepted no step and hold meaningless values.
    """
    u_new = u - alpha[:, None] * d
    f_new = _in_blocks(inst, fun, u_new, np.arange(len(u)))
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
        f_cand = _in_blocks(
            inst, fun, cand.reshape(-1, u.shape[1]), np.repeat(pending, span)
        ).reshape(steps.shape)
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


# Step lengths 1, 1/2, ..., 2^-39 of a reduced Newton line search.
_NEWTON_TRIES = 40


def reduced_newton(inst: Instance, mask, x0, iters: int = 60, tol: float = 1e-12):
    """Damped Newton for the square systems w_i(u) = 0, i in S_r, u = 0 off S_r.

    mask is a (k, n) boolean array whose row r marks the support S_r of start
    r, and x0 a (k, n) block of starts; entries off a row's support are
    ignored.  Every row advances on the full tensor, which must be
    semi-symmetric so that (m-1) contract_m2 is the Jacobian of
    u -> A u^{m-1}.  Row r's residual is w = A x^{m-1} + q masked to S_r, and
    its Jacobian has the rows and columns off S_r replaced by the identity,
    so each Newton step solves the reduced system on S_r and is exactly 0 off
    it.  A step is damped by halving from 1 until ||w|| falls to at most
    (1 - step/2) times its value.  Each start stops on its own: "ok" once
    max|w| <= tol, "singular" on a singular Jacobian or a non-finite step,
    "stalled" when the line search fails or 8 steps in a row miss a 30% gain
    on the best max|w|.  Returns (X, statuses): the (k, n) final rows,
    exactly 0 off their supports, and a tuple of str in start order.
    """
    A, q, mfac = inst.tensor, inst.q, inst.m - 1
    mask = np.asarray(mask, dtype=bool)
    x = np.where(mask, np.asarray(x0, dtype=float), 0.0)
    on_block = mask[:, :, None] & mask[:, None, :]  # Jacobian entries inside S_r x S_r
    off_eye = np.eye(inst.n) * ~mask[:, None, :]  # identity rows and columns off S_r

    def residual(y, rows):
        return np.where(mask[rows], contract_m1(A, y) + q, 0.0)

    g = _in_blocks(inst, residual, x, np.arange(len(x)))
    status = ["stalled"] * len(x)
    best = np.max(np.abs(g), axis=1)
    stale = np.zeros(len(x), dtype=int)
    act = np.arange(len(x))  # starts still iterating

    def stop(rows, reason):
        for r in rows:
            status[r] = reason

    def norm(y, rows):  # rows index act
        return np.linalg.norm(residual(y, act[rows]), axis=1)

    for _ in range(iters):
        done = np.max(np.abs(g[act]), axis=1) <= tol
        stop(act[done], "ok")
        act = act[~done]
        if not act.size:
            break
        jac = np.where(on_block[act], mfac * contract_m2(A, x[act]), off_eye[act])
        step = _newton_steps(jac, g[act])
        singular = ~np.all(np.isfinite(step), axis=1)
        stop(act[singular], "singular")
        act, step = act[~singular], step[~singular]
        base = np.linalg.norm(g[act], axis=1)
        x_new, _, _, found = _armijo(
            inst, norm, x[act], base, step, base, np.ones(act.size), 0.5, 0.5, _NEWTON_TRIES
        )
        act = act[found]  # the rest stalled: no step length was accepted
        x[act] = x_new[found]
        g[act] = _in_blocks(inst, residual, x[act], act)
        gn = np.max(np.abs(g[act]), axis=1)
        gained = gn < 0.7 * best[act]
        best[act[gained]] = gn[gained]
        stale[act] = np.where(gained, 0, stale[act] + 1)
        act = act[stale[act] < 8]  # no real progress: a root is not nearby
    else:
        stop(act[np.max(np.abs(g[act]), axis=1) <= tol], "ok")
    return x, tuple(status)


def brute_force_sparse(inst: Instance, opts: OracleOptions | None = None) -> OracleResult:
    """Exact sparse-solution search by support enumeration.

    Supports are visited by increasing cardinality, lexicographic within each
    size.  Every nonempty support gets opts.newton_starts seeded starts, and
    the starts of every support are stacked as rows of one masked
    reduced_newton batch on the full tensor: one batch for all sizes when
    opts.exhaustive, else one per size, so that the search stops at the first
    size that yields a verified solution.  Every new root must pass
    verify_solution on the original instance; roots within opts.dedup_tol of
    a solution already found are dropped.
    """
    opts = opts or OracleOptions()
    n = inst.n
    if n > N_MAX:
        raise ValueError(f"support enumeration is capped at n <= {N_MAX}, got n = {n}")
    work = semi_symmetric_instance(inst)
    rng = np.random.default_rng(opts.seed)
    max_card = n if opts.max_card is None else min(opts.max_card, n)
    k = opts.newton_starts

    solutions = []
    found_at = []  # enumerated support size of each solution

    def visit(u, size):
        if any(float(np.max(np.abs(u - u0))) < opts.dedup_tol for u0, _, _ in solutions):
            return
        report, passed = verify_solution(inst, u, opts.tol, tol_zero=opts.tol_zero)
        if passed:
            solutions.append((u, report.support, report))
            found_at.append(size)

    visit(np.zeros(n), 0)  # the empty support holds one point
    sizes = list(range(1, max_card + 1))
    for group in [sizes] if opts.exhaustive else [[size] for size in sizes]:
        if solutions and not opts.exhaustive:
            break
        supports = [list(s) for size in group for s in itertools.combinations(range(n), size)]
        mask = np.zeros((len(supports) * k, n), dtype=bool)
        x0 = np.zeros(mask.shape)
        for i, support in enumerate(supports):
            mask[i * k : (i + 1) * k, support] = True
            x0[i * k : (i + 1) * k, support] = rng.uniform(0.05, 2.0, (k, len(support)))
        xs, statuses = reduced_newton(
            work, mask, x0, iters=opts.newton_iters, tol=opts.newton_tol
        )
        for x, size, status in zip(xs, mask.sum(axis=1), statuses):
            if status == "ok":
                visit(x, int(size))

    solutions.sort(key=lambda entry: (len(entry[1]), tuple(entry[0])))
    min_card = min(found_at, default=None)
    sparse = next((u.copy() for u, sup, _ in solutions if len(sup) == min_card), None)
    # exhaustive: every support of every size was searched in full (no early
    # exit after the first hit, no size cap below n)
    no_early_exit = opts.exhaustive or min_card is None or min_card == max_card
    return OracleResult(
        solutions=solutions,
        min_card=min_card,
        sparse_solution=sparse,
        minimal_lp={},
        exhaustive=max_card == n and no_early_exit,
    )


def minimal_lp_select(result: OracleResult, p: float) -> np.ndarray:
    """Argmin of sum|u_i|^p over the enumerated solutions; lexicographic ties.

    On non-exhaustive results the selection is only approximate (a better
    solution could hide in an unsearched support) and a warning is emitted.
    """
    if not result.solutions:
        raise ValueError("empty solution list: nothing to select from")
    if not result.exhaustive:
        warnings.warn(
            "minimal_lp_select on a non-exhaustive enumeration is approximate",
            stacklevel=2,
        )
    best = min(result.solutions, key=lambda entry: (lp_norm_p(entry[0], p), tuple(entry[0])))
    u = best[0].copy()
    result.minimal_lp[p] = u
    return u


def sample_feasible(inst: Instance, count: int, seed: int = 0) -> list[np.ndarray]:
    """Up to `count` points of the feasible set {u >= 0, A u^{m-1} + q >= 0}.

    Mixes rejection sampling over scaled nonnegative draws, doubling lifts
    along e, a diagonal-anchored guess, and random-walk proposals around
    already-accepted points.  Every returned point satisfies both constraint
    blocks at tolerance 1e-10.  Returns fewer than `count` (possibly none)
    when the budget runs out.
    """
    rng = np.random.default_rng(seed)
    n, m = inst.n, inst.m
    A, q = inst.tensor, inst.q

    def feasible(u):
        if float(np.min(u)) < -1e-10:
            return False
        w = contract_m1(A, u) + q
        return float(np.min(w)) >= -1e-10

    found: list[np.ndarray] = []

    def accept(u):
        found.append(u.copy())

    # Cheap anchors: zero, diagonal-scaled guesses approaching the natural
    # magnitude (q~_i / a_ii)^(1/(m-1)) from above (the feasible margins off
    # the active rows can be thin, so small inflations go first), and e-lifts.
    anchors = [np.zeros(n)]
    qt = q_tilde(q)
    diag = np.array([A.as_array()[(i,) * m] for i in range(n)])
    pos = diag > 1e-9
    base_guess = np.zeros(n)
    base_guess[pos] = (qt[pos] / diag[pos]) ** (1.0 / (m - 1))
    base_guess[~pos] = qt[~pos]
    for inflate in (1e-9, 1e-6, 1e-4, 1e-3, 0.01, 0.03, 0.1, 0.3, 1.0):
        anchors.append(base_guess * (1.0 + inflate))
    c = 1.0
    for _ in range(18):
        anchors.append(np.full(n, c))
        c *= 2.0
    for u in anchors:
        if len(found) >= count:
            break
        if feasible(u):
            accept(u)

    walk_scales = (0.003, 0.01, 0.05, 0.2, 0.5)
    budget = max(60 * count, 3000)
    trials = 0
    while len(found) < count and trials < budget:
        trials += 1
        if found and trials % 4 != 0:
            base = found[int(rng.integers(0, len(found)))]
            scale = walk_scales[trials % len(walk_scales)]
            u = base * (1.0 + rng.uniform(-scale / 4.0, scale / 4.0, n))
            u = u + rng.uniform(0.0, scale, n)
        else:
            scale = (0.25, 0.5, 1.0, 2.0, 4.0)[trials % 5]
            u = scale * rng.uniform(0.0, 1.0, n)
        u = np.maximum(u, 0.0)
        if feasible(u):
            accept(u)
    return found


# Step cap of the monotone iteration in least_element.
LEAST_ELEMENT_MAX_STEPS = 5000
# A verified Newton root ends the iteration once it is this close above the iterate.
NEWTON_REACH = 1e-6
# A step no larger than this times max(1, max u) is rounding: u is a fixed point.
FIXED_POINT_RTOL = 1e-14


@dataclass
class LeastElementOptions:
    tol: float = 1e-8
    seed: int = 0  # read by nothing (the iteration draws no random numbers); kept for callers
    support_tol: float = NEWTON_REACH  # entries above it are in every solution's support


def _monotone_least(inst: Instance, tol: float) -> np.ndarray:
    """The monotone Jacobi iteration of least_element, with its Newton finish and stops."""
    work = semi_symmetric_instance(inst)
    n, mfac = inst.n, inst.m - 1
    diag = inst.tensor.as_array()[(np.arange(n),) * inst.m]
    pos = diag > 0

    u = np.zeros(n)
    support = None
    tried = set()
    upper = None  # a verified Newton root: feasible, so no smaller than the least element
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(LEAST_ELEMENT_MAX_STEPS):
            r = diag * u**mfac - (contract_m1(inst.tensor, u) + inst.q)
            u_new = np.zeros(n)
            u_new[pos] = (np.maximum(r[pos], 0.0) / diag[pos]) ** (1.0 / mfac)
            if not (np.all(np.isfinite(r)) and np.all(np.isfinite(u_new))):
                raise ValueError(f"infeasible: the monotone iteration is unbounded at step {step}")
            stuck = np.flatnonzero(~pos & (r > tol))
            if stuck.size:
                i = stuck[0]
                raise ValueError(
                    f"infeasible: row {i} has a_ii <= 0 and w_{i} <= {-r[i]:.3g} "
                    f"at every u above the iterate of step {step}"
                )
            if np.max(np.abs(u_new - u)) <= FIXED_POINT_RTOL * max(1.0, np.max(u_new)):
                if verify_solution(inst, u_new, tol)[1]:
                    return u_new
            new_support = tuple(int(i) for i in np.flatnonzero(u_new > 0))
            if new_support and new_support == support and new_support not in tried:
                tried.add(new_support)
                (root,), (status,) = reduced_newton(work, (u_new > 0)[None], u_new[None])
                if status == "ok" and verify_solution(inst, root, tol)[1]:
                    upper = root
            if (
                upper is not None
                and np.all(upper >= u_new - tol)
                and np.max(upper - u_new) <= NEWTON_REACH
            ):
                return upper
            u, support = u_new, new_support
    raise RuntimeError(f"no least element found after {LEAST_ELEMENT_MAX_STEPS} steps")


def least_element(inst: Instance, opts: LeastElementOptions | None = None) -> np.ndarray:
    """Least element of the feasible set of a Z-tensor instance, by monotone Jacobi iteration.

    Write w = A u^{m-1} + q as a_ii u_i^{m-1} - r_i(u).  The off-diagonal
    entries are <= 0, so r_i rises with u >= 0, the step
    T(u)_i = (max(0, r_i(u)) / a_ii)^(1/(m-1)) is monotone, and T(v) <= v at
    every feasible v.  The iterates u_k from u = 0 therefore rise, stay below
    every feasible point, and converge to the least element: a TCP solution
    and a sparsest one.  The iteration ends at a verified fixed point (to
    rounding), the limit of the iterates, or earlier through one reduced
    Newton solve on each support that repeats: a root that verifies at
    opts.tol is a feasible point, so it lies at or above the least element,
    and it is returned once the iterate, which lies below, comes within
    NEWTON_REACH of it (at or above to opts.tol).

    The result is a sparsest solution without a support enumeration.  Every
    iterate u_k lies below every feasible v.  A fixed-point return is the
    last iterate, so each of its positive entries is positive in every
    solution.  A Newton return satisfies upper <= u_k + NEWTON_REACH, so each
    of its entries above opts.support_tol = NEWTON_REACH has u_k > 0 and lies
    inside the support of every solution.  Either way its cardinality at
    opts.support_tol is at most that of any solution.

    Raises ValueError when the instance is not a Z-tensor or has no feasible
    point, shown by a row with a_ii <= 0 whose r_i exceeds opts.tol or by
    non-finite (unbounded) iterates, and RuntimeError after
    LEAST_ELEMENT_MAX_STEPS steps.
    """
    opts = opts or LeastElementOptions()
    if not is_z_tensor(inst.tensor):
        raise ValueError("not a Z-tensor: least element is not guaranteed to exist")
    return _monotone_least(inst, opts.tol)
