"""Exact desk-scale ground truth for small TCP instances.

Support enumeration with damped-Newton root finding gives the full verified
solution list, the minimal cardinality, and the minimal-l_p selection.  On
Z-tensor instances a monotone Jacobi iteration from u = 0, finished by one
reduced Newton solve, computes the least element of the feasible set, which is
a sparsest solution; it is cross-checked against the enumeration.
"""

from __future__ import annotations

import itertools
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .merit import residual_fb
from .regpath import lp_norm_p, q_tilde
from .tensors import (
    DenseTensor,
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
    budget_seconds: float | None = None
    tol_zero: float = 1e-9


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


def _embed(x: np.ndarray, support, n: int) -> np.ndarray:
    u = np.zeros(n)
    u[list(support)] = x
    return u


def _restrict(inst: Instance, support) -> tuple[DenseTensor, np.ndarray]:
    """Sub-tensor and sub-vector over the support.

    For u supported on S, (A u^{m-1})_i with i in S equals the contraction of
    the restricted tensor with u_S, so the reduced square system lives entirely
    on the restriction.
    """
    support = list(support)
    arr = inst.tensor.as_array()[np.ix_(*([support] * inst.m))]
    sub = DenseTensor(inst.m, len(support), arr.reshape(-1))
    sub._semi_symmetric = inst.tensor._semi_symmetric
    return sub, inst.q[support]


# Backtracking rungs 2^-1 ... 2^-39 tried after a rejected full Newton step:
# every step length above 1e-12 that halving from 1 reaches.
_LADDER = 0.5 ** np.arange(1, 40)
# Cap on the Kronecker entries (rows times s^(m-1)) of one ladder contraction,
# about 8 MB, so large supports and orders evaluate the ladder in row blocks.
LADDER_BLOCK_ENTRIES = 2**20


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


def _sufficient(g_new: np.ndarray, lam, base: np.ndarray) -> np.ndarray:
    """Residual decrease test ||g_new|| <= (1 - lam/2) ||g|| on finite rows."""
    finite = np.all(np.isfinite(g_new), axis=-1)
    return finite & (np.linalg.norm(g_new, axis=-1) <= (1 - 0.5 * lam) * base)


def _line_search(sub: DenseTensor, q_sub: np.ndarray, x, g, step):
    """Halving line search for every row at once: (x_new, g_new, found).

    Each row takes the first accepted step length of 1, 2^-1, ..., 2^-39,
    the step a halving loop would accept; rows that accept none have found
    False and their x_new and g_new are meaningless.
    """
    base = np.linalg.norm(g, axis=-1)
    x_new = x - step
    g_new = contract_m1(sub, x_new) + q_sub
    found = _sufficient(g_new, 1.0, base)
    retry = np.flatnonzero(~found)
    if retry.size:
        cand = x[retry, None, :] - _LADDER[:, None] * step[retry, None, :]
        flat = cand.reshape(-1, x.shape[1])
        block = max(1, LADDER_BLOCK_ENTRIES // x.shape[1] ** (sub.m - 1))
        g_cand = np.concatenate(
            [contract_m1(sub, flat[i : i + block]) for i in range(0, len(flat), block)]
        ).reshape(cand.shape) + q_sub
        ok = _sufficient(g_cand, _LADDER, base[retry, None])
        rung = np.argmax(ok, axis=1)  # first accepted rung
        hit = np.flatnonzero(ok[np.arange(retry.size), rung])
        x_new[retry[hit]] = cand[hit, rung[hit]]
        g_new[retry[hit]] = g_cand[hit, rung[hit]]
        found[retry[hit]] = True
    return x_new, g_new, found


def reduced_newton(inst: Instance, support, x0, iters: int = 60, tol: float = 1e-12):
    """Damped Newton for the square system w_i(u) = 0, i in support, u = 0 off it.

    The instance must hold a semi-symmetric tensor so that (m-1) contract_m2
    is the Jacobian of u -> A u^{m-1}.  x0 is one start of length
    s = len(support) or a (k, s) batch of independent starts, all advanced
    together.  Each start stops on its own: "ok" once max|w| <= tol,
    "singular" on a singular Jacobian or a non-finite step, "stalled" when
    the line search fails or 8 steps in a row miss a 30% gain on the best
    max|w|.  Returns (x, status) for one start and (X, statuses) for a batch,
    statuses a tuple of str in start order.
    """
    support = list(support)
    sub, q_sub = _restrict(inst, support)
    mfac = inst.m - 1
    x0 = np.asarray(x0, dtype=float)
    x = np.array(x0, ndmin=2)
    g = contract_m1(sub, x) + q_sub
    status = ["stalled"] * len(x)
    best = np.max(np.abs(g), axis=1)
    stale = np.zeros(len(x), dtype=int)
    act = np.arange(len(x))  # starts still iterating

    def stop(rows, reason):
        for r in rows:
            status[r] = reason

    for _ in range(iters):
        done = np.max(np.abs(g[act]), axis=1) <= tol
        stop(act[done], "ok")
        act = act[~done]
        if not act.size:
            break
        step = _newton_steps(mfac * contract_m2(sub, x[act]), g[act])
        singular = ~np.all(np.isfinite(step), axis=1)
        stop(act[singular], "singular")
        act, step = act[~singular], step[~singular]
        x_new, g_new, found = _line_search(sub, q_sub, x[act], g[act], step)
        act = act[found]  # the rest stalled: no step length was accepted
        x[act], g[act] = x_new[found], g_new[found]
        gn = np.max(np.abs(g[act]), axis=1)
        gained = gn < 0.7 * best[act]
        best[act[gained]] = gn[gained]
        stale[act] = np.where(gained, 0, stale[act] + 1)
        act = act[stale[act] < 8]  # no real progress: a root is not nearby
    else:
        stop(act[np.max(np.abs(g[act]), axis=1) <= tol], "ok")
    if x0.ndim == 1:
        return x[0], status[0]
    return x, tuple(status)


def brute_force_sparse(inst: Instance, opts: OracleOptions | None = None) -> OracleResult:
    """Exact sparse-solution search by support enumeration.

    Supports are visited by increasing cardinality, lexicographic within each
    size; each reduced polynomial system is attacked with seeded multi-start
    damped Newton, and every candidate must pass verify_solution on the
    original instance.  Stops at the first cardinality that yields a verified
    solution unless opts.exhaustive, in which case every support up to the
    size cap is searched.
    """
    opts = opts or OracleOptions()
    n = inst.n
    if n > N_MAX:
        raise ValueError(f"support enumeration is capped at n <= {N_MAX}, got n = {n}")
    work = semi_symmetric_instance(inst)
    rng = np.random.default_rng(opts.seed)
    max_card = n if opts.max_card is None else min(opts.max_card, n)
    deadline = None if opts.budget_seconds is None else time.monotonic() + opts.budget_seconds

    solutions = []
    aborted = False

    def known(u):
        return any(float(np.max(np.abs(u - u0))) < opts.dedup_tol for u0, _, _ in solutions)

    min_card = None
    for size in range(max_card + 1):
        for support in itertools.combinations(range(n), size):
            if deadline is not None and time.monotonic() > deadline:
                aborted = True
                break
            if size == 0:
                candidates = [np.zeros(n)]
            else:
                x0 = rng.uniform(0.05, 2.0, (opts.newton_starts, size))
                xs, statuses = reduced_newton(
                    work, support, x0, iters=opts.newton_iters, tol=opts.newton_tol
                )
                candidates = [
                    _embed(x, support, n) for x, status in zip(xs, statuses) if status == "ok"
                ]
            for u in candidates:
                report, passed = verify_solution(inst, u, opts.tol, tol_zero=opts.tol_zero)
                if passed and not known(u):
                    solutions.append((u, report.support, report))
        if aborted:
            break
        if solutions and min_card is None:
            min_card = size
            if not opts.exhaustive:
                break

    solutions.sort(key=lambda entry: (len(entry[1]), tuple(entry[0])))
    if solutions and min_card is None:
        min_card = min(len(sup) for _, sup, _ in solutions)
    sparse = None
    if min_card is not None:
        for u, sup, _ in solutions:
            if len(sup) == min_card:
                sparse = u.copy()
                break
    # exhaustive: every support of every size was searched in full (no early
    # exit after the first hit, no budget abort, no size cap below n)
    no_early_exit = opts.exhaustive or min_card is None or min_card == max_card
    exhausted = (not aborted) and max_card == n and no_early_exit
    return OracleResult(
        solutions=solutions,
        min_card=min_card,
        sparse_solution=sparse,
        minimal_lp={},
        exhaustive=exhausted,
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
    seed: int = 0
    support_tol: float = 1e-6


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
                x, status = reduced_newton(work, new_support, u_new[list(new_support)])
                root = _embed(x, new_support, n)
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
    every feasible v.  The iterates from u = 0 therefore rise, stay below every
    feasible point, and converge to the least element: a TCP solution and a
    sparsest one.  The iteration ends at a verified fixed point (to rounding),
    or earlier through one reduced Newton solve on each support that repeats:
    a root that verifies at opts.tol is a feasible point, so it lies at or
    above the least element, and it is returned once the iterate, which lies
    below, comes within NEWTON_REACH of it (at or above to opts.tol).  The
    result is cross-checked against the support enumeration: the least element
    must be a minimal-cardinality solution.

    Raises ValueError when the instance is not a Z-tensor or has no feasible
    point, shown by a row with a_ii <= 0 whose r_i exceeds opts.tol or by
    non-finite (unbounded) iterates, and RuntimeError after
    LEAST_ELEMENT_MAX_STEPS steps or when the cross-check fails.
    """
    opts = opts or LeastElementOptions()
    if not is_z_tensor(inst.tensor):
        raise ValueError("not a Z-tensor: least element is not guaranteed to exist")
    best = _monotone_least(inst, opts.tol)

    bf = brute_force_sparse(
        inst, OracleOptions(seed=opts.seed, tol=opts.tol, newton_starts=20)
    )
    if bf.min_card is None:
        raise RuntimeError("least-element cross-check failed: enumeration found no solution")
    best_support = tuple(int(i) for i in np.flatnonzero(np.abs(best) > opts.support_tol))
    if len(best_support) != bf.min_card:
        raise RuntimeError(
            "least-element cross-check failed: least-element support size "
            f"{len(best_support)} != enumerated minimal cardinality {bf.min_card}"
        )
    matched = any(
        sup == best_support and float(np.max(np.abs(u - best))) < 1e-6
        for u, sup, _ in bf.solutions
    )
    if not matched:
        raise RuntimeError(
            "least-element cross-check failed: no enumerated minimal-cardinality "
            "solution matches the least-element candidate"
        )
    return best
