"""Exact desk-scale ground truth for small TCP instances.

Support enumeration gives the full verified solution list, the minimal
cardinality, and the minimal-l_p selection: every support's seeded starts
become rows of one masked damped-Newton batch on the full tensor, with each
row's support as a mask instead of a sub-tensor.  Along a Newton direction
the residual is a polynomial in the step length, so one contract_line call
gives in closed form the step a halving loop would take, up to rounding in
the Gram form.  On Z-tensor instances a monotone Jacobi iteration from u = 0,
finished by one reduced Newton solve, computes the least element of the
feasible set, which is a sparsest solution.  Its sparsity needs no enumeration: the iterates lie below
every feasible point, so every entry of the result above NEWTON_REACH is
nonzero in every solution.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .regpath import lp_norm_p, q_tilde
from .tensors import (
    Instance,
    ResidualReport,
    contract_line,
    contract_m1,
    contract_m2,
    is_z_tensor,
    semi_symmetric_instance,
)

N_MAX = 8  # combinatorial guard for support enumeration
DEDUP_TOL = 1e-7  # a root this close (max norm) to a solution already found is that solution


@dataclass
class OracleOptions:
    max_card: int | None = None
    newton_starts: int = 20
    tol: float = 1e-8
    seed: int = 0
    exhaustive: bool = False

    def __post_init__(self):
        if self.newton_starts < 1:
            raise ValueError(f"newton_starts must be >= 1, got {self.newton_starts}")
        if self.max_card is not None and self.max_card < 0:
            raise ValueError(f"max_card must be None or >= 0, got {self.max_card}")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")


@dataclass
class OracleResult:
    solutions: list  # (u, support tuple, ResidualReport), sorted by (card, lex)
    min_card: int | None
    sparse_solution: np.ndarray | None
    minimal_lp: dict = field(default_factory=dict)
    # every support was searched, not every root found: a support's starts can all miss its
    # root (no solution found on the tests' coupled 713 and 715, or on random n 4, m 3, 6147)
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
    and |u^T w| <= tol.  Raises ValueError unless tol is finite and > 0.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    u = np.asarray(u, dtype=float).reshape(-1)
    w = contract_m1(inst.tensor, u) + inst.q
    feas_u = max(0.0, -float(u.min()))
    feas_w = max(0.0, -float(w.min()))
    comp = abs(float(u @ w))
    fb = np.hypot(u, w) - (u + w)  # residual_fb at u, from the w above
    report = ResidualReport(
        feas_u=feas_u,
        feas_w=feas_w,
        comp=comp,
        fb_norm=math.sqrt(fb @ fb),
        support=tuple((np.abs(u) > tol_zero).nonzero()[0].tolist()),
        tol_zero=tol_zero,
    )
    passed = feas_u <= tol and feas_w <= tol and comp <= tol
    return report, passed


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


# Step lengths 1, 1/2, ..., 2^-39 of reduced_newton's and the solver's FB Newton line search.
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
    it.  A step x - lam d takes the first lam of 1, 1/2, ..., 2^-39 with
    ||w|| at most (1 - lam/2) times its value, the step a halving loop would
    take up to rounding in the Gram form: w is a polynomial of degree m-1 in lam (from one
    contract_line call), so ||w||^2 is the Gram form of its coefficients,
    evaluated at all 40 lengths by one matmul.  Each start stops on its own:
    "ok" once max|w| <= tol, "singular" on a singular Jacobian or a non-finite
    step, "stalled" when no step length passes or 8 steps in a row miss a 30%
    gain on the best max|w|.  Returns (X, statuses): the (k, n) final rows,
    exactly 0 off their supports, and a tuple of str in start order.
    """
    A, q, mfac = inst.tensor, inst.q, inst.m - 1
    mask = np.asarray(mask, dtype=bool)
    x = np.where(mask, np.asarray(x0, dtype=float), 0.0)
    on_block = mask[:, :, None] & mask[:, None, :]  # Jacobian entries inside S_r x S_r
    off_eye = np.eye(inst.n) * ~mask[:, None, :]  # identity rows and columns off S_r

    g = np.where(mask, contract_m1(A, x) + q, 0.0)
    status = np.full(len(x), "stalled", dtype=object)
    best = np.max(np.abs(g), axis=1)
    stale = np.zeros(len(x), dtype=int)
    act = np.arange(len(x))  # starts still iterating
    lams = 0.5 ** np.arange(_NEWTON_TRIES)  # powers of 2, so each lam^(i+j) in pairs is exact
    pairs = (lams[:, None] ** np.add.outer(np.arange(inst.m), np.arange(inst.m)).ravel()).T

    for _ in range(iters):
        done = np.max(np.abs(g[act]), axis=1) <= tol
        status[act[done]] = "ok"
        act = act[~done]
        if not act.size:
            break
        jac = np.where(on_block[act], mfac * contract_m2(A, x[act]), off_eye[act])
        step = _newton_steps(jac, g[act])
        singular = ~np.all(np.isfinite(step), axis=1)
        status[act[singular]] = "singular"
        act, step = act[~singular], step[~singular]
        coef = contract_line(A, x[act], -step)
        coef[:, 0] += q
        coef = np.where(mask[act, None], coef, 0.0)
        gram = coef @ coef.swapaxes(1, 2)  # ||w(x - lam d)||^2 = sum_ij gram_ij lam^(i+j)
        norm2 = gram.reshape(act.size, len(pairs)) @ pairs
        ok = np.isfinite(norm2) & (norm2 <= (1.0 - 0.5 * lams) ** 2 * gram[:, :1, 0])
        rung = np.argmax(ok, axis=1)  # first accepted step of each row
        found = ok.any(axis=1)
        act, step, lam = act[found], step[found], lams[rung[found]]  # the rest stalled
        x[act] = x[act] - lam[:, None] * step
        g[act] = np.where(mask[act], contract_m1(A, x[act]) + q, 0.0)
        gn = np.max(np.abs(g[act]), axis=1)
        gained = gn < 0.7 * best[act]
        best[act[gained]] = gn[gained]
        stale[act] = np.where(gained, 0, stale[act] + 1)
        act = act[stale[act] < 8]  # no real progress: a root is not nearby
    else:
        status[act[np.max(np.abs(g[act]), axis=1) <= tol]] = "ok"
    return x, tuple(status)


def brute_force_sparse(inst: Instance, opts: OracleOptions | None = None) -> OracleResult:
    """Exact sparse-solution search by support enumeration.

    Supports are visited by increasing cardinality, lexicographic within each
    size.  Every nonempty support gets opts.newton_starts seeded starts, and
    the starts of every support are stacked as rows of one masked
    reduced_newton batch on the full tensor: one batch for all sizes when
    opts.exhaustive, else one per size, so that the search stops at the first
    size that yields a verified solution.  The converged roots of a batch are
    screened together on the original instance, and every new root that
    survives must pass verify_solution there; roots within DEDUP_TOL of a
    solution already found are dropped.
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
        if any(float(np.max(np.abs(u - u0))) < DEDUP_TOL for u0, _, _ in solutions):
            return
        report, passed = verify_solution(inst, u, opts.tol)
        if passed:
            solutions.append((u, report.support, report))
            found_at.append(size)

    # a huge instance overflows Newton rows, which then stall or go singular without a warning
    with np.errstate(over="ignore", invalid="ignore"):
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
            xs, statuses = reduced_newton(work, mask, x0)
            ok = np.array(statuses) == "ok"
            x, size, slack = xs[ok], mask[ok].sum(axis=1), 10.0 * opts.tol
            # one batch screens the roots: a miss by 10 tol fails verify_solution at tol
            w = contract_m1(inst.tensor, x) + inst.q
            near = (x.min(axis=1) >= -slack) & (w.min(axis=1) >= -slack)
            for r in np.flatnonzero(near & (np.abs(np.einsum("ij,ij->i", x, w)) <= slack)):
                visit(x[r], int(size[r]))

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
            found.append(u.copy())

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
            found.append(u.copy())
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
    # entries above it are in every solution's support; a constant, not a setting
    support_tol: ClassVar[float] = NEWTON_REACH


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
    of its entries above LeastElementOptions.support_tol = NEWTON_REACH has
    u_k > 0 and lies inside the support of every solution.  Either way its
    cardinality at support_tol is at most that of any solution.

    Raises ValueError when the instance is not a Z-tensor or has no feasible
    point, shown by a row with a_ii <= 0 whose r_i exceeds opts.tol or by
    non-finite (unbounded) iterates, and RuntimeError after
    LEAST_ELEMENT_MAX_STEPS steps.
    """
    opts = opts or LeastElementOptions()
    if not is_z_tensor(inst.tensor):
        raise ValueError("not a Z-tensor: least element is not guaranteed to exist")
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
            stuck = np.flatnonzero(~pos & (r > opts.tol))
            if stuck.size:
                i = stuck[0]
                raise ValueError(
                    f"infeasible: row {i} has a_ii <= 0 and w_{i} <= {-r[i]:.3g} "
                    f"at every u above the iterate of step {step}"
                )
            if np.max(np.abs(u_new - u)) <= FIXED_POINT_RTOL * max(1.0, np.max(u_new)):
                if verify_solution(inst, u_new, opts.tol)[1]:
                    return u_new
            new_support = tuple(int(i) for i in np.flatnonzero(u_new > 0))
            if new_support and new_support == support and new_support not in tried:
                tried.add(new_support)
                (root,), (status,) = reduced_newton(work, (u_new > 0)[None], u_new[None])
                if status == "ok" and verify_solution(inst, root, opts.tol)[1]:
                    upper = root
            if (
                upper is not None
                and np.all(upper >= u_new - opts.tol)
                and np.max(upper - u_new) <= NEWTON_REACH
            ):
                return upper
            u, support = u_new, new_support
    raise RuntimeError(f"no least element found after {LEAST_ELEMENT_MAX_STEPS} steps")
