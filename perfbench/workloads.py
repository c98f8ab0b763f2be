"""Benchmark workloads: planted Z-tensor instances, the program call, and its check.

Every workload draws its instances from the planted family `gen_z_feasible`.
The plant is the least element and a sparsest solution of its instance, so
each answer is checked against it without running the oracle in the timed
loop.  Functions of `sparse_tcp` are looked up on the package at call time,
so the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

import sparse_tcp

# Instance i of benchmark seed s uses generator seed s * SEED_STRIDE + i.
SEED_STRIDE = 1000

SOLVER_TOL = 1e-6
ORACLE_TOL = 1e-8


@dataclass(frozen=True)
class Case:
    label: str
    seed: int
    inst: sparse_tcp.Instance
    plant: np.ndarray
    support: tuple[int, ...]


@dataclass(frozen=True)
class Verdict:
    """Outcome of one checked instance.

    `failed`: raised, or its answer failed the check.  `claimed`: the program
    presented the answer as a solution (no exception, and for the solver its
    own `converged` flag).  A failed answer that was claimed is a wrong
    answer, which makes the whole run incorrect; a failure the program
    reports itself stays a counted failure.
    """

    failed: bool
    claimed: bool
    card_match: bool
    error: str | None = None


class Workload:
    """One family of instances plus the program call made on each of them."""

    name = ""
    shapes: tuple[tuple[int, int], ...] = ()  # (n, m), cycled over instances
    # Planted cardinalities, cycled once per pass over the shapes; None lets
    # the generator draw it from the instance seed.  Cycling both n and card
    # stratifies the family: per-instance cost depends mostly on the two, so
    # a run's mix, and with it the run's figures, no longer moves with the
    # seed's draw of cardinalities.
    cards: tuple[int | None, ...] = (None,)
    # Pool size per measured second: enough instances that a timed pass at
    # this host's speed never repeats one (the pool is cycled if it runs out).
    pool_per_second = 1.0
    # Instances in the traced run: one of each shape and card, a fixed set so
    # that its counts repeat exactly.
    traced = 1

    def cases(self, seed: int, count: int) -> list[Case]:
        out = []
        for i in range(count):
            n, m = self.shapes[i % len(self.shapes)]
            card = self.cards[i // len(self.shapes) % len(self.cards)]
            s = seed * SEED_STRIDE + i
            inst, plant, support = sparse_tcp.gen_z_feasible(n, m, s, card=card)
            out.append(Case(inst.label, s, inst, plant, tuple(support)))
        return out

    def run(self, case: Case):
        raise NotImplementedError

    def check(self, case: Case, out) -> Verdict:
        raise NotImplementedError

    def fingerprint(self, out) -> str:
        """Digest of the answer's bits, used to compare traced and untraced runs."""
        if isinstance(out, Exception):
            return f"error:{type(out).__name__}"
        h = hashlib.sha256()
        for arr in self._answer_arrays(out):
            h.update(b"|" if arr is None else np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def _answer_arrays(self, out):
        raise NotImplementedError


class SolveWorkload(Workload):
    def run(self, case):
        return sparse_tcp.solve_sparse_tcp(case.inst, sparse_tcp.SolveOptions())

    def check(self, case, out):
        if isinstance(out, Exception):
            return Verdict(True, False, False, type(out).__name__)
        _, passed = sparse_tcp.verify_solution(case.inst, out.u_final, SOLVER_TOL)
        card_ok = out.card == len(case.support)
        return Verdict(not passed, out.converged, card_ok, None if passed else "unverified")

    def _answer_arrays(self, out):
        return [out.u_final]


class SolvePlanted(SolveWorkload):
    name = "solve-planted"
    shapes = ((3, 3), (4, 3), (5, 3))
    cards = (1, 2)
    pool_per_second = 2.0
    traced = 6


class SolveWide(SolveWorkload):
    name = "solve-wide"
    shapes = ((48, 3), (16, 4))
    pool_per_second = 0.1
    traced = 2


class OraclePlanted(Workload):
    name = "oracle-planted"
    shapes = SolvePlanted.shapes
    cards = SolvePlanted.cards
    pool_per_second = 2.0
    traced = SolvePlanted.traced

    def run(self, case):
        bf = sparse_tcp.brute_force_sparse(
            case.inst, sparse_tcp.OracleOptions(exhaustive=True, seed=case.seed)
        )
        le = sparse_tcp.least_element(case.inst, sparse_tcp.LeastElementOptions(seed=case.seed))
        return bf, le

    def check(self, case, out):
        if isinstance(out, Exception):
            return Verdict(True, False, False, type(out).__name__)
        bf, le = out
        card = len(case.support)
        sparse_ok = (
            bf.sparse_solution is not None
            and float(np.max(np.abs(bf.sparse_solution - case.plant))) <= ORACLE_TOL
        )
        _, le_ok = sparse_tcp.verify_solution(case.inst, le, ORACLE_TOL)
        le_card = sparse_tcp.card(le, sparse_tcp.LeastElementOptions().support_tol)
        card_ok = bf.min_card == card and le_card == card
        passed = bf.min_card == card and sparse_ok and le_ok
        return Verdict(not passed, True, card_ok, None if passed else "oracle check")

    def _answer_arrays(self, out):
        bf, le = out
        arrays = [np.array([-1 if bf.min_card is None else bf.min_card]), bf.sparse_solution, le]
        return arrays + [u for u, _, _ in bf.solutions]


WORKLOADS = {w.name: w for w in (SolvePlanted(), OraclePlanted(), SolveWide())}
