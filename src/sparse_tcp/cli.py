"""Command-line front end: gen | solve | oracle | verify | example | bench.

Reports are machine-first JSON (schema "sparse-tcp/1") with the full resolved
option set embedded; bench emits plot-ready CSV.  Identical arguments and seed
produce byte-identical reports when --no-timestamp is given.

Exit codes: 0 success / pass, 2 bad arguments or guard violations, 3 solver
did not converge or verification failed, 1 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .merit import ObjectiveParams
from .oracle import (
    N_MAX,
    LeastElementOptions,
    OracleOptions,
    brute_force_sparse,
    least_element,
    minimal_lp_select,
    verify_solution,
)
from .regpath import make_schedule, t_upper_for_nonzero
from .solve import DivergedError, SolveOptions, solve_sparse_tcp
from .tensors import (
    EXAMPLE_LABEL,
    DenseTensor,
    Instance,
    INSTANCE_KINDS,
    contract_m1,
    example_instance,
    gen_instance,
    is_z_tensor,
    load_instance,
    save_instance,
)

SCHEMA = "sparse-tcp/1"


@dataclass
class RunConfig:
    command: str
    instance_path: str | None = None
    output_path: str | None = None
    overrides: dict = field(default_factory=dict)
    format: str = "json"


def _emit(payload: dict, output_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if output_path:
        Path(output_path).write_text(text)
    else:
        sys.stdout.write(text)


def _base_report(command: str, cfg: RunConfig, no_timestamp: bool) -> dict:
    report = {"schema": SCHEMA, "command": command, "options": dict(cfg.overrides)}
    if not no_timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return report


def _solve_options(args) -> SolveOptions:
    return SolveOptions(
        params=ObjectiveParams(t=args.t0, p=args.p),
        schedule=make_schedule(args.t0, args.factor, args.steps),
        eps0=args.eps0,
        eps_factor=args.eps_factor,
        max_outer=args.max_outer,
        max_inner=args.max_inner,
        armijo_c=args.armijo_c,
        armijo_shrink=args.armijo_shrink,
        grad_tol=args.grad_tol,
        residual_tol=args.residual_tol,
        starts=args.starts,
        seed=args.seed,
        polish=not args.no_polish,
    )


def _add_solver_flags(sp) -> None:
    sp.add_argument("--t0", type=float, default=0.1)
    sp.add_argument("--factor", type=float, default=0.5)
    sp.add_argument("--steps", type=int, default=12)
    sp.add_argument("--p", type=float, default=0.5)
    sp.add_argument("--eps0", type=float, default=0.1)
    sp.add_argument("--eps-factor", type=float, default=0.3)
    sp.add_argument("--max-outer", type=int, default=25)
    sp.add_argument("--max-inner", type=int, default=150)
    sp.add_argument("--armijo-c", type=float, default=1e-4)
    sp.add_argument("--armijo-shrink", type=float, default=0.5)
    sp.add_argument("--grad-tol", type=float, default=1e-8)
    sp.add_argument("--residual-tol", type=float, default=1e-6)
    sp.add_argument("--starts", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--no-polish", action="store_true")


def cmd_gen(args) -> int:
    inst = gen_instance(args.kind, args.n, args.m, args.seed, card=args.card)
    save_instance(inst, args.output)
    return 0


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    opts = _solve_options(args)
    cfg = RunConfig("solve", args.instance, args.output, opts.to_dict())
    report = _base_report("solve", cfg, args.no_timestamp)
    result = solve_sparse_tcp(inst, opts)
    report["instance"] = {"path": args.instance, "label": inst.label, "n": inst.n, "m": inst.m}
    report["result"] = result.to_dict()
    _emit(report, args.output)
    return 0 if result.converged else 3


def cmd_oracle(args) -> int:
    inst = load_instance(args.instance)
    if inst.n > N_MAX:
        print(f"error: oracle guard: n = {inst.n} > {N_MAX}", file=sys.stderr)
        return 2
    z = is_z_tensor(inst.tensor)
    if args.least_element and not z:
        print("error: not a Z-tensor: --least-element unavailable", file=sys.stderr)
        return 2
    opts = OracleOptions(
        max_card=args.max_card,
        newton_starts=args.newton_starts,
        tol=args.tol,
        seed=args.seed,
        exhaustive=args.exhaustive,
    )
    overrides = {
        "max_card": args.max_card,
        "newton_starts": args.newton_starts,
        "tol": args.tol,
        "seed": args.seed,
        "exhaustive": args.exhaustive,
        "p_list": args.p_list,
        "least_element": args.least_element,
    }
    cfg = RunConfig("oracle", args.instance, args.output, overrides)
    report = _base_report("oracle", cfg, args.no_timestamp)
    result = brute_force_sparse(inst, opts)
    for p_str in filter(None, args.p_list.split(",")):
        p = float(p_str)
        if result.solutions:
            minimal_lp_select(result, p)
    payload = result.to_dict()
    payload["is_z_tensor"] = z
    payload["least_element"] = None
    if z and (args.least_element or result.solutions):
        try:
            le = least_element(inst, LeastElementOptions(seed=args.seed, tol=args.tol))
            payload["least_element"] = [float(x) for x in le]
        except (ValueError, RuntimeError) as exc:
            payload["least_element_error"] = str(exc)
    report["instance"] = {"path": args.instance, "label": inst.label, "n": inst.n, "m": inst.m}
    report["result"] = payload
    _emit(report, args.output)
    return 0


def _parse_vector(args, n: int) -> np.ndarray:
    if args.u is not None:
        vals = [float(x) for x in args.u.split(",")]
    elif args.u_file is not None:
        vals = json.loads(Path(args.u_file).read_text())
        if not isinstance(vals, list):
            raise ValueError(f"parse error in {args.u_file}: expected a JSON array")
    else:
        raise ValueError("one of --u or --u-file is required")
    if len(vals) != n:
        raise ValueError(f"candidate has length {len(vals)}, instance dimension is {n}")
    return np.asarray(vals, dtype=float)


def cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    u = _parse_vector(args, inst.n)
    overrides = {"tol": args.tol, "u": [float(x) for x in u]}
    cfg = RunConfig("verify", args.instance, args.output, overrides)
    report = _base_report("verify", cfg, args.no_timestamp)
    residuals, passed = verify_solution(inst, u, args.tol)
    report["instance"] = {"path": args.instance, "label": inst.label, "n": inst.n, "m": inst.m}
    report["result"] = {"residuals": residuals.to_dict(), "pass": passed}
    _emit(report, args.output)
    return 0 if passed else 3


def _family_point(a: float) -> np.ndarray:
    return np.array([a + math.sqrt(2.0 * a * a + 1.0), 0.0, a])


def _truncated_instance() -> Instance:
    # the literal reading of the declared label: order 3, dimension 2, which
    # can only carry the entries whose indices stay within {1, 2}
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 0] = 1.0
    arr[1, 1, 1] = 1.5
    return Instance(DenseTensor(3, 2, arr.reshape(-1)), np.array([-1.0, 0.0]), label="T_{3,2}-truncated")


def _point_record(inst: Instance, u: np.ndarray, tol: float) -> dict:
    residuals, passed = verify_solution(inst, u, tol)
    w = contract_m1(inst.tensor, u) + inst.q
    return {
        "u": [float(x) for x in u],
        "w": [float(x) for x in w],
        "residuals": residuals.to_dict(),
        "pass": passed,
    }


def example_report(tol: float = 1e-8) -> dict:
    """Reproduction data for the fixed example instance, both readings."""
    inst = example_instance()
    trunc = _truncated_instance()
    a_values = [0.0, 0.25, 0.5, 1.0, 2.0]

    family = []
    for a in a_values:
        x = _family_point(a)
        rec = _point_record(inst, x, tol)
        rec["a"] = a
        # row-1 complementarity identity of the family: x1^2 - 2 a x1 - a^2 - 1 = 0
        rec["identity_residual_row1"] = abs(x[0] ** 2 - 2.0 * a * x[0] - a * a - 1.0)
        rec_t = _point_record(trunc, x[:2], tol)
        family.append({"encoded_n3": rec, "truncated_n2": rec_t})

    candidate = np.array([1.0, 0.0, 0.0])
    candidate_rec = {
        "claimed": [1.0, 0.0, 0.0],
        "encoded_n3": _point_record(inst, candidate, tol),
        "truncated_n2": _point_record(trunc, candidate[:2], tol),
    }

    oracle_n3 = brute_force_sparse(inst, OracleOptions(exhaustive=True, tol=tol))
    oracle_n2 = brute_force_sparse(trunc, OracleOptions(exhaustive=True, tol=tol))

    # weight ceiling below which 0 cannot be a global minimizer, per reading
    t_upper = {"encoded_n3": None, "truncated_n2": None}
    if oracle_n3.solutions:
        t_upper["encoded_n3"] = t_upper_for_nonzero(
            inst.q, minimal_lp_select(oracle_n3, 0.5), 0.5
        )
    if oracle_n2.solutions:
        t_upper["truncated_n2"] = t_upper_for_nonzero(
            trunc.q, minimal_lp_select(oracle_n2, 0.5), 0.5
        )

    notes = [
        f"dimension-label mismatch: the instance label {EXAMPLE_LABEL!r} declares order 3, "
        "dimension 2, but the listed entries use index 3; encoded here as m=3, n=3 with all "
        "unlisted entries zero",
        "component-3 discrepancy: under the m=3, n=3 encoding, every family point x(a) gives "
        "(A x^2 + q)_3 = -1, so the family fails feasibility in row 3 for all the sampled a",
        "the claimed sparse solution (1, 0, 0) also gives (A u^2 + q)_3 = -1 under the m=3, n=3 "
        "encoding; under the truncated n=2 reading its restriction (1, 0) verifies",
    ]
    return {
        "instance_label": EXAMPLE_LABEL,
        "encoding": {"declared": "order 3, dimension 2", "encoded": {"m": 3, "n": 3}},
        "a_values": a_values,
        "family": family,
        "claimed_sparse_solution": candidate_rec,
        "oracle_encoded_n3": oracle_n3.to_dict(),
        "oracle_truncated_n2": oracle_n2.to_dict(),
        "t_upper_for_nonzero": t_upper,
        "notes": notes,
        "tol": tol,
    }


def cmd_example(args) -> int:
    cfg = RunConfig("example", None, args.output, {"tol": args.tol})
    report = _base_report("example", cfg, args.no_timestamp)
    report["result"] = example_report(args.tol)
    _emit(report, args.output)
    return 0


def cmd_bench(args) -> int:
    n_list = [int(x) for x in args.n_list.split(",")]
    rows = []
    for i in range(args.count):
        n = n_list[i % len(n_list)]
        inst = gen_instance("z_feasible", n, args.m, args.seed + i)
        opts = SolveOptions(
            params=ObjectiveParams(t=args.t0, p=0.5),
            schedule=make_schedule(args.t0, 0.5, args.steps),
            starts=args.starts,
            seed=args.seed,
        )
        t_start = time.perf_counter()
        result = solve_sparse_tcp(inst, opts)
        wall = time.perf_counter() - t_start
        oracle = brute_force_sparse(inst, OracleOptions(seed=args.seed))
        rows.append(
            [
                inst.label,
                n,
                args.m,
                result.card,
                oracle.min_card,
                f"{result.residuals.fb_norm:.6e}",
                f"{wall:.4f}",
            ]
        )
    out = sys.stdout if not args.output else open(args.output, "w", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(["label", "n", "m", "solver_card", "oracle_card", "fb_norm", "wall_time_s"])
        writer.writerows(rows)
    finally:
        if args.output:
            out.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparse-tcp",
        description="Sparse solutions of tensor complementarity problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate an instance file")
    sp.add_argument("--kind", required=True, choices=INSTANCE_KINDS)
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--m", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--card", type=int, default=None)
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("solve", help="run the continuation solver")
    sp.add_argument("instance")
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--no-timestamp", action="store_true")
    _add_solver_flags(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("oracle", help="exact support enumeration and least element")
    sp.add_argument("instance")
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--max-card", type=int, default=None)
    sp.add_argument("--newton-starts", type=int, default=20)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--least-element", action="store_true")
    sp.add_argument("--p-list", default="0.5")
    sp.add_argument("--no-timestamp", action="store_true")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("verify", help="check a candidate point")
    sp.add_argument("instance")
    sp.add_argument("--u", default=None, help="comma-separated components")
    sp.add_argument("--u-file", default=None, help="JSON array file")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--no-timestamp", action="store_true")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("example", help="reproduction report for the fixed example instance")
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--no-timestamp", action="store_true")
    sp.set_defaults(func=cmd_example)

    sp = sub.add_parser("bench", help="CSV benchmark over a seeded instance suite")
    sp.add_argument("--count", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--m", type=int, default=3)
    sp.add_argument("--n-list", default="3,4,5")
    sp.add_argument("--t0", type=float, default=0.1)
    sp.add_argument("--steps", type=int, default=12)
    sp.add_argument("--starts", type=int, default=5)
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergedError as exc:  # no start kept a finite objective: not converged
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
