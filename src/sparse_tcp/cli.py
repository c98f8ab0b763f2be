"""Command-line front end: gen | solve | oracle | verify | example.

Reports are machine-first JSON (schema "sparse-tcp/1") with the full resolved
option set embedded.  Identical arguments and seed produce byte-identical
reports when --no-timestamp is given.

Exit codes: 0 success / pass, 2 bad arguments or guard violations, 3 solver
did not converge or verification failed, 1 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .oracle import (
    N_MAX,
    LeastElementOptions,
    OracleOptions,
    brute_force_sparse,
    least_element,
    minimal_lp_select,
    verify_solution,
)
from .regpath import Schedule, t_upper_for_nonzero
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


def _emit(payload: dict, output_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if output_path:
        Path(output_path).write_text(text)
    else:
        sys.stdout.write(text)


def _base_report(command: str, overrides: dict, no_timestamp: bool) -> dict:
    report = {"schema": SCHEMA, "command": command, "options": dict(overrides)}
    if not no_timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return report


# SolveOptions fields that map one-to-one onto the solve flag of the same name
_SOLVER_FIELDS = tuple(f.name for f in fields(SolveOptions) if f.name != "schedule")


def _solve_options(args) -> SolveOptions:
    return SolveOptions(
        schedule=Schedule(args.t0, args.factor, args.steps),
        **{name: getattr(args, name) for name in _SOLVER_FIELDS},
    )


def _add_solver_flags(sp) -> None:
    # the defaults are read off SolveOptions(), so flags and library cannot drift apart
    default = SolveOptions()
    walk = "the t-steps are t_k = t0*factor^k, k < steps, the last one final"
    sp.add_argument("--t0", type=float, default=default.schedule.t0,
                    help=f"first regularization weight; {walk} (default %(default)s)")
    sp.add_argument("--factor", type=float, default=default.schedule.factor,
                    help=f"ratio of successive weights; {walk} (default %(default)s)")
    sp.add_argument("--steps", type=int, default=default.schedule.steps,
                    help=f"number of weights; {walk} (default %(default)s); with the "
                    "default factor each extra step divides t by another 2^11, so a "
                    "longer halving walk needs --factor 0.5 as well")
    for name in _SOLVER_FIELDS:
        value = getattr(default, name)
        sp.add_argument("--" + name.replace("_", "-"), type=type(value), default=value)


def cmd_gen(args) -> int:
    inst = gen_instance(args.kind, args.n, args.m, args.seed, card=args.card)
    save_instance(inst, args.output)
    return 0


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    opts = _solve_options(args)
    report = _base_report("solve", opts.to_dict(), args.no_timestamp)
    result = solve_sparse_tcp(inst, opts)
    report["instance"] = {"path": args.instance, "label": inst.label, "n": inst.n, "m": inst.m}
    report["result"] = result.to_dict()
    _emit(report, args.output)
    return 0 if result.converged else 3


def _parse_p_list(text: str) -> list[float]:
    """The exponents of --p-list, each checked to lie in (0, 1]."""
    values = []
    for item in filter(None, text.split(",")):
        try:
            p = float(item)
        except ValueError:
            raise ValueError(f"--p-list: not a number: {item!r}") from None
        if not 0.0 < p <= 1.0:
            raise ValueError(f"--p-list: p must lie in (0, 1], got {item}")
        values.append(p)
    return values


def cmd_oracle(args) -> int:
    inst = load_instance(args.instance)
    if inst.n > N_MAX:
        print(f"error: oracle guard: n = {inst.n} > {N_MAX}", file=sys.stderr)
        return 2
    z = is_z_tensor(inst.tensor)
    if args.least_element and not z:
        print("error: not a Z-tensor: --least-element unavailable", file=sys.stderr)
        return 2
    opts = OracleOptions(**{f.name: getattr(args, f.name) for f in fields(OracleOptions)})
    p_values = _parse_p_list(args.p_list)
    overrides = {**asdict(opts), "p_list": args.p_list, "least_element": args.least_element}
    report = _base_report("oracle", overrides, args.no_timestamp)
    result = brute_force_sparse(inst, opts)
    if result.solutions:
        with warnings.catch_warnings():
            # the report's "exhaustive" field already marks an approximate selection
            warnings.filterwarnings("ignore", "minimal_lp_select on a non-exhaustive")
            for p in p_values:
                minimal_lp_select(result, p)
    payload = result.to_dict()
    payload["is_z_tensor"] = z
    payload["least_element"] = None
    if z and (args.least_element or result.solutions):
        try:
            le = least_element(inst, LeastElementOptions(tol=args.tol))
            payload["least_element"] = [float(x) for x in le]
        except (ValueError, RuntimeError) as exc:
            payload["least_element_error"] = str(exc)
    report["instance"] = {"path": args.instance, "label": inst.label, "n": inst.n, "m": inst.m}
    report["result"] = payload
    _emit(report, args.output)
    return 0


def _finite_number(x) -> bool:
    # JSON true/false load as Python bools, which are ints: refuse them by name
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def _parse_vector(args, n: int) -> np.ndarray:
    """The candidate of --u or --u-file, every entry checked to be a finite number."""
    if args.u is not None:
        where, vals = "--u", []
        for item in args.u.split(","):
            try:
                vals.append(float(item))
            except ValueError:
                raise ValueError(f"--u: not a number: {item!r}") from None
    elif args.u_file is not None:
        where = f"parse error in {args.u_file}"
        try:
            vals = json.loads(Path(args.u_file).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where}: invalid JSON ({exc})") from None
        if not isinstance(vals, list):
            raise ValueError(f"{where}: expected a JSON array")
    else:
        raise ValueError("one of --u or --u-file is required")
    for x in vals:
        if not _finite_number(x):
            raise ValueError(f"{where}: entries must be finite numbers, got {x!r}")
    if len(vals) != n:
        raise ValueError(f"candidate has length {len(vals)}, instance dimension is {n}")
    return np.asarray(vals, dtype=float)


def cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    u = _parse_vector(args, inst.n)
    overrides = {"tol": args.tol, "u": [float(x) for x in u]}
    report = _base_report("verify", overrides, args.no_timestamp)
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
    report = _base_report("example", {"tol": args.tol}, args.no_timestamp)
    report["result"] = example_report(args.tol)
    _emit(report, args.output)
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
    # the defaults are read off OracleOptions(), as the solve flags' are off SolveOptions()
    default = OracleOptions()
    sp.add_argument("--max-card", type=int, default=default.max_card)
    sp.add_argument("--newton-starts", type=int, default=default.newton_starts)
    sp.add_argument("--tol", type=float, default=default.tol)
    sp.add_argument("--seed", type=int, default=default.seed)
    sp.add_argument("--exhaustive", action="store_true", default=default.exhaustive)
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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:
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
