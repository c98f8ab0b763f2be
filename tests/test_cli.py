"""CLI contract: subcommands, exit codes, report schemas, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sparse_tcp
from sparse_tcp import gen_instance, is_z_tensor, load_instance, save_instance
from sparse_tcp.cli import build_parser, main


def run(args):
    try:
        return main([str(a) for a in args])
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def test_gen_round_trip(tmp_path):
    path = tmp_path / "inst.json"
    assert run(["gen", "--kind", "z_feasible", "--n", 4, "--m", 3, "--seed", 7, "-o", path]) == 0
    inst = load_instance(path)
    assert is_z_tensor(inst.tensor)
    fresh = gen_instance("z_feasible", 4, 3, 7)
    np.testing.assert_array_equal(inst.tensor.entries, fresh.tensor.entries)
    np.testing.assert_array_equal(inst.q, fresh.q)


def test_gen_paper_example(tmp_path):
    path = tmp_path / "ex.json"
    assert run(["gen", "--kind", "paper_example", "-o", path]) == 0
    inst = load_instance(path)
    fresh = gen_instance("paper_example", 0, 0, 0)
    np.testing.assert_array_equal(inst.tensor.entries, fresh.tensor.entries)
    assert inst.label == "T_{3,2}"


def test_gen_diagonal_is_z(tmp_path):
    path = tmp_path / "diag.json"
    assert run(["gen", "--kind", "diagonal", "--n", 2, "--m", 3, "--seed", 1, "-o", path]) == 0
    assert is_z_tensor(load_instance(path).tensor)


def test_gen_bad_kind_usage_error(tmp_path):
    assert run(["gen", "--kind", "nope", "-o", tmp_path / "x.json"]) == 2


def test_gen_oversized_tensor_exits_2(tmp_path, capsys):
    out = tmp_path / "big.json"
    assert run(["gen", "--kind", "random", "--n", 60, "--m", 7, "-o", out]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: tensor too large")
    assert not out.exists()


def test_gen_high_order_z_feasible_is_fast(tmp_path):
    # each drawn multiset of 13 trailing indices has 13! (6.2e9) orderings, but
    # over n = 2 there are only 2^13 = 8,192 distinct trailing multi-indices
    out = tmp_path / "high.json"
    start = time.perf_counter()
    assert run(["gen", "--kind", "z_feasible", "--n", 2, "--m", 14, "--card", 1, "-o", out]) == 0
    assert time.perf_counter() - start < 5.0
    assert load_instance(out).m == 14


def test_solve_planted(tmp_path):
    inst_path = tmp_path / "inst.json"
    report_path = tmp_path / "report.json"
    run(["gen", "--kind", "z_feasible", "--n", 4, "--m", 3, "--seed", 7, "--card", 1, "-o", inst_path])
    code = run(["solve", inst_path, "-o", report_path, "--no-timestamp"])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["schema"] == "sparse-tcp/1"
    assert report["result"]["converged"] is True
    assert report["result"]["card"] == 1
    assert report["options"]["starts"] == 5


def test_solve_zero_regime_exit_code(tmp_path):
    from sparse_tcp import (
        BoundInputs,
        Instance,
        compute_Bbar,
        gamma_k,
        identity_tensor,
        q_tilde,
        tensor_norm,
    )

    inst_path = tmp_path / "inst.json"
    report_path = tmp_path / "report.json"
    inst = Instance(identity_tensor(2, 3), np.array([-0.1, 0.05]), label="mild")
    save_instance(inst, inst_path)
    qt = q_tilde(inst.q)
    b = BoundInputs(
        t=1.0, p=0.5, m=inst.m, normA=tensor_norm(inst.tensor),
        mu=compute_Bbar(inst.n, 0.5, 1.0), f0=2.0 * float(qt @ qt),
    )
    t0 = 10.0
    assert gamma_k(1, b) < t0  # the zero-minimizer regime applies at this t0
    code = run(["solve", inst_path, "-o", report_path, "--t0", t0, "--steps", 1, "--no-timestamp"])
    report = json.loads(report_path.read_text())
    assert report["result"]["u_final"] == [0.0, 0.0]
    assert code == 3  # 0 does not solve the TCP itself here


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_solve_every_start_diverging_exits_3(tmp_path, monkeypatch, capsys):
    import sparse_tcp.solve

    monkeypatch.setattr(
        sparse_tcp.solve, "_initial_point", lambda qt, rng, start, m: np.full(qt.size, 1e200)
    )
    inst_path = tmp_path / "inst.json"
    run(["gen", "--kind", "z_feasible", "--n", 3, "--m", 3, "--seed", 5, "-o", inst_path])
    assert run(["solve", inst_path, "--no-timestamp"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "every start diverged" in err


def test_solve_missing_file(tmp_path):
    assert run(["solve", tmp_path / "nope.json"]) == 2


def test_high_order_instance_solves_quietly(tmp_path, capsys):
    # 11! orderings of the trailing indices, 2^11 distinct ones: the symmetry
    # check and the contractions must cost the latter, and an overflow in a
    # probe of the descent must not reach stderr
    inst_path = tmp_path / "high.json"
    run(["gen", "--kind", "z_feasible", "--n", 2, "--m", 12, "--card", 1, "-o", inst_path])
    for command in ("solve", "oracle"):
        start = time.perf_counter()
        assert run([command, inst_path, "-o", tmp_path / f"{command}.json"]) == 0
        assert time.perf_counter() - start < 30.0
    assert capsys.readouterr().err == ""


def test_solve_overflowing_weight_exits_3_with_one_line(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run(["gen", "--kind", "z_feasible", "--n", 3, "--m", 3, "--seed", 1, "-o", inst_path])
    assert run(["solve", inst_path, "--t0", "1e308", "--steps", 1]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "every start diverged" in err


def test_instance_path_that_is_a_directory_exits_2(tmp_path, capsys):
    for command in (["solve"], ["oracle"], ["verify", "--u", "1"]):
        assert run([command[0], tmp_path, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(tmp_path) in err


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b'{"m": 3, "n": 2, "entries": [1, 1, 1, 1, 1, 1, 1, 1], "q": [1e400, 0]}'],
    ids=["not-utf8", "q-1e400"],
)
def test_undecodable_or_non_finite_instance_exits_2_naming_the_file(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    for command in (["solve"], ["oracle"], ["verify", "--u", "1,1"]):
        assert run([command[0], path, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: parse error in {path}")


# a value that does not belong in an instance field, or a number JSON can
# carry but a float cannot
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.integers(-3, 30),
    st.sampled_from([10**400, -(10**400), 1e308, float("nan"), float("inf")]),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
NUMBER = st.one_of(
    st.floats(-4.0, 4.0),
    st.integers(-4, 4),
    st.sampled_from([10**400, 1e308, -1e308, float("nan"), float("inf")]),
)


@st.composite
def instance_text(draw):
    """Instance JSON text: a well-formed payload, then some fields dropped or spoiled."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    payload = {
        "m": m,
        "n": n,
        "entries": draw(st.lists(NUMBER, min_size=n**m, max_size=n**m)),
        "q": draw(st.lists(NUMBER, min_size=n, max_size=n)),
        "label": "x",
    }
    for name in list(payload):
        how = draw(st.sampled_from(["keep", "keep", "drop", "junk", "junk list"]))
        if how == "drop":
            del payload[name]
        elif how == "junk":
            payload[name] = draw(JUNK)
        elif how == "junk list":
            payload[name] = draw(st.lists(JUNK, max_size=9))
    text = json.dumps(payload)
    return text[: draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    text=instance_text(),
    command=st.sampled_from(
        [
            ["solve"],
            ["solve", "--t0", "1e308", "--steps", "1"],
            ["solve", "--starts", "0"],
            ["solve", "--p", "nan"],
            ["oracle"],
            ["oracle", "--least-element"],
            ["verify", "--u", "1,1,1"],
            ["verify", "--u", "0.5,0.5"],
        ]
    ),
)
def test_malformed_instances_end_in_one_line(tmp_path_factory, text, command):
    # every outcome is a report (0), a refusal (2) or "not converged" (3),
    # with at most one line on stderr and never a traceback
    path = tmp_path_factory.mktemp("inst") / "inst.json"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run([command[0], path, *command[1:], "--no-timestamp"])
    assert code in (0, 2, 3)
    assert err.getvalue().count("\n") <= 1


@pytest.mark.parametrize("flag", ["--residual-tol"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_solve_non_finite_tolerance_exits_2(tmp_path, capsys, flag, value):
    inst_path = tmp_path / "inst.json"
    report_path = tmp_path / "report.json"
    run(["gen", "--kind", "z_feasible", "--n", 3, "--m", 3, "--seed", 5, "-o", inst_path])
    assert run(["solve", inst_path, flag, value, "-o", report_path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and "finite" in err
    assert not report_path.exists()


@pytest.mark.parametrize("value", ["1.5", "0", "nan"])
def test_solve_p_outside_unit_interval_exits_2(tmp_path, capsys, value):
    inst_path = tmp_path / "inst.json"
    report_path = tmp_path / "report.json"
    run(["gen", "--kind", "z_feasible", "--n", 3, "--m", 3, "--seed", 5, "-o", inst_path])
    assert run(["solve", inst_path, "--p", value, "-o", report_path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: p must lie in (0, 1)")
    assert not report_path.exists()


def test_solve_defaults_are_the_library_defaults(tmp_path):
    inst_path = tmp_path / "inst.json"
    report_path = tmp_path / "report.json"
    run(["gen", "--kind", "z_feasible", "--n", 3, "--m", 3, "--seed", 5, "-o", inst_path])
    assert run(["solve", inst_path, "-o", report_path, "--no-timestamp"]) == 0
    report = json.loads(report_path.read_text())
    assert report["options"] == sparse_tcp.SolveOptions().to_dict()
    assert report["result"]["options"] == report["options"]


def test_solve_parser_has_one_flag_per_option():
    # every SolveOptions field has its flag (the schedule as --t0, --factor and
    # --steps), with the library default, and no other option flag exists
    args = vars(build_parser().parse_args(["solve", "inst.json"]))
    for name in ("command", "func", "instance", "output", "no_timestamp"):
        del args[name]
    assert args == sparse_tcp.SolveOptions().to_dict()


def test_solve_deterministic_bytes(tmp_path):
    inst_path = tmp_path / "inst.json"
    run(["gen", "--kind", "z_feasible", "--n", 3, "--m", 3, "--seed", 5, "-o", inst_path])
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run(["solve", inst_path, "-o", out1, "--no-timestamp"]) == 0
    assert run(["solve", inst_path, "-o", out2, "--no-timestamp"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_oracle_diagonal_full_card(tmp_path):
    inst_path = tmp_path / "diag.json"
    inst = gen_instance("diagonal", 3, 3, 0)
    inst = type(inst)(inst.tensor, -np.ones(3), label="diag-neg")
    save_instance(inst, inst_path)
    report_path = tmp_path / "oracle.json"
    assert run(["oracle", inst_path, "-o", report_path, "--no-timestamp"]) == 0
    report = json.loads(report_path.read_text())
    assert report["result"]["min_card"] == 3
    assert report["result"]["is_z_tensor"] is True
    assert report["result"]["least_element"] == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)


def test_oracle_planted_card1(tmp_path):
    inst_path = tmp_path / "inst.json"
    run(["gen", "--kind", "z_feasible", "--n", 4, "--m", 3, "--seed", 7, "--card", 1, "-o", inst_path])
    report_path = tmp_path / "oracle.json"
    assert run(["oracle", inst_path, "-o", report_path, "--exhaustive", "--no-timestamp"]) == 0
    report = json.loads(report_path.read_text())
    assert report["result"]["min_card"] == 1
    assert report["result"]["exhaustive"] is True
    assert "0.5" in report["result"]["minimal_lp"]


def test_oracle_report_options_are_the_library_options(tmp_path):
    inst_path = tmp_path / "inst.json"
    report_path = tmp_path / "oracle.json"
    run(["gen", "--kind", "z_feasible", "--n", 3, "--m", 3, "--seed", 5, "-o", inst_path])
    assert run(["oracle", inst_path, "-o", report_path, "--no-timestamp"]) == 0
    options = json.loads(report_path.read_text())["options"]
    assert options == {**asdict(sparse_tcp.OracleOptions()), "p_list": "0.5", "least_element": False}


def test_oracle_least_element_requires_z(tmp_path):
    inst_path = tmp_path / "rand.json"
    run(["gen", "--kind", "random", "--n", 3, "--m", 3, "--seed", 1, "-o", inst_path])
    assert run(["oracle", inst_path, "--least-element"]) == 2


def test_oracle_least_element_infeasible_z(tmp_path):
    # row 0 has a zero diagonal and q_0 = -1, so w_0 = -1 at every u >= 0
    arr = np.zeros((2, 2, 2))
    arr[1, 1, 1] = 1.0
    inst_path = tmp_path / "infeasible.json"
    tensor = sparse_tcp.DenseTensor(3, 2, arr.reshape(-1))
    save_instance(sparse_tcp.Instance(tensor, [-1.0, 0.5]), inst_path)
    report_path = tmp_path / "oracle.json"
    assert run(["oracle", inst_path, "--least-element", "-o", report_path, "--no-timestamp"]) == 0
    result = json.loads(report_path.read_text())["result"]
    assert result["is_z_tensor"] is True
    assert result["min_card"] is None
    assert result["least_element"] is None
    error = result["least_element_error"]
    assert error.startswith("infeasible: row 0") and "\n" not in error


def test_oracle_z_instance_enumerates_once(tmp_path, monkeypatch):
    # the least element needs no enumeration of its own
    inst_path = tmp_path / "inst.json"
    report_path = tmp_path / "oracle.json"
    run(["gen", "--kind", "z_feasible", "--n", 4, "--m", 3, "--seed", 3, "-o", inst_path])
    calls = []
    enumerate_ = sparse_tcp.cli.brute_force_sparse

    def counted(*args, **kwargs):
        calls.append(1)
        return enumerate_(*args, **kwargs)

    monkeypatch.setattr(sparse_tcp.cli, "brute_force_sparse", counted)
    monkeypatch.setattr(sparse_tcp.oracle, "brute_force_sparse", counted)
    assert run(["oracle", inst_path, "-o", report_path, "--no-timestamp"]) == 0
    result = json.loads(report_path.read_text())["result"]
    assert result["least_element"] is not None
    assert len(calls) == 1


def test_oracle_nonexhaustive_run_is_quiet(tmp_path):
    """A successful default `oracle` run writes nothing to stderr.

    Without --exhaustive the minimal-l_p selection is approximate; the
    report's "exhaustive": false says so instead of a warning.
    """
    package_root = str(Path(sparse_tcp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    cli = [sys.executable, "-m", "sparse_tcp"]
    gen = ["gen", "--kind", "z_feasible", "--n", "4", "--m", "3", "--seed", "3", "-o", "inst.json"]
    for argv in (cli + gen, cli + ["oracle", "inst.json"]):
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
    result = json.loads(proc.stdout)["result"]
    assert result["exhaustive"] is False
    assert "0.5" in result["minimal_lp"]


@pytest.mark.parametrize(
    "flags",
    [
        ["--newton-starts", "0"],
        ["--newton-starts", "-1"],
        ["--tol", "nan"],
        ["--tol", "0"],
        ["--max-card", "-2"],
        ["--p-list", "2"],
        ["--p-list", "0.5,abc"],
    ],
)
def test_oracle_bad_option_exits_2_before_enumerating(tmp_path, capsys, monkeypatch, flags):
    inst_path = tmp_path / "inst.json"
    report_path = tmp_path / "oracle.json"
    run(["gen", "--kind", "z_feasible", "--n", 4, "--m", 3, "--seed", 3, "-o", inst_path])

    def enumerate_anyway(*args, **kwargs):
        raise AssertionError("enumerated despite a bad option")

    monkeypatch.setattr(sparse_tcp.cli, "brute_force_sparse", enumerate_anyway)
    assert run(["oracle", inst_path, *flags, "-o", report_path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not report_path.exists()


def test_oracle_guard_large_n(tmp_path):
    inst_path = tmp_path / "big.json"
    save_instance(gen_instance("diagonal", 9, 2, 0), inst_path)
    assert run(["oracle", inst_path]) == 2


def test_verify_pass_and_fail(tmp_path):
    inst_path = tmp_path / "inst.json"
    run(["gen", "--kind", "z_feasible", "--n", 4, "--m", 3, "--seed", 3, "-o", inst_path])
    from sparse_tcp import brute_force_sparse

    inst = load_instance(inst_path)
    result = brute_force_sparse(inst)
    u = result.sparse_solution
    ustr = ",".join(repr(float(x)) for x in u)
    assert run(["verify", inst_path, "--u", ustr]) == 0
    noisy = ",".join(repr(float(x + 1e-2)) for x in u)
    assert run(["verify", inst_path, "--u", noisy]) == 3


def test_verify_u_file_and_dimension_error(tmp_path):
    inst_path = tmp_path / "inst.json"
    run(["gen", "--kind", "diagonal", "--n", 2, "--m", 3, "--seed", 1, "-o", inst_path])
    u_path = tmp_path / "u.json"
    u_path.write_text("[0.0, 0.0]")
    assert run(["verify", inst_path, "--u-file", u_path]) == 0
    u_path.write_text("[0.0, 0.0, 0.0]")
    assert run(["verify", inst_path, "--u-file", u_path]) == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_non_finite_tolerance_exits_2(tmp_path, capsys, value):
    # with --tol inf every candidate would pass, with nan every one would fail
    inst_path = tmp_path / "inst.json"
    report_path = tmp_path / "verify.json"
    run(["gen", "--kind", "z_feasible", "--n", 3, "--m", 3, "--seed", 5, "-o", inst_path])
    assert run(["verify", inst_path, "--u", "5,5,5", f"--tol={value}", "-o", report_path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: tol must be finite")
    assert not report_path.exists()


@pytest.mark.parametrize(
    "source, text",
    [
        pytest.param("file", "[1, 2", id="file-malformed"),
        pytest.param("file", '[{"a": 1}, 1, 2]', id="file-object"),
        pytest.param("file", "[null, 1, 2]", id="file-null"),
        pytest.param("file", "[true, 1, 2]", id="file-bool"),
        pytest.param("file", "[NaN, 1, 2]", id="file-nan"),
        pytest.param("file", "[1e999, 1, 2]", id="file-inf"),
        pytest.param("file", "[1" + "0" * 400 + ", 1, 2]", id="file-int-beyond-float"),
        pytest.param("flag", "nan,1,1", id="flag-nan"),
        pytest.param("flag", "1,-inf,1", id="flag-inf"),
        pytest.param("flag", "1,,1", id="flag-empty"),
    ],
)
def test_verify_bad_candidate_entry_exits_2(tmp_path, capsys, source, text):
    inst_path = tmp_path / "inst.json"
    report_path = tmp_path / "verify.json"
    run(["gen", "--kind", "z_feasible", "--n", 3, "--m", 3, "--seed", 5, "-o", inst_path])
    if source == "file":
        u_path = tmp_path / "u.json"
        u_path.write_text(text)
        flags, where = ["--u-file", u_path], str(u_path)
    else:
        flags, where = ["--u", text], "--u"
    assert run(["verify", inst_path, *flags, "-o", report_path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and where in err
    assert not report_path.exists()


def test_example_report(tmp_path):
    report_path = tmp_path / "example.json"
    assert run(["example", "-o", report_path, "--no-timestamp"]) == 0
    text = report_path.read_text()
    assert "T_{3,2}" in text
    report = json.loads(text)
    result = report["result"]
    for entry in result["family"]:
        assert entry["encoded_n3"]["identity_residual_row1"] < 1e-12
        # row-3 value is exactly -1 under the encoding
        assert entry["encoded_n3"]["w"][2] == pytest.approx(-1.0, abs=1e-12)
    cand = result["claimed_sparse_solution"]
    assert cand["claimed"] == [1.0, 0.0, 0.0]
    assert cand["encoded_n3"]["pass"] is False
    assert cand["truncated_n2"]["pass"] is True
    assert result["oracle_encoded_n3"]["min_card"] is None
    assert result["oracle_truncated_n2"]["min_card"] == 1
    assert any("component-3" in note for note in result["notes"])
    assert any("dimension-label" in note for note in result["notes"])
    # no solution exists under the encoding, so no weight ceiling there; the
    # truncated reading gives 2 ||q~||^2 / sum|u_i|^p = 2*1/1
    assert result["t_upper_for_nonzero"]["encoded_n3"] is None
    assert result["t_upper_for_nonzero"]["truncated_n2"] == pytest.approx(2.0)


def test_example_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["example", "-o", a, "--no-timestamp"]) == 0
    assert run(["example", "-o", b, "--no-timestamp"]) == 0
    assert a.read_bytes() == b.read_bytes()


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SUBCOMMANDS = ("gen", "solve", "oracle", "verify", "example")


def project_scripts() -> dict[str, str]:
    """The `[project.scripts]` table of pyproject.toml."""
    text = PYPROJECT.read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no tomllib; the table is flat `name = "target"` lines
        table = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
        return dict(re.findall(r'^"?([\w.-]+)"?\s*=\s*"([^"]+)"', table, re.MULTILINE))
    return tomllib.loads(text)["project"]["scripts"]


def assert_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: sparse-tcp ")
    for command in SUBCOMMANDS:
        assert re.search(rf"^\s+{command}\s", proc.stdout, re.MULTILINE), command


def test_console_script_help(tmp_path):
    """The declared console-script target and `python -m sparse_tcp` both print the help.

    The children run outside the checkout with this process's own package
    directory first on PYTHONPATH, so they need no installed `sparse-tcp`
    wrapper and import the same `sparse_tcp` as the tests do.
    """
    target = project_scripts()["sparse-tcp"]
    assert target == "sparse_tcp.cli:console_main"
    module, func = target.split(":")
    package_root = str(Path(sparse_tcp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    for argv in ([sys.executable, "-c", wrapper, "--help"], [sys.executable, "-m", "sparse_tcp", "--help"]):
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path, env=env)
        assert_help(proc)


@pytest.mark.skipif(shutil.which("sparse-tcp") is None, reason="no installed sparse-tcp script on PATH")
def test_installed_console_script_help():
    proc = subprocess.run([shutil.which("sparse-tcp"), "--help"], capture_output=True, text=True)
    assert_help(proc)
