"""Contraction kernels against naive references, structure predicates, generation, IO."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_tcp import (
    DenseTensor,
    Instance,
    contract_full,
    contract_m1,
    contract_m2,
    gen_instance,
    gen_z_feasible,
    identity_tensor,
    is_z_tensor,
    load_instance,
    save_instance,
    semi_symmetrize,
    tensor_norm,
)
import sparse_tcp.tensors as tensors_mod
from sparse_tcp.tensors import (
    MAX_TENSOR_ENTRIES,
    _canonical_index,
    _check_size,
    contract_line,
    example_instance,
)


# -- independent naive references (pure loops over multi-indices) -------------


def contract_m1_naive(A, u):
    arr = A.as_array()
    out = np.zeros(A.n)
    for i in range(A.n):
        for idx in itertools.product(range(A.n), repeat=A.m - 1):
            term = arr[(i, *idx)]
            for j in idx:
                term *= u[j]
            out[i] += term
    return out


def contract_m2_naive(A, u):
    arr = A.as_array()
    out = np.zeros((A.n, A.n))
    for i in range(A.n):
        for j in range(A.n):
            if A.m == 2:
                out[i, j] = arr[i, j]
                continue
            for idx in itertools.product(range(A.n), repeat=A.m - 2):
                term = arr[(i, j, *idx)]
                for k in idx:
                    term *= u[k]
                out[i, j] += term
    return out


def contract_full_naive(A, u):
    arr = A.as_array()
    total = 0.0
    for idx in itertools.product(range(A.n), repeat=A.m):
        term = arr[idx]
        for j in idx:
            term *= u[j]
        total += term
    return total


def random_tensor(n, m, rng):
    return DenseTensor(m, n, rng.uniform(-1.0, 1.0, n**m))


def kron_flat(u, k):
    """k-fold Kronecker power of one vector, as a flat vector."""
    out = np.ones(1)
    for _ in range(k):
        out = (out[:, None] * u).reshape(-1)
    return out


# -- contraction kernels -------------------------------------------------------


def test_contract_m1_identity_all_ones():
    A = identity_tensor(2, 3)
    np.testing.assert_array_equal(contract_m1(A, np.ones(2)), [1.0, 1.0])


def test_contract_m1_zero_vector():
    rng = np.random.default_rng(1)
    A = random_tensor(3, 3, rng)
    np.testing.assert_array_equal(contract_m1(A, np.zeros(3)), np.zeros(3))


def test_contract_m1_example_component_one():
    inst = example_instance()
    w = contract_m1(inst.tensor, np.array([1.0, 0.0, 0.0]))
    assert w[0] == 1.0
    # full vector, frozen from the naive reference: rows are (1, 0, -2)
    np.testing.assert_allclose(w, [1.0, 0.0, -2.0], atol=0)


def test_contract_m1_matches_naive_seed42():
    rng = np.random.default_rng(42)
    A = random_tensor(3, 3, rng)
    u = rng.uniform(-1.0, 1.0, 3)
    np.testing.assert_allclose(contract_m1(A, u), contract_m1_naive(A, u), rtol=1e-12)


def test_contract_m2_identity_diag():
    A = identity_tensor(2, 3)
    np.testing.assert_array_equal(contract_m2(A, np.ones(2)), np.diag([1.0, 1.0]))


def test_contract_m2_matrix_case_returns_slice():
    # one vector, a (3, n) batch and an empty (0, n) batch
    rng = np.random.default_rng(5)
    A = random_tensor(4, 2, rng)
    mat = A.entries.reshape(4, 4)
    np.testing.assert_array_equal(contract_m2(A, rng.uniform(-1.0, 1.0, 4)), mat)
    batch = contract_m2(A, rng.uniform(-1.0, 1.0, (3, 4)))
    np.testing.assert_array_equal(batch, np.broadcast_to(mat, (3, 4, 4)))
    np.testing.assert_array_equal(contract_m2(A, np.empty((0, 4))), np.empty((0, 4, 4)))


def test_contract_m2_times_u_is_contract_m1_when_semi_symmetric():
    rng = np.random.default_rng(7)
    for m in (3, 4):
        A = semi_symmetrize(random_tensor(3, m, rng))
        u = rng.uniform(-1.0, 1.0, 3)
        np.testing.assert_allclose(contract_m2(A, u) @ u, contract_m1(A, u), atol=1e-12)


def test_contract_full_identity_and_zero():
    A = identity_tensor(2, 3)
    assert contract_full(A, np.ones(2)) == pytest.approx(2.0)
    assert contract_full(A, np.zeros(2)) == 0.0


def test_contract_full_is_dot_with_m1():
    rng = np.random.default_rng(9)
    A = random_tensor(4, 3, rng)
    u = rng.uniform(-1.0, 1.0, 4)
    assert contract_full(A, u) == pytest.approx(float(u @ contract_m1(A, u)), rel=1e-12)


def test_contraction_dimension_mismatch():
    A = identity_tensor(3, 3)
    for op in (contract_m1, contract_m2, contract_full):
        with pytest.raises(ValueError, match="dim"):
            op(A, np.ones(2))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    m=st.integers(2, 4),
    k=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_rows_match_single_calls(n, m, k, seed):
    rng = np.random.default_rng(seed)
    A = random_tensor(n, m, rng)
    U = rng.uniform(-2.0, 2.0, (k, n))
    W, M = contract_m1(A, U), contract_m2(A, U)
    assert W.shape == (k, n) and M.shape == (k, n, n)
    for i in range(k):
        np.testing.assert_allclose(W[i], contract_m1(A, U[i]), rtol=1e-12, atol=1e-11)
        np.testing.assert_allclose(M[i], contract_m2(A, U[i]), rtol=1e-12, atol=1e-11)


def test_single_vector_kernels_are_bit_exact_flat_products():
    # the one-vector call keeps the flat matrix-times-Kronecker-vector
    # arithmetic, so solver trajectories do not move
    rng = np.random.default_rng(17)
    for n, m in itertools.product((1, 2, 3, 5, 8), (2, 3, 4)):
        A = random_tensor(n, m, rng)
        for _ in range(5):
            u = rng.uniform(-2.0, 2.0, n)
            flat = A.entries.reshape(n, n ** (m - 1))
            np.testing.assert_array_equal(contract_m1(A, u), flat @ kron_flat(u, m - 1))
            if m > 2:
                cube = A.entries.reshape(n, n, n ** (m - 2))
                np.testing.assert_array_equal(contract_m2(A, u), cube @ kron_flat(u, m - 2))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_contract_line_is_contract_m1_along_the_line(m):
    # the coefficients of A (x + s d)^(m-1), summed at s, give contract_m1 at
    # x + s d on a tensor that is not semi-symmetric (every m = 2 tensor is);
    # a (k, n) batch gives row r's one-vector coefficients in row r, and the
    # first and last coefficients are A x^(m-1) and A d^(m-1)
    rng = np.random.default_rng(m)
    n = 3
    A = random_tensor(n, m, rng)
    assert A.semi_symmetric() == (m == 2)
    for shape in ((n,), (1, n), (4, n)):
        x, d = rng.uniform(-2.0, 2.0, shape), rng.uniform(-2.0, 2.0, shape)
        coef = contract_line(A, x, d)
        assert coef.shape == shape[:-1] + (m, n)
        for s in (0.0, 1.0, -0.5, 2.0**-20, 3.0):
            value = np.einsum("...jn,j->...n", coef, s ** np.arange(m))
            atol = 1e-13 * term_scale(A, np.abs(x) + abs(s) * np.abs(d)).max()
            np.testing.assert_allclose(value, contract_m1(A, x + s * d), rtol=1e-12, atol=atol)
        ends = np.stack([contract_m1(A, x), contract_m1(A, d)], axis=-2)
        atol = 1e-13 * term_scale(A, np.abs(x) + np.abs(d)).max()
        np.testing.assert_allclose(coef[..., [0, m - 1], :], ends, rtol=1e-12, atol=atol)
        if len(shape) == 2:
            for r in range(shape[0]):
                np.testing.assert_allclose(
                    coef[r], contract_line(A, x[r], d[r]), rtol=1e-12, atol=atol
                )


def term_scale(A, u):
    """|A| |u|^(m-1): the size of the terms a contraction sums, which bounds
    its rounding error even where the terms cancel."""
    return contract_m1(DenseTensor(A.m, A.n, np.abs(A.entries)), np.abs(u))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    m=st.integers(2, 4),
    c=st.just(0.0) | st.floats(0.01, 3.0) | st.floats(-3.0, -0.01),
    seed=st.integers(0, 2**32 - 1),
)
def test_homogeneity_in_u(n, m, c, seed):
    # contract_m1(A, c u) = c^(m-1) contract_m1(A, u), negative c included
    rng = np.random.default_rng(seed)
    A = random_tensor(n, m, rng)
    u = rng.uniform(-1.0, 1.0, n)
    lhs = contract_m1(A, c * u)
    rhs = c ** (m - 1) * contract_m1(A, u)
    atol = 1e-13 * abs(c) ** (m - 1) * term_scale(A, u).max()
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=atol)


# -- semi-symmetrization -------------------------------------------------------


def test_semi_symmetrize_fixed_point():
    A = identity_tensor(3, 3)
    B = semi_symmetrize(A)
    np.testing.assert_array_equal(A.entries, B.entries)


def permutation_average(A):
    """Mean over every permutation of the trailing m-1 indices, one transpose each."""
    arr = A.as_array()
    perms = list(itertools.permutations(range(1, A.m)))
    acc = np.zeros_like(arr)
    for perm in perms:
        acc += np.transpose(arr, (0, *perm))
    return acc.reshape(-1) / len(perms)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_semi_symmetrize_is_the_permutation_average(m):
    # the class means sum in another order than the (m-1)! transposes: equal
    # up to (k - 1) ulps of the largest entry for classes of k <= (m-1)! entries
    rng = np.random.default_rng(m)
    for n in (1, 2, 3, 4):
        A = random_tensor(n, m, rng)
        got, ref = semi_symmetrize(A).entries, permutation_average(A)
        if m <= 3:
            np.testing.assert_array_equal(got, ref)
        else:
            k = math.factorial(m - 1)
            np.testing.assert_allclose(got, ref, rtol=0, atol=(k - 1) * np.finfo(float).eps)


def test_high_order_symmetry_is_fast():
    # the trailing indices of an order-12 tensor have 11! (4e7) orderings,
    # but over n = 2 only 2^11 = 2,048 distinct trailing multi-indices
    inst, _, _ = gen_z_feasible(2, 12, 0, card=1)
    A = DenseTensor(12, 2, inst.tensor.entries)  # fresh, so the check runs
    start = time.perf_counter()
    assert A.semi_symmetric()
    B = semi_symmetrize(A)
    assert time.perf_counter() - start < 5.0
    np.testing.assert_allclose(B.entries, A.entries, rtol=1e-13, atol=1e-13)
    tilted = A.entries.copy()
    tilted[1] += 1e-3  # entry (0, ..., 0, 1), one of 11 orderings of its class
    assert not DenseTensor(12, 2, tilted).semi_symmetric()


def test_semi_symmetrize_two_permutation_average():
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 1] = 2.0  # a_112 = 2, a_121 = 0
    A = DenseTensor(3, 2, arr.reshape(-1))
    B = semi_symmetrize(A)
    barr = B.as_array()
    assert barr[0, 0, 1] == 1.0
    assert barr[0, 1, 0] == 1.0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_semi_symmetrize_preserves_contraction_and_idempotent(n, m, seed):
    rng = np.random.default_rng(seed)
    A = random_tensor(n, m, rng)
    B = semi_symmetrize(A)
    assert B.semi_symmetric()
    for u in rng.uniform(-2.0, 2.0, (10, n)):
        atol = 1e-13 * term_scale(A, u).max()
        np.testing.assert_allclose(contract_m1(A, u), contract_m1(B, u), rtol=1e-12, atol=atol)
    C = semi_symmetrize(B)
    np.testing.assert_allclose(B.entries, C.entries, atol=1e-15)


# -- structure predicates and norm --------------------------------------------


def test_is_z_tensor_identity():
    assert is_z_tensor(identity_tensor(3, 3))


def test_is_z_tensor_positive_offdiagonal():
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 1] = 0.5
    assert not is_z_tensor(DenseTensor(3, 2, arr.reshape(-1)))


def test_is_z_tensor_example_false():
    # a_313 = 3 > 0 sits off the diagonal
    assert not is_z_tensor(example_instance().tensor)


def test_tensor_norm_values():
    assert tensor_norm(DenseTensor(3, 2, np.zeros(8))) == 0.0
    assert tensor_norm(identity_tensor(2, 3)) == pytest.approx(np.sqrt(2.0))
    # sum of squares of the nine listed entries is 32.25
    assert tensor_norm(example_instance().tensor) == pytest.approx(5.678908345800274, rel=1e-15)


def test_dense_tensor_validation():
    with pytest.raises(ValueError, match="length"):
        DenseTensor(3, 2, np.zeros(7))
    with pytest.raises(ValueError, match="finite"):
        DenseTensor(2, 2, np.array([1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError, match="order"):
        DenseTensor(1, 2, np.zeros(2))


def test_size_cap_refuses_before_allocating():
    # 60^7 entries would be a 20 TiB allocation
    for build in (
        lambda: DenseTensor(7, 60, np.zeros(1)),
        lambda: identity_tensor(60, 7),
        lambda: gen_instance("random", 60, 7, 0),
        lambda: gen_instance("diagonal", 60, 7, 0),
        lambda: gen_z_feasible(60, 7, 0),
    ):
        with pytest.raises(ValueError, match="too large"):
            build()
    with pytest.raises(ValueError, match="too large"):
        identity_tensor(2, 10**9)  # the power is never evaluated in full
    assert 2**24 == MAX_TENSOR_ENTRIES
    _check_size(2, 24)  # the cap itself is allowed
    with pytest.raises(ValueError, match="too large"):
        _check_size(2, 25)


# -- instance generation -------------------------------------------------------


def test_gen_diagonal_is_z_with_nonnegative_q():
    inst = gen_instance("diagonal", 2, 3, 1)
    assert is_z_tensor(inst.tensor)
    assert np.all(inst.q >= 0.0)
    np.testing.assert_array_equal(inst.tensor.entries, identity_tensor(2, 3).entries)


def test_gen_paper_example_entries():
    inst = gen_instance("paper_example", 0, 0, 0)
    arr = inst.tensor.as_array()
    expected = {
        (0, 0, 0): 1.0,
        (1, 1, 1): 1.5,
        (2, 2, 2): 2.0,
        (0, 2, 0): -3.0,
        (0, 0, 2): 1.0,
        (0, 2, 2): -1.0,
        (2, 0, 0): -2.0,
        (2, 0, 2): 3.0,
        (2, 2, 0): 1.0,
    }
    for idx in itertools.product(range(3), repeat=3):
        assert arr[idx] == expected.get(idx, 0.0)
    np.testing.assert_array_equal(inst.q, [-1.0, 0.0, 1.0])
    assert inst.source == "paper-example"


def test_gen_z_feasible_structure():
    inst, v, support = gen_z_feasible(4, 3, 7)
    assert is_z_tensor(inst.tensor)
    assert inst.tensor.semi_symmetric()
    assert sorted(np.flatnonzero(v)) == support
    w = contract_m1(inst.tensor, v) + inst.q
    assert np.all(v >= 0)
    assert np.min(w) >= -1e-12
    assert abs(float(v @ w)) <= 1e-12


def test_gen_deterministic():
    for kind in ("diagonal", "z_feasible", "random"):
        a = gen_instance(kind, 4, 3, 99)
        b = gen_instance(kind, 4, 3, 99)
        np.testing.assert_array_equal(a.tensor.entries, b.tensor.entries)
        np.testing.assert_array_equal(a.q, b.q)


def test_gen_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        gen_instance("bogus", 2, 3, 0)


def test_instance_dimension_check():
    with pytest.raises(ValueError, match="dim"):
        Instance(identity_tensor(3, 3), np.zeros(2))


# -- serialization -------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    inst = gen_instance("z_feasible", 4, 3, 3)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)
    np.testing.assert_array_equal(back.tensor.entries, inst.tensor.entries)
    np.testing.assert_array_equal(back.q, inst.q)
    assert back.label == inst.label
    assert back.source == "file"
    # second round trip is byte-identical
    path2 = tmp_path / "inst2.json"
    save_instance(back, path2)
    assert path.read_text().replace(inst.label, "") == path2.read_text().replace(inst.label, "")


doubles = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(2, 3), label=st.text(max_size=12), data=st.data())
def test_save_load_round_trip_is_bit_exact(tmp_path_factory, n, m, label, data):
    # any finite doubles, -0.0, subnormals and extremes included
    entries = np.array(data.draw(st.lists(doubles, min_size=n**m, max_size=n**m)))
    q = np.array(data.draw(st.lists(doubles, min_size=n, max_size=n)))
    inst = Instance(DenseTensor(m, n, entries), q, label=label)
    path = tmp_path_factory.mktemp("round_trip") / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert (back.m, back.n, back.label) == (m, n, label)
    assert back.tensor.entries.tobytes() == entries.tobytes()
    assert back.q.tobytes() == q.tobytes()


def test_load_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{this is not json")
    with pytest.raises(ValueError, match="parse error"):
        load_instance(path)


def test_load_missing_field(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"m": 3, "n": 2, "entries": [0.0] * 8}))
    with pytest.raises(ValueError, match='"q"'):
        load_instance(path)


def test_load_wrong_entry_count(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"m": 3, "n": 2, "entries": [0.0] * 7, "q": [0.0, 0.0]}))
    with pytest.raises(ValueError, match='"entries"'):
        load_instance(path)


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"m": 2, "n": True, "entries": [1.0], "q": [0.0]}, '"n"'),
        ({"m": True, "n": 1, "entries": [1.0], "q": [0.0]}, '"m"'),
        ({"m": 2, "n": 1, "entries": [True], "q": [0.0]}, '"entries"'),
        ({"m": 2, "n": 1, "entries": [1.0], "q": [False]}, '"q"'),
    ],
)
def test_load_rejects_booleans(tmp_path, payload, field):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=field):
        load_instance(path)


def test_load_rejects_oversized_shape(tmp_path):
    path = tmp_path / "huge.json"
    # n = 1 has one entry at any order, but the tensor is viewed with m axes
    for n in (3, 1):
        path.write_text(json.dumps({"m": 10**9, "n": n, "entries": [0.0], "q": [0.0] * n}))
        with pytest.raises(ValueError, match="too large"):
            load_instance(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_instance(tmp_path / "nope.json")


def test_paper_example_golden_file(tmp_path):
    path = tmp_path / "example.json"
    save_instance(example_instance(), path)
    back = load_instance(path)
    fresh = gen_instance("paper_example", 0, 0, 0)
    np.testing.assert_array_equal(back.tensor.entries, fresh.tensor.entries)
    np.testing.assert_array_equal(back.q, fresh.q)
    assert back.label == fresh.label


def test_z_feasible_always_z():
    for seed in range(20):
        inst = gen_instance("z_feasible", 3 + seed % 3, 3, seed)
        assert is_z_tensor(inst.tensor)


@pytest.mark.parametrize(
    "combo",
    [(0,), (1, 1), (0, 1, 2), (0, 0, 1, 1), (0, 1, 1, 1, 2), (2, 2, 2, 2, 2), (0, 0, 1, 2, 2, 3)],
)
def test_distinct_permutations_match_the_set_of_all_orderings(combo):
    # the entries that share the canonical index of (0, *combo) are exactly
    # those whose trailing indices are a distinct ordering of combo
    shape = (max(combo) + 1,) * (len(combo) + 1)
    canon = _canonical_index(shape[0], len(shape))
    members = np.flatnonzero(canon == np.ravel_multi_index((0, *sorted(combo)), shape))
    got = [tuple(int(i) for i in np.unravel_index(k, shape)[1:]) for k in members]
    assert got == sorted(set(itertools.permutations(combo)))


def test_gen_z_feasible_instances_unchanged():
    # digest of the generated tensors, q, plants and supports of the acceptance
    # suite, the first 12 solve-planted benchmark instances of seed 1, and
    # orders m = 4..6, as generated with set(itertools.permutations(...))
    h = hashlib.sha256()
    args = [((3, 4, 5)[s % 3], 3, s, None) for s in range(50)]
    args += [((3, 4, 5)[i % 3], 3, 1000 + i, (1, 2)[i // 3 % 2]) for i in range(12)]
    args += [(n, m, s, None) for n, m in ((2, 6), (3, 5), (4, 4)) for s in range(4)]
    for n, m, s, card in args:
        inst, v, support = gen_z_feasible(n, m, s, card=card)
        for arr in (inst.tensor.entries, inst.q, v, np.asarray(support, dtype=np.int64)):
            h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == "b34a0a818fafdc8bca840f122e02a1da04531f0e50ec28bf3c7d9bbe2341ea4d"


def gen_digest(args):
    h = hashlib.sha256()
    for n, m, s, card in args:
        inst, v, support = gen_z_feasible(n, m, s, card=card)
        for arr in (inst.tensor.entries, inst.q, v, np.asarray(support, dtype=np.int64)):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# Shapes of the bulk-draw digest: dimensions 1-48 at orders 2-6 with at most
# 2^17 entries, each with the drawn cardinality and with cards 1 and 2.
DIGEST_SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32, 48)
DIGEST_ARGS = [
    (n, m, 7 * n + m + i, card)
    for n in DIGEST_SIZES
    for m in range(2, 7)
    if n**m <= 2**17
    for i, card in enumerate((None, 1, 2))
    if (card or 1) <= n
]
# The solve-planted and oracle-planted pools of benchmark seeds 0-3.
POOL_ARGS = [
    ((3, 4, 5)[i % 3], 3, s * 1000 + i, (1, 2)[i // 3 % 2]) for s in range(4) for i in range(123)
]


def test_gen_z_feasible_bulk_draws_unchanged():
    # digests recorded with the generator that drew every entry by a scalar
    # rng.uniform() call in a loop over rows and trailing multisets
    assert len(DIGEST_ARGS) == 148
    assert gen_digest(DIGEST_ARGS) == "ce4e000ed1baa725120bbc7dc093edc8f65771f4ff40bbf0b6a847d1ae9e1153"
    assert gen_digest(POOL_ARGS) == "f89fd5999076113ff94d57db31403ef098a83fe50758732d643d1761211891be"


def replay_loop(rng, head, count, density, tail):
    """The scalar draws _replay_draws replays: the reference for it."""
    first = [rng.random() for _ in range(head)]
    hit, x = [], []
    for _ in range(count):
        hit.append(rng.random() < density)
        if hit[-1]:
            x.append(rng.random())
    return first, hit, x, [rng.random() for _ in range(tail)]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    head=st.integers(0, 3),
    count=st.integers(0, 60),
    density=st.floats(0.0, 1.0),
    tail=st.integers(0, 3),
    block=st.sampled_from([2, 3, 7, tensors_mod._DRAW_BLOCK]),
)
def test_replay_draws_match_the_scalar_loop(seed, head, count, density, tail, block):
    # tiny blocks make a step straddle every block boundary
    default = tensors_mod._DRAW_BLOCK
    tensors_mod._DRAW_BLOCK = block
    try:
        got = tensors_mod._replay_draws(np.random.default_rng(seed), head, count, density, tail)
    finally:
        tensors_mod._DRAW_BLOCK = default
    want = replay_loop(np.random.default_rng(seed), head, count, density, tail)
    for a, b in zip(got, want):
        assert a.tolist() == list(b)


def test_load_names_the_file_for_undecodable_and_non_finite_input(tmp_path):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ValueError, match=f"parse error in {re.escape(str(path))}: invalid JSON"):
        load_instance(path)
    zeros = "[" + ", ".join(["0.0"] * 8) + "]"
    for name, entries, q in (
        ("q", zeros, "[1e400, 0.0]"),
        ("q", zeros, "[0.0, NaN]"),
        ("entries", "[-Infinity" + ", 0.0" * 7 + "]", "[0.0, 0.0]"),
    ):
        path.write_text(f'{{"m": 3, "n": 2, "entries": {entries}, "q": {q}}}')
        with pytest.raises(ValueError, match=f'{re.escape(str(path))}: field "{name}" must hold finite'):
            load_instance(path)
