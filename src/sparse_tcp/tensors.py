"""Dense tensor storage, multilinear contraction kernels, and instance generation.

An order-m, dimension-n tensor is stored as a flat row-major array of n^m
entries indexed by the multi-index (i1, ..., im).  Everything here is immutable
after construction; contractions are pure functions.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SOURCES = ("generated", "file", "paper-example")

INSTANCE_KINDS = ("diagonal", "z_feasible", "random", "paper_example")

# Largest tensor, in entries n^m, that any constructor, generator or loader
# accepts (128 MiB of doubles); checked before anything is allocated.
MAX_TENSOR_ENTRIES = 2**24


def _check_size(n: int, m: int) -> None:
    """Refuse an order-m, dimension-n tensor with more than MAX_TENSOR_ENTRIES entries.

    The power is built one factor at a time and abandoned past the cap, so an
    absurd m read from a file never costs a big-integer evaluation of n^m.
    """
    if n <= 1:
        return
    entries = 1
    for _ in range(m):
        entries *= n
        if entries > MAX_TENSOR_ENTRIES:
            raise ValueError(
                f"tensor too large: n^m = {n}^{m} exceeds the cap of "
                f"{MAX_TENSOR_ENTRIES} entries"
            )


@dataclass(eq=False)
class DenseTensor:
    """Order-m, dimension-n real tensor, flat row-major by multi-index."""

    m: int
    n: int
    entries: np.ndarray

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"tensor order must be >= 2, got {self.m}")
        if self.n < 1:
            raise ValueError(f"tensor dimension must be >= 1, got {self.n}")
        _check_size(self.n, self.m)
        ent = np.array(self.entries, dtype=float).reshape(-1)
        if ent.size != self.n**self.m:
            raise ValueError(
                f"entries length {ent.size} does not match n^m = {self.n**self.m}"
            )
        if not np.all(np.isfinite(ent)):
            raise ValueError("tensor entries must all be finite")
        ent.setflags(write=False)
        self.entries = ent
        self._semi_symmetric: bool | None = None

    def as_array(self) -> np.ndarray:
        """Read-only view shaped (n, n, ..., n)."""
        return self.entries.reshape((self.n,) * self.m)

    def semi_symmetric(self) -> bool:
        """True when invariant under permutations of the trailing m-1 indices."""
        if self._semi_symmetric is None:
            arr = self.as_array()
            ok = True
            for perm in itertools.permutations(range(1, self.m)):
                view = np.transpose(arr, (0, *perm))
                if not np.allclose(arr, view, rtol=1e-13, atol=1e-13):
                    ok = False
                    break
            self._semi_symmetric = ok
        return self._semi_symmetric


@dataclass(eq=False)
class Instance:
    """A tensor complementarity problem: tensor plus the constant vector q."""

    tensor: DenseTensor
    q: np.ndarray
    label: str = ""
    source: str = "generated"

    def __post_init__(self):
        q = np.array(self.q, dtype=float).reshape(-1)
        if q.size != self.tensor.n:
            raise ValueError(
                f"dimension mismatch: len(q)={q.size}, tensor dimension n={self.tensor.n}"
            )
        if not np.all(np.isfinite(q)):
            raise ValueError("q must be finite")
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        q.setflags(write=False)
        self.q = q

    @property
    def n(self) -> int:
        return self.tensor.n

    @property
    def m(self) -> int:
        return self.tensor.m


@dataclass
class ResidualReport:
    """Feasibility, complementarity, and FB residuals for a candidate point."""

    feas_u: float
    feas_w: float
    comp: float
    fb_norm: float
    support: tuple[int, ...]
    tol_zero: float

    def to_dict(self) -> dict:
        return {
            "feas_u": self.feas_u,
            "feas_w": self.feas_w,
            "comp": self.comp,
            "fb_norm": self.fb_norm,
            "support": list(self.support),
            "tol_zero": self.tol_zero,
        }


def _check_dim(A: DenseTensor, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.ndim not in (1, 2):
        u = u.reshape(-1)
    if u.shape[-1] != A.n:
        raise ValueError(
            f"dimension mismatch: len(u)={u.shape[-1]}, tensor dimension n={A.n}"
        )
    return u


def _kron_power(u: np.ndarray, k: int) -> np.ndarray:
    """k-fold Kronecker power along the first axis: shape (n, ...) -> (n^k, ...)."""
    if k == 0:
        return np.ones((1,) + u.shape[1:])
    out = u
    for _ in range(k - 1):
        out = (out[:, None] * u).reshape((out.shape[0] * u.shape[0],) + u.shape[1:])
    return out


def _kron_line(x: np.ndarray, d: np.ndarray, k: int) -> np.ndarray:
    """k-fold Kronecker power (k >= 1) of x + s d by powers of s: (n, ...) -> (n^k, k+1, ...)."""
    out = np.stack([x, d], axis=1)
    for _ in range(k - 1):
        nxt = np.zeros((out.shape[0], x.shape[0], out.shape[1] + 1) + x.shape[1:])
        nxt[:, :, :-1] = out[:, None] * x[:, None]
        nxt[:, :, 1:] += out[:, None] * d[:, None]
        out = nxt.reshape((len(out) * len(x),) + nxt.shape[2:])
    return out


def contract_m1(A: DenseTensor, u) -> np.ndarray:
    """(A u^{m-1})_i = sum over i2..im of a_{i,i2,..,im} * u_{i2} * ... * u_{im}.

    u is one vector of length n or a (k, n) batch of rows; the result has the
    same shape, row r being the contraction with u[r].
    """
    u = _check_dim(A, u)
    mat = A.entries.reshape(A.n, A.n ** (A.m - 1))
    return (mat @ _kron_power(u.T, A.m - 1)).T


def contract_line(A: DenseTensor, x, d) -> np.ndarray:
    """Coefficients of A (x + s d)^{m-1} as a polynomial in s, for any tensor.

    x and d are one vector of length n or (k, n) batches of rows.  Entry j of
    the result (axis -2) is the coefficient vector of s^j, j = 0 .. m-1: an
    (m, n) array for one vector, (k, m, n) for a batch.
    """
    x, d = _check_dim(A, x), _check_dim(A, d)
    mat = A.entries.reshape(A.n, A.n ** (A.m - 1))
    # contiguous columns: the broadcasts then run along rows, several times faster
    kron = _kron_line(np.ascontiguousarray(x.T), np.ascontiguousarray(d.T), A.m - 1)
    return (mat @ kron.reshape(len(kron), kron[0].size)).reshape((A.n,) + kron.shape[1:]).T


def contract_m2(A: DenseTensor, u) -> np.ndarray:
    """Matrix M with M_ij = sum over i3..im of a_{i,j,i3,..,im} * u_{i3} * ... * u_{im}.

    For m = 2 this is the matrix slice of the tensor itself (the Kronecker
    power is then a row of ones).  For a semi-symmetric tensor, M @ u equals
    contract_m1(A, u) and (m-1) * M is the Jacobian of u -> A u^{m-1}.  A
    (k, n) batch of rows gives a (k, n, n) stack, one matrix per row.
    """
    u = _check_dim(A, u)
    cube = A.entries.reshape(A.n, A.n, A.n ** (A.m - 2))
    return (cube @ _kron_power(u.T, A.m - 2)).T.swapaxes(-1, -2)


def contract_full(A: DenseTensor, u) -> float:
    """A u^m = dot(u, A u^{m-1})."""
    u = _check_dim(A, u)
    return float(u @ contract_m1(A, u))


def semi_symmetrize(A: DenseTensor) -> DenseTensor:
    """Average over all permutations of the trailing m-1 indices.

    Preserves contract_m1 for every u; the output is a fixed point of this map.
    """
    arr = A.as_array()
    perms = list(itertools.permutations(range(1, A.m)))
    acc = np.zeros_like(arr)
    for perm in perms:
        acc += np.transpose(arr, (0, *perm))
    out = DenseTensor(A.m, A.n, acc.reshape(-1) / len(perms))
    out._semi_symmetric = True
    return out


def semi_symmetric_instance(inst: Instance) -> Instance:
    """inst if its tensor is semi-symmetric, else the same TCP with the tensor semi-symmetrized."""
    if inst.tensor.semi_symmetric():
        return inst
    return Instance(semi_symmetrize(inst.tensor), inst.q, inst.label, inst.source)


def _diag_flat_indices(n: int, m: int) -> list[int]:
    return [int(np.ravel_multi_index((i,) * m, (n,) * m)) for i in range(n)]


def is_z_tensor(A: DenseTensor) -> bool:
    """True iff every off-diagonal entry (multi-index not of the form (i,..,i)) is <= 0."""
    mask = np.ones(A.entries.size, dtype=bool)
    mask[_diag_flat_indices(A.n, A.m)] = False
    return bool(np.all(A.entries[mask] <= 0.0))


def tensor_norm(A: DenseTensor) -> float:
    """Frobenius norm: sqrt of the sum of squared entries."""
    return float(np.linalg.norm(A.entries))


def identity_tensor(n: int, m: int) -> DenseTensor:
    """Diagonal tensor with a_{i,i,..,i} = 1 and all other entries 0."""
    _check_size(n, m)
    ent = np.zeros(n**m)
    ent[_diag_flat_indices(n, m)] = 1.0
    return DenseTensor(m, n, ent)


# Entries of the worked reproduction instance, 1-based multi-indices.  Its
# declared label "T_{3,2}" clashes with the indices reaching 3; it is encoded
# with m = 3, n = 3 and all unlisted entries zero (see the `example` command).
_EXAMPLE_ENTRIES = {
    (1, 1, 1): 1.0,
    (2, 2, 2): 1.5,
    (3, 3, 3): 2.0,
    (1, 3, 1): -3.0,
    (1, 1, 3): 1.0,
    (1, 3, 3): -1.0,
    (3, 1, 1): -2.0,
    (3, 1, 3): 3.0,
    (3, 3, 1): 1.0,
}

EXAMPLE_LABEL = "T_{3,2}"


def example_instance() -> Instance:
    """The fixed reproduction instance (m=3, n=3, q=(-1,0,1))."""
    arr = np.zeros((3, 3, 3))
    for idx, val in _EXAMPLE_ENTRIES.items():
        arr[tuple(i - 1 for i in idx)] = val
    return Instance(
        DenseTensor(3, 3, arr.reshape(-1)),
        np.array([-1.0, 0.0, 1.0]),
        label=EXAMPLE_LABEL,
        source="paper-example",
    )


def _distinct_permutations(combo: tuple[int, ...]):
    """Every distinct ordering of a nondecreasing tuple, in lexicographic order.

    Steps to the next permutation of the multiset directly, so a tuple with
    repeated entries costs one step per distinct ordering, never (len)! steps.
    """
    a = list(combo)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


def gen_z_feasible(
    n: int,
    m: int,
    seed: int,
    card: int | None = None,
    off_scale: float = 0.5,
    density: float = 0.4,
):
    """Z-tensor instance with a planted sparse solution; returns (instance, v, support).

    Construction guarantees, used as ground truth by tests:

    * rows inside the planted support carry only their diagonal entry among
      multi-indices confined to the support, so every feasible point u
      satisfies u_i >= v_i on the support;
    * hence the plant v is the least element of the feasible set, it solves
      the TCP, and no support of smaller cardinality admits a solution;
    * q has negative entries exactly on the support, and the slack added off
      the support makes complementarity strict at v.

    The tensor is semi-symmetric by construction (entries drawn per trailing
    multiset and replicated across its permutations).
    """
    if n < 1 or m < 2:
        raise ValueError("need n >= 1 and m >= 2")
    _check_size(n, m)
    rng = np.random.default_rng(seed)
    drawn_card = int(rng.integers(1, min(2, n) + 1))
    if card is None:
        card = drawn_card
    if not 1 <= card <= n:
        raise ValueError(f"planted cardinality {card} out of range [1, {n}]")
    support = np.sort(rng.choice(n, size=card, replace=False))
    in_s = np.zeros(n, dtype=bool)
    in_s[support] = True

    arr = np.zeros((n,) * m)
    diag = rng.uniform(1.0, 2.0, n)
    for i in range(n):
        arr[(i,) * m] = diag[i]
    for i in range(n):
        for combo in itertools.combinations_with_replacement(range(n), m - 1):
            if combo == (i,) * (m - 1):
                continue
            if in_s[i] and all(in_s[j] for j in combo):
                continue  # keep planted rows diagonal inside the support
            if rng.uniform() < density:
                val = -rng.uniform(0.0, off_scale)
                for perm in _distinct_permutations(combo):
                    arr[(i, *perm)] = val
    A = DenseTensor(m, n, arr.reshape(-1))
    A._semi_symmetric = True

    v = np.zeros(n)
    v[support] = rng.uniform(0.5, 1.5, card)
    q = -contract_m1(A, v)
    for j in range(n):
        if not in_s[j]:
            q[j] += rng.uniform(0.1, 1.0)
    inst = Instance(A, q, label=f"z_feasible-n{n}-m{m}-s{seed}", source="generated")
    return inst, v, [int(i) for i in support]


def gen_instance(kind: str, n: int, m: int, seed: int, card: int | None = None) -> Instance:
    """Deterministic instance factory; see INSTANCE_KINDS.

    `paper_example` ignores n, m, and seed and returns the fixed reproduction
    instance.  `card` optionally pins the planted support size of
    `z_feasible`; left unset, it is drawn from the seed.
    """
    if kind == "paper_example":
        return example_instance()
    if n < 1 or m < 2:
        raise ValueError("need n >= 1 and m >= 2")
    _check_size(n, m)
    if kind == "diagonal":
        rng = np.random.default_rng(seed)
        q = rng.uniform(0.0, 1.0, n)
        return Instance(
            identity_tensor(n, m), q, label=f"diagonal-n{n}-m{m}-s{seed}", source="generated"
        )
    if kind == "z_feasible":
        return gen_z_feasible(n, m, seed, card=card)[0]
    if kind == "random":
        rng = np.random.default_rng(seed)
        entries = rng.uniform(-1.0, 1.0, n**m)
        q = rng.uniform(-1.0, 1.0, n)
        return Instance(
            DenseTensor(m, n, entries), q, label=f"random-n{n}-m{m}-s{seed}", source="generated"
        )
    raise ValueError(f"unknown instance kind {kind!r}")


def save_instance(inst: Instance, path) -> None:
    """Write the instance JSON: {"m", "n", "entries", "q", "label"}.

    Doubles go through repr serialization, so save/load round-trips are
    bit-exact for finite values.
    """
    payload = {
        "m": inst.m,
        "n": inst.n,
        "entries": [float(x) for x in inst.tensor.entries],
        "q": [float(x) for x in inst.q],
        "label": inst.label,
    }
    Path(path).write_text(json.dumps(payload) + "\n")


def load_instance(path) -> Instance:
    """Read an instance JSON file; raises ValueError naming the offending field."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"no such instance file: {path}")
    try:
        payload = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"parse error in {path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"parse error in {path}: top-level value must be an object")
    for name in ("m", "n", "entries", "q"):
        if name not in payload:
            raise ValueError(f'parse error in {path}: missing field "{name}"')
    # JSON true/false load as Python bools, which are ints: refuse them by name
    for name in ("m", "n"):
        val = payload[name]
        if isinstance(val, bool) or not isinstance(val, int):
            raise ValueError(f'parse error in {path}: field "{name}" must be an integer')
    for name in ("entries", "q"):
        val = payload[name]
        if not isinstance(val, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in val
        ):
            raise ValueError(f'parse error in {path}: field "{name}" must be a numeric array')
    m, n = payload["m"], payload["n"]
    try:
        _check_size(n, m)
    except ValueError as exc:
        raise ValueError(f"parse error in {path}: {exc}") from exc
    if len(payload["entries"]) != n**m:
        raise ValueError(
            f'parse error in {path}: field "entries" has length {len(payload["entries"])}, '
            f"expected n^m = {n**m}"
        )
    if len(payload["q"]) != n:
        raise ValueError(
            f'parse error in {path}: field "q" has length {len(payload["q"])}, expected n = {n}'
        )
    label = payload.get("label", "")
    if not isinstance(label, str):
        raise ValueError(f'parse error in {path}: field "label" must be a string')
    return Instance(
        DenseTensor(m, n, np.array(payload["entries"])),
        np.array(payload["q"]),
        label=label,
        source="file",
    )
