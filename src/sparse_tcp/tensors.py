"""Dense tensor storage, multilinear contraction kernels, and instance generation.

An order-m, dimension-n tensor is stored as a flat row-major array of n^m
entries indexed by the multi-index (i1, ..., im).  Everything here is immutable
after construction; contractions are pure functions.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SOURCES = ("generated", "file", "paper-example")

INSTANCE_KINDS = ("diagonal", "z_feasible", "random", "paper_example")

# Largest tensor, in entries n^m, that any constructor, generator or loader
# accepts (128 MiB of doubles), and the largest order, the one dimension 2
# reaches at that cap: a tensor is viewed with one array axis per index, so a
# dimension-1 tensor of absurd order is refused too.  Both are checked before
# anything is allocated.
MAX_TENSOR_ENTRIES = 2**24
MAX_ORDER = 24


def _check_size(n: int, m: int) -> None:
    """Refuse a shape with n < 1, m < 2, m > MAX_ORDER or n^m > MAX_TENSOR_ENTRIES.

    The order is checked first, so an absurd m read from a file never costs a
    big-integer evaluation of n^m.
    """
    if n < 1 or m < 2:
        raise ValueError(f"need dimension n >= 1 and order m >= 2, got n = {n}, m = {m}")
    if m > MAX_ORDER:
        raise ValueError(f"tensor too large: order m = {m} exceeds the cap of {MAX_ORDER}")
    if n**m > MAX_TENSOR_ENTRIES:
        raise ValueError(
            f"tensor too large: n^m = {n}^{m} exceeds the cap of {MAX_TENSOR_ENTRIES} entries"
        )


@dataclass(eq=False)
class DenseTensor:
    """Order-m, dimension-n real tensor, flat row-major by multi-index."""

    m: int
    n: int
    entries: np.ndarray

    def __post_init__(self):
        _check_size(self.n, self.m)
        ent = np.array(self.entries, dtype=float).reshape(-1)
        if ent.size != self.n**self.m:
            raise ValueError(
                f"entries length {ent.size} does not match n^m = {self.n**self.m}"
            )
        if not np.isfinite(ent).all():
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
            canon = _canonical_index(self.n, self.m)
            self._semi_symmetric = bool(
                np.allclose(self.entries, self.entries[canon], rtol=1e-13, atol=1e-13)
            )
        return self._semi_symmetric


def _sorted_trailing(n: int, m: int) -> np.ndarray:
    """Flat trailing index, for every trailing tuple (i2, ..., im), of that tuple sorted."""
    idx = np.indices((n,) * (m - 1), dtype=np.min_scalar_type(n)).reshape(m - 1, -1)
    idx.sort(axis=0)
    return np.ravel_multi_index(idx, (n,) * (m - 1))


def _canonical_index(n: int, m: int) -> np.ndarray:
    """Flat index of every entry with its trailing indices sorted: its semi-symmetry class."""
    return (np.arange(n)[:, None] * n ** (m - 1) + _sorted_trailing(n, m)).reshape(-1)


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
        if not np.isfinite(q).all():
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


# Cap on the Kronecker entries of one kernel call, 0.5 MB: rows times n^(m-1) times the terms
# per row (1 for contract_m1, m for contract_line).  At n <= 5, m = 3 an enumeration batch is
# one call; larger batches take row blocks, and the descent sizes its step ladder by the cap.
_BLOCK_ENTRIES = 2**16


def block_rows(A: DenseTensor, terms: int = 1) -> int:
    """Rows of one kernel call under the _BLOCK_ENTRIES cap (at least 1), at terms per row."""
    return max(1, _BLOCK_ENTRIES // (terms * A.n ** (A.m - 1)))


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
    same shape, row r being the contraction with u[r].  A batch is taken in
    blocks of block_rows(A) rows.
    """
    u = _check_dim(A, u)
    mat = A.entries.reshape(A.n, A.n ** (A.m - 1))
    # len(u) > block_rows(A), checked inline: a one-block call makes no further call
    if u.ndim == 2 and len(u) > 1 and len(u) * mat.shape[1] > _BLOCK_ENTRIES:
        per = block_rows(A)
        return np.concatenate([contract_m1(A, u[i : i + per]) for i in range(0, len(u), per)])
    return (mat @ _kron_power(u.T, A.m - 1)).T


def contract_line(A: DenseTensor, x, d) -> np.ndarray:
    """Coefficients of A (x + s d)^{m-1} as a polynomial in s, for any tensor.

    x and d are one vector of length n or (k, n) batches of rows.  Entry j of
    the result (axis -2) is the coefficient vector of s^j, j = 0 .. m-1: an
    (m, n) array for one vector, (k, m, n) for a batch, taken in blocks of
    block_rows(A, m) rows.
    """
    x, d = _check_dim(A, x), _check_dim(A, d)
    mat = A.entries.reshape(A.n, A.n ** (A.m - 1))
    if x.ndim == 2 and len(x) > 1 and len(x) * A.m * mat.shape[1] > _BLOCK_ENTRIES:
        per = block_rows(A, A.m)
        blocks = range(0, len(x), per)
        return np.concatenate([contract_line(A, x[i : i + per], d[i : i + per]) for i in blocks])
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

    Each entry becomes the mean of its class of distinct trailing orderings,
    which is the average over all (m-1)! permutations.  Preserves contract_m1
    for every u; the output is a fixed point of this map.
    """
    canon = _canonical_index(A.n, A.m)
    sums = np.bincount(canon, weights=A.entries, minlength=canon.size)
    counts = np.bincount(canon, minlength=canon.size)
    out = DenseTensor(A.m, A.n, sums[canon] / counts[canon])
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


def _plant_layout(n: int, m: int, support: tuple[int, ...]):
    """(drawn, diag, col): where gen_z_feasible draws the entries of its tensor.

    Entries go to an (n, C) array of rows by the C trailing multisets, in
    itertools.combinations_with_replacement order.  drawn lists the flat
    positions that draw an off-diagonal entry: all but the diagonal and, in
    support rows, the multisets inside the support; diag lists the diagonal;
    col maps every trailing tuple, in flat order, to its multiset's column.
    """
    combos = np.array(list(itertools.combinations_with_replacement(range(n), m - 1))).T
    col = np.searchsorted(np.ravel_multi_index(combos, (n,) * (m - 1)), _sorted_trailing(n, m))
    in_s = np.isin(np.arange(n), support)
    diag = (combos[0] == np.arange(n)[:, None]) & (combos == combos[0]).all(axis=0)
    drawn = ~diag & ~(in_s[:, None] & in_s[combos].all(axis=0))
    out = np.flatnonzero(drawn), np.flatnonzero(diag), col
    for arr in out:
        arr.setflags(write=False)
    return out


# The layouts of the 256 latest small shapes (at most 2^12 entries) are cached: a
# planted pool's 123 instances share 31 keys; a big shape's layout holds hundreds of MB.
_cached_plant_layout = functools.lru_cache(maxsize=256)(_plant_layout)


# Draws per block of _replay_draws (at least 2): bounds its memory whatever the shape.
_DRAW_BLOCK = 2**16


def _uniform(draws, low: float, high: float):
    """low + (high - low) * draws: what rng.uniform(low, high) makes of rng.random() draws."""
    return low + (high - low) * draws


def _replay_draws(rng: np.random.Generator, head: int, count: int, density: float, tail: int):
    """The rng.random() draws of `head` draws, `count` loop steps, then `tail` draws.

    A loop step is `if rng.random() < density: x = rng.random()`.  Returns
    (head draws, hit, x, tail draws), hit marking the steps that drew an x.
    No loop finds the steps: a draw starts one exactly when an even number of
    draws lie between it and the last earlier draw not below density.  Small
    counts take one call of rng, larger ones one per _DRAW_BLOCK draws, and
    rng may be left past the last draw returned.
    """
    r = rng.random(head + min(2 * count, _DRAW_BLOCK) + tail)
    first, r = r[:head], r[head:]
    hit, x = np.empty(count, dtype=bool), np.empty(count)
    done = hits = 0
    while done < count:
        size = min(2 * (count - done), _DRAW_BLOCK)  # a step takes one or two draws
        if r.size < size:
            r = np.concatenate((r, rng.random(size - r.size)))
        below = r[:size] < density
        pos = np.arange(size)
        run = pos - np.maximum.accumulate(np.where(below, -1, pos))  # below-density run at pos
        starts = np.concatenate(([0], (~run[:-1] & 1).nonzero()[0] + 1))[: count - done]
        if below[starts[-1]] and starts[-1] == size - 1:
            starts = starts[:-1]  # its x lies past the block
        step_hit = below[starts]
        hit[done : done + starts.size] = step_hit
        step_x = r[starts[step_hit] + 1]
        x[hits : hits + step_x.size] = step_x
        done, hits = done + starts.size, hits + step_x.size
        r = r[starts[-1] + 1 + step_hit[-1] :]
    if r.size < tail:
        r = np.concatenate((r, rng.random(tail - r.size)))
    return first, hit, x[:hits], r[:tail]


def _planted_entries(rng, n, m, support, off_scale, density):
    """(entries, tail): gen_z_feasible's tensor entries, shaped (n, n^(m-1)), and n draws after.

    Each entry is drawn once per row and multiset and copied to the orderings
    of the multiset; a helper, so that its temporaries die before the copy.
    """
    layout = _cached_plant_layout if n**m <= 2**12 else _plant_layout
    drawn, diag, col = layout(n, m, tuple(support.tolist()))
    head, hit, x, tail = _replay_draws(rng, n, drawn.size, density, n)
    grid = np.zeros(n * math.comb(n + m - 2, m - 1))
    grid[diag] = _uniform(head, 1.0, 2.0)
    grid[drawn[hit]] = -_uniform(x, 0.0, off_scale)
    return grid.reshape(n, -1).take(col, axis=1), tail


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
    multiset, at its sorted position, and copied to its other orderings).
    """
    _check_size(n, m)
    rng = np.random.default_rng(seed)
    drawn_card = int(rng.integers(1, min(2, n) + 1))
    if card is None:
        card = drawn_card
    if not 1 <= card <= n:
        raise ValueError(f"planted cardinality {card} out of range [1, {n}]")
    support = np.sort(rng.choice(n, size=card, replace=False))
    # every later value is one uniform draw: see _planted_entries and _replay_draws
    entries, tail = _planted_entries(rng, n, m, support, off_scale, density)
    A = DenseTensor(m, n, entries)
    A._semi_symmetric = True

    v = np.zeros(n)
    v[support] = _uniform(tail[:card], 0.5, 1.5)
    q = -contract_m1(A, v)
    q[v == 0.0] += _uniform(tail[card:], 0.1, 1.0)
    inst = Instance(A, q, label=f"z_feasible-n{n}-m{m}-s{seed}", source="generated")
    return inst, v, support.tolist()


def gen_instance(kind: str, n: int, m: int, seed: int, card: int | None = None) -> Instance:
    """Deterministic instance factory; see INSTANCE_KINDS.

    `paper_example` ignores n, m, and seed and returns the fixed reproduction
    instance.  `card` optionally pins the planted support size of
    `z_feasible`; left unset, it is drawn from the seed.
    """
    if kind == "paper_example":
        return example_instance()
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
    if p.is_dir():
        raise ValueError(f"not an instance file: {path} is a directory")
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
        try:
            payload[name] = np.array(val, dtype=float)
        except OverflowError:  # an integer beyond the float range
            raise ValueError(
                f'parse error in {path}: field "{name}" holds a number beyond the float range'
            ) from None
        if not np.isfinite(payload[name]).all():  # NaN, Infinity, or a float like 1e400
            raise ValueError(f'parse error in {path}: field "{name}" must hold finite numbers')
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
        DenseTensor(m, n, payload["entries"]),
        payload["q"],
        label=label,
        source="file",
    )
