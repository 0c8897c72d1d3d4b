"""Dense complex tensors for multipartite quantum states.

A pure state on subsystems of dimensions (n_1, ..., n_k) is a complex array
of that shape; a density matrix is an N x N array with N = prod(n_j), both
row and column indices factored row-major (subsystem 1 slowest).  Subsystem
indices are 1-based everywhere in the public API, matching the positions of
permutation entries in invariant labels.

Neither norm nor trace is normalized by construction; the invariant
polynomials are homogeneous, so callers may scale freely.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence, Union

import numpy as np

from ._einsum import PLAN_CACHE_SIZE, plan
from .errors import ResourceLimitError

#: Default cap on the total Hilbert-space dimension prod(n_j).
DEFAULT_DIM_LIMIT = 4096

_dim_limit = DEFAULT_DIM_LIMIT


def dim_limit() -> int:
    return _dim_limit


def set_dim_limit(limit: int) -> None:
    """Raise or lower the total-dimension guard (CLI: --dim-limit)."""
    global _dim_limit
    if limit < 1:
        raise ValueError("dimension limit must be positive")
    _dim_limit = limit


def check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(n) for n in dims)
    if not dims or any(n < 1 for n in dims):
        raise ValueError(f"subsystem dimensions must be positive integers: {dims}")
    total = math.prod(dims)
    if total > _dim_limit:
        raise ResourceLimitError(
            f"total dimension {total} exceeds limit {_dim_limit}; "
            "raise it with set_dim_limit / --dim-limit"
        )
    return dims


@dataclass(frozen=True, eq=False)
class PureState:
    """State vector stored as a tensor of shape dims."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = check_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != dims:
            raise ValueError(f"amplitude shape {amp.shape} does not match dims {dims}")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def k(self) -> int:
        return len(self.dims)

    def vector(self) -> np.ndarray:
        return self.amplitudes.reshape(-1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Operator on the product space, stored as a prod(dims) square matrix.
    Hermiticity is not enforced at construction (linear-algebra identities
    are tested on general matrices); samplers and the file reader do check."""

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        dims = check_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        mat = np.asarray(self.entries, dtype=complex)
        n = math.prod(dims)
        if mat.shape != (n, n):
            raise ValueError(f"entry shape {mat.shape} does not match dims {dims}")
        object.__setattr__(self, "entries", mat)

    @property
    def k(self) -> int:
        return len(self.dims)

    @classmethod
    def _derived(cls, dims: tuple[int, ...], entries: np.ndarray) -> "DensityMatrix":
        """An operator built from dims of an already checked state: skips
        check_dims and the shape check (entries must be complex, N x N)."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "dims", dims)
        object.__setattr__(rho, "entries", entries)
        return rho

    def tensor(self) -> np.ndarray:
        """View with one row axis and one column axis per subsystem."""
        return self.entries.reshape(self.dims + self.dims)

    def trace(self) -> complex:
        return complex(np.trace(self.entries))


State = Union[PureState, DensityMatrix]


def is_hermitian(rho: DensityMatrix, tol: float = 1e-12) -> bool:
    scale = np.abs(rho.entries).max() or 1.0
    return bool(np.abs(rho.entries - rho.entries.conj().T).max() <= tol * scale)


def _check_subsystems(subs: Iterable[int], k: int) -> tuple[int, ...]:
    subs = tuple(sorted(set(int(j) for j in subs)))
    for j in subs:
        if not 1 <= j <= k:
            raise ValueError(f"subsystem index {j} out of range 1..{k}")
    return subs


def projector(psi: PureState) -> DensityMatrix:
    """Rank-one projector |psi><psi| (trace = squared norm)."""
    return DensityMatrix._derived(psi.dims, _projector_stack(psi.amplitudes[None])[0])


def _projector_stack(amps: np.ndarray) -> np.ndarray:
    """The projectors of a stack of amplitude tensors, shape (n, N, N)."""
    v = amps.reshape(len(amps), math.prod(amps.shape[1:]))
    return v[:, :, None] * v[:, None, :].conj()


def partial_trace(rho: DensityMatrix, traced: Iterable[int]) -> DensityMatrix:
    """Trace out the listed subsystems; the result lives on the complement.
    Tracing everything yields a 1x1 matrix holding the full trace."""
    traced = frozenset(traced)
    if not traced:
        return rho
    entries, new_dims = _trace_stack(rho.entries[None], rho.dims, traced)
    return DensityMatrix._derived(new_dims, entries[0])


def _trace_stack(x: np.ndarray, dims: tuple[int, ...], traced: frozenset):
    """partial_trace on a stack x of shape (n, N, N) of operators on dims:
    the traced stack and its dims."""
    if not traced:
        return x, dims
    n = len(x)
    trace, new_dims = _partial_trace_plan(dims, traced, n)
    size = math.prod(new_dims)
    return trace(x.reshape((n,) + dims + dims)).reshape(n, size, size), new_dims


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _partial_trace_plan(dims: tuple[int, ...], traced: frozenset, batch: int):
    traced = _check_subsystems(traced, len(dims))
    k = len(dims)
    keep = [j for j in range(1, k + 1) if j not in traced]
    subs = ["n"] + [("t", j) if j in traced else ("r", j) for j in range(1, k + 1)]
    subs += [("t", j) if j in traced else ("c", j) for j in range(1, k + 1)]
    out = ["n"] + [("r", j) for j in keep] + [("c", j) for j in keep]
    new_dims = tuple(dims[j - 1] for j in keep) or (1,)
    return plan([subs], out, [(batch,) + dims + dims]), new_dims


def partial_transpose(rho: DensityMatrix, subsystems: Iterable[int]) -> DensityMatrix:
    """Swap row and column indices on the listed subsystems (involutive)."""
    subs = _check_subsystems(subsystems, rho.k)
    if not subs:
        return rho
    return DensityMatrix._derived(rho.dims, _transpose_stack(rho.entries[None], rho.dims, subs)[0])


def _transpose_stack(x: np.ndarray, dims: tuple[int, ...], subs: Sequence[int]) -> np.ndarray:
    """partial_transpose on a stack x of shape (n, N, N): one axis
    permutation of the (n, dims, dims) tensor."""
    if not subs:
        return x
    k = len(dims)
    axes = list(range(2 * k + 1))
    for j in subs:
        axes[j], axes[k + j] = axes[k + j], axes[j]
    return x.reshape((len(x),) + dims + dims).transpose(axes).reshape(x.shape)


def tensor_with_identity(
    rho: DensityMatrix, id_set: Iterable[int], full_dims: Sequence[int]
) -> DensityMatrix:
    """Insert identity factors at the id_set positions of full_dims, placing
    rho's subsystems (in order) on the remaining positions.

    A fully traced rho (1x1 matrix) against id_set = all positions becomes a
    scalar multiple of the identity.
    """
    full_dims = check_dims(full_dims)
    id_set, rest = _padding_slots(frozenset(id_set), full_dims)
    expected = tuple(full_dims[j - 1] for j in rest) or (1,)
    if rho.dims != expected:
        raise ValueError(
            f"operator dims {rho.dims} do not match non-identity slots {expected}"
        )
    if not id_set:
        return rho
    return DensityMatrix(full_dims, _pad_stack(rho.entries[None], id_set, rest, full_dims)[0])


def _pad_stack(x: np.ndarray, id_set: tuple[int, ...], rest: tuple[int, ...],
               full_dims: tuple[int, ...]) -> np.ndarray:
    """tensor_with_identity on a stack x of shape (n, M, M) of operators on
    the rest slots; with no rest slots, x holds 1x1 scalars."""
    if not rest:
        return x * _eye(math.prod(full_dims))
    return tensor_group([x], (rest,), id_set, full_dims)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _padding_slots(id_set: frozenset, full_dims: tuple[int, ...]):
    id_set = _check_subsystems(id_set, len(full_dims))
    return id_set, tuple(j for j in range(1, len(full_dims) + 1) if j not in id_set)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _eye(n: int) -> np.ndarray:
    eye = np.eye(n, dtype=complex)
    eye.flags.writeable = False
    return eye


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _group_plan(supports: tuple[tuple[int, ...], ...], id_slots: tuple[int, ...],
                dims: tuple[int, ...], batch: int):
    covered = sorted(id_slots + sum(supports, ()))
    if len(set(covered)) != len(covered):
        raise ValueError(f"overlapping subsystems in tensor group: {covered}")
    shapes = [(batch,) + tuple(dims[j - 1] for j in sup) * 2 for sup in supports]
    subscripts = [["n"] + [("r", j) for j in sup] + [("c", j) for j in sup] for sup in supports]
    for j in id_slots:
        shapes.append((dims[j - 1],) * 2)
        subscripts.append([("r", j), ("c", j)])
    out = ["n"] + [("r", j) for j in covered] + [("c", j) for j in covered]
    n = math.prod(dims[j - 1] for j in covered)
    eyes = tuple(_eye(dims[j - 1]) for j in id_slots)
    return plan(subscripts, out, shapes), tuple(shapes[: len(supports)]), eyes, n


def tensor_group(stacks: Sequence[np.ndarray], supports: tuple[tuple[int, ...], ...],
                 id_slots: tuple[int, ...], dims: tuple[int, ...]) -> np.ndarray:
    """Tensor product, as a stack of matrices on the sorted union of its
    slots, of stacks of operator matrices (stacks[i], of shape (n, M_i, M_i),
    acting on subsystems supports[i], in that order) and identities on
    id_slots; dims[j-1] is the dimension of slot j.  The slots must be
    disjoint, and there must be at least one stack."""
    batch = len(stacks[0])
    group, shapes, eyes, n = _group_plan(supports, id_slots, dims, batch)
    ops = [mat.reshape(shape) for mat, shape in zip(stacks, shapes)]
    return group(*ops, *eyes).reshape(batch, n, n)


def _gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """I.i.d. standard complex Gaussian entries: the real parts, then the
    imaginary parts, from rng."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_pure(dims: Sequence[int], seed: int) -> PureState:
    """I.i.d. standard complex Gaussian amplitudes (PCG64 stream from seed)."""
    dims = check_dims(dims)
    return PureState(dims, _pure_stack(dims, [seed])[0])


def random_density(dims: Sequence[int], seed: int, rank: int | None = None) -> DensityMatrix:
    """Wishart-type Hermitian PSD matrix A A^dagger with A of shape (N, rank)."""
    dims = check_dims(dims)
    return DensityMatrix(dims, _density_stack(dims, [seed], rank)[0])


def random_hermitian(dims: Sequence[int], seed: int) -> DensityMatrix:
    """Hermitian (not necessarily PSD) matrix (B + B^dagger)/2, entries O(1)."""
    dims = check_dims(dims)
    n = math.prod(dims)
    b = _gaussian(np.random.default_rng(seed), (n, n))
    return DensityMatrix(dims, (b + b.conj().T) / 2)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary: QR of a Ginibre matrix with the R
    diagonal phase divided out (Mezzadri construction)."""
    return _haar_stack(_ginibre(rng, n))


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return _gaussian(rng, (n, n)) / np.sqrt(2)


def _haar_stack(z: np.ndarray) -> np.ndarray:
    """Mezzadri's phase-fixed QR of each Ginibre matrix in z (..., n, n)."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_local_unitaries(dims: Sequence[int], seed: int) -> list[np.ndarray]:
    dims = check_dims(dims)
    rng = np.random.default_rng(seed)
    return [haar_unitary(n, rng) for n in dims]


def _check_unitary_shapes(dims: tuple[int, ...], us: Sequence[np.ndarray]):
    if len(us) != len(dims):
        raise ValueError(f"expected {len(dims)} unitaries, got {len(us)}")
    for j, (n, u) in enumerate(zip(dims, us), start=1):
        if np.shape(u) != (n, n):
            raise ValueError(f"unitary {j} has shape {np.shape(u)}, expected ({n}, {n})")


def apply_local_unitaries(psi: PureState, us: Sequence[np.ndarray]) -> PureState:
    """(U_1 x ... x U_k) psi."""
    _check_unitary_shapes(psi.dims, us)
    stacks = [np.asarray(u)[None] for u in us]
    return PureState(psi.dims, _rotate_stack(psi.amplitudes[None], stacks)[0])


def apply_local_unitaries_mixed(rho: DensityMatrix, us: Sequence[np.ndarray]) -> DensityMatrix:
    """(U_1 x ... x U_k) rho (U_1 x ... x U_k)^dagger."""
    _check_unitary_shapes(rho.dims, us)
    stacks = [np.asarray(u)[None] for u in us]
    return DensityMatrix(rho.dims, _rotate_mixed_stack(rho.entries[None], rho.dims, stacks)[0])


def purify(rho: DensityMatrix, tol: float = 1e-12) -> PureState:
    """Pure state on dims + (rank,) whose reduction over the appended
    subsystem reproduces rho: phi = sum_i sqrt(lambda_i) |v_i>|i>.

    Raises ValueError if rho has an eigenvalue below -1e-9 * ||rho||.
    """
    return _purify_stack(rho.entries[None], rho.dims, tol)[0]


# -- stacks of samples ---------------------------------------------------------
#
# The verification checks draw many samples, then rotate or purify them.  Each
# sample keeps its own seed and exactly the rng calls of the single-state
# sampler; everything after the draw runs once over the stack.  The
# single-state functions above are the stacks of one.


def _pure_stack(dims: tuple[int, ...], seeds: Sequence[int]) -> np.ndarray:
    """random_pure's amplitudes for each seed, shape (n, *dims)."""
    out = np.empty((len(seeds),) + dims, dtype=complex)
    for i, seed in enumerate(seeds):
        out[i] = _gaussian(np.random.default_rng(seed), dims)
    return out


def _density_stack(dims: tuple[int, ...], seeds: Sequence[int],
                   rank: int | None = None) -> np.ndarray:
    """random_density's matrices for each seed, shape (n, N, N): one draw of
    A per seed, then one batched product A A^dagger."""
    n = math.prod(dims)
    if rank is None:
        rank = n
    if rank < 1:
        raise ValueError("rank must be >= 1")
    a = np.empty((len(seeds), n, rank), dtype=complex)
    for i, seed in enumerate(seeds):
        a[i] = _gaussian(np.random.default_rng(seed), (n, rank))
    return a @ a.conj().swapaxes(1, 2)


def _unitary_stacks(dims: tuple[int, ...], seeds: Sequence[int]) -> list[np.ndarray]:
    """random_local_unitaries for each seed, as one (n, n_j, n_j) stack per
    subsystem: each seed's draws in random_local_unitaries' order, then one
    batched QR per subsystem."""
    z = [np.empty((len(seeds), n, n), dtype=complex) for n in dims]
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        for stack, n in zip(z, dims):
            stack[i] = _ginibre(rng, n)
    return [_haar_stack(stack) for stack in z]


def _rotate_stack(amps: np.ndarray, us: Sequence[np.ndarray]) -> np.ndarray:
    """(U_1 x ... x U_k) psi for a stack of amplitude tensors (n, *dims) and
    one stack of unitaries (n, n_j, n_j) per subsystem: one einsum each."""
    k = amps.ndim - 1
    axes = list(range(k + 1))
    for j, u in enumerate(us, start=1):
        out = axes[:j] + [k + 1] + axes[j + 1:]
        amps = np.einsum(u, [0, k + 1, j], amps, axes, out)
    return amps


def _rotate_mixed_stack(rhos: np.ndarray, dims: tuple[int, ...],
                        us: Sequence[np.ndarray]) -> np.ndarray:
    """U rho U^dagger, U = U_1 x ... x U_k, for a stack of matrices (n, N, N):
    one einsum per subsystem, rotating its row and column axes."""
    k = len(dims)
    t = rhos.reshape((len(rhos),) + dims + dims)
    axes = list(range(2 * k + 1))
    for j, u in enumerate(us, start=1):
        out = list(axes)
        out[j], out[k + j] = 2 * k + 1, 2 * k + 2
        t = np.einsum(u, [0, 2 * k + 1, j], u.conj(), [0, 2 * k + 2, k + j], t, axes, out)
    return t.reshape(rhos.shape)


def _purify_stack(rhos: np.ndarray, dims: tuple[int, ...], tol: float = 1e-12) -> list[PureState]:
    """purify for each of a stack of matrices (n, N, N) on dims, with one
    batched eigh; the ranks, and so the purifications' dims, may differ."""
    h = (rhos + rhos.conj().swapaxes(1, 2)) / 2
    asymmetry = np.abs(h - rhos).max(axis=(1, 2))
    size = np.abs(rhos).max(axis=(1, 2))
    if (asymmetry > 1e-9 * np.maximum(size, 1e-300)).any():
        raise ValueError("purify requires a Hermitian matrix")
    out = []
    for vals, vecs in zip(*np.linalg.eigh(h)):
        scale = max(float(np.abs(vals).max()), 1e-300)
        if vals.min() < -1e-9 * scale:
            raise ValueError(
                f"matrix is not positive semidefinite (min eigenvalue {vals.min():.3e})")
        rank = max(int((vals > tol * scale).sum()), 1)
        order = np.argsort(vals)[::-1][:rank]
        # C order: the batched engines' rounding depends on operand layout
        amp = np.ascontiguousarray(vecs[:, order] * np.sqrt(np.maximum(vals[order], 0.0)))
        out.append(PureState(dims + (rank,), amp.reshape(dims + (rank,))))
    return out


# -- state files --------------------------------------------------------------
#
# JSON schema: {"dims": [n1, ..., nk], "kind": "pure"|"mixed",
#               "data": nested arrays of [re, im]}
# pure data is nested by subsystem (shape dims); mixed data is the square
# matrix as rows.  Floats are written with Python's shortest round-trip repr,
# which is exact for float64.


def _complex_to_pairs(arr: np.ndarray):
    if arr.ndim == 0:
        return [float(arr.real), float(arr.imag)]
    return [_complex_to_pairs(sub) for sub in arr]


def _pairs_to_complex(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValueError("state data entries must be [re, im] pairs")
    if not np.isfinite(arr).all():
        raise ValueError("state data holds non-finite entries (NaN or Inf)")
    return arr[..., 0] + 1j * arr[..., 1]


def save_state(state: State, path) -> None:
    if isinstance(state, PureState):
        doc = {"dims": list(state.dims), "kind": "pure",
               "data": _complex_to_pairs(state.amplitudes)}
    elif isinstance(state, DensityMatrix):
        doc = {"dims": list(state.dims), "kind": "mixed",
               "data": _complex_to_pairs(state.entries)}
    else:
        raise TypeError(f"not a state: {type(state)!r}")
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp)
        fp.write("\n")


def load_state(path) -> State:
    with open(path, "r", encoding="utf-8") as fp:
        doc = json.load(fp)
    try:
        dims = tuple(int(n) for n in doc["dims"])
        kind = doc["kind"]
        data = doc["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state file {path}: {exc}") from exc
    arr = _pairs_to_complex(data)
    if kind == "pure":
        if arr.shape != dims:
            raise ValueError(f"pure data shape {arr.shape} does not match dims {dims}")
        return PureState(dims, arr)
    if kind == "mixed":
        n = math.prod(dims)
        if arr.shape != (n, n):
            raise ValueError(f"mixed data shape {arr.shape} does not match dims {dims}")
        rho = DensityMatrix(dims, arr)
        if not is_hermitian(rho, tol=1e-10):
            raise ValueError("mixed state file is not Hermitian")
        return rho
    raise ValueError(f"unknown state kind {kind!r}")
