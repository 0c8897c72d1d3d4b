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
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache
from typing import Iterable, Sequence, Union

import numpy as np

from ._einsum import PLAN_CACHE_SIZE, plan
from ._record import Record, as_int
from .errors import ResourceLimitError

#: The public names, which ``luinv`` also exports
__all__ = [
    "DEFAULT_DIM_LIMIT",
    "DensityMatrix",
    "PureState",
    "apply_local_unitaries",
    "apply_local_unitaries_mixed",
    "dim_limit",
    "is_hermitian",
    "load_state",
    "partial_trace",
    "projector",
    "purify",
    "random_density",
    "random_hermitian",
    "random_local_unitaries",
    "random_pure",
    "save_state",
]

#: Default cap on the total Hilbert-space dimension prod(n_j).
DEFAULT_DIM_LIMIT = 4096
_limit = ContextVar("dim_limit", default=DEFAULT_DIM_LIMIT)

#: purify keeps the eigenvalues above this multiple of the largest |eigenvalue|
_PURIFY_RTOL = 1e-12


@contextmanager
def dim_limit(limit: int):
    """Set the total-dimension guard inside a ``with`` block (--dim-limit)."""
    value = as_int(limit)
    if value is None or value < 1:
        raise ValueError(f"dimension limit must be a positive integer: {limit!r}")
    token = _limit.set(value)
    try:
        yield value
    finally:
        _limit.reset(token)


def check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    given = tuple(dims)
    dims = tuple([as_int(n) for n in given])
    if not dims or None in dims or min(dims) < 1:
        raise ValueError(f"subsystem dimensions must be positive integers: {given}")
    return _check_total(dims)


def _check_total(dims: tuple[int, ...]) -> tuple[int, ...]:
    """Checked dims, unless their total exceeds the current guard."""
    total = math.prod(dims)
    if total > _limit.get():
        raise ResourceLimitError(
            f"total dimension {total} exceeds limit {_limit.get()}; "
            "raise it with dim_limit / --dim-limit"
        )
    return dims


class PureState(Record):
    """State vector stored as a tensor of shape dims."""

    __slots__ = ("dims", "amplitudes")

    def __init__(self, dims: tuple[int, ...], amplitudes: np.ndarray):
        dims = check_dims(dims)
        amp = np.asarray(amplitudes, dtype=complex)
        if amp.shape != dims:
            raise ValueError(f"amplitude shape {amp.shape} does not match dims {dims}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def k(self) -> int:
        return len(self.dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


class DensityMatrix(Record):
    """Operator on the product space, stored as a prod(dims) square matrix.
    Hermiticity is not enforced at construction (linear-algebra identities
    are tested on general matrices); samplers and the file reader do check."""

    __slots__ = ("dims", "entries")

    def __init__(self, dims: tuple[int, ...], entries: np.ndarray):
        dims = check_dims(dims)
        mat = np.asarray(entries, dtype=complex)
        n = math.prod(dims)
        if mat.shape != (n, n):
            raise ValueError(f"entry shape {mat.shape} does not match dims {dims}")
        object.__setattr__(self, "dims", dims)
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
    checked = set()
    for j in subs:
        index = as_int(j)
        if index is None:
            raise ValueError(f"subsystem index must be an integer: {j!r}")
        if not 1 <= index <= k:
            raise ValueError(f"subsystem index {index} out of range 1..{k}")
        checked.add(index)
    return tuple(sorted(checked))


def _state_data(kind: str, state) -> np.ndarray:
    """A state's array: a PureState's amplitudes for kind "pure", else a DensityMatrix's."""
    cls = PureState if kind == "pure" else DensityMatrix
    if not isinstance(state, cls):
        raise TypeError(f"{kind} labels take a {cls.__name__}")
    return state.amplitudes if kind == "pure" else state.entries


def projector(psi: PureState) -> DensityMatrix:
    """Rank-one projector |psi><psi| (trace = squared norm)."""
    return DensityMatrix._derived(psi.dims, _projector_stack(_state_data("pure", psi)[None])[0])


def _projector_stack(amps: np.ndarray) -> np.ndarray:
    """The projectors of a stack of amplitude tensors, shape (n, N, N)."""
    v = amps.reshape(len(amps), math.prod(amps.shape[1:]))
    return v[:, :, None] * v[:, None, :].conj()


def partial_trace(rho: DensityMatrix, traced: Iterable[int]) -> DensityMatrix:
    """Trace out the listed subsystems; the result lives on the complement.
    Tracing everything yields a 1x1 matrix holding the full trace."""
    traced = _check_subsystems(traced, rho.k)  # before the cache: {True} == {1}
    if not traced:
        return rho
    trace, new_dims = _partial_trace_plan(rho.dims, traced)
    size = math.prod(new_dims)
    return DensityMatrix._derived(new_dims, trace(rho.tensor()).reshape(size, size))


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _partial_trace_plan(dims: tuple[int, ...], traced: tuple[int, ...]):
    k = len(dims)
    keep = [j for j in range(1, k + 1) if j not in traced]
    subs = [("t", j) if j in traced else ("r", j) for j in range(1, k + 1)]
    subs += [("t", j) if j in traced else ("c", j) for j in range(1, k + 1)]
    out = [("r", j) for j in keep] + [("c", j) for j in keep]
    new_dims = tuple(dims[j - 1] for j in keep) or (1,)
    return plan([subs], out, [dims + dims]), new_dims


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
    b = _complex_stack(_normals([seed], 2 * n * n), (n, n))[0]
    return DensityMatrix(dims, (b + b.conj().T) / 2)


def _haar_stack(z: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries: Mezzadri's phase-fixed QR of each Ginibre
    matrix in z (..., n, n), the R diagonal phase divided out."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_local_unitaries(dims: Sequence[int], seed: int) -> list[np.ndarray]:
    dims = check_dims(dims)
    return [u[0] for u in _unitary_stacks(dims, [seed])]


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


def purify(rho: DensityMatrix) -> PureState:
    """Pure state on dims + (rank,) whose reduction over the appended
    subsystem reproduces rho: phi = sum_i sqrt(lambda_i) |v_i>|i>.

    Raises ValueError if rho has an eigenvalue below -1e-9 * ||rho||.
    """
    amps = _purify_stack(rho.entries[None], rho.dims)[0]
    return PureState(amps.shape, amps)


# -- stacks of samples ---------------------------------------------------------
#
# The verification checks draw many samples, then rotate or purify them.  Each
# sample keeps its own seed and rng stream, taken by one standard_normal call
# into a float buffer, real parts then imaginary parts; the complex assembly
# and everything after it run once over the stack.  The single-state
# functions above are the stacks of one.


def _check_seed(seed: int) -> int:
    """seed as an int; a ValueError unless it is a non-negative integer."""
    checked = as_int(seed)
    if checked is None or checked < 0:
        raise ValueError(f"seed must be a non-negative integer: {seed!r}")
    return checked


def _normals(seeds: Sequence[int], size: int) -> np.ndarray:
    """The first size standard normals of each seed's stream: (n, size)."""
    buf = np.empty((len(seeds), size))
    for row, seed in zip(buf, seeds):
        np.random.default_rng(_check_seed(seed)).standard_normal(size, out=row)
    return buf


def _complex_stack(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """I.i.d. standard complex Gaussian entries from rows of real parts then
    imaginary parts: (n, 2 prod(shape)) floats to (n, *shape) complex."""
    half = buf.reshape((len(buf), 2) + shape)
    return half[:, 0] + 1j * half[:, 1]


def _pure_stack(dims: tuple[int, ...], seeds: Sequence[int]) -> np.ndarray:
    """random_pure's amplitudes for each seed, shape (n, *dims)."""
    return _complex_stack(_normals(seeds, 2 * math.prod(dims)), dims)


def _density_stack(dims: tuple[int, ...], seeds: Sequence[int],
                   rank: int | None = None) -> np.ndarray:
    """random_density's matrices for each seed, shape (n, N, N): one draw of
    A per seed, then one batched product A A^dagger."""
    n = math.prod(dims)
    width = n if rank is None else as_int(rank)
    if width is None or width < 1:
        raise ValueError(f"rank must be a positive integer: {rank!r}")
    a = _complex_stack(_normals(seeds, 2 * n * width), (n, width))
    return a @ a.conj().swapaxes(1, 2)


def _unitary_stacks(dims: tuple[int, ...], seeds: Sequence[int]) -> list[np.ndarray]:
    """random_local_unitaries for each seed, as one (n, n_j, n_j) stack per
    subsystem: each seed's draws in random_local_unitaries' order, then one
    batched QR per subsystem."""
    buf = _normals(seeds, sum(2 * n * n for n in dims))
    stacks = []
    start = 0
    for n in dims:
        z = _complex_stack(buf[:, start:start + 2 * n * n], (n, n)) / np.sqrt(2)
        stacks.append(_haar_stack(z))
        start += 2 * n * n
    return stacks


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


def _purify_stack(rhos: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """purify for each of a stack of matrices (n, N, N) on dims, with one
    batched eigh, as one amplitude stack (n, *dims, top).  The ranks may
    differ: each purification fills the first rank columns of its last
    subsystem, and top is the largest rank (1 for an empty stack).  Zero
    columns leave every invariant unchanged."""
    h = (rhos + rhos.conj().swapaxes(1, 2)) / 2
    asymmetry = np.abs(h - rhos).max(axis=(1, 2))
    size = np.abs(rhos).max(axis=(1, 2))
    if (asymmetry > 1e-9 * np.maximum(size, 1e-300)).any():
        raise ValueError("purify requires a Hermitian matrix")
    columns = []
    for vals, vecs in zip(*np.linalg.eigh(h)):
        scale = max(float(np.abs(vals).max()), 1e-300)
        if vals.min() < -1e-9 * scale:
            raise ValueError(
                f"matrix is not positive semidefinite (min eigenvalue {vals.min():.3e})")
        rank = max(int((vals > _PURIFY_RTOL * scale).sum()), 1)
        order = np.argsort(vals)[::-1][:rank]
        columns.append((vecs[:, order], np.sqrt(np.maximum(vals[order], 0.0))))
    top = max((len(weights) for _, weights in columns), default=1)
    # one fresh C-order stack: the batched engines' rounding depends on layout
    out = np.zeros((len(rhos), math.prod(dims), top), dtype=complex)
    for amp, (vecs, weights) in zip(out, columns):
        amp[:, : len(weights)] = vecs * weights
    return out.reshape((len(rhos),) + dims + (top,))


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
    if not isinstance(state, (PureState, DensityMatrix)):
        raise TypeError(f"not a state: {type(state)!r}")
    kind = "pure" if isinstance(state, PureState) else "mixed"
    data = _complex_to_pairs(_state_data(kind, state))
    doc = {"dims": list(state.dims), "kind": kind, "data": data}
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp)
        fp.write("\n")


def load_state(path) -> State:
    """Read a state file.  Malformed content (bad JSON, nesting too deep for
    the parser, dims that are not JSON integers, a wrong shape) raises
    ValueError."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
        dims, kind = doc["dims"], doc["kind"]
        if None in map(as_int, dims):  # no floats, booleans or strings
            raise TypeError(f"dims {dims!r} are not all integers")
        dims = tuple(dims)
        arr = _pairs_to_complex(doc["data"])
    except (KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"malformed state file {path}: {exc}") from exc
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
