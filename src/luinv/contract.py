"""Generic invariant evaluation straight from the index-contraction scheme.

A grade-m label assigns one permutation of {1..m} per subsystem.  For a
density matrix, write m copies of rho and contract the column index of copy
l on subsystem j with the row index of copy sigma_j(l); for a pure state,
write m copies of psi and conj(psi), contract subsystem j < k of the l-th
conj(psi) with the sigma_j(l)-th psi, and subsystem k within the l-th pair
(pure labels therefore carry k-1 permutations).

Two strategies are provided and must agree to 1e-12 relative:

- ``method="einsum"``: the whole m-copy network contracted pairwise along
  numpy's greedy einsum path, so the m-fold tensor power is never formed;
  the compiled plan is cached per (label, dims);
- ``method="loop"``: a literal nested loop over all index assignments,
  O((prod n)^m); the independent oracle.

``eval_mixed_batch`` and ``eval_pure_batch`` evaluate one label on a stack
of n states on one dims, an array, with one plan call: the same network
with one shared leading batch axis on every operand and on the output.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._einsum import PLAN_CACHE_SIZE, Plan, plan
from .errors import ResourceLimitError, VerificationError
from .perms import Label, OrbitLabel, PermTuple, as_tuple
from .states import DensityMatrix, PureState, check_dims, partial_trace, projector

#: The public names, which ``luinv`` also exports
__all__ = [
    "InvariantSpec",
    "eval_mixed",
    "eval_mixed_batch",
    "eval_pure",
    "eval_pure_batch",
    "eval_pure_via_mixed",
]

#: Cap on (prod n)^m * m for a single naive-loop evaluation.
_EVAL_TERM_LIMIT = 20_000_000


@dataclass(frozen=True)
class InvariantSpec:
    """A label bundled with its interpretation."""

    label: OrbitLabel
    kind: str  # "pure" (r = k-1) or "mixed" (r = k)

    def __post_init__(self):
        if self.kind not in ("pure", "mixed"):
            raise ValueError(f"kind must be 'pure' or 'mixed', got {self.kind!r}")

    @property
    def m(self) -> int:
        return self.label.m

    @property
    def r(self) -> int:
        return self.label.r

    @property
    def k(self) -> int:
        return self.r + 1 if self.kind == "pure" else self.r


def _check_arity(r: int, k: int, kind: str) -> None:
    need = k - 1 if kind == "pure" else k
    if r != need:
        raise ValueError(f"label arity {r} does not match {k} subsystems "
                         f"(need {'k-1' if kind == 'pure' else 'k'})")


def _state_data(kind: str, state) -> np.ndarray:
    """A state's array for labels of kind: the amplitude tensor of a
    PureState for "pure", the matrix of a DensityMatrix for "mixed"."""
    cls = PureState if kind == "pure" else DensityMatrix
    if not isinstance(state, cls):
        raise TypeError(f"{kind} labels take a {cls.__name__}")
    return state.amplitudes if kind == "pure" else state.entries


def eval_mixed(sigma: Label, rho: DensityMatrix, method: str = "einsum") -> complex:
    """Invariant value for a mixed-state label (r = k entries)."""
    return _evaluate(sigma, "mixed", rho, method)


def eval_pure(sigma: Label, psi: PureState, method: str = "einsum") -> complex:
    """Invariant value for a pure-state label (r = k-1 entries)."""
    return _evaluate(sigma, "pure", psi, method)


def _evaluate(sigma: Label, kind: str, state, method: str) -> complex:
    """One label on one state through the unbatched network or the loop."""
    data = _state_data(kind, state)
    sigma, dims = as_tuple(sigma), state.dims
    _check_arity(sigma.r, len(dims), kind)
    m = sigma.m
    if method == "einsum":
        if kind == "pure":
            return complex(_pure_plan(sigma, dims)(*[data] * m, *[data.conj()] * m))
        return complex(_mixed_plan(sigma, dims)(*[data.reshape(dims + dims)] * m))
    if method == "loop":
        total_dim = math.prod(dims)
        if total_dim**m * m > _EVAL_TERM_LIMIT:
            raise ResourceLimitError(
                f"naive contraction over {total_dim}^{m} terms exceeds the guard")
        return (_pure_loop if kind == "pure" else _mixed_loop)(sigma, dims, data)
    raise ValueError(f"unknown method {method!r}")


def _checked_stack(sigma: PermTuple, kind: str, dims: Sequence[int],
                   stack) -> tuple[tuple[int, ...], np.ndarray]:
    """dims, checked against the guard, and a non-empty stack on them as a
    complex array: amplitudes (n, *dims) for kind "pure", (n, N, N) matrices
    for "mixed"; the label arity must be k - 1 or k."""
    if kind not in ("pure", "mixed"):
        raise ValueError(f"kind must be 'pure' or 'mixed', got {kind!r}")
    dims = check_dims(dims)
    stack = np.asarray(stack, dtype=complex)
    size = math.prod(dims)
    shape = dims if kind == "pure" else (size, size)
    if stack.shape[1:] != shape:
        raise ValueError(f"a {kind} stack on dims {dims} has shape (n,) + {shape}, "
                         f"not {stack.shape}")
    if not len(stack):
        raise ValueError("a batch needs at least one state")
    _check_arity(sigma.r, len(dims), kind)
    return dims, stack


def eval_mixed_batch(sigma: Label, dims: Sequence[int], rhos: np.ndarray) -> np.ndarray:
    """eval_mixed of one label on each of a stack of density matrices on
    dims, an (n, N, N) array, as a complex array of shape (n,) from one plan
    call."""
    sigma = as_tuple(sigma)
    dims, rhos = _checked_stack(sigma, "mixed", dims, rhos)
    stack = rhos.reshape((len(rhos),) + dims + dims)
    return _mixed_plan(sigma, dims, len(rhos))(*[stack] * sigma.m)


def eval_pure_batch(sigma: Label, dims: Sequence[int], psis: np.ndarray) -> np.ndarray:
    """eval_pure of one label on each of a stack of pure states on dims, an
    (n, *dims) array of amplitudes, as a complex array of shape (n,) from one
    plan call."""
    sigma = as_tuple(sigma)
    dims, psis = _checked_stack(sigma, "pure", dims, psis)
    m = sigma.m
    return _pure_plan(sigma, dims, len(psis))(*[psis] * m, *[psis.conj()] * m)


def eval_pure_via_mixed(sigma: Label, psi: PureState, rtol: float = 1e-10) -> complex:
    """Evaluate a pure label three ways and cross-check:

    directly, as the embedded label (sigma, e) on |psi><psi|, and as sigma on
    the reduction of |psi><psi| over the last subsystem.  Raises
    VerificationError if the routes disagree beyond rtol.
    """
    sigma = as_tuple(sigma)
    direct = eval_pure(sigma, psi)
    pi = projector(psi)
    embedded = eval_mixed(sigma.embed(), pi)
    reduced = eval_mixed(sigma, partial_trace(pi, {psi.k}))
    scale = max(abs(direct), abs(embedded), abs(reduced), 1e-300)
    worst = max(abs(direct - embedded), abs(direct - reduced)) / scale
    if worst > rtol:
        raise VerificationError(
            f"pure/mixed evaluation routes disagree by {worst:.3e} (rtol {rtol})"
        )
    return direct


# -- einsum strategy ----------------------------------------------------------
#
# Axis ids are (j, l) pairs: the summation index on subsystem j shared by
# copy l's row slot and copy sigma_j(l)'s column slot.  A batched plan adds
# the id "n", leading on every operand and on the output, for the stack of
# states; batch=None is the unbatched network.


def _batched(subscripts, shapes, batch: int | None) -> Plan:
    if batch is None:
        return plan(subscripts, [], shapes)
    return plan([["n", *ids] for ids in subscripts], ["n"], [(batch, *s) for s in shapes])


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _mixed_plan(sigma: PermTuple, dims: tuple[int, ...], batch: int | None = None) -> Plan:
    m, k = sigma.m, sigma.r
    subscripts = []
    for l in range(1, m + 1):
        rows = [(j, l) for j in range(1, k + 1)]
        cols = [(j, sigma.perms[j - 1](l)) for j in range(1, k + 1)]
        subscripts.append(rows + cols)
    return _batched(subscripts, [dims + dims] * m, batch)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _pure_plan(sigma: PermTuple, dims: tuple[int, ...], batch: int | None = None) -> Plan:
    m, k = sigma.m, len(dims)
    subscripts = [[(j, l) for j in range(1, k + 1)] for l in range(1, m + 1)]
    for l in range(1, m + 1):
        cols = [(j, sigma.perms[j - 1](l)) for j in range(1, k)]
        subscripts.append(cols + [(k, l)])
    return _batched(subscripts, [dims] * (2 * m), batch)


# -- naive loop strategy -------------------------------------------------------


def _index_tables(dims: tuple[int, ...]):
    n = math.prod(dims)
    unravel = list(itertools.product(*[range(d) for d in dims]))
    strides = []
    acc = 1
    for d in reversed(dims):
        strides.append(acc)
        acc *= d
    strides = list(reversed(strides))
    return n, unravel, strides


def _mixed_loop(sigma: PermTuple, dims: tuple[int, ...], entries: np.ndarray) -> complex:
    m, k = sigma.m, sigma.r
    n, unravel, strides = _index_tables(dims)
    perms = sigma.perms
    total = 0j
    for flat_rows in itertools.product(range(n), repeat=m):
        rows = [unravel[f] for f in flat_rows]
        term = 1 + 0j
        for l in range(m):
            col_flat = 0
            for j in range(k):
                col_flat += rows[perms[j](l + 1) - 1][j] * strides[j]
            term *= entries[flat_rows[l], col_flat]
        total += term
    return total


def _pure_loop(sigma: PermTuple, dims: tuple[int, ...], amplitudes: np.ndarray) -> complex:
    m, k = sigma.m, len(dims)
    n, unravel, strides = _index_tables(dims)
    vec = amplitudes.reshape(-1)
    cvec = vec.conj()
    perms = sigma.perms
    total = 0j
    for flat_rows in itertools.product(range(n), repeat=m):
        rows = [unravel[f] for f in flat_rows]
        term = 1 + 0j
        for f in flat_rows:
            term *= vec[f]
        for l in range(m):
            col_flat = 0
            for j in range(k - 1):
                col_flat += rows[perms[j](l + 1) - 1][j] * strides[j]
            col_flat += rows[l][k - 1] * strides[k - 1]
            term *= cvec[col_flat]
        total += term
    return total
