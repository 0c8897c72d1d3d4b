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
  one compiled plan per (label, kind, dims) serves a stack of any size;
- ``method="loop"``: a literal nested loop over all index assignments,
  O((prod n)^m); the independent oracle.

``eval_mixed_batch`` and ``eval_pure_batch`` evaluate one label on a stack
of n states on one dims, an array, with one plan call; ``eval_mixed`` and
``eval_pure`` run the same plan on a stack of one.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from ._einsum import PLAN_CACHE_SIZE, Plan, plan
from .errors import ResourceLimitError
from .perms import Label, PermTuple, _arity, _check_arity, as_tuple
from .states import DensityMatrix, PureState, _check_total, _state_data, check_dims

#: The public names, which ``luinv`` also exports
__all__ = [
    "eval_mixed",
    "eval_mixed_batch",
    "eval_pure",
    "eval_pure_batch",
]

#: Cap on (prod n)^m * m for a single naive-loop evaluation.
_EVAL_TERM_LIMIT = 20_000_000


def eval_mixed(sigma: Label, rho: DensityMatrix, method: str = "einsum") -> complex:
    """Invariant value for a mixed-state label (r = k entries)."""
    return _evaluate(sigma, "mixed", rho, method=method).item()


def eval_pure(sigma: Label, psi: PureState, method: str = "einsum") -> complex:
    """Invariant value for a pure-state label (r = k-1 entries)."""
    return _evaluate(sigma, "pure", psi, method=method).item()


def eval_mixed_batch(sigma: Label, dims: Sequence[int], rhos: np.ndarray) -> np.ndarray:
    """eval_mixed of one label on each of a stack of density matrices on
    dims, an (n, N, N) array, as a complex array of shape (n,) from one plan
    call."""
    return _evaluate(sigma, "mixed", rhos, dims)


def eval_pure_batch(sigma: Label, dims: Sequence[int], psis: np.ndarray) -> np.ndarray:
    """eval_pure of one label on each of a stack of pure states on dims, an
    (n, *dims) array of amplitudes, as a complex array of shape (n,) from one
    plan call."""
    return _evaluate(sigma, "pure", psis, dims)


def _evaluate(sigma: Label, kind: str, states, dims: Sequence[int] | None = None,
              method: str = "einsum") -> np.ndarray:
    """One label on the states _checked takes: its values, shape (n,)."""
    sigma, kind, dims, stack = _checked(sigma, kind, states, dims)
    if method == "einsum":
        return _contract(sigma, kind, dims, stack)
    if method == "loop":
        m, total_dim = sigma.m, math.prod(dims)
        if total_dim**m * m > _EVAL_TERM_LIMIT:
            raise ResourceLimitError(
                f"naive contraction over {total_dim}^{m} terms exceeds the guard")
        loop = _pure_loop if kind == "pure" else _mixed_loop
        return np.array([loop(sigma, dims, data) for data in stack])
    raise ValueError(f"unknown method {method!r}")


def _checked(sigma: Label | None, kind: str, states, dims: Sequence[int] | None = None
             ) -> tuple[PermTuple | None, str, tuple[int, ...], np.ndarray]:
    """The one checked route of every evaluation, on a state record or, given
    dims, a non-empty stack: amplitudes (n, *dims) for "pure", (n, N, N) for
    "mixed".  Checks, each once: a record's class, the kind, dims against the
    guard (a record's total alone), a stack's shape and size, the grade and
    arity of sigma, if given.  Returns (label tuple, kind, dims, stack)."""
    if dims is None:
        stack, dims = _state_data(kind, states)[None], states.dims
        need = _arity(kind, len(dims))
        _check_total(dims)
    else:
        dims = tuple(dims)
        need = _arity(kind, len(dims))
        dims, stack = check_dims(dims), np.asarray(states, dtype=complex)
        shape = dims if kind == "pure" else (math.prod(dims),) * 2
        if stack.shape[1:] != shape:
            raise ValueError(f"a {kind} stack on dims {dims} has shape (n,) + {shape}, "
                             f"not {stack.shape}")
        if not len(stack):
            raise ValueError("a batch needs at least one state")
    if sigma is not None:
        sigma = as_tuple(sigma)
        if sigma.m < 1:
            raise ValueError(f"grade {sigma.m} has no invariant; grades start at 1")
        if sigma.r != need:
            _check_arity(sigma, kind, len(dims))  # raises the one arity error
    return sigma, kind, dims, stack


# -- einsum strategy ----------------------------------------------------------
#
# Axis ids are (j, l) pairs: the summation index on subsystem j shared by
# copy l's row slot and copy sigma_j(l)'s column slot.  The id "n", leading
# on every operand and on the output, is the plan's free stack axis.


def _contract(sigma: PermTuple, kind: str, dims: tuple[int, ...], stack: np.ndarray) -> np.ndarray:
    """The values, shape (n,), of one plan call on the arguments _checked returns."""
    m = sigma.m
    operands = ([stack] * m + [stack.conj()] * m if kind == "pure"
                else [stack.reshape((-1,) + dims + dims)] * m)
    return _plan(sigma, kind, dims)(*operands)


def _plan(sigma: PermTuple, kind: str, dims: tuple[int, ...]) -> Plan:
    """The label's compiled network on dims: the one choice between the pure
    and the mixed plan builders."""
    return (_pure_plan if kind == "pure" else _mixed_plan)(sigma, dims)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _mixed_plan(sigma: PermTuple, dims: tuple[int, ...]) -> Plan:
    m, k = sigma.m, sigma.r
    subscripts = []
    for l in range(1, m + 1):
        rows = [(j, l) for j in range(1, k + 1)]
        cols = [(j, sigma.perms[j - 1](l)) for j in range(1, k + 1)]
        subscripts.append(["n"] + rows + cols)
    return plan(subscripts, ["n"], [(1,) + dims + dims] * m)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _pure_plan(sigma: PermTuple, dims: tuple[int, ...]) -> Plan:
    m, k = sigma.m, len(dims)
    subscripts = [["n"] + [(j, l) for j in range(1, k + 1)] for l in range(1, m + 1)]
    for l in range(1, m + 1):
        cols = [(j, sigma.perms[j - 1](l)) for j in range(1, k)]
        subscripts.append(["n"] + cols + [(k, l)])
    return plan(subscripts, ["n"], [(1,) + dims] * (2 * m))


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
