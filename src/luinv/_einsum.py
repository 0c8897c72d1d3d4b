"""Compiled einsum contraction plans, built once per structure and shapes.

A ``Plan`` is compiled once per key (renumbered subscripts, output, operand
shapes) and kept in a bounded cache.  It holds:

- the integer subscripts, with axis ids renumbered in order of first use;
- numpy's greedy path from ``np.einsum_path(..., optimize="greedy")``, the
  path ``np.einsum(..., optimize=True)`` picks;
- the path's FLOP count and largest intermediate (numpy's cost model);
- one prepared step per path entry.

A pairwise step first sums out, with a single-operand einsum, every index
that is repeated inside one operand or is needed neither by the other
operand nor later; it then contracts the pair as one matrix product through
BLAS and keeps the result in (batch, left, right) axis order, so only the
output needs a final transpose.  Any other step (a single operand, or three
and more operands when the greedy path falls back past its memory limit)
is one ``np.einsum`` call.  Plans hold index bookkeeping only, never arrays
of operand size.

Callers with their own cheap keys (a label and dims, a subsystem list) wrap
``plan`` in a cache of their own, so that a hit does no per-axis work.  The
closed forms keep each formula's network renumbered once per (syntax tree,
dims) and call ``compile_plan`` when the stack size, which is in the
shapes, changes.
This module is the only one that writes einsum's letter format.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Hashable, Sequence

import numpy as np

from .errors import ResourceLimitError

#: Entries of every plan cache in the package (one constant bound).
PLAN_CACHE_SIZE = 2048

#: einsum names axes with single letters, so a contraction has at most 52.
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
MAX_AXIS_IDS = len(_LETTERS)

_ZERO = np.zeros((), dtype=complex)


def _letters(term: Sequence[int]) -> str:
    return "".join(_LETTERS[i] for i in term)


def _einsum_string(terms: Sequence[Sequence[int]], out: Sequence[int]) -> str:
    return ",".join(_letters(t) for t in terms) + "->" + _letters(out)


def _unique(term: Sequence[int], needed) -> tuple[int, ...]:
    """The ids of term in order of first appearance, keeping those in needed."""
    return tuple(i for i in dict.fromkeys(term) if i in needed)


class _EinsumStep:
    """One np.einsum call over the step's operands."""

    __slots__ = ("subscripts",)

    def __init__(self, terms, result):
        self.subscripts = _einsum_string(terms, result)

    def __call__(self, *ops):
        return np.einsum(self.subscripts, *ops)


class _PairStep:
    """Pre-sum each operand, then one (batched) matrix product."""

    __slots__ = ("presum_a", "presum_b", "axes_a", "axes_b", "shape_a", "shape_b", "shape_out",
                 "result")

    def __init__(self, a, b, later, size):
        a1 = _unique(a, set(b) | later)
        b1 = _unique(b, set(a) | later)
        batch = [i for i in a1 if i in b1 and i in later]
        shared = [i for i in a1 if i in b1 and i not in later]
        left = [i for i in a1 if i not in b1]
        right = [i for i in b1 if i not in a1]
        self.presum_a = _einsum_string([a], a1) if a1 != tuple(a) else None
        self.presum_b = _einsum_string([b], b1) if b1 != tuple(b) else None
        self.axes_a = _axes(a1, batch + left + shared)
        self.axes_b = _axes(b1, batch + shared + right)
        nb, nl, ns, nr = (math.prod(size[i] for i in g) for g in (batch, left, shared, right))
        lead = (nb,) if batch else ()
        self.shape_a = lead + (nl, ns)
        self.shape_b = lead + (ns, nr)
        self.result = tuple(batch + left + right)
        self.shape_out = tuple(size[i] for i in self.result)

    def __call__(self, x, y):
        if self.presum_a is not None:
            x = np.einsum(self.presum_a, x)
        if self.presum_b is not None:
            y = np.einsum(self.presum_b, y)
        if self.axes_a is not None:
            x = x.transpose(self.axes_a)
        if self.axes_b is not None:
            y = y.transpose(self.axes_b)
        z = np.matmul(x.reshape(self.shape_a), y.reshape(self.shape_b))
        return z.reshape(self.shape_out)


def _axes(term: Sequence[int], order: Sequence[int]) -> tuple[int, ...] | None:
    """Transpose axes taking term to order; None when nothing moves."""
    axes = tuple(term.index(i) for i in order)
    return None if axes == tuple(range(len(axes))) else axes


class Plan:
    """A compiled contraction; call it with operands of the planned shapes."""

    __slots__ = ("terms", "out", "shapes", "path", "flops", "largest_intermediate",
                 "_steps", "_final_axes")

    def __init__(self, terms, out, shapes):
        size: dict[int, int] = {}
        for term, shape in zip(terms, shapes, strict=True):
            if len(term) != len(shape):
                raise ValueError(f"subscripts {term} do not match operand shape {shape}")
            for i, n in zip(term, shape):
                if size.setdefault(i, n) != n:
                    raise ValueError(f"axis id {i} has sizes {size[i]} and {n}")
        if len(set(out)) != len(out) or any(i not in size for i in out):
            raise ValueError(f"output ids {out} must be distinct ids of the operands")
        if len(size) > MAX_AXIS_IDS:
            raise ResourceLimitError(
                f"contraction needs {len(size)} axis ids; einsum allows {MAX_AXIS_IDS}"
            )
        self.terms, self.out, self.shapes = terms, out, shapes

        args: list = []
        for term, shape in zip(terms, shapes):
            args += [np.broadcast_to(_ZERO, shape), list(term)]
        self.path = tuple(np.einsum_path(*args, list(out), optimize="greedy")[0][1:])

        current = list(terms)
        steps = []
        self.flops = 0
        self.largest_intermediate = 0
        for n_step, entry in enumerate(self.path):
            positions = tuple(sorted(entry, reverse=True))
            popped = [current.pop(i) for i in positions]
            later = set(out).union(*current)
            involved = set().union(*popped)
            if len(popped) == 2:
                step = _PairStep(popped[0], popped[1], later, size)
                result = step.result
            else:
                last = n_step == len(self.path) - 1
                result = tuple(out) if last else _unique(
                    [i for t in popped for i in t], later)
                step = _EinsumStep(popped, result)
            inner = not involved <= set(result)
            self.flops += math.prod(size[i] for i in involved) * (max(1, len(popped) - 1) + inner)
            self.largest_intermediate = max(
                self.largest_intermediate, math.prod(size[i] for i in result))
            steps.append((positions, step))
            current.append(result)
        self._steps = tuple(steps)
        self._final_axes = _axes(current[0], out)

    def __call__(self, *operands: np.ndarray) -> np.ndarray:
        ops = list(operands)
        for positions, step in self._steps:
            ops.append(step(*[ops.pop(i) for i in positions]))
        result = ops[0]
        return result if self._final_axes is None else result.transpose(self._final_axes)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def compile_plan(
    terms: tuple[tuple[int, ...], ...],
    out: tuple[int, ...],
    shapes: tuple[tuple[int, ...], ...],
) -> Plan:
    """The cached plan for integer subscripts (ids renumbered from 0)."""
    return Plan(terms, out, shapes)


def renumber(
    subscripts: Sequence[Sequence[Hashable]], out: Sequence[Hashable]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Integer subscripts and output for arbitrary hashable axis ids,
    renumbered from 0 in order of first use: the key ``compile_plan`` takes."""
    mapping: dict[Hashable, int] = {}

    def ints(ids: Sequence[Hashable]) -> tuple[int, ...]:
        return tuple(mapping.setdefault(i, len(mapping)) for i in ids)

    terms = tuple(ints(ids) for ids in subscripts)
    return terms, ints(out)


def plan(
    subscripts: Sequence[Sequence[Hashable]],
    out: Sequence[Hashable],
    shapes: Sequence[Sequence[int]],
) -> Plan:
    """The cached plan for operands of the given shapes, with arbitrary
    hashable axis ids (renumbered in order of first use)."""
    return compile_plan(*renumber(subscripts, out), tuple(tuple(s) for s in shapes))
