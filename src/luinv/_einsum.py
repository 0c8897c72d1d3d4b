"""Compiled einsum contraction plans, built once per structure and shapes.

A ``Plan`` is compiled once per key (renumbered subscripts, output, operand
shapes) and kept in a bounded cache.  It holds:

- the integer subscripts, with axis ids renumbered in order of first use;
- numpy's greedy path from ``np.einsum_path(..., optimize="greedy")``, the
  path ``np.einsum(..., optimize=True)`` picks;
- the path's FLOP count and largest intermediate (numpy's cost model),
  which the cost guard (``MAX_PLAN_FLOPS``, ``MAX_PLAN_INTERMEDIATE``)
  checks before any array work;
- the path lowered to one flat step program, replayed by one loop.

The program's registers hold the operands, then each step's result; every
register is read by exactly one step.  A pairwise step brings each side to
the matmul's (batch, left, shared) or (batch, shared, right) axis order,
either with one single-operand einsum that also sums out every index
repeated in it or needed neither by the other side nor later, or else with
a transpose; it then contracts the pair as one matrix product through BLAS
and keeps the result in (batch, left, right) axis order, so only the output
needs a final transpose.  Any other step (a single operand, or three and
more operands when the greedy path falls back past its memory limit) is one
``np.einsum`` call.  Plans hold index bookkeeping only, never arrays of
operand size.

A plan's stack id, the first output id that sits once on every operand,
indexes a stack of independent contractions (a batch of states).  Keyed at
size 1, reshaped with -1 and written as einsum's ellipsis (no letter), it
lets one plan serve stacks of every size at the cost of one contraction.
The engines and closed forms run one state as a stack of one, and wrap
``plan`` in caches of their own cheap keys (a label and dims, a syntax tree
and dims, a shape and axis), so that a hit does no per-axis work.  This
module is the only one that calls einsum or writes its letter format.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Hashable, Sequence

import numpy as np

try:  # what np.einsum calls when it is given no path, without its argument handling
    from numpy._core.multiarray import c_einsum
except ImportError:
    try:  # numpy < 2
        from numpy.core.multiarray import c_einsum
    except ImportError:  # the same sums, through np.einsum's argument handling
        c_einsum = np.einsum

from .errors import ResourceLimitError

#: Entries of every plan cache in the package (one constant bound).
PLAN_CACHE_SIZE = 2048

#: einsum names axes with single letters, so a contraction has at most 52
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
MAX_AXIS_IDS = len(_LETTERS)

#: The cost guard, per stacked contraction (per state of a stack): a plan
#: whose path needs more FLOPs (numpy's count), or whose largest
#: intermediate has more entries, is refused when it is built.  Both admit
#: every network of grade <= 3 at the default total-dimension limit N = 4096:
#: its N^3 index values make at most 10 N^3 = 6.9e11 FLOPs (five pairwise
#: steps of a grade-3 pure network), and no step keeps more than N^2 = 2^24.
MAX_PLAN_FLOPS = 10**12
MAX_PLAN_INTERMEDIATE = 2**24

def _einsum_string(terms: Sequence[Sequence[int]], out: Sequence[int], names) -> str:
    return "->".join([",".join("".join(names[i] for i in t) for t in terms),
                      "".join(names[i] for i in out)])


def _unique(term: Sequence[int], needed) -> tuple[int, ...]:
    """The ids of term in order of first appearance, keeping those in needed."""
    return tuple(i for i in dict.fromkeys(term) if i in needed)


def _pair(x: Sequence[int], y: Sequence[int], later, size, names) -> tuple[tuple, tuple[int, ...]]:
    """A pairwise program entry after its two registers, and the ids of its
    result in (batch, left, right) order; the stack id, a batch id named
    "...", takes its size from the operands (-1 in every reshape)."""
    x1 = _unique(x, set(y) | later)
    y1 = _unique(y, set(x) | later)
    batch = [i for i in x1 if i in y1 and i in later]
    shared = [i for i in x1 if i in y1 and i not in later]
    left = [i for i in x1 if i not in y1]
    right = [i for i in y1 if i not in x1]
    args = []
    for term, kept, order in ((x, x1, batch + left + shared), (y, y1, batch + shared + right)):
        if kept != tuple(term):
            args += [_einsum_string([term], order, names), None]
        else:
            args += [None, _axes(term, order)]
    nl, ns, nr = (math.prod(size[i] for i in g) for g in (left, shared, right))
    lead = (-1,) if batch else ()
    result = tuple(batch + left + right)
    shape = tuple(-1 if names[i] == "..." else size[i] for i in result)
    return (*args, lead + (nl, ns), lead + (ns, nr), shape), result


def _axes(term: Sequence[int], order: Sequence[int]) -> tuple[int, ...] | None:
    """Transpose axes taking term to order; None when nothing moves."""
    axes = tuple(term.index(i) for i in order)
    return None if axes == tuple(range(len(axes))) else axes


class Plan:
    """A compiled contraction; call it with operands of the planned shapes,
    the stack axis (if any) at any size, the same on every operand.

    Its steps are one flat program.  Registers hold the operands, then each
    step's result in turn; every register is read by exactly one step.  A
    pairwise entry is ``(x, y, sum_x, axes_x, sum_y, axes_y, shape_x,
    shape_y, shape_out)``: registers x and y, each summed by the einsum
    subscripts ``sum_*`` or transposed by ``axes_*`` (or neither), reshaped
    and multiplied.  Any other entry is ``(registers, None, subscripts)``
    padded with None: one einsum over them."""

    __slots__ = ("terms", "out", "shapes", "path", "flops", "largest_intermediate",
                 "program", "_final_axes")

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
        # the stack id counts at size 1, whatever its keyed size, and is
        # written as einsum's ellipsis, which takes none of the letters
        stack = next((i for i in out if all(t.count(i) == 1 for t in terms)), None)
        letters = [i for i in size if i != stack]
        if len(letters) > MAX_AXIS_IDS:
            raise ResourceLimitError(
                f"contraction needs {len(letters)} axis ids; einsum allows {MAX_AXIS_IDS}"
            )
        names = dict(zip(letters, _LETTERS))
        if stack is not None:
            names[stack], size[stack] = "...", 1
        self.terms, self.out, self.shapes = terms, out, shapes

        # numpy's path for the network without its stack id, which numpy
        # also picks with the stack at any size
        bare = [[i for i in t if i != stack] for t in terms]
        ops = [np.broadcast_to(0j, [size[i] for i in t]) for t in bare]
        subscripts = _einsum_string(bare, [i for i in out if i != stack], names)
        self.path = tuple(np.einsum_path(subscripts, *ops, optimize="greedy")[0][1:])

        current = list(enumerate(terms))  # (register, ids) of each live tensor
        program = []
        self.flops = 0
        self.largest_intermediate = 0
        for n_step, entry in enumerate(self.path):
            popped = [current.pop(i) for i in sorted(entry, reverse=True)]
            registers = tuple(r for r, _ in popped)
            inputs = [t for _, t in popped]
            later = set(out).union(*(t for _, t in current))
            involved = set().union(*inputs)
            if len(inputs) == 2:
                step, result = _pair(inputs[0], inputs[1], later, size, names)
                program.append(registers + step)
            else:
                last = n_step == len(self.path) - 1
                result = tuple(out) if last else _unique(
                    [i for t in inputs for i in t], later)
                program.append((registers, None, _einsum_string(inputs, result, names))
                               + (None,) * 6)
            inner = not involved <= set(result)
            self.flops += math.prod(size[i] for i in involved) * (max(1, len(inputs) - 1) + inner)
            self.largest_intermediate = max(
                self.largest_intermediate, math.prod(size[i] for i in result))
            current.append((len(terms) + n_step, result))
        if self.flops > MAX_PLAN_FLOPS or self.largest_intermediate > MAX_PLAN_INTERMEDIATE:
            raise ResourceLimitError(
                f"contraction costs {self.flops:.3g} FLOPs with a largest intermediate of "
                f"{self.largest_intermediate} entries per stacked contraction; the guard allows "
                f"{MAX_PLAN_FLOPS:.0e} FLOPs and {MAX_PLAN_INTERMEDIATE} entries"
            )
        self.program = tuple(program)
        self._final_axes = _axes(current[0][1], out)

    def __call__(self, *operands: np.ndarray) -> np.ndarray:
        regs = list(operands)
        for x, y, sum_x, axes_x, sum_y, axes_y, shape_x, shape_y, shape_out in self.program:
            if y is None:  # one einsum over the registers in x
                ops = [regs[i] for i in x]
                for i in x:
                    regs[i] = None
                regs.append(c_einsum(sum_x, *ops))
                continue
            a, b = regs[x], regs[y]
            regs[x] = regs[y] = None  # each register is read once: free it
            if sum_x is not None:
                a = c_einsum(sum_x, a)
            elif axes_x is not None:
                a = a.transpose(axes_x)
            if sum_y is not None:
                b = c_einsum(sum_y, b)
            elif axes_y is not None:
                b = b.transpose(axes_y)
            regs.append(np.matmul(a.reshape(shape_x), b.reshape(shape_y)).reshape(shape_out))
        result = regs[-1]
        return result if self._final_axes is None else result.transpose(self._final_axes)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def compile_plan(
    terms: tuple[tuple[int, ...], ...],
    out: tuple[int, ...],
    shapes: tuple[tuple[int, ...], ...],
) -> Plan:
    """The cached plan for integer subscripts (ids renumbered from 0); key
    the stack id at size 1 to share one plan among all stack sizes."""
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
