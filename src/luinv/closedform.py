"""Index-free evaluators for grades 1-3.

Everything here is built from five matrix operations only: partial trace,
partial transpose, identity padding, matrix product, and trace.  They run
on stacks: ``closed_form_batch`` evaluates one label's formula once over n
states of equal dims, and ``closed_form`` and the per-grade entry points are
its batch of one.

Grade 1: the full trace.

Grade 2 (entries in {e, t}): Tr (Tr_{E} rho)^2 where E = {j | sigma_j = e};
for pure states E additionally contains the singled-out last subsystem, and
the complementary writing Tr (Tr_{j | sigma_j = t} pi)^2 is computed as well
and asserted equal.

Grade 3 (entries in S_3): the trace of an ordered product of three factors,

    Tr  F(swap fixing 1) . F(swap fixing 2) . F(swap fixing 3),

    F(tau) = I_{A_tau} (x) Tr_{A_tau + A_e} ( rho^{T_{A_s2}} ),

with A_g = {j | sigma_j = g}.  In this package's naming the factor order
reads (ts, ts2, t): ts = [1,3,2] fixes 1, ts2 = [3,2,1] fixes 2, t = [2,1,3]
fixes 3.  The order matters (up to cyclic rotation) exactly when some entry
lies in the 3-cycle class; tests pin it against the contraction oracle.

Formula descriptors render these evaluators as strings in a small grammar:

    formula  := "Tr( " product " )"
    product  := factor (" * " factor)*
    factor   := atom ("^" INT)?                    # repeated matrix product
    atom     := operand | "(" operand (" (x) " operand)* ")"
    operand  := "rho" | "pi"
              | "I[" ints "]"                      # identity on listed subsystems
              | "pt[" ints "](" operand ")"        # reduce TO the listed subsystems
              | "tp[" ints "](" operand ")"        # partial transpose on them
    ints     := INT ("," INT)* | ""

Operands carry their subsystem lists, so "(x)" assembles factors onto their
slots regardless of textual order; pt[] (empty keep list) is the full trace,
a scalar.  ``parse_formula`` evaluates this grammar directly, giving an
independent check of each descriptor's text.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from ._einsum import PLAN_CACHE_SIZE
from .contract import _stack_dims
from .errors import VerificationError
from .perms import Label, OrbitLabel, PermTuple, as_tuple, canonical_form, identity, sim_decompose
from .states import (
    DensityMatrix,
    PureState,
    _pad_stack,
    _projector_stack,
    _trace_stack,
    _transpose_stack,
    partial_trace,
    partial_transpose,
    projector,
    tensor_group,
)

_TS_IMAGES = (1, 3, 2)   # swap fixing 1
_TS2_IMAGES = (3, 2, 1)  # swap fixing 2
_T_IMAGES = (2, 1, 3)    # swap fixing 3
_S2_IMAGES = (3, 1, 2)
_FACTOR_ORDER = (_TS_IMAGES, _TS2_IMAGES, _T_IMAGES)


def _of_grade(sigma: Label, m: int) -> Label:
    if as_tuple(sigma).m != m:
        raise ValueError(f"not an m={m} label")
    return sigma


def _norm_label(r: int) -> PermTuple:
    return PermTuple(1, (identity(1),) * r)


def mixed_m1(rho: DensityMatrix) -> complex:
    return closed_form(_norm_label(rho.k), "mixed", rho)


def pure_m1(psi: PureState) -> complex:
    return closed_form(_norm_label(psi.k - 1), "pure", psi)


def mixed_m2(sigma: Label, rho: DensityMatrix) -> complex:
    """Tr (Tr_{j | sigma_j = e} rho)^2."""
    return closed_form(_of_grade(sigma, 2), "mixed", rho)


def pure_m2(sigma: Label, psi: PureState, rtol: float = 1e-10) -> complex:
    """Both writings, asserted equal: trace out the last subsystem together
    with the e-slots, or trace out the t-slots."""
    return complex(closed_form_batch(_of_grade(sigma, 2), "pure", [psi], rtol)[0])


def mixed_m3(sigma: Label, rho: DensityMatrix) -> complex:
    """Trace of the ordered three-factor product described in the module
    docstring; entries may be any elements of S_3."""
    return closed_form(_of_grade(sigma, 3), "mixed", rho)


def pure_m3(sigma: Label, psi: PureState) -> complex:
    """Grade-3 pure formula: the mixed formula applied to |psi><psi| with the
    identity appended for the singled-out last subsystem (whose indices are
    contracted inside each psi-conj(psi) pair)."""
    return closed_form(_of_grade(sigma, 3), "pure", psi)


def closed_form(sigma: Label, kind: str, state) -> complex:
    """The grade-1/2/3 closed form of one label on one state: the batch of
    one of closed_form_batch."""
    return complex(closed_form_batch(sigma, kind, [state])[0])


def closed_form_batch(sigma: Label, kind: str, states: Sequence,
                      rtol: float = 1e-10) -> np.ndarray:
    """The closed form of one label on each of a non-empty stack of states
    with equal dims, as a complex array of shape (n,): the label's formula
    runs once over the stack.  For pure grade-2 labels the two writings are
    asserted equal to rtol on every state.

    An empty stack, mixed dims or a wrong label arity raise ValueError, as
    in contract.eval_mixed_batch / eval_pure_batch.
    """
    sigma = as_tuple(sigma)
    if kind not in ("pure", "mixed"):
        raise ValueError(f"kind must be 'pure' or 'mixed', got {kind!r}")
    cls = PureState if kind == "pure" else DensityMatrix
    if not all(isinstance(state, cls) for state in states):
        raise TypeError(f"{kind} labels take a {cls.__name__}")
    if not 1 <= sigma.m <= 3:
        raise ValueError(f"no closed form for grade {sigma.m} (only m <= 3)")
    dims = _stack_dims(states, sigma.r, kind == "pure")
    if kind == "mixed":
        rhos = np.stack([rho.entries for rho in states])
        if sigma.m == 1:
            return np.trace(rhos, axis1=1, axis2=2)
        if sigma.m == 2:
            return _square_trace(_trace_stack(rhos, dims, _m2_sets(sigma)[0])[0])
        return _m3_trace(sigma, dims, rhos)
    amps = np.stack([psi.amplitudes for psi in states])
    if sigma.m == 1:
        flat = amps.reshape(len(amps), -1)
        return np.einsum("ni,ni->n", flat.conj(), flat)
    pis = _projector_stack(amps)
    if sigma.m == 3:
        return _m3_trace(sigma.embed(), dims, pis)
    e_set, t_set = _m2_sets(sigma)
    va = _square_trace(_trace_stack(pis, dims, e_set | {len(dims)})[0])
    vb = _square_trace(_trace_stack(pis, dims, t_set)[0])
    scale = np.maximum(np.maximum(np.abs(va), np.abs(vb)), 1e-300)
    bad = np.flatnonzero(np.abs(va - vb) > rtol * scale)
    if bad.size:
        i = bad[0]
        raise VerificationError(
            f"the two grade-2 writings disagree: {complex(va[i])} vs {complex(vb[i])}")
    return va


def _square_trace(x: np.ndarray) -> np.ndarray:
    return np.trace(x @ x, axis1=1, axis2=2)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _m2_sets(sigma: PermTuple) -> tuple[frozenset, frozenset]:
    """The slots holding e and those holding t."""
    if sigma.m != 2:
        raise ValueError("not an m=2 label")
    e = frozenset(j for j, p in enumerate(sigma.perms, start=1) if p.is_identity())
    return e, frozenset(range(1, sigma.r + 1)) - e


def _m3_sets(sigma: PermTuple) -> dict[tuple[int, ...], list[int]]:
    if sigma.m != 3:
        raise ValueError("not an m=3 label")
    sets: dict[tuple[int, ...], list[int]] = {}
    for j, p in enumerate(sigma.perms, start=1):
        sets.setdefault(p.images, []).append(j)
    return sets


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _m3_layout(sigma: PermTuple, dims: tuple[int, ...]):
    """The grade-3 formula of a mixed-type label on dims, prepared once: the
    partially transposed slots, the dims of the live space (the complement
    of the e-slots) and, per factor in order, the slots traced out and the
    identity and operator slots of its padding within the live space."""
    sets = _m3_sets(sigma)
    e_set = sets.get(identity(3).images, [])
    live = [j for j in range(1, len(dims) + 1) if j not in e_set]
    live_dims = tuple(dims[j - 1] for j in live) or (1,)
    pos = {j: i + 1 for i, j in enumerate(live)}  # positions within the live space
    factors = []
    for tau in _FACTOR_ORDER:
        a_tau = sets.get(tau, [])
        ids = tuple(pos[j] for j in a_tau)
        rest = tuple(p for p in range(1, len(live) + 1) if p not in ids)
        factors.append((frozenset(a_tau + e_set), ids, rest))
    return tuple(sets.get(_S2_IMAGES, [])), live_dims, tuple(factors)


def _m3_factors(sigma: PermTuple, dims: tuple[int, ...], stack: np.ndarray) -> list[np.ndarray]:
    """The three ordered operator factors of the grade-3 formula on a stack
    of operators (n, N, N), as stacks on the live space."""
    transposed, live_dims, layout = _m3_layout(sigma, dims)
    core = _transpose_stack(stack, dims, transposed)
    factors = []
    for traced, ids, rest in layout:
        red = _trace_stack(core, dims, traced)[0]
        factors.append(_pad_stack(red, ids, rest, live_dims) if ids else red)
    return factors


def _m3_trace(sigma: PermTuple, dims: tuple[int, ...], stack: np.ndarray) -> np.ndarray:
    f1, f2, f3 = _m3_factors(sigma, dims, stack)
    return np.trace(f1 @ f2 @ f3, axis1=1, axis2=2)


# -- formula descriptors -------------------------------------------------------


def _ints(js) -> str:
    return ",".join(str(j) for j in js)


def _operand_text(arg: str, keep: list[int], tp_set: list[int], k: int) -> str:
    text = arg
    if tp_set:
        text = f"tp[{_ints(tp_set)}]({text})"
    if len(keep) < k:
        text = f"pt[{_ints(keep)}]({text})"
    return text


def _m3_factor_texts(sigma: PermTuple, arg: str) -> list[str]:
    sets = _m3_sets(sigma)
    k = sigma.r
    e_set = sets.get(identity(3).images, [])
    s2_set = sets.get(_S2_IMAGES, [])
    texts = []
    for tau in _FACTOR_ORDER:
        a_tau = sets.get(tau, [])
        keep = [j for j in range(1, k + 1) if j not in a_tau and j not in e_set]
        base = _operand_text(arg, keep, s2_set, k)
        if a_tau:
            parts = sorted([(a_tau[0], f"I[{_ints(a_tau)}]"), (keep[0] if keep else 0, base)])
            texts.append("(" + " (x) ".join(p[1] for p in parts) + ")")
        else:
            texts.append(base)
    return texts


def _merge_powers(parts: list[str]) -> str:
    merged: list[tuple[str, int]] = []
    for p in parts:
        if merged and merged[-1][0] == p:
            merged[-1] = (p, merged[-1][1] + 1)
        else:
            merged.append((p, 1))
    return " * ".join(p if n == 1 else f"{p}^{n}" for p, n in merged)


def formula_text(sigma: Label, kind: str) -> str:
    """Render the closed form of a mixed-type label (r = k entries) as text.
    kind selects the argument symbol: "mixed" -> rho, "pure" -> pi (the label
    is then one conjugation class of an embedded pure label)."""
    sigma = as_tuple(sigma)
    arg = "rho" if kind == "mixed" else "pi"
    k = sigma.r
    if sigma.m == 1:
        return f"Tr( {arg} )"
    if sigma.m == 2:
        e_set, _ = _m2_sets(sigma)
        keep = [j for j in range(1, k + 1) if j not in e_set]
        return f"Tr( {_operand_text(arg, keep, [], k)}^2 )"
    if sigma.m == 3:
        return f"Tr( {_merge_powers(_m3_factor_texts(sigma, arg))} )"
    raise ValueError(f"no closed form for grade {sigma.m}")


@dataclass(frozen=True)
class FormulaDescriptor:
    """One closed-form writing of an invariant: a mixed-type label together
    with its rendered formula.  For kind="pure" the label is a member of the
    two-sided class of an embedded pure label and evaluates on |psi><psi|."""

    label: OrbitLabel
    kind: str
    text: str

    def evaluate(self, state) -> complex:
        rho = projector(state) if self.kind == "pure" else state
        return closed_form(self.label, "mixed", rho)

    def evaluate_text(self, state) -> complex:
        """Independent evaluation by parsing self.text."""
        rho = projector(state) if self.kind == "pure" else state
        return parse_formula(self.text)(rho)


def alternate_writings(sigma: Label, kind: str) -> list[FormulaDescriptor]:
    """All closed-form writings of one invariant.

    For a pure label (r = k-1) this is one descriptor per conjugation class
    of its two-sided class; every one evaluates to the same number on any
    pure state.  For a mixed label there is a single descriptor.
    """
    sigma = as_tuple(sigma)
    if sigma.m > 3:
        raise ValueError(f"no closed form for grade {sigma.m}")
    if kind == "mixed":
        lab = canonical_form(sigma)
        return [FormulaDescriptor(lab, "mixed", formula_text(lab.rep, "mixed"))]
    if kind != "pure":
        raise ValueError(f"kind must be 'pure' or 'mixed', got {kind!r}")
    split = sim_decompose(sigma)
    return [
        FormulaDescriptor(member, "pure", formula_text(member.rep, "pure"))
        for member in split.members
    ]


# -- formula parser ------------------------------------------------------------


_TOKEN = re.compile(r"Tr\(|\(x\)|\^|\*|\(|\)|pt\[[\d,]*\]\(|tp\[[\d,]*\]\(|I\[[\d,]*\]|rho|pi|\d+")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    stripped = text.replace(" ", "")
    while pos < len(stripped):
        mo = _TOKEN.match(stripped, pos)
        if not mo:
            raise ValueError(f"cannot tokenize formula at ...{stripped[pos:pos+12]!r}")
        tokens.append(mo.group())
        pos = mo.end()
    return tokens


def parse_formula(text: str) -> Callable[[DensityMatrix], complex]:
    """Parse the descriptor grammar; returns an evaluator taking the operator
    argument (a DensityMatrix; pass a projector for pure-state formulas).

    Each operand evaluates to a matrix on a support (a sorted subsystem
    subset): "rho"/"pi" and tp[..] have full support, pt[J] has support J,
    pt[] is a scalar, I[J] has support J.  A tensor group assembles disjoint
    supports; all factors of the product must end up on a common support.
    """
    tokens = _tokenize(text)

    def parse_operand(i):
        tok = tokens[i]
        if tok in ("rho", "pi"):
            return ("arg",), i + 1
        if tok.startswith("I["):
            subs = tuple(int(x) for x in tok[2:-1].split(",") if x)
            return ("id", subs), i + 1
        if tok.startswith(("pt[", "tp[")):
            subs = tuple(int(x) for x in tok[3:-2].split(",") if x)
            inner, i = parse_operand(i + 1)
            if tokens[i] != ")":
                raise ValueError("expected ')' closing pt/tp")
            return (tok[:2], subs, inner), i + 1
        raise ValueError(f"unexpected token {tok!r}")

    def parse_atom(i):
        if tokens[i] == "(":
            parts = []
            node, i = parse_operand(i + 1)
            parts.append(node)
            while tokens[i] == "(x)":
                node, i = parse_operand(i + 1)
                parts.append(node)
            if tokens[i] != ")":
                raise ValueError("expected ')' closing tensor group")
            return ("tensor", tuple(parts)), i + 1
        node, i = parse_operand(i)
        return ("tensor", (node,)), i

    def parse_factor(i):
        atom, i = parse_atom(i)
        power = 1
        if i < len(tokens) and tokens[i] == "^":
            power = int(tokens[i + 1])
            i += 2
        return (atom, power), i

    if not tokens or tokens[0] != "Tr(":
        raise ValueError("formula must start with 'Tr('")
    factors = []
    factor, i = parse_factor(1)
    factors.append(factor)
    while i < len(tokens) and tokens[i] == "*":
        factor, i = parse_factor(i + 1)
        factors.append(factor)
    if i != len(tokens) - 1 or tokens[i] != ")":
        raise ValueError("formula must end with ')'")

    def eval_operand(node, rho: DensityMatrix) -> tuple[DensityMatrix, tuple[int, ...]]:
        """Returns (operator, support); support () means a scalar 1x1."""
        if node[0] == "arg":
            return rho, tuple(range(1, rho.k + 1))
        if node[0] == "pt":
            inner, support = eval_operand(node[2], rho)
            if support != tuple(range(1, rho.k + 1)):
                raise ValueError("pt must wrap a full-support operand")
            traced = [j for j in range(1, rho.k + 1) if j not in node[1]]
            return partial_trace(inner, traced), node[1]
        if node[0] == "tp":
            inner, support = eval_operand(node[2], rho)
            if support != tuple(range(1, rho.k + 1)):
                raise ValueError("tp must wrap a full-support operand")
            return partial_transpose(inner, node[1]), support
        raise ValueError(f"bad operand node {node!r}")

    def eval_atom(node, rho: DensityMatrix) -> tuple[np.ndarray, tuple[int, ...]]:
        scalar = 1 + 0j
        pieces: list[tuple[DensityMatrix, tuple[int, ...]]] = []
        id_slots: list[int] = []
        for p in node[1]:
            if p[0] == "id":
                id_slots.extend(p[1])
            else:
                op, support = eval_operand(p, rho)
                if support:
                    pieces.append((op, support))
                else:
                    scalar *= complex(op.entries[0, 0])
        if not pieces:
            size = math.prod(rho.dims[j - 1] for j in id_slots)
            return scalar * np.eye(size, dtype=complex), tuple(sorted(id_slots))
        supports = tuple(sup for _, sup in pieces)
        stacks = [op.entries[None] for op, _ in pieces]
        mat = tensor_group(stacks, supports, tuple(id_slots), rho.dims)[0]
        return scalar * mat, tuple(sorted(id_slots + [j for sup in supports for j in sup]))

    def evaluate(rho: DensityMatrix) -> complex:
        prod = None
        prod_support = None
        for atom, power in factors:
            mat, support = eval_atom(atom, rho)
            mat = np.linalg.matrix_power(mat, power) if power > 1 else mat
            if prod is None:
                prod, prod_support = mat, support
            else:
                if support != prod_support:
                    raise ValueError(
                        f"factors on different supports: {prod_support} vs {support}"
                    )
                prod = prod @ mat
        return complex(np.trace(prod))

    return evaluate
