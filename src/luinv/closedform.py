"""Index-free evaluators for grades 1-3.

Every closed form is the formula text that ``formula_text`` renders,
compiled once per (syntax tree, dims) into a ``Program``: one contraction
network, run on a stack of operators by one ``_einsum`` plan call.
``closed_form_batch`` evaluates one label's formula once over a stack of n
states on one dims, an array; ``closed_form`` is its batch of one.

Grade 1: the full trace.

Grade 2 (entries in {e, t}): Tr (Tr_{E} rho)^2 where E = {j | sigma_j = e}.

Grade 3 (entries in S_3): the trace of an ordered product of three factors,

    Tr  F(swap fixing 1) . F(swap fixing 2) . F(swap fixing 3),

    F(tau) = I_{A_tau} (x) Tr_{A_tau + A_e} ( rho^{T_{A_s2}} ),

with A_g = {j | sigma_j = g}.  In this package's naming the factor order
reads (ts, ts2, t): ts = [1,3,2] fixes 1, ts2 = [3,2,1] fixes 2, t = [2,1,3]
fixes 3.  The order matters (up to cyclic rotation) exactly when some entry
lies in the 3-cycle class; tests pin it against the contraction oracle.

The formulas are written in a small grammar:

    formula  := "Tr( " product " )"
    product  := factor (" * " factor)*
    factor   := atom ("^" INT)?                    # repeated matrix product
    atom     := operand | "(" operand (" (x) " operand)* ")"
    operand  := "rho" | "pi"
              | "I[" ints "]"                      # identity on listed subsystems
              | "pt[" ints "](" operand ")"        # reduce TO the listed subsystems
              | "tp[" ints "](" operand ")"        # partial transpose on them
    ints     := INT ("," INT)* | ""                # distinct, in 1..k

Operands carry their subsystem lists, so "(x)" assembles disjoint operands
onto their slots regardless of textual order; pt[] is the full trace, a
scalar.  Exponents are at least 1.

A pure label's closed form is the program of its own tuple compiled for
dims[:-1], run on Tr_k |psi><psi|.  That is the formula of its embedded
label (sigma, e), whose slot k holds the identity: every factor traces
subsystem k and no text names it.

``parse_formula`` is the compiler's front end; ``Program`` turns a syntax
tree into the formula's contraction network, the paper's graph of it
(README, "Evaluation engines").
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import Callable, Sequence

import numpy as np

from ._einsum import MAX_AXIS_IDS, PLAN_CACHE_SIZE, plan
from ._record import Value, set_hash
from .contract import _checked
from .errors import ResourceLimitError
from .perms import (Label, OrbitLabel, PermTuple, _arity, as_tuple, canonical_form, identity,
                    sim_decompose)
from .states import DensityMatrix, _check_subsystems, _check_total, _state_data, projector

#: The public names, which ``luinv`` also exports
__all__ = [
    "FormulaDescriptor",
    "alternate_writings",
    "closed_form",
    "closed_form_batch",
    "formula_text",
    "parse_formula",
]

_TS_IMAGES = (1, 3, 2)   # swap fixing 1
_TS2_IMAGES = (3, 2, 1)  # swap fixing 2
_T_IMAGES = (2, 1, 3)    # swap fixing 3
_S2_IMAGES = (3, 1, 2)
_FACTOR_ORDER = (_TS_IMAGES, _TS2_IMAGES, _T_IMAGES)

#: Highest grade with a closed form: the formulas stop at degree six.
MAX_CLOSED_FORM_GRADE = 3


def has_closed_form(m: int) -> bool:
    """Whether the labels of grade m have a closed form (1 <= m <= 3)."""
    return 1 <= m <= MAX_CLOSED_FORM_GRADE


def closed_form(sigma: Label, kind: str, state) -> complex:
    """The grade-1/2/3 closed form of one label on one state: the batch of
    one of closed_form_batch."""
    return _closed(*_checked(sigma, kind, state)).item()


def closed_form_batch(sigma: Label, kind: str, dims: Sequence[int],
                      stack: np.ndarray) -> np.ndarray:
    """The closed form of one label on each of a non-empty stack of states
    on dims, as a complex array of shape (n,): the label's compiled formula
    runs once over the stack.  The stack holds amplitude tensors (n, *dims)
    for kind "pure", matrices (n, N, N) for "mixed"; a pure formula runs on
    the reductions Tr_k |psi><psi|.

    An empty stack, a wrong shape or a wrong label arity raise ValueError,
    as in contract.eval_mixed_batch / eval_pure_batch.
    """
    return _closed(*_checked(sigma, kind, stack, dims))


def _closed(sigma: PermTuple, kind: str, dims: tuple[int, ...], stack: np.ndarray) -> np.ndarray:
    """closed_form_batch on the arguments contract._checked returns."""
    _check_grade(sigma.m)
    if kind == "pure":  # the reductions Tr_k |psi><psi|, on dims[:-1]
        a = stack.reshape(len(stack), -1, dims[-1])
        stack, dims = a @ a.conj().swapaxes(1, 2), dims[:-1]
    return _program(sigma, dims)(stack)


def _check_grade(m: int) -> None:
    if not has_closed_form(m):
        raise ValueError(f"no closed form for grade {m} (only m <= 3)")


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _program(sigma: PermTuple, dims: tuple[int, ...]) -> "Program":
    """The compiled mixed formula of a label tuple on dims.  A pure label
    on dims runs it on dims[:-1], the subsystems left by Tr_k: that is its
    embedded label's formula, which traces subsystem k."""
    return _compiled(_parse(_render(sigma, "rho")), dims)


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
    sets: dict[tuple[int, ...], list[int]] = {}
    for j, p in enumerate(sigma.perms, start=1):
        sets.setdefault(p.images, []).append(j)
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
    runs = [(p, len(list(group))) for p, group in itertools.groupby(parts)]
    return " * ".join(p if n == 1 else f"{p}^{n}" for p, n in runs)


def formula_text(sigma: Label, kind: str) -> str:
    """Render the closed form of a mixed-type label (r = k entries) as text.
    kind selects the argument symbol: "mixed" -> rho, "pure" -> pi (the label
    is then one conjugation class of an embedded pure label)."""
    sigma = as_tuple(sigma)
    _check_grade(sigma.m)
    _arity(kind, 0)  # ValueError for a kind that is neither "pure" nor "mixed"
    return _render(sigma, "rho" if kind == "mixed" else "pi")


def _render(sigma: PermTuple, arg: str) -> str:
    k = sigma.r
    if sigma.m == 1:
        return f"Tr( {arg} )"
    if sigma.m == 2:
        keep = [j for j, p in enumerate(sigma.perms, start=1) if not p.is_identity()]
        return f"Tr( {_operand_text(arg, keep, [], k)}^2 )"
    return f"Tr( {_merge_powers(_m3_factor_texts(sigma, arg))} )"


class FormulaDescriptor(Value):
    """One closed-form writing of an invariant: a mixed-type label together
    with its rendered formula.  For kind="pure" the label is a member of the
    two-sided class of an embedded pure label and evaluates on |psi><psi|."""

    __slots__ = ("label", "kind", "text")

    def __init__(self, label: OrbitLabel, kind: str, text: str):
        set_hash(self, None)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "text", text)

    def evaluate_text(self, state) -> complex:
        """self.text run through parse_formula, on |psi><psi| for a pure
        writing: the program its label's closed form runs.  A state of the
        other class raises TypeError, one not on r subsystems ValueError."""
        if self.kind == "pure":
            # the class, then the guard, before the N x N projector is built
            _state_data("pure", state)
            _check_total(state.dims)
            state = projector(state)
        return _run_text(_parse(self.text), self.label, state)


def alternate_writings(sigma: Label, kind: str) -> list[FormulaDescriptor]:
    """All closed-form writings of one invariant.

    For a pure label (r = k-1) this is one descriptor per conjugation class
    of its two-sided class; every one evaluates to the same number on any
    pure state.  For a mixed label there is a single descriptor.  The
    writings are built once per (label tuple, kind); each call returns a new
    list of them.
    """
    sigma = as_tuple(sigma)
    _check_grade(sigma.m)
    _arity(kind, 0)  # ValueError for a kind that is neither "pure" nor "mixed"
    return list(_writings(sigma, kind))


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _writings(sigma: PermTuple, kind: str) -> tuple[FormulaDescriptor, ...]:
    if kind == "mixed":
        lab = canonical_form(sigma)
        return (FormulaDescriptor(lab, "mixed", _render(lab.rep, "rho")),)
    return tuple(
        FormulaDescriptor(member, "pure", _render(member.rep, "pi"))
        for member in sim_decompose(sigma).members
    )


# -- formula compiler ----------------------------------------------------------


_TOKEN = re.compile(r"Tr\(|\(x\)|\^|\*|\(|\)|pt\[[\d,]*\]\(|tp\[[\d,]*\]\(|I\[[\d,]*\]|rho|pi|\d+")


def _subsystem_list(ints: str) -> tuple[int, ...]:
    subs = tuple(int(x) for x in ints.split(",") if x)
    if len(set(subs)) != len(subs):
        raise ValueError(f"subsystem listed twice in [{ints}]")
    return subs


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _parse(text: str) -> tuple:
    """The syntax tree of a formula text: a tuple of (atom, power) factors,
    an atom being a tuple of operand nodes ("arg",), ("id", subs) or
    (op, subs, operand) with op "pt" or "tp"."""
    stripped = text.replace(" ", "")
    tokens = _TOKEN.findall(stripped)
    if "".join(tokens) != stripped:  # findall skipped what no token matches
        raise ValueError(f"cannot tokenize formula {text!r}")
    tokens.append("<end>")  # no rule reads past this sentinel

    def expect(i, want):
        if tokens[i] != want:
            raise ValueError(f"expected {want!r}, got {tokens[i]!r} in {text!r}")
        return i + 1

    def parse_operand(i):
        tok = tokens[i]
        if tok in ("rho", "pi"):
            return ("arg",), i + 1
        if tok.startswith("I["):
            return ("id", _subsystem_list(tok[2:-1])), i + 1
        if tok.startswith(("pt[", "tp[")):
            inner, i = parse_operand(i + 1)
            return (tok[:2], _subsystem_list(tok[3:-2]), inner), expect(i, ")")
        raise ValueError(f"unexpected token {tok!r} in {text!r}")

    def parse_factor(i):
        grouped = tokens[i] == "("
        node, i = parse_operand(i + grouped)
        parts = [node]
        while grouped and tokens[i] == "(x)":
            node, i = parse_operand(i + 1)
            parts.append(node)
        if grouped:
            i = expect(i, ")")
        if tokens[i] != "^":
            return (tuple(parts), 1), i
        if not tokens[i + 1].isdigit() or int(tokens[i + 1]) < 1:
            raise ValueError(f"exponent must be an integer >= 1, got {tokens[i + 1]!r}")
        return (tuple(parts), int(tokens[i + 1])), i + 2

    factor, i = parse_factor(expect(0, "Tr("))
    factors = [factor]
    while tokens[i] == "*":
        factor, i = parse_factor(i + 1)
        factors.append(factor)
    if expect(i, ")") != len(tokens) - 1:
        raise ValueError(f"text after the closing ')' in {text!r}")
    return tuple(factors)


def _copy(node, k: int) -> tuple[tuple, tuple[int, ...]]:
    """One copy of the argument under its pt/tp chain: the role of each axis
    of its (dims, dims) tensor (rows 1..k, then columns 1..k), and the
    copy's support.  A role is ("row", j) or ("col", j), the copy's row or
    column on subsystem j, or ("loop", j), a traced row/column pair."""
    chain = []
    while node[0] != "arg":
        if node[0] == "id":
            raise ValueError("pt and tp take rho, pi or another pt/tp")
        chain.append(node)
        node = node[2]
    roles = [("row", j) for j in range(1, k + 1)] + [("col", j) for j in range(1, k + 1)]
    kept = set(range(1, k + 1))
    for op, subs, _ in reversed(chain):
        missing = set(_check_subsystems(subs, k)) - kept
        if missing:
            raise ValueError(f"{op}[{_ints(subs)}] acts on traced subsystems {sorted(missing)}")
        if op == "tp":
            for j in subs:
                roles[j - 1], roles[k + j - 1] = roles[k + j - 1], roles[j - 1]
        else:
            for j in kept - set(subs):
                roles[j - 1] = roles[k + j - 1] = ("loop", j)
            kept &= set(subs)
    return tuple(roles), tuple(sorted(kept))


class Program:
    """A formula compiled for one dims into one contraction network.  Each
    copy of the argument is one operand, the (n, dims, dims) tensor of the
    stack, and the batch axis is the output.  Subsystem j's index runs
    through the copies that keep j in product order: each copy's column
    meets the next copy's row, and the last copy's column closes on the
    first copy's row.  Identities pass the index on; a support subsystem
    that no copy keeps is a free loop, a factor d_j of ``scale``.  The
    network has k axis ids per copy besides the stack id, which takes none
    of einsum's 52 letters.  It compiles one plan, whose stack axis is free:
    called on a stack (n, N, N) of operators on dims, of any size n, it
    returns the formula's values, shape (n,)."""

    def __init__(self, tree, dims: tuple[int, ...]):
        k = len(dims)
        n_copies = sum(power * sum(node[0] != "id" for node in parts) for parts, power in tree)
        if n_copies > MAX_AXIS_IDS:
            raise ResourceLimitError(f"a formula with {n_copies} copies of its argument needs "
                                     f"more than einsum's {MAX_AXIS_IDS} axis ids")
        self.dims = dims
        common = None  # the support every factor must share
        copies = []   # the roles of each copy's axes, in product order
        for parts, power in tree:
            ids, operands = [], []
            for node in parts:
                if node[0] == "id":
                    ids.extend(_check_subsystems(node[1], k))
                else:
                    operands.append(_copy(node, k))
            covered = ids + [j for _, support in operands for j in support]
            if len(set(covered)) != len(covered):
                raise ValueError(f"overlapping subsystems in tensor group: {sorted(covered)}")
            support = tuple(sorted(covered))
            if common is not None and support != common:
                raise ValueError(f"factors on different supports: {common} vs {support}")
            common = support
            if operands:  # a factor of identities alone passes every index on
                copies += [roles for roles, _ in operands] * power

        ring = {j: [c for c, roles in enumerate(copies) if ("row", j) in roles]
                for j in common}

        def axis(c, role):
            what, j = role
            if what == "loop":
                return role, c
            i = ring[j].index(c) + (what == "col")
            return j, i % len(ring[j])
        subscripts = [["n"] + [axis(c, role) for role in roles] for c, roles in enumerate(copies)]
        shapes = [(1,) + dims * 2] * len(subscripts)
        self.plan = plan(subscripts, ["n"], shapes) if subscripts else None
        self.scale = math.prod(dims[j - 1] for j, cs in ring.items() if not cs)

    def __call__(self, stack: np.ndarray) -> np.ndarray:
        if self.plan is None:
            return np.full(len(stack), self.scale, dtype=complex)
        values = self.plan(*[stack.reshape((-1,) + self.dims * 2)] * len(self.plan.terms))
        return values if self.scale == 1 else self.scale * values


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _compiled(tree: tuple, dims: tuple[int, ...]) -> Program:
    """The program of a syntax tree on dims: the "rho" and "pi" texts of one
    formula parse to one tree and share it."""
    return Program(tree, dims)


def parse_formula(text: str) -> Callable[[DensityMatrix], complex]:
    """The compiler's front end: parse the descriptor grammar (ValueError
    for malformed text) and return an evaluator of the operator argument (a
    DensityMatrix; pass a projector for pure-state formulas).  It runs the
    program compiled once per (syntax tree, dims), whose building checks the
    subsystem indices and supports against the checked dims."""
    tree = _parse(text)
    return lambda rho: _run_text(tree, None, rho)


def _run_text(tree: tuple, label: Label | None, rho: DensityMatrix) -> complex:
    """A parsed formula, with its mixed label if any, on a checked operator."""
    _, _, dims, stack = _checked(label, "mixed", rho)
    return _compiled(tree, dims)(stack).item()
