"""Exact values of every label of grades 1-3 on GHZ states.

For |GHZ> = sum_i |i...i>/sqrt(d) on k qudits of dimension d, each copy of
the state in a label's network carries one index value on all of its
subsystems, so a network's sum counts the index values that are constant
on orbits:

- a pure label sigma of grade m has the value d^(#orbits - m), over the
  orbits of the group generated by its entries;
- a mixed label on |GHZ><GHZ| has the value d^(#orbits - m), over the
  orbits of the group generated by sigma_j o sigma_1^-1.

The references are integer Python on the label algebra and contract
nothing, so they check the engines at dims the loop oracle does not admit:
(32, 32) has N = 1024.
"""

from fractions import Fraction

import numpy as np
import pytest

from conftest import relerr
from luinv import closedform as F
from luinv import contract as C
from luinv import perms as P
from luinv import states as S

DIMS = [(2, 2, 2), (3, 3, 3), (4, 4, 4), (2, 2, 2, 2), (32, 32)]
GRADES = (1, 2, 3)
TOL = 1e-12


def ghz(dims) -> S.PureState:
    d = dims[0]
    amp = np.zeros(dims, dtype=complex)
    amp[(np.arange(d),) * len(dims)] = 1 / np.sqrt(d)
    return S.PureState(dims, amp)


def pure_value(sigma: P.PermTuple, d: int) -> Fraction:
    return Fraction(d) ** (len(P.orbit_partition(sigma)) - sigma.m)


def mixed_value(sigma: P.PermTuple, d: int) -> Fraction:
    first = sigma.perms[0].inverse()
    quotients = tuple(P.compose(p, first) for p in sigma.perms)
    return pure_value(P.PermTuple(sigma.m, quotients), d)


def test_the_references_on_known_values():
    # the Kempe invariant s,s2 is 2 on the three-qubit GHZ state of norm^2 2
    # (tests/test_contract.py), so 2 / 2^3 on the unit one
    assert pure_value(P.perm_tuple(3, "s", "s2"), 2) == Fraction(1, 4)
    # t on subsystem 1 alone is the purity of its reduction I/2
    assert mixed_value(P.perm_tuple(2, "t", "e", "e"), 2) == Fraction(1, 2)
    # the identity labels are the norm and the trace, 1
    assert pure_value(P.perm_tuple(3, "e", "e"), 5) == 1
    assert mixed_value(P.perm_tuple(3, "s", "s", "s"), 5) == 1


@pytest.mark.parametrize("kind", ["pure", "mixed"])
@pytest.mark.parametrize("dims", DIMS, ids=str)
def test_every_label_of_grades_one_to_three(dims, kind):
    psi = ghz(dims)
    state = psi if kind == "pure" else S.projector(psi)
    data = psi.amplitudes if kind == "pure" else state.entries
    one = C.eval_pure if kind == "pure" else C.eval_mixed
    batch = C.eval_pure_batch if kind == "pure" else C.eval_mixed_batch
    reference = pure_value if kind == "pure" else mixed_value
    for m in GRADES:
        for lab in P.enumerate_orbits(m, P._arity(kind, len(dims))):
            want = float(reference(lab.rep, dims[0]))
            got = [one(lab.rep, state), F.closed_form(lab.rep, kind, state),
                   *batch(lab.rep, dims, data[None])]
            assert max(relerr(v, want) for v in got) < TOL, (lab, got, want)
