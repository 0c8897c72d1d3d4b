"""The package's records against the dataclasses they replace: the same
equality, order, hash, repr and constructor, immutability, and copy and
pickle round trips."""

import copy
import dataclasses
import operator
import pickle

import numpy as np
import pytest

import luinv
from luinv import perms as P

T, S = P.perm_from_name("t", 3), P.perm_from_name("s", 3)
LAB_A = P.canonical_form(P.perm_tuple(3, "e", "t"))
LAB_B = P.canonical_form(P.perm_tuple(3, "t", "s"))

#: Per value record: (dataclass options it had, two argument tuples of
#: different value, in increasing order where the record is ordered).
VALUES = {
    "Perm": ({"order": True}, ((1, 3, 2),), ((2, 1, 3),)),
    "PermTuple": ({"order": True}, (3, (T, S)), (3, (S, T))),
    "OrbitLabel": ({"order": True}, (LAB_A.rep,), (LAB_B.rep,)),
    "SimClass": ({}, (LAB_A, (LAB_A,)), (LAB_B, (LAB_A, LAB_B))),
    "FormulaDescriptor": ({}, (LAB_A, "mixed", "Tr( rho )"), (LAB_B, "mixed", "Tr( rho )")),
}
#: Records whose repr is their own, not the field listing.
OWN_REPR = {"Perm", "PermTuple", "OrbitLabel"}
COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge)


def fields(cls):
    return cls.__match_args__


def reference(name):
    """The frozen dataclass the record was, with the same fields."""
    options, *_ = VALUES[name]
    cls = getattr(luinv, name)
    return dataclasses.make_dataclass(name, fields(cls), frozen=True, **options)


@pytest.mark.parametrize("name", sorted(VALUES))
class TestValues:
    def instances(self, name):
        cls, (_, a, b) = getattr(luinv, name), VALUES[name]
        return cls, cls(*a), cls(*a), cls(*b)

    def test_hash_is_the_field_tuple_hash(self, name):
        cls, x, same, _ = self.instances(name)
        values = tuple(getattr(x, f) for f in fields(cls))
        assert hash(x) == hash(values) == hash(reference(name)(*values)) == hash(same)
        assert hash(x) == hash(x)  # the kept hash

    def test_equality_and_order_as_the_dataclass(self, name):
        cls, x, same, other = self.instances(name)
        ref = reference(name)
        rx, rother = (ref(*(getattr(v, f) for f in fields(cls))) for v in (x, other))
        assert x == same and x is not same and not x != same
        assert x != other and (x == other) == (rx == rother)
        for op in COMPARISONS:
            if VALUES[name][0]:
                assert op(x, other) == op(rx, rother)
                assert op(other, x) == op(rother, rx)
                assert op(x, same) == op(rx, rx)
            else:
                with pytest.raises(TypeError):
                    op(x, other)

    def test_other_classes_are_not_implemented(self, name):
        cls, x, _, _ = self.instances(name)
        for other in (tuple(getattr(x, f) for f in fields(cls)), object(), LAB_A.rep.perms[1]):
            if other.__class__ is cls:
                continue
            assert x.__eq__(other) is NotImplemented and x != other
            for op in ("__lt__", "__le__", "__gt__", "__ge__"):
                assert getattr(x, op)(other) is NotImplemented
                with pytest.raises(TypeError):
                    getattr(operator, op.strip("_"))(x, other)

    def test_keyword_construction(self, name):
        cls, x, _, _ = self.instances(name)
        assert cls(**{f: getattr(x, f) for f in fields(cls)}) == x

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        cls, x, _, _ = self.instances(name)
        for f in fields(cls) + ("other",):
            with pytest.raises(AttributeError):
                setattr(x, f, None)
            with pytest.raises(AttributeError):
                delattr(x, f)
        assert not hasattr(x, "__dict__")

    def test_repr(self, name):
        cls, x, _, _ = self.instances(name)
        if name not in OWN_REPR:
            values = (getattr(x, f) for f in fields(cls))
            assert repr(x) == repr(reference(name)(*values))

    def test_copy_and_pickle(self, name):
        cls, x, _, _ = self.instances(name)
        hash(x)
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x)),
                     pickle.loads(pickle.dumps(x, protocol=0))):
            assert type(twin) is cls and twin == x and hash(twin) == hash(x)


def test_checks_run_on_keyword_construction():
    with pytest.raises(ValueError, match="anchor must be one of the members"):
        luinv.SimClass(anchor=LAB_B, members=(LAB_A,))
    with pytest.raises(ValueError, match="not canonical"):
        luinv.OrbitLabel(rep=P.perm_tuple(3, "t", "e"))


class TestStates:
    def states(self):
        psi = luinv.PureState((2,), np.array([1.0, 0.0]))
        rho = luinv.DensityMatrix(dims=(2,), entries=np.eye(2))
        return psi, rho

    def test_compared_by_identity(self):
        for x in self.states():
            twin = type(x)(*(getattr(x, f) for f in type(x).__match_args__))
            assert x == x and x != twin and not x == twin
            assert hash(x) == object.__hash__(x) and hash(twin) != hash(x)
            with pytest.raises(TypeError):
                x < twin

    def test_immutable_and_copied_with_their_arrays(self):
        for x in self.states():
            name = type(x).__match_args__[1]
            with pytest.raises(AttributeError):
                x.dims = (3,)
            for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
                assert type(twin) is type(x) and twin != x and twin.dims == x.dims
                assert np.array_equal(getattr(twin, name), getattr(x, name))

    def test_repr_lists_the_fields(self):
        psi, _ = self.states()
        assert repr(psi) == f"PureState(dims=(2,), amplitudes={psi.amplitudes!r})"


class TestVerifyReport:
    ARGS = ("lu", {"dims": [2, 2]}, 1e-10, 0.0, True)

    def test_mutable_unhashable_and_equal_by_fields(self):
        rep = luinv.VerifyReport(*self.ARGS)
        assert rep.details == {} and rep.witness is None
        assert rep.details is not luinv.VerifyReport(*self.ARGS).details
        assert rep == luinv.VerifyReport(*self.ARGS, details={}, witness=None)
        rep.passed = False
        assert rep != luinv.VerifyReport(*self.ARGS)
        with pytest.raises(TypeError):
            hash(rep)
        with pytest.raises(AttributeError):
            rep.other = 1

    def test_to_dict_keeps_the_field_order(self):
        rep = luinv.VerifyReport(*self.ARGS, details={"n": 1})
        assert list(rep.to_dict()) == ["check", "params", "tolerance", "max_residual",
                                       "passed", "details", "witness", "schema_version"]
        assert rep.to_dict()["details"] is rep.details

    def test_repr_and_copies(self):
        rep = luinv.VerifyReport(*self.ARGS)
        ref = dataclasses.make_dataclass("VerifyReport", luinv.VerifyReport.__match_args__)
        assert repr(rep) == repr(ref(*self.ARGS, {}, None))
        for twin in (copy.copy(rep), copy.deepcopy(rep), pickle.loads(pickle.dumps(rep))):
            assert twin == rep
