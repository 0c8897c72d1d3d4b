import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import relerr, unit_density, unit_pure
from luinv import contract as C
from luinv import perms as P
from luinv import states as S
from luinv.errors import ResourceLimitError
from luinv.graphs import build_graph, connected_components


def ghz():
    amp = np.zeros((2, 2, 2), dtype=complex)
    amp[0, 0, 0] = amp[1, 1, 1] = 1
    return S.PureState((2, 2, 2), amp)


def bell():
    return S.PureState((2, 2), np.array([[1, 0], [0, 1]], dtype=complex))


class TestPureExamples:
    def test_grade_one_is_norm_squared(self):
        for dims, seed in [((2,), 0), ((2, 3), 1), ((2, 2, 2), 2)]:
            psi = S.random_pure(dims, seed)
            lab = P.PermTuple(1, (P.identity(1),) * (len(dims) - 1))
            assert relerr(C.eval_pure(lab, psi), psi.norm() ** 2) < 1e-12

    def test_bell_swap(self):
        assert relerr(C.eval_pure(P.perm_tuple(2, "t"), bell()), 2.0) < 1e-14

    def test_ghz_kempe(self):
        lab = P.perm_tuple(3, "s", "s2")
        assert relerr(C.eval_pure(lab, ghz()), 2.0) < 1e-14
        assert relerr(C.eval_pure(lab, ghz(), method="loop"), 2.0) < 1e-14

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            C.eval_pure(P.perm_tuple(2, "t"), ghz())


class TestMixedExamples:
    def test_grade_one_is_trace(self):
        rho = S.random_density((2, 3), seed=3)
        lab = P.PermTuple(1, (P.identity(1),) * 2)
        assert relerr(C.eval_mixed(lab, rho), rho.trace()) < 1e-12

    def test_diagonal_swap(self):
        rho = S.DensityMatrix((2,), np.diag([2.0, 3.0]).astype(complex))
        assert relerr(C.eval_mixed(P.perm_tuple(2, "t"), rho), 13.0) < 1e-14

    def test_qubit_determinant(self):
        for seed in range(10):
            rho = S.random_hermitian((2,), seed=seed)
            fe = C.eval_mixed(P.perm_tuple(2, "e"), rho)
            ft = C.eval_mixed(P.perm_tuple(2, "t"), rho)
            det = np.linalg.det(rho.entries)
            assert abs(fe - ft - 2 * det) < 1e-12


class TestStrategiesAgree:
    @pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (2, 3)])
    def test_mixed_all_labels(self, dims):
        rho = S.random_density(dims, seed=len(dims))
        for m in (1, 2, 3):
            for lab in P.enumerate_orbits(m, len(dims)):
                a = C.eval_mixed(lab, rho)
                b = C.eval_mixed(lab, rho, method="loop")
                assert relerr(a, b) < 1e-12, P.format_label(lab.rep)

    @pytest.mark.parametrize("dims", [(2,), (2, 2), (2, 2, 2)])
    def test_pure_all_labels(self, dims):
        psi = S.random_pure(dims, seed=len(dims))
        for m in (1, 2, 3):
            for lab in P.enumerate_orbits(m, len(dims) - 1):
                a = C.eval_pure(lab, psi)
                b = C.eval_pure(lab, psi, method="loop")
                assert relerr(a, b) < 1e-12, P.format_label(lab.rep)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            C.eval_mixed(P.perm_tuple(2, "t"), S.random_density((2,), seed=0), method="magic")

    def test_loop_guard(self):
        rho = S.random_density((2,) * 6, seed=0)
        lab = P.PermTuple(4, (P.identity(4),) * 6)
        with pytest.raises(ResourceLimitError):
            C.eval_mixed(lab, rho, method="loop")

    @pytest.mark.parametrize("method", ["einsum", "loop"])
    def test_wrong_state_class_is_a_type_error(self, method):
        psi, rho = S.random_pure((2, 2), seed=0), S.random_density((2, 2), seed=1)
        with pytest.raises(TypeError, match="mixed labels take a DensityMatrix"):
            C.eval_mixed(P.perm_tuple(2, "t", "t"), psi, method=method)
        with pytest.raises(TypeError, match="pure labels take a PureState"):
            C.eval_pure(P.perm_tuple(2, "t"), rho, method=method)

    def test_grade_0_is_refused_by_every_route(self):
        # enumerate_orbits(0, 1) yields the empty label, mixed on (2,) and pure
        # on (2, 2); no route evaluates it
        (empty,) = P.enumerate_orbits(0, 1)
        rho, psi = S.random_density((2,), seed=0), S.random_pure((2, 2), seed=1)
        refused = pytest.raises(ValueError, match="grade 0 has no invariant")
        for method in ("einsum", "loop"):
            with refused:
                C.eval_mixed(empty, rho, method=method)
            with refused:
                C.eval_pure(empty, psi, method=method)
        with refused:
            C.eval_mixed_batch(empty, (2,), rho.entries[None])
        with refused:
            C.eval_pure_batch(empty, (2, 2), psi.amplitudes[None])

    def test_per_state_network_may_use_all_52_axis_ids(self):
        # 4 copies on 13 subsystems: 52 ids, none left for a batch axis
        lab = P.PermTuple(4, (P.identity(4),) * 13)
        rho = S.DensityMatrix((1,) * 13, [[2]])
        assert C.eval_mixed(lab, rho) == 16


class TestWellDefinedness:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_conjugation_invariance(self, data):
        m = data.draw(st.integers(2, 3))
        group = P.symmetric_group(m)
        entries = tuple(data.draw(st.sampled_from(group)) for _ in range(2))
        beta = data.draw(st.sampled_from(group))
        sig = P.PermTuple(m, entries)
        rho = unit_density((2, 2), seed=data.draw(st.integers(0, 50)))
        a = C.eval_mixed(sig, rho)
        b = C.eval_mixed(sig.conjugated(beta), rho)
        assert relerr(a, b) < 1e-12

    def test_two_sided_classes_equal_on_projectors(self):
        psi = unit_pure((2, 2), seed=7)
        pi = S.projector(psi)
        for lab in P.enumerate_orbits(3, 1):
            members = P.sim_decompose(lab.rep).members
            vals = [C.eval_mixed(mem, pi) for mem in members]
            assert max(abs(v - vals[0]) for v in vals) < 1e-12


class TestLUInvariance:
    def test_pure_and_mixed(self):
        dims = (2, 2)
        psi = unit_pure(dims, seed=8)
        rho = unit_density(dims, seed=9)
        us = S.random_local_unitaries(dims, seed=10)
        psi_r = S.apply_local_unitaries(psi, us)
        rho_r = S.apply_local_unitaries_mixed(rho, us)
        for m in (1, 2, 3):
            for lab in P.enumerate_orbits(m, 1):
                assert relerr(C.eval_pure(lab, psi), C.eval_pure(lab, psi_r)) < 1e-9
            for lab in P.enumerate_orbits(m, 2):
                assert relerr(C.eval_mixed(lab, rho), C.eval_mixed(lab, rho_r)) < 1e-9


class TestFactorization:
    def test_disconnected_label_factorizes(self):
        # (t, t) on m=3 leaves the third copy alone: f = f_{(t,t)|{1,2}} * f_{(e)|{3}}
        sig = P.perm_tuple(3, "t", "t")
        psi = unit_pure((2, 2, 2), seed=11)
        full = C.eval_pure(sig, psi)
        g = build_graph(sig.embed())
        comps = connected_components(g)
        assert len(comps) == 2
        prod = 1.0 + 0j
        for sub, _ in comps:
            sub_label = P.PermTuple(sub.m, sub.perms[:-1])
            prod *= C.eval_pure(sub_label, psi)
        assert relerr(full, prod) < 1e-12

    def test_all_identity_is_power_of_norm(self):
        sig = P.PermTuple(3, (P.identity(3), P.identity(3)))
        psi = unit_pure((2, 2, 2), seed=12)
        assert relerr(C.eval_pure(sig, psi), psi.norm() ** 6) < 1e-12


class TestScaling:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_pure_scaling(self, m):
        psi = S.random_pure((2, 2), seed=m)
        scaled = S.PureState(psi.dims, 1.7 * psi.amplitudes)
        for lab in P.enumerate_orbits(m, 1):
            a = C.eval_pure(lab, scaled)
            b = 1.7 ** (2 * m) * C.eval_pure(lab, psi)
            assert relerr(a, b) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_mixed_scaling(self, m):
        rho = S.random_density((2, 2), seed=m)
        scaled = S.DensityMatrix(rho.dims, -0.9 * rho.entries)
        for lab in P.enumerate_orbits(m, 2):
            a = C.eval_mixed(lab, scaled)
            b = (-0.9) ** m * C.eval_mixed(lab, rho)
            assert relerr(a, b) < 1e-12


class TestReality:
    def test_real_on_hermitian(self):
        rho = S.random_hermitian((2, 2), seed=13)
        for m in (1, 2, 3):
            for lab in P.enumerate_orbits(m, 2):
                v = C.eval_mixed(lab, rho)
                assert abs(v.imag) < 1e-10 * max(abs(v), 1.0)

    def test_pure_values_real_nonnegative(self):
        psi = unit_pure((2, 2, 2), seed=14)
        for m in (1, 2, 3):
            for lab in P.enumerate_orbits(m, 2):
                v = C.eval_pure(lab, psi)
                assert abs(v.imag) < 1e-10 * max(abs(v), 1.0)
                assert v.real > -1e-10


def assert_three_ways_agree(sigma, psi):
    """A pure label on psi directly, as the embedded label on |psi><psi|,
    and on the reduction of |psi><psi| over the last subsystem, agree to
    1e-10 relative; returns the direct value."""
    pi = S.projector(psi)
    direct = C.eval_pure(sigma, psi)
    for other in (C.eval_mixed(sigma.embed(), pi),
                  C.eval_mixed(sigma, S.partial_trace(pi, {psi.k}))):
        assert relerr(direct, other) < 1e-10, P.format_label(sigma)
    return direct


class TestPureViaMixed:
    def test_grade_one(self):
        psi = S.random_pure((2, 2), seed=15)
        lab = P.perm_tuple(1, "e")
        assert relerr(assert_three_ways_agree(lab, psi), psi.norm() ** 2) < 1e-12

    def test_three_way_agreement_all_labels(self):
        psi = unit_pure((2, 2, 2), seed=16)
        for m in (1, 2, 3):
            for lab in P.enumerate_orbits(m, 2):
                assert_three_ways_agree(lab.rep, psi)
