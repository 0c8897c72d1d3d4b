import numpy as np
import pytest

from conftest import relerr, unit_density, unit_pure
from luinv import closedform as F
from luinv import contract as C
from luinv import perms as P
from luinv import states as S
from luinv.errors import VerificationError


def kron(*mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def reduced(psi, keep):
    traced = [j for j in range(1, psi.k + 1) if j not in keep]
    return S.partial_trace(S.projector(psi), traced).entries


class TestGradeOne:
    def test_values(self):
        assert F.pure_m1(S.PureState((2,), np.array([1, 0], dtype=complex))) == 1
        b = S.PureState((2, 2), np.array([[1, 0], [0, 1]], dtype=complex))
        assert F.pure_m1(b) == 2

    def test_matches_contract(self):
        psi = S.random_pure((2, 3), seed=0)
        lab = P.perm_tuple(1, "e")
        assert relerr(F.pure_m1(psi), C.eval_pure(lab, psi)) < 1e-12

    def test_mixed(self):
        rho = S.random_density((2, 2), seed=1)
        assert relerr(F.mixed_m1(rho), rho.trace()) < 1e-14


class TestGradeTwo:
    def test_all_identity_is_norm_fourth(self):
        psi = unit_pure((2, 2, 2), seed=2)
        val = F.pure_m2(P.perm_tuple(2, "e", "e"), psi)
        assert relerr(val, psi.norm() ** 4) < 1e-12

    def test_bell(self):
        b = S.PureState((2, 2), np.array([[1, 0], [0, 1]], dtype=complex))
        assert relerr(F.pure_m2(P.perm_tuple(2, "t"), b), 2.0) < 1e-14

    def test_k3_table(self):
        # the four writings in terms of explicit reductions
        psi = unit_pure((2, 2, 2), seed=3)
        table = {
            ("e", "t"): reduced(psi, [2]),
            ("t", "e"): reduced(psi, [1]),
            ("t", "t"): reduced(psi, [1, 2]),
        }
        for names, red in table.items():
            got = F.pure_m2(P.perm_tuple(2, *names), psi)
            want = np.trace(red @ red)
            assert relerr(got, want) < 1e-12

    def test_matches_contract_all_labels(self):
        psi = S.random_pure((2, 2, 2), seed=4)
        for lab in P.enumerate_orbits(2, 2):
            assert relerr(F.pure_m2(lab, psi), C.eval_pure(lab, psi)) < 1e-10

    def test_mixed(self):
        rho = S.random_density((2, 2), seed=5)
        got = F.mixed_m2(P.perm_tuple(2, "t", "t"), rho)
        assert relerr(got, np.trace(rho.entries @ rho.entries)) < 1e-12

    def test_rejects_non_m2_entries(self):
        psi = S.random_pure((2, 2), seed=6)
        with pytest.raises(ValueError, match="m=2"):
            F.pure_m2(P.perm_tuple(3, "s"), psi)


class TestGradeThreePure:
    def test_k2_three_cycle_is_cube_of_reduction(self):
        psi = unit_pure((2, 3), seed=7)
        got = F.pure_m3(P.perm_tuple(3, "s"), psi)
        r1 = reduced(psi, [1])
        assert relerr(got, np.trace(np.linalg.matrix_power(r1, 3))) < 1e-12

    def test_kempe_writings(self):
        psi = unit_pure((3, 3, 3), seed=8)
        got = F.pure_m3(P.perm_tuple(3, "s", "s2"), psi)
        pi12 = S.partial_trace(S.projector(psi), {3})
        for side in ({1}, {2}):
            t = S.partial_transpose(pi12, side).entries
            assert relerr(got, np.trace(np.linalg.matrix_power(t, 3))) < 1e-12

    def test_t_ts_is_product_of_reductions(self):
        psi = unit_pure((2, 2, 2), seed=9)
        got = F.pure_m3(P.perm_tuple(3, "t", "ts"), psi)
        want = np.trace(kron(reduced(psi, [1]), reduced(psi, [2])) @ reduced(psi, [1, 2]))
        assert relerr(got, want) < 1e-12

    def test_k1_degenerate(self):
        psi = unit_pure((3,), seed=10)
        got = F.pure_m3(P.PermTuple(3, ()), psi)
        assert relerr(got, psi.norm() ** 6) < 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (3, 3, 3)])
    def test_matches_contract_all_labels(self, dims):
        psi = S.random_pure(dims, seed=len(dims) + 11)
        for lab in P.enumerate_orbits(3, len(dims) - 1):
            a = F.pure_m3(lab, psi)
            b = C.eval_pure(lab, psi)
            assert relerr(a, b) < 1e-10, P.format_label(lab.rep)


class TestGradeThreeMixed:
    def test_t_s_identity_padding(self):
        rho = S.random_density((2, 3), seed=12)
        got = F.mixed_m3(P.perm_tuple(3, "t", "s"), rho)
        rho2 = S.partial_trace(rho, {1}).entries
        want = np.trace(kron(np.eye(2), rho2) @ rho.entries @ rho.entries)
        assert relerr(got, want) < 1e-12

    def test_k1_diagonal(self):
        rho = S.DensityMatrix((3,), np.diag([1.0, 2.0, 3.0]).astype(complex))
        got = F.mixed_m3(P.perm_tuple(3, "s"), rho)
        assert relerr(got, 36.0) < 1e-14  # 1 + 8 + 27

    @pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (2, 3)])
    def test_matches_contract_all_labels(self, dims):
        rho = S.random_density(dims, seed=len(dims) + 13)
        for lab in P.enumerate_orbits(3, len(dims)):
            a = F.mixed_m3(lab, rho)
            b = C.eval_mixed(lab, rho)
            assert relerr(a, b) < 1e-10, P.format_label(lab.rep)


class TestFactorOrder:
    def test_cyclic_rotations_agree(self):
        sig = P.perm_tuple(3, "t", "ts", "s")
        rho = S.random_density((2, 2, 2), seed=14)
        f1, f2, f3 = (f[0] for f in F._m3_factors(sig, rho.dims, rho.entries[None]))
        ref = np.trace(f1 @ f2 @ f3)
        assert relerr(np.trace(f2 @ f3 @ f1), ref) < 1e-13
        assert relerr(np.trace(f3 @ f1 @ f2), ref) < 1e-13

    def test_swap_changes_value_when_three_cycle_present(self):
        # regression guard on the factor ordering
        sig = P.perm_tuple(3, "t", "ts", "s")
        found = False
        for seed in range(5):
            rho = unit_density((2, 2, 2), seed=15 + seed)
            f1, f2, f3 = (f[0] for f in F._m3_factors(sig, rho.dims, rho.entries[None]))
            good = np.trace(f1 @ f2 @ f3)
            swapped = np.trace(f2 @ f1 @ f3)
            if relerr(good, swapped) > 1e-6:
                found = True
                break
        assert found, "factor order never mattered; ordering guard is vacuous"

    def test_order_validated_against_oracle(self):
        for names in [("t", "ts", "s"), ("t", "ts2", "s"), ("ts", "t", "s2"),
                      ("s", "t", "ts"), ("s", "ts2", "t")]:
            sig = P.perm_tuple(3, *names)
            rho = unit_density((2, 2, 2), seed=20)
            assert relerr(F.mixed_m3(sig, rho), C.eval_mixed(sig, rho)) < 1e-10, names


class TestQubitRelations:
    def test_sudbery_three_relations(self):
        for seed in range(20):
            psi = unit_pure((2, 2, 2), seed=30 + seed)
            f = {nm: C.eval_pure(P.parse_label(nm, 3), psi)
                 for nm in ("s,s2", "t,s", "e,s", "s,s", "s,t", "s,e", "t,ts")}
            kempe = f["s,s2"]
            assert abs(kempe - (3 * f["t,s"] - f["e,s"] - f["s,s"])) < 1e-10
            assert abs(kempe - (3 * f["s,t"] - f["s,e"] - f["s,s"])) < 1e-10
            assert abs(kempe - (3 * f["t,ts"] - f["e,s"] - f["s,e"])) < 1e-10

    def test_freudenthal_combination_nonnegative(self):
        for seed in range(20):
            psi = unit_pure((2, 2, 2), seed=60 + seed)
            f = {nm: C.eval_pure(P.parse_label(nm, 3), psi)
                 for nm in ("s,s2", "e,e", "e,t", "t,e", "t,t")}
            comb = 4 * f["s,s2"] + 5 * f["e,e"] - 3 * f["e,t"] - 3 * f["t,e"] - 3 * f["t,t"]
            assert comb.real >= -1e-9
            assert abs(comb.imag) < 1e-10

    def test_freudenthal_combination_lu_invariant(self):
        psi = unit_pure((2, 2, 2), seed=80)
        us = S.random_local_unitaries(psi.dims, seed=81)
        rot = S.apply_local_unitaries(psi, us)

        def comb(p):
            f = {nm: C.eval_pure(P.parse_label(nm, 3), p)
                 for nm in ("s,s2", "e,e", "e,t", "t,e", "t,t")}
            return 4 * f["s,s2"] + 5 * f["e,e"] - 3 * f["e,t"] - 3 * f["t,e"] - 3 * f["t,t"]

        assert relerr(comb(psi), comb(rot)) < 1e-9


class TestDeterminantIdentities:
    def test_qubit(self):
        for seed in range(20):
            rho = S.random_hermitian((2,), seed=seed)
            fe = F.mixed_m2(P.perm_tuple(2, "e"), rho)
            ft = F.mixed_m2(P.perm_tuple(2, "t"), rho)
            assert abs(2 * np.linalg.det(rho.entries) - (fe - ft)) < 1e-10

    def test_qutrit(self):
        for seed in range(20):
            rho = S.random_hermitian((3,), seed=seed)
            fe = F.mixed_m3(P.perm_tuple(3, "e"), rho)
            ft = F.mixed_m3(P.perm_tuple(3, "t"), rho)
            fs = F.mixed_m3(P.perm_tuple(3, "s"), rho)
            assert abs(6 * np.linalg.det(rho.entries) - (fe - 3 * ft + 2 * fs)) < 1e-10


class TestDispatcher:
    def test_routes_by_grade(self):
        psi = S.random_pure((2, 2), seed=90)
        rho = S.random_density((2, 2), seed=91)
        for m in (1, 2, 3):
            for lab in P.enumerate_orbits(m, 1):
                assert relerr(F.closed_form(lab, "pure", psi), C.eval_pure(lab, psi)) < 1e-10
            for lab in P.enumerate_orbits(m, 2):
                assert relerr(F.closed_form(lab, "mixed", rho), C.eval_mixed(lab, rho)) < 1e-10

    def test_rejects_grade_four(self):
        psi = S.random_pure((2, 2), seed=92)
        lab = P.PermTuple(4, (P.identity(4),))
        with pytest.raises(ValueError, match="grade 4"):
            F.closed_form(lab, "pure", psi)

    def test_type_checks(self):
        psi = S.random_pure((2, 2), seed=93)
        with pytest.raises(TypeError):
            F.closed_form(P.perm_tuple(2, "t", "t"), "mixed", psi)


def sample_stack(kind, dims, n, seed):
    sample = unit_pure if kind == "pure" else unit_density
    return [sample(dims, seed + i) for i in range(n)]


class TestBatch:
    @pytest.mark.parametrize("n", [1, 7])
    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2)])
    def test_matches_per_state(self, dims, kind, n):
        states = sample_stack(kind, dims, n, seed=300)
        r = len(dims) - 1 if kind == "pure" else len(dims)
        engine = C.eval_pure_batch if kind == "pure" else C.eval_mixed_batch
        for m in (1, 2, 3):
            for lab in P.enumerate_orbits(m, r):
                got = F.closed_form_batch(lab, kind, states)
                assert got.shape == (n,)
                contracted = engine(lab, states)
                for i, state in enumerate(states):
                    name = P.format_label(lab.rep)
                    assert relerr(got[i], F.closed_form(lab, kind, state)) < 1e-12, name
                    assert relerr(got[i], contracted[i]) < 1e-10, name

    def test_rejects_bad_stacks(self):
        lab = P.perm_tuple(3, "t", "s")
        with pytest.raises(ValueError, match="at least one state"):
            F.closed_form_batch(lab, "mixed", [])
        with pytest.raises(ValueError, match="share dims"):
            F.closed_form_batch(lab, "mixed", [S.random_density((2, 2), seed=0),
                                               S.random_density((2, 3), seed=1)])
        with pytest.raises(ValueError, match="arity"):
            F.closed_form_batch(lab, "mixed", [S.random_density((2, 2, 2), seed=2)])
        with pytest.raises(ValueError, match="arity"):
            F.closed_form_batch(lab, "pure", [S.random_pure((2, 2), seed=3)])
        with pytest.raises(ValueError, match="kind"):
            F.closed_form_batch(lab, "both", [S.random_density((2, 2), seed=4)])
        with pytest.raises(TypeError):
            F.closed_form_batch(lab, "mixed", [S.random_pure((2, 2), seed=5)])

    def test_pure_m2_writings_checked_on_a_stack(self):
        states = sample_stack("pure", (2, 2, 2), 3, seed=310)
        lab = P.perm_tuple(2, "t", "e")
        F.closed_form_batch(lab, "pure", states)
        with pytest.raises(VerificationError, match="writings disagree"):
            F.closed_form_batch(lab, "pure", states, rtol=-1.0)
        with pytest.raises(VerificationError, match="writings disagree"):
            F.pure_m2(lab, states[0], rtol=-1.0)


class TestAlternateWritings:
    def test_k3_m2_tt(self):
        sig = P.perm_tuple(2, "t", "t")
        psi = unit_pure((2, 2, 2), seed=94)
        writings = F.alternate_writings(sig, "pure")
        assert len(writings) == 2
        ref = C.eval_pure(sig, psi)
        r12 = reduced(psi, [1, 2])
        r3 = reduced(psi, [3])
        wants = {np.trace(r12 @ r12).real.round(10), np.trace(r3 @ r3).real.round(10)}
        assert len(wants) <= 2
        for w in writings:
            assert relerr(w.evaluate(psi), ref) < 1e-10
            assert relerr(w.evaluate_text(psi), ref) < 1e-10

    def test_k2_m3_s_has_four_forms(self):
        sig = P.perm_tuple(3, "s")
        psi = unit_pure((2, 3), seed=95)
        writings = F.alternate_writings(sig, "pure")
        assert len(writings) == 4
        texts = {w.text for w in writings}
        assert "Tr( pt[1](pi)^3 )" in texts
        assert "Tr( pt[2](pi)^3 )" in texts
        assert "Tr( tp[2](pi)^3 )" in texts
        ref = C.eval_pure(sig, psi)
        for w in writings:
            assert relerr(w.evaluate(psi), ref) < 1e-10
            assert relerr(w.evaluate_text(psi), ref) < 1e-10

    def test_k3_m3_s_t_includes_tensor_form(self):
        sig = P.perm_tuple(3, "s", "t")
        psi = unit_pure((2, 2, 2), seed=96)
        writings = F.alternate_writings(sig, "pure")
        assert len(writings) == 6
        ref = C.eval_pure(sig, psi)
        for w in writings:
            assert relerr(w.evaluate(psi), ref) < 1e-10

    def test_mixed_single_descriptor(self):
        sig = P.perm_tuple(3, "t", "s")
        rho = S.random_density((2, 3), seed=97)
        writings = F.alternate_writings(sig, "mixed")
        assert len(writings) == 1
        assert relerr(writings[0].evaluate(rho), C.eval_mixed(sig, rho)) < 1e-10
        assert relerr(writings[0].evaluate_text(rho), C.eval_mixed(sig, rho)) < 1e-10

    def test_every_writing_parses_back(self):
        psi = unit_pure((2, 2, 2), seed=98)
        for m in (1, 2, 3):
            for lab in P.enumerate_orbits(m, 2):
                for w in F.alternate_writings(lab.rep, "pure"):
                    assert relerr(w.evaluate_text(psi), w.evaluate(psi)) < 1e-10, w.text


class TestFormulaText:
    def test_grammar_example(self):
        # canonical label of the one-swap-one-cycle class
        lab = P.canonical_form(P.perm_tuple(3, "t", "s"))
        assert F.formula_text(lab.rep, "mixed") == "Tr( (I[1] (x) pt[2](rho)) * rho^2 )"

    def test_power_merging(self):
        lab = P.perm_tuple(3, "s", "s")
        assert F.formula_text(lab, "mixed") == "Tr( rho^3 )"

    def test_scalar_factor(self):
        lab = P.perm_tuple(3, "t")
        assert F.formula_text(lab, "mixed") == "Tr( rho^2 * (pt[](rho) (x) I[1]) )"

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            F.parse_formula("Tr( rho")
        with pytest.raises(ValueError):
            F.parse_formula("det( rho )")
        with pytest.raises(ValueError):
            F.parse_formula("Tr( pt[1](rho) * rho )")(S.random_density((2, 2), seed=99))
