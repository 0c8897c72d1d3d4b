import argparse
import sys
import time

import numpy as np
import pytest

from conftest import relerr, unit_density, unit_pure
from luinv import cli
from luinv import closedform as F
from luinv import contract as C
from luinv import perms as P
from luinv import states as S
from luinv._einsum import compile_plan
from luinv.errors import ResourceLimitError


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
        a = S.PureState((2,), np.array([1, 0], dtype=complex))
        assert F.closed_form(P.perm_tuple(1), "pure", a) == 1
        b = S.PureState((2, 2), np.array([[1, 0], [0, 1]], dtype=complex))
        assert F.closed_form(P.perm_tuple(1, "e"), "pure", b) == 2

    def test_matches_contract(self):
        psi = S.random_pure((2, 3), seed=0)
        lab = P.perm_tuple(1, "e")
        assert relerr(F.closed_form(lab, "pure", psi), C.eval_pure(lab, psi)) < 1e-12

    def test_mixed(self):
        rho = S.random_density((2, 2), seed=1)
        assert relerr(F.closed_form(P.perm_tuple(1, "e", "e"), "mixed", rho), rho.trace()) < 1e-14


class TestGradeTwo:
    def test_all_identity_is_norm_fourth(self):
        psi = unit_pure((2, 2, 2), seed=2)
        val = F.closed_form(P.perm_tuple(2, "e", "e"), "pure", psi)
        assert relerr(val, psi.norm() ** 4) < 1e-12

    def test_bell(self):
        b = S.PureState((2, 2), np.array([[1, 0], [0, 1]], dtype=complex))
        assert relerr(F.closed_form(P.perm_tuple(2, "t"), "pure", b), 2.0) < 1e-14

    def test_k3_table(self):
        # the four writings in terms of explicit reductions
        psi = unit_pure((2, 2, 2), seed=3)
        table = {
            ("e", "t"): reduced(psi, [2]),
            ("t", "e"): reduced(psi, [1]),
            ("t", "t"): reduced(psi, [1, 2]),
        }
        for names, red in table.items():
            got = F.closed_form(P.perm_tuple(2, *names), "pure", psi)
            want = np.trace(red @ red)
            assert relerr(got, want) < 1e-12

    def test_matches_contract_all_labels(self):
        psi = S.random_pure((2, 2, 2), seed=4)
        for lab in P.enumerate_orbits(2, 2):
            assert relerr(F.closed_form(lab, "pure", psi), C.eval_pure(lab, psi)) < 1e-10

    def test_mixed(self):
        rho = S.random_density((2, 2), seed=5)
        got = F.closed_form(P.perm_tuple(2, "t", "t"), "mixed", rho)
        assert relerr(got, np.trace(rho.entries @ rho.entries)) < 1e-12


class TestGradeThreePure:
    def test_k2_three_cycle_is_cube_of_reduction(self):
        psi = unit_pure((2, 3), seed=7)
        got = F.closed_form(P.perm_tuple(3, "s"), "pure", psi)
        r1 = reduced(psi, [1])
        assert relerr(got, np.trace(np.linalg.matrix_power(r1, 3))) < 1e-12

    def test_kempe_writings(self):
        psi = unit_pure((3, 3, 3), seed=8)
        got = F.closed_form(P.perm_tuple(3, "s", "s2"), "pure", psi)
        pi12 = S.partial_trace(S.projector(psi), {3})
        for axes in ((2, 1, 0, 3), (0, 3, 2, 1)):  # transpose subsystem 1, then 2
            t = pi12.tensor().transpose(axes).reshape(9, 9)
            assert relerr(got, np.trace(np.linalg.matrix_power(t, 3))) < 1e-12

    def test_t_ts_is_product_of_reductions(self):
        psi = unit_pure((2, 2, 2), seed=9)
        got = F.closed_form(P.perm_tuple(3, "t", "ts"), "pure", psi)
        want = np.trace(kron(reduced(psi, [1]), reduced(psi, [2])) @ reduced(psi, [1, 2]))
        assert relerr(got, want) < 1e-12

    def test_k1_degenerate(self):
        psi = unit_pure((3,), seed=10)
        got = F.closed_form(P.PermTuple(3, ()), "pure", psi)
        assert relerr(got, psi.norm() ** 6) < 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (3, 3, 3)])
    def test_matches_contract_all_labels(self, dims):
        psi = S.random_pure(dims, seed=len(dims) + 11)
        for lab in P.enumerate_orbits(3, len(dims) - 1):
            a = F.closed_form(lab, "pure", psi)
            b = C.eval_pure(lab, psi)
            assert relerr(a, b) < 1e-10, P.format_label(lab.rep)


class TestGradeThreeMixed:
    def test_t_s_identity_padding(self):
        rho = S.random_density((2, 3), seed=12)
        got = F.closed_form(P.perm_tuple(3, "t", "s"), "mixed", rho)
        rho2 = S.partial_trace(rho, {1}).entries
        want = np.trace(kron(np.eye(2), rho2) @ rho.entries @ rho.entries)
        assert relerr(got, want) < 1e-12

    def test_k1_diagonal(self):
        rho = S.DensityMatrix((3,), np.diag([1.0, 2.0, 3.0]).astype(complex))
        got = F.closed_form(P.perm_tuple(3, "s"), "mixed", rho)
        assert relerr(got, 36.0) < 1e-14  # 1 + 8 + 27

    @pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (2, 3)])
    def test_matches_contract_all_labels(self, dims):
        rho = S.random_density(dims, seed=len(dims) + 13)
        for lab in P.enumerate_orbits(3, len(dims)):
            a = F.closed_form(lab, "mixed", rho)
            b = C.eval_mixed(lab, rho)
            assert relerr(a, b) < 1e-10, P.format_label(lab.rep)


def reordered(sig, rho, order):
    """The label's mixed formula with its three factors in the given order,
    evaluated through parse_formula."""
    texts = F._m3_factor_texts(sig, "rho")
    return F.parse_formula("Tr( " + " * ".join(texts[i] for i in order) + " )")(rho)


class TestFactorOrder:
    def test_cyclic_rotations_agree(self):
        sig = P.perm_tuple(3, "t", "ts", "s")
        rho = S.random_density((2, 2, 2), seed=14)
        ref = reordered(sig, rho, (0, 1, 2))
        assert relerr(ref, F.closed_form(sig, "mixed", rho)) < 1e-13
        assert relerr(reordered(sig, rho, (1, 2, 0)), ref) < 1e-13
        assert relerr(reordered(sig, rho, (2, 0, 1)), ref) < 1e-13

    def test_swap_changes_value_when_three_cycle_present(self):
        # regression guard on the factor ordering
        sig = P.perm_tuple(3, "t", "ts", "s")
        found = False
        for seed in range(5):
            rho = unit_density((2, 2, 2), seed=15 + seed)
            good = reordered(sig, rho, (0, 1, 2))
            swapped = reordered(sig, rho, (1, 0, 2))
            if relerr(good, swapped) > 1e-6:
                found = True
                break
        assert found, "factor order never mattered; ordering guard is vacuous"

    def test_order_validated_against_oracle(self):
        for names in [("t", "ts", "s"), ("t", "ts2", "s"), ("ts", "t", "s2"),
                      ("s", "t", "ts"), ("s", "ts2", "t")]:
            sig = P.perm_tuple(3, *names)
            rho = unit_density((2, 2, 2), seed=20)
            assert relerr(F.closed_form(sig, "mixed", rho), C.eval_mixed(sig, rho)) < 1e-10, names


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
            fe = F.closed_form(P.perm_tuple(2, "e"), "mixed", rho)
            ft = F.closed_form(P.perm_tuple(2, "t"), "mixed", rho)
            assert abs(2 * np.linalg.det(rho.entries) - (fe - ft)) < 1e-10

    def test_qutrit(self):
        for seed in range(20):
            rho = S.random_hermitian((3,), seed=seed)
            fe = F.closed_form(P.perm_tuple(3, "e"), "mixed", rho)
            ft = F.closed_form(P.perm_tuple(3, "t"), "mixed", rho)
            fs = F.closed_form(P.perm_tuple(3, "s"), "mixed", rho)
            assert abs(6 * np.linalg.det(rho.entries) - (fe - 3 * ft + 2 * fs)) < 1e-10


def _cmd_eval(sigma, kind, state, path):
    """luinv eval of sigma on the state saved at path, with its exceptions."""
    args = argparse.Namespace(label=P.format_label(sigma), kind=kind, m=sigma.m, state=path,
                              json=False)
    return cli.cmd_eval(args)


def _stack(state):
    """A state record's array as a stack of one."""
    return (state.amplitudes if isinstance(state, S.PureState) else state.entries)[None]


#: Every entry point of the checked route, called as (label, kind, state,
#: path of the state's file), with the kept checks it runs, numbered as in
#: TestDispatcher.test_kept_checks_in_order.  Batches take no record and the
#: per-kind engines no kind; only the closed forms and luinv eval check the
#: grade.  A writing's label is mixed, and a formula text has none.  luinv
#: eval matches the file's kind to --kind with its own message.
ROUTES = {
    "closed_form": (lambda sigma, kind, state, _: F.closed_form(sigma, kind, state), range(7)),
    "closed_form_batch": (lambda sigma, kind, state, _: F.closed_form_batch(
        sigma, kind, state.dims, _stack(state)), (2, 3, 4, 5, 6)),
    "eval": (lambda sigma, kind, state, _: {
        "pure": C.eval_pure, "mixed": C.eval_mixed}[kind](sigma, state), (0, 3, 4, 5)),
    "eval_loop": (lambda sigma, kind, state, _: {
        "pure": C.eval_pure, "mixed": C.eval_mixed}[kind](sigma, state, method="loop"),
        (0, 3, 4, 5)),
    "eval_batch": (lambda sigma, kind, state, _: {
        "pure": C.eval_pure_batch, "mixed": C.eval_mixed_batch}[kind](
            sigma, state.dims, _stack(state)), (3, 4, 5)),
    "evaluate_text": (lambda sigma, kind, state, _: F.FormulaDescriptor(
        sigma, kind, "Tr( rho )").evaluate_text(state), (0, 3, 4)),
    "parse_formula": (lambda sigma, kind, state, _: F.parse_formula("Tr( rho )")(state), (0, 3)),
    "cmd_eval": (_cmd_eval, (3, 4, 5, 6)),
}


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
        rho = S.projector(psi)
        (mixed,) = F.alternate_writings(P.perm_tuple(2, "t", "t"), "mixed")
        (pure, *_) = F.alternate_writings(P.perm_tuple(2, "t"), "pure")
        with pytest.raises(TypeError, match="mixed labels take a DensityMatrix"):
            F.closed_form(P.perm_tuple(2, "t", "t"), "mixed", psi)
        with pytest.raises(TypeError, match="pure labels take a PureState"):
            F.closed_form(P.perm_tuple(2, "t"), "pure", rho)
        for call, state in ((F.parse_formula("Tr( rho^2 )"), psi), (mixed.evaluate_text, psi),
                            (pure.evaluate_text, rho), (S.projector, rho)):
            kind = "mixed" if state is psi else "pure"
            with pytest.raises(TypeError, match=f"{kind} labels take a"):
                call(state)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_kept_checks_in_order(self, route, tmp_path):
        # each check raises its own type; a call failing two checks gets the
        # earlier one: state class, kind, dims against the current guard,
        # arity, grade.  Each entry point runs those of its checks that apply.
        call, runs = ROUTES[route]
        psi, rho = S.random_pure((2, 2), seed=94), S.random_density((2, 2), seed=95)
        files = {"pure": tmp_path / "psi.json", "mixed": tmp_path / "rho.json"}
        S.save_state(psi, files["pure"])
        S.save_state(rho, files["mixed"])
        grade_four = P.PermTuple(4, (P.identity(4),) * 3)
        checks = [  # (dims limit, label, kind, state, raised, message)
            (3, grade_four, "mixed", psi, TypeError, "mixed labels take a DensityMatrix"),
            (3, grade_four, "both", psi, TypeError, "both labels take a DensityMatrix"),
            (3, grade_four, "both", rho, ValueError, "kind must be"),
            (3, grade_four, "mixed", rho, ResourceLimitError, "exceeds limit 3"),
            (4, grade_four, "mixed", rho, ValueError, "arity"),
            (4, P.perm_tuple(2, "t", "t"), "pure", psi, ValueError, "arity"),
            (4, P.PermTuple(4, (P.identity(4),) * 2), "mixed", rho, ValueError,
             "no closed form for grade 4"),
        ]
        for i in runs:
            limit, sigma, kind, state, raised, message = checks[i]
            path = str(files["pure" if state is psi else "mixed"])
            with S.dim_limit(limit), pytest.raises(raised, match=message):
                call(sigma, kind, state, path)

    def test_a_pure_writing_is_refused_before_its_projector(self, monkeypatch):
        # the state passed the guard it was made under; the N x N projector
        # of a lower guard's refusal is never built
        psi = S.random_pure((2, 2, 2), seed=110)
        (writing, *_) = F.alternate_writings(P.perm_tuple(2, "t", "t"), "pure")

        def refuse(amps):
            raise AssertionError("a projector was built")

        monkeypatch.setattr(F, "_projector_stack", refuse)
        with S.dim_limit(4), pytest.raises(ResourceLimitError,
                                           match="total dimension 8 exceeds limit 4"):
            writing.evaluate_text(psi)

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_evaluate_text_checks_the_class_and_the_guard_once(self, kind, monkeypatch):
        state = (S.random_pure if kind == "pure" else S.random_density)((2, 2), seed=98)
        writing = F.alternate_writings(P.perm_tuple(3, *(("s",) if kind == "pure" else ("s", "t"))),
                                       kind)[-1]
        calls = []
        for name in ("_check_total", "_state_data"):
            real = getattr(S, name)

            def counted(*args, _name=name, _real=real):
                calls.append(_name)
                return _real(*args)

            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("luinv") and getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counted)
        writing.evaluate_text(state)
        assert sorted(calls) == ["_check_total", "_state_data"]

    def test_each_evaluation_runs_the_kind_rule_once(self, tmp_path, capsys, monkeypatch):
        psi, rho = S.random_pure((2, 2), seed=96), S.random_density((2, 2), seed=97)
        pure, mixed = P.perm_tuple(3, "s"), P.perm_tuple(3, "s", "t")
        (mixed_writing,) = F.alternate_writings(mixed, "mixed")
        pure_writing = F.alternate_writings(pure, "pure")[-1]
        path = tmp_path / "psi.json"
        S.save_state(psi, path)
        evaluations = {
            "eval_pure": lambda: C.eval_pure(pure, psi),
            "eval_pure loop": lambda: C.eval_pure(pure, psi, method="loop"),
            "eval_mixed": lambda: C.eval_mixed(mixed, rho),
            "eval_mixed loop": lambda: C.eval_mixed(mixed, rho, method="loop"),
            "eval_pure_batch": lambda: C.eval_pure_batch(pure, (2, 2), psi.amplitudes[None]),
            "eval_mixed_batch": lambda: C.eval_mixed_batch(mixed, (2, 2), rho.entries[None]),
            "closed_form pure": lambda: F.closed_form(pure, "pure", psi),
            "closed_form mixed": lambda: F.closed_form(mixed, "mixed", rho),
            "closed_form_batch": lambda: F.closed_form_batch(mixed, "mixed", (2, 2),
                                                             rho.entries[None]),
            "evaluate_text pure": lambda: pure_writing.evaluate_text(psi),
            "evaluate_text mixed": lambda: mixed_writing.evaluate_text(rho),
            "parse_formula": lambda: F.parse_formula(mixed_writing.text)(rho),
            "luinv eval": lambda: cli.main(["eval", "--label", "s", "--kind", "pure",
                                            "--state", str(path)]),
        }
        calls = []

        def counted(kind, k):
            calls.append(kind)
            return real(kind, k)

        real = P._arity
        for name, module in list(sys.modules.items()):
            if name.startswith("luinv") and getattr(module, "_arity", None) is real:
                monkeypatch.setattr(module, "_arity", counted)
        for name, evaluate in evaluations.items():
            calls.clear()
            evaluate()
            assert len(calls) == 1, (name, calls)
        capsys.readouterr()


def sample_stack(kind, dims, n, seed):
    """n unit states and their data as one array: amplitudes (n, *dims) for
    kind "pure", matrices (n, N, N) for "mixed"."""
    if kind == "pure":
        states = [unit_pure(dims, seed + i) for i in range(n)]
        return states, np.stack([psi.amplitudes for psi in states])
    states = [unit_density(dims, seed + i) for i in range(n)]
    return states, np.stack([rho.entries for rho in states])


class TestBatch:
    @pytest.mark.parametrize("n", [1, 7])
    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2)])
    def test_matches_per_state(self, dims, kind, n):
        states, stack = sample_stack(kind, dims, n, seed=300)
        r = len(dims) - 1 if kind == "pure" else len(dims)
        engine = C.eval_pure_batch if kind == "pure" else C.eval_mixed_batch
        for m in (1, 2, 3):
            for lab in P.enumerate_orbits(m, r):
                got = F.closed_form_batch(lab, kind, dims, stack)
                assert got.shape == (n,)
                contracted = engine(lab, dims, stack)
                for i, state in enumerate(states):
                    name = P.format_label(lab.rep)
                    assert relerr(got[i], F.closed_form(lab, kind, state)) < 1e-12, name
                    assert relerr(got[i], contracted[i]) < 1e-10, name

    def test_rejects_bad_stacks(self):
        lab = P.perm_tuple(3, "t", "s")
        _, rhos = sample_stack("mixed", (2, 2), 2, seed=0)
        _, psis = sample_stack("pure", (2, 2), 2, seed=2)
        with pytest.raises(ValueError, match="at least one state"):
            F.closed_form_batch(lab, "mixed", (2, 2), rhos[:0])
        with pytest.raises(ValueError, match="shape"):
            F.closed_form_batch(lab, "mixed", (2, 3), rhos)
        with pytest.raises(ValueError, match="shape"):
            F.closed_form_batch(lab, "mixed", (2, 2), rhos[0])
        with pytest.raises(ValueError, match="shape"):
            F.closed_form_batch(lab, "mixed", (2, 2), psis)
        with pytest.raises(ValueError, match="positive"):
            F.closed_form_batch(lab, "mixed", (4, 0), rhos)
        with pytest.raises(ValueError, match="arity"):
            F.closed_form_batch(lab, "mixed", (4,), rhos)
        with pytest.raises(ValueError, match="arity"):
            F.closed_form_batch(lab, "pure", (2, 2), psis)
        with pytest.raises(ValueError, match="kind"):
            F.closed_form_batch(lab, "both", (2, 2), rhos)
        with pytest.raises(ValueError, match="no closed form"):
            F.closed_form_batch(P.parse_label("[2,3,4,1],[1,2,3,4]", 4), "mixed", (2, 2), rhos)

    def test_dims_over_the_guard_are_refused(self):
        lab = P.perm_tuple(3, "t", "s")
        _, rhos = sample_stack("mixed", (2, 2), 2, seed=0)
        _, psis = sample_stack("pure", (2, 2, 2), 2, seed=2)
        with S.dim_limit(3):
            with pytest.raises(ResourceLimitError, match="exceeds limit 3"):
                F.closed_form_batch(lab, "mixed", (2, 2), rhos)
            with pytest.raises(ResourceLimitError, match="exceeds limit 3"):
                F.closed_form_batch(lab, "pure", (2, 2, 2), psis)

    def test_one_program_per_label_kind_and_dims(self):
        rho = S.random_density((2, 3), seed=320)
        lab = P.enumerate_orbits(3, 2)[7]
        F.closed_form(lab, "mixed", rho)
        program = F._program(lab.rep, rho.dims)
        assert program is F._compiled(F._parse(F.formula_text(lab.rep, "mixed")), rho.dims)
        before, compiled = F._program.cache_info(), F._compiled.cache_info()
        F.closed_form(lab, "mixed", rho)
        after = F._program.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert F._compiled.cache_info() == compiled
        # the formula text shares the program
        (w,) = F.alternate_writings(lab, "mixed")
        w.evaluate_text(rho)
        assert F._compiled.cache_info().misses == compiled.misses
        # a pure label runs the program of its tuple on dims[:-1], which
        # shares its plan and scale with its embedded label's formula
        t = P.perm_tuple(2, "t")
        F.closed_form(t, "pure", unit_pure((2, 3), seed=321))
        hits = F._program.cache_info().hits
        program = F._program(t, (2,))
        assert F._program.cache_info().hits == hits + 1
        embedded = F.Program(F._parse(F.formula_text(t.embed(), "pure")), (2,))
        assert program.plan is embedded.plan and program.scale == embedded.scale

    def test_writings_of_both_kinds_share_programs(self):
        # the "rho" and "pi" texts of a writing parse to one tree: one program
        psi = unit_pure((2, 2, 2), seed=330)
        writings = F.alternate_writings(P.perm_tuple(3, "s", "t"), "pure")
        assert len(writings) == 6
        F._program.cache_clear()
        F._compiled.cache_clear()
        for w in writings:
            w.evaluate_text(psi)
        assert F._compiled.cache_info().misses == 6

    def test_closed_form_runs_an_einsum_plan(self):
        # a closed form at dims no other test uses compiles its network
        rho = S.random_density((3, 5), seed=340)
        lab = P.perm_tuple(3, "t", "s")
        misses = compile_plan.cache_info().misses
        value = F.closed_form(lab, "mixed", rho)
        assert compile_plan.cache_info().misses > misses
        assert relerr(value, C.eval_mixed(lab, rho)) < 1e-10

    def test_program_compiles_one_plan(self):
        # a single state and stacks of every size run it with no plan lookup
        rho = S.random_density((2, 3), seed=350)
        program = F._program(P.perm_tuple(3, "s", "t"), (2, 3))
        lookups = compile_plan.cache_info()
        value = F.closed_form(P.perm_tuple(3, "s", "t"), "mixed", rho)
        for n in (1, 3, 40, 2):
            assert np.array_equal(program(np.stack([rho.entries] * n)), np.full(n, value))
        assert compile_plan.cache_info() == lookups
        assert program.plan.shapes == ((1, 2, 3, 2, 3),) * 3

    @pytest.mark.parametrize("dims", [(1,), (2,), (3,), (1, 3), (3, 1), (2, 2), (2, 1, 2)])
    def test_pure_programs_run_on_the_reduction(self, dims):
        # k = 1 compiles for dims (), and unit dims trace nothing away
        states, psis = sample_stack("pure", dims, 3, seed=360)
        for m in (1, 2, 3):
            for lab in P.enumerate_orbits(m, len(dims) - 1):
                got = F.closed_form_batch(lab, "pure", dims, psis)
                hits = F._program.cache_info().hits
                program = F._program(lab.rep, dims[:-1])
                assert F._program.cache_info().hits == hits + 1
                # the plan and scale of its embedded label's formula
                embedded = F.Program(F._parse(F.formula_text(lab.rep.embed(), "pure")), dims[:-1])
                assert program.plan is embedded.plan and program.scale == embedded.scale
                want = np.array([C.eval_pure(lab, psi) for psi in states])
                assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
    def test_mixed_programs_are_the_engines_plans(self, dims):
        """Pins README, "Evaluation engines": a mixed label's closed form
        compiles to the very plan the contraction engine runs, so the
        closed check tests that the formula's network is the label's, and
        only the loop oracle is independent in arithmetic.  No state is
        drawn."""
        labels = [lab for m in (1, 2, 3) for lab in P.enumerate_orbits(m, len(dims))]
        assert len(labels) == {2: 16, 3: 58}[len(dims)]
        for lab in labels:
            assert F._program(lab.rep, dims).plan is C._mixed_plan(lab.rep, dims)


def test_an_ordering_is_only_sufficient_for_a_matrix_form():
    # README, "Scope notes": no cyclic ordering, yet a matrix form
    lab = P.parse_label("[3,2,1,4],[2,3,4,1]", 4)
    text = "Tr( rho * (I[1] (x) pt[2](rho)) * rho * (I[1] (x) pt[2](rho)) )"
    for dims in [(2, 3), (3, 2)]:
        for seed in (370, 371):
            rho = S.random_hermitian(dims, seed)
            assert relerr(F.parse_formula(text)(rho), C.eval_mixed(lab, rho)) < 1e-12


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
            assert relerr(w.evaluate_text(psi), ref) < 1e-10

    def test_k3_m3_s_t_includes_tensor_form(self):
        sig = P.perm_tuple(3, "s", "t")
        psi = unit_pure((2, 2, 2), seed=96)
        writings = F.alternate_writings(sig, "pure")
        assert len(writings) == 6
        ref = C.eval_pure(sig, psi)
        for w in writings:
            assert relerr(w.evaluate_text(psi), ref) < 1e-10

    def test_mixed_single_descriptor(self):
        sig = P.perm_tuple(3, "t", "s")
        rho = S.random_density((2, 3), seed=97)
        writings = F.alternate_writings(sig, "mixed")
        assert len(writings) == 1
        assert relerr(writings[0].evaluate_text(rho), C.eval_mixed(sig, rho)) < 1e-10

    def test_writings_check_the_state_arity(self):
        (w,) = F.alternate_writings(P.perm_tuple(3, "t", "s"), "mixed")
        (p, *_) = F.alternate_writings(P.perm_tuple(2, "t"), "pure")
        for call, state in ((w.evaluate_text, S.random_density((2, 2, 2), seed=108)),
                            (p.evaluate_text, S.random_pure((2, 2, 2), seed=109))):
            with pytest.raises(ValueError, match="arity"):
                call(state)

    def test_every_writing_parses_back(self):
        # every writing's text, run by the compiler, gives its label's closed form
        for dims in [(2, 3), (2, 2, 3)]:
            k = len(dims)
            psi, rho = unit_pure(dims, seed=98), unit_density(dims, seed=99)
            for m in (1, 2, 3):
                for kind, state, r in [("pure", psi, k - 1), ("mixed", rho, k)]:
                    for lab in P.enumerate_orbits(m, r):
                        want = F.closed_form(lab, kind, state)
                        for w in F.alternate_writings(lab.rep, kind):
                            assert relerr(w.evaluate_text(state), want) < 1e-12, w.text


    def test_returned_lists_are_fresh(self):
        sig = P.perm_tuple(3, "s", "t")
        first = F.alternate_writings(sig, "pure")
        want = list(first)
        first.clear()
        first.append(None)
        assert F.alternate_writings(sig, "pure") == want

    def test_memo_equals_a_fresh_build(self):
        built = F._writings.__wrapped__
        for m in (1, 2, 3):
            for kind, top in (("pure", 2), ("mixed", 3)):
                for r in range(1, top + 1):
                    for lab in P.enumerate_orbits(m, r):
                        want = list(built(lab.rep, kind))
                        assert want and F.alternate_writings(lab, kind) == want
                        assert F.alternate_writings(lab.rep, kind) == want

    def test_bad_kind_is_refused_before_the_memo(self):
        with pytest.raises(ValueError, match="kind must be"):
            F.alternate_writings(P.perm_tuple(2, "t"), "both")
        with pytest.raises(ValueError, match="kind must be"):
            F.alternate_writings(P.perm_tuple(2, "t"), ["pure"])


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

    @pytest.mark.parametrize("text", ["Tr(", "Tr( rho^", "Tr( pt[1]( rho", "Tr( (rho"])
    def test_parse_rejects_truncated_text(self, text):
        with pytest.raises(ValueError):
            F.parse_formula(text)

    def test_parse_rejects_zero_exponent(self):
        with pytest.raises(ValueError, match="exponent"):
            F.parse_formula("Tr( rho^0 )")

    @pytest.mark.parametrize("text", ["Tr( I[3] )", "Tr( pt[3](rho) )"])
    def test_rejects_subsystem_out_of_range(self, text):
        rho = S.random_density((2, 2), seed=100)
        with pytest.raises(ValueError, match="out of range"):
            F.parse_formula(text)(rho)

    @pytest.mark.parametrize("text", ["Tr( (I[1] (x) I[1]) )", "Tr( pt[1,1](rho) )"])
    def test_rejects_repeated_subsystems(self, text):
        rho = S.random_density((2, 2), seed=101)
        with pytest.raises(ValueError):
            F.parse_formula(text)(rho)

    def test_hand_written_text(self):
        # a group of two operators, nested pt/tp and a scalar, on a stack
        rhos = [S.random_density((2, 3), seed=102 + i) for i in range(3)]
        text = ("Tr( (pt[2](rho) (x) pt[1](rho)) * tp[1](pt[1,2](rho))"
                " * (pt[](rho) (x) I[1] (x) pt[2](rho)) )")
        program = F._compiled(F._parse(text), (2, 3))
        for rho, got in zip(rhos, program(np.stack([r.entries for r in rhos]))):
            r1 = S.partial_trace(rho, {2}).entries
            r2 = S.partial_trace(rho, {1}).entries
            t1 = rho.tensor().transpose(2, 1, 0, 3).reshape(6, 6)  # transpose subsystem 1
            want = rho.trace() * np.trace(kron(r1, r2) @ t1 @ kron(np.eye(2), r2))
            assert relerr(got, want) < 1e-12
            assert relerr(F.parse_formula(text)(rho), want) < 1e-12

    def test_formula_text_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            F.formula_text(P.perm_tuple(2, "t", "e"), "bogus")

    @pytest.mark.parametrize("text,want", [("Tr( I[1] )", 2), ("Tr( I[1,2] )", 6),
                                           ("Tr( I[2]^99999999999 )", 3)])
    def test_identities_alone_are_free_loops(self, text, want):
        rho = S.random_density((2, 3), seed=103)
        assert F.parse_formula(text)(rho) == want

    def test_padding_against_kron(self):
        rho = S.random_density((2, 3), seed=104)
        r2 = S.partial_trace(rho, {1}).entries
        want = np.trace(np.kron(np.eye(2), r2) @ rho.entries)
        got = F.parse_formula("Tr( (I[1] (x) pt[2](rho)) * rho )")(rho)
        assert relerr(got, want) < 1e-12

    def test_high_power_within_the_axis_ids(self):
        # 25 copies on two subsystems need 25 * 2 = 50 of the 52 ids; the
        # stack id, an ellipsis, takes none
        rho = unit_density((2, 3), seed=105)
        want = np.trace(np.linalg.matrix_power(rho.entries, 25))
        assert relerr(F.parse_formula("Tr( rho^25 )")(rho), want) < 1e-12

    def test_too_many_axis_ids_is_a_resource_limit(self):
        rho = S.random_density((2, 3), seed=106)
        with pytest.raises(ResourceLimitError, match="60 axis ids"):
            F.parse_formula("Tr( rho^30 )")(rho)

    def test_huge_power_is_refused_before_expanding(self):
        rho = S.random_density((2, 3), seed=107)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="copies"):
            F.parse_formula("Tr( rho^99999999999 )")(rho)
        assert time.perf_counter() - start < 1.0

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            F.parse_formula("Tr( rho")
        with pytest.raises(ValueError):
            F.parse_formula("det( rho )")
        with pytest.raises(ValueError):
            F.parse_formula("Tr( pt[1](rho) * rho )")(S.random_density((2, 2), seed=99))
