"""Compiled contraction plans: values against np.einsum(optimize=True), the
stored greedy path, the cost fields, the caches, the axis-id limit and the
batched engine entry points."""

import importlib
import pkgutil
import re

import numpy as np
import pytest

from conftest import relerr
import luinv
from luinv import contract, states
from luinv._einsum import MAX_AXIS_IDS, PLAN_CACHE_SIZE, Plan, compile_plan, plan
from luinv.errors import ResourceLimitError
from luinv.perms import enumerate_orbits
from luinv.states import random_density, random_hermitian, random_pure

DIMS = [(2, 2), (3, 3), (2, 2, 2)]


def renumber(subscripts, out):
    mapping = {}
    terms = [[mapping.setdefault(i, len(mapping)) for i in ids] for ids in subscripts]
    return terms, [mapping.setdefault(i, len(mapping)) for i in out]


def reference(operands, subscripts, out):
    terms, out = renumber(subscripts, out)
    args = []
    for op, term in zip(operands, terms):
        args += [op, term]
    return np.einsum(*args, out, optimize=True)


def fresh(operands, subscripts, out):
    """The same contraction through a plan built outside every cache."""
    terms, out = renumber(subscripts, out)
    p = Plan(tuple(map(tuple, terms)), tuple(out), tuple(op.shape for op in operands))
    return p(*operands)


def mixed_network(sigma, rho):
    m, k = sigma.m, sigma.r
    subscripts = [[(j, l) for j in range(1, k + 1)]
                  + [(j, sigma.perms[j - 1](l)) for j in range(1, k + 1)]
                  for l in range(1, m + 1)]
    return [rho.tensor()] * m, subscripts


def pure_network(sigma, psi):
    m, k = sigma.m, psi.k
    subscripts = [[(j, l) for j in range(1, k + 1)] for l in range(1, m + 1)]
    subscripts += [[(j, sigma.perms[j - 1](l)) for j in range(1, k)] + [(k, l)]
                   for l in range(1, m + 1)]
    return [psi.amplitudes] * m + [psi.amplitudes.conj()] * m, subscripts


def labels(kind, k):
    r = k - 1 if kind == "pure" else k
    return [lab for m in (1, 2, 3) for lab in enumerate_orbits(m, r)]


class TestEngineValues:
    @pytest.mark.parametrize("dims", DIMS)
    def test_mixed_labels(self, dims):
        rho = random_density(dims, seed=5)
        for lab in labels("mixed", len(dims)):
            ops, subs = mixed_network(lab.rep, rho)
            ref = complex(reference(ops, subs, []))
            for value in (contract.eval_mixed(lab, rho), contract.eval_mixed(lab, rho),
                          complex(fresh(ops, subs, []))):
                assert relerr(value, ref) < 1e-12, lab

    @pytest.mark.parametrize("dims", DIMS)
    def test_pure_labels(self, dims):
        psi = random_pure(dims, seed=6)
        for lab in labels("pure", len(dims)):
            ops, subs = pure_network(lab.rep, psi)
            ref = complex(reference(ops, subs, []))
            for value in (contract.eval_pure(lab, psi), contract.eval_pure(lab, psi),
                          complex(fresh(ops, subs, []))):
                assert relerr(value, ref) < 1e-12, lab

    def test_multi_operand_fallback_step(self):
        """(s, s2) at (2,2,2) is a pure label whose greedy path ends in one
        einsum over more than two operands."""
        psi = random_pure((2, 2, 2), seed=7)
        lab = next(lab for lab in enumerate_orbits(3, 2)
                   if [p.images for p in lab.rep.perms] == [(2, 3, 1), (3, 1, 2)])
        ops, subs = pure_network(lab.rep, psi)
        p = plan(subs, [], [op.shape for op in ops])
        assert any(len(entry) > 2 for entry in p.path)
        assert relerr(complex(p(*ops)), complex(reference(ops, subs, []))) < 1e-12


class TestBuildingBlocks:
    @pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (3, 1, 2)])
    def test_partial_trace(self, dims):
        rho = random_hermitian(dims, seed=8)
        k = len(dims)
        for mask in range(1, 2**k):
            traced = [j for j in range(1, k + 1) if mask >> (j - 1) & 1]
            keep = [j for j in range(1, k + 1) if j not in traced]
            subs = [[("t", j) if j in traced else ("r", j) for j in range(1, k + 1)]
                    + [("t", j) if j in traced else ("c", j) for j in range(1, k + 1)]]
            out = [("r", j) for j in keep] + [("c", j) for j in keep]
            ref = reference([rho.tensor()], subs, out)
            got = states.partial_trace(rho, traced).entries
            n = got.shape[0]
            assert np.allclose(got, ref.reshape(n, n), rtol=1e-12, atol=1e-12)


class TestPlan:
    def test_path_is_numpys_greedy_path(self):
        rho = random_density((2, 2, 2), seed=9)
        for lab in enumerate_orbits(3, 3):
            ops, subs = mixed_network(lab.rep, rho)
            terms, out = renumber(subs, [])
            args = []
            for op, term in zip(ops, terms):
                args += [op, term]
            want = np.einsum_path(*args, out, optimize="greedy")[0]
            assert list(plan(subs, [], [op.shape for op in ops]).path) == want[1:]

    def test_cost_fields_match_numpy_report(self):
        psi = random_pure((4, 4, 4), seed=10)
        for lab in enumerate_orbits(4, 2)[:10]:
            ops, subs = pure_network(lab.rep, psi)
            terms, out = renumber(subs, [])
            args = []
            for op, term in zip(ops, terms):
                args += [op, term]
            report = np.einsum_path(*args, out, optimize="greedy")[1]
            flops = float(re.search(r"Optimized FLOP count:\s+(\S+)", report).group(1))
            largest = float(re.search(r"Largest intermediate:\s+(\S+)", report).group(1))
            p = plan(subs, [], [op.shape for op in ops])
            # numpy reports the sum of its step costs plus one
            assert p.flops + 1 == pytest.approx(flops, rel=1e-3)
            assert p.largest_intermediate == pytest.approx(largest, rel=1e-3)

    def test_second_call_is_a_cache_hit(self):
        subs, out, shapes = [["a", "b"], ["b", "c"]], ["c", "a"], [(2, 5), (5, 3)]
        first = plan(subs, out, shapes)
        hits = compile_plan.cache_info().hits
        assert plan(subs, out, shapes) is first
        assert compile_plan.cache_info().hits == hits + 1
        # renumbering makes the key independent of the id names
        assert plan([[0, 1], [1, 2]], [2, 0], shapes) is first

    def test_other_shapes_give_another_plan(self):
        subs, out = [["a", "b"], ["b", "c"]], ["c", "a"]
        small = plan(subs, out, [(2, 5), (5, 3)])
        large = plan(subs, out, [(4, 5), (5, 6)])
        assert small is not large
        assert large.shapes == ((4, 5), (5, 6))
        x, y = np.ones((4, 5)), np.ones((5, 6))
        assert large(x, y).shape == (6, 4)

    def test_engine_hit_skips_the_plan_cache(self):
        rho = random_density((2, 2), seed=11)
        lab = enumerate_orbits(3, 2)[4]
        contract.eval_mixed(lab, rho)
        before = contract._mixed_plan.cache_info().hits, compile_plan.cache_info()
        contract.eval_mixed(lab, rho)
        assert contract._mixed_plan.cache_info().hits == before[0] + 1
        assert compile_plan.cache_info() == before[1]

    def test_caches_are_bounded_by_constants(self):
        assert isinstance(PLAN_CACHE_SIZE, int) and PLAN_CACHE_SIZE > 0
        # caches bounded by something else, each with the reason
        exempt = {
            "luinv.perms._conjugators": "one entry per grade, at most MAX_GRADE",
            "luinv.perms.symmetric_group": "one entry per grade, at most MAX_GRADE",
            "luinv.perms._interned": "one entry per grade, at most MAX_GRADE",
            "luinv.perms._classes": "one entry per grade, at most MAX_GRADE",
            "luinv.cli.build_parser": "one entry: it takes no arguments",
        }
        found = set()
        for info in pkgutil.iter_modules(luinv.__path__):
            if info.name == "__main__":  # importing it runs the CLI
                continue
            module = importlib.import_module(f"luinv.{info.name}")
            for name, obj in vars(module).items():
                if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                    key = f"{module.__name__}.{name}"
                    found.add(key)
                    if key not in exempt:
                        assert obj.cache_info().maxsize == PLAN_CACHE_SIZE, key
        assert set(exempt) <= found
        assert {"luinv._einsum.compile_plan", "luinv.contract._mixed_plan",
                "luinv.states._partial_trace_plan", "luinv.closedform._program"} <= found

    def test_shape_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            plan([["a", "b"], ["b"]], [], [(2, 3), (4,)])
        with pytest.raises(ValueError):
            plan([["a"]], ["z"], [(2,)])

    def test_axis_id_limit(self):
        one = np.ones((1,) * MAX_AXIS_IDS)
        assert plan([list(range(MAX_AXIS_IDS))], [], [one.shape])(one) == 1.0
        with pytest.raises(ResourceLimitError, match="53 axis ids"):
            plan([list(range(MAX_AXIS_IDS + 1))], [], [(1,) * (MAX_AXIS_IDS + 1)])



def stacks(dims, n, seed):
    """n random density matrices (n, N, N) and n random pure states
    (n, *dims) as arrays, with the state objects they hold."""
    rhos = [random_density(dims, seed=seed + i) for i in range(n)]
    psis = [random_pure(dims, seed=seed + 20 + i) for i in range(n)]
    return (np.stack([rho.entries for rho in rhos]), rhos,
            np.stack([psi.amplitudes for psi in psis]), psis)


class TestBatchedEngines:
    @pytest.mark.parametrize("dims,grades", [((2, 2), (1, 2, 3, 4)), ((3, 3), (1, 2, 3)),
                                             ((2, 2, 2), (1, 2, 3))])
    @pytest.mark.parametrize("n", [1, 7])
    def test_matches_per_state_engines(self, dims, grades, n):
        k = len(dims)
        rho_stack, rhos, psi_stack, psis = stacks(dims, n, seed=20)
        for m in grades:
            for lab in enumerate_orbits(m, k):
                got = contract.eval_mixed_batch(lab, dims, rho_stack)
                assert got.shape == (n,) and got.dtype == complex
                for value, rho in zip(got, rhos):
                    assert relerr(value, contract.eval_mixed(lab, rho)) < 1e-12, lab
            for lab in enumerate_orbits(m, k - 1):
                got = contract.eval_pure_batch(lab, dims, psi_stack)
                assert got.shape == (n,) and got.dtype == complex
                for value, psi in zip(got, psis):
                    assert relerr(value, contract.eval_pure(lab, psi)) < 1e-12, lab

    def test_one_plan_per_label_dims_and_size(self):
        lab = enumerate_orbits(3, 2)[5].rep
        rhos, _, psis, _ = stacks((2, 2), 3, seed=0)
        contract.eval_mixed_batch(lab, (2, 2), rhos)
        three = contract._mixed_plan(lab, (2, 2), 3)
        assert three.shapes == ((3, 2, 2, 2, 2),) * 3
        hits = contract._mixed_plan.cache_info().hits
        contract.eval_mixed_batch(lab, [2, 2], rhos[[2, 0, 1]])
        assert contract._mixed_plan.cache_info().hits == hits + 1
        assert contract._mixed_plan(lab, (2, 2), 3) is three
        contract.eval_mixed_batch(lab, (2, 2), rhos[:2])
        two = contract._mixed_plan(lab, (2, 2), 2)
        assert two is not three and two.shapes == ((2, 2, 2, 2, 2),) * 3
        assert contract._mixed_plan(lab, (2, 2)) not in (two, three)

        pure = enumerate_orbits(3, 1)[1].rep
        contract.eval_pure_batch(pure, (2, 2), psis)
        assert contract._pure_plan(pure, (2, 2), 3).shapes == ((3, 2, 2),) * 6
        assert contract._pure_plan(pure, (2, 2), 3) is contract._pure_plan(pure, (2, 2), 3)

    def test_per_state_plan_survives_a_batched_call(self):
        lab = enumerate_orbits(3, 2)[7]
        rho = random_density((2, 2), seed=12)
        value = contract.eval_mixed(lab, rho)
        unbatched = contract._mixed_plan(lab.rep, (2, 2))
        contract.eval_mixed_batch(lab, rho.dims, np.stack([rho.entries] * 4))
        hits = contract._mixed_plan.cache_info().hits
        assert contract.eval_mixed(lab, rho) == value
        assert contract._mixed_plan.cache_info().hits == hits + 1
        assert contract._mixed_plan(lab.rep, (2, 2)) is unbatched
        assert unbatched.shapes == ((2, 2, 2, 2),) * 3

    def test_bad_stacks_are_rejected(self):
        mixed, pure = enumerate_orbits(2, 2)[1], enumerate_orbits(2, 1)[1]
        rhos, _, psis, _ = stacks((2, 2), 2, seed=0)
        for call, lab, stack in ((contract.eval_mixed_batch, mixed, rhos),
                                 (contract.eval_pure_batch, pure, psis)):
            with pytest.raises(ValueError, match="at least one"):
                call(lab, (2, 2), stack[:0])
            with pytest.raises(ValueError, match="shape"):
                call(lab, (2, 3), stack)
            with pytest.raises(ValueError, match="shape"):
                call(lab, (2, 2), stack[0])
            with pytest.raises(ValueError, match="positive"):
                call(lab, (2, 0), stack)
        with pytest.raises(ValueError, match="shape"):
            contract.eval_mixed_batch(mixed, (2, 2), psis)
        with pytest.raises(ValueError, match="shape"):
            contract.eval_pure_batch(pure, (2, 2), rhos)
        with pytest.raises(ValueError, match="arity"):
            contract.eval_mixed_batch(pure, (2, 2), rhos)
        with pytest.raises(ValueError, match="arity"):
            contract.eval_pure_batch(mixed, (2, 2), psis)

    def test_dims_over_the_guard_are_refused(self, monkeypatch):
        mixed, pure = enumerate_orbits(2, 2)[1], enumerate_orbits(2, 1)[1]
        rhos, _, psis, _ = stacks((2, 2), 2, seed=0)
        monkeypatch.setattr(states, "_dim_limit", 3)
        with pytest.raises(ResourceLimitError, match="exceeds limit 3"):
            contract.eval_mixed_batch(mixed, (2, 2), rhos)
        with pytest.raises(ResourceLimitError, match="exceeds limit 3"):
            contract.eval_pure_batch(pure, (2, 2), psis)
