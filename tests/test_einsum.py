"""Compiled contraction plans: values against np.einsum(optimize=True), the
stored greedy path, the cost fields and guard, the step program, the caches,
the axis-id limit, the batched engine entry points and the bits of the
single-state routes."""

import hashlib
import importlib
import math
import os
import pkgutil
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import relerr
import luinv
from luinv import closedform, contract, states
from luinv._einsum import (MAX_AXIS_IDS, MAX_PLAN_FLOPS, MAX_PLAN_INTERMEDIATE, PLAN_CACHE_SIZE,
                           Plan, compile_plan, plan)
from luinv.errors import ResourceLimitError
from luinv.perms import enumerate_orbits, parse_label
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
        """The engines' plans store numpy's greedy path of their network
        without the stack id, which is its path at every stack size."""
        networks = []
        for dims in ORACLE_DIMS:
            rho, psi = random_density(dims, seed=9), random_pure(dims, seed=10)
            networks += [(contract._mixed_plan, lab, dims, mixed_network(lab.rep, rho))
                         for lab in labels("mixed", len(dims))]
            networks += [(contract._pure_plan, lab, dims, pure_network(lab.rep, psi))
                         for lab in labels("pure", len(dims))]
        rho, psi = random_density((2, 2), seed=9), random_pure((4, 4, 4), seed=10)
        networks += [(contract._mixed_plan, lab, (2, 2), mixed_network(lab.rep, rho))
                     for lab in enumerate_orbits(4, 2)]
        networks += [(contract._pure_plan, lab, (4, 4, 4), pure_network(lab.rep, psi))
                     for lab in enumerate_orbits(4, 2)]

        def greedy(subs, out, shapes):
            terms, out = renumber(subs, out)
            args = []
            for shape, term in zip(shapes, terms):
                args += [np.broadcast_to(0j, shape), term]
            return np.einsum_path(*args, out, optimize="greedy")[0][1:]

        for build, lab, dims, (ops, subs) in networks:
            shapes = [op.shape for op in ops]
            want = greedy(subs, [], shapes)
            assert list(build(lab.rep, dims).path) == want, (lab, dims)
            assert list(plan(subs, [], shapes).path) == want
            for n in (1, 2, 7, 40):
                stacked = greedy([["n", *ids] for ids in subs], ["n"], [(n, *s) for s in shapes])
                assert stacked == want, (lab, dims, n)

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


    def test_program_reads_each_register_once_and_never_transposes_a_presum(self):
        rho, psi = random_density((2, 2, 2), seed=13), random_pure((3, 3, 3), seed=14)
        networks = [mixed_network(lab.rep, rho) for m in (1, 2, 3, 4)
                    for lab in enumerate_orbits(m, 3)]
        networks += [pure_network(lab.rep, psi) for lab in enumerate_orbits(4, 2)]
        kinds = set()
        for ops, subs in networks:
            for batch in (None, 3):
                shapes = [op.shape for op in ops]
                if batch:
                    subs, shapes = [["n", *ids] for ids in subs], [(batch, *s) for s in shapes]
                p = plan(subs, ["n"] if batch else [], shapes)
                reads = []
                for x, y, sum_x, axes_x, sum_y, axes_y, *_ in p.program:
                    if y is None:
                        reads += x
                        kinds.add("einsum")
                        continue
                    reads += [x, y]
                    for summed, axes in ((sum_x, axes_x), (sum_y, axes_y)):
                        assert summed is None or axes is None
                        kinds.add("presum" if summed else "transpose" if axes else "plain")
                assert sorted(reads) == list(range(len(ops) + len(p.program) - 1))
        assert kinds == {"einsum", "presum", "transpose", "plain"}


    def test_plans_fall_back_to_np_einsum_without_numpys_private_c_einsum(self):
        label, rho = parse_label("[1,3,2],[2,3,1]", 3), random_density((2, 3), seed=4)
        code = (
            "import numpy as np, numpy._core.multiarray as m\n"
            "del m.c_einsum\n"
            "from luinv import _einsum, contract, states\n"
            "from luinv.perms import parse_label\n"
            "assert _einsum.c_einsum is np.einsum\n"
            "label = parse_label('[1,3,2],[2,3,1]', 3)\n"
            "print(repr(contract.eval_mixed(label, states.random_density((2, 3), seed=4))))\n"
        )
        src = str(Path(luinv.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == repr(contract.eval_mixed(label, rho)) + "\n"


class TestCostGuard:
    #: a grade-8 mixed label of 3.08e13 FLOPs on (4,4,4)
    GATE = "[3,5,8,7,1,4,6,2],[4,3,7,5,2,1,8,6],[5,2,6,4,3,7,1,8]"

    def test_flops_and_intermediate_limits(self):
        with pytest.raises(ResourceLimitError, match="2.2e[+]12 FLOPs"):
            plan([["a", "b"], ["b", "c"]], [], [(2**20, 2**20), (2**20, 1)])
        with pytest.raises(ResourceLimitError, match="largest intermediate of 33554432"):
            plan([["a"], ["b"]], ["a", "b"], [(2**13,), (2**12,)])
        assert MAX_PLAN_INTERMEDIATE < 2**25

    def test_the_guard_bounds_one_contraction_of_a_stack(self):
        # "n", on every operand and on the output, indexes the stack
        with pytest.raises(ResourceLimitError, match="intermediate of 33554432 entries per"):
            plan([["n", "a"], ["n", "b"]], ["n", "a", "b"], [(2, 2**13), (2, 2**12)])
        one = plan([["n", "a", "b"], ["n", "b", "c"]], ["n", "a", "c"], [(1,) + (2**12,) * 2] * 2)
        assert one.flops == 2 * 2**36 and one.largest_intermediate == 2**24
        p = plan([["n", "a", "b"], ["n", "b", "c"]], ["n", "a", "c"], [(2**12,) * 3] * 2)
        assert (p.flops, p.largest_intermediate) == (one.flops, 2**24)

    @pytest.mark.parametrize("dims", [(64, 64), (16, 16, 16), (4096,)])
    def test_grade_3_networks_at_the_dim_limit_are_admitted(self, dims):
        # plans only: their operands are broadcast views of one zero
        assert math.prod(dims) == states.DEFAULT_DIM_LIMIT
        worst = [0, 0]
        for kind, r in (("mixed", len(dims)), ("pure", len(dims) - 1)):
            build = contract._mixed_plan if kind == "mixed" else contract._pure_plan
            for m in (1, 2, 3) if r else ():
                for lab in enumerate_orbits(m, r):
                    p = build(lab.rep, dims)
                    closed = closedform._program(lab.rep, dims if kind == "mixed" else dims[:-1])
                    for c in (p, closed.plan):
                        worst = [max(worst[0], c.flops), max(worst[1], c.largest_intermediate)]
        assert 1e11 < worst[0] <= MAX_PLAN_FLOPS and worst[1] == MAX_PLAN_INTERMEDIATE

    def test_stacks_are_admitted_at_any_size(self):
        # a plan keyed at a stack size builds the one plan of size 1, and a
        # stack of any size then runs it
        two, three = (parse_label(",".join(["[2,3,1]"] * k), 3) for k in (2, 3))
        for lab, dims, n in ((two, (32, 16), 40), (three, (3, 3, 3), 30000)):
            one = contract._mixed_plan(lab, dims)
            p = compile_plan(one.terms, one.out, tuple((n,) + s[1:] for s in one.shapes))
            assert (p.flops, p.largest_intermediate, p.path) == (
                one.flops, one.largest_intermediate, one.path)
        # whole, the second stack would be over the intermediate bound
        assert 30000 * contract._mixed_plan(three, (3, 3, 3)).largest_intermediate > 2**24

    def test_gate_label_is_refused_before_any_array_work(self):
        rho = random_density((4, 4, 4), seed=15)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="3.08e[+]13 FLOPs"):
            contract.eval_mixed(parse_label(self.GATE, 8), rho)
        assert time.perf_counter() - start < 1.0

    def test_benchmark_networks_are_admitted(self):
        # the costliest networks the tests and benchmarks run: grade-4 pure
        # labels at (4,4,4), up to 1.3e8 FLOPs
        worst = max(contract._pure_plan(lab.rep, (4, 4, 4)).flops
                    for lab in enumerate_orbits(4, 2))
        assert 1e8 < worst < MAX_PLAN_FLOPS / 10


#: The dims of the oracle sweep, and the sha256 of every single-state value
#: on them (see TestSingleStateRoutes), as the per-step engine gave them.
ORACLE_DIMS = [(2, 2), (3, 3), (2, 2, 2), (3, 3, 3), (2, 2, 2, 2)]
SINGLE_STATE_SHA256 = "6924a56bc5d9210db64689efc59b4368f299a630acc5334962ac02a17e86effb"


class TestSingleStateRoutes:
    def test_values_are_pinned_to_the_bit(self):
        values = []
        for d, dims in enumerate(ORACLE_DIMS):
            k = len(dims)
            for seed in (11 + d, 47 + d):
                psi, rho = random_pure(dims, seed), random_density(dims, seed + 1)
                for m in (1, 2, 3):
                    for lab in enumerate_orbits(m, k - 1):
                        values += [contract.eval_pure(lab, psi),
                                   closedform.closed_form(lab, "pure", psi)]
                        values += [w.evaluate_text(psi)
                                   for w in closedform.alternate_writings(lab, "pure")]
                    for lab in enumerate_orbits(m, k):
                        values += [contract.eval_mixed(lab, rho),
                                   closedform.closed_form(lab, "mixed", rho)]
                        values += [w.evaluate_text(rho)
                                   for w in closedform.alternate_writings(lab, "mixed")]
        assert all(type(v) is complex for v in values)
        digest = hashlib.sha256(np.array(values, dtype=complex).tobytes()).hexdigest()
        assert digest == SINGLE_STATE_SHA256

    @pytest.mark.parametrize("dims", ORACLE_DIMS)
    def test_closed_form_is_the_batch_of_one(self, dims):
        # and so are the engines
        engines = {"pure": contract.eval_pure_batch, "mixed": contract.eval_mixed_batch}
        evaluate = {"pure": contract.eval_pure, "mixed": contract.eval_mixed}
        psi, rho = random_pure(dims, seed=16), random_density(dims, seed=17)
        for kind, state, data, r in (("pure", psi, psi.amplitudes, len(dims) - 1),
                                     ("mixed", rho, rho.entries, len(dims))):
            for m in (1, 2, 3):
                for lab in enumerate_orbits(m, r):
                    batch = closedform.closed_form_batch(lab, kind, dims, data[None])
                    assert closedform.closed_form(lab, kind, state) == batch[0]
                    batch = engines[kind](lab, dims, data[None])
                    assert evaluate[kind](lab, state) == batch[0]


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
        # stacks of every size run one plan per (label, dims), compiled once
        mixed, pure = enumerate_orbits(3, 2)[5].rep, enumerate_orbits(3, 1)[1].rep
        rho_stack, _, psi_stack, _ = stacks((2, 2), 40, seed=0)
        for cache in (contract._mixed_plan, contract._pure_plan, compile_plan):
            cache.cache_clear()
        plans = contract._mixed_plan(mixed, (2, 2)), contract._pure_plan(pure, (2, 2))
        hits = contract._mixed_plan.cache_info().hits, contract._pure_plan.cache_info().hits
        for n in (1, 3, 40):
            assert contract.eval_mixed_batch(mixed, [2, 2], rho_stack[:n]).shape == (n,)
            assert contract.eval_pure_batch(pure, (2, 2), psi_stack[:n]).shape == (n,)
        assert contract._mixed_plan.cache_info().hits == hits[0] + 3
        assert contract._pure_plan.cache_info().hits == hits[1] + 3
        assert contract._mixed_plan(mixed, (2, 2)) is plans[0]
        assert contract._pure_plan(pure, (2, 2)) is plans[1]
        assert compile_plan.cache_info().misses == 2
        assert plans[0].shapes == ((1, 2, 2, 2, 2),) * 3
        assert plans[1].shapes == ((1, 2, 2),) * 6

    def test_per_state_plan_survives_a_batched_call(self):
        # a single state runs the plan that stacks run, as a stack of one,
        # and its value is the same before and after stacks of any size
        lab = enumerate_orbits(3, 2)[7]
        rho = random_density((2, 2), seed=12)
        value = contract.eval_mixed(lab, rho)
        plan_ = contract._mixed_plan(lab.rep, (2, 2))
        for n in (1, 4, 40):
            got = contract.eval_mixed_batch(lab, rho.dims, np.stack([rho.entries] * n))
            assert (got == value).all()
        hits = contract._mixed_plan.cache_info().hits
        assert contract.eval_mixed(lab, rho) == value
        assert contract._mixed_plan.cache_info().hits == hits + 1
        assert contract._mixed_plan(lab.rep, (2, 2)) is plan_
        assert plan_.shapes == ((1, 2, 2, 2, 2),) * 3

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

    def test_dims_over_the_guard_are_refused(self):
        mixed, pure = enumerate_orbits(2, 2)[1], enumerate_orbits(2, 1)[1]
        rhos, (rho, _), psis, (psi, _) = stacks((2, 2), 2, seed=0)
        with states.dim_limit(3):
            with pytest.raises(ResourceLimitError, match="exceeds limit 3"):
                contract.eval_mixed_batch(mixed, (2, 2), rhos)
            with pytest.raises(ResourceLimitError, match="exceeds limit 3"):
                contract.eval_pure_batch(pure, (2, 2), psis)
            with pytest.raises(ResourceLimitError, match="exceeds limit 3"):
                contract.eval_mixed(mixed, rho)
            with pytest.raises(ResourceLimitError, match="exceeds limit 3"):
                contract.eval_pure(pure, psi)
