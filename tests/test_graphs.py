import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import relerr, unit_pure
from luinv import contract as C
from luinv import graphs as G
from luinv import perms as P
from luinv import states as S
from luinv.errors import ResourceLimitError


def tuples_over(m, r):
    group = P.symmetric_group(m)
    for combo in itertools.product(group, repeat=r):
        yield P.PermTuple(m, combo)


class TestBuildGraph:
    def test_single_vertex_two_loops(self):
        g = G.build_graph(P.PermTuple(1, (P.identity(1), P.identity(1))))
        assert g.m == 1 and g.r == 2

    def test_embedded_pure_label_has_last_color_loops(self):
        sig = P.perm_tuple(2, "t").embed()
        g = G.build_graph(sig)
        assert g.perms[-1].is_identity()

    def test_round_trip(self):
        """A label is its graph: build_graph hands the tuple back."""
        sig = P.perm_tuple(3, "s", "t", "ts2")
        assert G.build_graph(sig) is sig

    def test_color_grade_must_match(self):
        with pytest.raises(ValueError, match="grade"):
            G.graph_from_json('{"m": 3, "colors": [[1, 2]]}')


class TestCanonicalGraph:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_invariant_under_relabeling(self, data):
        m = data.draw(st.integers(2, 4))
        group = P.symmetric_group(m)
        entries = tuple(data.draw(st.sampled_from(group)) for _ in range(2))
        beta = data.draw(st.sampled_from(group))
        sig = P.PermTuple(m, entries)
        a = G.canonical_graph(G.build_graph(sig))
        b = G.canonical_graph(G.build_graph(sig.conjugated(beta)))
        assert a == b

    def test_m3_k2_has_eleven_fibers(self):
        strings = {G.canonical_graph(G.build_graph(t)) for t in tuples_over(3, 2)}
        assert len(strings) == 11

    def test_te_et_distinct(self):
        a = G.canonical_graph(G.build_graph(P.perm_tuple(2, "t", "e")))
        b = G.canonical_graph(G.build_graph(P.perm_tuple(2, "e", "t")))
        assert a != b

    @pytest.mark.parametrize("m,k", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_fibers_match_orbit_count(self, m, k):
        strings = {G.canonical_graph(G.build_graph(t)) for t in tuples_over(m, k)}
        assert len(strings) == len(P.enumerate_orbits(m, k))

    def test_grade_guard(self):
        with pytest.raises(ResourceLimitError):
            G.canonical_graph(G.build_graph(P.PermTuple(9, (P.identity(9),))))


class TestComponents:
    def test_all_identity_splits_to_singletons(self):
        g = G.build_graph(P.PermTuple(3, (P.identity(3),)))
        comps = G.connected_components(g)
        assert [c[1] for c in comps] == [(1,), (2,), (3,)]

    def test_transitive_is_single_component(self):
        g = G.build_graph(P.perm_tuple(3, "t", "ts"))
        assert len(G.connected_components(g)) == 1

    def test_partition_matches_orbits(self):
        sig = P.perm_tuple(3, "t", "t")
        comps = G.connected_components(G.build_graph(sig))
        assert sorted(c[1] for c in comps) == [(1, 2), (3,)]

    def test_invariant_factorizes_over_components(self):
        sig = P.PermTuple(4, (P.Perm((2, 1, 4, 3)), P.Perm((1, 2, 4, 3))))
        psi = unit_pure((2, 2, 2), seed=0)
        comps = G.connected_components(G.build_graph(sig.embed()))
        assert len(comps) == 2
        prod = 1 + 0j
        for sub, _ in comps:
            prod *= C.eval_pure(P.PermTuple(sub.m, sub.perms[:-1]), psi)
        assert relerr(prod, C.eval_pure(sig, psi)) < 1e-12


class TestClassSplitGraphs:
    def test_members_give_distinct_graphs_but_equal_pure_values(self):
        psi = unit_pure((2, 2), seed=1)
        pi = S.projector(psi)
        for lab in P.enumerate_orbits(3, 1):
            members = P.sim_decompose(lab.rep).members
            strings = {G.canonical_graph(G.build_graph(m.rep)) for m in members}
            assert len(strings) == len(members)
            vals = [C.eval_mixed(m, pi) for m in members]
            assert max(abs(v - vals[0]) for v in vals) < 1e-12


class TestDotExport:
    def test_single_vertex(self):
        g = G.build_graph(P.PermTuple(1, (P.identity(1),) * 2))
        dot = G.dot_export(g)
        assert dot.count("->") == 2
        assert dot.startswith("digraph")

    def test_deterministic_and_complete(self):
        g = G.build_graph(P.perm_tuple(3, "s", "t"))
        dot1 = G.dot_export(g)
        dot2 = G.dot_export(g)
        assert dot1 == dot2
        assert dot1.count("->") == g.m * g.r
        for v in (1, 2, 3):
            assert f'v{v} [shape=circle label="{v}"];' in dot1

    def test_direction_convention(self):
        # color edge points from sigma(l) to l
        g = G.build_graph(P.PermTuple(2, (P.Perm((2, 1)),)))
        dot = G.dot_export(g)
        assert "v2 -> v1 [color=black];" in dot
        assert "v1 -> v2 [color=black];" in dot

    def test_golden_two_copy_swap(self):
        # embedded pure swap label: one swap color, one loop color
        g = G.build_graph(P.perm_tuple(2, "t").embed())
        assert G.dot_export(g) == (
            "digraph invariant {\n"
            '  v1 [shape=circle label="1"];\n'
            '  v2 [shape=circle label="2"];\n'
            "  v2 -> v1 [color=black];\n"
            "  v1 -> v2 [color=black];\n"
            "  v1 -> v1 [color=red];\n"
            "  v2 -> v2 [color=red];\n"
            "}\n"
        )


class TestGraphJson:
    def test_round_trip(self):
        g = G.build_graph(P.perm_tuple(3, "s", "t"))
        again = G.graph_from_json(G.graph_to_json(g))
        assert again == g

    def test_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            G.graph_from_json('{"m": 2}')

    @pytest.mark.parametrize("m", [0, -3])
    def test_grade_below_one_is_malformed(self, m):
        with pytest.raises(ValueError, match="malformed graph JSON"):
            G.graph_from_json(f'{{"m": {m}, "colors": []}}')

    @pytest.mark.parametrize("text", [
        '{"m": 2.7, "colors": [[2.9, 1]]}',
        '{"m": true, "colors": [[true]]}',
        '{"m": 2, "colors": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ], ids=["floats", "booleans", "deep-nesting"])
    def test_non_integers_and_deep_nesting_are_malformed(self, text):
        with pytest.raises(ValueError, match="malformed graph JSON"):
            G.graph_from_json(text)


def ordering_satisfies(g, order):
    position = {v: i for i, v in enumerate(order)}
    for p in g.perms:
        for cyc in p.cycles():
            if not G._cycle_fits(cyc, position, g.m):
                return False
    return True


class TestExpressibility:
    def test_every_m3_class_has_ordering(self):
        for lab in P.enumerate_orbits(3, 2):
            g = G.build_graph(lab.rep)
            order = G.expressible_ordering(g)
            assert order is not None
            assert ordering_satisfies(g, order)

    def test_m2(self):
        for lab in P.enumerate_orbits(2, 2):
            assert G.expressible_ordering(G.build_graph(lab.rep)) is not None

    def test_nested_loop_shape(self):
        # two same-color loops with the other color chaining everything
        sig = P.PermTuple(4, (P.Perm((2, 1, 4, 3)), P.Perm((2, 3, 4, 1))))
        order = G.expressible_ordering(G.build_graph(sig))
        assert order is not None

    def test_four_cycle_with_crossing_swaps_is_inexpressible(self):
        sig = P.PermTuple(4, (P.Perm((2, 3, 4, 1)), P.Perm((3, 4, 1, 2))))
        assert G.expressible_ordering(G.build_graph(sig)) is None

    def test_m4_k2_has_inexpressible_class(self):
        found = []
        for lab in P.enumerate_orbits(4, 2):
            if G.expressible_ordering(G.build_graph(lab.rep)) is None:
                found.append(lab)
        assert found, "every m=4, k=2 class admitted an ordering"

    def test_returned_order_contract(self):
        for lab in P.enumerate_orbits(4, 2):
            g = G.build_graph(lab.rep)
            order = G.expressible_ordering(g)
            if order is not None:
                assert order[0] == 1
                assert ordering_satisfies(g, order)
