import itertools
from collections import Counter
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from luinv import perms as P
from luinv.errors import ResourceLimitError


def named(*names, m=3):
    return P.perm_tuple(m, *names)


E, S, S2, T, TS, TS2 = (P.perm_from_name(n, 3) for n in ("e", "s", "s2", "t", "ts", "ts2"))


# -- independent brute-force oracle (no library canonicalization) -------------

def oracle_canonical(images_tuple):
    """Min over simultaneous conjugation, done with raw index arithmetic."""
    m = len(images_tuple[0])
    best = None
    for beta in itertools.permutations(range(1, m + 1)):
        def apply(p, l):
            return p[l - 1]
        inv = [0] * m
        for i, b in enumerate(beta, start=1):
            inv[b - 1] = i
        conj = tuple(
            tuple(apply(beta, apply(p, inv[l - 1])) for l in range(1, m + 1))
            for p in images_tuple
        )
        key = tuple(x for p in conj for x in p)
        if best is None or key < best[1]:
            best = (conj, key)
    return best[0]


def partitions(m, largest=None):
    largest = m if largest is None else largest
    if m == 0:
        yield ()
    for part in range(min(m, largest), 0, -1):
        for rest in partitions(m - part, part):
            yield (part,) + rest


def burnside_count(m, r):
    """Orbits of S_m^r under simultaneous conjugation: the sum over cycle
    types lambda of z_lambda^(r-1), z_lambda the centralizer order."""
    total = 0
    for lam in partitions(m):
        z = prod(i ** a * factorial(a) for i, a in Counter(lam).items())
        total += z ** (r - 1)
    return total


class TestCompose:
    def test_identity(self):
        assert P.compose(T, P.identity(3)) == T

    def test_involution(self):
        assert P.compose(T, T) == P.identity(3)

    def test_convention_fixing(self):
        # image-list composition applies the right factor first
        assert P.compose(T, S).images == (1, 3, 2)
        assert P.compose(T, S) == TS

    def test_grade_mismatch(self):
        with pytest.raises(ValueError, match="grade mismatch"):
            P.compose(T, P.identity(2))


class TestConjugate:
    def test_by_identity(self):
        for g in (S, T, TS2):
            assert P.conjugate(P.identity(3), g) == g

    def test_table_entries(self):
        assert P.conjugate(S, T) == TS
        assert P.conjugate(T, S) == S2

    def test_full_table(self):
        rows = {
            "e": ["e", "s", "s2", "t", "ts", "ts2"],
            "s": ["e", "s", "s2", "ts", "ts2", "t"],
            "s2": ["e", "s", "s2", "ts2", "t", "ts"],
            "t": ["e", "s2", "s", "t", "ts2", "ts"],
            "ts": ["e", "s2", "s", "ts2", "ts", "t"],
            "ts2": ["e", "s2", "s", "ts", "t", "ts2"],
        }
        cols = ["e", "s", "s2", "t", "ts", "ts2"]
        for b, want in rows.items():
            got = [
                P.perm_name(P.conjugate(P.perm_from_name(b, 3), P.perm_from_name(g, 3)))
                for g in cols
            ]
            assert got == want, f"row {b}"


class TestCanonicalForm:
    def test_all_identity_fixed(self):
        sig = named("e", "e", "e")
        assert P.canonical_form(sig).rep == sig

    def test_ts_e_against_oracle(self):
        # lex-min over the orbit {(t,e),(ts,e),(ts2,e)} is (ts,e): ts=[1,3,2]
        # sorts before t=[2,1,3]
        sig = named("ts", "e")
        got = P.canonical_form(sig).rep
        want = oracle_canonical(tuple(p.images for p in sig.perms))
        assert tuple(p.images for p in got.perms) == want
        assert got == named("ts", "e")

    def test_s2_s_against_oracle(self):
        sig = named("s2", "s")
        got = P.canonical_form(sig).rep
        want = oracle_canonical(tuple(p.images for p in sig.perms))
        assert tuple(p.images for p in got.perms) == want
        assert got == named("s", "s2")

    def test_idempotent(self):
        for entries in itertools.product([E, S, S2, T, TS, TS2], repeat=2):
            lab = P.canonical_form(P.PermTuple(3, entries))
            assert P.canonical_form(lab.rep) == lab

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_constant_on_orbits(self, data):
        m = data.draw(st.integers(2, 4))
        group = P.symmetric_group(m)
        r = data.draw(st.integers(0, 3))
        entries = tuple(data.draw(st.sampled_from(group)) for _ in range(r))
        beta = data.draw(st.sampled_from(group))
        sig = P.PermTuple(m, entries)
        assert P.canonical_form(sig) == P.canonical_form(sig.conjugated(beta))

    def test_grade_guard(self):
        with pytest.raises(ResourceLimitError, match="too large"):
            P.canonical_form(P.PermTuple(9, (P.identity(9),)))

    def test_noncanonical_label_rejected(self):
        with pytest.raises(ValueError, match="not canonical"):
            P.OrbitLabel(named("t", "e"))

    def test_built_labels_pass_the_check(self):
        """Labels built without the canonicity check pass it."""
        labels = list(P.enumerate_orbits(4, 2)) + list(P.enumerate_orbits(3, 3))
        labels += [member for lab in P.enumerate_orbits(3, 2)
                   for member in P.sim_decompose(lab.rep).members]
        labels += [P.canonical_form(named(*names))
                   for names in [("t", "e"), ("s2", "ts", "t"), ("ts2", "s")]]
        for lab in labels:
            assert P.OrbitLabel(lab.rep) == lab

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_matches_oracle_m4_to_m6(self, data):
        m = data.draw(st.integers(4, 6))
        group = list(itertools.permutations(range(1, m + 1)))
        r = data.draw(st.integers(1, 3))
        images = tuple(data.draw(st.sampled_from(group)) for _ in range(r))
        got = P.canonical_form(P.PermTuple(m, tuple(P.Perm(p) for p in images))).rep
        assert tuple(p.images for p in got.perms) == oracle_canonical(images)


class TestEnumerateOrbits:
    def test_m2_r1(self):
        labs = P.enumerate_orbits(2, 1)
        assert [P.format_label(l.rep) for l in labs] == ["e", "t"]

    def test_m3_r1(self):
        labs = P.enumerate_orbits(3, 1)
        assert [P.format_label(l.rep) for l in labs] == ["e", "ts", "s"]
        # [ts] is the canonical representative of the transposition class

    def test_m3_r2_is_eleven(self):
        assert len(P.enumerate_orbits(3, 2)) == 11

    def test_m3_r2_matches_named_list(self):
        want = {
            P.canonical_form(named(*nm)).rep
            for nm in [
                ("e", "e"), ("e", "t"), ("t", "e"), ("t", "t"), ("e", "s"),
                ("s", "e"), ("s", "s"), ("t", "s"), ("s", "t"), ("t", "ts"),
                ("s", "s2"),
            ]
        }
        got = {l.rep for l in P.enumerate_orbits(3, 2)}
        assert got == want

    def test_m3_r3_is_49(self):
        assert len(P.enumerate_orbits(3, 3)) == 49

    def test_m1_any_r(self):
        for r in (0, 1, 5):
            labs = P.enumerate_orbits(1, r)
            assert len(labs) == 1
            assert all(p.is_identity() for p in labs[0].rep.perms)

    def test_sorted_and_unique(self):
        labs = P.enumerate_orbits(3, 2)
        keys = [l.rep.key() for l in labs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            P.enumerate_orbits(5, 6)

    @pytest.mark.parametrize("m,r,count", [(4, 3, 681), (5, 2, 161), (3, 5, 1393), (2, 6, 64)])
    def test_burnside_counts(self, m, r, count):
        assert burnside_count(m, r) == count
        assert len(P.enumerate_orbits(m, r)) == count


class TestS3Algorithm:
    def test_r1(self):
        got = {P.canonical_form(t) for t in P.s3_orbit_representatives(1)}
        assert got == set(P.enumerate_orbits(3, 1))

    def test_r2_named_list(self):
        reps = P.s3_orbit_representatives(2)
        names = {P.format_label(t) for t in reps}
        assert names == {
            "e,e", "e,t", "t,e", "t,t", "e,s", "s,e", "s,s", "t,s", "s,t",
            "t,ts", "s,s2",
        }

    @pytest.mark.parametrize("r,count", [(2, 11), (3, 49), (4, 251), (5, 1393)])
    def test_counts(self, r, count):
        assert len(P.s3_orbit_representatives(r)) == count

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_bijection_with_brute_force(self, r):
        reps = P.s3_orbit_representatives(r)
        canon = [P.canonical_form(t) for t in reps]
        assert len(set(canon)) == len(reps), "two representatives share an orbit"
        assert set(canon) == set(P.enumerate_orbits(3, r))

    def test_orbit_lengths(self):
        # all-[s] entries: length 2; same-element [t]: 3; two different [t]
        # or [s] with [t]: 6 (identity slots never matter)
        assert len(P.orbit(named("s", "s2", "e"))) == 2
        assert len(P.orbit(named("t", "t", "e"))) == 3
        assert len(P.orbit(named("t", "ts"))) == 6
        assert len(P.orbit(named("s", "t"))) == 6


class TestTransitivity:
    def test_all_identity(self):
        assert not P.is_transitive(named("e", "e"))
        assert not P.is_transitive(P.PermTuple(2, ()))

    def test_m1_trivially_transitive(self):
        assert P.is_transitive(P.PermTuple(1, ()))
        assert P.is_transitive(P.perm_tuple(1, "e"))

    def test_m2(self):
        assert P.is_transitive(P.perm_tuple(2, "t", "e"))

    def test_m3(self):
        assert not P.is_transitive(named("t", "t"))
        assert P.is_transitive(named("t", "ts"))

    def test_r1_transitive_iff_three_cycle(self):
        for g in (E, S, S2, T, TS, TS2):
            assert P.is_transitive(P.PermTuple(3, (g,))) == (g in (S, S2))

    def test_generator_counts_m2(self):
        for r in range(1, 6):
            assert len(P.generator_labels(2, r)) == 2 ** r - 1

    def test_generator_count_m3_r2(self):
        gens = P.generator_labels(3, 2)
        assert len(gens) == 7
        dropped = {l.rep for l in P.enumerate_orbits(3, 2)} - {l.rep for l in gens}
        want_dropped = {
            P.canonical_form(named(*nm)).rep
            for nm in [("e", "e"), ("e", "t"), ("t", "e"), ("t", "t")]
        }
        assert dropped == want_dropped


class TestSimDecompose:
    def test_m2_k2(self):
        sc = P.sim_decompose(P.perm_tuple(2, "t"))
        got = {P.format_label(m.rep) for m in sc.members}
        assert got == {"t,e", "e,t"}

    def test_m3_k2_s(self):
        sc = P.sim_decompose(named("s"))
        want = {
            P.canonical_form(named(*nm))
            for nm in [("s", "e"), ("e", "s"), ("s", "s2"), ("t", "ts")]
        }
        assert set(sc.members) == want

    def test_anchor_has_identity_last(self):
        for nm in [("s",), ("t",), ("t", "s"), ("s", "s2")]:
            sc = P.sim_decompose(named(*nm))
            assert sc.anchor.rep.perms[-1].is_identity()
            assert sc.anchor in sc.members

    def test_m3_k3_total_49(self):
        total = 0
        for lab in P.enumerate_orbits(3, 2):
            total += len(P.sim_decompose(lab.rep).members)
        assert total == 49

    def test_classes_partition(self):
        # across all 11 two-sided classes the 49 conjugation classes are disjoint
        seen = set()
        for lab in P.enumerate_orbits(3, 2):
            for member in P.sim_decompose(lab.rep).members:
                assert member not in seen
                seen.add(member)
        assert len(seen) == 49

    def test_m6_split_runs(self):
        """The guard counts m!^2 (r+1) m kernel steps, so m = 6 is allowed."""
        sigma = P.PermTuple(6, (P.Perm((2, 3, 4, 5, 6, 1)),))
        sc = P.sim_decompose(sigma)
        assert len(set(sc.members)) == len(sc.members) > 1
        for member in sc.members:
            assert member.rep.r == 2
            assert P.canonical_form(member.rep) == member
        assert sc.anchor in sc.members

    def test_m7_split_is_refused(self):
        with pytest.raises(ResourceLimitError, match="m=7"):
            P.sim_decompose(P.PermTuple(7, (P.identity(7),)))


class TestLabelText:
    def test_round_trip_named(self):
        for text in ("e,s2,ts", "t,e", "s"):
            sig = P.parse_label(text, 3)
            assert P.format_label(sig) == text

    def test_round_trip_images(self):
        sig = P.parse_label("[2,1,4,3],[1,2,3,4]", 4)
        assert sig.r == 2 and sig.m == 4
        assert P.format_label(sig) == "[2,1,4,3],[1,2,3,4]"

    def test_mixed_forms(self):
        sig = P.parse_label("[1,3,2],t", 3)
        assert sig == named("ts", "t")

    def test_empty_is_r0(self):
        assert P.parse_label("", 3) == P.PermTuple(3, ())

    def test_bad_name(self):
        with pytest.raises(ValueError, match="unknown permutation name"):
            P.parse_label("q", 3)
        with pytest.raises(ValueError, match="not defined for grade"):
            P.parse_label("s", 2)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_round_trip_random(self, data):
        m = data.draw(st.integers(1, 5))
        group = list(itertools.permutations(range(1, m + 1)))
        entries = tuple(
            P.Perm(data.draw(st.sampled_from(group)))
            for _ in range(data.draw(st.integers(0, 3)))
        )
        sig = P.PermTuple(m, entries)
        assert P.parse_label(P.format_label(sig), m) == sig


class TestPermBasics:
    def test_not_a_permutation(self):
        with pytest.raises(ValueError, match="not a permutation"):
            P.Perm((1, 1, 3))

    def test_inverse(self):
        assert S.inverse() == S2
        assert TS.inverse() == TS

    def test_cycles(self):
        assert S.cycles() == [(1, 2, 3)]
        assert T.cycles() == [(1, 2), (3,)]
        assert P.identity(3).cycles() == [(1,), (2,), (3,)]

    def test_fixed_points(self):
        assert TS.fixed_points() == (1,)
        assert TS2.fixed_points() == (2,)
        assert T.fixed_points() == (3,)
