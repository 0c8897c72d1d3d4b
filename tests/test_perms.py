import itertools
import random
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from luinv import perms as P
from luinv.errors import ResourceLimitError


def named(*names, m=3):
    return P.perm_tuple(m, *names)


E, S, S2, T, TS, TS2 = (P.perm_from_name(n, 3) for n in ("e", "s", "s2", "t", "ts", "ts2"))


# -- independent brute-force oracle (no library canonicalization) -------------

def random_tuple(rng, m, r):
    """r entries over S_m: identities, repeats and random permutations."""
    entries = []
    for _ in range(r):
        roll = rng.random()
        if roll < 0.25:
            entries.append(P.identity(m))
        elif roll < 0.45 and entries:
            entries.append(rng.choice(entries))
        else:
            images = list(range(1, m + 1))
            rng.shuffle(images)
            entries.append(P.Perm(tuple(images)))
    return P.PermTuple(m, tuple(entries))


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


def oracle_orbits(m, r):
    """The brute-force enumeration: walk all m!^r tuples of image lists,
    conjugate each unseen one by every beta with raw index arithmetic, mark
    the orbit seen, keep its minimum, sort the minima."""
    group = list(itertools.permutations(range(1, m + 1)))
    betas = []
    for beta in group:
        inv = [0] * m
        for i, b in enumerate(beta):
            inv[b - 1] = i
        betas.append((beta, inv))
    seen, canon = set(), []
    for combo in itertools.product(group, repeat=r):
        if combo in seen:
            continue
        orbit = {tuple(tuple(beta[p[inv[l]] - 1] for l in range(m)) for p in combo)
                 for beta, inv in betas}
        seen |= orbit
        canon.append(min(orbit))
    return sorted(canon)


def oracle_transitive(m, images_tuple):
    """Whether the entries move 1 to every point, by a plain search."""
    reached, todo = {1}, [1]
    while todo:
        l = todo.pop()
        for p in images_tuple:
            if p[l - 1] not in reached:
                reached.add(p[l - 1])
                todo.append(p[l - 1])
    return len(reached) == m


def oracle_classes(m):
    """Cycle type (ascending lengths) -> the least permutation of that type,
    and its centralizer as image tuples, by a walk over all of S_m."""
    def cycle_type(p):
        seen, lengths = set(), []
        for start in range(1, m + 1):
            n, l = 0, start
            while l not in seen:
                seen.add(l)
                l = p[l - 1]
                n += 1
            if n:
                lengths.append(n)
        return tuple(sorted(lengths))

    group = list(itertools.permutations(range(1, m + 1)))
    least = {}
    for p in group:  # lexicographic order: the first of each type is its minimum
        least.setdefault(cycle_type(p), p)
    out = {}
    for lam, rep in least.items():
        fixing = []
        for b in group:
            inv = [0] * m
            for i, x in enumerate(b):
                inv[x - 1] = i
            if tuple(b[rep[inv[l]] - 1] for l in range(m)) == rep:
                fixing.append(b)
        out[lam] = (rep, fixing)
    return out


#: every (m, r) on which the brute-force oracle walks at most 2*10^4 tuples
ORACLE_GRID = [(m, r) for m in range(1, 9) for r in range(0, 15)
               if (r <= 6 if m == 1 else factorial(m) ** r <= 20_000)]


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

    def test_noncanonical_label_rejected_at_large_grades(self):
        # the transposition (4 5) is the least image of its class under the
        # centralizer of the first entry, (3 5) is not
        first = P.Perm((1, 2, 3, 4, 6, 5))
        good = P.PermTuple(6, (first, P.Perm((1, 2, 3, 5, 4, 6))))
        bad = P.PermTuple(6, (first, P.Perm((1, 2, 5, 4, 3, 6))))
        assert P.OrbitLabel(good).rep == good
        with pytest.raises(ValueError, match="not canonical"):
            P.OrbitLabel(bad)
        rng = random.Random(5)
        for m in (6, 7, 8):
            for r in (1, 2, 3):
                sigma = random_tuple(rng, m, r)
                canonical = P.canonical_form(sigma).rep
                assert P.OrbitLabel(canonical).rep == canonical
                if canonical != sigma:
                    with pytest.raises(ValueError, match="not canonical"):
                        P.OrbitLabel(sigma)

    @pytest.mark.parametrize("m,n", [(7, 12), (8, 4)])
    def test_matches_the_conjugator_scan(self, m, n):
        """The least of all m! conjugates, from the brute-force oracle."""
        rng = random.Random(m)
        for i in range(n):
            sigma = random_tuple(rng, m, 1 + i % 4)
            images = tuple(p.images for p in sigma.perms)
            got = P.canonical_form(sigma).rep
            assert tuple(p.images for p in got.perms) == oracle_canonical(images)


class TestClassTable:
    @pytest.mark.parametrize("m", range(0, 8))
    def test_representatives_and_centralizers(self, m):
        """Each representative is its class minimum; its centralizer is the
        set of conjugators that fix it, of order z_lambda."""
        table = P._classes(m)
        want = oracle_classes(m)
        assert list(table) == sorted(rep for rep, _ in want.values())
        assert sorted(factorial(m) if c is None else len(c) for c in table.values()) == sorted(
            map(P._centralizer_order, P._cycle_types(m)))
        for lam, (rep, fixing) in want.items():
            centralizer = table[rep]
            if centralizer is None:  # the identity's: the whole group
                assert len(lam) == m > 1 and len(fixing) == factorial(m)
                continue
            assert len(centralizer) == prod(i ** a * factorial(a) for i, a in Counter(lam).items())
            assert sorted(vmap[1:] for vmap, _ in centralizer) == fixing
            for vmap, order in centralizer:
                assert tuple(vmap[rep[i]] for i in order) == rep

    def test_grade_guard(self):
        with pytest.raises(ResourceLimitError, match="MAX_GRADE"):
            P._classes(P.MAX_GRADE + 1)


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

    def test_zero_arity_does_no_work(self, monkeypatch):
        def no_work(m):
            raise AssertionError("the empty label needs no group")

        monkeypatch.setattr(P, "symmetric_group", no_work)
        for m in range(0, 9):
            labels = P.enumerate_orbits(m, 0)
            assert [(lab.m, lab.rep.perms) for lab in labels] == [(m, ())]
        with pytest.raises(ResourceLimitError, match="MAX_GRADE"):
            P.enumerate_orbits(9, 0)

    def test_grade_eight_classes(self):
        """At the root the children are the class representatives."""
        labels = P.enumerate_orbits(8, 1)
        assert len(labels) == P.orbit_count(8, 1) == 22
        keys = [lab.rep.key() for lab in labels]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert keys == list(P._classes(8))
        for lab in labels:
            assert P.OrbitLabel(lab.rep) == lab

    @pytest.mark.parametrize("m", [0, 1])
    def test_trivial_group_long_label(self, m):
        """For m <= 1 the identity's centralizer is the one conjugator, so the
        walk fills the label in one product instead of one level per entry."""
        assert list(P._classes(m).values()) == [((tuple(range(m + 1)), tuple(range(m))),)]
        r = 10 ** 6
        labels = P.enumerate_orbits(m, r)
        assert len(labels) == P.orbit_count(m, r) == 1
        assert labels[0].rep.perms == (P.identity(m),) * r

    def test_resource_guard(self, monkeypatch):
        """(5,6) is refused from its Burnside count, before any work."""
        def no_work(m):
            raise AssertionError("the guard let the enumeration start")

        monkeypatch.setattr(P, "symmetric_group", no_work)
        with pytest.raises(ResourceLimitError, match="m=5, r=6"):
            P.enumerate_orbits(5, 6)

    @pytest.mark.parametrize("m,r,why", [
        (1, 10 ** 8, "over 2000000 label entries"),  # one label, but 1e8 entries
        (2, 17, "131072 labels of 17 entries"),
        (2, 10 ** 6, "over 2000000 label entries"),
        (8, 3, "labels of 3 entries"),
    ])
    def test_resource_guard_bounds_entries_and_search(self, monkeypatch, m, r, why):
        def no_work(m):
            raise AssertionError("the guard let the enumeration start")

        monkeypatch.setattr(P, "symmetric_group", no_work)
        with pytest.raises(ResourceLimitError, match=why):
            P.enumerate_orbits(m, r)

    def test_guard_is_the_entry_limit(self, monkeypatch):
        """Up to MAX_GRADE, an enumeration is refused exactly when the long-r
        pre-check or its Burnside count times r exceeds the entry limit;
        nothing is enumerated."""
        def no_work(m):
            raise AssertionError("the guard let the enumeration start")

        monkeypatch.setattr(P, "symmetric_group", no_work)
        limit = P.ENUM_ENTRY_LIMIT
        refused = set()
        for m in range(0, 9):
            for r in range(0, 25):
                want = ((m > 1 and r > limit.bit_length())
                        or P.orbit_count(m, r) * max(r, 1) > limit)
                try:
                    P._check_enum_cost(m, r)
                except ResourceLimitError:
                    refused.add((m, r))
                assert ((m, r) in refused) == want, (m, r)
        assert (8, 2) not in refused and (8, 3) in refused

    @pytest.mark.parametrize("m,r,count", [(4, 3, 681), (5, 2, 161), (3, 5, 1393), (2, 6, 64)])
    def test_burnside_counts(self, m, r, count):
        assert burnside_count(m, r) == count
        assert len(P.enumerate_orbits(m, r)) == count

    @pytest.mark.parametrize("m,r", ORACLE_GRID)
    def test_matches_brute_force_oracle(self, m, r):
        """Same labels in the same order as the brute-force walk, and the
        transitive ones for generator_labels."""
        want = oracle_orbits(m, r)
        got = [tuple(p.images for p in lab.rep.perms) for lab in P.enumerate_orbits(m, r)]
        assert got == want
        gens = [tuple(p.images for p in lab.rep.perms) for lab in P.generator_labels(m, r)]
        assert gens == [t for t in want if oracle_transitive(m, t)]

    @pytest.mark.parametrize("m,r", [(4, 4), (5, 3)])
    def test_large_cases_are_canonical_sorted_and_complete(self, m, r):
        labels = P.enumerate_orbits(m, r)
        assert len(labels) == P.orbit_count(m, r)
        keys = [lab.rep.key() for lab in labels]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        for lab in labels:
            assert P.OrbitLabel(lab.rep) == lab

    def test_labels_share_the_interned_perms(self):
        group = set(map(id, P.symmetric_group(4)))
        for lab in P.enumerate_orbits(4, 2) + [P.canonical_form(P.parse_label(
                "[2,1,4,3],[3,4,1,2]", 4))]:
            assert {id(p) for p in lab.rep.perms} <= group

    @pytest.mark.parametrize("m,r", [(4, 5), (6, 3), (8, 2)])
    def test_guard_admits_cases_brute_force_refused(self, m, r):
        assert P.orbit_count(m, r) * r <= P.ENUM_ENTRY_LIMIT
        P._check_enum_cost(m, r)

    def test_negative_arity(self):
        with pytest.raises(ValueError, match="r=-1"):
            P.enumerate_orbits(3, -1)


class TestArity:
    def test_kind_fixes_the_entries(self):
        assert [P._arity(kind, k) for kind in ("pure", "mixed") for k in (1, 2, 3)] == [
            0, 1, 2, 1, 2, 3]

    @pytest.mark.parametrize("kind", ["Pure", "both", "", None])
    def test_any_other_kind_is_refused(self, kind):
        with pytest.raises(ValueError, match=f"kind must be 'pure' or 'mixed', got {kind!r}"):
            P._arity(kind, 2)

    def test_check_names_arity_and_entries(self):
        P._check_arity(P.perm_tuple(3, "s"), "pure", 2)
        P._check_arity(P.perm_tuple(3, "s"), "mixed", 1)
        with pytest.raises(ValueError, match="pure label arity 1 does not match 3 "
                                             "subsystems: it needs 2 entries"):
            P._check_arity(P.perm_tuple(3, "s"), "pure", 3)


class TestCounts:
    @pytest.mark.parametrize("m,r", [(m, r) for m in range(1, 5) for r in range(4)]
                             + [(5, 1), (5, 2), (6, 1), (6, 2), (7, 1)])
    def test_match_the_enumeration(self, m, r):
        assert P.orbit_count(m, r) == len(P.enumerate_orbits(m, r))
        assert P.generator_count(m, r) == len(P.generator_labels(m, r))

    @pytest.mark.parametrize("r", range(0, 9))
    def test_closed_formulas(self, r):
        def power(b):
            return Fraction(b) ** (r - 1)

        assert P.orbit_count(3, r) == power(6) + power(3) + power(2)
        assert P.generator_count(3, r) == power(6) + power(3) - power(2)
        assert P.orbit_count(2, r) == 2 ** r
        assert P.generator_count(2, r) == 2 ** r - 1

    @pytest.mark.parametrize("m,r", [(4, 3), (5, 2), (4, 4), (5, 6), (7, 3)])
    def test_orbit_count_is_the_burnside_sum(self, m, r):
        assert P.orbit_count(m, r) == burnside_count(m, r)

    def test_zero_arity_and_grade_one(self):
        assert [P.orbit_count(m, 0) for m in range(9)] == [1] * 9
        assert [P.generator_count(m, 0) for m in range(1, 9)] == [1] + [0] * 7
        assert [P.generator_count(1, r) for r in range(5)] == [1] * 5

    def test_negative_input(self):
        with pytest.raises(ValueError):
            P.orbit_count(3, -1)
        with pytest.raises(ValueError):
            P.generator_count(-1, 2)


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
        def orbit(sigma):
            return {sigma.conjugated(b) for b in P.symmetric_group(sigma.m)}

        assert len(orbit(named("s", "s2", "e"))) == 2
        assert len(orbit(named("t", "t", "e"))) == 3
        assert len(orbit(named("t", "ts"))) == 6
        assert len(orbit(named("s", "t"))) == 6


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
        """A 6-cycle splits into several distinct canonical members, among
        them the anchor."""
        sigma = P.PermTuple(6, (P.Perm((2, 3, 4, 5, 6, 1)),))
        sc = P.sim_decompose(sigma)
        assert len(set(sc.members)) == len(sc.members) > 1
        for member in sc.members:
            assert member.rep.r == 2
            assert P.canonical_form(member.rep) == member
        assert sc.anchor in sc.members

    @pytest.mark.parametrize("m,r", [(7, 1), (6, 1), (5, 2)])
    def test_members_sum_to_the_orbit_count(self, m, r):
        """Each conjugation class of S_m^(r+1) lies in exactly one two-sided
        class, so the splits of all pure labels of (m, r) list every label
        of (m, r+1) once."""
        members = [member for lab in P.enumerate_orbits(m, r)
                   for member in P.sim_decompose(lab.rep).members]
        assert len(members) == len(set(members)) == P.orbit_count(m, r + 1)

    def test_guard_counts_translate_entries(self, monkeypatch):
        """m! k translate entries: (8, r = 49) holds 40320 * 50 > 2e6 and is
        refused before any canonicalization; (8, r = 48) runs, and its
        identities split into the 22 classes of S_8."""
        def no_work(*args):
            raise AssertionError("canonicalized before the guard")

        with monkeypatch.context() as patch:
            patch.setattr(P, "_canonical_images", no_work)
            with pytest.raises(ResourceLimitError, match="entries"):
                P.sim_decompose(P.PermTuple(8, (P.identity(8),) * 49))
        split = P.sim_decompose(P.PermTuple(8, (P.identity(8),) * 48))
        assert len(split.members) == 22
        assert split.anchor.rep == P.PermTuple(8, (P.identity(8),) * 49)

    def test_grade_guard_comes_first(self):
        with pytest.raises(ResourceLimitError, match="MAX_GRADE"):
            P.sim_decompose(P.PermTuple(9, (P.identity(9),)))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_the_translate_scan(self, data):
        """The classes are the canonical forms of all m! left translates
        (b sigma_j, b) of the embedded tuple, the anchor that of b = e."""
        m = data.draw(st.integers(1, 5))
        group = P.symmetric_group(m)
        sigma = P.PermTuple(m, tuple(data.draw(st.sampled_from(group))
                                     for _ in range(data.draw(st.integers(0, 3)))))
        sigma = sigma.conjugated(data.draw(st.sampled_from(group)))
        embedded = sigma.embed()
        classes = [P.canonical_form(P.PermTuple(m, tuple(P.compose(b, p) for p in embedded.perms)))
                   for b in group]
        split = P.sim_decompose(sigma)
        assert split.members == tuple(sorted(set(classes)))
        assert split.anchor == classes[0] == P.canonical_form(embedded)


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

    @pytest.mark.parametrize("images", [
        (2.0, 1.0, 3.0, 4.0), (2, True), (True,), (1, 2.5), ("2", "1"), (1, None)])
    def test_images_must_be_integers(self, images):
        # equal in value to a permutation, but not integers: refused like one
        # that is no permutation, not accepted to fail later in canonical_form
        with pytest.raises(ValueError, match="not a permutation"):
            P.Perm(images)

    def test_images_are_stored_as_an_int_tuple(self):
        class Index:  # an integer type other than int, as numpy's are
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        p = P.Perm([Index(2), Index(1), 3])
        assert p.images == (2, 1, 3) and all(type(i) is int for i in p.images)
        assert p == T and hash(p) == hash(T)

    @pytest.mark.parametrize("m", [3.0, True, "3", None, -1])
    def test_grade_must_be_a_non_negative_integer(self, m):
        with pytest.raises(ValueError, match="grade must be a non-negative integer"):
            P.PermTuple(m, ())

    def test_entries_are_stored_as_a_tuple(self):
        t = P.PermTuple(3, [T, T])
        assert t.perms == (T, T) and type(t.perms) is tuple
        assert t == P.PermTuple(3, (T, T)) and hash(t) == hash(P.PermTuple(3, (T, T)))
        assert t.embed() == P.perm_tuple(3, "t", "t", "e")

    @pytest.mark.parametrize("entry", [(2, 1, 3), [2, 1, 3], "t", None])
    def test_entries_must_be_perms(self, entry):
        with pytest.raises(ValueError, match="must be a Perm"):
            P.PermTuple(3, (T, entry))

    def test_sim_class_accepts_an_anchor_equal_to_a_member(self):
        members = P.sim_decompose(named("t")).members
        twin = P.OrbitLabel(P.PermTuple(3, tuple(P.Perm(p.images) for p in members[0].rep.perms)))
        assert twin == members[0] and twin is not members[0]
        assert P.SimClass(twin, members).anchor is twin

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
