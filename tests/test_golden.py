"""Golden outputs of the label algebra.

Each digest is the sha256 of one listing: the labels of enumerate_orbits and
generator_labels, the sim_decompose splits, canonical_form of seeded tuples
and canonical_graph of every small graph.  The pinned values were computed
with a brute-force canonicalization, the minimum over all m! conjugates.  Run
this file as a script to print the digests of the luinv on the import path.
"""

import hashlib
import itertools
import random
from math import factorial

import pytest

from luinv import perms as P
from luinv.graphs import build_graph, canonical_graph

#: the brute-force grid of tests/test_perms.py, plus two larger cases
ENUM_CASES = [(m, r) for m in range(1, 9) for r in range(0, 15)
              if (r <= 6 if m == 1 else factorial(m) ** r <= 20_000)] + [(4, 4), (5, 3)]
SPLIT_CASES = [(m, 1) for m in range(1, 7)] + [(m, 2) for m in range(1, 5)]

GOLDEN = {
    "canonical_form": "99f73fbcd975e73fcc52faab2c91875e15524c8993a0ce7d228326f707a50a09",
    "canonical_graph": "58cc4b8b3790bf4a7e14a553ca7413430c97ea2807b6e4796d8f6e7ac67b2d95",
    "enumerate_orbits": "b20d04542383b98a0a524c3ad969d2debbc703e014ec086300289010bfdcaf7a",
    "generator_labels": "8bb9892ded2ec40d9cf3465396b6e2c1cfbb21f29b75ebc1b6aebaad5e973a9e",
    "sim_decompose": "c3f826f990e3e897efea1609791f253068abd2ae4ff798a8fc496a2972564e28",
}


def seeded_tuples(n=300, seed=2011):
    """n tuples cycling over m = 1..8 and r = 1..4; an entry is the identity,
    a repeat of an earlier entry or a random permutation."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        m, r = 1 + i % 8, 1 + (i // 8) % 4
        entries = []
        for _ in range(r):
            roll = rng.random()
            if roll < 0.25:
                entries.append(tuple(range(1, m + 1)))
            elif roll < 0.45 and entries:
                entries.append(rng.choice(entries))
            else:
                p = list(range(1, m + 1))
                rng.shuffle(p)
                entries.append(tuple(p))
        out.append(P.PermTuple(m, tuple(P.Perm(p) for p in entries)))
    return out


def listing(name):
    fmt = P.format_label
    if name in ("enumerate_orbits", "generator_labels"):
        run = getattr(P, name)
        return [f"{m} {r} {fmt(lab.rep)}" for m, r in ENUM_CASES for lab in run(m, r)]
    if name == "sim_decompose":
        out = []
        for m, r in SPLIT_CASES:
            for lab in P.enumerate_orbits(m, r):
                split = P.sim_decompose(lab.rep)
                members = ";".join(fmt(mem.rep) for mem in split.members)
                out.append(f"{m} {fmt(lab.rep)} -> {fmt(split.anchor.rep)} | {members}")
        return out
    if name == "canonical_form":
        return [f"{sigma.m} {fmt(sigma)} -> {fmt(P.canonical_form(sigma).rep)}"
                for sigma in seeded_tuples()]
    if name == "canonical_graph":
        return [f"{m} {fmt(P.PermTuple(m, colors))} -> "
                + canonical_graph(build_graph(P.PermTuple(m, colors))).hex()
                for m in range(1, 5) for r in range(3)
                for colors in itertools.product(P.symmetric_group(m), repeat=r)]
    raise KeyError(name)


def digest(name):
    return hashlib.sha256("\n".join(listing(name)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_matches_the_brute_force_scan(name):
    assert digest(name) == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(GOLDEN):
        print(name, digest(name))
