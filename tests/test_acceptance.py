"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with `pytest -s` or
`pytest -v -rA`).  Tolerances are pinned here, not configurable.
"""

import time

import numpy as np

from conftest import relerr, unit_density, unit_pure
from luinv import closedform as F
from luinv import contract as C
from luinv import graphs as G
from luinv import perms as P
from luinv import states as S


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{status}] {description}{': ' + detail if detail else ''}")
    assert ok, f"criterion {number} failed: {description} {detail}"


def test_criterion_01_s3_orbit_counts():
    t0 = time.monotonic()
    want = {r: 6 ** (r - 1) + 3 ** (r - 1) + 2 ** (r - 1) for r in range(1, 6)}
    brute = {}
    algo = {}
    same_sets = True
    for r in range(1, 6):
        enum = P.enumerate_orbits(3, r)
        reps = P.s3_orbit_representatives(r)
        brute[r] = len(enum)
        algo[r] = len(reps)
        same_sets &= {P.canonical_form(t) for t in reps} == set(enum)
    elapsed = time.monotonic() - t0
    ok = brute == want and algo == want and same_sets and elapsed < 10.0
    report(1, "S3 orbit counts 3/11/49/251/1393, brute force and algorithm",
           ok, f"brute={list(brute.values())}, algo={list(algo.values())}, {elapsed:.1f}s")


def test_criterion_02_m2_counts():
    counts = {r: len(P.enumerate_orbits(2, r)) for r in range(1, 9)}
    gens = {r: len(P.generator_labels(2, r)) for r in range(1, 9)}
    ok = all(counts[r] == 2 ** r and gens[r] == 2 ** r - 1 for r in range(1, 9))
    report(2, "m=2 label count 2^r and generator count 2^r-1 for r=1..8", ok)


def test_criterion_03_oracle_equivalence():
    t0 = time.monotonic()
    n_states = 100
    worst = 0.0
    worst_at = ""
    for dims in [(2, 2), (3, 3), (2, 2, 2), (3, 3, 3), (2, 2, 2, 2)]:
        k = len(dims)
        pures = [S.random_pure(dims, seed=1000 * k + i) for i in range(n_states)]
        mixeds = [S.random_density(dims, seed=2000 * k + i) for i in range(n_states)]
        stacks = {"pure": np.stack([psi.amplitudes for psi in pures]),
                  "mixed": np.stack([rho.entries for rho in mixeds])}
        for m in (1, 2, 3):
            for kind, arity, states, oracle in [("pure", k - 1, pures, C.eval_pure),
                                                ("mixed", k, mixeds, C.eval_mixed)]:
                for lab in P.enumerate_orbits(m, arity):
                    # one closed-form call per (label, kind, dims); the oracle
                    # contracts state by state
                    closed = F.closed_form_batch(lab, kind, dims, stacks[kind])
                    for state, value in zip(states, closed):
                        r = relerr(complex(value), oracle(lab, state))
                        if r > worst:
                            worst, worst_at = r, f"{kind} {P.format_label(lab.rep)} {dims}"
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 300.0
    report(3, "closed forms == contraction oracle, 100 states x all labels x 5 dims",
           ok, f"max rel err {worst:.2e} ({worst_at}), {elapsed:.0f}s")


def test_criterion_04_lu_invariance():
    samples = 50
    worst = 0.0
    for dims in [(2, 2, 2), (2, 3)]:
        k = len(dims)
        labels = {
            "pure": [l for m in (1, 2, 3) for l in P.enumerate_orbits(m, k - 1)],
            "mixed": [l for m in (1, 2, 3) for l in P.enumerate_orbits(m, k)],
        }
        psi = unit_pure(dims, seed=4001)
        rho = unit_density(dims, seed=4002)
        ref = {
            "pure": {l: C.eval_pure(l, psi) for l in labels["pure"]},
            "mixed": {l: C.eval_mixed(l, rho) for l in labels["mixed"]},
        }
        for i in range(samples):
            us = S.random_local_unitaries(dims, seed=4100 + i)
            psi_r = S.apply_local_unitaries(psi, us)
            rho_r = S.apply_local_unitaries_mixed(rho, us)
            for l in labels["pure"]:
                worst = max(worst, relerr(C.eval_pure(l, psi_r), ref["pure"][l]))
            for l in labels["mixed"]:
                worst = max(worst, relerr(C.eval_mixed(l, rho_r), ref["mixed"][l]))
    ok = worst < 1e-9
    report(4, "LU drift of all m<=3 labels at (2,2,2) and (2,3), 50 Haar samples",
           ok, f"max drift {worst:.2e}")


def test_criterion_05_linear_independence():
    def gram_rank(m, dims, n_labels):
        labels = P.enumerate_orbits(m, len(dims) - 1)
        assert len(labels) == n_labels
        states = [unit_pure(dims, seed=5000 + 31 * i) for i in range(2 * n_labels)]
        mat = np.array([[C.eval_pure(l, s) for s in states] for l in labels])
        sv = np.linalg.svd(mat, compute_uv=False)
        return int((sv > 1e-8 * sv[0]).sum())

    rank11 = gram_rank(3, (3, 3, 3), 11)
    rank4 = gram_rank(2, (2, 2, 2), 4)
    ok = rank11 == 11 and rank4 == 4
    report(5, "Gram rank 11 (m=3 pure, qutrits) and 4 (m=2 pure, qubits)",
           ok, f"got {rank11} and {rank4}")


def test_criterion_06_qubit_degeneracy():
    worst_sudbery = 0.0
    min_freud = np.inf
    for i in range(100):
        psi = unit_pure((2, 2, 2), seed=6000 + i)
        f = {nm: C.eval_pure(P.parse_label(nm, 3), psi)
             for nm in ("s,s2", "t,s", "e,s", "s,s", "s,t", "s,e", "t,ts",
                        "e,e", "e,t", "t,e", "t,t")}
        kempe = f["s,s2"]
        worst_sudbery = max(
            worst_sudbery,
            abs(kempe - (3 * f["t,s"] - f["e,s"] - f["s,s"])),
            abs(kempe - (3 * f["s,t"] - f["s,e"] - f["s,s"])),
            abs(kempe - (3 * f["t,ts"] - f["e,s"] - f["s,e"])),
        )
        comb = 4 * f["s,s2"] + 5 * f["e,e"] - 3 * f["e,t"] - 3 * f["t,e"] - 3 * f["t,t"]
        min_freud = min(min_freud, comb.real)
    ok = worst_sudbery < 1e-10 and min_freud >= -1e-9
    report(6, "Sudbery relations and nonnegative dual-norm combination on qubits",
           ok, f"max residual {worst_sudbery:.2e}, min combination {min_freud:.3e}")


def test_criterion_07_determinant_identities():
    worst2 = 0.0
    worst3 = 0.0
    for i in range(100):
        rho = S.random_hermitian((2,), seed=7000 + i)
        fe = C.eval_mixed(P.perm_tuple(2, "e"), rho)
        ft = C.eval_mixed(P.perm_tuple(2, "t"), rho)
        worst2 = max(worst2, abs(2 * np.linalg.det(rho.entries) - (fe - ft)))
        rho = S.random_hermitian((3,), seed=7500 + i)
        fe = C.eval_mixed(P.perm_tuple(3, "e"), rho)
        ft = C.eval_mixed(P.perm_tuple(3, "t"), rho)
        fs = C.eval_mixed(P.perm_tuple(3, "s"), rho)
        worst3 = max(worst3, abs(6 * np.linalg.det(rho.entries) - (fe - 3 * ft + 2 * fs)))
    ok = worst2 < 1e-10 and worst3 < 1e-10
    report(7, "qubit and qutrit determinant identities on 100 Hermitian samples",
           ok, f"residuals {worst2:.2e}, {worst3:.2e}")


def test_criterion_08_purification_relation():
    dims = (2, 2)
    worst = 0.0
    states = [unit_pure(dims, seed=8000 + i) for i in range(25)]
    states.append(S.PureState(dims, np.array([[1, 0], [0, 1]], dtype=complex) / np.sqrt(2)))
    for psi in states:
        pi = S.projector(psi)
        red = S.partial_trace(pi, {2})
        for m in (1, 2, 3):
            for lab in P.enumerate_orbits(m, 1):
                direct = C.eval_pure(lab, psi)
                on_projector = C.eval_mixed(lab.rep.embed(), pi)
                on_reduction = C.eval_mixed(lab, red)
                scale = max(abs(direct), 1e-300)
                worst = max(worst, abs(direct - on_projector) / scale,
                            abs(direct - on_reduction) / scale)
    ok = worst < 1e-9
    report(8, "pure formula == mixed on projector == mixed on reduction at (2,2)",
           ok, f"max residual {worst:.2e}")


# the printed two-sided class decompositions: pure label -> conjugation classes
DECOMPOSITIONS_M2 = {
    2: {  # k = 2
        ("e",): [("e", "e"), ("t", "t")],
        ("t",): [("t", "e"), ("e", "t")],
    },
    3: {  # k = 3
        ("e", "e"): [("e", "e", "e"), ("t", "t", "t")],
        ("e", "t"): [("e", "t", "e"), ("t", "e", "t")],
        ("t", "e"): [("t", "e", "e"), ("e", "t", "t")],
        ("t", "t"): [("t", "t", "e"), ("e", "e", "t")],
    },
}

DECOMPOSITIONS_M3 = {
    2: {
        ("e",): [("e", "e"), ("t", "t"), ("s", "s")],
        ("t",): [("t", "e"), ("e", "t"), ("s", "t"), ("t", "s")],
        ("s",): [("s", "e"), ("e", "s"), ("s", "s2"), ("t", "ts")],
    },
    3: {
        ("e", "e"): [("e", "e", "e"), ("t", "t", "t"), ("s", "s", "s")],
        ("e", "t"): [("e", "t", "e"), ("t", "e", "t"), ("s", "t", "s"), ("t", "s", "t")],
        ("t", "e"): [("t", "e", "e"), ("e", "t", "t"), ("t", "s", "s"), ("s", "t", "t")],
        ("t", "t"): [("t", "t", "e"), ("e", "e", "t"), ("s", "s", "t"), ("t", "t", "s")],
        ("e", "s"): [("e", "s", "e"), ("s", "e", "s"), ("s", "s2", "s"), ("t", "ts", "t")],
        ("s", "e"): [("s", "e", "e"), ("e", "s", "s"), ("s2", "s", "s"), ("ts", "t", "t")],
        ("s", "s"): [("s", "s", "e"), ("e", "e", "s"), ("s", "s", "s2"), ("t", "t", "ts")],
        ("s", "s2"): [("s", "s2", "e"), ("s", "e", "s2"), ("e", "s", "s2"), ("t", "ts", "ts2")],
        ("t", "s"): [("t", "s", "e"), ("t", "e", "s"), ("e", "t", "ts"), ("t", "s", "s2"),
                     ("s", "t", "ts"), ("s", "t", "ts2")],
        ("s", "t"): [("s", "t", "e"), ("e", "t", "s"), ("t", "e", "ts"), ("s", "t", "s2"),
                     ("t", "s", "ts"), ("t", "s", "ts2")],
        ("t", "ts"): [("t", "ts", "e"), ("e", "s", "t"), ("s", "e", "t"), ("s", "s2", "t"),
                      ("t", "ts", "s"), ("t", "ts2", "s")],
    },
}


def test_criterion_09_class_decompositions():
    ok = True
    detail = []
    for m, table in ((2, DECOMPOSITIONS_M2), (3, DECOMPOSITIONS_M3)):
        for k, rows in table.items():
            for pure_names, member_names in rows.items():
                sigma = P.perm_tuple(m, *pure_names)
                got = set(P.sim_decompose(sigma).members)
                want = {P.canonical_form(P.perm_tuple(m, *nm)) for nm in member_names}
                if got != want:
                    ok = False
                    detail.append(f"m={m} k={k} {pure_names}")
    total_49 = sum(len(P.sim_decompose(l.rep).members) for l in P.enumerate_orbits(3, 2))
    if total_49 != 49:
        ok = False
        detail.append(f"k=3 m=3 total {total_49} != 49")
    report(9, "two-sided class splits match the printed k=2,3 lists at m=2,3",
           ok, "; ".join(detail) if detail else "all lists reproduced, k=3 m=3 total 49")


def test_criterion_10_expressibility():
    t0 = time.monotonic()
    all_small = True
    for m in (1, 2, 3):
        for k in (1, 2, 3):
            for lab in P.enumerate_orbits(m, k):
                if G.expressible_ordering(G.build_graph(lab.rep)) is None:
                    all_small = False
    inexpressible = [
        lab for lab in P.enumerate_orbits(4, 2)
        if G.expressible_ordering(G.build_graph(lab.rep)) is None
    ]
    elapsed = time.monotonic() - t0
    ok = all_small and len(inexpressible) >= 1 and elapsed < 60.0
    names = ", ".join(P.format_label(l.rep) for l in inexpressible[:3])
    report(10, "all m<=3 graphs orderable; m=4 k=2 has inexpressible classes",
           ok, f"{len(inexpressible)} inexpressible m=4 classes (e.g. {names}), {elapsed:.1f}s")
