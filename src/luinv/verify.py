"""Property-check harness.

Each check returns a VerifyReport: deterministic given (name, parameters,
seed), JSON-serializable, carrying the worst residual seen and a witness for
any failure.  Checks are independent and own their seeded PRNG streams.

Linear independence is only ever asserted at fixed local dimensions with
grade m <= min(n_j); algebraic independence of the transitive generators is
a statement about the limit of growing local dimensions and is not
numerically testable, so it is out of scope here (the reports say so).

Every numeric check runs on stacks.  It checks its dims against the
dimension guard before it draws anything.  Each sample is drawn from its own
seed; normalization, Haar rotations and purifications then run once per
stack.  Each label is evaluated once per stack by the batched engines and
closed forms, which take the drawn arrays as they are.  The checks then walk
(sample, label) in a fixed order, so the worst residual and its witness do
not depend on the batching.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .closedform import closed_form_batch
from .contract import InvariantSpec, eval_mixed_batch, eval_pure_batch
from .perms import enumerate_orbits, format_label, generator_labels, sim_decompose
from .states import (
    _density_stack,
    _projector_stack,
    _pure_stack,
    _purify_stack,
    _rotate_mixed_stack,
    _rotate_stack,
    _unitary_stacks,
    check_dims,
)

#: The public names, which ``luinv`` also exports
__all__ = [
    "VerifyReport",
    "all_specs",
    "render_table",
    "reports_to_json",
    "run_suite",
]

SCHEMA_VERSION = 1


@dataclass
class VerifyReport:
    check: str
    params: dict
    tolerance: float
    max_residual: float
    passed: bool
    details: dict = field(default_factory=dict)
    witness: dict | None = None

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["schema_version"] = SCHEMA_VERSION
        return doc


def _unit_pures(dims: tuple[int, ...], seeds: Sequence[int]) -> np.ndarray:
    """random_pure for each seed, each scaled to unit norm: (n, *dims)."""
    amps = _pure_stack(dims, seeds)
    # the two real dot products np.linalg.norm takes, as batched matmuls
    v = amps.reshape(len(amps), 1, math.prod(dims))
    squares = v.real @ v.real.swapaxes(1, 2) + v.imag @ v.imag.swapaxes(1, 2)
    return amps / np.sqrt(squares).reshape((-1,) + (1,) * len(dims))


def _unit_densities(dims: tuple[int, ...], seeds: Sequence[int], rank=None) -> np.ndarray:
    """random_density for each seed, each scaled to unit trace: (n, N, N)."""
    rhos = _density_stack(dims, seeds, rank)
    return rhos / np.abs(np.trace(rhos, axis1=1, axis2=2))[:, None, None]


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[0], b[0], a[1], b[1], ... as one stack."""
    out = np.empty((2 * len(a),) + a.shape[1:], dtype=a.dtype)
    out[0::2], out[1::2] = a, b
    return out


def all_specs(dims: Sequence[int], grades: Iterable[int] = (1, 2, 3)) -> list[InvariantSpec]:
    """Every pure (r = k-1) and mixed (r = k) label of the given grades."""
    k = len(tuple(dims))
    specs = []
    for m in grades:
        for lab in enumerate_orbits(m, k - 1):
            specs.append(InvariantSpec(lab, "pure"))
        for lab in enumerate_orbits(m, k):
            specs.append(InvariantSpec(lab, "mixed"))
    return specs


def _values(label, kind: str, dims: tuple[int, ...], stack: np.ndarray,
            closed: bool = False) -> list[complex]:
    """The label's values on a stack of states of one kind on dims (none for
    none), by the contraction engines or by the closed forms."""
    if not len(stack):
        return []
    if closed:
        return closed_form_batch(label, kind, dims, stack).tolist()
    batch = eval_pure_batch if kind == "pure" else eval_mixed_batch
    return batch(label, dims, stack).tolist()


def check_lu_invariance(
    specs: Sequence[InvariantSpec] | None,
    dims: Sequence[int],
    samples: int = 50,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> VerifyReport:
    """Relative drift of every invariant under Haar-random local rotations."""
    dims = check_dims(dims)
    if specs is None:
        specs = all_specs(dims)
    psis = _unit_pures(dims, [seed * 100_003 + 2 * i for i in range(samples)])
    rhos = _unit_densities(dims, [seed * 100_003 + 2 * i + 1 for i in range(samples)])
    us = _unitary_stacks(dims, [seed * 900_001 + i for i in range(samples)])
    stacks = {
        "pure": _interleave(psis, _rotate_stack(psis, us)),
        "mixed": _interleave(rhos, _rotate_mixed_stack(rhos, dims, us)),
    }
    # values[spec][2 i] on sample i, values[spec][2 i + 1] on its rotation
    values = [_values(spec.label, spec.kind, dims, stacks[spec.kind]) for spec in specs]
    worst = 0.0
    witness = None
    for i in range(samples):
        for spec, vals in zip(specs, values):
            a, b = vals[2 * i], vals[2 * i + 1]
            drift = abs(a - b) / max(abs(a), 1e-300)
            if drift > worst:
                worst = drift
                witness = {"label": format_label(spec.label.rep), "kind": spec.kind,
                           "sample": i, "drift": drift}
    return VerifyReport(
        check="lu_invariance",
        params={"dims": list(dims), "samples": samples, "seed": seed,
                "labels": len(specs)},
        tolerance=tolerance,
        max_residual=worst,
        passed=worst < tolerance,
        witness=None if worst < tolerance else witness,
    )


def check_linear_independence(
    m: int,
    kind: str,
    dims: Sequence[int],
    seed: int = 0,
    sv_threshold: float = 1e-8,
) -> VerifyReport:
    """Numerical rank of the label-by-state value matrix over 2D random
    states.  Full rank is expected (and asserted) when m <= min(n_j)."""
    dims = check_dims(dims)
    k = len(dims)
    r = k - 1 if kind == "pure" else k
    labels = enumerate_orbits(m, r)
    d = len(labels)
    n_states = 2 * d
    seeds = [seed * 77_041 + i for i in range(n_states)]
    states = _unit_pures(dims, seeds) if kind == "pure" else _unit_densities(dims, seeds)
    matrix = np.array([_values(lab, kind, dims, states) for lab in labels])
    sv = np.linalg.svd(matrix, compute_uv=False)
    rank = int((sv > sv_threshold * sv[0]).sum())
    expect_full = m <= min(dims)
    passed = rank == d if expect_full else True
    return VerifyReport(
        check="linear_independence",
        params={"m": m, "kind": kind, "dims": list(dims), "seed": seed,
                "labels": d, "states": n_states},
        tolerance=sv_threshold,
        max_residual=float(sv[-1] / sv[0]),
        passed=passed,
        details={"rank": rank, "expected_full_rank": expect_full,
                 "note": "algebraic independence lives in the large-dimension "
                         "limit and is not numerically testable; only linear "
                         "independence at these dims is checked"},
    )


def check_class_consistency(
    m: int,
    k: int,
    seed: int = 0,
    dims: Sequence[int] | None = None,
    tolerance: float = 1e-10,
) -> VerifyReport:
    """Two-sided class coherence.

    Hard check: for every pure label, all conjugation classes in its split
    evaluate equal on projectors.  Soft check (reported, never failed): for
    random full-rank mixed states, distinct classes of the same split should
    take different values for at least one sample; absence of a witness is
    recorded as inconclusive.
    """
    dims = check_dims((2,) * k if dims is None else dims)
    worst = 0.0
    witness = None
    split_results = []
    projectors = _projector_stack(_unit_pures(dims, [seed * 61_543 + i for i in range(5)]))
    rhos = _unit_densities(dims, [seed * 44_497 + i for i in range(20)])
    for lab in enumerate_orbits(m, k - 1):
        split = sim_decompose(lab.rep)
        assert split.anchor.rep.perms[-1].is_identity()
        member_vals = [_values(member, "mixed", dims, projectors) for member in split.members]
        for i in range(len(projectors)):
            vals = [row[i] for row in member_vals]
            ref = vals[0]
            spread = max(abs(v - ref) for v in vals) / max(abs(ref), 1e-300)
            if spread > worst:
                worst = spread
                witness = {"label": format_label(lab.rep), "sample": i, "spread": spread}
        rho_vals = [_values(member, "mixed", dims, rhos) for member in split.members]
        separated = 0
        pairs = 0
        for a in range(len(split.members)):
            for b in range(a + 1, len(split.members)):
                pairs += 1
                # the first separating sample, if any
                for va, vb in zip(rho_vals[a], rho_vals[b]):
                    if abs(va - vb) > 1e-6 * max(abs(va), abs(vb), 1e-300):
                        separated += 1
                        break
        split_results.append({
            "label": format_label(lab.rep),
            "classes": len(split.members),
            "separated_pairs": separated,
            "pairs": pairs,
            "inconclusive_pairs": pairs - separated,
        })
    return VerifyReport(
        check="class_consistency",
        params={"m": m, "k": k, "dims": list(dims), "seed": seed},
        tolerance=tolerance,
        max_residual=worst,
        passed=worst < tolerance,
        details={"splits": split_results},
        witness=None if worst < tolerance else witness,
    )


def check_purification(
    m: int,
    dims: Sequence[int],
    seed: int = 0,
    samples: int = 10,
    tolerance: float = 1e-9,
) -> VerifyReport:
    """f(rho) equals the embedded pure invariant of a purification of rho,
    for every mixed label of grade m."""
    dims = check_dims(dims)
    labels = enumerate_orbits(m, len(dims))
    total_dim = math.prod(dims)
    ranks = [1 + (i % total_dim) for i in range(samples)]
    # a purification's rank is at most its requested rank: refuse its dims
    # before any draw
    check_dims(dims + (max(ranks, default=1),))
    stack = np.empty((samples, total_dim, total_dim), dtype=complex)
    for rank in sorted(set(ranks)):
        members = [i for i in range(samples) if ranks[i] == rank]
        stack[members] = _unit_densities(dims, [seed * 52_361 + i for i in members], rank)
    # the purifications' ranks differ: one stack, zero-padded to the largest
    amps = _purify_stack(stack, dims)
    mixed_vals = [_values(lab, "mixed", dims, stack) for lab in labels]
    pure_vals = [_values(lab, "pure", amps.shape[1:], amps) for lab in labels]
    worst = 0.0
    witness = None
    for i, rank in enumerate(ranks):
        for lab, a_vals, b_vals in zip(labels, mixed_vals, pure_vals):
            a, b = a_vals[i], b_vals[i]
            resid = abs(a - b) / max(abs(a), 1e-300)
            if resid > worst:
                worst = resid
                witness = {"label": format_label(lab.rep), "rank": rank, "residual": resid}
    return VerifyReport(
        check="purification",
        params={"m": m, "dims": list(dims), "seed": seed, "samples": samples},
        tolerance=tolerance,
        max_residual=worst,
        passed=worst < tolerance,
        witness=None if worst < tolerance else witness,
    )


def check_counts() -> VerifyReport:
    """Cardinalities of label sets and generator sets against the closed
    formulas (exact)."""
    failures = []
    for r in range(1, 6):
        got = len(enumerate_orbits(3, r))
        want = 6 ** (r - 1) + 3 ** (r - 1) + 2 ** (r - 1)
        if got != want:
            failures.append({"m": 3, "r": r, "got": got, "want": want})
        got_gen = len(generator_labels(3, r))
        # non-transitive classes have all entries in {e, t}: one per position
        # subset, 2^r of them
        want_gen = 6 ** (r - 1) + 3 ** (r - 1) - 2 ** (r - 1)
        if got_gen != want_gen:
            failures.append({"m": 3, "r": r, "generators": got_gen, "want": want_gen})
    for r in range(1, 6):
        if len(enumerate_orbits(2, r)) != 2 ** r:
            failures.append({"m": 2, "r": r, "got": len(enumerate_orbits(2, r))})
        if len(generator_labels(2, r)) != 2 ** r - 1:
            failures.append({"m": 2, "r": r, "generators": len(generator_labels(2, r))})
    return VerifyReport(
        check="counts",
        params={"m": [2, 3], "r": "1..5"},
        tolerance=0.0,
        max_residual=float(len(failures)),
        passed=not failures,
        details={"failures": failures},
    )


def check_closed_forms(
    dims: Sequence[int],
    samples: int = 10,
    seed: int = 0,
    tolerance: float = 1e-10,
) -> VerifyReport:
    """Closed-form evaluators against the contraction evaluator on random
    states, every label of grades 1-3, both kinds."""
    dims = check_dims(dims)
    worst = 0.0
    witness = None
    specs = all_specs(dims)
    stacks = {
        "pure": _unit_pures(dims, [seed * 39_989 + 2 * i for i in range(samples)]),
        "mixed": _unit_densities(dims, [seed * 39_989 + 2 * i + 1 for i in range(samples)]),
    }
    values = [_values(spec.label, spec.kind, dims, stacks[spec.kind]) for spec in specs]
    closed = [_values(spec.label, spec.kind, dims, stacks[spec.kind], closed=True)
              for spec in specs]
    for i in range(samples):
        for spec, vals, closed_vals in zip(specs, values, closed):
            a, b = vals[i], closed_vals[i]
            resid = abs(a - b) / max(abs(a), abs(b), 1e-300)
            if resid > worst:
                worst = resid
                witness = {"label": format_label(spec.label.rep), "kind": spec.kind,
                           "sample": i, "residual": resid}
    return VerifyReport(
        check="closed_forms",
        params={"dims": list(dims), "samples": samples, "seed": seed,
                "labels": len(specs)},
        tolerance=tolerance,
        max_residual=worst,
        passed=worst < tolerance,
        witness=None if worst < tolerance else witness,
    )


SUITES = {
    "counts": lambda seed, dims: [check_counts()],
    "lu": lambda seed, dims: [check_lu_invariance(None, dims, samples=20, seed=seed)],
    "closed": lambda seed, dims: [check_closed_forms(dims, samples=10, seed=seed)],
    "independence": lambda seed, dims: [
        check_linear_independence(m, kind, dims, seed=seed)
        for m in (2, 3)
        for kind in ("pure", "mixed")
    ],
    "classes": lambda seed, dims: [
        check_class_consistency(m, len(dims), seed=seed, dims=dims) for m in (2, 3)
    ],
    "purification": lambda seed, dims: [
        check_purification(m, dims, seed=seed) for m in (1, 2, 3)
    ],
}


def run_suite(name: str, seed: int = 0, dims: Sequence[int] = (2, 2)) -> list[VerifyReport]:
    """Run one named suite, or all of them with name="all"."""
    dims = tuple(dims)
    if name == "all":
        reports = []
        for key in SUITES:
            reports.extend(SUITES[key](seed, dims))
        return reports
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](seed, dims)


def render_table(reports: Sequence[VerifyReport]) -> str:
    lines = []
    header = f"{'check':<22} {'status':<6} {'max residual':>14} {'tolerance':>10}  parameters"
    lines.append(header)
    lines.append("-" * len(header))
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        params = ", ".join(f"{k}={v}" for k, v in rep.params.items())
        lines.append(
            f"{rep.check:<22} {status:<6} {rep.max_residual:>14.3e} {rep.tolerance:>10.0e}  {params}"
        )
    return "\n".join(lines)


def reports_to_json(reports: Sequence[VerifyReport]) -> str:
    return json.dumps([rep.to_dict() for rep in reports], indent=2)
