"""Property-check harness.

Each check returns a VerifyReport: deterministic given (name, parameters,
seed), JSON-serializable, carrying the worst residual seen and a witness for
any failure.  Checks are independent and own their seeded PRNG streams.

Linear independence is only ever asserted at fixed local dimensions with
grade m <= min(n_j); algebraic independence of the transitive generators is
a statement about the limit of growing local dimensions and is not
numerically testable, so it is out of scope here (the reports say so).

Every numeric check runs on stacks.  It checks its dims against the
dimension guard before it draws anything.  Its samples come from a sample
table, which run_suite shares between the checks of one run: the table
draws, normalizes and purifies each (kind, dims, seed, rank) sample once,
each missing sample from its own seed and the missing ones of a request as
one stack, and hands every request a fresh C-order stack assembled from its
rows.  A check called without a table gets a new one, so it reports the same
as inside a run.  Haar rotations run once per stack.  Each label is
evaluated once per stack by the batched engines and closed forms, which take
the stacks as they are.  The checks then walk (sample, label) in a fixed
order, so the worst residual and its witness do not depend on the batching.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Sequence

import numpy as np

from ._record import Value
from .closedform import closed_form_batch
from .contract import InvariantSpec, eval_mixed_batch, eval_pure_batch
from .perms import (
    enumerate_orbits,
    format_label,
    generator_count,
    is_transitive,
    orbit_count,
    sim_decompose,
)
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


class VerifyReport(Value):
    """One check's outcome; details defaults to a new empty dict.  Unlike
    the other records it may be changed after it is made, so it is
    unhashable."""

    __slots__ = ("check", "params", "tolerance", "max_residual", "passed", "details", "witness")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, check: str, params: dict, tolerance: float, max_residual: float,
                 passed: bool, details: dict | None = None, witness: dict | None = None):
        self.check = check
        self.params = params
        self.tolerance = tolerance
        self.max_residual = max_residual
        self.passed = passed
        self.details = {} if details is None else details
        self.witness = witness

    def to_dict(self) -> dict:
        """The report's fields and schema version; the nested params,
        details and witness are the report's own, not copies."""
        return dict(zip(self.__match_args__, self.__getstate__()), schema_version=SCHEMA_VERSION)


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


class _SampleTable:
    """The samples of one verify run, each drawn, normalized and purified
    once.

    A sample is keyed by (kind, dims, seed, rank): kind "pure" (unit norm),
    "mixed" (unit trace, rank N for full rank) or "unitary" (one Haar
    unitary per subsystem, rank None).  Its row is kept as drawn; each
    request gets a fresh C-order stack of its rows, because the batched
    engines' rounding depends on layout.
    """

    def __init__(self):
        self._rows: dict[tuple, object] = {}
        self._purified: dict[tuple, np.ndarray] = {}

    def _fetch(self, kind: str, dims: tuple[int, ...], seeds: Sequence[int],
               ranks: Sequence) -> list:
        """The rows of the samples, drawing the missing ones as one stack
        per rank."""
        keys = [(kind, dims, seed, rank) for seed, rank in zip(seeds, ranks)]
        missing: dict = {}
        for key in dict.fromkeys(keys):
            if key not in self._rows:
                missing.setdefault(key[3], []).append(key)
        for rank, group in missing.items():
            seeds = [key[2] for key in group]
            if kind == "pure":
                rows = _unit_pures(dims, seeds)
            elif kind == "mixed":
                rows = _unit_densities(dims, seeds, rank)
            else:
                rows = zip(*_unitary_stacks(dims, seeds))
            self._rows.update(zip(group, rows))
        return [self._rows[key] for key in keys]

    def pures(self, dims: tuple[int, ...], seeds: Sequence[int]) -> np.ndarray:
        """Unit-norm random_pure amplitudes per seed: (n, *dims)."""
        return _assembled(self._fetch("pure", dims, seeds, [None] * len(seeds)), dims)

    def densities(self, dims: tuple[int, ...], seeds: Sequence[int],
                  ranks: Sequence[int] | None = None) -> np.ndarray:
        """Unit-trace random_density matrices per seed, of full rank or of
        the matching rank in ranks: (n, N, N)."""
        n = math.prod(dims)
        ranks = [n] * len(seeds) if ranks is None else ranks
        return _assembled(self._fetch("mixed", dims, seeds, ranks), (n, n))

    def unitaries(self, dims: tuple[int, ...], seeds: Sequence[int]) -> list[np.ndarray]:
        """random_local_unitaries per seed, one (n, n_j, n_j) stack per
        subsystem."""
        rows = self._fetch("unitary", dims, seeds, [None] * len(seeds))
        return [_assembled([row[j] for row in rows], (nj, nj)) for j, nj in enumerate(dims)]

    def purified(self, dims: tuple[int, ...], seeds: Sequence[int],
                 ranks: Sequence[int]) -> np.ndarray:
        """The purifications of densities(dims, seeds, ranks), one batched
        eigh per distinct request: (n, *dims, top) as _purify_stack."""
        key = (dims, tuple(seeds), tuple(ranks))
        if key not in self._purified:
            self._purified[key] = _purify_stack(self.densities(dims, seeds, ranks), dims)
        return self._purified[key].copy()


def _assembled(rows: Sequence[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """The rows as one fresh C-order stack (n, *shape)."""
    out = np.empty((len(rows),) + shape, dtype=complex)
    for i, row in enumerate(rows):
        out[i] = row
    return out


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
    table: _SampleTable | None = None,
) -> VerifyReport:
    """Relative drift of every invariant under Haar-random local rotations."""
    dims = check_dims(dims)
    table = _SampleTable() if table is None else table
    if specs is None:
        specs = all_specs(dims)
    psis = table.pures(dims, [seed * 100_003 + 2 * i for i in range(samples)])
    rhos = table.densities(dims, [seed * 100_003 + 2 * i + 1 for i in range(samples)])
    us = table.unitaries(dims, [seed * 900_001 + i for i in range(samples)])
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
    table: _SampleTable | None = None,
) -> VerifyReport:
    """Numerical rank of the label-by-state value matrix over 2D random
    states.  Full rank is expected (and asserted) when m <= min(n_j)."""
    dims = check_dims(dims)
    table = _SampleTable() if table is None else table
    k = len(dims)
    r = k - 1 if kind == "pure" else k
    labels = enumerate_orbits(m, r)
    d = len(labels)
    n_states = 2 * d
    seeds = [seed * 77_041 + i for i in range(n_states)]
    states = table.pures(dims, seeds) if kind == "pure" else table.densities(dims, seeds)
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
    table: _SampleTable | None = None,
) -> VerifyReport:
    """Two-sided class coherence.

    Hard check: for every pure label, all conjugation classes in its split
    evaluate equal on projectors.  Soft check (reported, never failed): for
    random full-rank mixed states, distinct classes of the same split should
    take different values for at least one sample; absence of a witness is
    recorded as inconclusive.
    """
    dims = check_dims((2,) * k if dims is None else dims)
    table = _SampleTable() if table is None else table
    worst = 0.0
    witness = None
    split_results = []
    projectors = _projector_stack(table.pures(dims, [seed * 61_543 + i for i in range(5)]))
    rhos = table.densities(dims, [seed * 44_497 + i for i in range(20)])
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
    table: _SampleTable | None = None,
) -> VerifyReport:
    """f(rho) equals the embedded pure invariant of a purification of rho,
    for every mixed label of grade m."""
    dims = check_dims(dims)
    table = _SampleTable() if table is None else table
    labels = enumerate_orbits(m, len(dims))
    total_dim = math.prod(dims)
    ranks = [1 + (i % total_dim) for i in range(samples)]
    # a purification's rank is at most its requested rank: refuse its dims
    # before any draw
    check_dims(dims + (max(ranks, default=1),))
    seeds = [seed * 52_361 + i for i in range(samples)]
    stack = table.densities(dims, seeds, ranks)
    # the purifications' ranks differ: one stack, zero-padded to the largest
    amps = table.purified(dims, seeds, ranks)
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


#: The largest arity check_counts enumerates at each grade: it runs every
#: (m, r) in 1..5 x 1..5 with at most 2 000 labels.
_COUNT_ARITIES = {1: 5, 2: 5, 3: 5, 4: 3, 5: 2}


def check_counts() -> VerifyReport:
    """Cardinalities of label sets and generator sets against their
    Burnside counts, orbit_count and generator_count (exact), from one
    enumeration per (m, r)."""
    failures = []
    grid = [(m, r) for m, top in _COUNT_ARITIES.items() for r in range(1, top + 1)]
    for m, r in grid:
        labels = enumerate_orbits(m, r)
        got, want = len(labels), orbit_count(m, r)
        if got != want:
            failures.append({"m": m, "r": r, "got": got, "want": want})
        got, want = sum(is_transitive(lab.rep) for lab in labels), generator_count(m, r)
        if got != want:
            failures.append({"m": m, "r": r, "generators": got, "want": want})
    return VerifyReport(
        check="counts",
        params={"m": list(_COUNT_ARITIES), "r_max": list(_COUNT_ARITIES.values())},
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
    table: _SampleTable | None = None,
) -> VerifyReport:
    """Closed-form evaluators against the contraction evaluator on random
    states, every label of grades 1-3, both kinds."""
    dims = check_dims(dims)
    table = _SampleTable() if table is None else table
    worst = 0.0
    witness = None
    specs = all_specs(dims)
    stacks = {
        "pure": table.pures(dims, [seed * 39_989 + 2 * i for i in range(samples)]),
        "mixed": table.densities(dims, [seed * 39_989 + 2 * i + 1 for i in range(samples)]),
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


#: Each suite's checks, called as (seed, dims, table).
SUITES = {
    "counts": lambda seed, dims, table: [check_counts()],
    "lu": lambda seed, dims, table: [
        check_lu_invariance(None, dims, samples=20, seed=seed, table=table)
    ],
    "closed": lambda seed, dims, table: [
        check_closed_forms(dims, samples=10, seed=seed, table=table)
    ],
    "independence": lambda seed, dims, table: [
        check_linear_independence(m, kind, dims, seed=seed, table=table)
        for m in (2, 3)
        for kind in ("pure", "mixed")
    ],
    "classes": lambda seed, dims, table: [
        check_class_consistency(m, len(dims), seed=seed, dims=dims, table=table)
        for m in (2, 3)
    ],
    "purification": lambda seed, dims, table: [
        check_purification(m, dims, seed=seed, table=table) for m in (1, 2, 3)
    ],
}


def run_suite(name: str, seed: int = 0, dims: Sequence[int] = (2, 2)) -> list[VerifyReport]:
    """Run one named suite, or all of them with name="all", on one sample
    table.  dims are checked once, whether or not the suite reads them."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    dims = check_dims(dims)
    table = _SampleTable()
    reports = []
    for key in SUITES if name == "all" else [name]:
        reports.extend(SUITES[key](seed, dims, table))
    return reports


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
