"""Property-check harness.

Each check returns a VerifyReport: deterministic given (name, parameters,
seed), JSON-serializable (reports_to_json writes a number that is not finite
as null), carrying the worst residual seen and a witness for any failure.
Checks are independent and own their seeded PRNG streams.

Linear independence is only ever asserted at fixed local dimensions with
grade m <= min(n_j); algebraic independence of the transitive generators is
a statement about the limit of growing local dimensions and is not
numerically testable, so it is out of scope here (the reports say so).

Every numeric check runs on stacks.  It checks its dims against the
dimension guard, then its seed, before it draws anything.  Its states come
from a sample table, which run_suite shares between the checks of one run:
the table draws, normalizes and purifies each (kind, dims, seed, rank)
sample once, each missing sample from its own seed and the missing ones of
a request as one stack, and hands every request a fresh C-order stack
assembled from its rows.  A check called without a table gets a new one, so
it reports the same as inside a run.  lu_invariance, the one check that
rotates, draws its Haar unitaries itself, one stack per subsystem.  Each
label is evaluated once per stack by the batched engines and closed forms,
which take the stacks as they are.

The residual checks (lu_invariance, closed_forms, class_consistency and
purification) draw fixed sample counts and hold fixed tolerances, the module
constants below.  Each returns through one report builder: it hands over its
residuals as an array in its walk order, (sample, label) or, for
class_consistency, (label, sample), so the worst residual and its witness do
not depend on the batching.  The worst is the first largest residual, and a
NaN counts as the largest, so a NaN fails the check.  linear_independence
fails on a value matrix that is not finite.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np

from ._record import Value
from .closedform import closed_form_batch
from .contract import _evaluate
from .perms import (
    _arity,
    enumerate_orbits,
    format_label,
    generator_count,
    is_transitive,
    orbit_count,
    sim_decompose,
)
from .states import (
    _check_seed,
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
    "render_table",
    "reports_to_json",
    "run_suite",
]

SCHEMA_VERSION = 1

#: The samples of each kind that the lu, closed and purification checks draw.
LU_SAMPLES, CLOSED_SAMPLES, PURIFICATION_SAMPLES = 20, 10, 10

#: Each residual check passes when its worst residual is below its tolerance.
TOLERANCES = {"lu_invariance": 1e-9, "closed_forms": 1e-10, "class_consistency": 1e-10,
              "purification": 1e-9}

#: linear_independence counts the singular values above this fraction of
#: the largest.
SV_THRESHOLD = 1e-8


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

    A sample is keyed by (kind, dims, seed, rank): kind "pure" (unit norm,
    rank None) or "mixed" (unit trace, rank N for full rank).  Its row is
    kept as drawn; each request gets a fresh C-order stack of its rows,
    because the batched engines' rounding depends on layout.
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
            else:
                rows = _unit_densities(dims, seeds, rank)
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


def _label_kinds(dims: tuple[int, ...]) -> list[tuple]:
    """Every (label, kind) pair of grades 1-3 on dims: at each grade the
    pure labels (r = k-1), then the mixed ones (r = k)."""
    return [(lab, kind) for m in (1, 2, 3) for kind in ("pure", "mixed")
            for lab in enumerate_orbits(m, _arity(kind, len(dims)))]


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| elementwise, rounded as Python's abs rounds it (np.abs is not)."""
    return np.hypot(z.real, z.imag)


def _residual_report(check: str, params: dict, residuals: np.ndarray, witness,
                     details: dict | None = None) -> VerifyReport:
    """The report of a residual check.  residuals holds the check's
    residuals in its walk order, one axis per loop.  The worst residual is
    the first largest, and a NaN counts as the largest; the check passes
    only if it is below the check's tolerance, and otherwise
    witness(*index, worst) describes it."""
    at = int(residuals.argmax())  # argmax takes the first NaN, if any
    worst = float(residuals.flat[at])
    tolerance = TOLERANCES[check]
    passed = worst < tolerance
    index = [int(i) for i in np.unravel_index(at, residuals.shape)]
    return VerifyReport(check, params, tolerance, worst, passed, details,
                        None if passed else witness(*index, worst))


def check_lu_invariance(dims: Sequence[int], seed: int = 0,
                        table: _SampleTable | None = None) -> VerifyReport:
    """Relative drift of every invariant under Haar-random local rotations."""
    dims = check_dims(dims)
    seed = _check_seed(seed)
    table = _SampleTable() if table is None else table
    pairs = _label_kinds(dims)
    samples = LU_SAMPLES
    psis = table.pures(dims, [seed * 100_003 + 2 * i for i in range(samples)])
    rhos = table.densities(dims, [seed * 100_003 + 2 * i + 1 for i in range(samples)])
    us = _unitary_stacks(dims, [seed * 900_001 + i for i in range(samples)])
    stacks = {
        "pure": np.concatenate([psis, _rotate_stack(psis, us)]),
        "mixed": np.concatenate([rhos, _rotate_mixed_stack(rhos, dims, us)]),
    }
    # values[pair, i] on sample i, values[pair, samples + i] on its rotation
    values = np.array([_evaluate(lab, kind, stacks[kind], dims) for lab, kind in pairs])
    a, b = values[:, :samples], values[:, samples:]
    drift = _modulus(a - b) / np.maximum(_modulus(a), 1e-300)
    return _residual_report(
        "lu_invariance",
        {"dims": list(dims), "samples": samples, "seed": seed, "labels": len(pairs)},
        drift.T,
        lambda i, s, d: {"label": format_label(pairs[s][0].rep), "kind": pairs[s][1],
                         "sample": i, "drift": d},
    )


def check_linear_independence(
    m: int,
    kind: str,
    dims: Sequence[int],
    seed: int = 0,
    table: _SampleTable | None = None,
) -> VerifyReport:
    """Numerical rank of the label-by-state value matrix over 2D random
    states.  Full rank is expected (and asserted) when m <= min(n_j).  A
    value matrix with a NaN or an infinity fails, with rank 0 and a NaN
    residual."""
    dims = check_dims(dims)
    seed = _check_seed(seed)
    labels = enumerate_orbits(m, _arity(kind, len(dims)))
    table = _SampleTable() if table is None else table
    d = len(labels)
    n_states = 2 * d
    seeds = [seed * 77_041 + i for i in range(n_states)]
    states = table.pures(dims, seeds) if kind == "pure" else table.densities(dims, seeds)
    matrix = np.array([_evaluate(lab, kind, states, dims) for lab in labels])
    finite = bool(np.isfinite(matrix).all())
    sv = np.linalg.svd(matrix, compute_uv=False) if finite else np.full(d, np.nan)
    rank = int((sv > SV_THRESHOLD * sv[0]).sum())
    expect_full = m <= min(dims)
    return VerifyReport(
        check="linear_independence",
        params={"m": m, "kind": kind, "dims": list(dims), "seed": seed,
                "labels": d, "states": n_states},
        tolerance=SV_THRESHOLD,
        max_residual=float(sv[-1] / sv[0]),
        passed=finite and (rank == d or not expect_full),
        details={"rank": rank, "expected_full_rank": expect_full,
                 "note": "algebraic independence lives in the large-dimension "
                         "limit and is not numerically testable; only linear "
                         "independence at these dims is checked"},
    )


def check_class_consistency(m: int, dims: Sequence[int], seed: int = 0,
                            table: _SampleTable | None = None) -> VerifyReport:
    """Two-sided class coherence.

    Hard check: for every pure label, all conjugation classes in its split
    evaluate equal on projectors.  Soft check (reported, never failed): for
    random full-rank mixed states, distinct classes of the same split should
    take different values for at least one sample; absence of a witness is
    recorded as inconclusive.
    """
    dims = check_dims(dims)
    seed = _check_seed(seed)
    table = _SampleTable() if table is None else table
    k = len(dims)
    labels = enumerate_orbits(m, _arity("pure", k))
    spreads = []
    split_results = []
    projectors = _projector_stack(table.pures(dims, [seed * 61_543 + i for i in range(5)]))
    rhos = table.densities(dims, [seed * 44_497 + i for i in range(20)])
    for lab in labels:
        split = sim_decompose(lab.rep)
        assert split.anchor.rep.perms[-1].is_identity()
        member_vals = np.array([_evaluate(member, "mixed", projectors, dims)
                                for member in split.members])
        ref = member_vals[0]
        spreads.append(_modulus(member_vals - ref).max(axis=0) / np.maximum(_modulus(ref), 1e-300))
        rho_vals = [_evaluate(member, "mixed", rhos, dims).tolist() for member in split.members]
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
    return _residual_report(
        "class_consistency",
        {"m": m, "k": k, "dims": list(dims), "seed": seed},
        np.array(spreads),
        lambda l, i, spread: {"label": format_label(labels[l].rep), "sample": i,
                              "spread": spread},
        details={"splits": split_results},
    )


def check_purification(m: int, dims: Sequence[int], seed: int = 0,
                       table: _SampleTable | None = None) -> VerifyReport:
    """f(rho) equals the embedded pure invariant of a purification of rho,
    for every mixed label of grade m."""
    dims = check_dims(dims)
    seed = _check_seed(seed)
    table = _SampleTable() if table is None else table
    labels = enumerate_orbits(m, len(dims))
    samples = PURIFICATION_SAMPLES
    total_dim = math.prod(dims)
    ranks = [1 + (i % total_dim) for i in range(samples)]
    # a purification's rank is at most its requested rank: refuse its dims
    # before any draw
    check_dims(dims + (max(ranks),))
    seeds = [seed * 52_361 + i for i in range(samples)]
    stack = table.densities(dims, seeds, ranks)
    # the purifications' ranks differ: one stack, zero-padded to the largest
    amps = table.purified(dims, seeds, ranks)
    a = np.array([_evaluate(lab, "mixed", stack, dims) for lab in labels])
    b = np.array([_evaluate(lab, "pure", amps, amps.shape[1:]) for lab in labels])
    residuals = _modulus(a - b) / np.maximum(_modulus(a), 1e-300)
    return _residual_report(
        "purification",
        {"m": m, "dims": list(dims), "seed": seed, "samples": samples},
        residuals.T,
        lambda i, l, resid: {"label": format_label(labels[l].rep), "rank": ranks[i],
                             "residual": resid},
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


def check_closed_forms(dims: Sequence[int], seed: int = 0,
                       table: _SampleTable | None = None) -> VerifyReport:
    """closed_form_batch against the contraction engines on random states,
    every label of grades 1-3, both kinds."""
    dims = check_dims(dims)
    seed = _check_seed(seed)
    table = _SampleTable() if table is None else table
    pairs = _label_kinds(dims)
    samples = CLOSED_SAMPLES
    stacks = {
        "pure": table.pures(dims, [seed * 39_989 + 2 * i for i in range(samples)]),
        "mixed": table.densities(dims, [seed * 39_989 + 2 * i + 1 for i in range(samples)]),
    }
    a = np.array([_evaluate(lab, kind, stacks[kind], dims) for lab, kind in pairs])
    b = np.array([closed_form_batch(lab, kind, dims, stacks[kind]) for lab, kind in pairs])
    residuals = _modulus(a - b) / np.maximum(np.maximum(_modulus(a), _modulus(b)), 1e-300)
    return _residual_report(
        "closed_forms",
        {"dims": list(dims), "samples": samples, "seed": seed, "labels": len(pairs)},
        residuals.T,
        lambda i, s, resid: {"label": format_label(pairs[s][0].rep), "kind": pairs[s][1],
                             "sample": i, "residual": resid},
    )


#: Each suite's checks, called as (seed, dims, table).
SUITES = {
    "counts": lambda seed, dims, table: [check_counts()],
    "lu": lambda seed, dims, table: [check_lu_invariance(dims, seed=seed, table=table)],
    "closed": lambda seed, dims, table: [check_closed_forms(dims, seed=seed, table=table)],
    "independence": lambda seed, dims, table: [
        check_linear_independence(m, kind, dims, seed=seed, table=table)
        for m in (2, 3)
        for kind in ("pure", "mixed")
    ],
    "classes": lambda seed, dims, table: [
        check_class_consistency(m, dims, seed=seed, table=table)
        for m in (2, 3)
    ],
    "purification": lambda seed, dims, table: [
        check_purification(m, dims, seed=seed, table=table) for m in (1, 2, 3)
    ],
}


def run_suite(name: str, seed: int = 0, dims: Sequence[int] = (2, 2)) -> list[VerifyReport]:
    """Run one named suite, or all of them with name="all", on one sample
    table.  dims and the seed, a non-negative integer, are checked once,
    whether or not the suite reads them."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    dims = check_dims(dims)
    seed = _check_seed(seed)
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


def _finite_or_null(value):
    """value with every float that is not finite, at any depth, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def reports_to_json(reports: Sequence[VerifyReport]) -> str:
    """The reports as strict JSON: a residual or witness value that is not
    finite is written as null."""
    return json.dumps([_finite_or_null(rep.to_dict()) for rep in reports],
                      indent=2, allow_nan=False)
