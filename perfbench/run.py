#!/usr/bin/env python3
"""Benchmark of the luinv package: four closed-loop workloads on its public API.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 25 --trace 0

One caller in one process sends the requests of a workload one after the
other; the next request starts only when the previous one has completed.  A
workload is a fixed list of requests (a "pass"); the timed phase repeats
passes for about --seconds seconds.  The seed changes the sampled states and
the random permutation tuples only, never the label sets.

With --trace 0 the last line of standard output is a JSON object carrying the
end-to-end metrics; with --trace 1 it carries the per-layer metrics, taken
from spans that this file records around its own calls into each module of
the package (nothing inside the package is instrumented).  --smoke runs every
workload at its smallest size and checks that every metric named in
BENCHMARK.json is emitted.  NOTES.md, next to this file, says why each
workload was chosen and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("oracle_sweep", "heavy_contract", "label_census", "cli_verify")
#: BLAS is pinned to one thread before numpy is first imported: with two
#: OpenBLAS threads on a 2-core machine, small contractions at (4,4,4) were
#: intermittently about 20 times slower (see NOTES.md).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-up is repeated this many times per run (the run itself plus fresh
#: child processes) and setup_s is the median.
SETUP_SAMPLES = 5
#: CpuPicker probes each usable CPU at most this often (seconds), timing its
#: loop this many times per CPU.
PROBE_INTERVAL_S = 0.25
PROBES_PER_CPU = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}
#: The verify suites cli_verify runs.  The "counts" suite is left out: it is
#: one call of 1.5-2.6 s (enumerate_orbits and generator_labels up to r = 5),
#: too few samples of it fit in a run to time it steadily, and label_census
#: times the same two functions directly.
VERIFY_SUITES = ("lu", "closed", "independence", "classes", "purification")
PER_LAYER = {
    "contract.eval_pure.calls": "count",
    "contract.eval_pure.busy_s": "s",
    "contract.eval_mixed.calls": "count",
    "contract.eval_mixed.busy_s": "s",
    "contract.eval.p50_us": "us",
    "closedform.closed_form.calls": "count",
    "closedform.closed_form.busy_s": "s",
    "closedform.closed_form.p50_us": "us",
    "closedform.alternate_writings.busy_s": "s",
    "closedform.evaluate_text.calls": "count",
    "closedform.evaluate_text.busy_s": "s",
    "states.projector.busy_s": "s",
    "states.partial_trace.calls": "count",
    "states.partial_trace.busy_s": "s",
    "states.sample.busy_s": "s",
    "states.save_load.busy_s": "s",
    "perms.enumerate_orbits.calls": "count",
    "perms.enumerate_orbits.busy_s": "s",
    "perms.enumerate_orbits.labels": "count",
    "perms.generator_labels.busy_s": "s",
    "perms.sim_decompose.calls": "count",
    "perms.sim_decompose.busy_s": "s",
    "perms.canonical_form.calls": "count",
    "perms.canonical_form.busy_s": "s",
    "graphs.expressible_ordering.calls": "count",
    "graphs.expressible_ordering.busy_s": "s",
    "graphs.canonical_graph.busy_s": "s",
    **{f"cli.verify.{suite}.busy_s": "s" for suite in VERIFY_SUITES},
    "cli.eval.busy_s": "s",
    "cli.graph.busy_s": "s",
    "bench.self_s": "s",
    "trace.overhead": "1",
}


class BenchError(Exception):
    """The benchmark cannot run here (no package source, a failed child)."""


class Mismatch(Exception):
    """An output missed its reference or its cross-check."""

    def __init__(self, message: str, err: float = 0.0):
        super().__init__(message)
        self.err = err


def load_luinv(root: Path = ROOT):
    """Import luinv from root/src, with BLAS pinned to one thread."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = root / "src"
    if not (src / "luinv" / "__init__.py").is_file():
        raise BenchError(f"no package source at {src / 'luinv'}")
    sys.path.insert(0, str(src))
    import luinv
    import luinv.cli

    if Path(luinv.__file__).resolve().parent != (src / "luinv").resolve():
        raise BenchError(f"luinv was imported from {luinv.__file__}, not from {src}")
    return luinv


def machine_info() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


# -- tracing ---------------------------------------------------------------------


class NullTracer:
    """Untraced runs: calls go straight through."""

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)

    def count(self, name, n):
        pass

    def begin(self, request_id):
        pass

    def end(self):
        pass


class Tracer:
    """Spans (name, start, end, parent, request id) kept in memory.

    Layer spans are recorded around this file's calls into the package; a
    request span encloses the layer spans of one request, which name it as
    parent.  Counts are kept at the same boundaries.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple[str, int, bool]] = []
        self.timed = False
        self._open: tuple[int, int] | None = None

    def call(self, name, fn, *args):
        parent, req = self._open or (None, None)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append([name, t0, time.perf_counter(), parent, req])

    def count(self, name, n):
        self.counts.append((name, n, self.timed))

    def begin(self, request_id):
        self._open = (len(self.spans), request_id)
        self.spans.append(["request", time.perf_counter(), None, None, request_id])

    def end(self):
        self.spans[self._open[0]][2] = time.perf_counter()
        self._open = None


def layer_metrics(tracer: Tracer, n_setup: int, passes: int, pass_wall_total: float) -> dict:
    """Per-layer numbers for one set-up plus one pass of the timed phase.

    Spans up to index n_setup belong to set-up and count once; later spans
    are divided by the number of passes.  busy_s is self time: span duration
    minus the durations of its child spans.
    """
    child = defaultdict(float)
    for name, t0, t1, parent, _ in tracer.spans:
        if parent is not None:
            child[parent] += t1 - t0
    calls, busy = Counter(), defaultdict(float)
    durations = defaultdict(list)
    timed_layer_s = 0.0
    for i, (name, t0, t1, parent, _) in enumerate(tracer.spans):
        if name == "request":
            continue
        weight = 1.0 if i < n_setup else 1.0 / passes
        calls[name] += weight
        busy[name] += (t1 - t0 - child[i]) * weight
        durations[name].append(t1 - t0)
        if i >= n_setup:  # every layer span of a pass is a request's child
            timed_layer_s += t1 - t0
    extra = Counter()
    for name, n, timed in tracer.counts:
        extra[name] += n / passes if timed else n

    def p50_us(*names):
        pooled = [d for nm in names for d in durations[nm]]
        return statistics.median(pooled) * 1e6 if pooled else 0.0

    out = {}
    for metric in PER_LAYER:
        base, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = round(calls[base], 6)
        elif stat == "busy_s":
            out[metric] = busy[base]
        elif stat == "labels":
            out[metric] = round(extra[metric], 6)
    out["contract.eval.p50_us"] = p50_us("contract.eval_pure", "contract.eval_mixed")
    out["closedform.closed_form.p50_us"] = p50_us("closedform.closed_form")
    out["bench.self_s"] = (pass_wall_total - timed_layer_s) / passes
    return out


# -- references independent of the package ---------------------------------------


def partitions(m: int, largest: int | None = None):
    """Integer partitions of m as non-increasing tuples."""
    largest = m if largest is None else largest
    if m == 0:
        yield ()
        return
    for part in range(min(m, largest), 0, -1):
        for rest in partitions(m - part, part):
            yield (part,) + rest


def burnside_count(m: int, r: int) -> int:
    """Number of simultaneous-conjugation orbits on S_m^r (r >= 1):
    sum over cycle types lambda of z_lambda^(r-1), z_lambda the order of the
    centralizer of a permutation of that type."""
    total = 0
    for lam in partitions(m):
        z = 1
        for size, mult in Counter(lam).items():
            z *= size**mult * math.factorial(mult)
        total += z ** (r - 1)
    return total


def s3_generator_count(r: int) -> int:
    """Transitive conjugation orbits on S_3^r."""
    return 6 ** (r - 1) + 3 ** (r - 1) - 2 ** (r - 1)


def _compose(a, b):
    return tuple(a[x - 1] for x in b)


def _inverse(p):
    inv = [0] * len(p)
    for i, x in enumerate(p, start=1):
        inv[x - 1] = i
    return tuple(inv)


def _conjugate_tuple(entries, beta):
    binv = _inverse(beta)
    return tuple(_compose(_compose(beta, p), binv) for p in entries)


def _canonical_key(entries, group):
    return min(sum(_conjugate_tuple(entries, beta), ()) for beta in group)


def split_size(entries) -> int:
    """Number of conjugation classes in the two-sided class of the embedded
    pure label (entries..., e), by brute force over S_m x S_m."""
    m = len(entries[0])
    group = list(itertools.permutations(range(1, m + 1)))
    embedded = tuple(entries) + (tuple(range(1, m + 1)),)
    classes = set()
    for a in group:
        for b in group:
            binv = _inverse(b)
            member = tuple(_compose(_compose(a, p), binv) for p in embedded)
            classes.add(_canonical_key(member, group))
    return len(classes)


def cycle_type(p) -> tuple[int, ...]:
    seen, lengths = set(), []
    for start in range(1, len(p) + 1):
        n, x = 0, start
        while x not in seen:
            seen.add(x)
            x = p[x - 1]
            n += 1
        if n:
            lengths.append(n)
    return tuple(sorted(lengths))


def agree(a: complex, b: complex, tol: float, what: str) -> float:
    err = abs(a - b) / max(abs(a), abs(b), 1e-300)
    if not err <= tol:
        raise Mismatch(f"{what}: relative difference {err:.3e} > {tol:g}", err)
    return err


def expect(condition: bool, what: str):
    if not condition:
        raise Mismatch(what)


# -- workloads -------------------------------------------------------------------


class Workload:
    """A workload builds its inputs in setup() (timed as setup_s), computes
    any benchmark-side references in prepare() (untimed), and returns its
    fixed request list from requests().  A request is a function of the
    tracer that returns the largest relative error of its cross-checks and
    raises on any failure.  end_pass() returns the outcomes of checks over a
    whole pass."""

    def __init__(self, L, seed: int, small: bool):
        self.L, self.seed, self.small = L, seed, small

    def prepare(self):
        pass

    def end_pass(self) -> list[bool]:
        return []

    def cleanup(self):
        pass


class OracleSweep(Workload):
    """Every m <= 3 pure and mixed label over random states at five dims."""

    def __init__(self, L, seed: int, small: bool):
        super().__init__(L, seed, small)
        self.dims = [(2, 2), (2, 2, 2)] if small else [
            (2, 2), (3, 3), (2, 2, 2), (3, 3, 3), (2, 2, 2, 2)]
        self.n_states = 1 if small else 2

    def setup(self, T):
        L = self.L
        self.cases = []
        for d, dims in enumerate(self.dims):
            k = len(dims)
            pure, mixed = [], []
            for m in (1, 2, 3):
                pure += T.call("perms.enumerate_orbits", L.enumerate_orbits, m, k - 1)
                mixed += T.call("perms.enumerate_orbits", L.enumerate_orbits, m, k)
            T.count("perms.enumerate_orbits.labels", len(pure) + len(mixed))
            for i in range(self.n_states):
                base = 1_000_003 * self.seed + 1000 * d + 10 * i
                psi = T.call("states.sample", L.random_pure, dims, base)
                rho = T.call("states.sample", L.random_density, dims, base + 1)
                self.cases.append((dims, pure, mixed, psi, rho))

    def requests(self):
        out = []
        for dims, pure, mixed, psi, rho in self.cases:
            writings = dims == (2, 2, 2)
            out += [self._pure(lab, psi, writings and lab.m == 3) for lab in pure]
            out += [self._mixed(lab, rho) for lab in mixed]
        return out

    def _pure(self, lab, psi, writings):
        L = self.L

        def request(T):
            v = T.call("contract.eval_pure", L.eval_pure, lab, psi)
            err = agree(v, T.call("closedform.closed_form", L.closed_form, lab, "pure", psi), 1e-10,
                        "eval_pure vs closed_form")
            pi = T.call("states.projector", L.projector, psi)
            red = T.call("states.partial_trace", L.partial_trace, pi, {psi.k})
            w = T.call("contract.eval_mixed", L.eval_mixed, lab, red)
            err = max(err, agree(v, w, 1e-9, "eval_pure vs reduced eval_mixed"))
            if writings:
                descs = T.call("closedform.alternate_writings", L.alternate_writings, lab, "pure")
                for desc in descs:
                    t = T.call("closedform.evaluate_text", desc.evaluate_text, psi)
                    err = max(err, agree(v, t, 1e-10, f"evaluate_text {desc.text!r}"))
            return err

        return request

    def _mixed(self, lab, rho):
        L = self.L

        def request(T):
            v = T.call("contract.eval_mixed", L.eval_mixed, lab, rho)
            c = T.call("closedform.closed_form", L.closed_form, lab, "mixed", rho)
            return agree(v, c, 1e-10, "eval_mixed vs closed_form")

        return request


class HeavyContract(Workload):
    """Grade-4 pure labels and grade-3 mixed labels at dims (4,4,4).

    One pure state and two mixed states: the grade-4 pure labels hold nearly
    all the time of a pass, and a short pass gives each of them more samples
    in a run."""

    DIMS = (4, 4, 4)

    def setup(self, T):
        L = self.L
        k = len(self.DIMS)
        self.pure = T.call("perms.enumerate_orbits", L.enumerate_orbits, 4, k - 1)
        self.mixed = T.call("perms.enumerate_orbits", L.enumerate_orbits, 3, k)
        T.count("perms.enumerate_orbits.labels", len(self.pure) + len(self.mixed))
        if self.small:
            self.pure, self.mixed = self.pure[:4], self.mixed[:4]
        base = 1_000_003 * self.seed
        self.psi = T.call("states.sample", L.random_pure, self.DIMS, base)
        self.rhos = [T.call("states.sample", L.random_density, self.DIMS, base + 7 + i)
                     for i in range(1 if self.small else 2)]

    def requests(self):
        return ([self._pure(lab, self.psi) for lab in self.pure]
                + [self._mixed(lab, rho) for rho in self.rhos for lab in self.mixed])

    def _pure(self, lab, psi):
        L = self.L

        def request(T):
            v = T.call("contract.eval_pure", L.eval_pure, lab, psi)
            pi = T.call("states.projector", L.projector, psi)
            red = T.call("states.partial_trace", L.partial_trace, pi, {psi.k})
            w = T.call("contract.eval_mixed", L.eval_mixed, lab, red)
            return agree(v, w, 1e-9, "eval_pure vs reduced eval_mixed")

        return request

    def _mixed(self, lab, rho):
        L = self.L

        def request(T):
            v = T.call("contract.eval_mixed", L.eval_mixed, lab, rho)
            c = T.call("closedform.closed_form", L.closed_form, lab, "mixed", rho)
            return agree(v, c, 1e-10, "eval_mixed vs closed_form")

        return request


class LabelCensus(Workload):
    """Label algebra and graphs only: no numeric contraction.

    Each request is one or two calls of at most about 0.2 s, so that a run
    holds twenty or more samples of every request."""

    def __init__(self, L, seed: int, small: bool):
        super().__init__(L, seed, small)
        if small:
            self.enum_sizes, self.gen_r = [(3, 3), (4, 2), (2, 3)], 3
            self.sim_m, self.canon_m, self.canon_r, self.n_canon = 3, 4, 2, 2
            self.graph_sets = [(3, 2), (2, 2)]
        else:
            self.enum_sizes, self.gen_r = [(3, 4), (4, 2), (2, 6)], 4
            self.sim_m, self.canon_m, self.canon_r, self.n_canon = 4, 6, 3, 4
            self.graph_sets = [(4, 2), (3, 3)]

    def setup(self, T):
        L = self.L
        rng = random.Random(self.seed)
        m = self.canon_m

        def rand_perm():
            p = list(range(1, m + 1))
            rng.shuffle(p)
            return tuple(p)

        self.canon_inputs = []
        for _ in range(self.n_canon):
            entries = tuple(rand_perm() for _ in range(self.canon_r))
            moved = _conjugate_tuple(entries, rand_perm())
            self.canon_inputs.append(tuple(
                L.PermTuple(m, tuple(L.Perm(p) for p in t)) for t in (entries, moved)))
        self.sim_labels = T.call("perms.enumerate_orbits", L.enumerate_orbits, self.sim_m, 1)
        self.graphs = []
        for gm, gr in self.graph_sets:
            labels = T.call("perms.enumerate_orbits", L.enumerate_orbits, gm, gr)
            self.graphs.append((gm, gr, [L.build_graph(lab.rep) for lab in labels]))
        T.count("perms.enumerate_orbits.labels",
                len(self.sim_labels) + sum(len(g) for _, _, g in self.graphs))

    def prepare(self):
        self.splits = []
        self.canon_graphs = defaultdict(set)

    def requests(self):
        out = [self._enumerate(m, r) for m, r in self.enum_sizes]
        out.append(self._generators(self.gen_r))
        out += [self._split(lab) for lab in self.sim_labels]
        out += [self._canonical(a, b) for a, b in self.canon_inputs]
        out += [self._graph(gm, gr, g) for gm, gr, gs in self.graphs for g in gs]
        return out

    def _enumerate(self, m, r):
        L = self.L

        def request(T):
            labels = T.call("perms.enumerate_orbits", L.enumerate_orbits, m, r)
            T.count("perms.enumerate_orbits.labels", len(labels))
            want = burnside_count(m, r)
            what = f"enumerate_orbits({m},{r})"
            expect(len(labels) == want, f"{what} gave {len(labels)}, Burnside {want}")
            keys = [lab.rep.key() for lab in labels]
            expect(all(a < b for a, b in zip(keys, keys[1:])), f"{what} not sorted")
            return 0.0

        return request

    def _generators(self, r):
        L = self.L

        def request(T):
            gens = T.call("perms.generator_labels", L.generator_labels, 3, r)
            want = s3_generator_count(r)
            expect(len(gens) == want, f"generator_labels(3,{r}) gave {len(gens)}, want {want}")
            return 0.0

        return request

    def _split(self, lab):
        L = self.L

        def request(T):
            split = T.call("perms.sim_decompose", L.sim_decompose, lab.rep)
            expect(split.anchor in split.members, "sim_decompose anchor is not a member")
            expect(all(mem.r == lab.r + 1 for mem in split.members), "sim_decompose member arity")
            self.splits.append(split.members)
            return 0.0

        return request

    def _canonical(self, sigma, moved):
        L = self.L

        def request(T):
            a = T.call("perms.canonical_form", L.canonical_form, sigma)
            b = T.call("perms.canonical_form", L.canonical_form, moved)
            expect(a == b, "canonical_form differs on a conjugate")
            types = [cycle_type(p.images) for p in sigma.perms]
            expect([cycle_type(p.images) for p in a.rep.perms] == types,
                   "canonical_form changed a cycle type")
            expect(a.rep.key() <= sigma.key(), "canonical_form is not the minimum")
            return 0.0

        return request

    def _graph(self, m, r, g):
        L = self.L

        def request(T):
            order = T.call("graphs.expressible_ordering", L.expressible_ordering, g)
            code = T.call("graphs.canonical_graph", L.canonical_graph, g)
            if m <= 3:
                expect(order is not None, f"grade-{m} graph without an expressible ordering")
            if order is not None:
                expect(order[0] == 1 and sorted(order) == list(range(1, m + 1)),
                       f"bad ordering {order}")
            self.canon_graphs[(m, r)].add(code)
            return 0.0

        return request

    def end_pass(self):
        members = [mem for split in self.splits for mem in split]
        want = burnside_count(self.sim_m, 2)
        checks = [len(members) == want and len(set(members)) == want]
        checks += [len(self.canon_graphs[(m, r)]) == burnside_count(m, r)
                   for m, r in self.graph_sets]
        self.prepare()
        return checks


class CliVerify(Workload):
    """The command-line front end in-process: verify suites, eval, graph."""

    def __init__(self, L, seed: int, small: bool):
        super().__init__(L, seed, small)
        # at (2,2,2) a suite call takes up to 0.5 s, too long to time steadily
        self.verify_dims = "2,2"
        self.tmp = ROOT / ".perfbench_tmp" / f"cli_verify-{os.getpid()}"

    def setup(self, T):
        L = self.L
        self.tmp.mkdir(parents=True, exist_ok=True)
        base = 1_000_003 * self.seed
        self.psi = T.call("states.sample", L.random_pure, (2, 2, 2), base)
        self.rho = T.call("states.sample", L.random_density, (2, 2, 2), base + 1)
        self.files = {}
        for kind, state in (("pure", self.psi), ("mixed", self.rho)):
            path = self.tmp / f"{kind}.json"
            T.call("states.save_load", L.save_state, state, path)
            loaded = T.call("states.save_load", L.load_state, path)
            expect(loaded.dims == state.dims, f"{kind} state file changed dims")
            self.files[kind] = str(path)
        pure = T.call("perms.enumerate_orbits", L.enumerate_orbits, 3, 2)
        mixed = T.call("perms.enumerate_orbits", L.enumerate_orbits, 3, 3)
        T.count("perms.enumerate_orbits.labels", len(pure) + len(mixed))
        self.evals = [("pure", lab) for lab in pure] + [("mixed", lab) for lab in mixed[::4]]
        self.graphs = pure
        if self.small:
            self.evals, self.graphs = self.evals[:1] + self.evals[-1:], pure[:2]

    def prepare(self):
        L = self.L
        self.expected = {}
        for kind, lab in self.evals:
            if kind == "pure":
                self.expected[kind, lab] = L.eval_pure(lab, self.psi)
            else:
                self.expected[kind, lab] = L.eval_mixed(lab, self.rho)
        self.split_sizes = {lab: split_size([p.images for p in lab.rep.perms])
                            for lab in self.graphs}
        self.graph_lines = 0

    def cleanup(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.tmp.parent.rmdir()

    def _main(self, T, span, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = T.call(span, self.L.cli.main, argv)
        expect(code == 0, f"luinv {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def requests(self):
        out = [self._verify(suite) for suite in VERIFY_SUITES]
        out += [self._eval(kind, lab) for kind, lab in self.evals]
        out += [self._graph(lab) for lab in self.graphs]
        return out

    def _verify(self, suite):
        report = self.tmp / f"report-{suite}.json"
        argv = ["verify", "--suite", suite, "--dims", self.verify_dims,
                "--seed", str(self.seed), "--report", str(report)]

        def request(T):
            self._main(T, f"cli.verify.{suite}", argv)
            with open(report, encoding="utf-8") as fp:
                docs = json.load(fp)
            expect(docs and all(doc["passed"] for doc in docs),
                   f"verify --suite {suite} reported a failure")
            return 0.0

        return request

    def _eval(self, kind, lab):
        text = self.L.format_label(lab.rep)
        argv = ["eval", "--label", text, "--kind", kind, "--m", "3",
                "--state", self.files[kind], "--json"]

        def request(T):
            doc = json.loads(self._main(T, "cli.eval", argv))
            contract, closed = complex(*doc["contract"]), complex(*doc["closed_form"])
            err = agree(contract, closed, 1e-10, f"eval {text}: contract vs closed form")
            expected = self.expected[kind, lab]
            return max(err, agree(contract, expected, 1e-12, f"eval {text} vs in-process"))

        return request

    def _graph(self, lab):
        text = self.L.format_label(lab.rep)
        argv = ["graph", "--m", "3", "--k", "3", "--label", text, "--kind", "pure", "--decompose"]

        def request(T):
            lines = self._main(T, "cli.graph", argv).strip().splitlines()
            want = self.split_sizes[lab]
            what = f"graph --decompose {text}"
            expect(len(lines) == want, f"{what}: {len(lines)} writings, want {want}")
            expect(all("Tr(" in line for line in lines), f"{what}: line without a formula")
            self.graph_lines += len(lines)
            return 0.0

        return request

    def end_pass(self):
        checks = []
        if len(self.graphs) == burnside_count(3, 2):
            # the splits of all grade-3 pure labels on 3 subsystems partition
            # the grade-3 mixed labels on 3 subsystems
            checks.append(self.graph_lines == burnside_count(3, 3))
        self.graph_lines = 0
        return checks


WORKLOAD_CLASSES = {
    "oracle_sweep": OracleSweep,
    "heavy_contract": HeavyContract,
    "label_census": LabelCensus,
    "cli_verify": CliVerify,
}


# -- running a workload ----------------------------------------------------------


class PhaseStats:
    def __init__(self):
        self.latencies: list[list[float]] = []  # one list per pass
        self.pass_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.max_rel_err = 0.0
        self.first_errors: list[str] = []

    def fail(self, message: str):
        self.failed += 1
        if len(self.first_errors) < 5:
            self.first_errors.append(message)


def _probe_loop():
    total = 0
    for i in range(3000):
        total += i * i % 7
    return total


class CpuPicker:
    """Keeps the benchmark on whichever of its usable CPUs runs fastest now.

    On the shared machine the benchmark was tuned on, each virtual CPU slows
    down by a factor of up to about 1.6, independently of the other and for
    seconds to minutes at a time (NOTES.md).  Between requests, at most every
    PROBE_INTERVAL_S seconds, a short fixed pure-Python loop is timed on each
    usable CPU and the process is pinned to the fastest.  The probes run
    outside every request's timing, and `spent` totals their time.  A set-up
    child process inherits the CPU chosen last.  With one usable CPU this
    does nothing.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.spent = 0.0
        self.switches = 0
        self._next = 0.0
        self._current = None

    def _probe(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        times = []
        for _ in range(PROBES_PER_CPU):
            t0 = time.perf_counter()
            _probe_loop()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def maybe_switch(self, force: bool = False):
        if len(self.cpus) < 2:
            return
        t0 = time.perf_counter()
        if t0 < self._next and not force:
            return
        best = min(self.cpus, key=self._probe)
        os.sched_setaffinity(0, {best})
        self.switches += best != self._current
        self._current = best
        t1 = time.perf_counter()
        self.spent += t1 - t0
        self._next = t1 + PROBE_INTERVAL_S

    def release(self):
        if len(self.cpus) >= 2:
            os.sched_setaffinity(0, set(self.cpus))


def timed_phase(wl, phases, seconds: float, picker: CpuPicker):
    """Repeat passes over the request list while the next pass is expected
    to end within `seconds`, always at least one per phase.  `phases` holds
    (tracer, stats) pairs; passes take them in turn, so that a traced run's
    untraced and traced passes see the same drift in machine speed.

    The requests run in one fixed shuffled order, so that short requests
    are spread over the pass between the long ones and their latencies
    sample the machine's drifting speed across the whole pass."""
    requests = wl.requests()
    random.Random(0).shuffle(requests)
    request_ids = itertools.count()
    start = time.perf_counter()
    walls = []
    for n in itertools.count():
        T, stats = phases[n % len(phases)]
        p0, spent0 = time.perf_counter(), picker.spent
        latencies = []
        for request in requests:
            picker.maybe_switch()
            T.begin(next(request_ids))
            t0 = time.perf_counter()
            try:
                err = request(T)
            except Mismatch as exc:
                err = exc.err
                stats.fail(str(exc))
            except Exception as exc:  # any raise is a failed request; keep going
                err = 0.0
                stats.fail(f"{type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t0)
            T.end()
            stats.attempted += 1
            stats.max_rel_err = max(stats.max_rel_err, err)
        stats.pass_walls.append(time.perf_counter() - p0 - (picker.spent - spent0))
        stats.latencies.append(latencies)
        walls.append(stats.pass_walls[-1])
        for ok in wl.end_pass():
            stats.attempted += 1
            if not ok:
                stats.fail("a whole-pass count check failed")
        elapsed = time.perf_counter() - start
        if n + 1 >= len(phases) and elapsed + statistics.median(walls) > seconds:
            return


def setup_once(L, name: str, seed: int, small: bool, T, t_import_start: float):
    wl = WORKLOAD_CLASSES[name](L, seed, small)
    wl.setup(T)
    return wl, time.perf_counter() - t_import_start


def child_setup_seconds(name: str, seed: int, small: bool) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-only"] + (["--small"] if small else [])
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def best_latencies(passes: list[list[float]]) -> list[float]:
    """Each request's fastest latency over the passes of the run.

    Every pass holds the same requests in the same order.  The machine the
    benchmark was tuned on changes speed for seconds to minutes at a time
    (NOTES.md), which only ever adds time; a request's fastest run is the
    part of its latency that belongs to the code.
    """
    return [min(samples) for samples in zip(*passes)]


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def run_workload(L, name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False, setup_samples: int = SETUP_SAMPLES,
                 t_import_start: float | None = None, spans_path: Path | None = None,
                 picker: CpuPicker | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    picker = picker or CpuPicker()
    if t_import_start is None:
        picker.maybe_switch(force=True)
        t_import_start = time.perf_counter()
    T = Tracer() if trace else NullTracer()
    wl, setup_s = setup_once(L, name, seed, small, T, t_import_start)
    try:
        setups = [setup_s]
        if not trace:
            for _ in range(setup_samples - 1):
                picker.maybe_switch(force=True)  # the child inherits the CPU
                setups.append(child_setup_seconds(name, seed, small))
        wl.prepare()
        untraced, traced = PhaseStats(), PhaseStats()
        phases = [(NullTracer(), untraced)]
        if trace:
            n_setup = len(T.spans)
            T.timed = True
            phases.append((T, traced))
        timed_phase(wl, phases, seconds, picker)
    finally:
        picker.release()
        wl.cleanup()

    stats = [untraced, traced] if trace else [untraced]
    attempted = sum(p.attempted for p in stats)
    failed = sum(p.failed for p in stats)
    if trace:
        metrics = layer_metrics(T, n_setup, len(traced.pass_walls), sum(traced.pass_walls))
        metrics["trace.overhead"] = (sum(best_latencies(traced.latencies))
                                     / sum(best_latencies(untraced.latencies)) - 1)
        units = PER_LAYER
        if spans_path is not None:
            write_spans(spans_path, T, t_import_start)
    else:
        best = best_latencies(untraced.latencies)
        wall = sum(best)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "req_per_s": len(best) / wall,
            "req_p50_ms": percentile(best, 50) * 1e3,
            "req_p90_ms": percentile(best, 90) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "_info": {
            "passes": [len(p.pass_walls) for p in stats],
            "requests_per_pass": len(untraced.latencies[0]),
            "median_pass_s": statistics.median(untraced.pass_walls),
            "cpu_switches": picker.switches,
            "probe_s": picker.spent,
            "latency_samples": sum(len(lat) for lat in untraced.latencies),
            "max_rel_err": max(p.max_rel_err for p in stats),
            "errors": [e for p in stats for e in p.first_errors][:5],
            "setup_samples": setups if not trace else [setup_s],
        },
    }


def write_spans(path: Path, T: Tracer, t0: float):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fp:
        fp.write('{"fields": ["name", "start_s", "end_s", "parent", "request"], "spans": [\n')
        fp.write(",\n".join(json.dumps([n, round(a - t0, 7), round(b - t0, 7), p, r])
                            for n, a, b, p, r in T.spans))
        fp.write("\n]}\n")


def report(name: str, result: dict, machine: dict):
    """Human-readable lines before the result line."""
    info = result["_info"]
    print(f"machine {json.dumps(machine)}")
    print(f"workload {name}: passes {info['passes']}, "
          f"{info['requests_per_pass']} requests per pass, "
          f"{info['latency_samples']} latency samples, "
          f"median pass {info['median_pass_s']:.6g} s; "
          f"{info['cpu_switches']} CPU switches, {info['probe_s']:.3g} s in CPU probes")
    print(f"fail_ratio {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']}), max_rel_err {info['max_rel_err']:.3e}")
    for message in info["errors"]:
        print(f"failure: {message}")
    for key, metric in result["metrics"].items():
        print(f"  {key:<40} {metric['value']:.6g} {metric['unit']}")


def declared_metrics(root: Path = ROOT) -> tuple[list[str], list[str]]:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fp:
        doc = json.load(fp)
    return [m["name"] for m in doc["end_to_end"]], [m["name"] for m in doc["per_layer"]]


def smoke(L, seed: int = 0) -> list[str]:
    """Every workload at its smallest size, untraced and traced; returns the
    problems found (missing metrics, failed requests)."""
    e2e, per_layer = declared_metrics()
    problems = []
    for name in WORKLOADS:
        for trace, wanted in ((False, e2e), (True, per_layer)):
            result = run_workload(L, name, seed, 0.0, trace, small=True, setup_samples=2)
            missing = [m for m in wanted if m not in result["metrics"]]
            if missing:
                problems.append(f"{name} trace={int(trace)}: missing {missing}")
            if result["failed"]:
                problems.append(f"{name} trace={int(trace)}: {result['_info']['errors']}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at its smallest size and check the metrics")
    parser.add_argument("--small", action="store_true", help="smallest size of the workload")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for the setup_s samples)")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    picker = CpuPicker()
    if not args.setup_only:  # a set-up child keeps the CPU its parent chose
        picker.maybe_switch(force=True)
    t_import_start = time.perf_counter()
    try:
        L = load_luinv()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.setup_only:
        wl, setup_s = setup_once(L, args.workload, args.seed, args.small, NullTracer(),
                                 t_import_start)
        wl.cleanup()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.smoke:
        problems = smoke(L, args.seed)
        for p in problems:
            print(f"smoke: {p}")
        print("smoke: ok" if not problems else "smoke: FAILED")
        return 1 if problems else 0

    spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json"
    try:
        result = run_workload(L, args.workload, args.seed, args.seconds, bool(args.trace),
                              small=args.small, t_import_start=t_import_start,
                              spans_path=spans_path, picker=picker)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(args.workload, result, machine_info())
    if args.trace:
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    result.pop("_info")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
