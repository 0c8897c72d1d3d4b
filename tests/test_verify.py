import hashlib
import json
import re
from collections import Counter

import numpy as np
import pytest

from luinv import perms as P
from luinv import states as S
from luinv import verify as V
from luinv.cli import main
from luinv.errors import ResourceLimitError

#: The suites that draw samples and evaluate labels on them.
NUMERIC_SUITES = ("lu", "closed", "independence", "classes", "purification")


class TestReports:
    def test_counts_pass(self):
        rep = V.check_counts()
        assert rep.passed
        assert rep.details["failures"] == []

    def test_counts_grid(self):
        """Every grade and arity in 1..5 with at most 2 000 labels."""
        rep = V.check_counts()
        assert rep.params == {"m": [1, 2, 3, 4, 5], "r_max": [5, 5, 5, 3, 2]}
        grid = [(m, r) for m, top in zip(rep.params["m"], rep.params["r_max"])
                for r in range(1, top + 1)]
        assert grid == [(m, r) for m in range(1, 6) for r in range(1, 6)
                        if P.orbit_count(m, r) <= 2_000]
        assert len(grid) == 20

    def test_counts_report_is_unchanged(self):
        """sha256 of the report's JSON, pinned before the generator counts
        were taken from the one enumeration per (m, r)."""
        text = V.reports_to_json([V.check_counts()])
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "1a27a1a89d830fff10a71841bc6b11b550d907770863d7e3222f4e6e43f275f0")

    def test_counts_enumerate_once_per_grid_point(self, monkeypatch):
        """The generator count filters the one enumeration: no second walk,
        in verify or inside perms (generator_labels)."""
        calls = Counter()
        enumerate_orbits = P.enumerate_orbits

        def counted(m, r):
            calls[m, r] += 1
            return enumerate_orbits(m, r)

        monkeypatch.setattr(V, "enumerate_orbits", counted)
        monkeypatch.setattr(P, "enumerate_orbits", counted)
        assert V.check_counts().passed
        assert len(calls) == 20 and set(calls.values()) == {1}

    def test_counts_can_fail(self, monkeypatch):
        """A Burnside count off by one at (4, 2) fails the check there."""
        def off_by_one(m, r):
            return P.orbit_count(m, r) + ((m, r) == (4, 2))

        monkeypatch.setattr(V, "orbit_count", off_by_one)
        rep = V.check_counts()
        assert not rep.passed and rep.max_residual == 1.0
        assert rep.details["failures"] == [{"m": 4, "r": 2, "got": 43, "want": 44}]

    def test_deterministic(self):
        a = V.check_lu_invariance((2, 2), seed=3)
        b = V.check_lu_invariance((2, 2), seed=3)
        assert a.to_dict() == b.to_dict()

    def test_json_serializable(self):
        reports = [V.check_counts(), V.check_purification(2, (2, 2), seed=1)]
        doc = json.loads(V.reports_to_json(reports))
        assert len(doc) == 2
        assert all(d["schema_version"] == 1 for d in doc)

    def test_table_rendering(self):
        text = V.render_table([V.check_counts()])
        assert "counts" in text and "pass" in text


class TestChecks:
    def test_lu_invariance_passes(self):
        rep = V.check_lu_invariance((2, 3), seed=0)
        assert rep.passed, rep.witness
        assert rep.max_residual < 1e-9

    def test_closed_forms_pass(self):
        rep = V.check_closed_forms((2, 2), seed=0)
        assert rep.passed, rep.witness

    def test_linear_independence_full_rank_m2(self):
        rep = V.check_linear_independence(2, "pure", (2, 2, 2), seed=0)
        assert rep.passed
        assert rep.details["rank"] == 4

    def test_linear_independence_refuses_an_unknown_kind_before_any_draw(self, no_draws):
        with pytest.raises(ValueError, match="kind must be 'pure' or 'mixed', got 'Pure'"):
            V.check_linear_independence(2, "Pure", (2, 2, 2))

    def test_linear_independence_qubit_m3_not_asserted(self):
        rep = V.check_linear_independence(3, "pure", (2, 2, 2), seed=0)
        assert rep.passed  # m > n_j: rank deficiency expected, reported only
        assert rep.details["rank"] < 11
        assert not rep.details["expected_full_rank"]

    def test_class_consistency(self):
        rep = V.check_class_consistency(3, (2, 2), seed=0)
        assert rep.passed, rep.witness
        splits = rep.details["splits"]
        assert sum(s["classes"] for s in splits) == 11
        # full-rank mixed states split the classes apart
        assert all(s["inconclusive_pairs"] == 0 for s in splits)

    def test_purification(self):
        for m in (1, 2, 3):
            rep = V.check_purification(m, (2, 2), seed=0)
            assert rep.passed, rep.witness

    def test_modulus_rounds_as_python_abs(self, rng):
        # the residuals keep the bits of the Python loops they replaced;
        # np.abs rounds the last bit of about a third of these otherwise
        zs = (rng.standard_normal(4000) + 1j * rng.standard_normal(4000)) * 10.0 ** rng.integers(
            -12, 3, 4000)
        assert V._modulus(zs).tolist() == [abs(z) for z in zs.tolist()]


def nan_values(label, kind, *args):
    # an engine or closed form whose every value is NaN on its stack, the
    # one array among its arguments
    stack = next(arg for arg in args if isinstance(arg, np.ndarray))
    return np.full(len(stack), np.nan, dtype=complex)


#: The four residual checks, each on its own table.
RESIDUAL_CHECKS = {
    "lu_invariance": lambda: V.check_lu_invariance((2, 2)),
    "closed_forms": lambda: V.check_closed_forms((2, 2)),
    "class_consistency": lambda: V.check_class_consistency(2, (2, 2)),
    "purification": lambda: V.check_purification(2, (2, 2)),
}


class TestNaNFails:
    @pytest.fixture
    def nan_engines(self, monkeypatch):
        monkeypatch.setattr(V, "_evaluate", nan_values)

    def test_the_worst_residual_is_the_first_largest_or_nan(self):
        def where(*index):
            return index

        rep = V._residual_report("purification", {}, np.array([[1.0, 3.0], [3.0, 0.0]]), where)
        assert (rep.max_residual, rep.passed, rep.witness) == (3.0, False, (0, 1, 3.0))
        rep = V._residual_report("purification", {}, np.array([[5.0, 0.0], [np.nan, 0.0]]), where)
        assert np.isnan(rep.max_residual) and not rep.passed and rep.witness[:2] == (1, 0)
        rep = V._residual_report("purification", {}, np.zeros((2, 3)), where)
        assert (rep.max_residual, rep.passed, rep.witness) == (0.0, True, None)

    @pytest.mark.parametrize("check", sorted(RESIDUAL_CHECKS))
    def test_nan_engines_fail_every_residual_check(self, check, nan_engines):
        rep = RESIDUAL_CHECKS[check]()
        assert rep.check == check and not rep.passed
        assert np.isnan(rep.max_residual)
        assert rep.witness is not None and np.isnan(list(rep.witness.values())[-1])

    def test_nan_closed_forms_fail_the_closed_check(self, monkeypatch):
        monkeypatch.setattr(V, "closed_form_batch", nan_values)
        rep = V.check_closed_forms((2, 2))
        assert not rep.passed and np.isnan(rep.max_residual)
        assert rep.witness["sample"] == 0 and np.isnan(rep.witness["residual"])

    def test_nan_engines_fail_linear_independence(self, nan_engines):
        rep = V.check_linear_independence(2, "mixed", (2, 2))
        assert not rep.passed and np.isnan(rep.max_residual)
        assert rep.details["rank"] == 0

    @pytest.mark.parametrize("suite", NUMERIC_SUITES)
    def test_cli_exits_1(self, suite, nan_engines, capsys):
        assert main(["verify", "--suite", suite, "--dims", "2,2"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_cli_exits_1_on_nan_closed_forms(self, monkeypatch, capsys):
        monkeypatch.setattr(V, "closed_form_batch", nan_values)
        assert main(["verify", "--suite", "closed", "--dims", "2,2"]) == 1
        assert "FAIL" in capsys.readouterr().out


def strict_loads(text):
    """json.loads that refuses the NaN and Infinity tokens RFC 8259 forbids."""
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


class TestStrictJSON:
    def test_non_finite_values_are_null(self):
        nan, inf = float("nan"), float("inf")
        rep = V.VerifyReport("purification", {"seed": 0}, 1e-9, nan, False,
                             details={"values": [1.5, -inf, (nan, 2)]},
                             witness={"label": "t", "rank": 1, "residual": inf})
        (doc,) = strict_loads(V.reports_to_json([rep]))
        assert doc["max_residual"] is None and doc["witness"]["residual"] is None
        assert doc["details"] == {"values": [1.5, None, [None, 2]]}
        assert doc["witness"]["rank"] == 1 and doc["schema_version"] == 1
        # the report itself keeps its values
        assert np.isnan(rep.to_dict()["max_residual"]) and rep.witness["residual"] == inf

    def test_cli_report_with_nan_engines(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(V, "_evaluate", nan_values)
        path = tmp_path / "report.json"
        argv = ["verify", "--suite", "purification", "--dims", "2,2", "--report", str(path)]
        assert main(argv) == 1
        doc = strict_loads(path.read_text())
        assert [d["max_residual"] for d in doc] == [None, None, None]
        assert all(d["witness"]["residual"] is None for d in doc)


@pytest.fixture
def no_draws(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a sample was drawn")

    for sampler in ("_pure_stack", "_density_stack", "_unitary_stacks"):
        monkeypatch.setattr(V, sampler, refuse)
    return refuse


#: The five checks that draw samples, each called on its own at (2, 2).
SAMPLING_CHECKS = {
    "lu_invariance": lambda seed: V.check_lu_invariance((2, 2), seed=seed),
    "linear_independence": lambda seed: V.check_linear_independence(2, "mixed", (2, 2),
                                                                    seed=seed),
    "class_consistency": lambda seed: V.check_class_consistency(2, (2, 2), seed=seed),
    "purification": lambda seed: V.check_purification(2, (2, 2), seed=seed),
    "closed_forms": lambda seed: V.check_closed_forms((2, 2), seed=seed),
}


class TestSeedCheck:
    @pytest.mark.parametrize("check", SAMPLING_CHECKS)
    @pytest.mark.parametrize("seed", [True, 2.5, -1, "3"])
    def test_each_check_refuses_the_callers_seed_before_any_draw(self, check, seed,
                                                                  no_draws):
        message = re.escape(f"seed must be a non-negative integer: {seed!r}") + "$"
        with pytest.raises(ValueError, match=message):
            SAMPLING_CHECKS[check](seed)

    @pytest.mark.parametrize("check", SAMPLING_CHECKS)
    def test_each_check_reports_a_numpy_seed_as_an_int(self, check):
        rep = SAMPLING_CHECKS[check](np.int64(3))
        assert rep.check == check
        assert rep.params["seed"] == 3 and type(rep.params["seed"]) is int

    @pytest.mark.parametrize("suite", ["counts", "lu", "all"])
    @pytest.mark.parametrize("seed", [-3, True, 2.0])
    def test_refused_before_any_check(self, suite, seed, monkeypatch):
        def refuse(*args):
            raise AssertionError("a check ran")

        monkeypatch.setattr(V, "SUITES", dict.fromkeys(V.SUITES, refuse))
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer: {seed!r}"):
            V.run_suite(suite, seed=seed)

    @pytest.mark.parametrize("suite", ["counts", "lu", "all"])
    def test_cli_exits_2(self, suite, capsys):
        assert main(["verify", "--suite", suite, "--seed", "-3"]) == 2
        assert "seed must be a non-negative integer: -3" in capsys.readouterr().err

    def test_numpy_integers_run_as_ints(self):
        (rep,) = V.run_suite("lu", seed=np.int64(3))
        assert rep.params["seed"] == 3 and type(rep.params["seed"]) is int


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            V.run_suite("nope")

    def test_counts_suite(self):
        reports = V.run_suite("counts")
        assert len(reports) == 1 and reports[0].passed

    def test_all_runs_every_suite(self):
        reports = V.run_suite("all", seed=0, dims=(2, 2))
        names = {r.check for r in reports}
        assert {"counts", "lu_invariance", "closed_forms", "linear_independence",
                "class_consistency", "purification"} <= names
        assert all(r.passed for r in reports)


class TestStacks:
    def test_suites_build_no_state_objects_and_stack_nothing(self, monkeypatch):
        calls = Counter()

        def counted(name, original):
            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return call

        # the two routes to a state object, and np.stack
        for cls in (S.PureState, S.DensityMatrix):
            monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
            monkeypatch.setattr(cls, "_derived", counted(cls.__name__, cls._derived))
        monkeypatch.setattr(np, "stack", counted("np.stack", np.stack))
        for suite in NUMERIC_SUITES:
            assert all(rep.passed for rep in V.run_suite(suite, dims=(2, 2))), suite
        assert calls == Counter()
        # the counters see what they count
        S.projector(S.random_pure((2,), seed=0))
        np.stack([np.zeros(1)])
        assert calls == Counter({"PureState": 1, "DensityMatrix": 1, "np.stack": 1})


def counting(monkeypatch, owner, name):
    """Count the calls of owner.name; returns the counter's dict."""
    calls = {"n": 0}
    original = getattr(owner, name)

    def call(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, call)
    return calls


def counts_stub(seed, dims, table):
    # stands in for the counts suite, which draws nothing and takes seconds
    return [V.VerifyReport("counts", {}, 0.0, 0.0, True)]


def drawing(monkeypatch):
    """Count the samples the verify samplers draw; returns the counter's dict."""
    drawn = {"n": 0}
    for name in ("_pure_stack", "_density_stack", "_unitary_stacks"):
        def call(dims, rng, n, *args, original=getattr(V, name)):
            drawn["n"] += n
            return original(dims, rng, n, *args)

        monkeypatch.setattr(V, name, call)
    return drawn


#: The generators each numeric suite makes at (2, 2), one per stream:
#: purification draws ranks 1 to 4, one stream each.
GENERATORS = {"lu": 3, "closed": 2, "independence": 2, "classes": 2, "purification": 4}


class TestSampleTable:
    @pytest.mark.parametrize("suite,samples", [
        ("lu", 60), ("closed", 20), ("independence", 28), ("classes", 25),
        ("purification", 10),
    ])
    def test_each_sample_is_drawn_once(self, suite, samples, monkeypatch):
        rngs = counting(monkeypatch, np.random, "default_rng")
        eighs = counting(monkeypatch, np.linalg, "eigh")
        drawn = drawing(monkeypatch)
        V.run_suite(suite, seed=0, dims=(2, 2))
        assert drawn["n"] == samples
        assert rngs["n"] == GENERATORS[suite]
        assert eighs["n"] == (1 if suite == "purification" else 0)

    @pytest.mark.parametrize("suite", NUMERIC_SUITES)
    def test_checks_alone_report_as_in_the_run(self, suite):
        alone = V.SUITES[suite](0, (2, 2), None)
        assert V.reports_to_json(alone) == V.reports_to_json(V.run_suite(suite, dims=(2, 2)))

    @pytest.mark.parametrize("seed,samples", [(0, 143), (1, 143)])
    def test_all_equals_the_suites_one_by_one(self, seed, samples, monkeypatch):
        # the suites share no stream, so the run draws the samples and makes
        # the generators of the suites run one by one, at every seed
        monkeypatch.setitem(V.SUITES, "counts", counts_stub)
        one_by_one = [rep for suite in V.SUITES for rep in V.run_suite(suite, seed=seed)]
        rngs = counting(monkeypatch, np.random, "default_rng")
        drawn = drawing(monkeypatch)
        together = V.run_suite("all", seed=seed)
        assert drawn["n"] == samples
        assert rngs["n"] == sum(GENERATORS.values())
        assert V.reports_to_json(together) == V.reports_to_json(one_by_one)

    def test_stacks_are_fresh(self):
        table = V._SampleTable()
        first = table.pures((2, 2), 0, 7, 2)
        first[:] = 0
        again = table.pures((2, 2), 0, 7, 3)
        assert again.flags.c_contiguous and again.any()
        rhos = table.densities((2, 2), 0, 7, 2, [1, 4])
        rhos[:] = 0
        assert table.densities((2, 2), 0, 7, 2, [1, 4]).flags.c_contiguous
        amps = table.purified((2, 2), 0, 7, [1, 4])
        amps[:] = 0
        assert table.purified((2, 2), 0, 7, [1, 4]).any()

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_the_order_of_requests_changes_no_sample(self, kind):
        def draw(table, n):
            if kind == "pure":
                return table.pures((2, 3), 1, 77_041, n)
            return table.densities((2, 3), 1, 77_041, n)

        short_first, long_first = V._SampleTable(), V._SampleTable()
        a8, a22 = draw(short_first, 8), draw(short_first, 22)
        b22, b8 = draw(long_first, 22), draw(long_first, 8)
        assert a8.tobytes() == b8.tobytes() == b22[:8].tobytes()
        assert a22.tobytes() == b22.tobytes()

    def test_ranked_samples_come_from_one_stream_per_rank(self):
        table = V._SampleTable()
        ranks = [1, 2, 1, 4, 2, 1]
        rhos = table.densities((2, 2), 0, 52_361, len(ranks), ranks)
        for rank in (1, 2, 4):
            at = [i for i, r in enumerate(ranks) if r == rank]
            alone = V._SampleTable().densities((2, 2), 0, 52_361, len(at), [rank] * len(at))
            assert rhos[at].tobytes() == alone.tobytes()
            assert np.linalg.matrix_rank(rhos[at[0]]) == rank

    def test_independence_reports_do_not_depend_on_the_grade_order(self):
        def reports(grades):
            table = V._SampleTable()
            return {(m, kind): V.check_linear_independence(m, kind, (2, 2), table=table).to_dict()
                    for m in grades for kind in ("pure", "mixed")}

        assert reports((3, 2)) == reports((2, 3))


class TestDimGuard:
    @pytest.fixture
    def limit_3(self):
        with S.dim_limit(3):
            yield

    @pytest.mark.parametrize("suite", NUMERIC_SUITES)
    def test_checked_before_any_draw(self, suite, no_draws, limit_3):
        with pytest.raises(ResourceLimitError, match="exceeds limit 3"):
            V.run_suite(suite, dims=(2, 2))

    def test_purified_dims_checked_before_any_draw(self, no_draws, monkeypatch, capsys):
        # (2, 2) passes a limit of 4, but its rank-4 purifications on
        # (2, 2, 4) do not
        monkeypatch.setattr(V, "_purify_stack", no_draws)
        with S.dim_limit(4):
            with pytest.raises(ResourceLimitError, match="total dimension 16 exceeds limit 4"):
                V.check_purification(2, (2, 2))
        argv = ["--dim-limit", "4", "verify", "--suite", "purification", "--dims", "2,2"]
        assert main(argv) == 3
        assert "resource guard" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--dim-limit", "3", "verify", "--suite", "lu", "--dims", "2,2"],
        ["verify", "--suite", "lu", "--dims", "70,70"],
        ["verify", "--suite", "all", "--dims", "70,70"],
    ])
    def test_cli_exits_3_without_drawing(self, argv, no_draws, capsys):
        assert main(argv) == 3
        assert "resource guard" in capsys.readouterr().err
