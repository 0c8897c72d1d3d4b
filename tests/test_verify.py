import json
from collections import Counter

import numpy as np
import pytest

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

    def test_deterministic(self):
        a = V.check_lu_invariance(None, (2, 2), samples=5, seed=3)
        b = V.check_lu_invariance(None, (2, 2), samples=5, seed=3)
        assert a.to_dict() == b.to_dict()

    def test_json_serializable(self):
        reports = [V.check_counts(), V.check_purification(2, (2, 2), seed=1, samples=3)]
        doc = json.loads(V.reports_to_json(reports))
        assert len(doc) == 2
        assert all(d["schema_version"] == 1 for d in doc)

    def test_table_rendering(self):
        text = V.render_table([V.check_counts()])
        assert "counts" in text and "pass" in text


class TestChecks:
    def test_lu_invariance_passes(self):
        rep = V.check_lu_invariance(None, (2, 3), samples=5, seed=0)
        assert rep.passed, rep.witness
        assert rep.max_residual < 1e-9

    def test_closed_forms_pass(self):
        rep = V.check_closed_forms((2, 2), samples=3, seed=0)
        assert rep.passed, rep.witness

    def test_linear_independence_full_rank_m2(self):
        rep = V.check_linear_independence(2, "pure", (2, 2, 2), seed=0)
        assert rep.passed
        assert rep.details["rank"] == 4

    def test_linear_independence_qubit_m3_not_asserted(self):
        rep = V.check_linear_independence(3, "pure", (2, 2, 2), seed=0)
        assert rep.passed  # m > n_j: rank deficiency expected, reported only
        assert rep.details["rank"] < 11
        assert not rep.details["expected_full_rank"]

    def test_class_consistency(self):
        rep = V.check_class_consistency(3, 2, seed=0, dims=(2, 2))
        assert rep.passed, rep.witness
        splits = rep.details["splits"]
        assert sum(s["classes"] for s in splits) == 11
        # full-rank mixed states split the classes apart
        assert all(s["inconclusive_pairs"] == 0 for s in splits)

    def test_purification(self):
        for m in (1, 2, 3):
            rep = V.check_purification(m, (2, 2), seed=0, samples=4)
            assert rep.passed, rep.witness

    def test_zero_samples_pass_vacuously(self):
        reports = [V.check_lu_invariance(None, (2, 2), samples=0),
                   V.check_closed_forms((2, 2), samples=0),
                   V.check_purification(2, (2, 2), samples=0)]
        for rep in reports:
            assert rep.passed and rep.max_residual == 0.0 and rep.witness is None


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
            monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
        monkeypatch.setattr(S.DensityMatrix, "_derived",
                            counted("DensityMatrix", S.DensityMatrix._derived))
        monkeypatch.setattr(np, "stack", counted("np.stack", np.stack))
        for suite in NUMERIC_SUITES:
            assert all(rep.passed for rep in V.run_suite(suite, dims=(2, 2))), suite
        assert calls == Counter()
        # the counters see what they count
        S.projector(S.random_pure((2,), seed=0))
        np.stack([np.zeros(1)])
        assert calls == Counter({"PureState": 1, "DensityMatrix": 1, "np.stack": 1})


class TestDimGuard:
    @pytest.fixture
    def no_draws(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        for sampler in ("_pure_stack", "_density_stack", "_unitary_stacks"):
            monkeypatch.setattr(V, sampler, refuse)
        return refuse

    @pytest.fixture
    def limit_3(self):
        previous = S.dim_limit()
        S.set_dim_limit(3)
        yield
        S.set_dim_limit(previous)

    @pytest.mark.parametrize("suite", NUMERIC_SUITES)
    def test_checked_before_any_draw(self, suite, no_draws, limit_3):
        with pytest.raises(ResourceLimitError, match="exceeds limit 3"):
            V.run_suite(suite, dims=(2, 2))

    def test_purified_dims_checked_before_any_draw(self, no_draws, monkeypatch, capsys):
        # (2, 2) passes a limit of 4, but its rank-4 purifications on
        # (2, 2, 4) do not
        monkeypatch.setattr(V, "_purify_stack", no_draws)
        previous = S.dim_limit()
        S.set_dim_limit(4)
        try:
            with pytest.raises(ResourceLimitError, match="total dimension 16 exceeds limit 4"):
                V.check_purification(2, (2, 2))
        finally:
            S.set_dim_limit(previous)
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
