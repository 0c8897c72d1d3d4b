import json

import pytest

from luinv import verify as V


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
