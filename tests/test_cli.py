import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import luinv
from luinv import states as S
from luinv.cli import build_parser, main
from luinv.perms import MAX_GRADE


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def ghz_file(tmp_path):
    amp = np.zeros((2, 2, 2), dtype=complex)
    amp[0, 0, 0] = amp[1, 1, 1] = 1
    path = tmp_path / "ghz.json"
    S.save_state(S.PureState((2, 2, 2), amp), path)
    return str(path)


class TestEnumerate:
    def test_eleven_lines(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--m", "3", "--r", "2")
        assert code == 0
        assert len(out.strip().splitlines()) == 11

    def test_generators_only_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--m", "2", "--r", "3",
                           "--generators-only", "--count")
        assert code == 0 and out.strip() == "7"

    def test_m1(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--m", "1", "--r", "5")
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    def test_kind_k_combination(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--m", "3", "--k", "3",
                           "--kind", "pure", "--count")
        assert code == 0 and out.strip() == "11"
        code, out, _ = run(capsys, "enumerate", "--m", "3", "--k", "3",
                           "--kind", "mixed", "--count")
        assert code == 0 and out.strip() == "49"

    def test_json_has_schema(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--m", "2", "--r", "1", "--json")
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert [l["label"] for l in doc["labels"]] == ["e", "t"]

    def test_missing_arity_is_usage_error(self, capsys):
        code, _, err = run(capsys, "enumerate", "--m", "3")
        assert code == 2 and "specify" in err

    def test_resource_guard_exit_code(self, capsys):
        code, _, err = run(capsys, "enumerate", "--m", "9", "--r", "1")
        assert code == 3 and "resource guard" in err


class TestEval:
    def test_kempe_on_ghz(self, capsys, ghz_file):
        code, out, _ = run(capsys, "eval", "--label", "s,s2", "--kind", "pure",
                           "--state", ghz_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["value"][0] - 2.0) < 1e-10
        assert abs(doc["value"][1]) < 1e-12
        assert doc["relative_difference"] < 1e-10
        assert doc["contract"] == doc["value"]

    def test_norm_label(self, capsys, ghz_file):
        code, out, _ = run(capsys, "eval", "--label", "e,e", "--m", "1",
                           "--kind", "pure", "--state", ghz_file, "--json")
        assert code == 0
        assert abs(json.loads(out)["value"][0] - 2.0) < 1e-12

    def test_mixed_state(self, capsys, tmp_path):
        rho = S.random_density((2, 2), seed=0)
        path = tmp_path / "rho.json"
        S.save_state(rho, path)
        code, out, _ = run(capsys, "eval", "--label", "t,s", "--kind", "mixed",
                           "--state", str(path), "--json")
        assert code == 0
        assert json.loads(out)["relative_difference"] < 1e-10

    @pytest.fixture
    def qubits_file(self, tmp_path):
        path = tmp_path / "qubits.json"
        S.save_state(S.random_density((2, 2), seed=1), path)
        return str(path)

    def test_grade_from_image_lists(self, capsys, qubits_file):
        code, out, _ = run(capsys, "eval", "--label", "[2,1],[1,2]", "--kind", "mixed",
                           "--state", qubits_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["m"] == 2 and doc["label"] == "t,e"

    def test_named_label_keeps_grade_three(self, capsys, qubits_file):
        code, out, _ = run(capsys, "eval", "--label", "t,s", "--kind", "mixed",
                           "--state", qubits_file, "--json")
        assert code == 0 and json.loads(out)["m"] == 3

    def test_grade_disagreeing_with_image_lists(self, capsys, qubits_file):
        code, _, err = run(capsys, "eval", "--label", "[2,1],[1,2]", "--m", "3",
                           "--kind", "mixed", "--state", qubits_file)
        assert code == 2 and "expected 3" in err

    def test_inferred_grade_above_range_is_resource_guard(self, capsys, qubits_file):
        label = "[" + ",".join(str(i) for i in range(1, MAX_GRADE + 2)) + "],e"
        code, _, err = run(capsys, "eval", "--label", label, "--kind", "mixed",
                           "--state", qubits_file)
        assert code == 3 and "resource guard" in err

    def test_corrupted_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "eval", "--label", "t", "--kind", "pure",
                           "--state", str(path))
        assert code == 2 and "error" in err

    def test_kind_mismatch(self, capsys, ghz_file):
        code, _, err = run(capsys, "eval", "--label", "s,s2,e", "--kind", "mixed",
                           "--state", ghz_file)
        assert code == 2

    def test_wrong_arity(self, capsys, ghz_file):
        code, _, err = run(capsys, "eval", "--label", "s", "--kind", "pure",
                           "--state", ghz_file)
        assert code == 2 and "entries" in err

    def test_non_finite_state_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"dims": [2], "kind": "pure", "data": [[NaN, 0], [1, 0]]}')
        code, out, err = run(capsys, "eval", "--label", "", "--m", "1", "--kind", "pure",
                             "--state", str(path))
        assert code == 2 and "non-finite" in err and out == ""

    def test_axis_id_limit_is_resource_guard(self, capsys, tmp_path):
        """A pure grade-8 label on 7 qubits needs 56 einsum axis ids."""
        path = tmp_path / "seven.json"
        S.save_state(S.random_pure((2,) * 7, seed=0), path)
        label = ",".join(["[1,2,3,4,5,6,7,8]"] * 6)
        code, _, err = run(capsys, "eval", "--label", label, "--m", "8", "--kind", "pure",
                           "--state", str(path))
        assert code == 3 and "resource guard" in err and "56 axis ids" in err


class TestGraph:
    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "graph", "--m", "3", "--k", "2", "--label", "s")
        assert code == 0
        assert out.startswith("digraph")
        # pure label: embedded, so loops of the last color on every vertex
        assert out.count("->") == 6

    def test_deterministic(self, capsys):
        _, a, _ = run(capsys, "graph", "--m", "3", "--k", "2", "--label", "s")
        _, b, _ = run(capsys, "graph", "--m", "3", "--k", "2", "--label", "s")
        assert a == b

    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "graph", "--m", "3", "--k", "2", "--label", "s",
                           "--decompose")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert any("tp[2](pi)^3" in line for line in lines)

    def test_expressible(self, capsys):
        code, out, _ = run(capsys, "graph", "--m", "3", "--k", "2", "--label", "s",
                           "--expressible")
        assert code == 0 and out.strip() == "1,2,3"

    def test_expressible_none(self, capsys):
        code, out, _ = run(capsys, "graph", "--m", "4", "--k", "2", "--kind", "mixed",
                           "--label", "[2,3,4,1],[3,4,1,2]", "--expressible")
        assert code == 0 and out.strip() == "none"

    def test_formula(self, capsys):
        code, out, _ = run(capsys, "graph", "--m", "3", "--k", "2", "--kind", "mixed",
                           "--label", "t,s", "--formula")
        assert code == 0
        assert out.strip() == "Tr( (I[1] (x) pt[2](rho)) * rho^2 )"

    def test_json_dump(self, capsys):
        code, out, _ = run(capsys, "graph", "--m", "2", "--k", "2", "--kind", "mixed",
                           "--label", "t,e", "--json")
        doc = json.loads(out)
        assert doc == {"m": 2, "colors": [[2, 1], [1, 2]]}

    def test_label_arity_checked(self, capsys):
        code, _, err = run(capsys, "graph", "--m", "3", "--k", "2", "--label", "s,t")
        assert code == 2


class TestVerify:
    def test_counts_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "counts")
        assert code == 0
        assert "pass" in out

    def test_report_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--suite", "counts", "--report", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc[0]["check"] == "counts" and doc[0]["passed"]

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "bogus")
        assert code == 2


class TestGlobalFlags:
    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0

    def test_dim_limit_flag(self, capsys, tmp_path):
        psi = S.random_pure((2, 2), seed=0)
        path = tmp_path / "s.json"
        S.save_state(psi, path)
        code, _, _ = run(capsys, "--dim-limit", "8192", "eval", "--label", "t",
                         "--m", "2", "--kind", "pure", "--state", str(path))
        assert code == 0
        S.set_dim_limit(S.DEFAULT_DIM_LIMIT)

    def test_dim_limit_flag_does_not_leak(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        S.save_state(S.random_pure((2, 2), seed=0), path)
        code, _, _ = run(capsys, "--dim-limit", "8192", "eval", "--label", "t",
                         "--m", "2", "--kind", "pure", "--state", str(path))
        assert code == 0
        assert S.dim_limit() == S.DEFAULT_DIM_LIMIT
        code, _, _ = run(capsys, "--dim-limit", "8192", "eval", "--label", "q",
                         "--m", "2", "--kind", "pure", "--state", str(path))
        assert code == 2
        assert S.dim_limit() == S.DEFAULT_DIM_LIMIT

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "enumerate")
        assert code == 2

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_reused_parser_after_usage_error(self, capsys, ghz_file):
        argv = ["eval", "--label", "s,s2", "--kind", "pure", "--state", ghz_file, "--json"]
        first = run(capsys, *argv)
        assert run(capsys, "eval", "--kind", "pure")[0] == 2
        second = run(capsys, *argv)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]


class TestGradeRange:
    COMMANDS = {
        "enumerate": ["enumerate", "--r", "2"],
        "eval": ["eval", "--label", "e,e", "--kind", "pure", "--state", "missing.json"],
        "graph": ["graph", "--k", "2", "--label", "e"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("m", [0, -1])
    def test_below_range_is_usage_error(self, capsys, command, m):
        code, out, err = run(capsys, *self.COMMANDS[command], "--m", str(m))
        assert code == 2 and out == ""
        assert f"1..{MAX_GRADE}" in err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_above_range_is_resource_guard(self, capsys, command):
        code, out, err = run(capsys, *self.COMMANDS[command], "--m", str(MAX_GRADE + 1))
        assert code == 3 and out == ""
        assert "resource guard" in err and f"1..{MAX_GRADE}" in err


def test_python_dash_m_runs_the_cli():
    src = str(Path(luinv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run(
        [sys.executable, "-m", "luinv", "enumerate", "--m", "2", "--r", "2", "--count"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "4\n"
