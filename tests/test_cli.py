import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import luinv
from luinv import cli
from luinv import states as S
from luinv.cli import build_parser, main
from luinv.errors import ResourceLimitError
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

    def test_count_needs_no_enumeration(self, capsys):
        """(5,6) has about 2.5e10 labels: listing them trips the guard,
        counting them does not."""
        code, _, err = run(capsys, "enumerate", "--m", "5", "--r", "6")
        assert code == 3 and "resource guard" in err and "24883501301 labels" in err
        code, out, _ = run(capsys, "enumerate", "--m", "5", "--r", "6", "--count")
        assert code == 0 and out == "24883501301\n"
        code, out, _ = run(capsys, "enumerate", "--m", "5", "--r", "6", "--count",
                           "--generators-only")
        assert code == 0 and out == "24875000437\n"

    def test_count_too_long_to_print_trips_the_guard(self, capsys):
        """2^20000 has over 4000 digits: refused before it is computed."""
        code, out, err = run(capsys, "enumerate", "--m", "2", "--r", "20000", "--count")
        assert code == 3 and out == "" and "4000 digits" in err

    def test_long_arity_at_grade_one(self, capsys):
        """One label of 1e8 entries: counted at once, refused as a listing."""
        code, out, _ = run(capsys, "enumerate", "--m", "1", "--r", "100000000", "--count")
        assert code == 0 and out == "1\n"
        code, out, err = run(capsys, "enumerate", "--m", "1", "--r", "100000000")
        assert code == 3 and out == "" and "label entries" in err

    @pytest.mark.parametrize("m,r", [(1, 0), (2, 0), (3, 0), (3, 3), (4, 2), (5, 1)])
    def test_count_equals_listed_lines(self, capsys, m, r):
        argv = ["enumerate", "--m", str(m), "--r", str(r)]
        _, listed, _ = run(capsys, *argv)
        _, count, _ = run(capsys, *argv, "--count")
        assert count == f"{len(listed.splitlines())}\n"
        _, listed, _ = run(capsys, *argv, "--generators-only")
        _, count, _ = run(capsys, *argv, "--generators-only", "--count")
        assert count == f"{len(listed.splitlines())}\n"

    @pytest.mark.parametrize("m,r,flags,size,digest", [
        (3, 3, (), 1692, "803c3e0b32eac6748cd8d8a6d54ea5b7093cd4d311154d6ab97d13e04147589e"),
        (3, 3, ("--generators-only",), 1476,
         "60e75686e30ddd60957ff4d46d3a57fe81dfb91744dd0ca0db68e84b824c186c"),
        (3, 3, ("--json",), 3172,
         "1f5ed1bf47e06ca9bd9f35ea315b456cb87b01d13f5ce1be117cdacd4b4d2919"),
        (3, 3, ("--json", "--generators-only"), 2656,
         "093bca1d1d7559fe8b5d96cc79b58cb836a627820e80acb48fd9dee790716902"),
        (4, 2, (), 1395, "fa00b4aafcd75488af5220d8e0e5f6a9f0e6fbcd8222da0c4e681172d178a91f"),
        (4, 2, ("--generators-only",), 936,
         "548f99d6f0760c39c64e542a913c92591cfccdec81c96871d3c1c90ba943d5ff"),
        (4, 2, ("--json",), 3349,
         "32e1361b9b46cb163736a0ea7603d8d097ac8653b84d12fa09ab65ffb1a8cac4"),
        (4, 2, ("--json", "--generators-only"), 2040,
         "18a44f1e161324dee77d2de6c6c84b468e5c3c6d7088673774ae7a41fd41e527"),
    ], ids=[f"{case}-{form}" for case in ("3-3", "4-2")
            for form in ("text", "text-generators", "json", "json-generators")])
    def test_listing_bytes_are_pinned(self, capsys, m, r, flags, size, digest):
        """The text and JSON listings, with and without --generators-only,
        byte for byte: their size and sha256."""
        code, out, _ = run(capsys, "enumerate", "--m", str(m), "--r", str(r), *flags)
        data = out.encode()
        assert code == 0 and len(data) == size
        assert hashlib.sha256(data).hexdigest() == digest

    def test_negative_arity_is_usage_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "--m", "3", "--k", "0", "--kind", "pure",
                             "--count")
        assert code == 2 and out == "" and "r=-1" in err


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

    def test_text_rounds_to_12_digits_of_the_modulus(self, capsys, tmp_path):
        path = tmp_path / "rho.json"
        S.save_state(S.random_density((2, 2), seed=0), path)
        code, out, _ = run(capsys, "eval", "--label", "t,s", "--kind", "mixed",
                           "--state", str(path))
        assert code == 0
        # the parts are 2814.95817133374 and -7.6e-16: the noise rounds away
        assert "contract     : 2814.95817133+0j\n" in out
        assert "closed form  : 2814.95817133+0j\n" in out

    def test_rounding_of_parts(self):
        assert cli._rounded(2 + 9.73443547991337e-13j) == "2+0j"
        assert cli._rounded(-1.5e-20 - 3.00000000000049e-8j) == "0-3e-08j"
        assert cli._rounded(0.1234567890123456 + 1e3j) == "0.12345679+1000j"
        assert cli._rounded(0j) == "0+0j"

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

    @pytest.mark.parametrize("doc", [
        '{"dims": [2], "kind": "pure", "data": ' + "[" * 100_000 + "]" * 100_000 + "}",
        '{"dims": [2.7], "kind": "pure", "data": [[1, 0], [0, 0]]}',
        '{"dims": [true, 2], "kind": "pure", "data": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}',
        '{"dims": ["2"], "kind": "pure", "data": [[1, 0], [0, 0]]}',
        '{"dims": [2], "kind": "pure", "data": {"re": 1}}',
    ], ids=["nested", "float-dims", "bool-dims", "string-dims", "object-data"])
    def test_malformed_state_is_usage_error(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        code, out, err = run(capsys, "eval", "--label", "", "--m", "1", "--kind", "pure",
                             "--state", str(path))
        assert code == 2 and "malformed state file" in err and out == ""

    def test_axis_id_limit_is_resource_guard(self, capsys, tmp_path):
        """A pure grade-8 label on 7 qubits needs 56 einsum axis ids."""
        path = tmp_path / "seven.json"
        S.save_state(S.random_pure((2,) * 7, seed=0), path)
        label = ",".join(["[1,2,3,4,5,6,7,8]"] * 6)
        code, _, err = run(capsys, "eval", "--label", label, "--m", "8", "--kind", "pure",
                           "--state", str(path))
        assert code == 3 and "resource guard" in err and "56 axis ids" in err

    def test_contraction_over_the_cost_guard_is_refused_at_once(self, capsys, tmp_path):
        path = tmp_path / "rho444.json"
        S.save_state(S.random_density((4, 4, 4), seed=2), path)
        label = "[3,5,8,7,1,4,6,2],[4,3,7,5,2,1,8,6],[5,2,6,4,3,7,1,8]"
        start = time.perf_counter()
        code, out, err = run(capsys, "eval", "--label", label, "--kind", "mixed",
                             "--state", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 3 and "resource guard" in err and "FLOPs" in err and out == ""

    def test_grade_without_closed_form_is_refused_before_contracting(
            self, capsys, qubits_file, monkeypatch):
        def contract(*args):
            raise AssertionError("contracted")
        monkeypatch.setattr("luinv.contract._contract", contract)
        code, out, err = run(capsys, "eval", "--label", "[2,3,4,1],[1,2,3,4]", "--kind", "mixed",
                             "--state", qubits_file)
        assert code == 2 and "no closed form for grade 4" in err and out == ""


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

    def test_decompose_above_grade_three(self, capsys):
        """No closed form exists at m = 4: the split members are listed with
        "none" in place of a formula."""
        code, out, _ = run(capsys, "graph", "--m", "4", "--k", "2", "--label", "[2,3,4,1]",
                           "--decompose")
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()]
        members = luinv.sim_decompose(luinv.parse_label("[2,3,4,1]", 4)).members
        assert rows == [[luinv.format_label(lab.rep), "none"] for lab in members]
        assert "[2,3,4,1],[1,2,3,4]" in [row[0] for row in rows]

    def test_decompose_at_grade_seven(self, capsys):
        """The split of a 7-cycle runs: one line per member, its own 7-cycle
        embedded among them."""
        code, out, _ = run(capsys, "graph", "--m", "7", "--k", "2", "--label",
                           "[2,3,4,5,6,7,1]", "--decompose")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 726
        assert "[2,3,4,5,6,7,1],[1,2,3,4,5,6,7] none" in [" ".join(row.split()) for row in rows]

    def test_formula_above_grade_three(self, capsys):
        code, out, _ = run(capsys, "graph", "--m", "4", "--k", "2", "--kind", "mixed",
                           "--label", "[2,3,4,1],[3,4,1,2]", "--formula")
        assert code == 0 and out.split() == ["[2,3,4,1],[3,4,1,2]", "none"]
        code, out, _ = run(capsys, "graph", "--m", "4", "--k", "2", "--label", "[2,1,4,3]",
                           "--formula")
        assert code == 0 and out.split() == ["[2,1,4,3],[1,2,3,4]", "none"]

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

    def test_empty_dims_is_usage_error(self, capsys):
        """An explicit empty --dims is refused, not read as the default."""
        code, out, err = run(capsys, "verify", "--suite", "lu", "--dims", "")
        assert code == 2 and out == "" and "--dims" in err

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "bogus")
        assert code == 2

    @pytest.mark.parametrize("suite", ["counts", "all"])
    def test_malformed_dims_are_usage_error_for_every_suite(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--dims", "0")
        assert code == 2 and out == "" and "positive integers" in err

    @pytest.mark.parametrize("suite", ["counts", "all"])
    def test_dims_over_the_limit_trip_the_guard_for_every_suite(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--dims", "99999")
        assert code == 3 and out == "" and "exceeds limit" in err


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

    def test_dim_limit_flag_does_not_leak(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        S.save_state(S.random_pure((2, 2), seed=0), path)
        code, _, _ = run(capsys, "--dim-limit", "8192", "eval", "--label", "t",
                         "--m", "2", "--kind", "pure", "--state", str(path))
        assert code == 0
        with pytest.raises(ResourceLimitError, match="exceeds limit 4096"):
            S.check_dims((2,) * 13)
        code, _, _ = run(capsys, "--dim-limit", "8192", "eval", "--label", "q",
                         "--m", "2", "--kind", "pure", "--state", str(path))
        assert code == 2
        with pytest.raises(ResourceLimitError, match="exceeds limit 4096"):
            S.check_dims((2,) * 13)

    def test_dim_limit_flag_restores_an_enclosing_block(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        S.save_state(S.random_pure((2, 2), seed=0), path)
        with S.dim_limit(16):
            code, _, _ = run(capsys, "--dim-limit", "8192", "eval", "--label", "t",
                             "--m", "2", "--kind", "pure", "--state", str(path))
            assert code == 0
            S.check_dims((2,) * 4)
            with pytest.raises(ResourceLimitError, match="exceeds limit 16;"):
                S.check_dims((2,) * 5)
        S.check_dims((2,) * 12)
        with pytest.raises(ResourceLimitError, match="exceeds limit 4096"):
            S.check_dims((2,) * 13)

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


def test_label_algebra_loads_no_numpy():
    """The package and the CLI module import, and the label algebra runs,
    without numpy; the numerical API loads it on first use."""
    code = (
        "import sys, luinv, luinv.cli\n"
        "assert luinv.cli.main(['enumerate', '--m', '3', '--r', '2', '--count']) == 0\n"
        "assert luinv.cli.main(['graph', '--m', '3', '--k', '2', '--label', 't']) == 0\n"
        "labels = luinv.enumerate_orbits(3, 2)\n"
        "luinv.sim_decompose(labels[3].rep)\n"
        "luinv.canonical_graph(luinv.build_graph(labels[5].rep))\n"
        "luinv.expressible_ordering(luinv.build_graph(labels[5].rep))\n"
        "assert 'numpy' not in sys.modules, 'numpy was loaded'\n"
        "assert luinv.eval_mixed is luinv.contract.eval_mixed\n"
        "assert 'numpy' in sys.modules\n"
    )
    src = str(Path(luinv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_start_up_loads_no_more_than_it_uses():
    """The label algebra and the CLI's numpy-free commands load neither
    numpy nor dataclasses, and a numerical name loads only its own module
    and those it imports."""
    code = (
        "import sys, luinv, luinv.cli\n"
        "labels = luinv.enumerate_orbits(3, 3)\n"
        "luinv.canonical_graph(luinv.build_graph(labels[7].rep))\n"
        "assert luinv.cli.main(['enumerate', '--m', '3', '--r', '2']) == 0\n"
        "unwanted = {'numpy', 'dataclasses'} & set(sys.modules)\n"
        "assert not unwanted, unwanted\n"
        "luinv.random_pure\n"
        "loaded = {name for name in sys.modules if name.startswith('luinv.')}\n"
        "assert 'luinv.states' in loaded, loaded\n"
        "assert not {'luinv.contract', 'luinv.closedform', 'luinv.verify'} & loaded, loaded\n"
    )
    src = Path(luinv.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for path in sorted((src / "luinv").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            assert "dataclasses" not in names, f"{path.name}:{node.lineno} imports dataclasses"


def test_numerical_modules_resolve_after_a_bare_import():
    """The lazily loaded modules and names are attributes of the package."""
    code = (
        "import luinv\n"
        "assert luinv.states.random_pure is luinv.random_pure\n"
        "assert {'states', 'verify', 'eval_mixed', 'run_suite'} <= set(dir(luinv))\n"
        "assert set(luinv.__all__) >= set(luinv.contract.__all__) | {'enumerate_orbits'}\n"
        "assert not hasattr(luinv, 'np')\n"
    )
    src = str(Path(luinv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


#: Every public name of a bare ``import luinv``: a removal or an addition
#: edits this list on purpose.
PUBLIC_API = [
    "DEFAULT_DIM_LIMIT", "DensityMatrix", "FormulaDescriptor",
    "MAX_GRADE", "OrbitLabel", "Perm", "PermTuple", "PureState",
    "ResourceLimitError", "SimClass", "VerifyReport",
    "alternate_writings", "apply_local_unitaries",
    "apply_local_unitaries_mixed", "build_graph", "canonical_form",
    "canonical_graph", "closed_form", "closed_form_batch", "closedform",
    "compose", "conjugate", "connected_components", "contract", "dim_limit",
    "dot_export", "enumerate_orbits", "errors", "eval_mixed",
    "eval_mixed_batch", "eval_pure", "eval_pure_batch", "expressible_ordering",
    "format_label", "formula_text", "generator_count", "generator_labels",
    "graph_from_json", "graph_to_json", "graphs", "identity",
    "is_hermitian", "is_transitive", "load_state", "orbit_count",
    "parse_formula", "parse_label", "partial_trace", "perm_from_name",
    "perm_name", "perm_tuple", "perms", "projector", "purify",
    "random_density", "random_hermitian", "random_local_unitaries",
    "random_pure", "render_table", "reports_to_json", "run_suite",
    "s3_orbit_representatives", "save_state", "sim_decompose",
    "states", "verify",
]


def test_public_api_does_not_depend_on_import_order():
    """Importing a submodule binds its name in the package but not in
    __all__."""
    code = "import json, luinv, luinv.cli\nprint(json.dumps(sorted(luinv.__all__)))\n"
    src = str(Path(luinv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == PUBLIC_API


def test_public_api_is_pinned():
    code = "import json, luinv\nprint(json.dumps(sorted(luinv.__all__)))\n"
    src = str(Path(luinv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == PUBLIC_API


def package_nodes():
    """(file name, node) for every syntax-tree node of every module of the
    package."""
    src = Path(luinv.__file__).resolve().parent
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def names_outside(module, names):
    """file:line of every node outside the module ``module`` that names one
    of ``names``, as a variable, an attribute or an import."""
    return [f"{name}:{node.lineno}" for name, node in package_nodes()
            if name != module
            and (isinstance(node, ast.Name) and node.id in names
                 or isinstance(node, ast.Attribute) and node.attr in names
                 or isinstance(node, ast.alias) and node.name in names)]


def test_no_module_rebinds_a_global():
    """No process-global mutable state: no module of the package holds a
    ``global`` or ``nonlocal`` statement."""
    found = [f"{name}:{node.lineno}" for name, node in package_nodes()
             if isinstance(node, (ast.Global, ast.Nonlocal))]
    assert not found, found


def test_no_record_builds_in_two_steps():
    """A record's __init__ checks its arguments, then stores them: no module
    of the package defines a ``__post_init__`` to check them afterwards."""
    found = [f"{name}:{node.lineno}" for name, node in package_nodes()
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name == "__post_init__"]
    assert not found, found


def test_every_contraction_runs_through_einsum_plans():
    """One contraction path: no module of the package but _einsum names
    einsum, c_einsum or einsum_path, so every contraction (the engines, the
    closed forms, partial traces and local rotations) is a cached plan under
    the cost guard."""
    found = names_outside("_einsum.py", {"einsum", "c_einsum", "einsum_path"})
    assert not found, found


def test_only_perms_compares_with_the_grade_bound():
    """One grade bound: no module of the package but perms compares a value
    with MAX_GRADE; the others call perms._check_grade."""
    found = [f"{name}:{node.lineno}" for name, node in package_nodes()
             if name != "perms.py" and isinstance(node, ast.Compare)
             and any(isinstance(x, ast.Name) and x.id == "MAX_GRADE"
                     or isinstance(x, ast.Attribute) and x.attr == "MAX_GRADE"
                     for x in [node.left, *node.comparators])]
    assert not found, found


def test_every_route_refuses_a_grade_above_the_bound_alike(capsys):
    m = MAX_GRADE + 1
    sigma = luinv.PermTuple(m, (luinv.Perm(tuple(range(2, m + 1)) + (1,)),))
    messages = []
    for call in (lambda: luinv.canonical_form(sigma), lambda: luinv.enumerate_orbits(m, 1),
                 lambda: luinv.expressible_ordering(sigma)):
        with pytest.raises(ResourceLimitError) as info:
            call()
        messages.append(str(info.value))
    assert messages == [f"grade {m} exceeds MAX_GRADE: too large, grades run 1..{MAX_GRADE}"] * 3
    code, out, err = run(capsys, "graph", "--m", str(m), "--k", "2", "--label", "e")
    assert (code, out, err) == (3, "", f"resource guard: {messages[0]}\n")


def test_the_plan_builders_are_chosen_in_contract_alone():
    """contract._plan is the one choice between the pure and the mixed
    network: no other module names a plan builder, a per-kind evaluator or
    the stack checks of the one checked route, contract._checked."""
    names = {"_pure_plan", "_mixed_plan", "eval_pure", "eval_mixed", "eval_pure_batch",
             "eval_mixed_batch", "_checked_stack"}
    found = names_outside("contract.py", names)
    assert not found, found
