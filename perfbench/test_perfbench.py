"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.fixture(scope="module")
def luinv():
    return bench.load_luinv()


def test_script_and_benchmark_json_name_the_same_metrics():
    e2e, per_layer = bench.declared_metrics()
    assert e2e == list(bench.END_TO_END)
    assert per_layer == list(bench.PER_LAYER)


def test_smoke_emits_every_declared_metric_without_failures(luinv):
    assert bench.smoke(luinv) == []


def test_perturbed_engine_result_counts_as_failure(luinv, monkeypatch):
    real = luinv.eval_pure
    monkeypatch.setattr(luinv, "eval_pure", lambda *args: real(*args) * (1 + 1e-6))
    result = bench.run_workload(luinv, "oracle_sweep", 0, 0.0, False, small=True, setup_samples=1)
    assert result["failed"] > 0
    assert not result["correct"]


def test_timing_metrics_take_each_request_fastest_sample():
    passes = [[3.0, 1.0, 2.0], [2.0, 5.0, 2.5]]
    assert bench.best_latencies(passes) == [2.0, 1.0, 2.0]


def test_cpu_picker_pins_to_one_usable_cpu_and_releases():
    before = os.sched_getaffinity(0)
    picker = bench.CpuPicker()
    picker.maybe_switch(force=True)
    if len(before) >= 2:
        assert len(os.sched_getaffinity(0)) == 1
        assert os.sched_getaffinity(0) <= before
        assert picker.spent > 0
    picker.release()
    assert os.sched_getaffinity(0) == before


def test_reference_counts_are_independent_of_the_enumerator():
    assert [bench.burnside_count(m, r) for m, r in [(3, 5), (4, 3), (5, 2), (4, 4)]] == [
        1393, 681, 161, 14491]
    assert bench.s3_generator_count(5) == 1361
    # the splits of the 11 grade-3 pure labels on 3 subsystems cover the 49
    # grade-3 mixed labels on 3 subsystems exactly once
    s3 = [(1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3), (1, 3, 2), (3, 2, 1)]
    reps = {bench._canonical_key((a, b), s3): (a, b) for a in s3 for b in s3}
    assert len(reps) == 11
    assert sum(bench.split_size(pair) for pair in reps.values()) == 49


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    doc = json.loads((tmp_path / "BENCHMARK.json").read_text())
    argv = [sys.executable, *doc["command"][1:], "--workload", "oracle_sweep",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
