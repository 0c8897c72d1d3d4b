"""The summary that tools/bench_pairs.py writes, on fixed result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

DECLARED = [
    {"name": "req_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "req_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]
MACHINE = {"nproc": 2, "python": "3.11.2"}


def output(p90, per_s, failed=0):
    """A run's standard output as the benchmark prints it."""
    result = {"correct": failed == 0, "attempted": 40, "failed": failed,
              "metrics": {"req_p90_ms": {"value": p90, "unit": "ms"},
                          "req_per_s": {"value": per_s, "unit": "1/s"}}}
    return (f"machine {json.dumps(MACHINE)}\nworkload cli_verify: passes [9]\n"
            f"  req_p90_ms {p90} ms\n{json.dumps(result)}\n")


def test_summary_of_fixed_result_lines():
    parent = [(2.0, 100), (2.2, 100), (1.8, 100), (2.0, 100), (2.4, 100)]
    change = [(1.5, 70), (1.4, 110), (1.6, 72), (1.5, 74), (1.3, 100)]
    pairs = [{"seed": i + 1, "first": ("parent", "change")[i % 2],
              "parent": bench_pairs.parse_output(output(*p)),
              "change": bench_pairs.parse_output(output(*c, failed=int(i == 3)))}
             for i, (p, c) in enumerate(zip(parent, change))]
    summary = bench_pairs.summarize("cli_verify", pairs, DECLARED)
    assert summary["pairs"] == 5 and summary["machine"] == MACHINE
    assert summary["failed"] == {"parent": [0, 200], "change": [1, 200]}
    p90 = summary["metrics"]["req_p90_ms"]
    assert (p90["parent"]["q1"], p90["parent"]["median"]) == (2.0, 2.0)
    assert p90["parent"]["q3"] == 2.2
    assert [p90["change"][q] for q in ("q1", "median", "q3")] == [1.4, 1.5, 1.5]
    assert p90["pairs_won"] == 5 and p90["median_gain"] == 0.5
    assert p90["parent_iqr"] == pytest.approx(0.2)
    assert p90["change_vs_parent"] == pytest.approx(-0.25)
    assert p90["gain_claimable"] and not p90["worse_than_bound"]
    # higher is better: one win, one tie that counts for neither side, and
    # a median 26 % worse, beyond the 25 % bound
    per_s = summary["metrics"]["req_per_s"]
    assert per_s["pairs_won"] == 1 and per_s["change"]["median"] == 74
    assert not per_s["gain_claimable"] and per_s["worse_than_bound"]
    assert summary["runs"][1] == {"seed": 2, "first": "change",
                                  "parent": {"req_p90_ms": 2.2, "req_per_s": 100},
                                  "change": {"req_p90_ms": 1.4, "req_per_s": 110}}
