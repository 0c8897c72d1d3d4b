#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and summarize.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload cli_verify --pairs 10

Each pair runs

    python3 perfbench/run.py --workload W --seed s --seconds 30 --trace 0

once in each checkout, with PYTHONDONTWRITEBYTECODE=1; pair i runs seed
i + 1 on both sides, so seeds go 1..N.  The run length is the benchmark's
30 s and is not an option.  Even pairs run the parent first, odd pairs the
change first, so that a drift of the machine over the runs does not favour
one side.
Each run's last line of standard output is its result; its "machine" line
says where it ran.

The summary, written to BENCH_<workload>.json, holds each end-to-end metric
named in the change's BENCHMARK.json with, per side, the median and
quartiles of the runs (statistics.quantiles, inclusive method), the number
of pairs the change won (ties count for neither side), the gap between the
medians against the parent's interquartile range, and whether the change's
median is worse than the parent's by more than the metric's bound.  A
gain is claimed only when the change wins at least nine tenths of the
pairs and its median beats the parent's by more than that range.  The
file also keeps every run's metrics and failure counts.

Standard library only; the benchmark itself does the measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
SECONDS = 30


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in checkout, parsed by parse_output."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return parse_output(proc.stdout)


def parse_output(stdout: str) -> dict:
    """A run's result, its last line, with its machine line under "machine"."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    machine = [line.split(" ", 1)[1] for line in lines if line.startswith("machine ")]
    result["machine"] = json.loads(machine[0]) if machine else None
    return result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(workload: str, pairs: list[dict], declared: list[dict]) -> dict:
    """The summary of pairs, each {"seed", "first", "parent", "change"} with
    one run result per side, for the end-to-end metrics declared (the
    "end_to_end" entries of BENCHMARK.json)."""
    metrics = {}
    for spec in declared:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        sides = {side: quartiles(values[side]) for side in SIDES}
        parent, change = sides["parent"]["median"], sides["change"]["median"]
        iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
        gain = (parent - change) if lower else (change - parent)
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            **sides,
            "change_vs_parent": change / parent - 1 if parent else None,
            "pairs_won": wins,
            "median_gain": gain,
            "parent_iqr": iqr,
            "gain_claimable": wins >= 0.9 * len(pairs) and gain > iqr,
            "worse_than_bound": -gain > spec["bound"] * abs(parent),
        }
    return {
        "workload": workload,
        "pairs": len(pairs),
        "command": f"python3 perfbench/run.py --workload {workload} --seed <s> "
                   f"--seconds {SECONDS} --trace 0",
        "machine": pairs[0]["parent"]["machine"] if pairs else None,
        "failed": {side: [sum(p[side]["failed"] for p in pairs),
                          sum(p[side]["attempted"] for p in pairs)] for side in SIDES},
        "metrics": metrics,
        "runs": [{"seed": p["seed"], "first": p["first"],
                  **{side: {name: m["value"] for name, m in p[side]["metrics"].items()}
                     for side in SIDES}} for p in pairs],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least 2 pairs")

    with open(args.change / "BENCHMARK.json", encoding="utf-8") as fp:
        declared = json.load(fp)["end_to_end"]
    dirs = {"parent": args.parent, "change": args.change}
    pairs = []
    for i in range(args.pairs):
        seed = i + 1
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(dirs[side], args.workload, seed)
            print(f"pair {i} seed {seed} {side}: "
                  + ", ".join(f"{k} {m['value']:.6g}" for k, m in pair[side]["metrics"].items()),
                  flush=True)
        pairs.append(pair)
    summary = summarize(args.workload, pairs, declared)
    out = Path(f"BENCH_{args.workload}.json")
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    for name, m in summary["metrics"].items():
        print(f"{name:<12} parent {m['parent']['median']:.6g} change {m['change']['median']:.6g} "
              f"{m['unit']}  won {m['pairs_won']}/{summary['pairs']}  "
              f"gain {m['median_gain']:.3g} vs parent IQR {m['parent_iqr']:.3g}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
