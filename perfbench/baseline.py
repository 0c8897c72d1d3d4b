#!/usr/bin/env python3
"""Measure every workload several times and write perfbench/baseline.json.

Run from the root of a checkout of the repository:

    python3 perfbench/baseline.py --runs 10 --first-seed 701

For each workload this makes --runs untraced runs of run.py, each with its
own seed, and one traced run.  It records the median and quartiles of each
end-to-end metric and their spread (the distance between the quartiles as a
share of the median, as statistics.quantiles(values, n=4) gives them), and
prints a line per metric that says whether the spread stays within a third of
the metric's bound.  The runs are made one after the other, never at once.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    machine = next(json.loads(x[len("machine "):]) for x in lines if x.startswith("machine "))
    return {"result": json.loads(lines[-1]), "machine": machine}


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=701)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", default=str(HERE / "baseline.json"),
                        help="where to write the result; '-' prints it only")
    args = parser.parse_args()

    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = doc["run_seconds"]
    workloads = args.workload or [w["name"] for w in doc["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    out = {
        "description": (f"{args.runs} untraced runs per workload (seeds {seeds[0]}-{seeds[-1]}, "
                        f"--seconds {seconds}) and one traced run (seed {seeds[0]})."),
        "workloads": {},
    }
    for name in workloads:
        runs = [run_once(name, seed, seconds, 0) for seed in seeds]
        out["machine"] = runs[0]["machine"]
        results = [r["result"] for r in runs]
        e2e = {}
        for metric in doc["end_to_end"]:
            key = metric["name"]
            e2e[key] = {"unit": metric["unit"],
                        **summarize([r["metrics"][key]["value"] for r in results], metric["bound"])}
            s = e2e[key]
            steady = "steady" if key == "setup_s" or s["spread"] < s["bound"] / 3 else "NOISY"
            print(f"{name:15} {key:12} median {s['median']:.6g} {metric['unit']:4} "
                  f"spread {s['spread']:.3f} (bound {s['bound']}) {steady}", flush=True)
        traced = run_once(name, seeds[0], seconds, 1)["result"]
        out["workloads"][name] = {
            "runs": len(results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_run": {"attempted": traced["attempted"], "failed": traced["failed"]},
        }
    text = json.dumps(out, indent=1) + "\n"
    if args.out == "-":
        print(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
