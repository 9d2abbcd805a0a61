"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workloads train-256,sweep-mix --seeds 1..5
    python3 perfbench/spread.py --seeds 1..10 --out perfbench/baseline.json
    python3 perfbench/spread.py --seeds 11..20 --out perfbench/baseline-repeat.json
    python3 perfbench/spread.py --seeds 1..3 --trace 1 --out perfbench/baseline-trace.json

Runs are sequential, one process at a time. For every end-to-end metric
it prints the median and the spread: the distance between the first and
third quartiles of the per-seed values (``statistics.quantiles(n=4)``) as
a share of the median, next to a third of the metric's bound from
``BENCHMARK.json``. ``--out`` writes those figures as a JSON baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import machine_facts  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1..10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", default=None, help="write the medians and spreads as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {"machine": machine_facts(), "seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()), flush=True)
        rows = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            rows[name] = {
                "unit": results[0]["metrics"][name]["unit"],
                "median": median, "q1": q1, "q3": q3, "spread": spread, "values": values,
            }
            limit = bounds.get(name)
            flag = "" if limit is None else ("ok" if spread < limit / 3 else "WIDE")
            third = f"{limit / 3:.3f}" if limit is not None else "-"
            print(f"  {workload:>11} {name:>30} median {median:>12.6g} spread {spread:.3f}"
                  f" (bound/3 {third}) {flag}", flush=True)
        report["workloads"][workload] = {
            "attempted": [r["attempted"] for r in results],
            "metrics": rows,
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
