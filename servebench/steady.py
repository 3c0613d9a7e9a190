#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of one commit.

    python3 servebench/steady.py --runs 10 [--workload NAME ...]

Each run is ``run.py`` in its own process with its own seed, as
``BENCHMARK.json``'s command is run. For each workload and end-to-end metric the
report gives both sets' medians and quartiles, the spread (quartile
distance over median), and whether the sets agree: each spread within
the metric's bound, and the second median within the bound of the
first, in either direction.
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
#: Sets of runs compared.
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1000)
    args = parser.parse_args(argv)
    steady = True
    for workload in args.workload or names:
        sets = []
        for s in range(SETS):
            runs = []
            for i in range(args.runs):
                seed = args.seed_base + s * args.runs + i
                result = run_once(workload, seed, args.seconds, 0)
                if not result["correct"] or result["failed"]:
                    steady = False
                runs.append(result)
                print(f"{workload} set {s} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}"
                    for k, v in result["metrics"].items()), flush=True)
            sets.append(runs)
        print(f"\n{workload}")
        print(f"{'metric':22} {'set':>3} {'median':>10} {'q1':>10} "
              f"{'q3':>10} {'spread':>7} {'bound':>6}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            for s, st in enumerate(stats):
                ok = st["spread"] <= bound
                if s:
                    first = stats[0]["median"]
                    ok = ok and abs(st["median"] - first) / first <= bound
                steady = steady and ok
                print(f"{name:22} {s:>3} {st['median']:>10.4g} "
                      f"{st['q1']:>10.4g} {st['q3']:>10.4g} "
                      f"{st['spread']:>7.3f} {bound:>6}  "
                      f"{'ok' if ok else 'NOT STEADY'}")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
