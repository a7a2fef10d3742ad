#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command of BENCHMARK.json once per seed on each chosen workload
and prints, per metric, the median and the distance between the first and
third quartile as a share of the median (Python's
``statistics.quantiles(values, n=4)``), next to a third of the metric's
bound. Run from the repository root:

    python3 perfbench/spread.py --workloads cluster,relay --seeds 1-10

Exit code 1 when a run is incorrect or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", default="1-10", help="range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--log", help="append every run's standard error to this file")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    env = dict(os.environ, CARGO_TARGET_DIR=os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    ok = True
    for name in names:
        values = {}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, env=env, capture_output=True, text=True)
            if args.log:
                with open(args.log, "a") as log:
                    log.write(out.stderr)
            if out.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{name} seed {seed}: incorrect ({result['failed']} failed)")
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        print(f"\n{name}: {'metric':<22} {'median':>12} {'spread':>8} {'bound/3':>8}")
        for m in bench["end_to_end"]:
            vs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < m["bound"] / 3 else " (> bound/3)"
            if spread > m["bound"]:
                flag, ok = " (> bound)", False
            print(f"{name}: {m['name']:<22} {med:>12.5g} {spread:>8.4f} {m['bound'] / 3:>8.4f}{flag}")
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
