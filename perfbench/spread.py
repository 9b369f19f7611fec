#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

For every metric: the median of the runs, the first and third quartiles
(statistics.quantiles(values, n=4)), and the quartile spread as a share of
the median, next to the bound BENCHMARK.json fixes for it. Run it from the
repository root:

    python3 perfbench/spread.py --workload office-edit --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-5 --seconds 10

It runs the command BENCHMARK.json names, exactly as a harness comparing
commits would, and exits nonzero if a run fails its output checks or a spread
(other than setup_s) reaches its bound. A spread at or above a third of its
bound is marked "wide": inside the bound, but with little room for a
regression to show.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seeds", default="1-5", help="e.g. 1-10 or 3,7,9")
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    key = "end_to_end" if args.trace == "0" else "per_layer"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")

    ok = True
    for workload in workloads:
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, env=env, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: FAILED (exit {out.returncode})")
                print(out.stdout[-2000:], out.stderr[-2000:], file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                if spread >= bound:
                    verdict = f"bound {bound} OVER"
                    if name != "setup_s":
                        ok = False
                elif spread >= bound / 3:
                    verdict = f"bound {bound} wide"
                else:
                    verdict = f"bound {bound} ok"
            print(f"{workload:>16} {name:<32} median {med:<14.6g} q1 {q1:<14.6g} "
                  f"q3 {q3:<14.6g} spread {spread:.4f} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
