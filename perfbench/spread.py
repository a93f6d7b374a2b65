#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's median and
quartile spread (IQR / median), the figure its bound in BENCHMARK.json is
checked against.

    python3 perfbench/spread.py --workload ft-warm-2t --seeds 10 [--seconds 20] [--trace 0]

Run from the repository root. The benchmark is built (or found up to date)
by its own command from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    raw = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if len(lines) > 1:
            raw.append(json.loads(lines[-2]).get("perfbench", {}))
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: output check failed: {lines[-1]}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            file=sys.stderr)

    for key in ("estimate_raw_s", "full_detail_raw_s", "calib_s"):
        v = [r[key] for r in raw if key in r]
        if len(v) > 1:
            values["raw:" + key] = v
            units["raw:" + key] = "s"
    for name, v in values.items():
        med = statistics.median(v)
        if len(v) >= 2 and med:
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / abs(med)
        else:
            spread = 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound:
            verdict = "ok" if spread < bound / 3 else ("WIDE" if spread > bound else "near")
            verdict = f"bound {bound} {verdict}"
        print(f"{name:32s} median {med:12.6g} {units[name]:8s} spread {spread:7.2%} {verdict}")


if __name__ == "__main__":
    main()
