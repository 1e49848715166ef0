#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [WORKLOAD ...]

Runs BENCHMARK.json's command once per seed (seeds 1 to 10) on each
workload with --trace 0 and prints, for every end-to-end metric, the
median and the interquartile distance as a share of the median
(statistics.quantiles(values, n=4)), next to a third of the metric's
bound. Results go to .bench_build/perfbench/spread-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    """(median, (Q3 - Q1) / median) of at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"one of {', '.join(names)} (default: all)")
    args = parser.parse_args()
    unknown = set(args.workloads) - set(names)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    steady = True
    for workload in args.workloads or names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, 11):
            cmd = spec["command"] + ["--workload", workload, "--seed",
                                     str(seed), "--seconds",
                                     str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: not correct", file=sys.stderr)
                steady = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        report = {}
        for metric in spec["end_to_end"]:
            med, rel = spread(values[metric["name"]])
            report[metric["name"]] = {"median": med, "spread": rel,
                                      "bound": metric["bound"],
                                      "values": values[metric["name"]]}
            ok = rel < metric["bound"] / 3
            steady &= ok
            print(f"  {workload} {metric['name']:15s} median={med:.6g} "
                  f"spread={rel:.4f} third_of_bound={metric['bound'] / 3:.4f}"
                  f"{'' if ok else '  <-- too wide'}")
        out_dir = ROOT / ".bench_build" / "perfbench"
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"spread-{workload}.json").write_text(
            json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
