#!/usr/bin/env python3
"""greencc benchmark: build the simulator from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record      # re-record perfbench/digests.json

Run from the root of a checkout. The simulator and the driver are built
with CMake into .bench_build/perfbench (RelWithDebInfo). The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"},
with the end-to-end metrics of BENCHMARK.json for --trace 0 and its
per-layer metrics for --trace 1. Each run also writes a record with the
machine fingerprint under .bench_build/perfbench/records/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = BUILD_DIR / "run"
RECORD_DIR = BUILD_DIR / "records"
DIGESTS = BENCH_DIR / "digests.json"
WORKLOADS = ("paper_grid", "fleet_burst", "open_loop_mix")
RECORDED_SEED = 1
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Configure once, then build `target` incrementally. Returns its path."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    return BUILD_DIR / target


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_hash():
    """SHA-256 over src/ and perfbench/ (path and bytes of every file)."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "none"


def fingerprint(build_info):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info.get("build_type", "unknown"),
        "git_commit": git_commit(),
        "source_sha256": source_hash(),
    }


def run_driver(binary, workload, seed, seconds, trace):
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--root", str(ROOT), "--work-dir", str(WORK_DIR)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: driver exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fleet_points(outputs):
    """{(ramp_ms, seed): {"events": n, "completed": n}} from fleet_burst
    outputs."""
    points = {}
    for line in outputs.splitlines():
        words = line.split()
        fields = dict(zip(words[0::2], words[1::2]))
        if "ramp_ms" in fields:
            points[(int(fields["ramp_ms"]), int(fields["seed"]))] = {
                "events": int(fields["events"]),
                "completed": int(fields["completed"])}
    return points


def recorded_checks(result, digests):
    """Checks against perfbench/digests.json. Only the recorded seed has a
    recorded digest (a held-out seed reports its own); a fleet point is
    held to bench/ext_fleet's counts whenever it ran ext_fleet's seed."""
    entry = digests.get("workloads", {}).get(result["workload"], {})
    checks = []
    if result["seed"] == digests.get("seed") and "digest" in entry:
        checks += [
            ("digest matches the recorded digest",
             result["digest"] == entry["digest"]),
            ("sim.events matches the recorded count",
             result["sim_events"] == entry["sim.events"]),
        ]
    points = fleet_points(result["outputs"])
    for ref in entry.get("ext_fleet", []):
        got = points.get((ref["ramp_ms"], ref["seed"]))
        if got is not None:
            checks.append((f"{ref['flags']} events and completions",
                           got == {"events": ref["events"],
                                   "completed": ref["completed"]}))
    return checks


def write_record(result, fp, args):
    RECORD_DIR.mkdir(parents=True, exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}.json")
    record = {"fingerprint": fp,
              "config": {"workload": args.workload, "seed": args.seed,
                         "seconds": args.seconds, "trace": args.trace},
              "result": result}
    (RECORD_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    return RECORD_DIR / name


def benchmark(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    digests = json.loads(DIGESTS.read_text())
    binary = build("perfbench_driver")
    result = run_driver(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    fp = fingerprint(result.get("build", {}))

    checks = [(c["name"], c["ok"]) for c in result["checks"]]
    checks += recorded_checks(result, digests)
    for name, ok in checks:
        if not ok:
            log(f"CHECK FAILED: {name}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise SystemExit(f"perfbench: driver did not report {missing}")
    metrics = {m["name"]: {"value": result["metrics"][m["name"]],
                           "unit": m["unit"]} for m in wanted}

    path = write_record(result, fp, args)
    log(f"{args.workload} seed={args.seed} digest={result['digest']} "
        f"sim.events={result['sim_events']} record={path.relative_to(ROOT)}")
    log("fingerprint " + json.dumps(fp))
    print(json.dumps({"correct": all(ok for _, ok in checks),
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


def record():
    """Re-record digests.json at the recorded seed (after an intended
    behaviour change). Keeps the ext_fleet reference counts, which come
    from running bench/ext_fleet with the listed flags."""
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    binary = build("perfbench_driver")
    entries = digests.setdefault("workloads", {})
    digests["seed"] = RECORDED_SEED
    for workload in WORKLOADS:
        result = run_driver(binary, workload, RECORDED_SEED, 0, 0)
        entry = entries.setdefault(workload, {})
        entry["digest"] = result["digest"]
        entry["sim.events"] = result["sim_events"]
        log(f"recorded {workload}: {result['digest']}")
    digests["fingerprint"] = fingerprint(result.get("build", {}))
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        binary = build("perfbench_selftest")
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        raise SystemExit(subprocess.run(
            [str(binary), str(ROOT), str(WORK_DIR)]).returncode)
    if args.record:
        record()
        return
    if args.workload is None:
        parser.error("--workload is required")
    benchmark(args)


if __name__ == "__main__":
    main()
