#!/usr/bin/env python3
"""SmartTrack benchmark: one workload, one run, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/ as a Release
build under .bench_build/ (the build compiles the library from src/), runs
the workload, checks every output, and prints two lines on standard
output: the run's provenance (host, compiler, commit, sample counts), then
the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json;
--trace 1 reports the per-layer metrics and writes every span to
.bench_build/spans-<workload>.json. Workload parameters, the default and
held-out seeds, and the race counts pinned at the default seed live in
perfbench/workloads.json.

Exit status: 0 when every check passed, 1 when a check failed (the result
line says which count), 2 when the benchmark cannot build or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
# A run must end within 180 s; the build is not part of that budget on
# the first run, so the benchmark binary gets its own limit.
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(jobs):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("no library sources (src/CMakeLists.txt) next to perfbench/")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", str(jobs)])
    log_path = BUILD_DIR / "build.log"
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die("build failed: " + " ".join(cmd))
    binary = BUILD_DIR / "perfbench"
    if not binary.is_file():
        die(f"build produced no {binary}")
    return binary


def git_commit():
    """The checkout's commit when it is a git work tree, read without
    running git (which could find a repository above the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def expected_metrics(trace):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    with open(spec) as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(BENCH_DIR / "workloads.json") as f:
        config = json.load(f)
    workload = config["workloads"].get(args.workload)
    if workload is None:
        die(f"unknown workload {args.workload!r}; known: "
            + ", ".join(config["workloads"]))
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    nproc = len(os.sched_getaffinity(0))
    binary = build(max(1, nproc))

    cmd = [str(binary),
           "--profile", workload["profile"],
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--serve-rate", str(workload["serve_events_per_s"]),
           "--socket", f".bench_build/pb-{os.getpid()}.sock"]
    if args.trace:
        cmd += ["--spans", f".bench_build/spans-{args.workload}.json"]

    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        die(f"perfbench exited with {proc.returncode}")
    run = json.loads(lines[-1])

    attempted, failed = run["attempted"], run["failed"]
    failures = list(run["failures"])
    # Race counts are pinned at the default seed; any other seed is
    # checked by the relations the binary verifies on every run.
    if args.seed == config["default_seed"]:
        for key, pinned in workload["pinned_races"].items():
            got = run["races"].get(key)
            attempted += 1
            if got != pinned:
                failed += 1
                failures.append(f"{key}: races {got} != pinned {pinned}")

    metrics = run["metrics"]
    expected = expected_metrics(args.trace)
    if expected is not None and expected != set(metrics):
        die("metrics differ from BENCHMARK.json: missing "
            f"{sorted(expected - set(metrics))}, extra "
            f"{sorted(set(metrics) - expected)}")

    provenance = dict(run["notes"])
    provenance.update({
        "workload": args.workload,
        "profile": workload["profile"],
        "seed": args.seed,
        "default_seed": config["default_seed"],
        "heldout_seed": config["heldout_seed"],
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "run_wall_s": round(time.monotonic() - started, 3),
        "failures": failures,
    })
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    correct = failed == 0 and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
