#!/usr/bin/env python3
"""dctrain step benchmark.

Builds the benchmark (stepbench/CMakeLists.txt, which compiles ../src)
into .bench_build/ at the checkout root, runs one workload and prints the
result as the last line of standard output:

    python3 stepbench/run.py --workload grad_allreduce --seed 1 \
        --seconds 10 --trace 0

Every result is also saved, with a stamp of the host and build it came
from, under .bench_out/results/. Two saved results are compared with

    python3 stepbench/run.py compare A.json B.json

which refuses results from different hosts, core counts or build types.
"""

import argparse
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "stepbench"
OUT_DIR = ROOT / ".bench_out"
# Time a run may take beyond --seconds, for the set-ups, the check
# windows and, in a traced run, the layer replays.
RUN_ALLOWANCE_S = 140
# Processes per run: each builds the training world once (one set-up_s
# sample and one check window); the last one also runs the timed loop.
SETUPS = 5
WORLD_PREFIX = "stepbench-world "
# Stamp fields two results must share before their numbers compare.
COMPARABLE_FIELDS = ("host", "nproc", "build_type")


def fail(msg):
    print(f"stepbench: {msg}", file=sys.stderr)
    sys.exit(1)


def cmake_cache():
    cache = {}
    path = BUILD_DIR / "CMakeCache.txt"
    if path.exists():
        for line in path.read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, _, value = line.partition("=")
                cache[key.split(":")[0]] = value
    return cache


def build():
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "--target", "stepbench",
         "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    return BUILD_DIR / "stepbench"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def compiler(cache):
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.splitlines()[0].strip()
    except (OSError, subprocess.TimeoutExpired, IndexError):
        return cxx


def stamp(workload, seed, trace):
    cache = cmake_cache()
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "compiler": compiler(cache),
        # CMakeLists.txt always builds portable code: the recorded
        # reference losses hold only for it.
        "dctrain_native": "OFF",
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def comparable(a, b):
    """Empty when two stamps may be compared, else the reason they may not."""
    diffs = [f"{k}: {a.get(k)!r} vs {b.get(k)!r}"
             for k in COMPARABLE_FIELDS if a.get(k) != b.get(k)]
    return "; ".join(diffs)


def world_of(lines):
    """The stepbench-world summary a process printed, or None."""
    for line in lines:
        if line.startswith(WORLD_PREFIX):
            return json.loads(line[len(WORLD_PREFIX):])
    return None


def world_problems(worlds):
    """Reasons the set-up processes of one run disagree, if any."""
    problems = []
    for i, w in enumerate(worlds[1:], start=1):
        if w["counters"] != worlds[0]["counters"]:
            problems.append(f"check-window counters of set-up {i} differ "
                            f"from set-up 0: {w['counters']} vs "
                            f"{worlds[0]['counters']}")
        if w["check_loss_bits"] != worlds[0]["check_loss_bits"]:
            problems.append(f"check-window loss of set-up {i} differs from "
                            f"set-up 0")
    return problems


def run(args):
    binary = build()
    limit = args.seconds + RUN_ALLOWANCE_S
    deadline = time.monotonic() + limit
    base = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out-dir", str(OUT_DIR)]
    worlds, problems = [], []
    for timed in [0] * (SETUPS - 1) + [1]:
        try:
            proc = subprocess.run(base + ["--timed", str(timed)],
                                  capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail(f"run exceeded {limit} s")
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.rstrip("\n").splitlines()
        world = world_of(lines)
        if world is not None:
            worlds.append(world)
        if not timed and proc.returncode != 0:
            print("\n".join(lines))
            problems.append(f"set-up process {len(worlds)} failed "
                            f"(exit code {proc.returncode})")
    if not lines:
        fail(f"no output (exit code {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print("\n".join(lines))
        fail(f"last line is not a result (exit code {proc.returncode})")

    problems += world_problems(worlds)
    if problems:
        result["correct"] = False
    setup = sorted(w["setup_s"] for w in worlds)
    setup_s = statistics.median(setup) if setup else 0.0
    if "setup_s" in result["metrics"]:
        result["metrics"]["setup_s"]["value"] = setup_s

    info = stamp(args.workload, args.seed, args.trace)
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    (results / name).write_text(
        json.dumps({"stamp": info, "result": result}, indent=1) + "\n")
    for line in lines[:-1]:
        if not line.startswith(WORLD_PREFIX):
            print(line)
    print(f"  set-ups: {len(worlds)} processes, setup_s median "
          f"{setup_s:.3f} s (n={len(setup)}: "
          + " ".join(f"{v:.3f}" for v in setup) + "); check-window counters "
          + ("identical" if not problems else "DIFFER"))
    for p in problems:
        print(f"    {p}")
    print("  stamp: " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


def compare(args):
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    why = comparable(a["stamp"], b["stamp"])
    if why:
        print(f"refusing to compare results from different hosts or builds: "
              f"{why}", file=sys.stderr)
        return 2
    print(f"{'metric':32} {'A':>14} {'B':>14} {'B/A':>8}")
    for name, ma in a["result"]["metrics"].items():
        mb = b["result"]["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"{name:32} {ma['value']:14.4f} {mb['value']:14.4f} "
              f"{ratio:8.3f} {ma['unit']}")
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        return compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
