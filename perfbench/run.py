#!/usr/bin/env python3
"""End-to-end benchmark of ForkTail: one command, three workloads.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a checkout.  The first run builds the repository's
libraries, the `forktail` CLI and the harness (perfbench/src) from source
into .bench_build/perfbench; later runs rebuild only what changed.

Workloads (see perfbench/README.md):
  run-examples     every pinned scenario spec through `forktail run`'s path
  admission-1k     SLO admission decisions over a 1000-node fleet
  serve-sustained  a `forktail serve` daemon under sustained UDP ingest

The last line of standard output is one JSON object with exactly the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are every
end-to-end metric of BENCHMARK.json; with --trace 1 every per-layer metric.  Lines
before it carry the environment fingerprint and the workload's details.
--quick runs every workload and every check at a small size, in seconds.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("run-examples", "admission-1k", "serve-sustained")
# A run must end within 180 s: the harness gets 165 s after the
# (incremental, seconds-long) build step.
HARNESS_DEADLINE_S = 165.0
BUILD_DEADLINE_S = 850.0


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    """Configure once, then build the harness and the forktail CLI."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench_harness", "forktail_cli"])
    started = time.monotonic()
    with open(log_path, "w") as log:
        for cmd in steps:
            remaining = BUILD_DEADLINE_S - (time.monotonic() - started)
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(1.0, remaining)).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(f"build step {cmd[:2]} did not finish: {err}", 3)
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                fail(f"build failed (log {log_path}):\n{tail}", 3)
    harness = os.path.join(build_dir, "perfbench_harness")
    forktail = os.path.join(build_dir, "forktail", "tools", "forktail")
    for path in (harness, forktail):
        if not os.access(path, os.X_OK):
            fail(f"build produced no {path}", 3)
    return harness, forktail


def cmake_cache(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest(root):
    """sha256 over the program's sources and the benchmark's own files."""
    h = hashlib.sha256()
    tops = ["CMakeLists.txt", "src", "tools", "bench", "perfbench"]
    for top in tops:
        path = os.path.join(root, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        else:
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
                files += [os.path.join(dirpath, f) for f in filenames]
        for name in sorted(files):
            h.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(root, build_dir):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache(build_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = compiler
    sha = "none (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "compiler": version,
        "build_type": cmake_cache(build_dir, "CMAKE_BUILD_TYPE"),
        "git_sha": sha,
        "source_digest": source_digest(root),
    }


def declared_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="one small round of every step and check (self-tests)")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    for needed in ("CMakeLists.txt", "src", "tools", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"run from the root of a ForkTail checkout ({needed} is missing)", 2)

    build_dir = os.path.join(root, ".bench_build", "perfbench")
    harness, forktail = build(root, build_dir)
    work_dir = os.path.join(build_dir, "runs")
    os.makedirs(work_dir, exist_ok=True)
    print("# fingerprint " + json.dumps(fingerprint(root, build_dir)), flush=True)

    cmd = [harness, args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--quick", "1" if args.quick else "0",
           "--inputs", os.path.join(bench_dir, "inputs"), "--forktail", forktail,
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=HARNESS_DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail("the harness did not finish in time", 4)
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"the harness failed (exit {proc.returncode}):\n{proc.stderr[-3000:]}", 4)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])

    declared = declared_metrics(root, args.trace)
    metrics = {}
    for name, entry in doc["metrics"].items():
        if declared.get(name) != entry["unit"]:
            fail(f"metric {name} ({entry['unit']}) is not declared in BENCHMARK.json", 5)
        metrics[name] = {"value": entry["value"], "unit": entry["unit"]}
    missing = sorted(set(declared) - set(metrics))
    if missing:
        fail(f"the harness did not report {', '.join(missing)}", 5)
    print("# info " + json.dumps(doc["info"]), flush=True)
    result = {
        "correct": bool(doc["correct"]),
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
