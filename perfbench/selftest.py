#!/usr/bin/env python3
"""Self-test of the benchmark: every workload, untraced and traced, in quick
mode (every step and check at a small size).

    python3 perfbench/selftest.py        # from the root of a checkout

Checks the contract of the last output line (exact keys, whole counts, every
metric of BENCHMARK.json with its unit: every end-to-end metric untraced,
every per-layer metric traced), that every run is correct, and that the only
failed operation is the known faulty_subset.json prediction (one per pass of
run-examples).
"""

import json
import subprocess
import sys

WORKLOADS = ("run-examples", "admission-1k", "serve-sustained")


def run(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = [{m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer")]
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            units = declared[trace]
            doc = run(workload, trace)
            where = f"{workload} trace={trace}"
            if set(doc) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(doc)}")
            if not doc["correct"]:
                problems.append(f"{where}: not correct")
            if not (isinstance(doc["attempted"], int) and isinstance(doc["failed"], int)
                    and doc["attempted"] >= 1):
                problems.append(f"{where}: counts {doc['attempted']} {doc['failed']}")
            want_failed = doc["attempted"] // 13 if workload == "run-examples" else 0
            if doc["failed"] != want_failed:
                problems.append(f"{where}: {doc['failed']} failed, want {want_failed}")
            if set(doc["metrics"]) != set(units):
                problems.append(f"{where}: metrics differ by "
                                f"{sorted(set(doc['metrics']) ^ set(units))}")
            for name, entry in doc["metrics"].items():
                if units.get(name) != entry["unit"]:
                    problems.append(f"{where}: {name} unit {entry['unit']}")
            print(f"ok  {where}: {doc['attempted']} attempted, {doc['failed']} failed", flush=True)
    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
