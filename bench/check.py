#!/usr/bin/env python3
"""Reproducibility checks of the benchmark itself.

    python3 bench/check.py --seed 1

For each workload:

* two traced runs with the same seed report exactly the same counts;
* a run with seed + 1 reads different inputs (the `inputs_sha256` of the
  meta line) and reports the same metric names, traced and untraced.

Prints one line per check and exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("enum-qp", "enum-fpt", "as-classify", "cli-calls")


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600)
    lines = proc.stdout.splitlines()
    meta = next(json.loads(line[len("# meta "):]) for line in lines if line.startswith("# meta "))
    return meta, json.loads(lines[-1])


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


def check_workload(workload, seed):
    meta_a, traced_a = run(workload, seed, 1)
    _, traced_b = run(workload, seed, 1)
    meta_c, traced_c = run(workload, seed + 1, 1)
    _, plain_a = run(workload, seed, 0)
    _, plain_c = run(workload, seed + 1, 0)
    diff = sorted(k for k, v in counts(traced_a).items() if counts(traced_b).get(k) != v)
    return {
        "counts repeat with the same seed": not diff and (traced_a["attempted"], traced_a["failed"])
        == (traced_b["attempted"], traced_b["failed"]),
        "another seed reads other inputs": meta_a["inputs_sha256"] != meta_c["inputs_sha256"],
        "same traced metric names": traced_a["metrics"].keys() == traced_c["metrics"].keys(),
        "same end-to-end metric names": plain_a["metrics"].keys() == plain_c["metrics"].keys(),
    }, diff


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        results, diff = check_workload(workload, args.seed)
        for name, passed in results.items():
            print(f"{workload:<12} {'PASS' if passed else 'FAIL'}  {name}")
            ok = ok and passed
        if diff:
            print(f"{workload:<12} counts that differ: {', '.join(diff)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
