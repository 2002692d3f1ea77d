"""Self-check of the traced run.

    python3 bench/selfcheck.py --workload NAME [--seed N]

Runs ``bench/run.py --trace 1`` three times in child processes, one after the
other: twice with seed N and once with seed N+1.  The two runs with seed N
must agree exactly on every count (and ratio of counts), on the inputs digest
and on the outputs digest.  The run with seed N+1 must get different inputs
of the same shape and report the same metric names.  Exits 1 on a mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"selfcheck: run with seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    info = {"result": result}
    for line in lines:
        if line.startswith("workload "):
            info["shape"] = json.loads(line.split(" shape ", 1)[1])
        elif line.startswith("inputs digest "):
            info["inputs"] = line.split()[2]
        elif line.startswith("outputs digest "):
            info["outputs"] = line.split()[2]
    info["counts"] = {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] in ("count", "bytes") or (m["unit"] == "ratio" and not name.startswith("trace."))
    }
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    first = traced_run(args.workload, args.seed)
    again = traced_run(args.workload, args.seed)
    other = traced_run(args.workload, args.seed + 1)
    problems = []
    for run in (first, again, other):
        if not run["result"]["correct"]:
            problems.append("a traced run reported incorrect results")
    for key in ("inputs", "outputs", "counts"):
        if first[key] != again[key]:
            diff = key
            if key == "counts":
                diff = ", ".join(k for k in first["counts"] if first["counts"][k] != again["counts"].get(k))
            problems.append(f"same seed, different {key}: {diff}")
    if other["inputs"] == first["inputs"]:
        problems.append("a different seed gave the same inputs")
    if other["shape"] != first["shape"]:
        problems.append(f"a different seed changed the shape: {first['shape']} vs {other['shape']}")
    if set(other["result"]["metrics"]) != set(first["result"]["metrics"]):
        problems.append("a different seed changed the metric names")
    for line in problems:
        print(f"selfcheck {args.workload}: FAIL: {line}")
    if not problems:
        print(f"selfcheck {args.workload}: ok: seed {args.seed} twice gave {len(first['counts'])} identical"
              f" counts and digests; seed {args.seed + 1} gave new inputs of shape {json.dumps(first['shape'])}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
