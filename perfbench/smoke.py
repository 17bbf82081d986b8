"""Smoke test of the benchmark: a tiny round of every workload, untraced
and traced.

    python3 perfbench/smoke.py

Each run must exit 0, report ``correct`` with no failed op, and print
exactly the metrics that BENCHMARK.json declares for its mode, with their
units.  Exits 1 and names the problem otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload: str, trace: int, declared) -> list:
    cmd = spec["command"][1:] + ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
    got = subprocess.run([sys.executable] + cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if got.returncode != 0:
        return [f"exit code {got.returncode}: {got.stderr.strip()[-300:]}"]
    result = json.loads(got.stdout.strip().splitlines()[-1])
    found = []
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        found.append(f"correct={result['correct']} failed={result['failed']} attempted={result['attempted']}")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != declared:
        found.append(f"metrics {sorted(units.items())} differ from BENCHMARK.json")
    return found


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            found = check_run(spec, workload, trace, declared[trace])
            print(f"{label}: " + ("; ".join(found) if found else "ok"), flush=True)
            problems += [f"{label}: {p}" for p in found]
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
