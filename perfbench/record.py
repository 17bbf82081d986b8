"""Record the result digest and work counts of seeds into expected.json.

    python3 perfbench/record.py --seeds 0-19

For each workload and seed this builds the full round, runs it once with
every check, and stores the digest of the formatted results together with
the work counts.  ``run.py`` compares against these records, so a change
that alters a result, or does less work, shows as incorrect.  Re-record
only when the benchmark's inputs change, and say so with the change.
"""

import argparse
import json
import os
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-19", help="a range such as 0-19")
    parser.add_argument("--workload", action="append", help="limit to these workloads")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    sys.path.insert(0, run.SRC)
    import workloads

    names = args.workload or list(workloads.REGISTRY)
    try:
        with open(run.EXPECTED) as fh:
            expected = json.load(fh)
    except FileNotFoundError:
        expected = {}
    for name in names:
        for seed in seeds:
            w = workloads.build(name, seed)
            texts = [None] * len(w.ops)
            counts = {}
            failures = run.Failures()
            run.run_pass(w, [[] for _ in w.ops], texts, failures, counts, first=True)
            if failures.count:
                print(f"{name} seed {seed}: {failures.count} failed ops, not recorded", file=sys.stderr)
                for reason in failures.reasons:
                    print(f"  {reason}", file=sys.stderr)
                return 1
            expected.setdefault(name, {})[str(seed)] = run.work_record(len(w.ops), texts, counts)
            print(f"{name} seed {seed}: {expected[name][str(seed)]}", flush=True)
    tmp = run.EXPECTED + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, run.EXPECTED)
    return 0


if __name__ == "__main__":
    sys.exit(main())
