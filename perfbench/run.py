"""The ramify benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload norm --seed 0 --seconds 12 --trace 0

``--workload all`` runs the four workloads in turn.

Run from the root of a checkout; the library is imported from ``src/``.
A single client runs the workload's round of ops back to back (a closed
loop, one op in flight).  A first pass warms the caches and is not
measured; then whole passes are measured until the ops have taken
``--seconds`` of op time.  Every op result is checked.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead builds
the round once, with set-up traced, and runs it five times (a warm-up,
then untraced and traced in turn, twice) and reports the per-layer
metrics; see NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from importlib import metadata
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ("ideals", "classify", "defect", "norm")

# (name, unit, better) of every end-to-end metric
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("import_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# set-ups in fresh interpreters per run: setup_s and import_s are medians
# over them
PROBES = 5
# the tail percentile is the highest one with at least this many ops above it
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 120
# The host is shared and its speed drifts by up to 2x over minutes, so the
# time metrics are scaled to a reference speed.  Those of the measured
# passes: to the speed at which one `calibrate` unit takes CAL_REF_S; a
# unit is timed before each measured pass and after every CAL_EVERY_S of op
# time (see HostSpeed).  Set-up and import: to the speed at which the
# probe's import-like unit takes PROBE_REF_S; import work slows with the
# host differently.
CAL_REF_S = 0.0005
CAL_EVERY_S = 0.01
PROBE_REF_S = 0.0065


class Failures:
    """Counts failed ops and keeps the first few reasons."""

    def __init__(self) -> None:
        self.count = 0
        self.reasons: List[str] = []

    def add(self, reason: str) -> None:
        self.count += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)


def calibrate() -> float:
    """Seconds that one fixed unit of the benchmark's own pure-Python work
    takes now: exact fractions summed into a dict under tuple keys, as in
    the library's inner loops.  No change to the library moves it."""
    start = time.perf_counter()
    acc: Dict[tuple, Fraction] = {}
    for i in range(120):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 1 + i % 7)
    return time.perf_counter() - start


class HostSpeed:
    """`calibrate` timings taken between ops, and each op latency scaled to
    the reference speed by the units timed just before and just after it:
    the host changes speed within a second, so a run-wide mean fits a
    single op less well than its neighbours do."""

    def __init__(self, n_ops: int) -> None:
        self.units: List[float] = []
        self.scaled: List[List[float]] = [[] for _ in range(n_ops)]
        self._pending: List[Tuple[int, float]] = []
        self._since = 0.0

    def start_pass(self) -> None:
        self.units.append(calibrate())

    def after_op(self, i: int, elapsed: float, last: bool) -> None:
        self._pending.append((i, elapsed))
        self._since += elapsed
        if self._since >= CAL_EVERY_S or last:
            before = self.units[-1]
            self.units.append(calibrate())
            factor = 2 * CAL_REF_S / (before + self.units[-1])
            for j, t in self._pending:
                self.scaled[j].append(t * factor)
            self._pending, self._since = [], 0.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment() -> Dict[str, object]:
    try:
        sympy_version: Optional[str] = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = None
    commit = None
    try:
        got = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        lines = got.stdout.split()
        if got.returncode == 0 and len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    pkg = os.path.join(SRC, "ramify")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "sympy": sympy_version,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def probe(workload: str, seed: int, tiny: bool) -> Tuple[float, float, float]:
    """(set-up time from interpreter start to ready, cold import time,
    time of the probe's import-like unit)."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed), "1" if tiny else "0"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            rest = proc.stdout.read().split()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if code != 0 or not line.strip() or len(rest) != 1:
        raise RuntimeError(f"set-up probe for {workload} exited with code {code}")
    return ready, float(line), float(rest[0])


def import_times() -> Tuple[float, float]:
    """Cumulative import time of sympy and of ramify from ``-X importtime``."""
    got = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ramify"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if got.returncode != 0:
        raise RuntimeError("import ramify failed under -X importtime")
    cumulative: Dict[str, float] = {}
    for line in got.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:"):
            try:
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
            except ValueError:
                continue
    return cumulative.get("sympy", 0.0), cumulative["ramify"]


def run_pass(w, latencies, texts, failures: Failures, counts: Dict[str, int], first: bool,
             tracer=None, host: Optional[HostSpeed] = None) -> float:
    """Run the round once and return the op time it took.

    Op time covers only `run`; checking happens outside it, with any
    tracer switched off.  The first pass stores each op's formatted result
    in `texts` and adds its work counts to `counts`; every later pass must
    give the same results.  With `host`, the host's speed is sampled
    between ops.
    """
    busy = 0.0
    if host is not None:
        host.start_pass()
    for i, op in enumerate(w.ops):
        error = None
        with tracer.span("op." + w.name, op=i) if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                result = w.run(op)
            except Exception as exc:  # a failing op is counted, never fatal
                error = exc
            elapsed = time.perf_counter() - start
        busy += elapsed
        latencies[i].append(elapsed)
        if host is not None:
            host.after_op(i, elapsed, i == len(w.ops) - 1)
        if error is not None:
            failures.add(f"op {i} ({op.kind}) raised {type(error).__name__}: {error}")
            continue
        try:
            outcome = w.check(op, result, first)
        except Exception as exc:
            failures.add(f"op {i} ({op.kind}) check raised {type(exc).__name__}: {exc}")
            continue
        if first:
            texts[i] = outcome.text
            for key, value in outcome.counts.items():
                counts[key] = counts.get(key, 0) + value
        if not outcome.ok:
            failures.add(f"op {i} ({op.kind}) failed its check: {outcome.text[:200]!r}")
        elif outcome.text != texts[i]:
            failures.add(f"op {i} ({op.kind}) gave a different result than on the first pass")
    return busy


def work_record(round_ops: int, texts: List[Optional[str]], counts: Dict[str, int]) -> Dict[str, object]:
    """Digest of the formatted results of one pass, and its work counts."""
    digest = hashlib.sha256("\n".join(t if t is not None else "<failed>" for t in texts).encode()).hexdigest()
    record_counts = {"round_ops": round_ops, "series_terms": 0, "delta_monomials": 0, "as_steps": 0}
    record_counts.update(counts)
    return {"digest": digest, "counts": record_counts}


def compare_record(workload: str, seed: int, tiny: bool, got: Dict[str, object]) -> Tuple[bool, str]:
    if tiny:
        return True, "tiny round: no recorded digest"
    with open(EXPECTED) as fh:
        want = json.load(fh).get(workload, {}).get(str(seed))
    if want is None:
        return True, f"seed {seed} has no recorded digest or work counts"
    problems = []
    if want["digest"] != got["digest"]:
        problems.append("result digest differs from the recorded one")
    for key, value in want["counts"].items():
        if got["counts"].get(key) != value:
            problems.append(f"work count {key} is {got['counts'].get(key)}, recorded {value}")
    if problems:
        return False, "; ".join(problems)
    return True, "digest and work counts match the recorded ones"


def tail(values: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(args, workloads_mod, failures: Failures) -> Tuple[Dict[str, float], int, Dict[str, object], Dict[str, object]]:
    n_probes = 1 if args.tiny else PROBES
    w = workloads_mod.build(args.workload, args.seed, tiny=args.tiny)
    n = len(w.ops)
    texts: List[Optional[str]] = [None] * n
    counts: Dict[str, int] = {}
    # the first pass fills the caches a long-lived process keeps warm and
    # gives the checked work record; it is not measured
    gc.collect()
    run_pass(w, [[] for _ in w.ops], texts, failures, counts, first=True)
    record = work_record(n, texts, counts)
    latencies: List[List[float]] = [[] for _ in w.ops]
    samples: List[Tuple[float, float, float]] = []
    host = HostSpeed(n)
    busy, passes = 0.0, 0
    # only whole passes are measured, so every op is repeated equally often
    while passes == 0 or busy < args.seconds:
        # the set-up probes are spread over the run, between passes, so
        # that a slow spell of the host does not catch all of them
        while len(samples) < n_probes and busy >= args.seconds * len(samples) / n_probes:
            samples.append(probe(args.workload, args.seed, args.tiny))
        gc.collect()
        busy += run_pass(w, latencies, texts, failures, counts, first=False, host=host)
        passes += 1
    while len(samples) < n_probes:
        samples.append(probe(args.workload, args.seed, args.tiny))

    # an op's latency is the median of its measured repeats, each scaled by
    # the host's speed around it; throughput is scaled by the run's mean
    # speed
    per_op = [statistics.median(lat) for lat in latencies]
    per_op_scaled = [statistics.median(lat) for lat in host.scaled]
    tail_s, tail_pct = tail(per_op)
    raw = {"ops_per_s": passes * n / busy, "op_p50_ms": 1e3 * statistics.median(per_op), "op_tail_ms": 1e3 * tail_s}
    metrics = {
        "ops_per_s": raw["ops_per_s"] * statistics.mean(host.units) / CAL_REF_S,
        "op_p50_ms": 1e3 * statistics.median(per_op_scaled),
        "op_tail_ms": 1e3 * tail(per_op_scaled)[0],
        "setup_s": statistics.median(s * PROBE_REF_S / c for s, _, c in samples),
        "import_s": statistics.median(i * PROBE_REF_S / c for _, i, c in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "round_ops": n,
        "measured_passes": passes,
        "measured_s": busy,
        "unscaled": raw,
        "calibrate_ms": 1e3 * statistics.mean(host.units),
        "calibrate_samples": len(host.units),
        "tail_percentile": tail_pct,
        "tail_ops_beyond": min(TAIL_BEYOND, n - 1),
        "unscaled_setup_samples_s": [s for s, _, _ in samples],
        "unscaled_import_samples_s": [i for _, i, _ in samples],
        "probe_unit_ms": [1e3 * c for _, _, c in samples],
    }
    return metrics, n * (passes + 1), record, info


def traced(args, workloads_mod, tracing_mod, failures: Failures) -> Tuple[Dict[str, float], int, Dict[str, object], Dict[str, object]]:
    sympy_s, ramify_s = import_times()
    tracer = tracing_mod.Tracer()
    # set-up is traced, so that model construction shows
    tracer.install()
    try:
        with tracer.span("setup." + args.workload):
            w = workloads_mod.build(args.workload, args.seed, tiny=args.tiny)
    finally:
        tracer.uninstall()
    n = len(w.ops)
    texts: List[Optional[str]] = [None] * n
    counts: Dict[str, int] = {}
    # the first pass warms the caches, as in the untraced run, and gives
    # the checked work record
    gc.collect()
    run_pass(w, [[] for _ in w.ops], texts, failures, counts, first=True)
    record = work_record(n, texts, counts)

    # untraced and traced passes alternate on the same warm build; the
    # overhead compares each op's faster run on either side, which damps a
    # slow spell of the host.  Only the first traced pass is kept.
    runs: Dict[str, List[List[float]]] = {"untraced": [], "traced": []}
    for side in ("untraced", "traced", "untraced", "traced"):
        latencies: List[List[float]] = [[] for _ in w.ops]
        pass_tracer = None
        if side == "traced":
            pass_tracer = tracer if not runs["traced"] else tracing_mod.Tracer()
            pass_tracer.install()
        gc.collect()
        try:
            run_pass(w, latencies, texts, failures, counts, first=False, tracer=pass_tracer)
        finally:
            if pass_tracer is not None:
                pass_tracer.uninstall()
        runs[side].append([lat[0] for lat in latencies])

    def best_time(side):
        a, b = runs[side]
        return sum(min(x, y) for x, y in zip(a, b))

    metrics = tracer.metrics()
    metrics["setup.sympy_import_s"] = sympy_s
    metrics["setup.ramify_import_s"] = ramify_s
    metrics["trace.overhead_s"] = best_time("traced") - best_time("untraced")
    os.makedirs(OUT, exist_ok=True)
    span_file = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}.jsonl")
    tracer.write(span_file)
    info = {
        "untraced_s": best_time("untraced"),
        "traced_s": best_time("traced"),
        "spans": len(tracer.spans),
        "span_file": os.path.relpath(span_file, ROOT),
    }
    return metrics, 5 * n, record, info


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter.  The last line
    merges their results, with metrics named ``<workload>.<metric>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        got = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(got.stdout)
        if got.returncode != 0:
            sys.stderr.write(got.stderr)
            return got.returncode
        result = json.loads(got.stdout.splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="one op per stratum and one probe, for the smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ramify", "__init__.py")):
        print(f"error: no ramify sources under {SRC}; run from the root of a ramify checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))

    import workloads
    import tracing

    failures = Failures()
    if args.trace:
        metrics, attempted, record, info = traced(args, workloads, tracing, failures)
        declared = tracing.PER_LAYER
    else:
        metrics, attempted, record, info = end_to_end(args, workloads, failures)
        declared = END_TO_END
    record_ok, record_note = compare_record(args.workload, args.seed, args.tiny, record)

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print("run: " + json.dumps(info, sort_keys=True))
    print("work: " + json.dumps(record, sort_keys=True))
    print(f"check: {record_note}")
    for reason in failures.reasons:
        print(f"failure: {reason}")
    print(f"failed_ratio: {failures.count / attempted:.6g} ({failures.count} of {attempted} ops)")
    for name, unit, _ in declared:
        print(f"{name}: {metrics[name]!r} {unit}")
    result = {
        "correct": failures.count == 0 and record_ok,
        "attempted": attempted,
        "failed": failures.count,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
