"""One set-up in a fresh interpreter, for the set-up and import timings.

    python3 perfbench/probe.py <workload> <seed> <tiny 0|1>

The source directory must be on PYTHONPATH.  ``import ramify`` comes first,
before any other module is loaded, so its time is that of a cold import.
The probe then builds the workload (input generation and model
construction) and prints the import time; the caller times the whole span
from starting the interpreter to reading that line.  Last it prints the
mean time of a fixed unit of import-like work, compiling, unmarshalling
and running a module's worth of definitions, by which the caller scales
both times to a reference host speed.
"""

import sys
import time

start = time.perf_counter()
import ramify  # noqa: E402,F401

import_s = time.perf_counter() - start

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), tiny=sys.argv[3] == "1")
print(repr(import_s), flush=True)

import marshal  # noqa: E402

SOURCE = "".join(
    f"class C{i}:\n    x = {i}\n    def f(self, a, b={i}):\n        return [a * b + k for k in range(3)]\n"
    f"def g{i}(x):\n    return {{'k': x, 'v': (x, {i})}}\n"
    for i in range(60)
)
UNITS = 20
start = time.perf_counter()
for _ in range(UNITS):
    exec(marshal.loads(marshal.dumps(compile(SOURCE, "<unit>", "exec"))), {})
print(repr((time.perf_counter() - start) / UNITS))
