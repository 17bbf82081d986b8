"""Sweep break witnesses across bounds and construction variants.

For each requested bound the sweep builds one defectless witness (principal
conductor, closed break) and one defect model (open conductor, open break),
then prints where the ramification jump lands and how the model's generator
sequence creeps down toward the p-th root of the bound.  Irrational bounds
get their own row when the group supports them.

Run from the repository root:

    python3 scripts/demo_breaks.py --p 2 --depth 4
"""

import argparse
import sys

from ramify.cli import Report, finish
from ramify.cuts import Surd
from ramify.defect_lab import (
    VARIANT_CLOSED,
    VARIANT_OPEN,
    VARIANT_OPEN_IRRATIONAL,
    break_witness,
)
from ramify.literals import format_cut, format_element, parse_elements
from ramify.ordered_group import element, in_group, p_inverted
from ramify.swan import break_of


def sweep(args, report: Report) -> int:
    p, depth = args.p, args.depth
    descriptor = p_inverted(p)
    bounds = parse_elements(args.bounds, descriptor, hull=True)
    rows = []
    # a bound outside the group has no witness; it is named once and skipped
    outside = [b.value for b in bounds if not in_group(b)]
    for g in (element(descriptor, b.value) for b in bounds if in_group(b)):
        for variant in (VARIANT_CLOSED, VARIANT_OPEN):
            w = break_witness(descriptor, p, g, variant, depth=depth)
            rows.append((format_element(g), variant, w))
    if not args.no_irrational:
        s = Surd(0, 1, 2)
        w = break_witness(descriptor, p, s, VARIANT_OPEN_IRRATIONAL, depth=depth)
        rows.append(("sqrt(2)", VARIANT_OPEN_IRRATIONAL, w))

    bw = max((len(r[0]) for r in rows), default=len("bound"))
    vw = max((len(r[1]) for r in rows), default=len("variant"))
    report.raw(f"group {descriptor}, p = {p}, depth = {depth}")
    if outside:
        report.raw(f"skipped bounds outside {descriptor}: {', '.join(map(str, outside))}")
    report.raw(f"{'bound'.ljust(bw)}  {'variant'.ljust(vw)}  {'break'.ljust(16)}  principal  defect")
    for name, variant, w in rows:
        brk = break_of(w.swan.conductor)
        report.raw(
            f"{name.ljust(bw)}  {variant.ljust(vw)}  {format_cut(brk).ljust(16)}"
            f"  {str(brk.kind == 'principal').lower().ljust(9)}"
            f"  {str(w.swan.defect).lower()}"
        )
    report.raw("")
    for name, variant, w in rows:
        if not w.swan.defect:
            continue
        seq = ", ".join(format_element(e) for e in w.e_seq)
        report.raw(f"e-sequence at {name} ({variant}): {seq}")
    return 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, default=2)
    parser.add_argument("--depth", type=int, default=4)
    parser.add_argument("--bounds", default="1,2,3/2", help="comma-separated rational bounds")
    parser.add_argument("--no-irrational", action="store_true")
    sys.exit(finish(sweep, parser.parse_args()))


if __name__ == "__main__":
    main()
