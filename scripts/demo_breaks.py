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
from fractions import Fraction
from typing import Tuple

from ramify.cuts import Surd
from ramify.defect_lab import (
    VARIANT_CLOSED,
    VARIANT_OPEN,
    VARIANT_OPEN_IRRATIONAL,
    break_witness,
)
from ramify.literals import format_cut, format_element
from ramify.ordered_group import GroupDescriptor, element, hull_element, in_group, p_inverted
from ramify.swan import break_of


def sweep(descriptor: GroupDescriptor, p: int, depth: int, bounds: Tuple[Fraction, ...], irrational: bool) -> None:
    rows = []
    # a bound outside the group has no witness; it is named once and skipped
    outside = [b for b in bounds if not in_group(hull_element(descriptor, b))]
    for b in bounds:
        if b in outside:
            continue
        g = element(descriptor, b)
        for variant in (VARIANT_CLOSED, VARIANT_OPEN):
            w = break_witness(descriptor, p, g, variant, depth=depth)
            rows.append((format_element(g), variant, w))
    if irrational:
        s = Surd(0, 1, 2)
        w = break_witness(descriptor, p, s, VARIANT_OPEN_IRRATIONAL, depth=depth)
        rows.append(("sqrt(2)", VARIANT_OPEN_IRRATIONAL, w))

    bw = max((len(r[0]) for r in rows), default=len("bound"))
    vw = max((len(r[1]) for r in rows), default=len("variant"))
    print(f"group {descriptor}, p = {p}, depth = {depth}")
    if outside:
        print(f"skipped bounds outside {descriptor}: {', '.join(map(str, outside))}")
    print(f"{'bound'.ljust(bw)}  {'variant'.ljust(vw)}  {'break'.ljust(16)}  principal  defect")
    for name, variant, w in rows:
        brk = break_of(w.swan.conductor)
        print(
            f"{name.ljust(bw)}  {variant.ljust(vw)}  {format_cut(brk).ljust(16)}"
            f"  {str(brk.kind == 'principal').lower().ljust(9)}"
            f"  {str(w.swan.defect).lower()}"
        )
    print()
    for name, variant, w in rows:
        if not w.swan.defect:
            continue
        seq = ", ".join(format_element(e) for e in w.e_seq)
        print(f"e-sequence at {name} ({variant}): {seq}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, default=2)
    parser.add_argument("--depth", type=int, default=4)
    parser.add_argument("--bounds", default="1,2,3/2", help="comma-separated rational bounds")
    parser.add_argument("--no-irrational", action="store_true")
    args = parser.parse_args()
    # every ValueError from the work is bad input: a usage error, exit 2
    try:
        descriptor = p_inverted(args.p)
        bounds = tuple(Fraction(b) for b in args.bounds.split(","))
        sweep(descriptor, args.p, args.depth, bounds, not args.no_irrational)
    except ValueError as e:
        parser.error(str(e))


if __name__ == "__main__":
    main()
