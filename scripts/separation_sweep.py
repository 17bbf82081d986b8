"""Threshold chain of a defect model: gaps, connectivity, separation.

Builds one defect model, reads the gap of every tagged generator (the value
of sigma(x) - x), and prints the connectivity thresholds those gaps induce.
The chain of closed ideals climbs strictly toward the model's break without
reaching it; the final line reports the degree-n separation bound computed
from the whole gap set.

    python3 scripts/separation_sweep.py --p 2 --depth 5
"""

import argparse
from fractions import Fraction

from ramify.cuts import open_cut
from ramify.defect_lab import build_defect_model
from ramify.literals import format_cut, format_element
from ramify.ordered_group import element, p_inverted
from ramify.separation import GapDatum, connectivity_threshold, model_gap, separation_bound
from ramify.series_field import variable_series
from ramify.swan import break_of


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, default=2)
    parser.add_argument("--depth", type=int, default=5)
    parser.add_argument("--bound", default="1", help="conductor cut bound (rational)")
    args = parser.parse_args()
    # every ValueError from the work is bad input: a usage error, exit 2
    try:
        descriptor = p_inverted(args.p)
        cut = open_cut(descriptor, element(descriptor, Fraction(args.bound)))
        model = build_defect_model(descriptor, args.p, cut, depth=args.depth)
    except ValueError as e:
        parser.error(str(e))
    brk = break_of(model.conductor)
    print(f"group {descriptor}, p = {args.p}, conductor {format_cut(model.conductor)}")
    print(f"break at {format_cut(brk)}\n")

    print(f"{'generator'.ljust(10)}  {'gap'.ljust(10)}  {'connected at'.ljust(14)}  separated at")
    gaps = []
    for i, e in enumerate(model.e_seq):
        gap = model_gap(model, variable_series(model.field, descriptor, model.field.gens[i]))
        gaps.append(gap)
        pair = connectivity_threshold(gap, model.p)
        print(
            f"{('x' + str(i)).ljust(10)}  {format_element(gap).ljust(10)}"
            f"  {format_cut(pair.connected_at).ljust(14)}  {format_cut(pair.separated_at)}"
        )

    datum = GapDatum(model.p, tuple(gaps))
    print(f"\ndegree-{model.p} separation bound over all gaps: {format_cut(separation_bound(datum))}")


if __name__ == "__main__":
    main()
