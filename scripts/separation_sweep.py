"""Threshold chain of a defect model: gaps, connectivity, separation.

Builds one defect model, reads the gap of every tagged generator (the value
of sigma(x) - x), and prints the connectivity thresholds those gaps induce.
The chain of closed ideals climbs strictly toward the model's break without
reaching it; the final line reports the degree-n separation bound computed
from the whole gap set.

    python3 scripts/separation_sweep.py --p 2 --depth 5
"""

import argparse
import sys

from ramify.cli import Report, finish
from ramify.cuts import open_cut
from ramify.defect_lab import build_defect_model
from ramify.literals import format_cut, format_element, parse_element
from ramify.ordered_group import p_inverted
from ramify.separation import GapDatum, connectivity_threshold, model_gap, separation_bound
from ramify.series_field import variable_series
from ramify.swan import break_of


def chain(args, report: Report) -> int:
    descriptor = p_inverted(args.p)
    cut = open_cut(descriptor, parse_element(args.bound, descriptor))
    model = build_defect_model(descriptor, args.p, cut, depth=args.depth)
    brk = break_of(model.conductor)
    report.raw(f"group {descriptor}, p = {args.p}, conductor {format_cut(model.conductor)}")
    report.raw(f"break at {format_cut(brk)}\n")

    report.raw(f"{'generator'.ljust(10)}  {'gap'.ljust(10)}  {'connected at'.ljust(14)}  separated at")
    gaps = []
    for i, e in enumerate(model.e_seq):
        gap = model_gap(model, variable_series(model.field, descriptor, model.field.gens[i]))
        gaps.append(gap)
        pair = connectivity_threshold(gap, model.p)
        report.raw(
            f"{('x' + str(i)).ljust(10)}  {format_element(gap).ljust(10)}"
            f"  {format_cut(pair.connected_at).ljust(14)}  {format_cut(pair.separated_at)}"
        )

    datum = GapDatum(model.p, tuple(gaps))
    report.raw(f"\ndegree-{model.p} separation bound over all gaps: {format_cut(separation_bound(datum))}")
    return 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, default=2)
    parser.add_argument("--depth", type=int, default=5)
    parser.add_argument("--bound", default="1", help="conductor cut bound (rational)")
    sys.exit(finish(chain, parser.parse_args()))


if __name__ == "__main__":
    main()
