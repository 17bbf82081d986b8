"""Command-line front end: the subcommands, the verify suites and argparse.

The commands read and print values in the literal syntax of
``ramify.literals``.  Exit codes: 0 success, 2 malformed input (the
diagnostic names the offending token), 1 a theorem-level check failed.
``finish`` is the one place where exceptions become exit codes, for the
subcommands and for the scripts alike.
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cuts import Cut, Surd, open_cut, principal_cut
from .defect_lab import (
    STATUS_BELOW_ALL,
    STATUS_WITNESSED,
    DeltaBoundError,
    VARIANT_CLOSED,
    VARIANT_OPEN,
    VARIANT_OPEN_IRRATIONAL,
    break_witness,
    build_defect_model,
    conductor_limit_check,
    limit_queries,
    twin_pair,
    verify_delta_bounds,
    witness_persistence,
)
# format_surd is not called here; it is imported so that code which looks up
# or replaces the readers and printers by name on this module finds them all
from .literals import (
    MAX_DIGITS,
    InputError,
    element_form,
    format_cut,
    format_element,
    format_rsw,
    format_surd,
    parse_bound,
    parse_cut,
    parse_element,
    parse_elements,
    parse_group,
    parse_series,
)
from .ordered_group import GroupDescriptor, _is_prime, echo, element, int_lex, p_inverted, quadratic
from .sampling import (
    random_group_cut,
    random_hull_ideal,
    random_model_series,
    random_positive_element,
)
from .separation import GapDatum, connectivity_threshold, separation_bound
from .series_field import norm_trace_laws, valuation_laws
from .swan import (
    EqualCharSymbolic,
    KummerSymbolic,
    SwanData,
    UndeterminedError,
    break_of,
    classify_equal_char,
    classify_kummer_symbolic,
    galois_image,
    plan_log_smooth,
    single_jump_violations,
)


# -- report plumbing ---------------------------------------------------------------


class Report:
    def __init__(self):
        self.lines: List[str] = []

    def section(self, name: str) -> None:
        self.lines.append(f"[{name}]")

    def kv(self, key: str, value) -> None:
        if isinstance(value, bool):
            value = "true" if value else "false"
        self.lines.append(f"{key}: {value}")

    def raw(self, line: str) -> None:
        self.lines.append(line)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _emit_swan(report: Report, data: SwanData, p: int) -> None:
    report.section("swan")
    report.kv("case", data.case if data.case else "none")
    report.kv("H", format_cut(data.conductor))
    report.kv("defect", data.defect)
    report.kv("e", "p" if data.e_pred == p else str(data.e_pred))
    report.kv("residue", data.residue_pred)
    report.kv("unramified", data.unramified)
    report.kv("rsw", format_rsw(data.rsw))


# -- subcommands --------------------------------------------------------------------


def _cmd_classify(args, report: Report) -> int:
    mode = "as" if args.artin_schreier is not None else "case" if args.case is not None else "kummer"
    kummer = ("kummer",)
    readers = {"c": ("case",), "e0": kummer, "va": kummer, "vb": kummer, "unit": ("case", "kummer")}
    _refuse_unread(args, readers, [mode], f"--{mode}")
    descriptor = parse_group(args.group)
    if mode == "as":
        f, _ = parse_series(args.artin_schreier, descriptor, args.p)
        try:
            data = classify_equal_char(f)
        except UndeterminedError as e:
            report.section("swan")
            report.kv("status", "undetermined")
            report.kv("detail", str(e))
            return 0
        _emit_swan(report, data, args.p)
        return 0
    if mode == "case":
        c = parse_element(args.c, descriptor) if args.c else None
        desc = EqualCharSymbolic(args.p, args.case, c=c, unit_name=args.unit, descriptor=descriptor)
        _emit_swan(report, classify_equal_char(desc), args.p)
        return 0
    if args.e0 is None:
        raise InputError("--kummer needs --e0, the value of zeta_p - 1")
    desc = KummerSymbolic(
        args.p,
        args.kummer,
        e0=parse_element(args.e0, descriptor),
        v_a=parse_element(args.va, descriptor) if args.va else None,
        v_b=parse_element(args.vb, descriptor) if args.vb else None,
        unit_name=args.unit,
    )
    data = classify_kummer_symbolic(desc)
    _emit_swan(report, data, args.p)
    if data.rsw is not None:
        moves = plan_log_smooth(data.rsw, args.p)
        report.section("plan")
        report.kv("moves", len(moves))
        for i, mv in enumerate(moves):
            report.kv(f"move{i}", f"adjoin degree-{mv.e} root at {format_element(mv.target)}")
    return 0


def _cmd_eval(args, report: Report) -> int:
    descriptor = parse_group(args.group)
    H = parse_cut(args.conductor, descriptor, hull=False)
    I = parse_cut(args.ideal, descriptor, hull=True)
    image = galois_image(H, I)
    report.section("eval")
    report.kv("H", format_cut(H))
    report.kv("I", format_cut(I))
    report.kv("image", image)
    return 0


def _cmd_breaks(args, report: Report) -> int:
    mode = "H" if args.conductor is not None else "bound"
    _refuse_unread(args, {"variant": ("bound",), "depth": ("bound",), "p": ("bound",)}, [mode], f"--{mode}")
    descriptor = parse_group(args.group)
    report.section("break")
    if mode == "H":
        H = parse_cut(args.conductor, descriptor, hull=False)
        br = break_of(H)
        report.kv("H", format_cut(H))
        report.kv("break", format_cut(br))
        report.kv("principal", br.kind == "principal")
        return 0
    if args.variant is None:
        raise InputError("--bound needs --variant")
    depth, p = 4 if args.depth is None else args.depth, 2 if args.p is None else args.p
    bound = parse_bound(args.bound, descriptor, hull=False)
    data = break_witness(descriptor, p, bound, args.variant, depth=depth).swan
    br = break_of(data.conductor)
    report.kv("variant", args.variant)
    report.kv("H", format_cut(data.conductor))
    report.kv("break", format_cut(br))
    report.kv("principal", br.kind == "principal")
    report.kv("defect", data.defect)
    return 0


def _cmd_construct_defect(args, report: Report) -> int:
    descriptor = parse_group(args.group)
    cut = parse_cut(args.cut, descriptor, hull=False)
    rng = random.Random(args.seed)
    # build_defect_model checks each generator's step, the sampler every
    # floor; a failed check is reported under [verify]
    try:
        model = build_defect_model(descriptor, args.p, cut, depth=args.depth)
        report.section("model")
        report.kv("group", str(descriptor))
        report.kv("p", args.p)
        report.kv("C", format_cut(model.conductor))
        report.kv("D", format_cut(model.root_set))
        report.kv("depth", model.depth)
        for i, e in enumerate(model.e_seq):
            report.kv(f"e{i}", format_element(e))
        report.kv("H", format_cut(model.swan.conductor))
        report.kv("defect", model.swan.defect)
        report.kv("break", format_cut(break_of(model.swan.conductor)))
        delta_report = verify_delta_bounds(model, samples=args.samples, rng=rng)
    except DeltaBoundError:
        report.section("verify")
        raise
    report.section("verify")
    report.kv("samples", delta_report.samples)
    report.kv("monomials", delta_report.monomials_checked)
    report.kv("sigma_fixed", delta_report.sigma_fixed)
    report.kv("failures", 0)

    queries = limit_queries(model, rng)
    limit = conductor_limit_check(model, queries)
    report.section("limit")
    report.kv("queries", len(queries))
    report.kv("witnessed", sum(1 for e in limit.entries if e.status == STATUS_WITNESSED))
    report.kv("below_all", sum(1 for e in limit.entries if e.status == STATUS_BELOW_ALL))
    report.kv("unresolved", limit.unresolved)
    report.kv("ok", limit.ok)
    return 0 if limit.ok else 1


def _cmd_demo_br10(args, report: Report) -> int:
    _refuse_unread(args, {"table_rows": ("plain",)}, [args.format], f"--format {args.format}")
    descriptor = parse_group(args.group)
    b = parse_element(args.b, descriptor)
    report.section("br10")
    pair = twin_pair(descriptor, args.p, b, depth=args.depth)
    H1 = pair.ramified.swan.conductor
    H2 = pair.defect.swan.conductor
    rng = random.Random(args.seed)
    report.kv("H1", format_cut(H1))
    report.kv("H2", format_cut(H2))
    rows = []
    agreements = 0
    for _ in range(args.samples):
        ideal = principal_cut(random_positive_element(rng, descriptor, hull=True))
        im1, im2 = galois_image(H1, ideal), galois_image(H2, ideal)
        rows.append((format_cut(ideal), im1, im2))
        if im1 == im2:
            agreements += 1
    report.kv("samples", args.samples)
    report.kv("agreements", agreements)
    if args.format == "plain":
        width = max(len(r[0]) for r in rows) if rows else 8
        report.raw(f"{'I'.ljust(width)}  image1   image2   agree")
        for name, im1, im2 in rows[: 12 if args.table_rows is None else args.table_rows]:
            report.raw(f"{name.ljust(width)}  {im1.ljust(7)}  {im2.ljust(7)}  {'yes' if im1 == im2 else 'NO'}")
    div = pair.divergence
    im1, im2 = galois_image(H1, div), galois_image(H2, div)
    report.kv("divergence_at", format_cut(div))
    report.kv("image1_at_divergence", im1)
    report.kv("image2_at_divergence", im2)
    code = 0
    if agreements != args.samples or im1 == im2:
        code = 1
        report.kv("check", "FAILED")
    return code


def _cmd_separation(args, report: Report) -> int:
    mode = "gaps" if args.gaps is not None else "gap"
    _refuse_unread(args, {"degree": ("gaps",)}, [mode], f"--{mode}")
    descriptor = _group_for_separation(args)
    report.section("separation")
    if args.gaps is not None:
        gaps = parse_elements(args.gaps, descriptor, hull=args.hull)
        degree = 2 if args.degree is None else args.degree
        bound = separation_bound(GapDatum(degree, gaps))
        _refuse_long_numbers(bound)
        report.kv("degree", degree)
        report.kv("gaps", ",".join(format_element(g) for g in gaps))
        report.kv("bound", format_cut(bound))
        return 0
    gap = parse_element(args.gap, descriptor, hull=args.hull)
    pair = connectivity_threshold(gap, args.p)
    report.kv("gap", format_element(gap))
    report.kv("p", args.p)
    report.kv("connected_at", format_cut(pair.connected_at))
    report.kv("separated_at", format_cut(pair.separated_at))
    return 0


def _refuse_long_numbers(cut: Cut) -> None:
    """Refuse a bound with a numerator or denominator of more than
    MAX_DIGITS digits, compared as integers, so that whether it prints does
    not depend on the interpreter's limit on integer digits."""
    v = cut.value
    numbers = (v.A, v.B, v.den) if isinstance(v, Surd) else (*v.nums, v.den)
    if any(abs(x) >= 10 ** MAX_DIGITS for x in numbers):
        raise InputError(f"the bound has numbers of more than {MAX_DIGITS} digits")


def _group_for_separation(args) -> GroupDescriptor:
    if args.group is not None:
        return parse_group(args.group)
    head = element_form(args.gap if args.gap is not None else args.gaps)
    if head is None:
        return int_lex(1)
    if head == "q":
        return p_inverted(args.p)
    raise InputError(f"{head} gaps need an explicit --group {'zlex:n' if head == 'lex' else 'quad:d'}")


# -- verification suites -------------------------------------------------------------


def _suite_claim2(args, report: Report) -> int:
    descriptor = parse_group(args.group) if args.group else p_inverted(args.p)
    cut = (
        parse_cut(args.cut, descriptor, hull=False)
        if args.cut
        else open_cut(descriptor, random_positive_element(random.Random(args.seed + 1), descriptor, span=6))
    )
    model = build_defect_model(descriptor, args.p, cut, depth=args.depth)
    delta_report = verify_delta_bounds(model, samples=args.samples, rng=random.Random(args.seed))
    report.kv("group", str(descriptor))
    report.kv("C", format_cut(cut))
    report.kv("depth", args.depth)
    report.kv("samples", delta_report.samples)
    report.kv("monomials", delta_report.monomials_checked)
    report.kv("failures", 0)
    return 0


def _suite_limits(args, report: Report) -> int:
    descriptor = parse_group(args.group) if args.group else p_inverted(args.p)
    rng = random.Random(args.seed)
    cut = (
        parse_cut(args.cut, descriptor, hull=False)
        if args.cut
        else open_cut(descriptor, random_positive_element(rng, descriptor, span=6))
    )
    shallow = build_defect_model(descriptor, args.p, cut, depth=args.depth - 1)
    deep = build_defect_model(descriptor, args.p, cut, depth=args.depth + 1)
    queries = limit_queries(deep, rng)
    rep_s, rep_d, failures = witness_persistence(shallow, deep, queries)
    report.kv("queries", len(queries))
    report.kv(f"unresolved_depth{shallow.depth}", rep_s.unresolved)
    report.kv(f"unresolved_depth{deep.depth}", rep_d.unresolved)
    return _conclude(report, failures)


def _suite_theorem1(args, report: Report) -> int:
    rng = random.Random(args.seed)
    groups = [int_lex(1), int_lex(2), int_lex(3), p_inverted(2), p_inverted(3), quadratic(2)]
    failures, trials = [], 0
    while trials < args.samples:
        descriptor = groups[rng.randrange(len(groups))]
        H = random_group_cut(rng, descriptor, allow_whole=False)
        ideals = [random_hull_ideal(rng, descriptor) for _ in range(6)]
        failures += single_jump_violations(H, ideals)
        trials += len(ideals) + 1  # the break ideal is evaluated too
    report.kv("pairs", trials)
    return _conclude(report, failures)


# Largest --p the series suite takes: each sample's norm is a product of p
# conjugates.  On a shared 2-vCPU host one sample took at most 1.5 s at
# p = 7 (seeds 0-40), but at p = 11 the norm alone took 10-12 s at seeds 6
# and 10, where it has 178582 and 146794 terms.
SERIES_MAX_P = 10


def _suite_series(args, report: Report) -> int:
    rng = random.Random(args.seed)
    descriptor = p_inverted(args.p)
    model = build_defect_model(descriptor, args.p, open_cut(descriptor, element(descriptor, 1)), depth=args.depth)
    failures: List[str] = []
    for _ in range(args.samples):
        f = random_model_series(model, rng)
        g = random_model_series(model, rng)
        failures += valuation_laws(model.sigma, f, g) + norm_trace_laws(model.sigma, f)
    report.kv("samples", args.samples)
    return _conclude(report, failures)


def _sigma_failure(report: Report, e: DeltaBoundError) -> int:
    """Report a defect model's failed sigma check as one failure; the exit
    code is 1."""
    report.kv("failures", 1)
    report.kv("detail", str(e))
    return 1


def _conclude(report: Report, failures: List[str]) -> int:
    report.kv("failures", len(failures))
    return 1 if failures else 0


_SUITES = {
    "claim2": _suite_claim2,
    "limits": _suite_limits,
    "theorem1": _suite_theorem1,
    "series": _suite_series,
}

# the suites that read each optional flag
_FLAG_READERS = {
    "group": ("claim2", "limits"),
    "cut": ("claim2", "limits"),
    "depth": ("claim2", "limits", "series"),
}


def _refuse_unread(args, readers, modes: Sequence[str], selected: str) -> None:
    """Refuse a flag that none of the selected modes reads, rather than
    drop it; ``readers`` maps each optional flag to the modes that read it."""
    for flag, flag_readers in readers.items():
        if getattr(args, flag) is not None and not any(m in flag_readers for m in modes):
            raise InputError(f"--{flag.replace('_', '-')} is not read by {selected}")


def _cmd_verify(args, report: Report) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    _refuse_unread(args, _FLAG_READERS, names, f"suite {args.suite}")
    if args.depth is None:
        args.depth = 3
    if "series" in names and args.p > SERIES_MAX_P:
        raise InputError(f"suite series takes --p at most {SERIES_MAX_P}, since each sample multiplies p conjugates")
    if "limits" in names and args.depth < 2:
        raise InputError("suite limits builds models at --depth - 1 and --depth + 1, so it needs --depth >= 2")
    code = 0
    for name in names:
        report.section("verify")
        report.kv("suite", name)
        # a defect model that fails a sigma check, where it is built or
        # sampled, fails the suite, and the next suite still runs
        try:
            code = max(code, _SUITES[name](args, report))
        except DeltaBoundError as e:
            code = _sigma_failure(report, e)
    return code


# -- argument wiring -----------------------------------------------------------------


def _integer(text: str) -> int:
    """The one reader of integer flags: int(text), with the digits counted
    against literals.MAX_DIGITS first, so that a longer value is refused the
    same way whatever the interpreter's int-string limit, by a message that
    names the cap and does not echo the value."""
    if len(text) > MAX_DIGITS and sum(map(str.isdigit, text)) > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"numbers have at most {MAX_DIGITS} digits")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, found {echo(text, quote=True)}")


def _prime(text: str) -> int:
    if text.isdecimal():
        n = _integer(text)
        try:
            if _is_prime(n):
                return n
        except ValueError as e:  # above the trial-division cap
            raise argparse.ArgumentTypeError(str(e))
    raise argparse.ArgumentTypeError(f"expected a prime, found {echo(text, quote=True)}")


def _count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, found {echo(text, quote=True)}")
    return _integer(text)


# Largest --samples any command takes, 50 times the largest default (200):
# one series sample at p = 7 took up to 1.5 s on a shared 2-vCPU host, so a
# larger count is refused before anything is sampled.
MAX_SAMPLES = 10_000


def _samples(text: str) -> int:
    n = _count(text)
    if n > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"expected at most {MAX_SAMPLES} samples, found {echo(n)}")
    return n


def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subparsers by command name."""
    parser = argparse.ArgumentParser(
        prog="ramify",
        description="Exact ramification invariants of degree-p cyclic extensions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, seed=False, p_required=True):
        sp.add_argument("--p", type=_prime, required=p_required, help="the residue characteristic")
        if seed:
            sp.add_argument("--seed", type=_integer, default=0, help="RNG seed")

    sp = sub.add_parser("classify", help="conductor data of one extension")
    sp.add_argument("--group", required=True)
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--as", dest="artin_schreier", help="Artin-Schreier right-hand side, as a series literal")
    mode.add_argument("--case", choices=("i", "ii", "iii"), help="symbolic equal-characteristic case")
    mode.add_argument("--kummer", choices=("i", "ii", "iii", "iv", "v"), help="symbolic Kummer case")
    sp.add_argument("--c", help="conductor value for --case")
    sp.add_argument("--e0", help="value of zeta_p - 1 for --kummer")
    sp.add_argument("--va", help="value of a for Kummer case i")
    sp.add_argument("--vb", help="value of b for Kummer cases iii/iv")
    sp.add_argument("--unit", help="residue unit name for cases ii/iv")
    common(sp)

    sp = sub.add_parser("eval", help="image of the ramification group at a test ideal")
    sp.add_argument("--group", required=True)
    sp.add_argument("--H", dest="conductor", required=True, help="conductor cut over the group")
    sp.add_argument("--I", dest="ideal", required=True, help="test ideal over the hull")

    sp = sub.add_parser("breaks", help="locate the ramification jump")
    sp.add_argument("--group", required=True)
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--H", dest="conductor", help="conductor cut (direct mode)")
    mode.add_argument("--bound", help="break bound (construction mode)")
    sp.add_argument("--variant", choices=(VARIANT_CLOSED, VARIANT_OPEN, VARIANT_OPEN_IRRATIONAL))
    sp.add_argument("--depth", type=_integer, help="model depth for --bound (default 4)")
    common(sp, p_required=False)

    sp = sub.add_parser("construct-defect", help="build and verify a defect model")
    sp.add_argument("--group", required=True)
    sp.add_argument("--cut", required=True, help="target conductor cut, e.g. 'gt(q(1))'")
    sp.add_argument("--depth", type=_integer, default=3)
    sp.add_argument("--samples", type=_samples, default=50)
    common(sp, seed=True)

    sp = sub.add_parser("demo-br10", help="principal ideals cannot tell the twin pair apart")
    sp.add_argument("--group", required=True)
    sp.add_argument("--b", required=True, help="half-conductor value; H1 = ge at p*b, H2 = gt at p*b")
    sp.add_argument("--samples", type=_samples, default=100)
    sp.add_argument("--table-rows", type=_count, help="rows of the plain table (default 12)")
    sp.add_argument("--depth", type=_integer, default=3)
    sp.add_argument("--format", choices=("plain", "kv"), default="plain")
    common(sp, seed=True)

    sp = sub.add_parser("separation", help="connectivity and separation thresholds")
    sp.add_argument("--group")
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--gap", help="generator gap value")
    mode.add_argument("--gaps", help="comma-separated gap values for the degree-n bound")
    sp.add_argument("--degree", type=_integer, help="degree for --gaps (default 2)")
    sp.add_argument("--hull", action="store_true", help="read gaps as hull elements")
    common(sp)

    sp = sub.add_parser("verify", help="seeded verification suites")
    sp.add_argument("--suite", required=True, choices=(*_SUITES, "all"))
    sp.add_argument("--group")
    sp.add_argument("--cut")
    sp.add_argument("--depth", type=_integer)
    sp.add_argument("--samples", type=_samples, default=200)
    common(sp, seed=True)

    # argparse counts only integers and decimals as negative numbers, so it
    # reads `--va -1/2` as two options; no option here starts with a digit,
    # so a token that starts with a minus and a digit is always a value
    for sp in sub.choices.values():
        sp._negative_number_matcher = re.compile(r"-\d")
    return parser, sub.choices


# argparse parsers are reusable, and building one costs more than most
# commands, so they are built once.  The top-level parser only reads the
# command name and hands the other tokens to that command's subparser, yet it
# scans every token first and costs about as much again as the subparser, so
# _parse hands a known command's tokens to its subparser itself.  The
# top-level parser still parses an argv with no known command name first (an
# empty one, -h, an unknown command), one whose tokens the subparser leaves
# unread (it prints "unrecognized arguments" under its own usage), and one
# with a "--" separator, which it interprets itself before handing the tokens
# on, in ways that have changed between argparse releases.
_PARSER, _SUBPARSERS = _build_parser()


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``, by the subparser alone where that gives
    the same namespace, output and exit code."""
    sp = _SUBPARSERS.get(argv[0]) if argv else None
    if sp is not None and "--" not in argv:
        args, extras = sp.parse_known_args(argv[1:], argparse.Namespace(subcommand=argv[0]))
        if not extras:
            return args
    return _PARSER.parse_args(argv)


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    handlers = {
        "classify": _cmd_classify,
        "eval": _cmd_eval,
        "breaks": _cmd_breaks,
        "construct-defect": _cmd_construct_defect,
        "demo-br10": _cmd_demo_br10,
        "separation": _cmd_separation,
        "verify": _cmd_verify,
    }
    return finish(handlers[args.subcommand], args)


def finish(handler: Callable[[argparse.Namespace, Report], int], args: argparse.Namespace) -> int:
    """Run ``handler(args, report)`` on a new report and end the run: the one
    place where exceptions become exit codes.  An ``InputError`` or
    ``ValueError`` the handler lets through, library validation included, is
    malformed input: ``error: ...`` on stderr, nothing on stdout, exit 2.  A
    ``DeltaBoundError`` is a failed check: ``failures: 1`` and ``detail: ...``
    after what the report holds, exit 1.  Otherwise the report is printed
    and the handler's code returned."""
    report = Report()
    try:
        code = handler(args, report)
    except (InputError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DeltaBoundError as e:
        code = _sigma_failure(report, e)
    sys.stdout.write(report.text())
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
