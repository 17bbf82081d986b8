"""Constructions with prescribed conductor cuts, including defect extensions.

Two builders cover the two shapes a conductor cut can take over a dense
value group:

* `build_principal_case` realizes a principal cut Principal(c) by a
  concrete Artin-Schreier datum (no defect);
* `build_defect_model` realizes a cut with no least element by an order-p
  automorphism sigma of a group-ring model.  No single Artin-Schreier
  datum can do this: the reduction loop keeps lowering the leading term
  forever.  The model instead truncates the limit at a chosen depth.

The model ring is F_p[x_0, ..., x_N] tensored with the group algebra of
Gamma, with sigma(x_i) = x_i + t^{e(i)} for a strictly decreasing sequence
e(0) > e(1) > ... > e(N) inside the p-th root set of the target cut.  Two
checks test the two sides of the claim that sigma moves the ring exactly as
slowly as the cut demands:

* `build_defect_model` measures v(sigma(x_i) - x_i) for each generator,
  refuses a sigma under which it is not e(i), and keeps p times the
  measured steps as the thresholds (``DefectModel.thresholds``), which
  `conductor_limit_check` tests cut membership against: sigma moves the
  ring as fast as the cut demands;
* `verify_delta_bounds` tests the displacement floor on sampled elements:
  sigma(m) - m has value at least v(m) plus the least tag in m, so sigma
  moves the ring no faster than the cut allows.

The generators are enough for the first: sigma is a ring map, fixed by its
values on them, and the floor bounds every other element's displacement by
its value plus its least tag, the step of a generator.  A sigma whose step
is doubled or halved is refused before any sample is drawn.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .cuts import Cut, Surd, open_cut, principal_cut
from .ordered_group import (
    GroupDescriptor,
    GroupElement,
    _int_only,
    compare,
    divide_exact,
    element,
    format_point,
    int_scale,
    is_positive,
    neg,
)
from .sampling import _grid_base, random_model_series, random_positive_element
from .series_field import CoeffField, SeriesElement, SigmaSpec, t_term, variable_series
from .swan import SwanData, _defect, break_of, classify_equal_char


MAX_DEPTH = 256  # model cost grows steeply with the depth; deeper is refused


class DeltaBoundError(Exception):
    """Sigma moved an element other than the model allows: a generator by
    more or less than its step, or a sampled element faster than its floor."""


class DefectModel:
    """A truncated defect extension with conductor cut `conductor` and
    thresholds p*e(i); compares by identity."""

    def __init__(
        self, descriptor: GroupDescriptor, p: int, conductor: Cut, root_set: Cut, depth: int,
        e_seq: Tuple[GroupElement, ...], thresholds: Tuple[GroupElement, ...],
        field: CoeffField, sigma: SigmaSpec, swan: SwanData,
    ) -> None:
        self.descriptor, self.p, self.conductor, self.root_set, self.depth = descriptor, p, conductor, root_set, depth
        self.e_seq, self.thresholds, self.field, self.sigma, self.swan = e_seq, thresholds, field, sigma, swan


class PrincipalCase(NamedTuple):
    """A concrete datum realizing a principal conductor cut."""

    f: SeriesElement
    swan: SwanData


def build_principal_case(descriptor: GroupDescriptor, p: int, c: GroupElement) -> PrincipalCase:
    """Datum alpha^p - alpha = f with conductor cut Principal(c).

    Uses f = t^(-c) when c is not p-divisible, else f = u * t^(-c) with a
    fresh unit u whose residue is not a p-th power.
    """
    if c.descriptor != descriptor:
        raise ValueError("conductor value lives over a different group")
    if not is_positive(c):
        raise ValueError("conductor value must be positive")
    if divide_exact(c, p) is None:
        field = CoeffField(p)
        f = t_term(field, descriptor, neg(c))
    else:
        field = CoeffField(p, units=("u",))
        f = t_term(field, descriptor, neg(c), field.unit_gen("u"))
    swan = classify_equal_char(f)
    if swan.conductor != principal_cut(c):
        raise RuntimeError("classification disagrees with the construction")
    return PrincipalCase(f, swan)


# -- grid sequences converging to the root-set bound ---------------------------


def _surd_floor(s: Surd, n: int = 1) -> int:
    """floor(n * s) for an integer n >= 1, from the integers of s."""
    A = s.A * n
    if s.is_rational:
        return A // s.den
    # B*n*sqrt(d) is irrational, so it lies strictly between consecutive
    # integers and isqrt pins the floor
    B = s.B * n
    r = math.isqrt(B * B * s.d)
    return (A + r) // s.den if B > 0 else (A - r - 1) // s.den


def _grid_sequence(
    descriptor: GroupDescriptor, p: int, bound: Surd, depth: int
) -> Tuple[GroupElement, ...]:
    """Strictly decreasing e(0) > ... > e(depth), all strictly above
    `bound`, drawn from the q-power refinement grid of the group.

    e(0) is the least integer above the bound, and each later e is the
    least point above the bound on the first finer level that has one;
    levels that repeat the previous point are skipped.
    """
    q = _grid_base(descriptor, p)

    def top(j: int) -> int:
        """The least point of (1/q^j) * Z strictly above the bound, times q^j."""
        return _surd_floor(bound, q ** j) + 1

    levels = [0]
    while len(levels) <= depth:
        j = levels[-1]
        t = top(j)
        # the points never increase with the level, so the next level with a
        # point below t / q^j is found by doubling the step, then bisecting
        lo, hi = j, j + 1
        while top(hi) >= t * q ** (hi - j):
            lo, hi = hi, 2 * hi - j
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if top(mid) < t * q ** (mid - j) else (mid, hi)
        levels.append(hi)
    return tuple(element(descriptor, Fraction(top(j), q ** j)) for j in levels)


def build_defect_model(
    descriptor: GroupDescriptor, p: int, conductor: Cut, depth: int = 4
) -> DefectModel:
    """Order-p automorphism model whose conductor cut is `conductor`.

    The cut must be proper, have no least element, and pass the
    realizability test; in particular the group must be dense, which is
    what rules out cuts like the positive quadrant frontier over a lex
    product of two copies of the integers.
    """
    if conductor.over_hull:
        raise ValueError("the conductor cut lives over the group")
    if conductor.descriptor != descriptor:
        raise ValueError("cut lives over a different group")
    if conductor.is_whole:
        raise ValueError("the whole-group cut is the unramified case, not a defect")
    if conductor.min_element() is not None:
        raise ValueError("cut has a least element; use build_principal_case")
    if not conductor.is_realizable_conductor(p):
        raise ValueError("cut cannot occur as a conductor cut for this p")
    if not descriptor.is_dense:
        raise ValueError("defect extensions need a dense value group")
    root_set = conductor.pth_root_set(p)
    _int_only(depth)
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be between 1 and {MAX_DEPTH}")
    e_seq = _grid_sequence(descriptor, p, root_set.value, depth)
    # conductor_limit_check bisects the thresholds p*e(i), which needs the
    # steps strictly decreasing
    if any(compare(a, b) <= 0 for a, b in zip(e_seq, e_seq[1:])):
        raise RuntimeError("grid sequence does not strictly decrease")
    field = CoeffField(p, tags=e_seq)
    sigma = SigmaSpec(field, descriptor)
    # the sharp side: each threshold is p times a measured step, which must
    # be the generator's own tag
    thresholds = []
    for i, e in enumerate(e_seq):
        delta = sigma.delta(variable_series(field, descriptor, field.gens[i]))
        if delta.is_zero():
            raise DeltaBoundError(f"sigma fixes x{i}, whose step e({i}) is {format_point(e)}")
        step = delta.valuation()
        if step != e:
            raise DeltaBoundError(f"x{i} moved by {format_point(step)}, not by its step e({i}) = {format_point(e)}")
        thresholds.append(int_scale(p, step))
        if not root_set.contains(e) or not conductor.contains(thresholds[-1]):
            raise RuntimeError("grid sequence escaped the root set")
    return DefectModel(descriptor, p, conductor, root_set, depth, e_seq, tuple(thresholds), field, sigma, _defect(conductor))


# -- sampled verification -------------------------------------------------------


class DeltaReport(NamedTuple):
    samples: int
    monomials_checked: int
    sigma_fixed: int


def verify_delta_bounds(model: DefectModel, samples: int = 200, rng: Optional[random.Random] = None) -> DeltaReport:
    """Check, on ``samples`` ring elements f drawn with ``rng`` (by default
    ``random.Random(0)``), that sigma(f) - f is as small as the model promises.

    Per monomial m: every term of sigma(m) - m has value at least
    v(m) + min tag occurring in m.  Per element f: v(sigma(f) - f) is at
    least v(f) + min tag occurring in f.  Both floors are compared on the
    packed keys of the series (``SeriesElement.valuation_at_least``); values
    are decoded only for an error message.  Violations raise
    ``DeltaBoundError``; they would mean sigma is not an automorphism of
    the claimed shape.

    For an additive sigma the per-element floor follows from the
    per-monomial ones, so it is kept as the check of sigma's additivity: a
    sigma that is exact on monomials but not on sums (``_FastOnSums`` in
    the tests) fails it and nothing else.
    """
    _int_only(samples)
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    if rng is None:
        rng = random.Random(0)
    # tags are stored in decreasing order, so the least tag occurring in a
    # monomial is the one with the largest index among its tagged variables
    tags, sigma = model.field.tags, model.sigma
    checked = 0
    fixed = 0
    for _ in range(samples):
        f = random_model_series(model, rng)
        if f.is_zero():
            continue
        least = -1  # index of the least tag occurring in f
        for mono in f.monomials():
            i = mono.least_tag_index()
            delta = sigma.delta(mono)
            if i < 0:
                if not delta.is_zero():
                    raise DeltaBoundError("sigma moved a tag-free monomial")
                continue
            least = max(least, i)
            if not delta.is_zero() and not delta.valuation_at_least(mono, tags[i]):
                gamma = mono.valuation()
                raise DeltaBoundError(
                    f"monomial at value {format_point(gamma)} moved by {format_point(delta.valuation())}, "
                    f"below the floor {format_point(gamma + tags[i])}"
                )
            checked += 1
        delta_f = sigma.delta(f)
        if delta_f.is_zero():
            fixed += 1
            continue
        if least < 0:
            raise DeltaBoundError("sigma moved an element with no tagged variable")
        if not delta_f.valuation_at_least(f, tags[least]):
            raise DeltaBoundError(
                f"element with value {format_point(f.valuation())} moved by "
                f"{format_point(delta_f.valuation())}"
            )
    return DeltaReport(samples, checked, fixed)


# -- the conductor cut as a limit ----------------------------------------------

STATUS_WITNESSED = "witnessed"
STATUS_BELOW_ALL = "below-all"
STATUS_UNRESOLVED = "unresolved"
LIMIT_QUERIES = 50  # `limit_queries` fills its thresholds out to this many queries


class LimitEntry(NamedTuple):
    gamma: GroupElement
    member: bool
    status: str
    witness: Optional[int]


class LimitReport(NamedTuple):
    ok: bool
    entries: Tuple[LimitEntry, ...]

    @property
    def unresolved(self) -> int:
        return sum(1 for e in self.entries if e.status == STATUS_UNRESOLVED)


def conductor_limit_check(model: DefectModel, queries: Sequence[GroupElement]) -> LimitReport:
    """Compare cut membership against the thresholds p*e(i).

    A member of the cut should dominate some threshold (the witness, taken
    with least index so that deepening the model never changes it); a
    non-member must sit below every threshold.  A member that dominates no
    threshold yet is unresolved, not wrong: a deeper model resolves it.

    The thresholds strictly decrease (`build_defect_model` checks it), so
    the indices of the thresholds a query dominates form a suffix, and the
    least witness, where that suffix starts, is found by bisection in
    O(log depth) comparisons.
    """
    thresholds = model.thresholds
    n = len(thresholds)
    entries = []
    ok = True
    for gamma in queries:
        member = model.conductor.contains(gamma)
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) // 2
            if compare(gamma, thresholds[mid]) >= 0:
                hi = mid
            else:
                lo = mid + 1
        witness = lo if lo < n else None
        if member:
            status = STATUS_WITNESSED if witness is not None else STATUS_UNRESOLVED
        else:
            if witness is not None:
                status = "inconsistent"
                ok = False
            else:
                status = STATUS_BELOW_ALL
        entries.append(LimitEntry(gamma, member, status, witness))
    return LimitReport(ok, tuple(entries))


def limit_queries(model: DefectModel, rng: random.Random) -> List[GroupElement]:
    """The thresholds p*e(i) of `model`, filled out with random positive elements."""
    qs = list(model.thresholds)
    while len(qs) < LIMIT_QUERIES:
        qs.append(random_positive_element(rng, model.descriptor, span=6))
    return qs


def witness_persistence(
    shallow: DefectModel, deep: DefectModel, queries: Sequence[GroupElement]
) -> Tuple[LimitReport, LimitReport, List[str]]:
    """Both limit reports and one label per violation of the limit law: both
    consistent, membership depth-free, a witness and its index survive in
    the deeper model, and deepening only resolves queries."""
    rs = conductor_limit_check(shallow, queries)
    rd = conductor_limit_check(deep, queries)
    labels = [label for label, ok in (("shallow consistent", rs.ok), ("deep consistent", rd.ok)) if not ok]
    for es, ed in zip(rs.entries, rd.entries):
        if es.member != ed.member:
            labels.append("membership is depth-free")
        if es.status == STATUS_WITNESSED and ed.status != STATUS_WITNESSED:
            labels.append("witness survives deepening")
        if es.status == STATUS_WITNESSED and ed.witness != es.witness:
            labels.append("witness index is stable")
    if rd.unresolved > rs.unresolved:
        labels.append("deepening only resolves")
    return rs, rd, labels


# -- twin constructions ---------------------------------------------------------


class TwinPair:
    """Same principal-ideal trace, different conductor cuts.

    The ramified side has conductor Principal(p*b); the defect side has
    the open cut above p*b.  Every principal hull ideal evaluates the two
    identically; the open hull ideal at p*b tells them apart.  Compares by
    identity.
    """

    def __init__(self, ramified: PrincipalCase, defect: DefectModel, divergence: Cut) -> None:
        self.ramified, self.defect, self.divergence = ramified, defect, divergence


def twin_pair(descriptor: GroupDescriptor, p: int, b: GroupElement, depth: int = 4) -> TwinPair:
    if not descriptor.is_dense:
        raise ValueError("the twin pair needs a dense value group: its defect side is a defect extension")
    if not is_positive(b):
        raise ValueError("b must be positive")
    pb = int_scale(p, b)
    ramified = build_principal_case(descriptor, p, pb)
    defect = build_defect_model(descriptor, p, open_cut(descriptor, pb), depth)
    return TwinPair(ramified, defect, break_of(defect.conductor))


# -- one-stop break witnesses ---------------------------------------------------

VARIANT_CLOSED = "closed"
VARIANT_OPEN = "open"
VARIANT_OPEN_IRRATIONAL = "open-irrational"


def break_witness(
    descriptor: GroupDescriptor,
    p: int,
    bound: Union[GroupElement, Surd],
    variant: str = VARIANT_CLOSED,
    depth: int = 4,
) -> Union[PrincipalCase, DefectModel]:
    """A construction whose ramification jump, ``break_of(c.swan.conductor)``,
    sits exactly at `bound`.

    closed: principal datum (`PrincipalCase`), jump at the closed hull ideal at `bound`.
    open: defect model (`DefectModel`), jump at the open hull ideal at `bound`.
    open-irrational: defect model over an irrational bound given as a Surd.
    """
    if variant == VARIANT_CLOSED:
        if not isinstance(bound, GroupElement):
            raise ValueError("closed variant needs a group element")
        return build_principal_case(descriptor, p, bound)
    if variant == VARIANT_OPEN:
        if not isinstance(bound, GroupElement):
            raise ValueError("open variant needs a group element")
    elif variant == VARIANT_OPEN_IRRATIONAL:
        if not isinstance(bound, Surd) or bound.is_rational:
            raise ValueError("open-irrational variant needs an irrational Surd")
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return build_defect_model(descriptor, p, open_cut(descriptor, bound), depth)
