"""The decoding forms of the defect-model sampler and displacement check,
kept as oracles for the packed-key versions in ``sampling`` and
``defect_lab``, and the linear scan of the limit check, kept as the oracle
for its bisection.

Every term is built as a ``Fraction``, checked by ``element`` and added as
a ``Poly``; every monomial is decoded to a (``GroupElement``, exponent
tuple) pair, packed again as its own series, and compared through decoded
``GroupElement`` valuations.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from ramify.defect_lab import (
    STATUS_BELOW_ALL,
    STATUS_UNRESOLVED,
    STATUS_WITNESSED,
    DeltaBoundError,
    DeltaReport,
    LimitEntry,
    LimitReport,
)
from ramify.ordered_group import KIND_P_INVERTED, compare, element, format_point, int_scale
from ramify.sampling import _grid_base
from ramify.series_field import SeriesElement


def random_model_series(model, rng: random.Random) -> SeriesElement:
    descriptor, field = model.descriptor, model.field
    q = _grid_base(descriptor, model.p)
    n = len(field.tags)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        j = rng.randint(0, model.depth + 3)
        a = Fraction(rng.randint(-8, 8), q ** j)
        if descriptor.kind == KIND_P_INVERTED:
            gamma = element(descriptor, a)
        else:
            gamma = element(descriptor, (a, Fraction(rng.randint(-2, 2), q ** rng.randint(0, 2))))
        poly = field.ring.zero
        for _ in range(rng.randint(1, 2)):
            exps = [0] * field.ring.ngens
            for i in rng.sample(range(n), rng.randint(1, min(2, n))):
                exps[i] = rng.randint(1, 2)
            poly += field.ring.from_dict({tuple(exps): rng.randint(1, field.p - 1) if field.p > 2 else 1})
        terms[gamma] = terms.get(gamma, field.ring.zero) + poly
    return SeriesElement(field, descriptor, terms)


def verify_delta_bounds(model, samples: int = 200, rng: Optional[random.Random] = None) -> DeltaReport:
    if rng is None:
        rng = random.Random(0)
    tags = model.field.tags
    checked = 0
    fixed = 0
    for _ in range(samples):
        f = random_model_series(model, rng)
        if f.is_zero():
            continue
        least = -1
        for gamma, poly in f.terms():
            for exps, coeff in poly.terms():
                mono = SeriesElement(model.field, model.descriptor, {gamma: model.field.ring.from_dict({exps: coeff})})
                i = max((j for j in range(len(tags)) if exps[j]), default=-1)
                delta = model.sigma.apply(mono) - mono
                if i < 0:
                    if not delta.is_zero():
                        raise DeltaBoundError("sigma moved a tag-free monomial")
                    continue
                least = max(least, i)
                floor = gamma + tags[i]
                if not delta.is_zero() and compare(delta.valuation(), floor) < 0:
                    raise DeltaBoundError(
                        f"monomial at value {format_point(gamma)} moved by {format_point(delta.valuation())}, "
                        f"below the floor {format_point(floor)}"
                    )
                checked += 1
        delta_f = model.sigma.apply(f) - f
        if delta_f.is_zero():
            fixed += 1
            continue
        if least < 0:
            raise DeltaBoundError("sigma moved an element with no tagged variable")
        if compare(delta_f.valuation(), f.valuation() + tags[least]) < 0:
            raise DeltaBoundError(
                f"element with value {format_point(f.valuation())} moved by "
                f"{format_point(delta_f.valuation())}"
            )
    return DeltaReport(samples, checked, fixed)


def conductor_limit_check(model, queries) -> LimitReport:
    """Each query against every threshold p*e(i) in turn, up to the first
    one it dominates."""
    thresholds = [int_scale(model.p, e) for e in model.e_seq]
    entries = []
    ok = True
    for gamma in queries:
        member = model.conductor.contains(gamma)
        witness = None
        for i, th in enumerate(thresholds):
            if compare(gamma, th) >= 0:
                witness = i
                break
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
