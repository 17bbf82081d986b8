"""Seeded random generators for elements, cuts, and model series.

Verification subcommands and the bulk property tests draw from here so
that a fixed seed reproduces a run exactly.  Samplers take an explicit
``random.Random`` and never touch global state.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .cuts import Cut, Surd, frontier_cut, open_cut, principal_cut, whole_cut
from .ordered_group import (
    GroupDescriptor,
    KIND_INT_LEX,
    KIND_P_INVERTED,
    _point,
    element,
    hull_element,
    is_positive,
)
from .series_field import Poly, SeriesElement, _merge


def random_fraction(rng: random.Random, den_base: int, span: int = 12, max_pow: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), den_base ** rng.randint(0, max_pow))


def random_element(
    rng: random.Random, descriptor: GroupDescriptor, hull: bool = False, span: int = 12
):
    if descriptor.kind == KIND_INT_LEX:
        if hull:
            raw = tuple(Fraction(rng.randint(-span, span), rng.randint(1, 6)) for _ in range(descriptor.param))
            return hull_element(descriptor, raw)
        raw = tuple(rng.randint(-span, span) for _ in range(descriptor.param))
        return element(descriptor, raw)
    if descriptor.kind == KIND_P_INVERTED:
        if hull:
            return hull_element(descriptor, Fraction(rng.randint(-span, span), rng.randint(1, 9)))
        return element(descriptor, random_fraction(rng, descriptor.param, span))
    raw = (random_fraction(rng, 2, span, 2), random_fraction(rng, 3, 3, 1))
    return hull_element(descriptor, raw) if hull else element(descriptor, raw)


def random_positive_element(
    rng: random.Random, descriptor: GroupDescriptor, hull: bool = False, span: int = 12
):
    for _ in range(200):
        x = random_element(rng, descriptor, hull, span)
        if is_positive(x):
            return x
    raise RuntimeError("sampler failed to find a positive element")


def random_irrational_bound(rng: random.Random, descriptor: GroupDescriptor) -> Optional[Surd]:
    """A positive irrational Surd usable as a cut bound over Z[1/q], or None
    over every other group (lex products and Q + Q*sqrt(d))."""
    if descriptor.kind != KIND_P_INVERTED:
        return None
    a = Fraction(rng.randint(0, 6), rng.randint(1, 4))
    b = Fraction(rng.randint(1, 5), rng.randint(1, 4))
    return Surd(a, b, 2)


def random_group_cut(
    rng: random.Random, descriptor: GroupDescriptor, allow_whole: bool = True
) -> Cut:
    """A cut over the group itself, covering every kind the group admits."""
    roll = rng.random()
    if allow_whole and roll < 0.08:
        return whole_cut(descriptor)
    if descriptor.kind == KIND_INT_LEX:
        n = descriptor.param
        if n > 1 and roll < 0.45:
            k = rng.randint(1, n - 1)
            prefix = [rng.randint(0, 4)] + [rng.randint(-4, 4) for _ in range(k - 1)]
            if prefix[0] == 0:
                prefix = [prefix[0]] + [abs(c) for c in prefix[1:]]
            return frontier_cut(descriptor, tuple(prefix))
        return principal_cut(random_positive_element(rng, descriptor))
    if roll < 0.5:
        return principal_cut(random_positive_element(rng, descriptor))
    if descriptor.kind == KIND_P_INVERTED and roll > 0.9:
        s = random_irrational_bound(rng, descriptor)
        if s is not None:
            return open_cut(descriptor, s)
    return open_cut(descriptor, random_positive_element(rng, descriptor))


def random_hull_ideal(rng: random.Random, descriptor: GroupDescriptor) -> Cut:
    """A proper nonzero ideal of the hull's valuation ring, as a cut."""
    roll = rng.random()
    if descriptor.kind == KIND_INT_LEX and descriptor.param > 1 and roll < 0.3:
        n = descriptor.param
        k = rng.randint(1, n - 1)
        prefix = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
        prefix[0] = abs(prefix[0]) + 1
        return frontier_cut(descriptor, tuple(prefix), over_hull=True)
    g = random_positive_element(rng, descriptor, hull=True)
    if roll < 0.6:
        return principal_cut(g)
    return open_cut(descriptor, g, over_hull=True)


def _grid_base(descriptor: GroupDescriptor, p: int) -> int:
    """The base q of a defect model's grid levels (1/q^j) * Z: the prime that
    Z[1/q] inverts, else p."""
    if descriptor.kind == KIND_P_INVERTED:
        return descriptor.param
    return p


def random_model_series(model, rng: random.Random) -> SeriesElement:
    """A random element of a ``defect_lab.DefectModel``'s ring: one to three
    terms at grid values n / q^j with j <= depth + 3, each coefficient a sum
    of one or two monomials in one or two tagged variables.

    Points are built from the drawn integers and coefficients summed mod p
    in plain dicts, so the one ``SeriesElement`` at the end is the only
    place a term is checked and packed.  q is the group's own prime over
    Z[1/q], and any denominator lies in Q + Q*sqrt(d), so every point is
    in the group."""
    descriptor, field = model.descriptor, model.field
    q = _grid_base(descriptor, model.p)
    p, n, ngens = field.p, len(field.tags), field.ngens
    rank_one = descriptor.kind == KIND_P_INVERTED
    terms = {}
    for _ in range(rng.randint(1, 3)):
        j = rng.randint(0, model.depth + 3)
        a = rng.randint(-8, 8)
        if rank_one:
            gamma = _point(descriptor, (a,), q ** j)
        else:
            b = rng.randint(-2, 2)
            qa, qb = q ** j, q ** rng.randint(0, 2)
            gamma = _point(descriptor, (a * qb, b * qa), qa * qb)
        poly = {}
        for _ in range(rng.randint(1, 2)):
            exps = [0] * ngens
            for i in rng.sample(range(n), rng.randint(1, min(2, n))):
                exps[i] = rng.randint(1, 2)
            _merge(poly, ((tuple(exps), rng.randint(1, p - 1) if p > 2 else 1),), p)
        _merge(terms.setdefault(gamma, {}), poly.items(), p)
    return SeriesElement(field, descriptor, {gamma: Poly(field, c) for gamma, c in terms.items()})
