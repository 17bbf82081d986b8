"""The ``Fraction`` forms of the element samplers, kept as oracles for
``ramify.sampling``, which builds each point straight from the drawn
integers.

Every coordinate is drawn as a ``Fraction`` and the point goes through
``element`` or ``hull_element``, with its coercion and membership check;
``random_positive_element`` builds every draw and keeps the first positive
one.  The ``rng`` calls are the ones ``ramify.sampling`` makes, in the same
order.

``random_group_cut`` and ``random_hull_ideal`` are the cut samplers with
their float branch rolls: one ``rng.random()`` against the float
thresholds, where ``ramify.sampling`` rolls an integer.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ramify.cuts import Cut, frontier_cut, open_cut, principal_cut, whole_cut
from ramify.ordered_group import (
    KIND_INT_LEX,
    KIND_P_INVERTED,
    GroupDescriptor,
    element,
    hull_element,
    is_positive,
)
from ramify.sampling import random_irrational_bound
from ramify.sampling import random_positive_element as _positive_point


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


def random_group_cut(rng: random.Random, descriptor: GroupDescriptor, allow_whole: bool = True) -> Cut:
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
        return principal_cut(_positive_point(rng, descriptor))
    if roll < 0.5:
        return principal_cut(_positive_point(rng, descriptor))
    if descriptor.kind == KIND_P_INVERTED and roll > 0.9:
        s = random_irrational_bound(rng, descriptor)
        if s is not None:
            return open_cut(descriptor, s)
    return open_cut(descriptor, _positive_point(rng, descriptor))


def random_hull_ideal(rng: random.Random, descriptor: GroupDescriptor) -> Cut:
    roll = rng.random()
    if descriptor.kind == KIND_INT_LEX and descriptor.param > 1 and roll < 0.3:
        n = descriptor.param
        k = rng.randint(1, n - 1)
        prefix = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
        prefix[0] = abs(prefix[0]) + 1
        return frontier_cut(descriptor, tuple(prefix), over_hull=True)
    g = _positive_point(rng, descriptor, hull=True)
    if roll < 0.6:
        return principal_cut(g)
    return open_cut(descriptor, g, over_hull=True)
