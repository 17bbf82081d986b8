"""The ``Fraction`` forms of the element samplers, kept as oracles for
``ramify.sampling``, which builds each point straight from the drawn
integers.

Every coordinate is drawn as a ``Fraction`` and the point goes through
``element`` or ``hull_element``, with its coercion and membership check;
``random_positive_element`` builds every draw and keeps the first positive
one.  The ``rng`` calls are the ones ``ramify.sampling`` makes, in the same
order.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ramify.ordered_group import (
    KIND_INT_LEX,
    KIND_P_INVERTED,
    GroupDescriptor,
    element,
    hull_element,
    is_positive,
)


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
