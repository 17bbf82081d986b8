"""Seeded random generators for elements, cuts, and model series.

Verification subcommands and the bulk property tests draw from here so
that a fixed seed reproduces a run exactly.  Samplers take an explicit
``random.Random`` and never touch global state.

Points are built once, from the drawn integers, with
``ordered_group._point``, which brings them to lowest terms and checks
nothing: every draw lies in its space by construction, since its
denominator is a power of q over Z[1/q], 1 over Z^n, and anything over
Q + Q*sqrt(d) and in the hull.  ``random_positive_element`` reads the sign
off the integers with ``ordered_group._sign_of``, the rule ``sign`` uses,
and builds only the draw it keeps.  Two samplers still pass rationals to a
cut constructor: ``random_hull_ideal`` hands its fractional frontier
prefixes to ``frontier_cut`` and ``random_irrational_bound`` its parts to
``Surd``, because a cut bound is not a point and each constructor takes
one input form.

No value is a float.  The cut samplers roll ``_roll``, the integer
rng.random() * 2**53 drawn from the same two 32-bit words, against the
integers their float thresholds stood for, so every draw is the one the
float roll made.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Optional

from .cuts import Cut, Surd, frontier_cut, open_cut, principal_cut, whole_cut
from .ordered_group import GroupDescriptor, _point, _sign_of
from .series_field import Poly, SeriesElement, _merge


def _draw(rng: random.Random, descriptor: GroupDescriptor, hull: bool, span: int):
    """The integers of one draw, as numerators over one positive
    denominator, not yet in lowest terms."""
    randint = rng.randint
    if not descriptor.is_dense:
        if not hull:
            return tuple(randint(-span, span) for _ in range(descriptor.width)), 1
        pairs = [(randint(-span, span), randint(1, 6)) for _ in range(descriptor.width)]
        den = lcm(*(m for _, m in pairs))
        return tuple(n * (den // m) for n, m in pairs), den
    if descriptor.prime:
        n = randint(-span, span)
        return (n,), (randint(1, 9) if hull else descriptor.prime ** randint(0, 4))
    # a = n / 2^i and b = m / 3^j, over the common denominator 2^i * 3^j
    n = randint(-span, span)
    qa = 2 ** randint(0, 2)
    m = randint(-3, 3)
    qb = 3 ** randint(0, 1)
    return (n * qb, m * qa), qa * qb


def random_positive_element(
    rng: random.Random, descriptor: GroupDescriptor, hull: bool = False, span: int = 12
):
    for _ in range(200):
        nums, den = _draw(rng, descriptor, hull, span)
        if _sign_of(descriptor, nums) > 0:
            return _point(descriptor, nums, den, hull)
    raise RuntimeError("sampler failed to find a positive element")


# rng.random() < c reads x < ceil(c * 2**53) for the float c, and
# rng.random() > 0.9 reads x > floor(0.9 * 2**53); the float values, not the
# exact decimals, which differ at 0.6 and 0.9
_BELOW_008 = 720575940379280
_BELOW_030 = 2702159776422298
_BELOW_045 = 4053239664633447
_BELOW_050 = 2 ** 52
_BELOW_060 = 5404319552844595
_ABOVE_090 = 8106479329266893


def _roll(rng: random.Random) -> int:
    """rng.random() * 2**53, an integer in [0, 2**53), from the two 32-bit
    words that rng.random() consumes: (w1 >> 5) * 2**26 + (w2 >> 6)."""
    return (rng.getrandbits(32) >> 5) * 67108864 + (rng.getrandbits(32) >> 6)


def random_irrational_bound(rng: random.Random, descriptor: GroupDescriptor) -> Optional[Surd]:
    """A positive irrational Surd usable as a cut bound over Z[1/q], or None
    over every other group (lex products and Q + Q*sqrt(d))."""
    if not descriptor.prime:
        return None
    a = Fraction(rng.randint(0, 6), rng.randint(1, 4))
    b = Fraction(rng.randint(1, 5), rng.randint(1, 4))
    return Surd(a, b, 2)


def random_group_cut(
    rng: random.Random, descriptor: GroupDescriptor, allow_whole: bool = True
) -> Cut:
    """A cut over the group itself, covering every kind the group admits."""
    roll = _roll(rng)
    if allow_whole and roll < _BELOW_008:
        return whole_cut(descriptor)
    lex, n = not descriptor.is_dense, descriptor.width
    if lex and n > 1 and roll < _BELOW_045:
        k = rng.randint(1, n - 1)
        prefix = [rng.randint(0, 4)] + [rng.randint(-4, 4) for _ in range(k - 1)]
        if prefix[0] == 0:
            prefix = [prefix[0]] + [abs(c) for c in prefix[1:]]
        return frontier_cut(descriptor, tuple(prefix))
    if lex or roll < _BELOW_050:
        return principal_cut(random_positive_element(rng, descriptor))
    if descriptor.prime and roll > _ABOVE_090:
        return open_cut(descriptor, random_irrational_bound(rng, descriptor))
    return open_cut(descriptor, random_positive_element(rng, descriptor))


def random_hull_ideal(rng: random.Random, descriptor: GroupDescriptor) -> Cut:
    """A proper nonzero ideal of the hull's valuation ring, as a cut."""
    roll = _roll(rng)
    n = descriptor.width
    if not descriptor.is_dense and n > 1 and roll < _BELOW_030:
        k = rng.randint(1, n - 1)
        prefix = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
        prefix[0] = abs(prefix[0]) + 1
        return frontier_cut(descriptor, tuple(prefix), over_hull=True)
    g = random_positive_element(rng, descriptor, hull=True)
    if roll < _BELOW_060:
        return principal_cut(g)
    return open_cut(descriptor, g, over_hull=True)


def _grid_base(descriptor: GroupDescriptor, p: int) -> int:
    """The base q of a defect model's grid levels (1/q^j) * Z: the prime that
    Z[1/q] inverts, else p."""
    return descriptor.prime or p


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
    rank_one = descriptor.width == 1
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
