"""Group values in the Fraction form, the oracle for ``ramify.ordered_group``.

``ramify.ordered_group`` stores every point as integer numerators over one
denominator.  This module keeps the earlier form, which ``.value`` still
reads back: an integer tuple for a point of Z^n, a Fraction over Z[1/p], a
tuple of Fractions otherwise.  Comparison, the group operations, the sign,
the image in Gamma/p*Gamma and group membership are written on those
values.  Every function takes the descriptor and plain values.
"""

from __future__ import annotations

from fractions import Fraction

from ramify.ordered_group import KIND_INT_LEX, KIND_P_INVERTED, KIND_QUADRATIC

from .cut_reference import quad_sign


def group_value(descriptor, value):
    """The group's own form of a hull value (integer coordinates for
    ``zlex``), or None when the value is not a point of the group."""
    kind = descriptor.kind
    if kind == KIND_INT_LEX:
        if any(c.denominator != 1 for c in value):
            return None
        return tuple(int(c) for c in value)
    if kind == KIND_P_INVERTED:
        den = value.denominator
        while den % descriptor.param == 0:
            den //= descriptor.param
        return value if den == 1 else None
    return value


def in_group(descriptor, value) -> bool:
    return group_value(descriptor, value) is not None


def compare(descriptor, x, y) -> int:
    if descriptor.kind == KIND_QUADRATIC:
        return quad_sign(x[0] - y[0], x[1] - y[1], descriptor.param)
    if x == y:
        return 0
    return 1 if x > y else -1


def add(descriptor, x, y):
    if descriptor.kind == KIND_P_INVERTED:
        return x + y
    return tuple(a + b for a, b in zip(x, y))


def int_scale(descriptor, n: int, x):
    if descriptor.kind == KIND_P_INVERTED:
        return n * x
    return tuple(n * a for a in x)


def divide_exact(descriptor, x, n: int, hull: bool):
    """x / n in the same space, or None when the group has no such point."""
    if descriptor.kind == KIND_P_INVERTED:
        value = x / n
    else:
        value = tuple(Fraction(a, n) for a in x)
    return value if hull else group_value(descriptor, value)


def sign(descriptor, x) -> int:
    kind = descriptor.kind
    if kind == KIND_QUADRATIC:
        return quad_sign(x[0], x[1], descriptor.param)
    if kind == KIND_P_INVERTED:
        return (x > 0) - (x < 0)
    return next(((c > 0) - (c < 0) for c in x if c), 0)


def mod_p_image(descriptor, x, p: int):
    kind = descriptor.kind
    if kind == KIND_INT_LEX:
        return [c % p for c in x]
    if kind == KIND_P_INVERTED and descriptor.param != p:
        return [x.numerator * pow(x.denominator, -1, p) % p]
    return []
