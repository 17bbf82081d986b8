"""Ordered abelian groups of finite rational rank, with exact arithmetic.

Three families cover every value group used in this package:

* ``int_lex(n)``    -- Z^n with the lexicographic order (discrete for n = 1,
  non-archimedean for n >= 2).
* ``p_inverted(p)`` -- Z[1/p], a dense subgroup of the rationals.
* ``quadratic(d)``  -- Q + Q*sqrt(d), a dense subgroup of the reals.

Elements are immutable and exact: integer tuples for ``int_lex``, Fractions
with p-power denominator for ``p_inverted``, pairs of Fractions for
``quadratic``.  No comparison ever touches floating point; the sign of
a + b*sqrt(d) is decided by comparing a^2 against d*b^2, which is
conclusive because sqrt(d) is irrational.

Each group sits inside its divisible hull (Q^n lex, Q, Q + Q*sqrt(d)).
Hull points get their own type: a ``HullElement`` never compares equal to a
``GroupElement``, so confusing the two spaces is a type error rather than a
silent coercion.  Membership of a hull point in the group is decidable
(integrality, p-power denominator, or always for the quadratic case).

Values are checked once, where they enter: ``element``, ``hull_element`` and
the ``GroupDescriptor`` constructor.  The group and its hull are closed under
``add``, ``neg`` and ``int_scale``, so those build their results unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Union

KIND_INT_LEX = "zlex"
KIND_P_INVERTED = "zp"
KIND_QUADRATIC = "quad"

# Largest value the trial-division tests below accept (at most about 46 000
# divisions); a larger group parameter or radicand is refused, not a hang.
TRIAL_DIVISION_CAP = 2 ** 31


# both tests are cached, so each distinct parameter is trial-divided once
@lru_cache(maxsize=256)
def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n > TRIAL_DIVISION_CAP:
        raise ValueError(f"{n} exceeds the supported parameter cap 2**31")
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


@lru_cache(maxsize=256)
def _is_squarefree_nonsquare(d: int) -> bool:
    if d < 2:
        return False
    if d > TRIAL_DIVISION_CAP:
        raise ValueError(f"{d} exceeds the supported parameter cap 2**31")
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


@dataclass(frozen=True)
class GroupDescriptor:
    """Names one ordered group.

    ``param`` is the rank for ``zlex``, the inverted prime for ``zp`` and
    the radicand for ``quad``.
    """

    kind: str
    param: int

    def __post_init__(self) -> None:
        if self.kind == KIND_INT_LEX:
            if self.param < 1:
                raise ValueError(f"lexicographic rank must be >= 1, got {self.param}")
        elif self.kind == KIND_P_INVERTED:
            if not _is_prime(self.param):
                raise ValueError(f"inverted denominator must be prime, got {self.param}")
        elif self.kind == KIND_QUADRATIC:
            if not _is_squarefree_nonsquare(self.param):
                raise ValueError(
                    f"radicand must be a squarefree non-square >= 2, got {self.param}"
                )
        else:
            raise ValueError(f"unknown group kind {self.kind!r}")

    @property
    def is_dense(self) -> bool:
        return self.kind != KIND_INT_LEX

    def __str__(self) -> str:
        return f"{self.kind}:{self.param}"


def int_lex(n: int) -> GroupDescriptor:
    return GroupDescriptor(KIND_INT_LEX, n)


def p_inverted(p: int) -> GroupDescriptor:
    return GroupDescriptor(KIND_P_INVERTED, p)


def quadratic(d: int) -> GroupDescriptor:
    return GroupDescriptor(KIND_QUADRATIC, d)


def quad_sign(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for integers a, b and squarefree
    non-square d (any d when b = 0)."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    sa = 1 if a > 0 else -1
    sb = 1 if b > 0 else -1
    if sa == sb:
        return sa
    lhs, rhs = a * a, b * b * d
    if lhs == rhs:  # would force sqrt(d) rational
        raise ArithmeticError(f"sqrt({d}) behaved rationally; invalid radicand")
    return sa if lhs > rhs else sb


def _quad_value_sign(a: Fraction, b: Fraction, d: int) -> int:
    """Sign of a + b*sqrt(d) for rationals, by clearing both denominators."""
    return quad_sign(a.numerator * b.denominator, b.numerator * a.denominator, d)


def _coerce_rational(raw) -> Fraction:
    if isinstance(raw, Fraction):
        return raw
    if isinstance(raw, int):
        return Fraction(raw)
    raise TypeError(f"expected an exact rational, got {type(raw).__name__}")


def _group_value(descriptor: GroupDescriptor, value):
    """The group's own form of a hull value (integer coordinates for
    ``zlex``), or None when the value is not a point of the group."""
    kind = descriptor.kind
    if kind == KIND_INT_LEX:
        if any(c.denominator != 1 for c in value):
            return None
        return tuple(int(c) for c in value)
    if kind == KIND_P_INVERTED:
        return value if _is_power_of(value.denominator, descriptor.param) else None
    return value


def _is_power_of(den: int, p: int) -> bool:
    """Whether den is p^k for some k >= 0."""
    while den % p == 0:
        den //= p
    return den == 1


def _coerce_value(descriptor: GroupDescriptor, raw, hull: bool):
    kind = descriptor.kind
    if kind == KIND_INT_LEX:
        if isinstance(raw, (int, Fraction)):
            raw = (raw,)
        value = tuple(_coerce_rational(c) for c in raw)
        if len(value) != descriptor.param:
            raise ValueError(
                f"expected {descriptor.param} coordinates, got {len(value)}"
            )
    elif kind == KIND_P_INVERTED:
        value = _coerce_rational(raw)
    else:
        if isinstance(raw, (int, Fraction)):
            raw = (raw, 0)
        a, b = raw
        value = (_coerce_rational(a), _coerce_rational(b))
    if hull:
        return value
    group_value = _group_value(descriptor, value)
    if group_value is not None:
        return group_value
    if kind == KIND_INT_LEX:
        raise ValueError(f"coordinates {value} do not lie in Z^{descriptor.param}")
    raise ValueError(f"{value} has a denominator prime to {descriptor.param}")


@dataclass(frozen=True)
class _Element:
    descriptor: GroupDescriptor
    value: Union[tuple, Fraction]

    def _check_peer(self, other: "_Element") -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot mix {type(self).__name__} with {type(other).__name__}"
            )
        if other.descriptor != self.descriptor:
            raise ValueError(
                f"group mismatch: {self.descriptor} vs {other.descriptor}"
            )

    def __lt__(self, other) -> bool:
        return compare(self, other) < 0

    def __le__(self, other) -> bool:
        return compare(self, other) <= 0

    def __gt__(self, other) -> bool:
        return compare(self, other) > 0

    def __ge__(self, other) -> bool:
        return compare(self, other) >= 0

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, neg(other))

    def __neg__(self):
        return neg(self)


class GroupElement(_Element):
    """A point of the group itself."""

    __slots__ = ()


class HullElement(_Element):
    """A point of the divisible hull (rational coordinates throughout)."""

    __slots__ = ()


def element(descriptor: GroupDescriptor, raw) -> GroupElement:
    return GroupElement(descriptor, _coerce_value(descriptor, raw, hull=False))


def hull_element(descriptor: GroupDescriptor, raw) -> HullElement:
    return HullElement(descriptor, _coerce_value(descriptor, raw, hull=True))


def zero(descriptor: GroupDescriptor, hull: bool = False):
    if descriptor.kind == KIND_INT_LEX:
        raw = (0,) * descriptor.param
    else:
        raw = 0
    return hull_element(descriptor, raw) if hull else element(descriptor, raw)


def compare(x: _Element, y: _Element) -> int:
    """Three-way comparison; requires matching type and descriptor."""
    x._check_peer(y)
    kind = x.descriptor.kind
    if kind == KIND_QUADRATIC:
        a = x.value[0] - y.value[0]
        b = x.value[1] - y.value[1]
        return _quad_value_sign(a, b, x.descriptor.param)
    if x.value == y.value:
        return 0
    return 1 if x.value > y.value else -1


def add(x: _Element, y: _Element) -> _Element:
    x._check_peer(y)
    if x.descriptor.kind == KIND_P_INVERTED:
        value = x.value + y.value
    else:
        value = tuple(a + b for a, b in zip(x.value, y.value))
    return type(x)(x.descriptor, value)


def neg(x: _Element) -> _Element:
    return int_scale(-1, x)


def int_scale(n: int, x: _Element) -> _Element:
    if not isinstance(n, int):
        raise TypeError(f"scale factor must be an integer, got {type(n).__name__}")
    if x.descriptor.kind == KIND_P_INVERTED:
        value = n * x.value
    else:
        value = tuple(n * a for a in x.value)
    return type(x)(x.descriptor, value)


def divide_exact(x: _Element, n: int):
    """x / n within the same space, or None when no such point exists.

    Hull points and quadratic group points always divide.  For ``int_lex``
    every coordinate must be divisible; for ``p_inverted`` the quotient must
    keep a p-power denominator.
    """
    if not isinstance(n, int) or n == 0:
        raise ValueError(f"divisor must be a nonzero integer, got {n!r}")
    if x.descriptor.kind == KIND_P_INVERTED:
        value = x.value / n
    else:
        value = tuple(Fraction(a, n) for a in x.value)
    if isinstance(x, HullElement):
        return HullElement(x.descriptor, value)
    value = _group_value(x.descriptor, value)
    return None if value is None else GroupElement(x.descriptor, value)


def mod_p_image(x: GroupElement, p: int) -> List[int]:
    """Coordinates of x in the F_p-vector space Gamma/p*Gamma.

    Z^n/pZ^n is F_p^n; Z[1/q]/pZ[1/q] is F_p when q != p, with a/q^m
    mapping to a * q^-m; Z[1/p] and the quadratic groups are p-divisible,
    so their quotient is zero and the image is the empty vector.
    """
    if not isinstance(x, GroupElement):
        raise ValueError(f"expected a group point, got {type(x).__name__}")
    if not _is_prime(p):
        raise ValueError(f"Gamma/p*Gamma is an F_p-space only for prime p, got {p}")
    kind = x.descriptor.kind
    if kind == KIND_INT_LEX:
        return [c % p for c in x.value]
    if kind == KIND_P_INVERTED and x.descriptor.param != p:
        return [x.value.numerator * pow(x.value.denominator, -1, p) % p]
    return []


def min_positive(descriptor: GroupDescriptor) -> Optional[GroupElement]:
    """Least positive element, or None for the dense groups."""
    if descriptor.kind != KIND_INT_LEX:
        return None
    return element(descriptor, (0,) * (descriptor.param - 1) + (1,))


def to_hull(x: GroupElement) -> HullElement:
    if not isinstance(x, GroupElement):
        raise TypeError(f"expected a GroupElement, got {type(x).__name__}")
    return hull_element(x.descriptor, x.value)


def in_group(h: HullElement) -> bool:
    """Whether a hull point lies in the group itself."""
    if not isinstance(h, HullElement):
        raise TypeError(f"expected a HullElement, got {type(h).__name__}")
    return _group_value(h.descriptor, h.value) is not None


def from_hull(h: HullElement) -> GroupElement:
    if not in_group(h):
        raise ValueError(f"{h.value} is not a group point of {h.descriptor}")
    return GroupElement(h.descriptor, _group_value(h.descriptor, h.value))


def sign(x: _Element) -> int:
    kind = x.descriptor.kind
    if kind == KIND_QUADRATIC:
        return _quad_value_sign(x.value[0], x.value[1], x.descriptor.param)
    if kind == KIND_P_INVERTED:
        return (x.value > 0) - (x.value < 0)
    # lexicographic: the first nonzero coordinate decides
    return next(((c > 0) - (c < 0) for c in x.value if c), 0)


def is_positive(x: _Element) -> bool:
    return sign(x) > 0
