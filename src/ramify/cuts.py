"""Upward-closed subsets of the positive part of an ordered group.

A nonzero ideal of a valuation ring is determined by the set of values of
its elements, which is an upward-closed subset of the positive cone.  This
module represents those sets exactly and implements the ideal calculus on
them (membership, containment, products, p-th root sets).

Every cut is encoded by a single boundary together with an inclusivity
flag.  For the rank-one dense groups the boundary is an exact real of the
form a + b*sqrt(d) (`Surd`), which accommodates bounds outside the group
and even irrational bounds.  For ``int_lex(n)`` the boundary is a rational
prefix padded with +infinity or -infinity:

* full-length inclusive bound gamma      -> { x : x >= gamma }  (principal)
* full-length exclusive bound beta       -> { x : x > beta }    (open)
* prefix c with +inf pad (``frontier``)  -> { x : (x_1..x_k) > c }
* prefix c with -inf pad                 -> { x : (x_1..x_k) >= c }

The padded shapes are the cuts with no least element that a lexicographic
order produces; the -inf pad only survives over the divisible hull (over
Z^n it collapses to a +inf pad one step lower).  Cuts are normalized on
construction, so equal sets have equal representations and the total order
by inclusion is a boundary comparison.

A cut knows whether it lives over the group or over its divisible hull
(``over_hull``); membership expects a ``GroupElement`` or ``HullElement``
accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .ordered_group import (
    KIND_INT_LEX,
    KIND_P_INVERTED,
    KIND_QUADRATIC,
    GroupDescriptor,
    GroupElement,
    HullElement,
    _Element,
    _group_value,
    _is_squarefree_nonsquare,
    element,
    hull_element,
    quad_sign,
)


@dataclass(frozen=True)
class Surd:
    """Exact real a + b*sqrt(d); canonical form has d = 0 when b = 0."""

    a: Fraction
    b: Fraction = Fraction(0)
    d: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.b == 0:
            object.__setattr__(self, "d", 0)
        elif not _is_squarefree_nonsquare(self.d):
            raise ValueError(f"radicand must be a squarefree non-square, got {self.d}")

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def sign(self) -> int:
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        return quad_sign(self.a, self.b, self.d)

    def cmp(self, other: "Surd") -> int:
        if self.d == other.d or other.b == 0:
            return Surd(self.a - other.a, self.b - other.b, self.d or other.d).sign()
        if self.b == 0:
            return -other.cmp(self)
        # sign of (a + b*sqrt(d)) - c*sqrt(d') with b, c nonzero, d != d'
        u = Surd(self.a - other.a, self.b, self.d)
        su, sw = u.sign(), (other.b > 0) - (other.b < 0)
        if su == 0:
            return -sw
        if su != sw:
            return su
        # same nonzero sign: compare squares, u^2 - w^2 is a single surd
        lead = u.a * u.a + u.b * u.b * self.d - other.b * other.b * other.d
        return su * quad_sign(lead, 2 * u.a * u.b, self.d)

    def add(self, other: "Surd") -> "Surd":
        if self.d == other.d or other.b == 0:
            return Surd(self.a + other.a, self.b + other.b, self.d or other.d)
        if self.b == 0:
            return other.add(self)
        raise ValueError(f"cannot add surds over sqrt({self.d}) and sqrt({other.d})")

    def scale(self, n: int) -> "Surd":
        return Surd(self.a * n, self.b * n, self.d)

    def divide(self, n: int) -> "Surd":
        return Surd(self.a / n, self.b / n, self.d)


@dataclass(frozen=True)
class _ScalarBound:
    value: Surd
    inclusive: bool


@dataclass(frozen=True)
class _VecBound:
    prefix: Tuple[Fraction, ...]
    pad: int  # +1, -1, or 0 for a full-length bound
    inclusive: bool


_Bound = Union[_ScalarBound, _VecBound]


def _element_to_surd(x: _Element) -> Surd:
    kind = x.descriptor.kind
    if kind == KIND_P_INVERTED:
        return Surd(x.value)
    if kind == KIND_QUADRATIC:
        return Surd(x.value[0], x.value[1], x.descriptor.param)
    raise TypeError("lexicographic elements have vector bounds")


def _surd_in_space(value: Surd, descriptor: GroupDescriptor, over_hull: bool) -> bool:
    if descriptor.kind == KIND_QUADRATIC:
        return value.is_rational or value.d == descriptor.param
    return value.is_rational and (over_hull or _group_value(descriptor, value.a) is not None)


def _surd_to_element(value: Surd, descriptor: GroupDescriptor, over_hull: bool) -> _Element:
    if descriptor.kind == KIND_QUADRATIC:
        raw = (value.a, value.b)
    else:
        raw = value.a
    return hull_element(descriptor, raw) if over_hull else element(descriptor, raw)


def _normalize_scalar(descriptor: GroupDescriptor, over_hull: bool, bound: _ScalarBound) -> _ScalarBound:
    if bound.inclusive and not _surd_in_space(bound.value, descriptor, over_hull):
        bound = _ScalarBound(bound.value, False)
    ok = bound.value.sign() > 0 or (bound.value.sign() == 0)
    if not ok:
        raise ValueError("cut boundary must be >= 0")
    return bound


def _lex_cmp_prefix(xs, ys) -> int:
    for a, b in zip(xs, ys):
        if a != b:
            return 1 if a > b else -1
    return 0


def _normalize_vec(descriptor: GroupDescriptor, over_hull: bool, bound: _VecBound) -> _VecBound:
    n = descriptor.param
    prefix = tuple(Fraction(c) for c in bound.prefix)
    pad, inclusive = bound.pad, bound.inclusive
    if not 1 <= len(prefix) <= n:
        raise ValueError(f"bound length {len(prefix)} out of range for rank {n}")
    if len(prefix) == n:
        pad = 0
    elif pad == 0:
        raise ValueError("short bounds need a pad direction")

    if pad == 1:
        inclusive = False
    elif pad == -1:
        inclusive = True

    if not over_hull:
        if pad == -1:
            # over Z^n either drop to the grid point below or strictness is free
            if all(c.denominator == 1 for c in prefix):
                prefix = prefix[:-1] + (prefix[-1] - 1,)
            pad, inclusive = 1, False
        if pad == 0 and inclusive and any(c.denominator != 1 for c in prefix):
            inclusive = False
        if pad == 0 and not inclusive or pad == 1:
            # exclusive over the integers: cut at the first fractional entry,
            # floor it, then a full-length integral bound gains its successor
            idx = next((i for i, c in enumerate(prefix) if c.denominator != 1), None)
            if idx is not None:
                prefix = prefix[: idx + 1]
                prefix = prefix[:-1] + (Fraction(prefix[-1].numerator // prefix[-1].denominator),)
            if len(prefix) == n:
                prefix = prefix[:-1] + (prefix[-1] + 1,)
                pad, inclusive = 0, True
            else:
                pad, inclusive = 1, False

    k = len(prefix)
    zeros = (Fraction(0),) * k
    rel = _lex_cmp_prefix(prefix, zeros)
    if rel < 0 or (rel == 0 and pad == -1):
        raise ValueError("cut boundary must be >= 0")
    return _VecBound(prefix, pad, inclusive)


@dataclass(frozen=True)
class Cut:
    descriptor: GroupDescriptor
    over_hull: bool
    bound: _Bound

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _scalar(descriptor, over_hull, value, inclusive) -> "Cut":
        return Cut(descriptor, over_hull, _normalize_scalar(descriptor, over_hull, _ScalarBound(value, inclusive)))

    @staticmethod
    def _vector(descriptor, over_hull, prefix, pad, inclusive) -> "Cut":
        return Cut(descriptor, over_hull, _normalize_vec(descriptor, over_hull, _VecBound(tuple(prefix), pad, inclusive)))

    # -- shape -------------------------------------------------------------

    @property
    def kind(self) -> str:
        b = self.bound
        if isinstance(b, _ScalarBound):
            if b.inclusive:
                return "whole" if b.value.sign() == 0 else "principal"
            return "open"
        if b.pad == 1:
            return "frontier"
        if b.pad == -1:
            return "frontier_ge"
        if b.inclusive:
            return "whole" if all(c == 0 for c in b.prefix) else "principal"
        return "open"

    @property
    def is_whole(self) -> bool:
        return self.kind == "whole"

    def min_element(self) -> Optional[_Element]:
        """The least value in the cut, when one exists."""
        b = self.bound
        if isinstance(b, _ScalarBound):
            if not b.inclusive:
                return None
            return _surd_to_element(b.value, self.descriptor, self.over_hull)
        if b.pad != 0 or not b.inclusive:
            return None
        raw = b.prefix
        return hull_element(self.descriptor, raw) if self.over_hull else element(self.descriptor, raw)

    # -- membership and order ----------------------------------------------

    def _check_point(self, x: _Element) -> None:
        want = HullElement if self.over_hull else GroupElement
        if not isinstance(x, want):
            raise TypeError(f"cut over {'hull of ' if self.over_hull else ''}{self.descriptor} expects {want.__name__}, got {type(x).__name__}")
        if x.descriptor != self.descriptor:
            raise ValueError(f"group mismatch: {self.descriptor} vs {x.descriptor}")

    def contains(self, x: _Element) -> bool:
        self._check_point(x)
        b = self.bound
        if isinstance(b, _ScalarBound):
            rel = _element_to_surd(x).cmp(b.value)
            return rel > 0 or (rel == 0 and b.inclusive)
        coords = tuple(Fraction(c) for c in x.value)
        rel = _lex_cmp_prefix(coords, b.prefix)
        if rel != 0:
            return rel > 0
        if b.pad == 1:
            return False
        if b.pad == -1:
            return True
        return b.inclusive

    def _bound_cmp(self, other: "Cut") -> int:
        """Order of the boundaries themselves, -inf pads counting low."""
        b1, b2 = self.bound, other.bound
        if isinstance(b1, _ScalarBound):
            return b1.value.cmp(b2.value)
        rel = _lex_cmp_prefix(b1.prefix, b2.prefix)
        if rel != 0:
            return rel
        k1, k2 = len(b1.prefix), len(b2.prefix)
        if k1 == k2:
            return (b1.pad > b2.pad) - (b1.pad < b2.pad)
        short, long_, flip = (b1, b2, 1) if k1 < k2 else (b2, b1, -1)
        # the shorter bound continues with its pad against real entries
        return flip * short.pad

    def _check_peer(self, other: "Cut") -> None:
        if not isinstance(other, Cut):
            raise TypeError(f"expected a Cut, got {type(other).__name__}")
        if other.descriptor != self.descriptor or other.over_hull != self.over_hull:
            raise ValueError("cuts live over different spaces")

    def subset(self, other: "Cut") -> bool:
        self._check_peer(other)
        rel = self._bound_cmp(other)
        if rel != 0:
            return rel > 0
        if self.bound == other.bound:
            return True
        # same boundary, different inclusivity: the exclusive cut is smaller
        return not self.bound.inclusive or other.bound.inclusive

    # -- ideal calculus ------------------------------------------------------

    def multiply(self, other: "Cut") -> "Cut":
        self._check_peer(other)
        b1, b2 = self.bound, other.bound
        if isinstance(b1, _ScalarBound):
            return Cut._scalar(
                self.descriptor,
                self.over_hull,
                b1.value.add(b2.value),
                b1.inclusive and b2.inclusive,
            )
        n = self.descriptor.param
        s1 = len(b1.prefix) if b1.pad else n
        s2 = len(b2.prefix) if b2.pad else n
        m = min(s1, s2)
        prefix = tuple(a + b for a, b in zip(b1.prefix[:m], b2.prefix[:m]))
        if m == n:
            return Cut._vector(self.descriptor, self.over_hull, prefix, 0, b1.inclusive and b2.inclusive)
        if s1 == s2:
            pad = -1 if (b1.pad == -1 and b2.pad == -1) else 1
        else:
            pad = b1.pad if s1 < s2 else b2.pad
        return Cut._vector(self.descriptor, self.over_hull, prefix, pad, pad == -1)

    def __mul__(self, other: "Cut") -> "Cut":
        return self.multiply(other)

    def power(self, n: int) -> "Cut":
        if n < 1:
            raise ValueError("ideal powers need n >= 1")
        out = self
        for _ in range(n - 1):
            out = out.multiply(self)
        return out

    def pth_root_set(self, p: int) -> "Cut":
        """The cut { x : p*x in self }, boundary divided by p."""
        if p < 2:
            raise ValueError("need p >= 2")
        b = self.bound
        if isinstance(b, _ScalarBound):
            return Cut._scalar(self.descriptor, self.over_hull, b.value.divide(p), b.inclusive)
        prefix = tuple(c / p for c in b.prefix)
        return Cut._vector(self.descriptor, self.over_hull, prefix, b.pad, b.inclusive)

    def is_realizable_conductor(self, p: int) -> bool:
        """Whether the cut can occur as the conductor ideal of a degree-p
        extension: it has a least element, or every member dominates a
        p-divisible member.  Dense groups always pass; lexicographic
        frontier cuts pass exactly when the successor prefix is divisible
        by p in every coordinate.
        """
        if self.is_whole:
            raise ValueError("the unit ideal is not a conductor cut")
        if self.over_hull:
            raise ValueError("conductor cuts live over the group, not the hull")
        if self.min_element() is not None:
            return True
        if self.descriptor.kind != KIND_INT_LEX:
            return True
        b = self.bound
        succ = b.prefix[:-1] + (b.prefix[-1] + 1,)
        return all(c % p == 0 for c in succ)

    # -- hull passage --------------------------------------------------------

    def restrict_to_group(self) -> "Cut":
        """Intersection with the group, as a cut over the group."""
        if not self.over_hull:
            raise ValueError("already a group cut")
        b = self.bound
        if isinstance(b, _ScalarBound):
            return Cut._scalar(self.descriptor, False, b.value, b.inclusive)
        return Cut._vector(self.descriptor, False, b.prefix, b.pad, b.inclusive)

    def hull_closure(self) -> "Cut":
        """Upward closure inside the divisible hull; the least ideal of the
        big ring whose trace on the group contains this cut."""
        if self.over_hull:
            raise ValueError("already a hull cut")
        b = self.bound
        if isinstance(b, _ScalarBound):
            return Cut._scalar(self.descriptor, True, b.value, b.inclusive)
        if b.pad == 0:
            return Cut._vector(self.descriptor, True, b.prefix, 0, b.inclusive)
        # {x : trunc > c} over Z^n closes up to {h : trunc >= c + e_k} over Q^n
        succ = b.prefix[:-1] + (b.prefix[-1] + 1,)
        return Cut._vector(self.descriptor, True, succ, -1, True)


# -- public constructors -----------------------------------------------------


def whole_cut(descriptor: GroupDescriptor, over_hull: bool = False) -> Cut:
    if descriptor.kind == KIND_INT_LEX:
        return Cut._vector(descriptor, over_hull, (Fraction(0),) * descriptor.param, 0, True)
    return Cut._scalar(descriptor, over_hull, Surd(Fraction(0)), True)


def principal_cut(gamma: _Element) -> Cut:
    """The cut { x : x >= gamma }; gamma fixes group-vs-hull."""
    over_hull = isinstance(gamma, HullElement)
    if gamma.descriptor.kind == KIND_INT_LEX:
        return Cut._vector(gamma.descriptor, over_hull, tuple(Fraction(c) for c in gamma.value), 0, True)
    return Cut._scalar(gamma.descriptor, over_hull, _element_to_surd(gamma), True)


def open_cut(descriptor: GroupDescriptor, bound, over_hull: bool = False) -> Cut:
    """The cut { x : x > bound }.  The bound may be an element of the same
    space, a Surd (dense groups, possibly irrational), or a coordinate
    tuple for ``int_lex``."""
    if isinstance(bound, _Element):
        if bound.descriptor != descriptor:
            raise ValueError(f"group mismatch: {descriptor} vs {bound.descriptor}")
        if descriptor.kind == KIND_INT_LEX:
            return Cut._vector(descriptor, over_hull, tuple(Fraction(c) for c in bound.value), 0, False)
        return Cut._scalar(descriptor, over_hull, _element_to_surd(bound), False)
    if isinstance(bound, Surd):
        if descriptor.kind == KIND_INT_LEX:
            raise TypeError("lexicographic cuts take coordinate bounds")
        return Cut._scalar(descriptor, over_hull, bound, False)
    if descriptor.kind == KIND_INT_LEX:
        return Cut._vector(descriptor, over_hull, tuple(Fraction(c) for c in bound), 0, False)
    return Cut._scalar(descriptor, over_hull, Surd(Fraction(bound)), False)


def frontier_cut(descriptor: GroupDescriptor, prefix, over_hull: bool = False, inclusive: bool = False) -> Cut:
    """Lexicographic truncation cut { x : (x_1..x_k) > prefix } (or >= with
    inclusive=True, which only survives over the hull)."""
    if descriptor.kind != KIND_INT_LEX:
        raise TypeError("frontier cuts only exist over lexicographic groups")
    prefix = tuple(Fraction(c) for c in prefix)
    pad = -1 if inclusive else 1
    if len(prefix) == descriptor.param:
        pad = 0
    return Cut._vector(descriptor, over_hull, prefix, pad, inclusive)
