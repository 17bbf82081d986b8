"""Upward-closed subsets of the positive part of an ordered group.

A nonzero ideal of a valuation ring is determined by the set of values of
its elements, which is an upward-closed subset of the positive cone.  This
module represents those sets exactly and implements the ideal calculus on
them (membership, containment, products, p-th root sets).

Every cut is encoded by a single boundary together with an inclusivity
flag.  Every boundary is stored as integers over one positive denominator,
in lowest terms, the form ``ordered_group`` stores points in, so
comparisons, products and membership tests are integer arithmetic.  For
the rank-one dense groups the boundary is an exact real
(A + B*sqrt(d)) / den (`Surd`), which accommodates bounds outside the
group and even irrational bounds.  For ``int_lex(n)`` the boundary is a
rational prefix (n_1..n_k) / den padded with +infinity or -infinity:

* full-length inclusive bound gamma      -> { x : x >= gamma }  (principal)
* full-length exclusive bound beta       -> { x : x > beta }    (open)
* prefix c with +inf pad (``frontier``)  -> { x : (x_1..x_k) > c }
* prefix c with -inf pad                 -> { x : (x_1..x_k) >= c }

The padded shapes are the cuts with no least element that a lexicographic
order produces; the -inf pad only survives over the divisible hull (over
Z^n it collapses to a +inf pad one step lower).  Over the group itself a
lexicographic prefix is integral, so its denominator is 1.  Cuts are
normalized on construction, so equal sets have equal representations and
the total order by inclusion is a boundary comparison.

A cut knows whether it lives over the group or over its divisible hull
(``over_hull``); membership expects a ``GroupElement`` or ``HullElement``
accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Optional, Tuple, Union

from .ordered_group import (
    KIND_INT_LEX,
    KIND_QUADRATIC,
    GroupDescriptor,
    GroupElement,
    HullElement,
    _Element,
    _den_in_group,
    _is_squarefree_nonsquare,
    _over_one_den,
    _point,
    quad_sign,
)


class Surd:
    """Exact real (A + B*sqrt(d)) / den.

    The canonical form has den > 0, gcd(A, B, den) = 1 and d = 0 when
    B = 0, so equal reals are equal objects.  ``a`` and ``b`` read the
    rational parts as Fractions.  Immutable.
    """

    __slots__ = ("A", "B", "den", "d")

    def __init__(self, a, b=0, d=0) -> None:
        if not isinstance(d, int):
            raise TypeError(f"radicand must be an integer, got {type(d).__name__}")
        (A, B), den = _over_one_den((a, b))
        if B and not _is_squarefree_nonsquare(d):
            raise ValueError(f"radicand must be a squarefree non-square, got {d}")
        _fill(self, A, B, den, d)

    def __setattr__(self, name, value) -> None:
        raise AttributeError("Surd is immutable")

    def __delattr__(self, name) -> None:
        raise AttributeError("Surd is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Surd):
            return NotImplemented
        return self.A == other.A and self.B == other.B and self.den == other.den and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.A, self.B, self.den, self.d))

    def __repr__(self) -> str:
        return f"Surd(a={self.a!r}, b={self.b!r}, d={self.d!r})"

    def __reduce__(self):
        return Surd, (self.a, self.b, self.d)

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.den)

    @property
    def is_rational(self) -> bool:
        return not self.B

    def sign(self) -> int:
        return quad_sign(self.A, self.B, self.d)

    def cmp(self, other: "Surd") -> int:
        D1, D2 = self.den, other.den
        a = self.A * D2 - other.A * D1
        if self.d == other.d or not self.B or not other.B:
            return quad_sign(a, self.B * D2 - other.B * D1, self.d or other.d)
        # times D1*D2 > 0: the sign of u - w with u = a + b*sqrt(d) and
        # w = c*sqrt(d'), where b, c are nonzero and d != d'
        b, c = self.B * D2, other.B * D1
        su, sw = quad_sign(a, b, self.d), (c > 0) - (c < 0)
        if su != sw:
            return su
        # same sign: compare squares, u^2 - w^2 is a single surd
        return su * quad_sign(a * a + b * b * self.d - c * c * other.d, 2 * a * b, self.d)

    def add(self, other: "Surd") -> "Surd":
        if self.d == other.d or not self.B or not other.B:
            D1, D2 = self.den, other.den
            return _surd(self.A * D2 + other.A * D1, self.B * D2 + other.B * D1, D1 * D2, self.d or other.d)
        raise ValueError(f"cannot add surds over sqrt({self.d}) and sqrt({other.d})")

    def scale(self, n: int) -> "Surd":
        return _surd(self.A * n, self.B * n, self.den, self.d)

    def divide(self, n: int) -> "Surd":
        if n == 0:
            raise ZeroDivisionError("Surd divided by zero")
        return _surd(self.A, self.B, self.den * n, self.d)


_set = object.__setattr__


def _fill(s: Surd, A: int, B: int, den: int, d: int) -> None:
    """Store (A + B*sqrt(d)) / den in s, in lowest terms; den != 0."""
    if den < 0:
        A, B, den = -A, -B, -den
    g = gcd(A, B, den)
    if g != 1:
        A, B, den = A // g, B // g, den // g
    _set(s, "A", A)
    _set(s, "B", B)
    _set(s, "den", den)
    _set(s, "d", d if B else 0)


def _surd(A: int, B: int, den: int, d: int) -> Surd:
    s = object.__new__(Surd)
    _fill(s, A, B, den, d)
    return s


class _ScalarBound(NamedTuple):
    value: Surd
    inclusive: bool


class _VecBound(NamedTuple):
    nums: Tuple[int, ...]  # the prefix is nums / den
    den: int  # positive; 1 for every cut over the group
    pad: int  # +1, -1, or 0 for a full-length bound
    inclusive: bool

    @property
    def prefix(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)


_Bound = Union[_ScalarBound, _VecBound]


def _element_to_surd(x: _Element) -> Surd:
    kind = x.descriptor.kind
    if kind == KIND_INT_LEX:
        raise TypeError("lexicographic elements have vector bounds")
    return _surd(x.nums[0], x.nums[1] if kind == KIND_QUADRATIC else 0, x.den, x.descriptor.param)


def _surd_in_space(value: Surd, descriptor: GroupDescriptor, over_hull: bool) -> bool:
    if value.B and (descriptor.kind != KIND_QUADRATIC or value.d != descriptor.param):
        return False
    return over_hull or _den_in_group(descriptor, value.den)


def _normalize_scalar(descriptor: GroupDescriptor, over_hull: bool, value: Surd, inclusive: bool) -> _ScalarBound:
    if value.sign() < 0:
        raise ValueError("cut boundary must be >= 0")
    if inclusive and not _surd_in_space(value, descriptor, over_hull):
        inclusive = False
    return _ScalarBound(value, inclusive)


def _lex_cmp_prefix(xs, xden: int, ys, yden: int) -> int:
    """Lexicographic order of xs / xden against ys / yden on their common
    length; both denominators are positive."""
    m = min(len(xs), len(ys))
    xs, ys = xs[:m], ys[:m]
    if xden != yden:
        xs = tuple(c * yden for c in xs)
        ys = tuple(c * xden for c in ys)
    return (xs > ys) - (xs < ys)


def _normalize_vec(descriptor: GroupDescriptor, over_hull: bool, nums, den: int, pad: int, inclusive: bool) -> _VecBound:
    n = descriptor.param
    if not 1 <= len(nums) <= n:
        raise ValueError(f"bound length {len(nums)} out of range for rank {n}")
    if len(nums) == n:
        pad = 0
    elif pad == 0:
        raise ValueError("short bounds need a pad direction")

    if pad == 1:
        inclusive = False
    elif pad == -1:
        inclusive = True

    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums, den = tuple(c // g for c in nums), den // g

    if not over_hull:
        if pad == -1:
            # over Z^n either drop to the grid point below or strictness is free
            if den == 1:
                nums = nums[:-1] + (nums[-1] - 1,)
            pad, inclusive = 1, False
        if pad == 0 and inclusive and den != 1:
            inclusive = False
        if pad == 0 and not inclusive or pad == 1:
            # exclusive over the integers: cut at the first fractional entry,
            # floor it, then a full-length integral bound gains its successor
            if den != 1:
                idx = next(i for i, c in enumerate(nums) if c % den)
                nums, den = tuple(c // den for c in nums[: idx + 1]), 1
            if len(nums) == n:
                nums = nums[:-1] + (nums[-1] + 1,)
                pad, inclusive = 0, True
            else:
                pad, inclusive = 1, False

    lead = next((c for c in nums if c), 0)
    if lead < 0 or (lead == 0 and pad == -1):
        raise ValueError("cut boundary must be >= 0")
    return _VecBound(tuple(nums), den, pad, inclusive)


@dataclass(frozen=True, slots=True)
class Cut:
    descriptor: GroupDescriptor
    over_hull: bool
    bound: _Bound

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _scalar(descriptor, over_hull, value, inclusive) -> "Cut":
        return Cut(descriptor, over_hull, _normalize_scalar(descriptor, over_hull, value, inclusive))

    @staticmethod
    def _vector(descriptor, over_hull, nums, den, pad, inclusive) -> "Cut":
        return Cut(descriptor, over_hull, _normalize_vec(descriptor, over_hull, nums, den, pad, inclusive))

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
            return "whole" if not any(b.nums) else "principal"
        return "open"

    @property
    def is_whole(self) -> bool:
        return self.kind == "whole"

    def bound_point(self) -> Optional[_Element]:
        """The boundary as a point of the cut's space, when it is one."""
        b, d = self.bound, self.descriptor
        if isinstance(b, _ScalarBound):
            s = b.value
            if not _surd_in_space(s, d, self.over_hull):
                return None
            return _point(d, (s.A, s.B) if d.kind == KIND_QUADRATIC else (s.A,), s.den, self.over_hull)
        return None if b.pad else _point(d, b.nums, b.den, self.over_hull)

    def min_element(self) -> Optional[_Element]:
        """The least value in the cut, when one exists."""
        return self.bound_point() if self.bound.inclusive else None

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
        rel = _lex_cmp_prefix(x.nums, x.den, b.nums, b.den)
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
        rel = _lex_cmp_prefix(b1.nums, b1.den, b2.nums, b2.den)
        if rel != 0:
            return rel
        k1, k2 = len(b1.nums), len(b2.nums)
        if k1 == k2:
            return (b1.pad > b2.pad) - (b1.pad < b2.pad)
        # the shorter bound continues with its pad against real entries
        return b1.pad if k1 < k2 else -b2.pad

    def _check_peer(self, other: "Cut") -> None:
        if not isinstance(other, Cut):
            raise TypeError(f"expected a Cut, got {type(other).__name__}")
        if (other.descriptor is not self.descriptor and other.descriptor != self.descriptor) or other.over_hull != self.over_hull:
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
        # a bound is full length exactly when it has no pad
        s1, s2 = len(b1.nums), len(b2.nums)
        m = min(s1, s2)
        D1, D2 = b1.den, b2.den
        nums = tuple(x * D2 + y * D1 for x, y in zip(b1.nums[:m], b2.nums[:m]))
        if m == self.descriptor.param:
            return Cut._vector(self.descriptor, self.over_hull, nums, D1 * D2, 0, b1.inclusive and b2.inclusive)
        if s1 == s2:
            pad = -1 if (b1.pad == -1 and b2.pad == -1) else 1
        else:
            pad = b1.pad if s1 < s2 else b2.pad
        return Cut._vector(self.descriptor, self.over_hull, nums, D1 * D2, pad, pad == -1)

    def __mul__(self, other: "Cut") -> "Cut":
        return self.multiply(other)

    def power(self, n: int) -> "Cut":
        if n < 1:
            raise ValueError("ideal powers need n >= 1")
        # n-fold multiply scales the bound and keeps its pad and inclusivity
        b = self.bound
        if isinstance(b, _ScalarBound):
            return Cut._scalar(self.descriptor, self.over_hull, b.value.scale(n), b.inclusive)
        return Cut._vector(self.descriptor, self.over_hull, tuple(c * n for c in b.nums), b.den, b.pad, b.inclusive)

    def pth_root_set(self, p: int) -> "Cut":
        """The cut { x : p*x in self }, boundary divided by p."""
        if p < 2:
            raise ValueError("need p >= 2")
        b = self.bound
        if isinstance(b, _ScalarBound):
            return Cut._scalar(self.descriptor, self.over_hull, b.value.divide(p), b.inclusive)
        return Cut._vector(self.descriptor, self.over_hull, b.nums, b.den * p, b.pad, b.inclusive)

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
        nums = self.bound.nums  # integral over the group
        succ = nums[:-1] + (nums[-1] + 1,)
        return all(c % p == 0 for c in succ)

    # -- hull passage --------------------------------------------------------

    def restrict_to_group(self) -> "Cut":
        """Intersection with the group, as a cut over the group."""
        if not self.over_hull:
            raise ValueError("already a group cut")
        b = self.bound
        if isinstance(b, _ScalarBound):
            return Cut._scalar(self.descriptor, False, b.value, b.inclusive)
        return Cut._vector(self.descriptor, False, b.nums, b.den, b.pad, b.inclusive)

    def hull_closure(self) -> "Cut":
        """Upward closure inside the divisible hull; the least ideal of the
        big ring whose trace on the group contains this cut."""
        if self.over_hull:
            raise ValueError("already a hull cut")
        b = self.bound
        if isinstance(b, _ScalarBound):
            return Cut._scalar(self.descriptor, True, b.value, b.inclusive)
        if b.pad == 0:
            return Cut._vector(self.descriptor, True, b.nums, 1, 0, b.inclusive)
        # {x : trunc > c} over Z^n closes up to {h : trunc >= c + e_k} over Q^n
        succ = b.nums[:-1] + (b.nums[-1] + 1,)
        return Cut._vector(self.descriptor, True, succ, 1, -1, True)


# -- public constructors -----------------------------------------------------


def whole_cut(descriptor: GroupDescriptor, over_hull: bool = False) -> Cut:
    if descriptor.kind == KIND_INT_LEX:
        return Cut._vector(descriptor, over_hull, (0,) * descriptor.param, 1, 0, True)
    return Cut._scalar(descriptor, over_hull, _surd(0, 0, 1, 0), True)


def principal_cut(gamma: _Element) -> Cut:
    """The cut { x : x >= gamma }; gamma fixes group-vs-hull."""
    over_hull = isinstance(gamma, HullElement)
    if gamma.descriptor.kind == KIND_INT_LEX:
        return Cut._vector(gamma.descriptor, over_hull, gamma.nums, gamma.den, 0, True)
    return Cut._scalar(gamma.descriptor, over_hull, _element_to_surd(gamma), True)


def open_cut(descriptor: GroupDescriptor, bound, over_hull: bool = False) -> Cut:
    """The cut { x : x > bound }.  The bound may be an element of the same
    space, a Surd (dense groups, possibly irrational), or a coordinate
    tuple for ``int_lex``."""
    if isinstance(bound, _Element):
        if bound.descriptor != descriptor:
            raise ValueError(f"group mismatch: {descriptor} vs {bound.descriptor}")
        if descriptor.kind == KIND_INT_LEX:
            return Cut._vector(descriptor, over_hull, bound.nums, bound.den, 0, False)
        return Cut._scalar(descriptor, over_hull, _element_to_surd(bound), False)
    if isinstance(bound, Surd):
        if descriptor.kind == KIND_INT_LEX:
            raise TypeError("lexicographic cuts take coordinate bounds")
        return Cut._scalar(descriptor, over_hull, bound, False)
    if descriptor.kind == KIND_INT_LEX:
        return Cut._vector(descriptor, over_hull, *_over_one_den(bound), 0, False)
    return Cut._scalar(descriptor, over_hull, Surd(bound), False)


def frontier_cut(descriptor: GroupDescriptor, prefix, over_hull: bool = False, inclusive: bool = False) -> Cut:
    """Lexicographic truncation cut { x : (x_1..x_k) > prefix } (or >= with
    inclusive=True, which only survives over the hull)."""
    if descriptor.kind != KIND_INT_LEX:
        raise TypeError("frontier cuts only exist over lexicographic groups")
    nums, den = _over_one_den(prefix)
    pad = -1 if inclusive else 1
    if len(nums) == descriptor.param:
        pad = 0
    return Cut._vector(descriptor, over_hull, nums, den, pad, inclusive)
