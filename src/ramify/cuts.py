"""Upward-closed subsets of the positive part of an ordered group.

A nonzero ideal of a valuation ring is determined by the set of values of
its elements, which is an upward-closed subset of the positive cone.  This
module represents those sets exactly and implements the ideal calculus on
them (membership, containment, products, p-th root sets).

Every cut is one boundary ``value`` and an ``inclusive`` flag.  The value
is stored as integers over one positive denominator, in lowest terms, the
form ``ordered_group`` stores points in, so comparisons, products and
membership tests are integer arithmetic.  For the rank-one dense groups it
is an exact real (A + B*sqrt(d)) / den (`Surd`), which accommodates bounds
outside the group and even irrational bounds.  For ``int_lex(n)`` it is a
rational prefix (c_1..c_k) / den of width 1 <= k <= n (`_Prefix`), and
the flag and the width give the four shapes:

* width n, inclusive                    -> { x : x >= c }  (principal)
* width n, exclusive                    -> { x : x > c }   (open)
* width k < n, exclusive (``frontier``) -> { x : (x_1..x_k) > c }
* width k < n, inclusive                -> { x : (x_1..x_k) >= c }

The short shapes are the cuts with no least element that a lexicographic
order produces; a short inclusive cut only survives over the divisible
hull (over Z^n it collapses to a short exclusive one a step lower).  Over
the group itself a lexicographic prefix is integral, so its denominator is
1.  Cuts are normalized on construction, so equal sets have equal
representations and the total order by inclusion is a boundary comparison.

A cut knows whether it lives over the group or over its divisible hull
(``over_hull``); membership expects a ``GroupElement`` or ``HullElement``
accordingly.  Membership compares the point's numerators and denominator
with the boundary's integers in one routine (`_cmp`, which `Surd.cmp` and
`_Prefix.cmp` call too) and builds nothing.  Against a prefix it walks
the two coordinate lists together up to the shorter width, multiplying
each pair across the denominators, and stops at the first pair that
differs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Tuple, Union

from .ordered_group import (
    GroupDescriptor,
    GroupElement,
    HullElement,
    _Element,
    _den_in_group,
    _frozen,
    _int_only,
    _is_prime,
    _is_squarefree_nonsquare,
    _lowest,
    _over_one_den,
    _set,
    echo,
    quad_sign,
    zero,
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

    __setattr__ = __delattr__ = _frozen

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
        return _cmp((self.A, self.B), self.den, self.d, other)

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


def _fill(s: Surd, A: int, B: int, den: int, d: int) -> None:
    """Store (A + B*sqrt(d)) / den in s, in lowest terms; den != 0."""
    if den < 0:
        A, B, den = -A, -B, -den
    (A, B), den = _lowest((A, B), den)
    _set(s, "A", A)
    _set(s, "B", B)
    _set(s, "den", den)
    _set(s, "d", d if B else 0)


def _surd(A: int, B: int, den: int, d: int) -> Surd:
    s = object.__new__(Surd)
    _fill(s, A, B, den, d)
    return s


class _Prefix(NamedTuple):
    """A lexicographic boundary nums / den (den > 0) of width len(nums);
    ``cmp`` and ``add`` act on the common width, as `Surd`'s do on reals."""

    nums: Tuple[int, ...]
    den: int

    def sign(self) -> int:
        for c in self.nums:
            if c:
                return 1 if c > 0 else -1
        return 0

    def cmp(self, other: "_Prefix") -> int:
        return _cmp(self.nums, self.den, 0, other)

    def add(self, other: "_Prefix") -> "_Prefix":
        D1, D2 = self.den, other.den
        return _Prefix(tuple([x * D2 + y * D1 for x, y in zip(self.nums, other.nums)]), D1 * D2)

    def scale(self, n: int) -> "_Prefix":
        return _Prefix(tuple(c * n for c in self.nums), self.den)

    def divide(self, n: int) -> "_Prefix":
        """The prefix over n; n > 0."""
        return _Prefix(self.nums, self.den * n)


_Value = Union[Surd, _Prefix]


def _cmp(nums: Tuple[int, ...], den: int, d: int, value: _Value) -> int:
    """The sign of nums / den minus a boundary value, on integers alone.

    Against a `_Prefix`, nums is a prefix and the two compare on their
    common width, and d is ignored.  Against a `Surd`, nums is (A,) or
    (A, B), the real (A + B*sqrt(d)) / den; d is read only beside a nonzero
    B, so a rational point may pass any radicand.
    """
    D2 = value.den
    if type(value) is _Prefix:
        # the first coordinate that differs decides; zip stops at the common width
        for x, y in zip(nums, value.nums):
            x, y = x * D2, y * den
            if x != y:
                return 1 if x > y else -1
        return 0
    B = nums[1] if len(nums) > 1 else 0
    a = nums[0] * D2 - value.A * den
    if d == value.d or not B or not value.B:
        return quad_sign(a, B * D2 - value.B * den, d if B else value.d)
    # times den*D2 > 0: the sign of u - w with u = a + b*sqrt(d) and
    # w = c*sqrt(d'), where b, c are nonzero and d != d'
    b, c = B * D2, value.B * den
    su, sw = quad_sign(a, b, d), (c > 0) - (c < 0)
    if su != sw:
        return su
    # same sign: compare squares, u^2 - w^2 is a single surd
    return su * quad_sign(a * a + b * b * d - c * c * value.d, 2 * a * b, d)


def _value_of(x: _Element) -> _Value:
    """A point as a boundary value: a full-width prefix or a real."""
    d = x.descriptor
    if not d.is_dense:
        return _Prefix(x.nums, x.den)
    return _surd(x.nums[0], x.nums[1] if d.radicand else 0, x.den, d.radicand)


def _surd_in_space(value: Surd, descriptor: GroupDescriptor, over_hull: bool) -> bool:
    if value.B and value.d != descriptor.radicand:
        return False
    return over_hull or _den_in_group(descriptor, value.den)


class Cut:
    """An immutable cut: { x : x >= value } when ``inclusive``, else
    { x : x > value }.  The constructor checks the boundary (a `Surd` over
    a dense group, a coordinate `_Prefix` over Z^n) and normalizes it, so
    equal sets get equal cuts and a normal boundary comes back unchanged."""

    __slots__ = ("descriptor", "over_hull", "value", "inclusive")

    def __init__(self, descriptor: GroupDescriptor, over_hull: bool, value: _Value, inclusive: bool) -> None:
        if descriptor.is_dense:
            if type(value) is not Surd:
                raise TypeError(f"cuts over {descriptor} take Surd bounds, got {type(value).__name__}")
            if inclusive and not _surd_in_space(value, descriptor, over_hull):
                inclusive = False
        elif type(value) is not _Prefix:
            raise TypeError("lexicographic cuts take coordinate bounds")
        else:
            nums, den = value
            if den != 1:
                nums, den = _lowest(nums, den)
            n = descriptor.width
            if not 1 <= len(nums) <= n:
                raise ValueError(f"bound length {len(nums)} out of range for rank {n}")
            if not over_hull:
                if inclusive and (len(nums) < n or den != 1):
                    # over Z^n a short integral prefix drops to the grid point
                    # below; past a fractional entry strictness is free
                    if den == 1:
                        nums = nums[:-1] + (nums[-1] - 1,)
                    inclusive = False
                if not inclusive:
                    # exclusive over the integers: cut at the first fractional entry,
                    # floor it, then a full-width integral bound gains its successor
                    if den != 1:
                        floored = []
                        for c in nums:
                            q, r = divmod(c, den)
                            floored.append(q)
                            if r:
                                break
                        nums, den = tuple(floored), 1
                    if len(nums) == n:
                        nums, inclusive = nums[:-1] + (nums[-1] + 1,), True
            if nums is not value.nums:  # normalization built a new prefix
                value = _Prefix(nums, den)
        _set(self, "descriptor", descriptor)
        _set(self, "over_hull", over_hull)
        _set(self, "value", value)
        _set(self, "inclusive", inclusive)
        sign = value.sign()
        if sign < 0 or (sign == 0 and inclusive and self._unfixed()):
            raise ValueError("cut boundary must be >= 0")

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other) -> bool:
        if other.__class__ is not Cut:
            return NotImplemented
        return (self.descriptor, self.over_hull, self.value, self.inclusive) == (other.descriptor, other.over_hull, other.value, other.inclusive)

    def __hash__(self) -> int:
        return hash((self.descriptor, self.over_hull, self.value, self.inclusive))

    def __repr__(self) -> str:
        return f"Cut(descriptor={self.descriptor!r}, over_hull={self.over_hull!r}, value={self.value!r}, inclusive={self.inclusive!r})"

    def __reduce__(self):
        return Cut, (self.descriptor, self.over_hull, self.value, self.inclusive)

    # -- shape -------------------------------------------------------------

    def _unfixed(self) -> int:
        """Coordinates the boundary leaves free: those past a short prefix,
        none for a full-width prefix or a real."""
        v = self.value
        return self.descriptor.width - len(v.nums) if type(v) is _Prefix else 0

    @property
    def kind(self) -> str:
        if self._unfixed():
            return "frontier_ge" if self.inclusive else "frontier"
        if self.inclusive:
            return "whole" if self.value.sign() == 0 else "principal"
        return "open"

    @property
    def is_whole(self) -> bool:
        # the constructor refuses an inclusive zero boundary on a short prefix
        return self.inclusive and self.value.sign() == 0

    def bound_point(self) -> Optional[_Element]:
        """The boundary as a point of the cut's space, when it is one."""
        # the boundary is in lowest terms, so its point needs no gcd
        v, d, make = self.value, self.descriptor, HullElement if self.over_hull else GroupElement
        if type(v) is _Prefix:
            return None if self._unfixed() else make(d, v.nums, v.den)
        if not _surd_in_space(v, d, self.over_hull):
            return None
        return make(d, (v.A, v.B) if d.radicand else (v.A,), v.den)

    def min_element(self) -> Optional[_Element]:
        """The least value in the cut, when one exists."""
        return self.bound_point() if self.inclusive else None

    # -- membership and order ----------------------------------------------

    def _check_point(self, x: _Element) -> None:
        want = HullElement if self.over_hull else GroupElement
        if not isinstance(x, want):
            raise TypeError(f"cut over {'hull of ' if self.over_hull else ''}{self.descriptor} expects {want.__name__}, got {type(x).__name__}")
        if x.descriptor is not self.descriptor and x.descriptor != self.descriptor:
            raise ValueError(f"group mismatch: {self.descriptor} vs {x.descriptor}")

    def contains(self, x: _Element) -> bool:
        self._check_point(x)
        # x's integers against the boundary, as `_value_of(x).cmp` compares them
        rel = _cmp(x.nums, x.den, self.descriptor.radicand, self.value)
        # on a short prefix the flag says which side of the rest x lies on
        return rel > 0 or (rel == 0 and self.inclusive)

    def _check_peer(self, other: "Cut") -> None:
        if other.__class__ is Cut and other.descriptor is self.descriptor and other.over_hull == self.over_hull:
            return
        if not isinstance(other, Cut):
            raise TypeError(f"expected a Cut, got {type(other).__name__}")
        if (other.descriptor is not self.descriptor and other.descriptor != self.descriptor) or other.over_hull != self.over_hull:
            raise ValueError("cuts live over different spaces")

    def subset(self, other: "Cut") -> bool:
        """Inclusion is the order of the boundaries: an inclusive one sits
        just below its value and an exclusive one just above, and a short
        prefix carries that side past its width."""
        self._check_peer(other)
        rel = self.value.cmp(other.value)
        if rel != 0:
            return rel > 0
        u1, u2 = self._unfixed(), other._unfixed()
        if u1 != u2:
            return not self.inclusive if u1 > u2 else other.inclusive
        return not self.inclusive or other.inclusive

    # -- ideal calculus ------------------------------------------------------

    def multiply(self, other: "Cut") -> "Cut":
        self._check_peer(other)
        u1, u2 = self._unfixed(), other._unfixed()
        # equal widths keep both flags; otherwise the shorter prefix's side wins
        inclusive = self.inclusive and other.inclusive if u1 == u2 else (self if u1 > u2 else other).inclusive
        return Cut(self.descriptor, self.over_hull, self.value.add(other.value), inclusive)

    def power(self, n: int) -> "Cut":
        if type(n) is not int or n < 1:
            _int_only(n)
            raise ValueError("ideal powers need n >= 1")
        # n-fold multiply scales the boundary and keeps its width and flag
        return Cut(self.descriptor, self.over_hull, self.value.scale(n), self.inclusive)

    def pth_root_set(self, p: int) -> "Cut":
        """The cut { x : p*x in self }, boundary divided by p."""
        if type(p) is not int or p < 2:
            _int_only(p)
            raise ValueError("need p >= 2")
        return Cut(self.descriptor, self.over_hull, self.value.divide(p), self.inclusive)

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
        if not _is_prime(p):
            raise ValueError(f"the residue characteristic must be prime, got {echo(p)}")
        if self.min_element() is not None:
            return True
        if self.descriptor.is_dense:
            return True
        nums = self.value.nums  # integral over the group
        succ = nums[:-1] + (nums[-1] + 1,)
        return all(c % p == 0 for c in succ)

    # -- hull passage --------------------------------------------------------

    def restrict_to_group(self) -> "Cut":
        """Intersection with the group, as a cut over the group."""
        if not self.over_hull:
            raise ValueError("already a group cut")
        return Cut(self.descriptor, False, self.value, self.inclusive)

    def hull_closure(self) -> "Cut":
        """Upward closure inside the divisible hull; the least ideal of the
        big ring whose trace on the group contains this cut."""
        if self.over_hull:
            raise ValueError("already a hull cut")
        value, inclusive = self.value, self.inclusive
        if self._unfixed():
            # {x : trunc > c} over Z^n closes up to {h : trunc >= c + e_k} over Q^n
            value, inclusive = _Prefix(value.nums[:-1] + (value.nums[-1] + 1,), 1), True
        return Cut(self.descriptor, True, value, inclusive)


# -- public constructors -----------------------------------------------------


def whole_cut(descriptor: GroupDescriptor, over_hull: bool = False) -> Cut:
    return principal_cut(zero(descriptor, over_hull))


def principal_cut(gamma: _Element) -> Cut:
    """The cut { x : x >= gamma }; gamma fixes group-vs-hull."""
    return Cut(gamma.descriptor, isinstance(gamma, HullElement), _value_of(gamma), True)


def open_cut(descriptor: GroupDescriptor, bound: Union[_Element, Surd], over_hull: bool = False) -> Cut:
    """The cut { x : x > bound }.  The bound is a point of the group or
    its hull, or a Surd (dense groups, possibly irrational); a short
    lexicographic prefix is a `frontier_cut`."""
    if isinstance(bound, _Element):
        if bound.descriptor != descriptor:
            raise ValueError(f"group mismatch: {descriptor} vs {bound.descriptor}")
        value = _value_of(bound)
    elif isinstance(bound, Surd):
        value = bound
    else:
        raise TypeError(f"an open cut's bound is a point or a Surd, got {type(bound).__name__}")
    return Cut(descriptor, over_hull, value, False)


def frontier_cut(descriptor: GroupDescriptor, prefix, over_hull: bool = False, inclusive: bool = False) -> Cut:
    """Lexicographic truncation cut { x : (x_1..x_k) > prefix } (or >= with
    inclusive=True, which only survives over the hull)."""
    return Cut(descriptor, over_hull, _Prefix(*_over_one_den(prefix)), inclusive)
