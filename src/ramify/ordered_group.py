"""Ordered abelian groups of finite rational rank, with exact arithmetic.

Three families cover every value group used in this package:

* ``int_lex(n)``    -- Z^n with the lexicographic order (discrete for n = 1,
  non-archimedean for n >= 2).
* ``p_inverted(p)`` -- Z[1/p], a dense subgroup of the rationals.
* ``quadratic(d)``  -- Q + Q*sqrt(d), a dense subgroup of the reals.

Elements are immutable and exact.  Every point is stored as integer
numerators over one positive denominator, in lowest terms: n numerators
for ``int_lex``, one for ``p_inverted`` and (a, b) for a + b*sqrt(d) over
``quadratic``, so every operation is integer arithmetic.  No comparison ever touches
floating point; the sign of a + b*sqrt(d) is decided by comparing a^2
against d*b^2, which is conclusive because sqrt(d) is irrational.  This
module is the only one that converts between Fractions and the stored
form; ``.value`` reads a point back as Fractions (integers for Z^n), and
``format_point`` writes it as a ``ramify.literals`` literal, as every
message that names a point prints it.

Each group sits inside its divisible hull (Q^n lex, Q, Q + Q*sqrt(d)).
Hull points get their own type: a ``HullElement`` never compares equal to a
``GroupElement``, so confusing the two spaces is a type error rather than a
silent coercion.  Membership of a hull point in the group is a test on its
denominator alone: 1, a power of p, or anything for the quadratic case.

Values are checked once, where they enter: ``element``, ``hull_element`` and
the ``GroupDescriptor`` constructor.  The group and its hull are closed under
``add``, ``neg`` and ``int_scale``, so those build their results unchecked.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, List, Tuple, Union

KIND_INT_LEX = "zlex"
KIND_P_INVERTED = "zp"
KIND_QUADRATIC = "quad"

# Largest value the trial-division tests below accept (at most about 46 000
# divisions); a larger group parameter or radicand is refused, not a hang.
TRIAL_DIVISION_CAP = 2 ** 31


# Largest rank of Z^n: values, cuts and series keys hold n coordinates, so
# the rank scales every computation over the group; a larger one is refused
MAX_RANK = 256


# Longest value an error message quotes whole; a longer one is cut to this
# many characters, and its length is given instead of the rest
ECHO_CHARS = 40


def echo(value, quote: bool = False) -> str:
    """``value`` as an error message shows it: str(value), or its repr when
    ``quote``; whole if it has at most ECHO_CHARS characters, else its first
    ECHO_CHARS and its length, so a message stays short whatever the input."""
    text = str(value)
    shown = repr if quote else str
    if len(text) <= ECHO_CHARS:
        return shown(text)
    return f"{shown(text[:ECHO_CHARS])}... ({len(text)} characters)"


def _int_only(n) -> None:
    """Refuse anything but an int, bool included: a float, Fraction or bool
    would pass a range or divisibility test as its value."""
    if type(n) is not int:
        raise TypeError(f"expected an integer, got {type(n).__name__}")


def _trial(n: int, square: bool) -> bool:
    """Whether n >= 2 has no divisor k*k (``square``), else no divisor k,
    for 2 <= k <= sqrt(n); refuses a non-int and an n above the cap."""
    _int_only(n)
    if n < 2:
        return False
    if n > TRIAL_DIVISION_CAP:
        raise ValueError(f"{echo(n)} exceeds the supported parameter cap 2**31")
    k = 2
    while k * k <= n:
        if n % (k * k if square else k) == 0:
            return False
        k += 1
    return True


# both tests are cached, so each distinct parameter is trial-divided once;
# typed, so that 3.0 or True is not a hit for 3 or 1 and reaches the check
@lru_cache(maxsize=256, typed=True)
def _is_prime(n: int) -> bool:
    return _trial(n, False)


@lru_cache(maxsize=256, typed=True)
def _is_squarefree_nonsquare(d: int) -> bool:
    return _trial(d, True)


_set = object.__setattr__


def _frozen(self, name, value=None) -> None:
    """``__setattr__`` and ``__delattr__`` of the immutable value types."""
    raise AttributeError(f"{type(self).__name__} is immutable")


class GroupDescriptor:
    """Names one ordered group.

    ``param`` is the rank for ``zlex``, the inverted prime for ``zp`` and
    the radicand for ``quad``.  The constructor decodes it once into four
    facts, which every other module reads instead of testing the kind:
    ``width``, the numerators of a point (n, 1 or 2); ``prime``, q for
    Z[1/q] and else 0; ``radicand``, d for Q + Q*sqrt(d) and else 0; and
    ``is_dense``, false only for Z^n.  Immutable; equality, hashing and
    pickling read (kind, param) alone, and the facts follow from those.
    """

    __slots__ = ("kind", "param", "width", "prime", "radicand", "is_dense")

    def __init__(self, kind: str, param: int) -> None:
        if kind == KIND_INT_LEX:
            if type(param) is not int or not 1 <= param <= MAX_RANK:
                _int_only(param)
                raise ValueError(f"lexicographic rank must be between 1 and {MAX_RANK}, got {echo(param)}")
            width, prime, radicand = param, 0, 0
        elif kind == KIND_P_INVERTED:
            if not _is_prime(param):
                raise ValueError(f"inverted denominator must be prime, got {echo(param)}")
            width, prime, radicand = 1, param, 0
        elif kind == KIND_QUADRATIC:
            if not _is_squarefree_nonsquare(param):
                raise ValueError(
                    f"radicand must be a squarefree non-square >= 2, got {echo(param)}"
                )
            width, prime, radicand = 2, 0, param
        else:
            raise ValueError(f"unknown group kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "param", param)
        _set(self, "width", width)
        _set(self, "prime", prime)
        _set(self, "radicand", radicand)
        _set(self, "is_dense", kind != KIND_INT_LEX)

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other) -> bool:
        if other.__class__ is not GroupDescriptor:
            return NotImplemented
        return self.kind == other.kind and self.param == other.param

    def __hash__(self) -> int:
        return hash((self.kind, self.param))

    def __repr__(self) -> str:
        return f"GroupDescriptor(kind={self.kind!r}, param={self.param!r})"

    def __reduce__(self):
        return GroupDescriptor, (self.kind, self.param)

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


def _over_one_den(values) -> Tuple[Tuple[int, ...], int]:
    """Exact rationals as integer numerators over their least common
    denominator, which leaves them in lowest terms.  This is the one
    coercion of raw values, and it refuses anything inexact."""
    values = tuple(values)
    if all(type(c) is int for c in values):
        return values, 1
    for c in values:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"expected an exact rational, got {type(c).__name__}")
    fracs = [Fraction(c) for c in values]
    den = lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (den // f.denominator) for f in fracs), den


def _den_in_group(descriptor: GroupDescriptor, den: int) -> bool:
    """Whether a hull point with this lowest-terms denominator lies in the
    group: Z^n needs 1, Z[1/p] a power of p, Q + Q*sqrt(d) anything."""
    if descriptor.prime:
        # p^L with L the bit length of den exceeds den, and it is a multiple
        # of den exactly when den is a power of the prime p
        return pow(descriptor.prime, den.bit_length(), den) == 0
    return den == 1 or descriptor.is_dense


class _Element:
    """A point nums / den: n numerators for ``zlex``, one for ``zp`` and
    (a, b) for a + b*sqrt(d) over ``quad``; den > 0 and in lowest terms
    with nums.  Immutable; points of different types are never equal."""

    __slots__ = ("descriptor", "nums", "den")

    def __init__(self, descriptor: GroupDescriptor, nums: Tuple[int, ...], den: int) -> None:
        _set(self, "descriptor", descriptor)
        _set(self, "nums", nums)
        _set(self, "den", den)

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.descriptor, self.nums, self.den) == (other.descriptor, other.nums, other.den)

    def __hash__(self) -> int:
        return hash((self.descriptor, self.nums, self.den))

    def __reduce__(self):
        return type(self), (self.descriptor, self.nums, self.den)

    @property
    def value(self) -> Union[tuple, Fraction]:
        """The exact value: an integer tuple for a point of Z^n, a Fraction
        over ``zp``, a tuple of Fractions otherwise."""
        if self.descriptor.kind == KIND_P_INVERTED:
            return Fraction(self.nums[0], self.den)
        if self.descriptor.kind == KIND_INT_LEX and type(self) is GroupElement:
            return self.nums
        return tuple(Fraction(c, self.den) for c in self.nums)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(descriptor={self.descriptor!r}, value={self.value!r})"

    def _check_peer(self, other: "_Element") -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot mix {type(self).__name__} with {type(other).__name__}"
            )
        if other.descriptor is not self.descriptor and other.descriptor != self.descriptor:
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


def format_point(x: _Element) -> str:
    """The literal of a point: a bare value over Z, ``lex(...)`` over Z^n,
    ``q(...)`` over Z[1/p] and ``quad(a,b)`` over Q + Q*sqrt(d)."""
    d = x.descriptor
    if not d.is_dense:
        if d.width == 1:
            return str(x.value[0])
        return "lex(" + ",".join(map(str, x.value)) + ")"
    if d.prime:
        return f"q({x.value})"
    a, b = x.value
    return f"quad({a},{b})"


def _lowest(nums: Tuple[int, ...], den: int) -> Tuple[Tuple[int, ...], int]:
    """nums / den (den > 0) in lowest terms; the arguments themselves when
    they already are."""
    g = 1 if den == 1 else gcd(den, *nums)
    return (nums, den) if g == 1 else (tuple([c // g for c in nums]), den // g)


def _point(descriptor: GroupDescriptor, nums: Tuple[int, ...], den: int, hull: bool = False) -> _Element:
    """The point nums / den (den > 0) in lowest terms, unchecked: the
    caller knows that it lies in the space."""
    return (HullElement if hull else GroupElement)(descriptor, *_lowest(nums, den))


def _make(descriptor: GroupDescriptor, raw, hull: bool) -> _Element:
    """The one entry point for raw values: exact rationals only, checked
    for shape and, for a group point, membership."""
    kind = descriptor.kind
    if kind == KIND_P_INVERTED:
        raw = (raw,)
    elif isinstance(raw, (int, Fraction)):
        raw = (raw,) if kind == KIND_INT_LEX else (raw, 0)
    elif kind == KIND_QUADRATIC:
        a, b = raw
        raw = (a, b)
    nums, den = _over_one_den(raw)
    if kind == KIND_INT_LEX and len(nums) != descriptor.param:
        raise ValueError(f"expected {descriptor.param} coordinates, got {len(nums)}")
    h = HullElement(descriptor, nums, den)
    if hull:
        return h
    if _den_in_group(descriptor, den):
        return GroupElement(descriptor, nums, den)
    if kind == KIND_INT_LEX:
        shown = "(" + ", ".join(map(str, h.value)) + ")"
        raise ValueError(f"coordinates {echo(shown)} do not lie in Z^{descriptor.param}")
    raise ValueError(f"{echo(h.value)} has a denominator prime to {descriptor.param}")


def element(descriptor: GroupDescriptor, raw) -> GroupElement:
    return _make(descriptor, raw, hull=False)


def hull_element(descriptor: GroupDescriptor, raw) -> HullElement:
    return _make(descriptor, raw, hull=True)


# the zero of each group and of each hull, made once and shared, which is
# safe because elements are immutable; keyed by (kind, param, hull), whose
# hash needs no Python-level call
_ZEROS: Dict[Tuple[str, int, bool], _Element] = {}


def zero(descriptor: GroupDescriptor, hull: bool = False):
    kind, param = descriptor.kind, descriptor.param
    got = _ZEROS.get((kind, param, hull))
    if got is None:
        got = _ZEROS[kind, param, hull] = (HullElement if hull else GroupElement)(descriptor, (0,) * descriptor.width, 1)
    return got


def compare(x: _Element, y: _Element) -> int:
    """Three-way comparison; requires matching type and descriptor."""
    if y.__class__ is not x.__class__ or y.descriptor is not x.descriptor:
        x._check_peer(y)
    xs, ys = x.nums, y.nums
    if x.den != y.den:
        xs, ys = tuple(c * y.den for c in xs), tuple(c * x.den for c in ys)
    return _cmp_nums(x.descriptor, xs, ys)


def _cmp_nums(descriptor: GroupDescriptor, xs, ys) -> int:
    """The sign of xs - ys, numerators over one positive denominator: by
    ``quad_sign`` over Q + Q*sqrt(d), else lexicographically."""
    if descriptor.radicand:
        return quad_sign(xs[0] - ys[0], xs[1] - ys[1], descriptor.radicand)
    return (xs > ys) - (xs < ys)


def add(x: _Element, y: _Element) -> _Element:
    x._check_peer(y)
    D1, D2 = x.den, y.den
    if D1 == D2:
        nums, den = tuple(map(operator.add, x.nums, y.nums)), D1
    else:
        nums, den = tuple(a * D2 + b * D1 for a, b in zip(x.nums, y.nums)), D1 * D2
    return _point(x.descriptor, nums, den, type(x) is HullElement)


def neg(x: _Element) -> _Element:
    return int_scale(-1, x)


def int_scale(n: int, x: _Element) -> _Element:
    if type(n) is not int:
        _int_only(n)
    return _point(x.descriptor, tuple(n * c for c in x.nums), x.den, type(x) is HullElement)


def divide_exact(x: _Element, n: int):
    """x / n within the same space, or None when no such point exists.

    Hull points and quadratic group points always divide.  For ``int_lex``
    every coordinate must be divisible; for ``p_inverted`` the quotient must
    keep a p-power denominator.
    """
    if type(n) is not int or n == 0:
        _int_only(n)
        raise ValueError(f"divisor must be a nonzero integer, got {n!r}")
    s = 1 if n > 0 else -1
    q = _point(x.descriptor, tuple(s * c for c in x.nums), x.den * s * n, type(x) is HullElement)
    if isinstance(q, GroupElement) and not _den_in_group(q.descriptor, q.den):
        return None
    return q


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
        return [c % p for c in x.nums]
    if kind == KIND_P_INVERTED and x.descriptor.param != p:
        return [x.nums[0] * pow(x.den, -1, p) % p]
    return []


def to_hull(x: GroupElement) -> HullElement:
    if not isinstance(x, GroupElement):
        raise TypeError(f"expected a GroupElement, got {type(x).__name__}")
    return HullElement(x.descriptor, x.nums, x.den)


def in_group(h: HullElement) -> bool:
    """Whether a hull point lies in the group itself."""
    if not isinstance(h, HullElement):
        raise TypeError(f"expected a HullElement, got {type(h).__name__}")
    return _den_in_group(h.descriptor, h.den)


def _sign_of(descriptor: GroupDescriptor, nums: Tuple[int, ...]) -> int:
    """The sign of nums / den for any den > 0: by ``quad_sign`` over
    Q + Q*sqrt(d), else by the first nonzero numerator."""
    if descriptor.radicand:
        return quad_sign(nums[0], nums[1], descriptor.radicand)
    return next(((c > 0) - (c < 0) for c in nums if c), 0)


def sign(x: _Element) -> int:
    return _sign_of(x.descriptor, x.nums)


def is_positive(x: _Element) -> bool:
    return sign(x) > 0
