"""Cut boundaries in the Fraction form, the oracle for ``ramify.cuts``.

``ramify.cuts`` stores every boundary as integers over one denominator.
This module keeps the earlier form: a surd a + b*sqrt(d) with Fraction
parts, and a lexicographic prefix of Fractions, with the comparison,
normalization, product and membership rules written on those.  Bounds are
plain tuples: ``(FracSurd, inclusive)`` for the rank-one dense groups and
``(prefix, pad, inclusive)`` for ``int_lex``.

``(prefix, pad, inclusive)`` is this oracle's own form: ``ramify.cuts``
keeps no pad.  There a prefix shorter than the rank is read by its
inclusive flag alone, so pad -1 is a short inclusive prefix, pad +1 a
short exclusive one and pad 0 a full-length bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ramify.cuts import _Prefix
from ramify.ordered_group import KIND_QUADRATIC, _is_squarefree_nonsquare


def quad_sign(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for rational a, b."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    sa = 1 if a > 0 else -1
    sb = 1 if b > 0 else -1
    if sa == sb:
        return sa
    return sa if a * a > b * b * d else sb


@dataclass(frozen=True)
class FracSurd:
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

    def sign(self) -> int:
        return quad_sign(self.a, self.b, self.d)

    def cmp(self, other: "FracSurd") -> int:
        if self.d == other.d or other.b == 0:
            return FracSurd(self.a - other.a, self.b - other.b, self.d or other.d).sign()
        if self.b == 0:
            return -other.cmp(self)
        u = FracSurd(self.a - other.a, self.b, self.d)
        su, sw = u.sign(), (other.b > 0) - (other.b < 0)
        if su == 0:
            return -sw
        if su != sw:
            return su
        lead = u.a * u.a + u.b * u.b * self.d - other.b * other.b * other.d
        return su * quad_sign(lead, 2 * u.a * u.b, self.d)

    def add(self, other: "FracSurd") -> "FracSurd":
        if self.d == other.d or other.b == 0:
            return FracSurd(self.a + other.a, self.b + other.b, self.d or other.d)
        if self.b == 0:
            return other.add(self)
        raise ValueError(f"cannot add surds over sqrt({self.d}) and sqrt({other.d})")

    def scale(self, n: int) -> "FracSurd":
        return FracSurd(self.a * n, self.b * n, self.d)

    def divide(self, n: int) -> "FracSurd":
        return FracSurd(self.a / n, self.b / n, self.d)


# -- rank-one dense groups: (FracSurd, inclusive) -------------------------------


def normalize_scalar(descriptor, over_hull: bool, value: FracSurd, inclusive: bool):
    if descriptor.kind == KIND_QUADRATIC:
        in_space = value.b == 0 or value.d == descriptor.param
    else:
        den = value.a.denominator
        while den % descriptor.param == 0:
            den //= descriptor.param
        in_space = value.b == 0 and (over_hull or den == 1)
    if value.sign() < 0:
        raise ValueError("cut boundary must be >= 0")
    return value, inclusive and in_space


def scalar_subset(b1, b2) -> bool:
    rel = b1[0].cmp(b2[0])
    if rel != 0:
        return rel > 0
    return not b1[1] or b2[1]


def scalar_multiply(descriptor, over_hull: bool, b1, b2):
    return normalize_scalar(descriptor, over_hull, b1[0].add(b2[0]), b1[1] and b2[1])


def scalar_contains(bound, point: FracSurd) -> bool:
    rel = point.cmp(bound[0])
    return rel > 0 or (rel == 0 and bound[1])


# -- int_lex(n): (prefix, pad, inclusive) ----------------------------------------


def lex_cmp_prefix(xs, ys) -> int:
    for a, b in zip(xs, ys):
        if a != b:
            return 1 if a > b else -1
    return 0


def normalize_vec(n: int, over_hull: bool, prefix, pad: int, inclusive: bool):
    prefix = tuple(Fraction(c) for c in prefix)
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
            if all(c.denominator == 1 for c in prefix):
                prefix = prefix[:-1] + (prefix[-1] - 1,)
            pad, inclusive = 1, False
        if pad == 0 and inclusive and any(c.denominator != 1 for c in prefix):
            inclusive = False
        if pad == 0 and not inclusive or pad == 1:
            idx = next((i for i, c in enumerate(prefix) if c.denominator != 1), None)
            if idx is not None:
                prefix = prefix[: idx + 1]
                prefix = prefix[:-1] + (Fraction(prefix[-1].numerator // prefix[-1].denominator),)
            if len(prefix) == n:
                prefix = prefix[:-1] + (prefix[-1] + 1,)
                pad, inclusive = 0, True
            else:
                pad, inclusive = 1, False
    rel = lex_cmp_prefix(prefix, (Fraction(0),) * len(prefix))
    if rel < 0 or (rel == 0 and pad == -1):
        raise ValueError("cut boundary must be >= 0")
    return prefix, pad, inclusive


def vec_bound_cmp(b1, b2) -> int:
    rel = lex_cmp_prefix(b1[0], b2[0])
    if rel != 0:
        return rel
    k1, k2 = len(b1[0]), len(b2[0])
    if k1 == k2:
        return (b1[1] > b2[1]) - (b1[1] < b2[1])
    return b1[1] if k1 < k2 else -b2[1]


def vec_subset(b1, b2) -> bool:
    rel = vec_bound_cmp(b1, b2)
    if rel != 0:
        return rel > 0
    return b1 == b2 or not b1[2] or b2[2]


def vec_multiply(n: int, over_hull: bool, b1, b2):
    (p1, pad1, inc1), (p2, pad2, inc2) = b1, b2
    s1 = len(p1) if pad1 else n
    s2 = len(p2) if pad2 else n
    m = min(s1, s2)
    prefix = tuple(a + b for a, b in zip(p1[:m], p2[:m]))
    if m == n:
        return normalize_vec(n, over_hull, prefix, 0, inc1 and inc2)
    if s1 == s2:
        pad = -1 if (pad1 == -1 and pad2 == -1) else 1
    else:
        pad = pad1 if s1 < s2 else pad2
    return normalize_vec(n, over_hull, prefix, pad, pad == -1)


def vec_contains(bound, coords) -> bool:
    prefix, pad, inclusive = bound
    rel = lex_cmp_prefix(tuple(Fraction(c) for c in coords), prefix)
    if rel != 0:
        return rel > 0
    if pad == 1:
        return False
    if pad == -1:
        return True
    return inclusive


# -- membership of a point against any boundary -------------------------------------


def point_cmp(x, value) -> int:
    """The sign of the point x minus a ``ramify.cuts`` boundary, both read
    back as Fractions: the form of ``_value_of(x).cmp(value)``.  A point
    over ``quadratic(d)`` is a + b*sqrt(d), and a + 0*sqrt(d) is rational."""
    if type(value) is _Prefix:
        xs = tuple(Fraction(c, x.den) for c in x.nums)
        return lex_cmp_prefix(xs, tuple(Fraction(c, value.den) for c in value.nums))
    b = x.nums[1] if x.descriptor.kind == KIND_QUADRATIC else 0
    point = FracSurd(Fraction(x.nums[0], x.den), Fraction(b, x.den), x.descriptor.param)
    return point.cmp(FracSurd(value.a, value.b, value.d))


def contains(cut, x) -> bool:
    rel = point_cmp(x, cut.value)
    return rel > 0 or (rel == 0 and cut.inclusive)
