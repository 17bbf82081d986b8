"""Generalized power series with exact support in an ordered group.

The model field for a valued field with value group Gamma and residue
characteristic p is built in three layers:

* coefficients: multivariate polynomials over F_p (sympy ``PolyElement``
  with domain GF(p) and graded-lex monomial order).  Some variables are
  *tagged* by positive group elements and move under the automorphism
  below; the rest are plain unit variables and stay fixed.
* ``SeriesElement``: a finite F_p[x..]-linear combination of monomials
  t^gamma, gamma a ``GroupElement``.  This is the group ring; t^gamma is
  invertible, and the valuation of a nonzero series is the least exponent
  in its support (coefficients are units, so no carrying occurs).
* ``FieldElement``: a quotient num/den of two series.  Fractions are kept
  unreduced; equality is decided by cross-multiplication, which is exact.

``SigmaSpec`` is the order-p automorphism with sigma(x_d) = x_d + t^d on
tagged variables and sigma = id on everything else.  It preserves
valuations and satisfies sigma^p = id, and norm/trace along it produce
sigma-fixed elements; all three facts are checked by the test suite rather
than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from sympy.polys.domains import GF
from sympy.polys.rings import ring as _sympy_ring

from .ordered_group import GroupDescriptor, GroupElement, _is_prime, compare, int_scale, is_positive

__all__ = [
    "CoeffField",
    "Coeff",
    "SeriesElement",
    "FieldElement",
    "SigmaSpec",
    "t_term",
    "variable_series",
    "constant_series",
    "is_pth_power",
    "norm",
    "trace",
    "valuation_laws",
    "norm_trace_laws",
]


class CoeffField:
    """Polynomial coefficients over F_p with group-tagged variables.

    ``tags`` lists the tagged variables by their group elements (kept in
    decreasing order); ``units`` names extra untagged variables.  Tagged
    variables come first in the underlying sympy ring.
    """

    def __init__(self, p: int, tags: Sequence[GroupElement] = (), units: Sequence[str] = ()):
        if not _is_prime(p):
            raise ValueError(f"coefficient characteristic must be prime, got {p}")
        tags = tuple(sorted(tags, key=cmp_to_key(compare), reverse=True))
        if len(set(tags)) != len(tags):
            raise ValueError("tagged variables must have distinct tags")
        for tag in tags:
            if not isinstance(tag, GroupElement) or not is_positive(tag):
                raise ValueError(f"variable tags must be positive group elements, got {tag!r}")
        names = [f"x{i}" for i in range(len(tags))] + list(units)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        self.p = p
        self.tags = tags
        self.units = tuple(units)
        self.ring = _sympy_ring(names, GF(p), "grlex")[0]
        self.gens = self.ring.gens
        self.one = self.ring.one
        self.zero = self.ring.zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoeffField):
            return NotImplemented
        return (self.p, self.tags, self.units) == (other.p, other.tags, other.units)

    def __hash__(self) -> int:
        return hash((self.p, self.tags, self.units))

    def __repr__(self) -> str:
        tags = ", ".join(str(t.value) for t in self.tags)
        return f"CoeffField(p={self.p}, tags=({tags}), units={self.units})"

    def tagged_gen(self, i: int):
        return self.gens[i]

    def unit_gen(self, name: str):
        return self.gens[len(self.tags) + self.units.index(name)]

    def const(self, k: int):
        return self.ring.from_dict({(0,) * self.ring.ngens: k % self.p})


@dataclass(frozen=True)
class Coeff:
    """A fraction of coefficient polynomials, kept unreduced."""

    num: object
    den: object

    def is_zero(self) -> bool:
        return not self.num

    def eq(self, other: "Coeff") -> bool:
        return self.num * other.den == other.num * self.den


class SeriesElement:
    """Finite support map gamma -> nonzero coefficient polynomial."""

    __slots__ = ("field", "descriptor", "_terms")

    def __init__(self, field: CoeffField, descriptor: GroupDescriptor, terms: Dict[GroupElement, object]):
        self.field = field
        self.descriptor = descriptor
        self._terms = {g: c for g, c in terms.items() if c}

    # -- basic views ---------------------------------------------------------

    def terms(self) -> Iterable[Tuple[GroupElement, object]]:
        return self._terms.items()

    def support(self) -> Tuple[GroupElement, ...]:
        return tuple(sorted(self._terms, key=cmp_to_key(compare)))

    def is_zero(self) -> bool:
        return not self._terms

    def valuation(self) -> GroupElement:
        if not self._terms:
            raise ValueError("the zero series has no valuation")
        return min(self._terms, key=cmp_to_key(compare))

    def leading_coeff(self):
        return self._terms[self.valuation()]

    def _check_peer(self, other: "SeriesElement") -> None:
        if not isinstance(other, SeriesElement):
            raise TypeError(f"expected SeriesElement, got {type(other).__name__}")
        if other.field != self.field or other.descriptor != self.descriptor:
            raise ValueError("series live over different fields")

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "SeriesElement") -> "SeriesElement":
        self._check_peer(other)
        out = dict(self._terms)
        for g, c in other._terms.items():
            s = out.get(g, self.field.zero) + c
            if s:
                out[g] = s
            else:
                out.pop(g, None)
        return SeriesElement(self.field, self.descriptor, out)

    def __neg__(self) -> "SeriesElement":
        return SeriesElement(self.field, self.descriptor, {g: -c for g, c in self._terms.items()})

    def __sub__(self, other: "SeriesElement") -> "SeriesElement":
        return self + (-other)

    def __mul__(self, other: "SeriesElement") -> "SeriesElement":
        self._check_peer(other)
        out: Dict[GroupElement, object] = {}
        for g1, c1 in self._terms.items():
            for g2, c2 in other._terms.items():
                g = g1 + g2
                s = out.get(g, self.field.zero) + c1 * c2
                if s:
                    out[g] = s
                else:
                    out.pop(g, None)
        return SeriesElement(self.field, self.descriptor, out)

    def scale(self, coeff) -> "SeriesElement":
        return SeriesElement(self.field, self.descriptor, {g: c * coeff for g, c in self._terms.items()})

    def shift(self, gamma: GroupElement) -> "SeriesElement":
        """Multiply by the monomial t^gamma."""
        return SeriesElement(self.field, self.descriptor, {g + gamma: c for g, c in self._terms.items()})

    def power(self, n: int) -> "SeriesElement":
        if n < 0:
            raise ValueError("series powers need n >= 0")
        out = constant_series(self.field, self.descriptor, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesElement):
            return NotImplemented
        return (
            self.field == other.field
            and self.descriptor == other.descriptor
            and self._terms == other._terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = [f"({c})*t^{g.value}" for g, c in sorted(self._terms.items(), key=lambda kv: cmp_to_key(compare)(kv[0]))]
        return " + ".join(bits)


def t_term(field: CoeffField, descriptor: GroupDescriptor, gamma: GroupElement, coeff=1) -> SeriesElement:
    if isinstance(coeff, int):
        coeff = field.const(coeff)
    return SeriesElement(field, descriptor, {gamma: coeff})


def constant_series(field: CoeffField, descriptor: GroupDescriptor, coeff) -> SeriesElement:
    from .ordered_group import zero as group_zero

    if isinstance(coeff, int):
        coeff = field.const(coeff)
    return SeriesElement(field, descriptor, {group_zero(descriptor): coeff})


def variable_series(field: CoeffField, descriptor: GroupDescriptor, gen) -> SeriesElement:
    return constant_series(field, descriptor, gen)


class FieldElement:
    """A quotient of two series; denominators are never zero."""

    __slots__ = ("num", "den")

    def __init__(self, num: SeriesElement, den: Optional[SeriesElement] = None):
        if den is None:
            den = constant_series(num.field, num.descriptor, 1)
        num._check_peer(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    @property
    def field(self) -> CoeffField:
        return self.num.field

    @property
    def descriptor(self) -> GroupDescriptor:
        return self.num.descriptor

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def valuation(self) -> GroupElement:
        return self.num.valuation() - self.den.valuation()

    def leading_coeff(self) -> Coeff:
        return Coeff(self.num.leading_coeff(), self.den.leading_coeff())

    def __add__(self, other: "FieldElement") -> "FieldElement":
        other = as_field_element(other, self)
        return FieldElement(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        other = as_field_element(other, self)
        return FieldElement(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "FieldElement":
        return FieldElement(-self.num, self.den)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        other = as_field_element(other, self)
        return FieldElement(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        other = as_field_element(other, self)
        if other.is_zero():
            raise ZeroDivisionError("division by zero field element")
        return FieldElement(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            inv = FieldElement(self.den, self.num)
            return inv ** (-n)
        return FieldElement(self.num.power(n), self.den.power(n))

    def __eq__(self, other) -> bool:
        if isinstance(other, SeriesElement):
            other = FieldElement(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def as_series(self) -> SeriesElement:
        """Exact conversion when the denominator is a coefficient-unit
        monomial; raises otherwise."""
        terms = list(self.den.terms())
        if len(terms) != 1:
            raise ValueError("denominator is not a monomial")
        gamma, c = terms[0]
        cterms = list(c.terms())
        if len(cterms) != 1 or any(e for e in cterms[0][0]):
            raise ValueError("denominator coefficient is not a constant")
        inv = pow(int(cterms[0][1]) % self.field.p, -1, self.field.p)
        return self.num.scale(self.field.const(inv)).shift(-gamma)

    def __repr__(self) -> str:
        return f"({self.num!r})/({self.den!r})"


def as_field_element(x, like: FieldElement) -> FieldElement:
    if isinstance(x, FieldElement):
        return x
    if isinstance(x, SeriesElement):
        return FieldElement(x)
    if isinstance(x, int):
        return FieldElement(constant_series(like.field, like.descriptor, x))
    raise TypeError(f"cannot treat {type(x).__name__} as a field element")


class SigmaSpec:
    """Order-p automorphism: x_d -> x_d + t^d on tagged variables."""

    def __init__(self, field: CoeffField, descriptor: GroupDescriptor):
        if field.tags and any(t.descriptor != descriptor for t in field.tags):
            raise ValueError("variable tags live in a different group")
        self.field = field
        self.descriptor = descriptor
        self.p = field.p
        # sigma(x_i) as a two-term series, one per tagged variable
        self._images = [
            t_term(field, descriptor, tag) + variable_series(field, descriptor, field.gens[i])
            for i, tag in enumerate(field.tags)
        ]
        # expansions of tagged monomials recur constantly (conjugates share
        # exponent patterns), so they are cached per exponent tuple
        self._expansions: Dict[Tuple[int, ...], SeriesElement] = {}

    def _tagged_expansion(self, tagged: Tuple[int, ...]) -> SeriesElement:
        got = self._expansions.get(tagged)
        if got is None:
            got = constant_series(self.field, self.descriptor, 1)
            for i, e in enumerate(tagged):
                if e:
                    got = got * self._images[i].power(e)
            self._expansions[tagged] = got
        return got

    def _apply_series(self, f: SeriesElement) -> SeriesElement:
        ntags = len(self.field.tags)
        acc: Dict[GroupElement, object] = {}
        zero_poly = self.field.ring.zero
        for gamma, c in f.terms():
            for exps, coeff in c.terms():
                unit_part = self.field.ring.from_dict(
                    {(0,) * ntags + exps[ntags:]: coeff}
                )
                tagged = exps[:ntags]
                if not any(tagged):
                    acc[gamma] = acc.get(gamma, zero_poly) + unit_part
                    continue
                for g2, c2 in self._tagged_expansion(tagged).terms():
                    key = gamma + g2
                    acc[key] = acc.get(key, zero_poly) + c2 * unit_part
        return SeriesElement(self.field, self.descriptor, acc)

    def apply(self, f: Union[SeriesElement, FieldElement]):
        if isinstance(f, FieldElement):
            return FieldElement(self._apply_series(f.num), self._apply_series(f.den))
        return self._apply_series(f)

    def delta(self, f: Union[SeriesElement, FieldElement]):
        """sigma(f) - f."""
        return self.apply(f) - f

    def iterate(self, f, k: int):
        out = f
        for _ in range(k):
            out = self.apply(out)
        return out


def norm(s: SigmaSpec, f):
    """Product of the p conjugates under sigma."""
    out = f
    cur = f
    for _ in range(s.p - 1):
        cur = s.apply(cur)
        out = out * cur
    return out


def trace(s: SigmaSpec, f):
    """Sum of the p conjugates under sigma."""
    out = f
    cur = f
    for _ in range(s.p - 1):
        cur = s.apply(cur)
        out = out + cur
    return out


def valuation_laws(sigma: SigmaSpec, f: SeriesElement, g: SeriesElement) -> List[str]:
    """One label per broken law v(fg) = v(f) + v(g), v(sigma f) = v(f); a
    zero f or g has no valuation, so it breaks none."""
    if f.is_zero() or g.is_zero():
        return []
    labels = []
    if (f * g).valuation() != f.valuation() + g.valuation():
        labels.append("valuation additivity")
    if sigma.apply(f).valuation() != f.valuation():
        labels.append("sigma preserves valuation")
    return labels


def norm_trace_laws(sigma: SigmaSpec, f: SeriesElement) -> List[str]:
    """One label per broken law: sigma fixes N f and Tr f; v(N f) = p*v(f)."""
    nf, tf = norm(sigma, f), trace(sigma, f)
    labels = [label for label, x in (("norm is fixed", nf), ("trace is fixed", tf)) if sigma.apply(x) != x]
    if not f.is_zero() and nf.valuation() != int_scale(sigma.p, f.valuation()):
        labels.append("norm valuation")
    return labels


def is_pth_power(field: CoeffField, c, p: Optional[int] = None):
    """Decide whether a coefficient (polynomial or Coeff fraction) is a p-th
    power, returning (flag, root).  Over F_p the coefficients themselves are
    always roots of themselves, so only the exponents matter.
    """
    p = p or field.p
    if isinstance(c, Coeff):
        flag, root = is_pth_power(field, c.num * c.den ** (p - 1), p)
        if not flag:
            return False, None
        return True, Coeff(root, c.den)
    if not c:
        return True, field.zero
    out = {}
    for exps, coeff in c.terms():
        if any(e % p for e in exps):
            return False, None
        out[tuple(e // p for e in exps)] = coeff
    return True, field.ring.from_dict(out)
