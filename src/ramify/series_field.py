"""Generalized power series with exact support in an ordered group.

The model field for a valued field with value group Gamma and residue
characteristic p is built in three layers:

* coefficients: multivariate polynomials over F_p (``Poly``, a sparse map
  from exponent tuples to integers in 1..p-1).  The ``CoeffField`` is its
  own polynomial ring: it names the variables, holds zero, one and the
  generators, and builds polynomials with ``from_dict``.  Some variables
  are *tagged* by positive group elements and move under the automorphism
  below; the rest are plain unit variables and stay fixed.
* ``SeriesElement``: a finite F_p[x..]-linear combination of monomials
  t^gamma, gamma a ``GroupElement``.  This is the group ring; t^gamma is
  invertible, and the valuation of a nonzero series is the least exponent
  in its support (coefficients are units, so no carrying occurs).
  Every element the tool computes on (a parsed literal, an Artin-Schreier
  right-hand side, a defect model's samples) is a ``SeriesElement``.
* ``FieldElement``: a quotient num/den of two series, the library's exact
  quotient type; no pipeline module uses it.  Fractions are kept
  unreduced; equality is decided by cross-multiplication, which is exact.

A series is stored flat, as one sparse dict ``{key: c}`` with c in 1..p-1,
one entry per monomial t^gamma * x^e.  The key packs the whole monomial
into one Python int (Kronecker substitution), laid out by a ``_Layout``:

* the variable exponents sit in the low bits, ``w`` bits per variable,
  tagged variables lowest;
* above them sits the t-exponent as an integer T, built from gamma's
  numerators (``GroupElement.nums``) brought over the layout's common
  denominator ``den``.  Over Z[1/q] it is the one numerator; over Z^n
  (den 1) it is the n coordinates as balanced base-2^tw digits; over
  Q + Q*sqrt(d) it is the pair of numerators of a and b packed the same way.

Each series carries bounds on its largest variable exponent and its largest
lower t-coordinate, and every operation picks a layout whose fields hold
the bounds of its result, so no field ever carries into the next; operands
in different layouts are re-packed into a common one once per operation.
Multiplying monomials is then adding keys, and over Z[1/q] and Z^n the
integer order of keys refines the order of the t-exponents, so the
valuation is read off ``min(keys)``; over Q + Q*sqrt(d) the distinct
t-parts are compared exactly with ``quad_sign``.  Keys are decoded to
``GroupElement`` and ``Poly`` only at the API edge: ``terms``,
``support``, ``valuation`` and ``split_lead``.  The
packed-key helpers read keys without decoding them: ``monomials`` splits a
series into one-term series in its own layout, ``least_tag_index`` reads
the tag bits, ``valuation_at_least`` compares leading t-codes, ``_t_sign``
reads the sign of one t-code, and ``artin_schreier_run`` makes up to n
Artin-Schreier substitutions, decoding only the leading t-code's
coordinates: in closed form when the lead's value is the only negative
one, the terms of value >= 0 riding along, else one.

(gamma, Poly) terms enter a series through ``SeriesElement(...)``: it
refuses an exponent from another group and a coefficient from another ring,
widens the layout once for all the new terms and adds them in mod p.  Tags
from another group are refused with the field's first layout over the group.
One-term series have their own constructor, ``t_term`` (which
``constant_series`` and ``variable_series`` call): it makes the same checks
and picks the same layout and bounds as ``SeriesElement(...)``, but packs
the one key directly.

``SigmaSpec`` is the order-p automorphism with sigma(x_d) = x_d + t^d on
tagged variables and sigma = id on everything else.  A row holds the
moving part sigma(m) - m of a tagged monomial m, as (key delta,
coefficient) pairs written down from binomial coefficients mod p, one
cached row per layout and tagged exponent pattern; the rows of one layout
share one tuple per distinct pair, since most rows repeat the same pairs,
and sigma keeps the row tables (and their pair pools) of its last few
layouts.  ``apply`` starts from a copy of f's keys
and adds the keys of each row; ``delta`` runs the same loop from nothing,
so it builds no sigma(f) and subtracts nothing, and its key order is not
part of its result.  Both work in f's own layout, widened only where the
image needs more room, so f is re-packed only then and the result shares
its layout otherwise; ``trace`` runs on ``delta`` alone.  sigma refuses a
series over another ring (another p or other variable names, the rule
``Poly`` uses for coefficients) or another group.  sigma preserves
valuations and satisfies sigma^p = id, and norm/trace along it produce
sigma-fixed elements; all three facts are checked by the test suite rather
than assumed.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import comb, gcd, lcm
from operator import add, lshift, mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .ordered_group import (
    GroupDescriptor,
    GroupElement,
    _cmp_nums,
    _den_in_group,
    _int_only,
    _is_prime,
    _point,
    echo,
    format_point,
    int_scale,
    is_positive,
    quad_sign,
    zero,
)

__all__ = [
    "CoeffField",
    "Poly",
    "SeriesElement",
    "FieldElement",
    "SigmaSpec",
    "t_term",
    "variable_series",
    "constant_series",
    "norm",
    "trace",
    "valuation_laws",
    "norm_trace_laws",
]


# -- sparse sums mod p ------------------------------------------------------------------


def _merge(out: dict, items, p: int) -> dict:
    """Add the (key, c) pairs into ``out`` mod p, dropping keys that cancel."""
    get = out.get
    for k, c in items:
        s = (get(k, 0) + c) % p
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _reduced(acc: dict, p: int) -> dict:
    """The accumulated sums ``acc`` mod p, without the zeros."""
    out = {}
    for k, c in acc.items():
        c %= p
        if c:
            out[k] = c
    return out


def _power(one, base, n: int, times=mul):
    """base^n by square and multiply from ``one``, squaring only while bits
    remain: the one power routine of polynomials, series and literals."""
    out = one
    while n:
        if n & 1:
            out = times(out, base)
        n >>= 1
        if n:
            base = times(base, base)
    return out


# -- F_p polynomials ------------------------------------------------------------------


class Poly:
    """An element of a ``CoeffField``: {exponent tuple: c}, c in 1..p-1.

    Immutable by convention; every operation returns a new polynomial.
    """

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: CoeffField, terms: Dict[Tuple[int, ...], int]):
        self.ring = ring
        self._terms = terms

    def terms(self) -> List[Tuple[Tuple[int, ...], int]]:
        return list(self._terms.items())

    def _lift(self, other) -> "Poly":
        if isinstance(other, Poly):
            _check_ring(self.ring, other)
            return other
        # a bool is refused as the other integer inputs refuse it
        if isinstance(other, int) and not isinstance(other, bool):
            return self.ring.from_dict({(0,) * self.ring.ngens: other})
        raise TypeError(f"cannot combine a polynomial with {type(other).__name__}")

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int) and not isinstance(other, bool):
            other = self._lift(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms and _same_ring(other.ring, self.ring)

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other) -> "Poly":
        other = self._lift(other)
        return Poly(self.ring, _merge(dict(self._terms), other._terms.items(), self.ring.p))

    def __neg__(self) -> "Poly":
        p = self.ring.p
        return Poly(self.ring, {e: p - c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Poly":
        return -self + other

    def __mul__(self, other) -> "Poly":
        other = self._lift(other)
        acc: Dict[Tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        return Poly(self.ring, _reduced(acc, self.ring.p))

    # an integer on the left: addition and multiplication commute
    __radd__, __rmul__ = __add__, __mul__

    def __pow__(self, n: int) -> "Poly":
        _int_only(n)
        if n < 0:
            raise ValueError("polynomial powers need an integer n >= 0")
        return _power(self.ring.one, self, n)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for exps, c in sorted(self._terms.items()):
            factors = [str(c)] if c != 1 or not any(exps) else []
            for name, e in zip(self.ring.names, exps):
                if e:
                    factors.append(name if e == 1 else f"{name}^{e}")
            bits.append("*".join(factors))
        return " + ".join(bits)

    __repr__ = __str__


class CoeffField:
    """The coefficient ring F_p[names], with group-tagged variables; each
    ``Poly`` over it points to the field itself.

    ``tags`` lists the tagged variables by their group elements (kept in
    decreasing order); ``units`` names extra untagged variables.  Tagged
    variables come first, as x0, x1, ..., then the units.
    """

    # the field is its own polynomial ring; perfbench's model draw reads field.ring
    ring = property(lambda self: self)

    def __init__(self, p: int, tags: Sequence[GroupElement] = (), units: Sequence[str] = ()):
        if not _is_prime(p):
            raise ValueError(f"coefficient characteristic must be prime, got {p}")
        for tag in tags:
            if not isinstance(tag, GroupElement) or not is_positive(tag):
                shown = echo(format_point(tag) if isinstance(tag, GroupElement) else tag)
                raise ValueError(f"variable tags must be positive group elements, got {shown}")
        tags = tuple(sorted(tags, reverse=True))
        if len(set(tags)) != len(tags):
            raise ValueError("tagged variables must have distinct tags")
        names = [f"x{i}" for i in range(len(tags))] + list(units)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        self.p = p
        self.tags = tags
        self.units = tuple(units)
        self.names, self.ngens = tuple(names), len(names)
        self.zero, self.one = Poly(self, {}), Poly(self, {(0,) * self.ngens: 1})
        self.gens = tuple(Poly(self, {tuple(int(i == j) for j in range(self.ngens)): 1}) for i in range(self.ngens))
        # the first layout of series over this field, per group
        self._layouts: Dict[GroupDescriptor, _Layout] = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoeffField):
            return NotImplemented
        return (self.p, self.tags, self.units) == (other.p, other.tags, other.units)

    def __hash__(self) -> int:
        return hash((self.p, self.tags, self.units))

    def __repr__(self) -> str:
        tags = ", ".join(str(t.value) for t in self.tags)
        return f"CoeffField(p={self.p}, tags=({tags}), units={self.units})"

    def unit_gen(self, name: str) -> Poly:
        return self.gens[len(self.tags) + self.units.index(name)]

    def domain(self, k: int) -> int:
        """The coefficient domain F_p: an integer reduced mod p."""
        return int(k) % self.p

    def from_dict(self, terms) -> Poly:
        """Polynomial from {exponent tuple: integer}, coefficients reduced mod p."""
        out = {}
        for exps, c in terms.items():
            c = int(c) % self.p
            if c:
                out[tuple(exps)] = c
        return Poly(self, out)


# -- packed monomial keys ---------------------------------------------------------------

# least field widths, in bits, so that small series share one layout and
# growing products are re-packed rarely
_MIN_EXP_BITS = 4
_MIN_T_BITS = 12


class _Layout:
    """How a monomial t^T * x^e packs into one int key.

    key = T * 2^shift + sum_i e_i * 2^(w*i).  T is a scaled t-exponent:
    ``nlow`` lower coordinates below a top one, as balanced base-2^tw
    digits, all over the denominator ``den``.  A key is valid when every
    exponent is below 2^w and every lower coordinate is below 2^(tw-1) in
    absolute value.  Layouts are interned, so equal layouts are identical.
    """

    __slots__ = (
        "nlow", "nvars", "ntags", "den", "w", "tw",
        "shift", "mono_mask", "tag_mask", "emask", "offsets", "tmask", "half", "ecap", "tcap", "zeros",
    )

    def __init__(self, nlow: int, nvars: int, ntags: int, den: int, w: int, tw: int):
        self.nlow, self.nvars, self.ntags, self.den, self.w, self.tw = nlow, nvars, ntags, den, w, tw
        self.shift = w * nvars
        self.mono_mask = (1 << self.shift) - 1
        self.tag_mask = (1 << (w * ntags)) - 1
        self.emask = (1 << w) - 1
        self.offsets = tuple(range(0, self.shift, w))
        self.tmask = (1 << tw) - 1
        self.half = 1 << (tw - 1)
        self.ecap = 1 << w
        self.tcap = self.half if nlow else None
        self.zeros = (0,) * nvars

    def __reduce__(self):
        # copies and pickles come back as the interned layout
        return _layout, (self.nlow, self.nvars, self.ntags, self.den, self.w, self.tw)

    def fits(self, emax: int, tb: int) -> bool:
        return emax < self.ecap and (not self.nlow or tb < self.tcap)

    def t_code(self, coords: Sequence[int]) -> int:
        T = coords[0]
        for c in coords[1:]:
            T = (T << self.tw) + c
        return T

    def t_coords(self, T: int) -> Tuple[int, ...]:
        nlow = self.nlow
        if not nlow:
            return (T,)
        half, tmask, tw = self.half, self.tmask, self.tw
        if nlow == 1:
            # one balanced lower digit, then the top coordinate
            c = ((T + half) & tmask) - half
            return ((T - c) >> tw, c)
        out = []
        for _ in range(nlow):
            c = ((T + half) & tmask) - half
            out.append(c)
            T = (T - c) >> tw
        out.append(T)
        return tuple(reversed(out))

    def mono_code(self, exps: Sequence[int]) -> int:
        return sum(map(lshift, exps, self.offsets))

    def mono_exps(self, m: int) -> Tuple[int, ...]:
        emask = self.emask
        return tuple((m >> off) & emask for off in self.offsets)


_LAYOUTS: Dict[tuple, _Layout] = {}


def _layout(nlow: int, nvars: int, ntags: int, den: int, w: int, tw: int) -> _Layout:
    key = (nlow, nvars, ntags, den, w, tw)
    got = _LAYOUTS.get(key)
    if got is None:
        got = _LAYOUTS[key] = _Layout(*key)
    return got


def _coords(gamma: GroupElement, den: int) -> Tuple[int, ...]:
    """gamma's numerators over den, a multiple of ``gamma.den``."""
    f = den // gamma.den
    return gamma.nums if f == 1 else tuple(c * f for c in gamma.nums)


def _low_bound(coords: Sequence[int]) -> int:
    return max((abs(c) for c in coords[1:]), default=0)


def _base_layout(field: CoeffField, descriptor: GroupDescriptor) -> _Layout:
    """The narrowest layout over (field, descriptor): tag denominators
    included, so that sigma needs no re-pack.  Refuses tags from another
    group, once per field and group."""
    got = field._layouts.get(descriptor)
    if got is None:
        if any(tag.descriptor != descriptor for tag in field.tags):
            raise ValueError("variable tags live in a different group")
        den = lcm(1, *(tag.den for tag in field.tags))
        got = field._layouts[descriptor] = _layout(
            descriptor.width - 1, field.ngens, len(field.tags), den, _MIN_EXP_BITS, _MIN_T_BITS
        )
    return got


def _widen(lay: _Layout, den: int, emax: int, tb: int) -> _Layout:
    """``lay`` itself when it already holds den, emax and tb, else the
    least layout at least as wide that does."""
    if lay.den % den == 0 and lay.fits(emax, tb):
        return lay
    w = lay.w if emax < lay.ecap else emax.bit_length() + 1
    tw = lay.tw if not lay.nlow or tb < lay.tcap else tb.bit_length() + 3
    return _layout(lay.nlow, lay.nvars, lay.ntags, lcm(lay.den, den), w, tw)


def _repack(data: Dict[int, int], src: _Layout, dst: _Layout) -> Dict[int, int]:
    """The same monomials with keys in layout ``dst``; the caller ensures
    that they fit there."""
    if src is dst or not data:
        return data
    factor = dst.den // src.den
    S, mask = src.shift, src.mono_mask
    S2 = dst.shift
    if src.w == dst.w and not src.nlow:
        return {(((k >> S) * factor) << S2) + (k & mask): c for k, c in data.items()}
    out = {}
    for k, c in data.items():
        coords = src.t_coords(k >> S)
        if factor != 1:
            coords = tuple(x * factor for x in coords)
        m = k & mask
        if src.w != dst.w:
            m = dst.mono_code(src.mono_exps(m))
        out[(dst.t_code(coords) << S2) + m] = c
    return out


# -- series -----------------------------------------------------------------------------


class SeriesElement:
    """Finite support map gamma -> nonzero coefficient polynomial, stored
    as packed monomial keys (see the module docstring)."""

    # _eb bounds each variable's exponent and _tb the lower t-coordinates
    # (scaled by the layout's den); both hold for every key in _data
    __slots__ = ("field", "descriptor", "_data", "_lay", "_eb", "_tb")

    def __init__(self, field: CoeffField, descriptor: GroupDescriptor, terms: Dict[GroupElement, Poly]):
        """The sum of the (gamma, Poly) terms, mod p.  Each term's group and
        coefficient ring are checked, and the layout widens once for all of
        them; ``t_term`` builds the same series for one term."""
        la = _base_layout(field, descriptor)
        new, den, eb, tb = [], la.den, la.zeros, 0
        for gamma, c in terms.items():
            if not isinstance(gamma, GroupElement) or (gamma.descriptor is not descriptor and gamma.descriptor != descriptor):
                raise ValueError("the term lives over a different group")
            _check_ring(field, c)
            if c:
                if den % gamma.den:
                    # tb is kept over den, which only grows
                    wider = lcm(den, gamma.den)
                    tb, den = tb * (wider // den), wider
                if la.nlow:
                    tb = max(tb, _low_bound(gamma.nums) * (den // gamma.den))
                eb = tuple(map(max, eb, *c._terms))
                new.append((gamma, c))
        lay = _widen(la, den, max(eb, default=0), tb)
        S, t_code, mono_code = lay.shift, lay.t_code, lay.mono_code
        new = [((t_code(_coords(gamma, den)) << S) + mono_code(e), k) for gamma, c in new for e, k in c._terms.items()]
        self.field, self.descriptor = field, descriptor
        self._data, self._lay, self._eb, self._tb = _merge({}, new, field.p), lay, eb, tb

    # -- basic views ---------------------------------------------------------

    def _t_element(self, T: int) -> GroupElement:
        return _point(self.descriptor, self._lay.t_coords(T), self._lay.den)

    def _poly(self, monos: Dict[int, int]) -> Poly:
        lay = self._lay
        return Poly(self.field, {lay.mono_exps(m): c for m, c in monos.items()})

    def terms(self) -> Iterable[Tuple[GroupElement, Poly]]:
        lay = self._lay
        S, mask = lay.shift, lay.mono_mask
        groups: Dict[int, Dict[int, int]] = {}
        for k, c in self._data.items():
            groups.setdefault(k >> S, {})[k & mask] = c
        return {self._t_element(T): self._poly(monos) for T, monos in groups.items()}.items()

    def _lead_t(self) -> int:
        if not self._data:
            raise ValueError("the zero series has no valuation")
        S = self._lay.shift
        if not self.descriptor.radicand:
            return min(self._data) >> S
        # one pass, decoding each distinct t-code once
        descriptor, t_coords = self.descriptor, self._lay.t_coords
        best = None
        for T in {k >> S for k in self._data}:
            ab = t_coords(T)
            if best is None or _cmp_nums(descriptor, ab, best_ab) < 0:
                best, best_ab = T, ab
        return best

    def _t_sign(self, T: int) -> int:
        """The sign of the value at t-code T: over Z[1/q] and Z^n T's own
        sign (balanced lower digits keep the lexicographic sign), over
        Q + Q*sqrt(d) ``quad_sign`` of its coordinates."""
        if self.descriptor.radicand:
            return quad_sign(*self._lay.t_coords(T), self.descriptor.radicand)
        return (T > 0) - (T < 0)

    def support(self) -> Tuple[GroupElement, ...]:
        """The values of the terms in increasing order: the distinct t-parts
        of the keys, over Q + Q*sqrt(d) each decoded once and compared with
        ``_cmp_nums``, the order of ``compare``."""
        S = self._lay.shift
        codes = sorted({k >> S for k in self._data})
        if self.descriptor.radicand:
            descriptor, ab = self.descriptor, {T: self._lay.t_coords(T) for T in codes}
            codes.sort(key=cmp_to_key(lambda x, y: _cmp_nums(descriptor, ab[x], ab[y])))
        return tuple(self._t_element(T) for T in codes)

    def is_zero(self) -> bool:
        return not self._data

    def num_terms(self) -> int:
        """Number of nonzero terms c * x^e * t^gamma; a product of series
        with m and n terms makes m * n coefficient products."""
        return len(self._data)

    def valuation(self) -> GroupElement:
        return self._t_element(self._lead_t())

    # -- packed-key helpers ---------------------------------------------------

    def monomials(self) -> Iterable["SeriesElement"]:
        """The one-term series c * x^e * t^gamma of self, in storage order,
        each sharing self's layout and bounds: no key is decoded or re-packed."""
        field, descriptor, lay, eb, tb = self.field, self.descriptor, self._lay, self._eb, self._tb
        for k, c in self._data.items():
            yield _packed(field, descriptor, {k: c}, lay, eb, tb)

    def least_tag_index(self) -> int:
        """The largest index of a tagged variable occurring in self, which is
        the index of the least tag (tags are kept in decreasing order), or -1
        when no tagged variable occurs; read off the top set tag bit."""
        lay = self._lay
        top = max(((k & lay.tag_mask).bit_length() for k in self._data), default=0)
        return (top - 1) // lay.w if top else -1

    def valuation_at_least(self, base: "SeriesElement", gap: GroupElement) -> bool:
        """Whether v(self) >= v(base) + gap, for nonzero self and base.

        The leading t-codes of both series and gap's numerators are brought
        over one common denominator and compared there: as integers over
        Z[1/q], else with ``_cmp_nums``, the order of ``compare``.  Nothing
        is decoded to a ``GroupElement``."""
        self._check_peer(base)
        if gap.descriptor is not self.descriptor and gap.descriptor != self.descriptor:
            raise ValueError("the gap lives over a different group")
        la, lb = self._lay, base._lay
        den = lcm(la.den, lb.den, gap.den)
        fa, fb, fg = den // la.den, den // lb.den, den // gap.den
        A, B = self._lead_t(), base._lead_t()
        if not la.nlow:
            # rank one: a t-code is the one numerator over the layout's den
            return A * fa >= B * fb + gap.nums[0] * fg
        a = [c * fa for c in la.t_coords(A)]
        b = [c * fb + g * fg for c, g in zip(lb.t_coords(B), gap.nums)]
        return _cmp_nums(self.descriptor, a, b) >= 0

    def _split_at(self, T: int) -> Tuple[Dict[int, int], Dict[int, int]]:
        """({monomial code: c} of the keys at t-code T, {key: c} of the rest)
        from one pass over the keys."""
        S = self._lay.shift
        lo, hi = T << S, (T + 1) << S
        lead, rest = {}, {}
        for k, c in self._data.items():
            if lo <= k < hi:
                lead[k - lo] = c
            else:
                rest[k] = c
        return lead, rest

    def split_lead(self) -> Tuple[GroupElement, Poly, "SeriesElement"]:
        """(valuation, leading coefficient, the series without its leading
        term) from one pass over the keys."""
        T = self._lead_t()
        lead, rest = self._split_at(T)
        tail = _packed(self.field, self.descriptor, rest, self._lay, self._eb, self._tb)
        return self._t_element(T), self._poly(lead), tail

    def artin_schreier_run(self, n: int) -> Tuple[Optional[str], "SeriesElement", int]:
        """Up to n substitutions f -> f - (g^p - g): (case, result, steps),
        case None when the budget ends the run, else the normal form "iii",
        "i" or "ii" that stops it (with self when no step was taken).

        A step drops the lead c * t^v for its root g = c^(1/p) * t^(v/p)
        (Frobenius is additive and fixes F_p, so g^p is the lead and each
        x^e in c becomes x^(e/p)); it needs v < 0, v/p in the group ("i",
        checked first) and p dividing every exponent in c ("ii").  A root's
        value v/p^j is negative, so it never meets a term of value >= 0:
        when v is the only negative value in f, step j leaves
        c^(1/p^j) * t^(v/p^j) beside the other terms, and the stop is read
        off p-adic valuations, of gcd(v's numerators) where p is not
        invertible and of every exponent in c; otherwise the root may meet
        another term of negative value, and the run makes one step.  While p
        divides v's numerators over the layout's den the root's keys are the
        lead's over p; each later root grows den by p, and the other terms
        are re-packed once."""
        _int_only(n)
        if n < 0:
            raise ValueError(f"the substitution budget must be non-negative, got {n}")
        if n == 0:
            return None, self, 0
        if not self._data:
            return "iii", self, 0
        lay, p, descriptor, t_sign = self._lay, self.field.p, self.descriptor, self._t_sign
        T = self._lead_t()
        if t_sign(T) >= 0:
            return "iii", self, 0
        coords = lay.t_coords(T)
        # over the layout's den, v's numerators share the factor p^same
        same = _p_adic(gcd(*coords), p, n)
        stop_i = n if _den_in_group(descriptor, p) else same
        if not stop_i:
            return "i", self, 0
        lead, rest = self._split_at(T)
        S = lay.shift
        if any(t_sign(k >> S) < 0 for k in rest):
            # the root may meet another polar term: one step, which v/p allows here
            n = stop_i = 1
        stop_ii = min((_p_adic(e, p, n) for m in lead if m for e in lay.mono_exps(m) if e), default=n)
        if stop_i < n and stop_i <= stop_ii:
            case, j = "i", stop_i
        elif stop_ii < n:
            case, j = "ii", stop_ii
        else:
            case, j = None, n
        if not j:
            return case, self, 0
        # the first `same` roots keep the layout; each later one grows den by
        # p, which scales the rest's lower t-coordinates
        r = min(j, same)
        grow = p ** (j - r)
        tb = self._tb * grow if rest else self._tb
        lay2 = _widen(lay, lay.den * grow, max(self._eb, default=0), tb)
        base, q = lay2.t_code([x // p ** r for x in coords]) << lay2.shift, p ** j
        data = _merge(_repack(rest, lay, lay2), [(base + m // q, c) for m, c in lead.items()], p)
        return case, _packed(self.field, descriptor, data, lay2, self._eb, tb), j

    def _check_peer(self, other: "SeriesElement") -> None:
        if not isinstance(other, SeriesElement):
            raise TypeError(f"expected SeriesElement, got {type(other).__name__}")
        if (other.field is not self.field and other.field != self.field) or (
            other.descriptor is not self.descriptor and other.descriptor != self.descriptor
        ):
            raise ValueError("series live over different fields")

    def _aligned(self, other: "SeriesElement", product: bool):
        """Both operands' keys in one layout that holds the result: bounds
        add for a product and take the maximum for a sum."""
        la, lb = self._lay, other._lay
        if la is lb:
            ta, tb = self._tb, other._tb
            lay = la
        else:
            den = lcm(la.den, lb.den)
            ta, tb = self._tb * (den // la.den), other._tb * (den // lb.den)
            lay = _layout(la.nlow, la.nvars, la.ntags, den, max(la.w, lb.w), max(la.tw, lb.tw))
        if product:
            eb, tbound = tuple(map(add, self._eb, other._eb)), ta + tb
        else:
            eb, tbound = tuple(map(max, self._eb, other._eb)), max(ta, tb)
        emax = max(eb, default=0)
        if not lay.fits(emax, tbound):
            lay = _widen(lay, 1, emax, tbound)
        a = self._data if la is lay else _repack(self._data, la, lay)
        b = other._data if lb is lay else _repack(other._data, lb, lay)
        return lay, a, b, eb, tbound

    # -- ring operations ------------------------------------------------------

    def __add__(self, other: "SeriesElement") -> "SeriesElement":
        self._check_peer(other)
        lay, a, b, eb, tb = self._aligned(other, product=False)
        return _packed(self.field, self.descriptor, _merge(dict(a), b.items(), self.field.p), lay, eb, tb)

    def __neg__(self) -> "SeriesElement":
        p = self.field.p
        data = {k: p - c for k, c in self._data.items()}
        return _packed(self.field, self.descriptor, data, self._lay, self._eb, self._tb)

    def __sub__(self, other: "SeriesElement") -> "SeriesElement":
        return self + (-other)

    def _times(self, other: "SeriesElement") -> "SeriesElement":
        lay, a, b, eb, tb = self._aligned(other, product=True)
        if len(a) > len(b):
            a, b = b, a
        acc: Dict[int, int] = {}
        get = acc.get
        inner = list(b.items())
        for k1, c1 in a.items():
            for k2, c2 in inner:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
        return _packed(self.field, self.descriptor, _reduced(acc, self.field.p), lay, eb, tb)

    def __mul__(self, other: "SeriesElement") -> "SeriesElement":
        self._check_peer(other)
        return self._times(other)

    def shift(self, gamma: GroupElement) -> "SeriesElement":
        """Multiply by the monomial t^gamma."""
        return self._times(t_term(self.field, self.descriptor, gamma))

    def power(self, n: int) -> "SeriesElement":
        _int_only(n)
        if n < 0:
            raise ValueError("series powers need n >= 0")
        return _power(constant_series(self.field, self.descriptor, 1), self, n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeriesElement):
            return NotImplemented
        if (other.field is not self.field and other.field != self.field) or (
            other.descriptor is not self.descriptor and other.descriptor != self.descriptor
        ):
            return False
        if self._lay is other._lay:
            return self._data == other._data
        if len(self._data) != len(other._data):
            return False
        _, a, b, _, _ = self._aligned(other, product=False)
        return a == b

    __hash__ = None

    def __repr__(self) -> str:
        if not self._data:
            return "0"
        terms = dict(self.terms())
        return " + ".join(f"({terms[g]})*t^{g.value}" for g in self.support())


def _same_ring(ring: CoeffField, field: CoeffField) -> bool:
    """Whether polynomials over ``ring`` read alike over ``field``: the same
    field, or the same p and variable names."""
    return ring is field or (ring.p == field.p and ring.names == field.names)


def _check_ring(field: CoeffField, coeff: Poly) -> None:
    """Refuse a coefficient that is not a ``Poly``, and a polynomial from a
    ring with another p or other variable names: its exponents would be
    misread against the field's variables.  ``Poly`` arithmetic refuses
    such an operand the same way."""
    if not isinstance(coeff, Poly):
        raise TypeError(f"a series coefficient must be a Poly, got {type(coeff).__name__}")
    ring = coeff.ring
    # the identity test first: nearly every coefficient is over the field itself
    if ring is not field and not _same_ring(ring, field):
        raise ValueError(
            f"coefficient from F_{ring.p}[{', '.join(ring.names)}] used over F_{field.p}[{', '.join(field.names)}]"
        )


def _p_adic(x: int, p: int, cap: int) -> int:
    """The exponent of p in the nonzero integer x, or cap if that is less."""
    k = 0
    while k < cap and x % p == 0:
        x //= p
        k += 1
    return k


def _packed(field: CoeffField, descriptor: GroupDescriptor, data: Dict[int, int], lay: _Layout,
            eb: Tuple[int, ...], tb: int) -> SeriesElement:
    """A series from keys already packed in ``lay``, with their bounds."""
    out = object.__new__(SeriesElement)
    out.field, out.descriptor = field, descriptor
    out._data, out._lay, out._eb, out._tb = data, lay, eb, tb
    return out


def t_term(field: CoeffField, descriptor: GroupDescriptor, gamma: GroupElement, coeff=1) -> SeriesElement:
    """coeff * t^gamma, for an integer or a ``Poly`` coeff: the series
    ``SeriesElement(field, descriptor, {gamma: coeff})`` makes, with the
    same checks, layout and bounds, but its one key packed directly.  A
    ``Poly`` of more than one term goes to the constructor."""
    la = _base_layout(field, descriptor)
    if not isinstance(gamma, GroupElement) or (gamma.descriptor is not descriptor and gamma.descriptor != descriptor):
        raise ValueError("the term lives over a different group")
    if type(coeff) is int:
        exps, k = la.zeros, coeff % field.p
    else:
        _check_ring(field, coeff)
        if len(coeff._terms) > 1:
            return SeriesElement(field, descriptor, {gamma: coeff})
        exps, k = next(iter(coeff._terms.items()), (la.zeros, 0))
    if not k:
        return _packed(field, descriptor, {}, la, la.zeros, 0)
    den = lcm(la.den, gamma.den)
    tb = _low_bound(gamma.nums) * (den // gamma.den) if la.nlow else 0
    lay = _widen(la, den, max(exps, default=0), tb)
    key = (lay.t_code(_coords(gamma, den)) << lay.shift) + lay.mono_code(exps)
    return _packed(field, descriptor, {key: k}, lay, exps, tb)


def constant_series(field: CoeffField, descriptor: GroupDescriptor, coeff) -> SeriesElement:
    return t_term(field, descriptor, zero(descriptor), coeff)


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


# the row tables one SigmaSpec keeps, one per layout, each with the pool of
# pairs its rows share; a series, its norm's conjugates and its trace's
# passes meet a handful of layouts, and a sigma that meets more drops the
# table and pool it used least recently instead of growing
_SIGMA_TABLES = 8


class SigmaSpec:
    """Order-p automorphism: x_d -> x_d + t^d on tagged variables."""

    def __init__(self, field: CoeffField, descriptor: GroupDescriptor):
        self.field = field
        self.descriptor = descriptor
        self.p = field.p
        # each tag's largest lower t-coordinate at the base layout's den,
        # which holds every tag's denominator
        self._den0 = _base_layout(field, descriptor).den
        self._tag_bounds = tuple(_low_bound(_coords(tag, self._den0)) for tag in field.tags)
        # per layout (interned, so the object is its key) and packed tagged
        # exponents: the (key delta, coefficient) pairs of sigma(m) - m, which
        # turn a monomial's key into the keys it adds; tagged exponent
        # patterns recur constantly, so rows are cached, and the tables of
        # the _SIGMA_TABLES layouts used last are kept, least recent first;
        # the rows of one table share each pair they repeat
        self._rows: Dict[_Layout, Dict[int, Tuple[Tuple[int, int], ...]]] = {}
        # per layout in _rows, the pool of its rows' pairs, each held once,
        # so that rows repeating a pair hold one tuple, not a copy each
        self._pools: Dict[_Layout, Dict[Tuple[int, int], Tuple[int, int]]] = {}

    def _row(self, lay: _Layout, tc: int) -> Tuple[Tuple[int, int], ...]:
        """The row of tagged monomial ``tc`` by the binomial theorem:
        sigma(x_i^e) = sum_j C(e, j) x_i^(e-j) t^(j*d_i), and a product of
        tagged variables takes the product of their sums.  The product's
        first pair is the monomial's own (0, 1), which the row leaves out."""
        p, row = self.p, [(0, 1)]
        for i, e in enumerate(lay.mono_exps(tc)[: lay.ntags]):
            if not e:
                continue
            # t_code is linear in the coordinates, so step j adds j * step
            step = (lay.t_code(_coords(self.field.tags[i], lay.den)) << lay.shift) - (1 << lay.offsets[i])
            terms = [(j * step, c) for j in range(e + 1) if (c := comb(e, j) % p)]
            row = [(d1 + d2, c1 * c2 % p) for d1, c1 in row for d2, c2 in terms]
        return tuple(row[1:])

    def _map(self, f: SeriesElement, moved_only: bool) -> SeriesElement:
        """sigma(f): f's keys, then the keys each row adds; with
        ``moved_only``, sigma(f) - f, the same loop started from nothing."""
        if (f.field is not self.field and not _same_ring(f.field, self.field)) or (
            f.descriptor is not self.descriptor and f.descriptor != self.descriptor
        ):
            raise ValueError("sigma acts only on series over its own p, variables and group")
        # the image of x_i^e moves the lower t-coordinates of a monomial by
        # at most e times those of t^d_i, so widen f's layout once up front
        la = f._lay
        den = lcm(la.den, self._den0)
        tb = f._tb * (den // la.den) + sum(map(mul, f._eb, self._tag_bounds)) * (den // self._den0)
        lay = _widen(la, den, max(f._eb, default=0), tb)
        # the table moves to the end on every use, so the first is the one
        # used least recently, which a new layout's table replaces; its pair
        # pool goes with it
        tables = self._rows
        rows = tables.pop(lay, None)
        if rows is None:
            rows, pools = {}, self._pools
            if len(tables) == _SIGMA_TABLES:
                old = next(iter(tables))
                del tables[old], pools[old]
            pools[lay] = {}
        tables[lay] = rows
        tag_mask = lay.tag_mask
        data = f._data if lay is la else _repack(f._data, la, lay)
        acc: Dict[int, int] = {} if moved_only else dict(data)
        get = acc.get
        for key, c in data.items():
            tc = key & tag_mask
            if not tc:
                continue
            row = rows.get(tc)
            if row is None:
                # a pair that another row of this layout holds is shared
                fresh = self._row(lay, tc)
                row = rows[tc] = tuple(map(self._pools[lay].setdefault, fresh, fresh))
            for delta, c2 in row:
                k = key + delta
                acc[k] = get(k, 0) + c * c2
        return _packed(f.field, f.descriptor, _reduced(acc, self.p), lay, f._eb, tb)

    def apply(self, f: SeriesElement) -> SeriesElement:
        return self._map(f, False)

    def delta(self, f: SeriesElement) -> SeriesElement:
        """sigma(f) - f, in the layout and bounds of apply(f) - f.  Its key
        order is not part of the result."""
        return self._map(f, True)


def norm(s: SigmaSpec, f):
    """Product of the p conjugates under sigma, in p - 1 products.

    The factors are paired as sigma^i f * sigma^(p-i) f for i = 1..(p-1)/2
    (at p = 2 the one factor sigma f stands alone), the pair products are
    multiplied left to right, and f comes last.  sigma^i moves x by i*t^d
    and sigma^(p-i) by -i*t^d, so a pair product is even in i and its odd
    terms cancel, as in (x + i*c)(x - i*c) = x^2 - i^2*c^2; and f, the one
    factor sigma has not expanded, meets the largest partial product.
    Multiplication is commutative and associative, so this is the left to
    right product f * sigma f * ... * sigma^(p-1) f whatever sigma does.
    """
    p, conj = s.p, [f]
    for _ in range(p - 1):
        conj.append(s.apply(conj[-1]))
    out = conj[1] if p == 2 else conj[1] * conj[p - 1]
    for i in range(2, (p + 1) // 2):
        out = out * (conj[i] * conj[p - i])
    return out * f


def trace(s: SigmaSpec, f):
    """Sum of the p conjugates under sigma, as (sigma - 1)^(p-1) f: p - 1
    ``delta`` passes, each of lower tagged degree than the last.

    C(p-1, i) = (-1)^i mod p, so (X - 1)^(p-1) = sum_{i<p} X^i in F_p[X],
    and sigma is F_p-linear.  The fixedness law keeps its strength:
    sigma(Tr f) = Tr f reads (sigma - 1)^p f = (sigma^p - 1) f = 0."""
    out = f
    for _ in range(s.p - 1):
        out = s.delta(out)
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

