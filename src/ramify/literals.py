"""The literal syntax: the text form of groups, elements, cuts and series.

Literals
--------
groups    ``zlex:2``, ``zp:2``, ``quad:2``
elements  ``lex(1,-5)``, ``q(3/4)``, ``quad(1,1)``, bare rationals for
          rank-one groups
surds     ``surd(a,b,d)`` meaning a + b*sqrt(d)
cuts      ``whole``, ``ge q(1)``, ``gt q(1)``, ``frontier(1,-5)``,
          ``frontier_ge(1,0)`` (parenthesized forms like ``ge(q(1))``
          are accepted on input)
series    sums of products of ``t(<element>)``, ``x[<element>]``, unit
          names, and integers, e.g. ``u*t(-4) + x[q(3/4)]*t(q(1/2))``

The ``parse_*`` readers raise ``InputError`` on malformed text, naming the
offending token, and the ``format_*`` printers write literals that re-parse
to an equal value.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple, Union

from .cuts import Cut, Surd, frontier_cut, open_cut, principal_cut, whole_cut
from .ordered_group import (
    GroupDescriptor,
    GroupElement,
    HullElement,
    KIND_INT_LEX,
    KIND_P_INVERTED,
    KIND_QUADRATIC,
    echo,
    element,
    hull_element,
    is_positive,
)
from .series_field import CoeffField, SeriesElement, _power, constant_series, t_term, variable_series
from .swan import RswSymbol, ValueClass


class InputError(Exception):
    """Malformed user input; maps to exit code 2."""


# -- tokenizer -------------------------------------------------------------------


# Tokens are symbols, numbers (a minus sign or a digit, then digits and "/")
# and names (a letter or "_", then letters, digits, numerals and "_"), in the
# classes of str.isdigit, isalpha and isalnum.  \w is isalnum or "_" but \d is
# only isdecimal, so text holding numerals that are not decimal digits or
# letters (², Ⅻ, ½) gets a pattern that names them.
@lru_cache(maxsize=64)
def _token_pattern(numerals: str) -> re.Pattern:
    digits = "".join(c for c in numerals if c.isdigit())
    return re.compile(rf"[()\[\],:+*^]|[^\W\d{numerals}]\w*|[-\d{digits}][\d{digits}/]*")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        odd = () if text.isascii() else {c for c in text if c.isnumeric() and not (c.isalpha() or c.isdecimal())}
        pattern = _token_pattern("".join(sorted(odd)))
        self.items: List[str] = pattern.findall(text)
        if len("".join(self.items)) != len("".join(text.split())):
            # findall skipped a character that starts no token: find it
            pos = 0
            while True:
                pos = len(text) - len(text[pos:].lstrip())
                match = pattern.match(text, pos)
                if match is None:
                    raise InputError(f"unexpected character {text[pos]!r} in {echo(text, quote=True)}")
                pos = match.end()
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise InputError(f"unexpected end of input in {echo(self.text, quote=True)}")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise InputError(f"expected {tok!r} but found {echo(got, quote=True)} in {echo(self.text, quote=True)}")

    def done(self) -> None:
        if self.pos != len(self.items):
            raise InputError(f"trailing input {echo(self.items[self.pos], quote=True)} in {echo(self.text, quote=True)}")


# Most digits in one run of a number token: CPython's default limit on
# integer digits, checked before int() or Fraction() reads a token, so that
# reading a literal does not depend on that limit's setting.
MAX_DIGITS = 4300


def _check_digits(tok: str) -> None:
    """Refuse a token with a run of more than MAX_DIGITS digits, naming the
    cap rather than echoing the token; a name is no run of digits."""
    if len(tok) > MAX_DIGITS and any(len(run) > MAX_DIGITS for run in re.findall(r"\d+", tok)):
        raise InputError(f"numbers have at most {MAX_DIGITS} digits")


def _parse_fraction(tok: str, context: str) -> Union[int, Fraction]:
    """An exact rational; an integer token gives an int and builds no Fraction."""
    _check_digits(tok)
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"expected a rational number but found {echo(tok, quote=True)} in {echo(context, quote=True)}")


def parse_group(text: str) -> GroupDescriptor:
    toks = _Tokens(text)
    kind = toks.next()
    toks.expect(":")
    param_tok = toks.next()
    toks.done()
    _check_digits(param_tok)
    try:
        param = int(param_tok)
    except ValueError:
        raise InputError(f"expected an integer group parameter, found {echo(param_tok, quote=True)}")
    if kind not in (KIND_INT_LEX, KIND_P_INVERTED, KIND_QUADRATIC):
        raise InputError(f"unknown group kind {echo(kind, quote=True)} (use zlex:n, zp:p, quad:d)")
    return GroupDescriptor(kind, param)


def _separated(toks: _Tokens, read, blanks: bool = False) -> list:
    """The items that ``read`` reads between commas; with ``blanks``, an
    empty item (two commas in a row, or one at either end) is skipped."""
    out = []
    while True:
        if not (blanks and toks.peek() in (",", None)):
            out.append(read())
        if toks.peek() != ",":
            return out
        toks.next()


def _parse_fraction_list(toks: _Tokens) -> List[Union[int, Fraction]]:
    toks.expect("(")
    vals = _separated(toks, lambda: _parse_fraction(toks.next(), toks.text))
    toks.expect(")")
    return vals


# head of each element form -> (group kind, argument count or None for any,
# the error for a wrong count)
_ELEMENT_FORMS = {
    "lex": (KIND_INT_LEX, None, None),
    "q": (KIND_P_INVERTED, 1, "q(...) takes a single rational"),
    "quad": (KIND_QUADRATIC, 2, "quad(a,b) takes two rationals"),
}
# names that a series literal cannot use for a residue unit
_RESERVED = frozenset(("t", "x", "surd", *_ELEMENT_FORMS))


def element_form(text: str) -> Optional[str]:
    """The head of the element form that ``text`` starts with, such as
    ``"q"`` for ``q(3/4)``; None for a bare rational."""
    head = _Tokens(text).peek()
    return head if head in _ELEMENT_FORMS else None


def _parse_element_tokens(toks: _Tokens, descriptor: GroupDescriptor, hull: bool):
    """element := lex(...) | q(...) | quad(a,b) | bare rational"""
    build = hull_element if hull else element
    tok = toks.peek()
    if tok is None:
        raise InputError(f"expected an element in {echo(toks.text, quote=True)}")
    try:
        form = _ELEMENT_FORMS.get(tok)
        if form is not None:
            kind, arity, arity_error = form
            toks.next()
            vals = _parse_fraction_list(toks)
            if arity is not None and len(vals) != arity:
                raise InputError(arity_error)
            if descriptor.kind != kind:
                raise InputError(f"{tok}(...) element does not live in {descriptor}")
            return build(descriptor, vals[0] if arity == 1 else tuple(vals))
        # bare rational shorthand for scalar groups
        value = _parse_fraction(toks.next(), toks.text)
        if not descriptor.is_dense and descriptor.width != 1:
            raise InputError(f"bare value {echo(tok, quote=True)} is ambiguous over {descriptor}; use lex(...)")
        return build(descriptor, value)
    except ValueError as e:
        raise InputError(f"{e} (while reading an element of {descriptor})")


def parse_element(text: str, descriptor: GroupDescriptor, hull: bool = False):
    toks = _Tokens(text)
    out = _parse_element_tokens(toks, descriptor, hull)
    toks.done()
    return out


def parse_elements(text: str, descriptor: GroupDescriptor, hull: bool = False) -> tuple:
    """Comma-separated elements, such as ``lex(1,2),lex(0,3)``; an empty
    entry is skipped."""
    toks = _Tokens(text)
    out = _separated(toks, lambda: _parse_element_tokens(toks, descriptor, hull), blanks=True)
    toks.done()
    return tuple(out)


def _parse_bound_tokens(toks: _Tokens, descriptor: GroupDescriptor, hull: bool):
    """bound := surd(a,b,d) | element"""
    if toks.peek() != "surd":
        return _parse_element_tokens(toks, descriptor, hull)
    toks.next()
    vals = _parse_fraction_list(toks)
    if len(vals) != 3:
        raise InputError("surd(a,b,d) takes three arguments")
    if vals[2].denominator != 1:
        raise InputError("the radicand of surd(a,b,d) is an integer")
    if not descriptor.is_dense:
        raise InputError(f"surd bounds live over dense groups, not {descriptor}")
    return Surd(vals[0], vals[1], int(vals[2]))


def parse_bound(text: str, descriptor: GroupDescriptor, hull: bool):
    toks = _Tokens(text)
    out = _parse_bound_tokens(toks, descriptor, hull)
    toks.done()
    return out


def parse_cut(text: str, descriptor: GroupDescriptor, hull: bool = False) -> Cut:
    toks = _Tokens(text)
    head = toks.next()
    if head == "whole":
        toks.done()
        return whole_cut(descriptor, over_hull=hull)
    if head in ("ge", "gt"):
        # `ge q(1)` and `ge(q(1))` are both fine; a bare bound never starts
        # with "(" so the next token decides
        wrapped = toks.peek() == "("
        if wrapped:
            toks.next()
        bound = _parse_bound_tokens(toks, descriptor, hull)
        if wrapped:
            toks.expect(")")
        toks.done()
        if head == "ge":
            if isinstance(bound, Surd):
                raise InputError("a principal cut needs an element bound, not a surd")
            return principal_cut(bound)
        return open_cut(descriptor, bound, over_hull=hull)
    if head in ("frontier", "frontier_ge"):
        vals = _parse_fraction_list(toks)
        toks.done()
        if descriptor.is_dense:
            raise InputError(f"frontier cuts live over lex groups, not {descriptor}")
        return frontier_cut(descriptor, tuple(vals), over_hull=hull, inclusive=head == "frontier_ge")
    raise InputError(f"unknown cut form {echo(head, quote=True)} (use whole, ge, gt, frontier, frontier_ge)")


# -- series parsing ---------------------------------------------------------------


def parse_series(text: str, descriptor: GroupDescriptor, p: int) -> Tuple[SeriesElement, CoeffField]:
    """Parse a series literal; the coefficient field is built from the
    tagged values and unit names appearing in the text."""
    # a pre-scan of the token list collects the tags and unit names so the
    # field can exist, then the reader reads the same tokens again.  Tags are
    # read in text order, so the first bad one raises; a valid x[...] holds
    # only reserved names, so every other name is a unit
    toks = _Tokens(text)
    items = toks.items
    tags: Dict[GroupElement, None] = {}
    for after, pair in enumerate(zip(items, items[1:]), 2):
        if pair == ("x", "["):
            toks.pos = after
            tag = _parse_element_tokens(toks, descriptor, hull=False)
            if not is_positive(tag):
                raise InputError(f"variable tags must be positive group elements, got {echo(format_element(tag), quote=True)}")
            tags[tag] = None
            toks.expect("]")
    units = {tok for tok in items if tok.isidentifier() and tok not in _RESERVED}
    field = CoeffField(p, tags=tuple(tags), units=tuple(sorted(units)))
    toks.pos = 0
    result = _SeriesReader(toks, field, descriptor).sum()
    toks.done()
    return result, field


# Most coefficient-term pairs the products of one series literal may touch
# (a product of series with m and n terms touches m*n pairs).  The test
# suite's literals touch at most 16 and the benchmark's at most 10; past the
# budget a literal such as (t(-1)+u+t(-2))^2000 is refused, not multiplied
# for hours.
PARSE_PAIR_BUDGET = 10 ** 6

# Largest exponent a series literal may write.  A power of a monomial such
# as u^N charges the budget at most two pairs per bit of N, but every
# squaring widens the packed keys: with the interpreter's int-string limit lifted, N of 4300,
# 8600 and 17200 digits took 0.32, 0.89 and 2.58 s on a shared 2-vCPU host.
MAX_EXPONENT = 2 ** 31


class _SeriesReader:
    """Recursive descent over a series literal, charging every product
    against ``PARSE_PAIR_BUDGET``."""

    def __init__(self, toks: _Tokens, field: CoeffField, descriptor: GroupDescriptor):
        self.toks, self.field, self.descriptor = toks, field, descriptor
        self.pairs_left = PARSE_PAIR_BUDGET

    def times(self, a: SeriesElement, b: SeriesElement) -> SeriesElement:
        self.pairs_left -= a.num_terms() * b.num_terms()
        if self.pairs_left < 0:
            raise ValueError(f"series literal needs more than {PARSE_PAIR_BUDGET} coefficient-term products (the parse budget)")
        return a * b

    def sum(self) -> SeriesElement:
        out = self.term()
        while self.toks.peek() == "+":
            self.toks.next()
            out = out + self.term()
        return out

    def term(self) -> SeriesElement:
        out = self.factor()
        while self.toks.peek() == "*":
            self.toks.next()
            out = self.times(out, self.factor())
        return out

    def factor(self) -> SeriesElement:
        toks, field, descriptor = self.toks, self.field, self.descriptor
        tok = toks.peek()
        if tok is None:
            raise InputError(f"expected a series factor in {echo(toks.text, quote=True)}")
        if tok == "(":
            toks.next()
            inner = self.sum()
            toks.expect(")")
            return self.maybe_power(inner)
        if tok == "t":
            toks.next()
            toks.expect("(")
            g = _parse_element_tokens(toks, descriptor, hull=False)
            toks.expect(")")
            return self.maybe_power(t_term(field, descriptor, g))
        if tok == "x":
            toks.next()
            toks.expect("[")
            g = _parse_element_tokens(toks, descriptor, hull=False)
            toks.expect("]")
            # the pre-scan in parse_series put every tag and unit name into the field
            return self.maybe_power(variable_series(field, descriptor, field.gens[field.tags.index(g)]))
        if tok.isidentifier() and tok not in _RESERVED:
            toks.next()
            return self.maybe_power(variable_series(field, descriptor, field.unit_gen(tok)))
        value = _parse_fraction(toks.next(), toks.text)
        if value.denominator != 1:
            raise InputError(f"series coefficients are integers mod p, found {echo(value)}")
        return self.maybe_power(constant_series(field, descriptor, int(value)))

    def maybe_power(self, base: SeriesElement) -> SeriesElement:
        toks = self.toks
        if toks.peek() != "^":
            return base
        toks.next()
        tok = toks.next()
        if len(tok) > MAX_DIGITS and tok.isdecimal():
            # far above the cap, and no int() has to read it
            raise InputError(f"series exponents are at most {MAX_EXPONENT}")
        _check_digits(tok)
        try:
            n = int(tok)
        except ValueError:
            raise InputError(f"expected an integer exponent, found {echo(tok, quote=True)}")
        if n < 0:
            raise InputError("negative exponents are not series")
        if n > MAX_EXPONENT:
            raise InputError(f"series exponents are at most {MAX_EXPONENT}")
        # the products of SeriesElement.power, each charged
        return _power(constant_series(self.field, self.descriptor, 1), base, n, self.times)


# -- serializers ------------------------------------------------------------------


def format_element(g: Union[GroupElement, HullElement]) -> str:
    d = g.descriptor
    if not d.is_dense:
        if d.width == 1:
            return str(g.value[0])
        return "lex(" + ",".join(map(str, g.value)) + ")"
    if d.prime:
        return f"q({g.value})"
    a, b = g.value
    return f"quad({a},{b})"


def format_surd(s: Surd) -> str:
    return f"surd({s.a},{s.b},{s.d})"


def format_cut(cut: Cut) -> str:
    kind = cut.kind
    if kind == "whole":
        return "whole"
    if kind in ("frontier", "frontier_ge"):
        return f"{kind}({','.join(str(Fraction(c, cut.value.den)) for c in cut.value.nums)})"
    # a bound that is not a point of the space (1/2 over Z[1/3], sqrt(2))
    # can only be written as a surd
    point = cut.bound_point()
    body = format_surd(cut.value) if point is None else format_element(point)
    return ("ge " if kind == "principal" else "gt ") + body


def format_rsw(rsw: Optional[RswSymbol]) -> str:
    if rsw is None:
        return "none"
    if not rsw.dlog_terms:
        return "0"
    parts = []
    for coeff, term in rsw.dlog_terms:
        body = f"dlog(t({format_element(term.gamma)}))" if isinstance(term, ValueClass) else f"dlog({term.name})"
        parts.append(body if coeff == 1 else f"{coeff}*{body}")
    return " + ".join(parts)
