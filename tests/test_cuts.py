import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from ramify.cuts import Cut, Surd, _Prefix, _cmp, _value_of, frontier_cut, open_cut, principal_cut, whole_cut
from ramify.defect_lab import _surd_floor
from ramify.ordered_group import (
    _is_squarefree_nonsquare,
    compare,
    divide_exact,
    element,
    hull_element,
    in_group,
    int_lex,
    int_scale,
    p_inverted,
    quadratic,
    to_hull,
    zero,
)

from . import cut_reference as ref
from .cut_reference import FracSurd
from .strategies import ALL_DESCRIPTORS, descriptors, elements, group_cuts, hull_ideals

Z1 = int_lex(1)
Z2 = int_lex(2)
ZP2 = p_inverted(2)
QD2 = quadratic(2)


# -- surds -----------------------------------------------------------------------


@given(
    st.fractions(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9),
    st.sampled_from([2, 3, 5]),
    st.fractions(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9),
)
def test_surd_cmp_matches_floats_same_radicand(a1, b1, d, a2, b2):
    s1, s2 = Surd(a1, b1, d), Surd(a2, b2, d)
    lhs = float(a1) + float(b1) * math.sqrt(d)
    rhs = float(a2) + float(b2) * math.sqrt(d)
    if abs(lhs - rhs) < 1e-7:
        return
    assert s1.cmp(s2) == (1 if lhs > rhs else -1)
    assert s2.cmp(s1) == -s1.cmp(s2)


@given(
    st.fractions(min_value=-6, max_value=6),
    st.fractions(min_value=-6, max_value=6),
    st.sampled_from([2, 3]),
    st.fractions(min_value=-6, max_value=6),
    st.fractions(min_value=-6, max_value=6),
    st.sampled_from([5, 7]),
)
def test_surd_cmp_mixed_radicands(a1, b1, d1, a2, b2, d2):
    s1, s2 = Surd(a1, b1, d1), Surd(a2, b2, d2)
    lhs = float(a1) + float(b1) * math.sqrt(d1)
    rhs = float(a2) + float(b2) * math.sqrt(d2)
    if abs(lhs - rhs) < 1e-7:
        return
    assert s1.cmp(s2) == (1 if lhs > rhs else -1)


def test_surd_close_calls_decided_exactly():
    # (1 + sqrt(2))^2 = 3 + 2*sqrt(2) = 5.828... < 6, so 1 + sqrt(2) < sqrt(6)
    assert Surd(1, 1, 2).cmp(Surd(0, 1, 6)) == -1
    # sqrt(2) + 1/10^6 vs sqrt(2): rational offset wins
    eps = Fraction(1, 10**6)
    assert Surd(eps, 1, 2).cmp(Surd(0, 1, 2)) == 1
    assert Surd(Fraction(141421356, 10**8)).cmp(Surd(0, 1, 2)) == -1
    assert Surd(Fraction(141421357, 10**8)).cmp(Surd(0, 1, 2)) == 1


def test_surd_arithmetic():
    s = Surd(Fraction(1, 2), Fraction(3), 2)
    assert s.scale(4) == Surd(2, 12, 2)
    assert s.add(Surd(1, -3, 2)) == Surd(Fraction(3, 2))
    assert s.divide(2) == Surd(Fraction(1, 4), Fraction(3, 2), 2)
    with pytest.raises(ValueError):
        Surd(1, 1, 2).add(Surd(0, 1, 3))
    with pytest.raises(ValueError):
        Surd(0, 1, 4)  # square radicand
    assert Surd(5, 0, 7).is_rational and Surd(5, 0, 7).d == 0


# -- the integer form against the Fraction oracle -----------------------------------

_BIG = 10 ** 400
# small rationals, 10^400-sized ones of either sign, and ones 10^-400 from zero
_rationals = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(
        lambda s, k, q: Fraction(s * (_BIG + k), q),
        st.sampled_from([1, -1]),
        st.integers(min_value=0, max_value=5),
        st.sampled_from([1, 2, 3, 9, 4, _BIG + 1]),
    ),
    st.builds(lambda k, q: Fraction(k, _BIG + q), st.integers(min_value=-3, max_value=3), st.integers(min_value=0, max_value=3)),
)


@st.composite
def _surd_args(draw, radicands=(2, 3, 5, 6)):
    b = draw(st.one_of(st.just(Fraction(0)), _rationals))
    return draw(_rationals), b, draw(st.sampled_from(radicands))


def _parts(s):
    return s.a, s.b, s.d


@settings(max_examples=300)
@given(_surd_args(), _surd_args(), st.integers(min_value=-6, max_value=6))
def test_surd_integer_form_matches_the_fraction_oracle(x, y, n):
    s, t, fs, ft = Surd(*x), Surd(*y), FracSurd(*x), FracSurd(*y)
    assert _parts(s) == _parts(fs)
    assert s.sign() == fs.sign()
    assert (s.cmp(t), t.cmp(s), s.cmp(s)) == (fs.cmp(ft), ft.cmp(fs), 0)
    if fs.d == ft.d or fs.b == 0 or ft.b == 0:
        assert _parts(s.add(t)) == _parts(fs.add(ft))
    else:
        with pytest.raises(ValueError, match="cannot add surds"):
            s.add(t)
    assert _parts(s.scale(n)) == _parts(fs.scale(n))
    if n:
        q = s.divide(n)
        assert _parts(q) == _parts(fs.divide(n)) and q.den > 0
        # one value, one object: a round trip lands on the same form
        assert s.scale(n).divide(n) == s and hash(s.scale(n).divide(n)) == hash(s)
        assert math.gcd(q.A, q.B, q.den) == 1
    else:
        with pytest.raises(ZeroDivisionError):
            s.divide(0)


def test_surd_canonical_form():
    assert Surd(Fraction(2, 4)) == Surd(Fraction(1, 2), 0, 7)
    assert hash(Surd(Fraction(2, 4))) == hash(Surd(Fraction(1, 2), 0, 7))
    s = Surd(Fraction(1, 2), Fraction(3, 4), 2)
    assert (s.A, s.B, s.den, s.d) == (2, 3, 4, 2)
    assert Surd(1, 1, 2).add(Surd(0, -1, 2)) == Surd(1) and Surd(1, 1, 2).add(Surd(0, -1, 2)).d == 0
    q = s.divide(-3)
    assert q.den > 0 and q == Surd(Fraction(-1, 6), Fraction(-1, 4), 2)
    with pytest.raises(ZeroDivisionError):
        s.divide(0)
    with pytest.raises(AttributeError):
        s.A = 5
    assert repr(Surd(Fraction(1, 2))) == "Surd(a=Fraction(1, 2), b=Fraction(0, 1), d=0)"
    # equal sets are equal cuts with equal hashes
    c1, c2 = open_cut(ZP2, Surd(Fraction(2, 4))), open_cut(ZP2, element(ZP2, Fraction(1, 2)))
    assert c1 == c2 and hash(c1) == hash(c2)
    f1 = frontier_cut(Z2, (Fraction(6, 4),), over_hull=True)
    f2 = frontier_cut(Z2, (Fraction(3, 2),), over_hull=True)
    assert f1 == f2 and hash(f1) == hash(f2) and f1.value.den == 2
    g1 = open_cut(Z2, hull_element(Z2, (Fraction(5, 3), 7)))
    assert g1 == frontier_cut(Z2, (1,)) and hash(g1) == hash(frontier_cut(Z2, (1,))) and g1.value.den == 1


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


_SCALAR_GROUPS = [p_inverted(2), p_inverted(3), quadratic(2), quadratic(3)]


@st.composite
def _scalar_case(draw):
    d = draw(st.sampled_from(_SCALAR_GROUPS))
    radicands = (d.param,) if d.kind == "quad" else (2, 3)
    over_hull = draw(st.booleans())
    bounds = [(draw(_surd_args(radicands)), draw(st.booleans())) for _ in range(2)]
    points = []
    for _ in range(4):
        if d.kind == "quad":
            raw = (draw(_rationals), draw(_rationals))
        elif over_hull:
            raw = draw(_rationals)
        else:
            raw = Fraction(draw(st.integers(min_value=-9, max_value=9)), d.param ** draw(st.integers(min_value=0, max_value=3)))
        points.append((hull_element if over_hull else element)(d, raw))
    return d, over_hull, bounds, points, draw(st.sampled_from([2, 3, 5]))


def _scalar_ref(cut):
    v = cut.value
    return FracSurd(v.a, v.b, v.d), cut.inclusive


@settings(max_examples=300)
@given(_scalar_case())
def test_scalar_cuts_match_the_fraction_oracle(case):
    d, over_hull, bounds, points, p = case
    cuts, refs = [], []
    for args, inclusive in bounds:
        got = _outcome(Cut, d, over_hull, Surd(*args), inclusive)
        want = _outcome(ref.normalize_scalar, d, over_hull, FracSurd(*args), inclusive)
        assert (got is ValueError) == (want is ValueError)
        if got is not ValueError:
            assert _scalar_ref(got) == want
            cuts.append(got)
            refs.append(want)
    for c1, r1 in zip(cuts, refs):
        root = c1.pth_root_set(p)
        assert _scalar_ref(root) == ref.normalize_scalar(d, over_hull, r1[0].divide(p), r1[1])
        for x in points:
            fx = FracSurd(*x.value, d.param) if d.kind == "quad" else FracSurd(x.value)
            assert c1.contains(x) == ref.scalar_contains(r1, fx)
        for c2, r2 in zip(cuts, refs):
            assert c1.subset(c2) == ref.scalar_subset(r1, r2)
            got = _outcome(c1.multiply, c2)
            want = _outcome(ref.scalar_multiply, d, over_hull, r1, r2)
            assert (got is ValueError) == (want is ValueError)
            if got is not ValueError:
                assert _scalar_ref(got) == want


@st.composite
def _vec_case(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    d = int_lex(n)
    over_hull = draw(st.booleans())
    bounds = []
    for _ in range(2):
        k = draw(st.integers(min_value=1, max_value=n))
        prefix = tuple(draw(_rationals) for _ in range(k))
        bounds.append((prefix, draw(st.sampled_from([1, -1, 0])), draw(st.booleans())))
    coords = st.one_of(_rationals, st.integers(min_value=-3, max_value=3)) if over_hull else st.integers(min_value=-3, max_value=3)
    points = [tuple(draw(coords) for _ in range(n)) for _ in range(3)]
    return d, over_hull, bounds, points, draw(st.sampled_from([2, 3, 5]))


def _vec_ref(cut):
    """The cut in the oracle's form; the pad follows from the width."""
    v = cut.value
    assert v.den > 0 and math.gcd(v.den, *v.nums) == 1
    assert cut.over_hull or v.den == 1
    pad = 0 if len(v.nums) == cut.descriptor.param else (-1 if cut.inclusive else 1)
    return tuple(Fraction(c, v.den) for c in v.nums), pad, cut.inclusive


def _vec_build(d, over_hull, prefix, pad, inclusive):
    """Build the oracle's draw: a short prefix without a pad is an open
    cut, refused; a pad chooses the side of a short prefix."""
    if len(prefix) == d.param:
        return frontier_cut(d, prefix, over_hull, inclusive=inclusive)
    if pad == 0:
        return open_cut(d, hull_element(d, prefix), over_hull)
    return frontier_cut(d, prefix, over_hull, inclusive=pad == -1)


@settings(max_examples=300)
@given(_vec_case())
def test_lex_cuts_match_the_fraction_oracle(case):
    d, over_hull, bounds, points, p = case
    n = d.param
    make = hull_element if over_hull else element
    cuts, refs = [], []
    for prefix, pad, inclusive in bounds:
        got = _outcome(_vec_build, d, over_hull, prefix, pad, inclusive)
        want = _outcome(ref.normalize_vec, n, over_hull, prefix, pad, inclusive)
        assert (got is ValueError) == (want is ValueError)
        if got is not ValueError:
            assert _vec_ref(got) == want
            cuts.append(got)
            refs.append(want)
    for c1, r1 in zip(cuts, refs):
        root = c1.pth_root_set(p)
        assert _vec_ref(root) == ref.normalize_vec(n, over_hull, tuple(c / p for c in r1[0]), r1[1], r1[2])
        # points on the boundary's own prefix decide the pad and inclusivity
        on_bound = [r1[0] + pt[len(r1[0]):] for pt in points] if over_hull or c1.value.den == 1 else []
        for coords in points + on_bound:
            x = make(d, coords)
            assert c1.contains(x) == ref.vec_contains(r1, x.value)
        for c2, r2 in zip(cuts, refs):
            assert c1.subset(c2) == ref.vec_subset(r1, r2)
            assert _vec_ref(c1.multiply(c2)) == ref.vec_multiply(n, over_hull, r1, r2)


@st.composite
def _membership_case(draw):
    """A cut of any kind over any group of ``strategies``, with Surd bounds
    over the group's own radicand and another one, and points to test:
    drawn ones, each bound point, and quadratic ones with b = 0, some of
    them just below or above a bound."""
    d = draw(st.sampled_from(ALL_DESCRIPTORS))
    over_hull = draw(st.booleans())
    make = hull_element if over_hull else element
    cuts = [draw(hull_ideals(d) if over_hull else group_cuts(d))]
    if d.kind == "zlex" and d.param > 1 and over_hull:
        cuts.append(draw(_hull_frontier_ge().filter(lambda c: c.descriptor == d)))
    if d.is_dense:
        for r in (d.param, 3) if d.kind == "quad" else (2, 3):
            a, b, _ = draw(_surd_args((r,)))
            cut = _outcome(Cut, d, over_hull, Surd(a, b, r), draw(st.booleans()))
            if cut is not ValueError:
                cuts.append(cut)
    points = [draw(elements(d, hull=over_hull)) for _ in range(4)]
    if d.kind == "quad":
        points += [make(d, (draw(_rationals), 0)) for _ in range(2)]
        # rational points just below and above each real bound, where a
        # wrong radicand for the point would flip the answer
        for cut in cuts:
            for den in (1, 8, 64):
                points += [make(d, (Fraction(_surd_floor(cut.value, den) + k, den), 0)) for k in (0, 1)]
    points += [c.bound_point() for c in cuts if c.bound_point() is not None]
    return cuts, points


@settings(max_examples=400)
@given(_membership_case())
def test_contains_matches_the_fraction_form(case):
    cuts, points = case
    for cut in cuts:
        for x in points:
            want = ref.point_cmp(x, cut.value)
            assert _value_of(x).cmp(cut.value) == want
            assert cut.contains(x) == ref.contains(cut, x)


def test_contains_reads_a_rational_quadratic_point_as_rational():
    # 3 = 3 + 0*sqrt(2) over quad:2 against 3/2 + sqrt(3) = 3.23...: the
    # point's radicand must not stand in for the bound's
    cut = open_cut(QD2, Surd(Fraction(3, 2), 1, 3))
    points = (
        ((3, 0), False), ((4, 0), True), ((Fraction(13, 4), 0), True),
        ((0, 3), True), ((3, Fraction(1, 10)), False), ((3, Fraction(1, 5)), True),
    )
    for x, member in points:
        assert cut.contains(element(QD2, x)) == member == ref.contains(cut, element(QD2, x))
    for a, member in ((Fraction(3), False), (Fraction(13, 4), True)):
        assert principal_cut(element(QD2, (a, 0))).contains(element(QD2, 3)) == (a == 3)
        assert open_cut(QD2, Surd(Fraction(3, 2), 1, 3), over_hull=True).contains(hull_element(QD2, (a, 0))) == member


def test_contains_keeps_its_type_and_group_messages():
    cases = (
        (principal_cut(element(QD2, 1)), hull_element(QD2, 1), TypeError, "cut over quad:2 expects GroupElement, got HullElement"),
        (open_cut(ZP2, Surd(1, 1, 3), over_hull=True), element(ZP2, 1), TypeError, "cut over hull of zp:2 expects HullElement, got GroupElement"),
        (frontier_cut(Z2, (1,)), (1, 2), TypeError, "cut over zlex:2 expects GroupElement, got tuple"),
        (open_cut(QD2, Surd(1, 1, 3)), element(quadratic(3), 1), ValueError, "group mismatch: quad:2 vs quad:3"),
        (frontier_cut(Z2, (1,)), element(int_lex(3), (1, 2, 3)), ValueError, "group mismatch: zlex:2 vs zlex:3"),
    )
    for cut, x, error, message in cases:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            cut.contains(x)


# -- membership and canonical forms ------------------------------------------------


@given(group_cuts())
def test_contains_zero_iff_whole(cut):
    assert cut.contains(zero(cut.descriptor)) == cut.is_whole


@given(st.data())
def test_upward_closure(data):
    cut = data.draw(group_cuts())
    d = cut.descriptor
    x = data.draw(elements(d))
    y = data.draw(elements(d))
    lo, hi = (x, y) if compare(x, y) <= 0 else (y, x)
    if cut.contains(lo):
        assert cut.contains(hi)


@given(group_cuts(allow_whole=False))
def test_min_element_is_least(cut):
    m = cut.min_element()
    if m is None:
        return
    assert cut.contains(m)
    d = cut.descriptor
    if not d.is_dense:
        # the least positive element of Z^n is (0, ..., 0, 1)
        assert not cut.contains(m - element(d, (0,) * (d.param - 1) + (1,)))


def test_canonical_equalities():
    # over the integers {m > 2} and {m >= 3} are the same set
    assert open_cut(Z1, element(Z1, 2)) == principal_cut(element(Z1, 3))
    # lex rank 2: full-length exclusive bound bumps the last coordinate
    assert open_cut(Z2, element(Z2, (1, 2))) == principal_cut(element(Z2, (1, 3)))
    # inclusive truncated bound is the exclusive one of the predecessor
    assert frontier_cut(Z2, (1,), inclusive=True) == frontier_cut(Z2, (0,))
    # an irrational bound stays open, a rational non-member bound too
    c = open_cut(ZP2, Surd(0, 1, 2))
    assert c.kind == "open" and c.min_element() is None
    assert open_cut(ZP2, element(ZP2, 1)).kind == "open"
    # a bound outside the group normalizes to the same cut its closure has
    assert principal_cut(element(Z1, 3)) != open_cut(Z1, element(Z1, 3))


def test_cuts_are_immutable_hash_by_value_and_print_as_before():
    a = frontier_cut(int_lex(3), (1, -2))
    assert repr(a) == (
        "Cut(descriptor=GroupDescriptor(kind='zlex', param=3), over_hull=False, "
        "value=_Prefix(nums=(1, -2), den=1), inclusive=False)"
    )
    b = open_cut(p_inverted(3), Surd(Fraction(1, 2), 1, 2))
    assert repr(b) == (
        "Cut(descriptor=GroupDescriptor(kind='zp', param=3), over_hull=False, "
        "value=Surd(a=Fraction(1, 2), b=Fraction(1, 1), d=2), inclusive=False)"
    )
    c = principal_cut(hull_element(QD2, (Fraction(1, 2), 3)))
    assert repr(c) == (
        "Cut(descriptor=GroupDescriptor(kind='quad', param=2), over_hull=True, "
        "value=Surd(a=Fraction(1, 2), b=Fraction(3, 1), d=2), inclusive=True)"
    )
    # equal sets built apart are equal cuts with equal hashes
    for x, y in (
        (open_cut(Z1, element(Z1, 2)), principal_cut(element(Z1, 3))),
        (frontier_cut(Z2, (1,), inclusive=True), frontier_cut(Z2, (0,))),
        (b, open_cut(p_inverted(3), Surd(Fraction(1, 2), 1, 2))),
    ):
        assert x == y and x is not y and hash(x) == hash(y)
    assert principal_cut(element(Z1, 3)) != principal_cut(hull_element(Z1, 3))
    for name in ("descriptor", "over_hull", "value", "inclusive"):
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)


def test_open_cut_refuses_a_short_bound():
    # a coordinate tuple is no point: {x > (1,)} over Z^2 names no side of
    # the prefix, which frontier_cut does
    with pytest.raises(TypeError, match="a point or a Surd, got tuple"):
        open_cut(Z2, (1,))
    with pytest.raises(TypeError, match="a point or a Surd, got tuple"):
        open_cut(int_lex(3), (1, 2), over_hull=True)


def test_membership_golden():
    fr = frontier_cut(Z2, (0,))
    assert fr.contains(element(Z2, (1, -100)))
    assert fr.contains(element(Z2, (2, 0)))
    assert not fr.contains(element(Z2, (0, 500)))
    fg = frontier_cut(Z2, (1, 0), inclusive=True)  # normalizes over the group
    assert fg.contains(element(Z2, (1, 0)))
    assert fg.contains(element(Z2, (1, 1)))
    irr = open_cut(ZP2, Surd(0, 1, 2))
    assert irr.contains(element(ZP2, Fraction(3, 2)))
    assert not irr.contains(element(ZP2, Fraction(11, 8)))  # 1.375 < sqrt(2)
    assert irr.contains(element(ZP2, Fraction(23, 16)))  # 1.4375 > sqrt(2)


# -- subset ------------------------------------------------------------------------


@given(st.data())
def test_subset_respects_sampled_membership(data):
    d = data.draw(descriptors)
    c1 = data.draw(group_cuts(d))
    c2 = data.draw(group_cuts(d))
    verdict = c1.subset(c2)
    for _ in range(8):
        x = data.draw(elements(d))
        if verdict and c1.contains(x):
            assert c2.contains(x)
    # cuts are totally ordered by inclusion
    assert verdict or c2.subset(c1)


@given(st.data())
def test_subset_antisymmetry(data):
    d = data.draw(descriptors)
    c1 = data.draw(group_cuts(d))
    c2 = data.draw(group_cuts(d))
    if c1.subset(c2) and c2.subset(c1):
        assert c1 == c2


def test_subset_witnesses():
    assert open_cut(ZP2, element(ZP2, 1)).subset(principal_cut(element(ZP2, 1)))
    assert not principal_cut(element(ZP2, 1)).subset(open_cut(ZP2, element(ZP2, 1)))
    assert principal_cut(element(Z2, (1, 7))).subset(frontier_cut(Z2, (0,)))
    assert not frontier_cut(Z2, (0,)).subset(principal_cut(element(Z2, (1, 7))))
    assert frontier_cut(Z2, (1,)).subset(frontier_cut(Z2, (0,)))


# -- multiplication -----------------------------------------------------------------


@given(st.data())
def test_multiply_commutes_and_respects_membership(data):
    d = data.draw(descriptors)
    c1 = data.draw(group_cuts(d))
    c2 = data.draw(group_cuts(d))
    prod = c1.multiply(c2)
    assert prod == c2.multiply(c1)
    for _ in range(5):
        x = data.draw(elements(d))
        y = data.draw(elements(d))
        if c1.contains(x) and c2.contains(y):
            assert prod.contains(x + y)


@given(st.data())
def test_multiply_associative(data):
    d = data.draw(descriptors)
    c1, c2, c3 = (data.draw(group_cuts(d)) for _ in range(3))
    assert c1.multiply(c2).multiply(c3) == c1.multiply(c2.multiply(c3))


@given(group_cuts())
def test_whole_is_identity(cut):
    assert whole_cut(cut.descriptor).multiply(cut) == cut


def test_multiply_golden():
    assert principal_cut(element(ZP2, 1)).multiply(principal_cut(element(ZP2, 2))) == principal_cut(element(ZP2, 3))
    assert principal_cut(element(ZP2, 1)).multiply(open_cut(ZP2, element(ZP2, 1))) == open_cut(ZP2, element(ZP2, 2))
    # frontier times principal shifts by the prefix of the principal bound
    assert frontier_cut(Z2, (0,)).multiply(principal_cut(element(Z2, (0, 5)))) == frontier_cut(Z2, (0,))
    assert frontier_cut(Z2, (0,)).multiply(principal_cut(element(Z2, (2, 5)))) == frontier_cut(Z2, (2,))
    sq = open_cut(ZP2, Surd(0, 1, 2)).power(2)
    assert sq == open_cut(ZP2, Surd(0, 2, 2))


@st.composite
def _hull_frontier_ge(draw):
    """Hull cuts { h : (h_1..h_k) >= c } with the -inf pad, which
    ``hull_ideals`` does not draw."""
    d = draw(st.sampled_from([int_lex(2), int_lex(3)]))
    k = draw(st.integers(min_value=1, max_value=d.param - 1))
    first = draw(st.fractions(min_value=Fraction(1, 6), max_value=4, max_denominator=6))
    rest = draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=k - 1, max_size=k - 1))
    return frontier_cut(d, (first, *rest), over_hull=True, inclusive=True)


@given(st.one_of(group_cuts(), hull_ideals(), _hull_frontier_ge()), st.integers(min_value=1, max_value=60))
def test_power_is_repeated_multiply(cut, n):
    acc = cut
    for _ in range(n - 1):
        acc = acc.multiply(cut)
    assert cut.power(n) == acc


# -- p-th roots ---------------------------------------------------------------------


@given(st.data(), st.sampled_from([2, 3]))
def test_pth_root_membership_oracle(data, p):
    d = data.draw(descriptors)
    cut = data.draw(group_cuts(d))
    root = cut.pth_root_set(p)
    for _ in range(10):
        x = data.draw(elements(d))
        assert root.contains(x) == cut.contains(int_scale(p, x))


def test_pth_root_golden():
    assert principal_cut(element(Z1, 3)).pth_root_set(2) == principal_cut(element(Z1, 2))
    assert principal_cut(element(Z1, 4)).pth_root_set(2) == principal_cut(element(Z1, 2))
    assert frontier_cut(Z2, (0,)).pth_root_set(2) == frontier_cut(Z2, (0,))
    assert frontier_cut(Z2, (1,)).pth_root_set(2) == frontier_cut(Z2, (0,))
    assert principal_cut(element(ZP2, 1)).pth_root_set(2) == principal_cut(element(ZP2, Fraction(1, 2)))
    assert open_cut(ZP2, Surd(0, 1, 2)).pth_root_set(2) == open_cut(ZP2, Surd(0, Fraction(1, 2), 2))


def test_pth_root_brute_force_lex():
    for p in (2, 3):
        for cut in [frontier_cut(Z2, (0,)), frontier_cut(Z2, (2,)), principal_cut(element(Z2, (1, -2)))]:
            root = cut.pth_root_set(p)
            for a in range(-8, 9):
                for b in range(-8, 9):
                    x = element(Z2, (a, b))
                    assert root.contains(x) == cut.contains(int_scale(p, x)), (p, cut, x)


# -- hull closure and restriction ----------------------------------------------------


@given(st.data())
def test_hull_closure_membership(data):
    d = data.draw(descriptors)
    cut = data.draw(group_cuts(d, allow_whole=False))
    closure = cut.hull_closure()
    assert closure.over_hull
    for _ in range(8):
        x = data.draw(elements(d))
        assert cut.contains(x) == closure.contains(to_hull(x))


@given(st.data())
def test_restrict_inverts_closure(data):
    d = data.draw(descriptors)
    cut = data.draw(group_cuts(d, allow_whole=False))
    assert cut.hull_closure().restrict_to_group() == cut


def test_hull_closure_golden():
    # the cut {m > 0} over lex rank 2 closes to {x : trunc_1(x) >= 1}
    cl = frontier_cut(Z2, (0,)).hull_closure()
    assert cl.contains(hull_element(Z2, (Fraction(1), Fraction(-999))))
    assert not cl.contains(hull_element(Z2, (Fraction(99, 100), Fraction(10**6))))
    pr = principal_cut(element(Z1, 3)).hull_closure()
    assert pr == principal_cut(hull_element(Z1, 3))
    op = open_cut(ZP2, element(ZP2, 1)).hull_closure()
    assert op == open_cut(ZP2, hull_element(ZP2, 1), over_hull=True)
    assert op.contains(hull_element(ZP2, Fraction(3, 2)))
    assert not op.contains(hull_element(ZP2, 1))


@given(hull_ideals())
def test_hull_ideal_restriction_is_group_cut(ideal):
    got = ideal.restrict_to_group()
    assert not got.over_hull


# -- realizability -------------------------------------------------------------------


def test_cut_arithmetic_trial_divides_a_radicand_once():
    qd = quadratic(2147483647)
    bounds = [element(qd, (a, b)) for a in (1, 2, Fraction(1, 3)) for b in (0, Fraction(1, 2), 1)]
    cuts = [principal_cut(g) for g in bounds] + [open_cut(qd, g) for g in bounds]
    points = [element(qd, (a, b)) for a in range(-2, 3) for b in range(-2, 3)]
    misses = _is_squarefree_nonsquare.cache_info().misses
    for c1 in cuts:
        for c2 in cuts:
            c1.subset(c2)
            c1.multiply(c2).pth_root_set(2)
        for x in points:
            c1.contains(x)
    assert _is_squarefree_nonsquare.cache_info().misses == misses


@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(min_value=1, max_value=5))
def test_every_cut_constructor_refuses_floats(x, k):
    calls = [
        lambda: Surd(x),
        lambda: Surd(k, x, 2),
        lambda: frontier_cut(Z2, (x,), over_hull=True),
        lambda: frontier_cut(int_lex(3), (k, x)),
        lambda: principal_cut(hull_element(QD2, (x, k))),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="expected an exact rational, got float"):
            call()
    for call in (lambda: open_cut(ZP2, x), lambda: open_cut(QD2, x, over_hull=True), lambda: open_cut(Z2, (k, x))):
        with pytest.raises(TypeError, match="a point or a Surd, got"):
            call()
    with pytest.raises(TypeError, match="radicand must be an integer, got float"):
        Surd(k, 1, float(2 * k + 1))


def test_realizability():
    fr = frontier_cut(Z2, (0,))
    assert not fr.is_realizable_conductor(2)
    assert not fr.is_realizable_conductor(3)
    assert frontier_cut(Z2, (1,)).is_realizable_conductor(2)
    assert not frontier_cut(Z2, (1,)).is_realizable_conductor(3)
    assert principal_cut(element(Z2, (1, 1))).is_realizable_conductor(5)
    assert open_cut(ZP2, element(ZP2, 1)).is_realizable_conductor(2)
    assert open_cut(ZP2, Surd(0, 1, 2)).is_realizable_conductor(2)
    with pytest.raises(ValueError):
        whole_cut(Z2).is_realizable_conductor(2)


@pytest.mark.parametrize("p, error", [(0, ValueError), (1, ValueError), (4, ValueError), (True, TypeError), (2.0, TypeError)])
def test_realizability_reads_p_as_a_prime(p, error):
    # p = 0 divided by zero, p = 4 and 2.0 passed and a principal cut passed any p
    for cut in (frontier_cut(Z2, (0,)), frontier_cut(Z2, (1,)), principal_cut(element(Z2, (1, 1))), open_cut(ZP2, Surd(0, 1, 2))):
        with pytest.raises(error):
            cut.is_realizable_conductor(p)
    if error is ValueError:
        with pytest.raises(ValueError, match=f"^the residue characteristic must be prime, got {p}$"):
            principal_cut(element(Z2, (1, 1))).is_realizable_conductor(p)


# -- type discipline -----------------------------------------------------------------


def test_cut_type_checks():
    c = principal_cut(element(ZP2, 1))
    with pytest.raises(TypeError):
        c.contains(hull_element(ZP2, 1))
    h = principal_cut(hull_element(ZP2, 1))
    with pytest.raises(TypeError):
        h.contains(element(ZP2, 1))
    with pytest.raises(ValueError):
        c.subset(principal_cut(element(p_inverted(3), 1)))
    with pytest.raises(ValueError):
        c.subset(h)
    with pytest.raises(TypeError):
        frontier_cut(ZP2, (1,))  # no truncation cuts over scalar groups
    with pytest.raises(ValueError):
        principal_cut(element(ZP2, -1))  # negative bound is not an ideal


_GROUP_CUT = principal_cut(element(ZP2, 1))
_HULL_CUT = principal_cut(hull_element(ZP2, 1))
# each library guard, the exception it raises and its whole message
_GUARDS = {
    "open_cut of a surd over zlex": (
        lambda: open_cut(Z1, Surd(1)), TypeError, "lexicographic cuts take coordinate bounds"),
    "frontier_cut past the rank": (
        lambda: frontier_cut(Z2, (1, 2, 3)), ValueError, "bound length 3 out of range for rank 2"),
    "Cut.contains of another group": (
        lambda: _GROUP_CUT.contains(element(p_inverted(3), 1)), ValueError, "group mismatch: zp:2 vs zp:3"),
    "open_cut of another group": (
        lambda: open_cut(ZP2, element(p_inverted(3), 1)), ValueError, "group mismatch: zp:2 vs zp:3"),
    "subset of an int": (lambda: _GROUP_CUT.subset(5), TypeError, "expected a Cut, got int"),
    "power(0)": (lambda: _GROUP_CUT.power(0), ValueError, "ideal powers need n >= 1"),
    "pth_root_set(1)": (lambda: _GROUP_CUT.pth_root_set(1), ValueError, "need p >= 2"),
    "conductor of a hull cut": (
        lambda: _HULL_CUT.is_realizable_conductor(2), ValueError, "conductor cuts live over the group, not the hull"),
    "restrict_to_group of a group cut": (lambda: _GROUP_CUT.restrict_to_group(), ValueError, "already a group cut"),
    "hull_closure of a hull cut": (lambda: _HULL_CUT.hull_closure(), ValueError, "already a hull cut"),
    "divide_exact by 0": (
        lambda: divide_exact(element(ZP2, 1), 0), ValueError, "divisor must be a nonzero integer, got 0"),
    "to_hull of a hull point": (
        lambda: to_hull(hull_element(ZP2, 1)), TypeError, "expected a GroupElement, got HullElement"),
    "in_group of a group point": (
        lambda: in_group(element(ZP2, 1)), TypeError, "expected a HullElement, got GroupElement"),
}


@pytest.mark.parametrize("guard", list(_GUARDS))
def test_library_guards_raise_their_messages(guard):
    call, error, message = _GUARDS[guard]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# Cut(...) checks its boundary as the named constructors do
_HOSTILE_CUTS = {
    "a negative surd": (lambda: Cut(ZP2, False, Surd(-1), True), ValueError, "cut boundary must be >= 0"),
    "a surd over zlex": (lambda: Cut(Z1, False, Surd(1), True), TypeError, "lexicographic cuts take coordinate bounds"),
    "a raw int": (lambda: Cut(ZP2, False, 5, True), TypeError, "cuts over zp:2 take Surd bounds, got int"),
    "a prefix over zp": (lambda: Cut(ZP2, False, _Prefix((1,), 1), True), TypeError, "cuts over zp:2 take Surd bounds, got _Prefix"),
    "a prefix past the rank": (
        lambda: Cut(Z2, False, _Prefix((1, 2, 3), 1), False), ValueError, "bound length 3 out of range for rank 2"),
}


@pytest.mark.parametrize("hostile", list(_HOSTILE_CUTS))
def test_the_cut_constructor_refuses_a_bad_boundary(hostile):
    call, error, message = _HOSTILE_CUTS[hostile]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_the_cut_constructor_normalizes_its_boundary():
    assert Cut(Z2, False, _Prefix((2, 4), 2), False) == open_cut(Z2, element(Z2, (1, 2)))
    assert Cut(Z2, False, _Prefix((1,), 1), True) == frontier_cut(Z2, (0,))
    assert Cut(ZP2, False, Surd(0, 1, 2), True) == open_cut(ZP2, Surd(0, 1, 2))


@settings(max_examples=200)
@given(st.data())
def test_a_normal_boundary_comes_back_unchanged(data):
    d = data.draw(st.sampled_from(ALL_DESCRIPTORS))
    cut = data.draw(hull_ideals(d) if data.draw(st.booleans()) else group_cuts(d))
    for copy in (Cut(cut.descriptor, cut.over_hull, cut.value, cut.inclusive), pickle.loads(pickle.dumps(cut))):
        assert copy == cut and copy.value == cut.value and copy.inclusive == cut.inclusive


def test_cmp_reads_a_radicand_only_beside_a_nonzero_b():
    # Cut.contains passes the group's radicand for every point; a quad:2
    # point with b = 0 is rational, so against a Surd over sqrt(3) its 2
    # must not stand in for the bound's 3
    bounds = [Surd(r, s, 3) for r in (0, Fraction(3, 2), 3, -2) for s in (1, -1, Fraction(1, 3))]
    bounds += [Surd(r, s, 2) for r in (0, Fraction(3, 2)) for s in (1, -1)] + [Surd(3), Surd(Fraction(13, 4))]
    for value in bounds:
        for a in (Fraction(-3), 0, 1, 3, Fraction(13, 4), Fraction(7, 2), 5):
            for b in (0, Fraction(1, 2), -1):
                x = element(QD2, (a, b))
                want = ref.point_cmp(x, value)
                assert _cmp(x.nums, x.den, QD2.param, value) == want
                assert _value_of(x).cmp(value) == want


def test_surds_and_cuts_equal_only_their_own_type():
    assert Surd(1).__eq__(1) is NotImplemented and Surd(1) != 1
    cut = open_cut(ZP2, element(ZP2, 1))
    assert cut.__eq__(object()) is NotImplemented and cut != object()
