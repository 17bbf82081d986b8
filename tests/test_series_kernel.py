"""Property tests of the packed-key series kernel against the plain
reference in ``series_reference``.

The strategies aim at the packing's edges: negative t-exponents, variable
exponents on both sides of the 2^4 field width, lower t-coordinates on both
sides of the balanced 2^11 bound, and operands whose denominators differ,
so that binary operations must re-pack.
"""

import copy
import itertools
import pickle
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from ramify.cuts import Surd, frontier_cut, open_cut, principal_cut
from ramify.ordered_group import (
    KIND_INT_LEX,
    KIND_P_INVERTED,
    compare,
    divide_exact,
    element,
    hull_element,
    int_lex,
    int_scale,
    p_inverted,
    quadratic,
    sign,
)
from ramify.series_field import (
    CoeffField,
    SeriesElement,
    SigmaSpec,
    _SIGMA_TABLES,
    _layout,
    _packed,
    _repack,
    norm,
    t_term,
    trace,
    variable_series,
)

from . import series_reference as ref
from .strategies import ALL_DESCRIPTORS, descriptors, positive_elements

ZP3 = p_inverted(3)
Z2 = int_lex(2)
Q2 = quadratic(2)

# positive tags per group
TAGS = {
    ZP3: (element(ZP3, 1), element(ZP3, Fraction(1, 3))),
    Z2: (element(Z2, (1, -5)), element(Z2, (0, 3))),
    Q2: (element(Q2, (1, 0)), element(Q2, (Fraction(-1, 2), 1))),
}

# exponents on both sides of the least field width, 2^4
EDGE_EXPONENTS = (0, 1, 2, 3, 14, 15, 16, 17)
# lower t-coordinates on both sides of the least balanced bound, 2^11
EDGE_LOWS = (-4097, -2049, -2048, -2047, 2047, 2048, 2049, 4097)


def _field(p, descriptor):
    return CoeffField(p, tags=TAGS[descriptor], units=("u",))


def gammas(descriptor):
    small = st.integers(min_value=-9, max_value=9)
    low = st.one_of(small, st.sampled_from(EDGE_LOWS))
    if descriptor.kind == KIND_P_INVERTED:
        q = descriptor.param
        return st.builds(lambda n, j: element(descriptor, Fraction(n, q ** j)), st.integers(-40, 40), st.integers(0, 5))
    if descriptor.kind == KIND_INT_LEX:
        return st.builds(lambda *coords: element(descriptor, coords), small, *[low] * (descriptor.param - 1))
    dens = st.sampled_from([1, 2, 3, 4, 6, 12])
    return st.builds(
        lambda a, da, b, db: element(descriptor, (Fraction(a, da), Fraction(b, db))), small, dens, low, dens
    )


@st.composite
def reference_series(draw, field, descriptor, exponents=EDGE_EXPONENTS, max_terms=3, max_monos=3):
    out = {}
    for _ in range(draw(st.integers(0, max_terms))):
        gamma = draw(gammas(descriptor))
        for _ in range(draw(st.integers(1, max_monos))):
            exps = tuple(draw(st.sampled_from(exponents)) for _ in range(field.ring.ngens))
            out.setdefault(gamma, {})[exps] = draw(st.integers(1, field.p - 1))
    return ref.normalize(out, field.p)


def _series(field, descriptor, r):
    return SeriesElement(field, descriptor, {g: field.ring.from_dict(poly) for g, poly in r.items()})


def _bounds_hold(s):
    """Every key of s lies within the exponent and lower t-coordinate
    bounds that s carries, so that later operations size their layouts
    correctly."""
    lay = s._lay
    for k in s._data:
        if any(e > b for e, b in zip(lay.mono_exps(k & lay.mono_mask), s._eb)):
            return False
        if any(abs(c) > s._tb for c in lay.t_coords(k >> lay.shift)[1:]):
            return False
    return True


cases = st.sampled_from([(2, ZP3), (3, ZP3), (2, Z2), (3, Z2), (2, Q2), (3, Q2)])


# -- packing ------------------------------------------------------------------------------


@given(cases, st.data())
def test_pack_unpack_round_trip(case, data):
    p, descriptor = case
    field = _field(p, descriptor)
    r = data.draw(reference_series(field, descriptor))
    s = _series(field, descriptor, r)
    assert ref.decode(s) == r
    assert set(s.support()) == set(r)
    if r:
        assert s.valuation() == ref.valuation(r)
        assert dict(s.split_lead()[1].terms()) == r[ref.valuation(r)]


@given(cases, st.data())
def test_repack_to_a_wider_layout_and_back(case, data):
    p, descriptor = case
    field = _field(p, descriptor)
    s = _series(field, descriptor, data.draw(reference_series(field, descriptor)))
    lay = s._lay
    scale = data.draw(st.sampled_from([1, 3, 12])) if descriptor != Z2 else 1
    wide = _layout(lay.nlow, lay.nvars, lay.ntags, lay.den * scale, lay.w + data.draw(st.integers(0, 3)), lay.tw + 5)
    packed = _repack(s._data, lay, wide)
    assert ref.decode(_packed(field, descriptor, packed, wide, s._eb, s._tb * scale)) == ref.decode(s)
    if scale == 1:  # denominators only ever grow, so only widths go back
        assert _repack(packed, wide, lay) == s._data


# -- arithmetic against the reference ------------------------------------------------------


@given(cases, st.data())
def test_sum_and_product_match_the_reference(case, data):
    p, descriptor = case
    field = _field(p, descriptor)
    rf = data.draw(reference_series(field, descriptor))
    rg = data.draw(reference_series(field, descriptor))
    f, g = _series(field, descriptor, rf), _series(field, descriptor, rg)
    assert ref.decode(f + g) == ref.add(rf, rg, p)
    minus_g = {gamma: {e: p - c for e, c in poly.items()} for gamma, poly in rg.items()}
    assert ref.decode(f - g) == ref.add(rf, minus_g, p)
    product = ref.mul(rf, rg, p)
    assert ref.decode(f * g) == product
    assert f * g == _series(field, descriptor, product)


@given(cases, st.data())
@settings(deadline=None)
def test_sigma_norm_trace_match_the_reference(case, data):
    p, descriptor = case
    # sigma alone is cheap, so it runs at p up to 7, on exponents p and p + 1
    # (where some C(e, j) vanish mod p) and across the 2^4 field width
    q = data.draw(st.sampled_from([2, 3, 5, 7]))
    field = _field(q, descriptor)
    exponents = (0, 1, 2, q, q + 1, 15, 16, 17)
    rf = data.draw(reference_series(field, descriptor, exponents=exponents))
    image = SigmaSpec(field, descriptor).apply(_series(field, descriptor, rf))
    assert ref.decode(image) == ref.sigma(rf, field.tags, q)
    assert _bounds_hold(image)
    # norm and trace cost grows fast with p and the exponents
    field = _field(p, descriptor)
    sigma = SigmaSpec(field, descriptor)
    rf = data.draw(reference_series(field, descriptor, exponents=(0, 1, 2), max_terms=2, max_monos=2))
    f = _series(field, descriptor, rf)
    assert ref.decode(norm(sigma, f)) == ref.norm(rf, field.tags, p)
    assert ref.decode(trace(sigma, f)) == ref.trace(rf, field.tags, p)


@given(st.sampled_from([5, 7]), st.sampled_from([ZP3, Z2, Q2]), st.data())
@settings(deadline=None)
def test_norm_matches_the_reference_at_p_5_and_7(p, descriptor, data):
    # norm pairs sigma^i f with sigma^(p-i) f and multiplies by f last; the
    # reference multiplies the conjugates left to right
    field = _field(p, descriptor)
    rf = data.draw(reference_series(field, descriptor, exponents=(0, 1, 2), max_terms=2, max_monos=2))
    f = _series(field, descriptor, rf)
    sigma = SigmaSpec(field, descriptor)
    assert ref.decode(norm(sigma, f)) == ref.norm(rf, field.tags, p)
    # trace runs p - 1 delta passes; the reference sums the conjugates
    tf = trace(sigma, f)
    assert ref.decode(tf) == ref.trace(rf, field.tags, p)
    assert _bounds_hold(tf)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_trace_makes_p_minus_1_delta_calls_and_no_apply(p):
    sigma = SigmaSpec(_field(p, ZP3), ZP3)
    calls = []

    class Counting:
        def __init__(self):
            self.p = p

        def apply(self, x):
            calls.append("apply")
            return sigma.apply(x)

        def delta(self, x):
            calls.append("delta")
            return sigma.delta(x)

    x0, x1 = (variable_series(sigma.field, ZP3, g) for g in sigma.field.gens[:2])
    f = x0.power(p - 1) * x1 + t_term(sigma.field, ZP3, element(ZP3, -1), sigma.field.gens[1])
    got = trace(Counting(), f)
    assert calls == ["delta"] * (p - 1)
    conj, total = f, f
    for _ in range(p - 1):
        conj = sigma.apply(conj)
        total = total + conj
    assert got == total and not got.is_zero()


# -- the Artin-Schreier substitution's primitives ------------------------------------------


@given(cases, st.data())
def test_split_lead_matches_valuation_and_leading_coeff(case, data):
    p, descriptor = case
    field = _field(p, descriptor)
    rf = data.draw(reference_series(field, descriptor))
    f = _series(field, descriptor, rf)
    if not rf:
        with pytest.raises(ValueError):
            f.split_lead()
        return
    v, lead, rest = f.split_lead()
    assert v == f.valuation() == ref.valuation(rf)
    assert dict(lead.terms()) == rf[v]
    assert rest == f - t_term(field, descriptor, v, lead)
    assert ref.decode(rest) == {g: c for g, c in rf.items() if g != v}
    assert _bounds_hold(rest)
    assert rest + t_term(field, descriptor, v, lead) == f


def _reference_step(r, p):
    """One Artin-Schreier substitution on a reference series, written on
    group elements: (case, r) at a normal form, else (None, the new r)."""
    if not r:
        return "iii", r
    v = ref.valuation(r)
    if sign(v) >= 0:
        return "iii", r
    w = divide_exact(v, p)
    if w is None:
        return "i", r
    if any(e % p for exps in r[v] for e in exps):
        return "ii", r
    rest = {g: poly for g, poly in r.items() if g != v}
    return None, ref.add(rest, {w: {tuple(e // p for e in exps): c for exps, c in r[v].items()}}, p)


@given(cases, st.data())
def test_one_substitution_matches_the_reference_step(case, data):
    p, descriptor = case
    field = _field(p, descriptor)
    rf = data.draw(reference_series(field, descriptor))
    if data.draw(st.booleans()):
        # a polar lead at p*w whose coefficient is a p-th power, and
        # sometimes a term at w that its root cancels
        w = data.draw(gammas(descriptor).filter(lambda g: sign(g) < 0))
        root = {tuple(data.draw(st.sampled_from(EDGE_EXPONENTS)) for _ in range(field.ring.ngens)): 1}
        lead = {tuple(p * e for e in exps): c for exps, c in root.items()}
        rf = ref.add(rf, {int_scale(p, w): lead}, p)
        if data.draw(st.booleans()):
            rf = ref.add(rf, {w: {exps: p - c for exps, c in root.items()}}, p)
    f = _series(field, descriptor, rf)
    case_, got = f.artin_schreier_run(1)[:2]
    want_case, want = _reference_step(rf, p)
    assert case_ == want_case
    assert ref.decode(got) == want
    assert _bounds_hold(got)
    if case_ is not None:
        assert got is f
    assert ref.decode(f) == rf  # f itself is untouched


def test_one_substitution_edges():
    # the zero series and the signs of v: over Q + Q*sqrt(2), 1 - sqrt(2) is
    # polar though its lexicographic code is positive, and -1 + sqrt(2) is not
    for descriptor in (ZP3, Z2, Q2):
        field = _field(3, descriptor)
        zero = _series(field, descriptor, {})
        assert zero.artin_schreier_run(1)[:2] == ("iii", zero)
    field = _field(3, Q2)
    for raw, want in (((1, -1), None), ((-1, 1), "iii"), ((0, 0), "iii")):
        f = t_term(field, Q2, element(Q2, raw))
        assert f.artin_schreier_run(1)[0] == want
    # Z^2: v/p needs every coordinate divisible by p; the exponents decide case ii
    field = _field(3, Z2)
    u = field.unit_gen("u")
    assert t_term(field, Z2, element(Z2, (-2, 3))).artin_schreier_run(1)[0] == "i"
    assert t_term(field, Z2, element(Z2, (-3, 3)), u).artin_schreier_run(1)[0] == "ii"
    case_, g = t_term(field, Z2, element(Z2, (-3, 3)), u ** 3).artin_schreier_run(1)[:2]
    assert case_ is None and g == t_term(field, Z2, element(Z2, (-1, 1)), u)
    # Z[1/3], laid out over den 3 (the tag 1/3): v = -1 is -3 there, so the
    # root -1/3 stays in the layout; then v = -1/3 is -1, and den grows by 3
    field = _field(3, ZP3)
    f = t_term(field, ZP3, element(ZP3, -1))
    _, g = f.artin_schreier_run(1)[:2]
    assert g._lay is f._lay and g == t_term(field, ZP3, element(ZP3, Fraction(-1, 3)))
    _, h = g.artin_schreier_run(1)[:2]
    assert h._lay.den == 3 * g._lay.den and h == t_term(field, ZP3, element(ZP3, Fraction(-1, 9)))
    # the root adds to a term of the rest
    _, k = (g + t_term(field, ZP3, element(ZP3, Fraction(-1, 9)))).artin_schreier_run(1)[:2]
    assert ref.decode(k) == {element(ZP3, Fraction(-1, 9)): {(0, 0, 0): 2}}
    # or cancels it: t^(-2) + t^(-1) over Z^2 at p = 2
    field = _field(2, Z2)
    f = t_term(field, Z2, element(Z2, (-2, 0))) + t_term(field, Z2, element(Z2, (-1, 0)))
    case_, g = f.artin_schreier_run(1)[:2]
    assert case_ is None and g.is_zero()
    # Q + Q*sqrt(2): the rest's lower coordinate 2000 over den 2 fits the
    # balanced 2^11 bound, and three times it does not, so tw widens
    field = _field(3, Q2)
    f = t_term(field, Q2, element(Q2, (-1, 0))) + t_term(field, Q2, element(Q2, (0, 1000)))
    case_, g = f.artin_schreier_run(1)[:2]
    assert case_ is None and g._lay.tw > f._lay.tw and g._lay.den == 3 * f._lay.den
    assert g == t_term(field, Q2, element(Q2, (Fraction(-1, 3), 0))) + t_term(field, Q2, element(Q2, (0, 1000)))
    assert _bounds_hold(g)


@given(cases, st.data())
def test_artin_schreier_run_matches_the_reference_steps(case, data):
    p, descriptor = case
    field = _field(p, descriptor)
    # a lead value and one to three monomials whose exponents carry a few
    # factors of p, so that runs stop at either check after several steps,
    # or at the budget
    gamma = int_scale(p ** data.draw(st.integers(0, 3)), data.draw(gammas(descriptor)))
    lead = {}
    for _ in range(data.draw(st.integers(1, 3))):
        exps = tuple(p ** data.draw(st.integers(0, 3)) * data.draw(st.sampled_from(EDGE_EXPONENTS)) for _ in range(field.ring.ngens))
        lead[exps] = data.draw(st.integers(1, p - 1))
    rf = {gamma: lead}
    if data.draw(st.booleans()):
        # terms at other values; a second negative one limits the run to one
        # substitution, and the terms of value >= 0 ride along
        rf = ref.add(rf, data.draw(reference_series(field, descriptor)), p)
    f = _series(field, descriptor, rf)
    n = data.draw(st.sampled_from([0, 1, 2, 3, 5]))
    case_, got, steps = f.artin_schreier_run(n)
    want_case, want, j = None, rf, 0
    while j < (n if sum(sign(g) < 0 for g in rf) <= 1 else min(n, 1)):
        want_case, nxt = _reference_step(want, p)
        if want_case is not None:
            break
        want, j = nxt, j + 1
    assert (case_, steps) == (want_case, j)
    assert ref.decode(got) == want
    assert _bounds_hold(got)
    if not steps:
        assert got is f
    assert ref.decode(f) == rf  # f itself is untouched


# -- the one packing routine ---------------------------------------------------------------


@given(cases, st.data())
def test_construction_equals_terms_summed_from_zero(case, data):
    p, descriptor = case
    field = _field(p, descriptor)
    # a few values, so that terms repeat and their coefficients add up past p
    pool = data.draw(st.lists(gammas(descriptor), min_size=1, max_size=3))
    mono = st.tuples(*[st.sampled_from(EDGE_EXPONENTS)] * field.ring.ngens)
    raw_terms = data.draw(st.lists(
        st.tuples(st.sampled_from(pool), st.dictionaries(mono, st.integers(0, 3 * p), max_size=3)), max_size=6
    ))
    summed, raw = {}, {}
    for gamma, coeffs in raw_terms:
        summed[gamma] = summed.get(gamma, field.zero) + field.ring.from_dict(coeffs)
        poly = raw.setdefault(gamma, {})
        for e, c in coeffs.items():
            poly[e] = poly.get(e, 0) + c
    built = SeriesElement(field, descriptor, summed)
    folded = _series(field, descriptor, {})
    for gamma, coeffs in raw_terms:
        folded = folded + t_term(field, descriptor, gamma, field.ring.from_dict(coeffs))
    assert built == folded
    assert ref.decode(built) == ref.decode(folded) == ref.normalize(raw, p)
    assert _bounds_hold(built) and _bounds_hold(folded)


# -- growth past the initial field widths --------------------------------------------------


def test_products_outgrow_the_initial_widths():
    for descriptor in (ZP3, Z2, Q2):
        field = _field(3, descriptor)
        x0, u = field.gens[0], field.unit_gen("u")
        # a lower t-coordinate of 2000 (1000 over the tags' denominator 2
        # of quad:2) fits the least balanced bound 2^11, and twice it does not
        low = {ZP3: element(ZP3, Fraction(-7, 27)), Z2: element(Z2, (-1, 2000)), Q2: element(Q2, (0, 1000))}
        f = t_term(field, descriptor, low[descriptor], x0 ** 15 * u ** 9) + variable_series(field, descriptor, x0)
        rf = ref.decode(f)
        square = f * f
        assert ref.decode(square) == ref.mul(rf, rf, 3)
        # x0^30 needs a wider exponent field than x0^15
        assert square._lay.w > f._lay.w
        if descriptor != ZP3:
            assert square._lay.tw > f._lay.tw
        cube = square * f
        assert ref.decode(cube) == ref.mul(ref.mul(rf, rf, 3), rf, 3)
        assert cube.valuation() == ref.valuation(ref.decode(cube))


# -- packed-key helpers ----------------------------------------------------------------------


@given(cases, st.data())
def test_monomials_and_least_tag_index_match_the_decoded_terms(case, data):
    p, descriptor = case
    field = _field(p, descriptor)
    rf = data.draw(reference_series(field, descriptor))
    f = _series(field, descriptor, rf)
    monos = list(f.monomials())
    assert len(monos) == f.num_terms()
    want = []
    for gamma, poly in rf.items():
        for exps, c in poly.items():
            # the largest index of a tagged variable present, -1 for none
            want.append(({gamma: {exps: c}}, max((i for i in range(len(field.tags)) if exps[i]), default=-1)))
    got = [(ref.decode(m), m.least_tag_index()) for m in monos]
    assert sorted(got, key=repr) == sorted(want, key=repr)
    for m in monos:
        # each one-term series shares f's layout and bounds
        assert (m._lay, m._eb, m._tb) == (f._lay, f._eb, f._tb)
    assert f.least_tag_index() == max((i for _, i in want), default=-1)


@given(cases, st.data())
def test_valuation_at_least_matches_decoded_compare(case, data):
    p, descriptor = case
    field = _field(p, descriptor)
    rf = data.draw(reference_series(field, descriptor).filter(bool))
    rg = data.draw(reference_series(field, descriptor).filter(bool))
    f, g = _series(field, descriptor, rf), _series(field, descriptor, rg)
    vf, vg = ref.valuation(rf), ref.valuation(rg)
    # a drawn gap, and the gap at which the floor is met exactly
    for gap in (data.draw(gammas(descriptor)), vf - vg):
        assert f.valuation_at_least(g, gap) == (compare(vf, vg + gap) >= 0)
    assert f.valuation_at_least(f, vf - vf)
    other = Q2 if descriptor == ZP3 else ZP3
    with pytest.raises(ValueError, match="different group"):
        f.valuation_at_least(g, element(other, 1))


@given(cases, st.data())
@settings(deadline=None)
def test_delta_is_the_image_minus_f(case, data):
    p, descriptor = case
    field = _field(p, descriptor)
    sigma = SigmaSpec(field, descriptor)
    # one sigma serves all three series, and the edge exponents and low
    # coordinates put them in layouts of different widths
    for _ in range(3):
        rf = data.draw(reference_series(field, descriptor, exponents=(0, 1, 2, 15, 16, 17)))
        f = _series(field, descriptor, rf)
        got, want = sigma.delta(f), sigma.apply(f) - f
        assert got == want
        assert (got._lay, got._eb, got._tb) == (want._lay, want._eb, want._tb)
        minus_f = {gamma: {e: p - c for e, c in poly.items()} for gamma, poly in rf.items()}
        assert ref.decode(got) == ref.add(ref.sigma(rf, field.tags, p), minus_f, p)
        assert _bounds_hold(got)


# -- sigma across layouts ----------------------------------------------------------------------


@st.composite
def sigma_cases(draw):
    """p in {2, 3, 5}, a group of ``strategies`` and a field over one or two
    drawn tags, with one unit variable."""
    p = draw(st.sampled_from([2, 3, 5]))
    descriptor = draw(descriptors)
    tags = draw(st.lists(positive_elements(descriptor), min_size=1, max_size=2, unique=True))
    return p, descriptor, CoeffField(p, tags=tags, units=("u",))


def _wider(f, scale, dw, dtw):
    """f re-packed into the layout with den * scale, w + dw and tw + dtw."""
    lay = f._lay
    wide = _layout(lay.nlow, lay.nvars, lay.ntags, lay.den * scale, lay.w + dw, lay.tw + dtw)
    return _packed(f.field, f.descriptor, _repack(f._data, lay, wide), wide, f._eb, f._tb * scale)


def _minus(r, p):
    return {gamma: {e: p - c for e, c in poly.items()} for gamma, poly in r.items()}


def _holds_image(f, image):
    """Whether f's own layout holds sigma(f): the tags' denominators, f's
    exponents and the image's lower t-coordinate bound."""
    lay = f._lay
    return lay.den % lcm(1, *(tag.den for tag in f.field.tags)) == 0 and lay.fits(max(f._eb, default=0), image._tb)


@given(sigma_cases(), st.data())
@settings(deadline=None)
def test_sigma_agrees_across_layouts(case, data):
    p, descriptor, field = case
    sigma = SigmaSpec(field, descriptor)
    for _ in range(2):
        rf = data.draw(reference_series(field, descriptor, exponents=(0, 1, 2, p, p + 1, 15, 16, 17)))
        f = _series(field, descriptor, rf)
        want = {"apply": ref.sigma(rf, field.tags, p)}
        want["delta"] = ref.add(want["apply"], _minus(rf, p), p)
        # f and f re-packed wider, apply and delta interleaved in one sigma
        copies = [f] + [
            _wider(f, data.draw(st.sampled_from([1, 3])), data.draw(st.integers(1, 3)), 5) for _ in range(2)
        ]
        calls = data.draw(st.permutations([(g, op) for g in copies for op in ("apply", "delta")]))
        first = {}
        for g, op in calls:
            got = getattr(sigma, op)(g)
            assert ref.decode(got) == want[op]
            assert got == first.setdefault(op, got)
            assert _bounds_hold(got)
            # g is re-packed only when its own layout cannot hold the image
            assert (got._lay is g._lay) == _holds_image(g, got)
    # a row holds only sigma(m) - m: no pair leaves the key where it is
    for rows in sigma._rows.values():
        for row in rows.values():
            assert all(delta for delta, _ in row)


@given(sigma_cases(), st.data())
@settings(deadline=None)
def test_sigma_to_the_p_is_the_identity_in_every_layout(case, data):
    p, descriptor, field = case
    sigma = SigmaSpec(field, descriptor)
    rf = data.draw(reference_series(field, descriptor, exponents=(0, 1, 2, p, p + 1)))
    f = _series(field, descriptor, rf)
    for g in (f, _wider(f, 3, 1, 5), _wider(f, 1, 3, 5)):
        h = g
        for _ in range(p):
            h = sigma.apply(h)
        assert h == g == f
        assert ref.decode(h) == rf



def test_sigma_keeps_the_row_tables_of_its_last_layouts():
    # f re-packed into more layouts than sigma keeps tables for: each result
    # is still the one image, and sigma keeps the last layouts' tables
    field = _field(3, ZP3)
    x0, x1 = field.gens[:2]
    f = t_term(field, ZP3, element(ZP3, 1), x0 ** 4 * x1 ** 2 + x0 + 2) + t_term(field, ZP3, element(ZP3, 3), x1 ** 5)
    sigma = SigmaSpec(field, ZP3)
    image = sigma.apply(f)
    copies = [_wider(f, 1, 0, k) for k in range(1, _SIGMA_TABLES + 3)]
    for g in copies:
        assert sigma.apply(g)._lay is g._lay
        assert sigma.apply(g) == image and sigma.delta(g) == image - f
    assert list(sigma._rows) == [g._lay for g in copies[-_SIGMA_TABLES:]]


def test_sigma_keeps_the_table_it_used_last_over_an_older_one():
    # layout A's table is made first and used again after 7 other layouts':
    # a ninth layout then replaces the table used least recently, not A's
    field = _field(3, ZP3)
    x0, x1 = field.gens[:2]
    f = t_term(field, ZP3, element(ZP3, 1), x0 ** 2 * x1 + x1) + t_term(field, ZP3, element(ZP3, 2), x0)
    sigma = SigmaSpec(field, ZP3)
    a, *others = [_wider(f, 1, 0, k) for k in range(1, _SIGMA_TABLES + 2)]
    sigma.apply(a)
    for g in others[:-1]:
        sigma.apply(g)
    assert sigma.delta(a) == SigmaSpec(field, ZP3).apply(f) - f
    sigma.apply(others[-1])
    assert list(sigma._rows) == [g._lay for g in others[1:-1]] + [a._lay, others[-1]._lay]


@pytest.mark.parametrize("p", [3, 5])
def test_rows_of_one_layout_share_each_pair_and_drop_them_with_the_table(p):
    # the rows of x0^a * x1^b repeat (key delta, coefficient) pairs: within
    # one layout's table equal pairs are one object, and sigma keeps a
    # layout's pairs exactly as long as it keeps that layout's table
    field = _field(p, ZP3)
    f = SeriesElement(
        field, ZP3, {element(ZP3, b): field.ring.from_dict({(a, b, 0): 1 for a in range(p + 2)}) for b in range(3)}
    )
    sigma = SigmaSpec(field, ZP3)
    image = sigma.apply(f)
    copies = [_wider(f, 1, 0, k) for k in range(1, _SIGMA_TABLES + 2)]
    for g in copies:
        assert sigma.apply(g) == image
    for lay, rows in sigma._rows.items():
        held = [pair for row in rows.values() for pair in row]
        assert len(set(held)) < len(held)
        first = {}
        assert all(first.setdefault(pair, pair) is pair for pair in held)
        # the pool holds the pairs of this table's rows and no others
        assert {id(pair) for pair in held} == {id(pair) for pair in sigma._pools[lay].values()}
    # _SIGMA_TABLES + 1 layouts met: the first one's table went, and its pool
    assert list(sigma._pools) == list(sigma._rows) == [g._lay for g in copies[-_SIGMA_TABLES:]]


def test_delta_where_an_image_lands_on_a_key_of_f():
    # sigma(x0^2) = x0^2 + 2*x0*t + t^2 lands on t^2, which f stores first,
    # and delta adds the moved monomials alone
    field = _field(3, ZP3)
    x0 = field.gens[0]
    f = t_term(field, ZP3, element(ZP3, 2)) + t_term(field, ZP3, element(ZP3, 0), x0 ** 2)
    sigma = SigmaSpec(field, ZP3)
    got, want = sigma.delta(f), sigma.apply(f) - f
    assert got == want
    assert got == t_term(field, ZP3, element(ZP3, 1), x0 * 2) + t_term(field, ZP3, element(ZP3, 2))
    assert got._lay is f._lay


def test_delta_where_sigma_cancels_a_key_of_f():
    # f = 2*t + x0 + x0^2: the images of x0 and x0^2 bring t and t^2, and
    # sigma(f) = x0 + x0^2 + 2*x0*t + t^2 has lost f's first key t; delta
    # adds only the moved parts t and 2*x0*t + t^2, which hold it again
    field = _field(3, ZP3)
    x0 = field.gens[0]
    f = t_term(field, ZP3, element(ZP3, 1), field.ring.one * 2) + t_term(field, ZP3, element(ZP3, 0), x0 + x0 ** 2)
    sigma = SigmaSpec(field, ZP3)
    got, want = sigma.delta(f), sigma.apply(f) - f
    assert got == want
    assert got == t_term(field, ZP3, element(ZP3, 1), x0 * 2 + 1) + t_term(field, ZP3, element(ZP3, 2))


def test_sigma_widens_f_only_where_the_image_needs_room():
    # over Z^2 with tags (1, -5) and (0, 3): x0^2 * t^(0, 2040) fits the
    # least balanced bound 2^11, and its image's lower coordinate 2040 + 2*5
    # does not, so sigma widens tw there and keeps it on wider copies of f
    field = _field(3, Z2)
    sigma = SigmaSpec(field, Z2)
    f = t_term(field, Z2, element(Z2, (0, 2040)), field.gens[0] ** 2)
    image = sigma.apply(f)
    assert image._lay.tw > f._lay.tw and not _holds_image(f, image)
    assert sigma.delta(f)._lay is image._lay
    for g in (_wider(f, 1, 0, 5), _wider(f, 1, 1, 5)):
        assert sigma.apply(g)._lay is g._lay and sigma.delta(g)._lay is g._lay
        assert sigma.apply(g) == image and sigma.delta(g) == image - f
    assert ref.decode(image) == ref.sigma(ref.decode(f), field.tags, 3)
    # one row table per layout that sigma has worked in
    assert set(sigma._rows) == {image._lay, _wider(f, 1, 0, 5)._lay, _wider(f, 1, 1, 5)._lay}


# -- copies ------------------------------------------------------------------------------------


def test_t_coords_matches_the_digit_loop_at_the_digit_edges():
    for tw in range(12, 18):
        for nlow in (0, 1, 2):
            lay = _layout(nlow, 2, 1, 1, 4, tw)
            half = lay.half
            for top in (-(2 ** 40) - 3, -5, -1, 0, 1, 7, 2 ** 40 + 1):
                for lows in itertools.product((-half, -half + 1, -1, 0, 1, half - 2, half - 1), repeat=nlow):
                    coords = (top, *lows)
                    T = lay.t_code(coords)
                    assert lay.t_coords(T) == ref.t_coords(lay, T) == coords


@settings(max_examples=300)
@given(st.sampled_from([1, 2]), st.integers(min_value=12, max_value=17), st.data())
def test_t_coords_matches_the_digit_loop(nlow, tw, data):
    lay = _layout(nlow, 3, 2, 1, 4, tw)
    half = lay.half
    low = st.one_of(st.sampled_from((-half, half - 1)), st.integers(min_value=-half, max_value=half - 1))
    coords = (data.draw(st.integers(min_value=-(2 ** 70), max_value=2 ** 70)), *(data.draw(low) for _ in range(nlow)))
    T = lay.t_code(coords)
    assert lay.t_coords(T) == ref.t_coords(lay, T) == coords
    # any integer is a valid code: decoding, then coding again, gives it back
    T = data.draw(st.integers(min_value=-(2 ** 80), max_value=2 ** 80))
    assert lay.t_code(lay.t_coords(T)) == T and lay.t_coords(T) == ref.t_coords(lay, T)


def test_copies_are_equal_and_keep_the_interned_layout():
    duplicates = (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)))
    # groups, elements, hull points, surds and cuts come back equal and of
    # the same type
    half_root_two = Surd(Fraction(1, 2), 1, 2)
    values = [
        ZP3, Z2, Q2,
        element(ZP3, Fraction(-2, 9)), element(Z2, (1, -5)), element(Q2, (Fraction(1, 2), -1)),
        hull_element(ZP3, Fraction(1, 2)), hull_element(Z2, (0, Fraction(1, 3))),
        half_root_two,
        open_cut(ZP3, element(ZP3, 1)), open_cut(ZP3, half_root_two), principal_cut(hull_element(Q2, (1, 1))),
        frontier_cut(Z2, (0,), over_hull=True),
    ]
    for x in values:
        for dup in duplicates:
            y = dup(x)
            assert type(y) is type(x) and y == x
    # a series' copies equal it and share its layout, which is interned, so
    # one sigma keeps one row table for f and all its copies
    field = _field(3, ZP3)
    x0, x1 = field.gens[:2]
    f = t_term(field, ZP3, element(ZP3, -2), x0 ** 2 * x1 + field.unit_gen("u")) + t_term(field, ZP3, element(ZP3, 1), x1)
    sigma = SigmaSpec(field, ZP3)
    image = sigma.apply(f)
    for dup in duplicates:
        g = dup(f)
        assert g == f and g._lay is f._lay
        assert sigma.apply(g) == image and sigma.delta(g) == image - f
    assert list(sigma._rows) == [f._lay]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("descriptor", ALL_DESCRIPTORS, ids=str)
@given(data=st.data())
@settings(deadline=None, max_examples=25)
def test_apply_is_f_plus_delta_in_keys_layout_and_bounds(descriptor, p, data):
    tags = data.draw(st.lists(positive_elements(descriptor), min_size=1, max_size=2, unique=True))
    field = CoeffField(p, tags=tags, units=("u",))
    sigma = SigmaSpec(field, descriptor)
    rf = data.draw(reference_series(field, descriptor, exponents=(0, 1, 2, 15, 16, 17)))
    # the same terms with every tagged exponent dropped: no tagged key
    untagged = {}
    for gamma, poly in rf.items():
        acc = untagged.setdefault(gamma, {})
        for e, c in poly.items():
            key = (0,) * len(tags) + e[len(tags):]
            acc[key] = acc.get(key, 0) + c
    for r in (rf, ref.normalize(untagged, p)):
        f = _series(field, descriptor, r)
        got, want = sigma.apply(f), f + sigma.delta(f)
        assert got._data == want._data
        assert (got._lay, got._eb, got._tb) == (want._lay, want._eb, want._tb)
        # apply's keys start with f's that survive, in f's order
        kept = [k for k in _repack(f._data, f._lay, got._lay) if k in got._data]
        assert list(got._data)[: len(kept)] == kept
