import os
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import ramify.literals as literals
from ramify.ordered_group import element, hull_element, int_lex, int_scale, p_inverted, quadratic, zero
from ramify.series_field import (
    CoeffField,
    FieldElement,
    Poly,
    SeriesElement,
    SigmaSpec,
    constant_series,
    norm,
    norm_trace_laws,
    t_term,
    trace,
    valuation_laws,
    variable_series,
)

from .series_reference import is_pth_power
from .strategies import descriptors, elements, positive_elements

Z1 = int_lex(1)
ZP2 = p_inverted(2)

E0 = element(ZP2, 2)
E1 = element(ZP2, Fraction(1, 2))
F2 = CoeffField(2, tags=(E1, E0), units=("u",))  # sorted to (E0, E1)
F3 = CoeffField(3, tags=(element(Z1, 3), element(Z1, 1)), units=())
SIGMAS = {2: SigmaSpec(F2, ZP2), 3: SigmaSpec(F3, Z1)}

# larger p, and the two groups the specs above leave out
ZP5, ZP7, Z2, Q2 = p_inverted(5), p_inverted(7), int_lex(2), quadratic(2)
WIDE_SIGMAS = [
    SigmaSpec(CoeffField(5, tags=(element(ZP5, 1), element(ZP5, Fraction(6, 25)))), ZP5),
    SigmaSpec(CoeffField(7, tags=(element(ZP7, 1), element(ZP7, Fraction(8, 49)))), ZP7),
    SigmaSpec(CoeffField(3, tags=(element(Z2, (1, -2)), element(Z2, (0, 3))), units=("u",)), Z2),
    SigmaSpec(CoeffField(2, tags=(element(Q2, (1, 0)), element(Q2, (Fraction(-1, 2), 1))), units=("u",)), Q2),
]


def _exps(descriptor):
    if descriptor == Z1:
        return st.integers(min_value=-4, max_value=4).map(lambda n: element(Z1, n))
    if descriptor == Z2:
        return st.tuples(st.integers(-3, 3), st.integers(-9, 9)).map(lambda ab: element(Z2, ab))
    if descriptor == Q2:
        return st.tuples(st.integers(-6, 6), st.integers(-2, 2), st.sampled_from([1, 2, 3])).map(
            lambda abk: element(Q2, (Fraction(abk[0], abk[2]), Fraction(abk[1], abk[2])))
        )
    if descriptor in (ZP5, ZP7):
        q = descriptor.param
        return st.tuples(st.integers(-12, 12), st.integers(0, 2)).map(
            lambda nk: element(descriptor, Fraction(nk[0], q ** nk[1]))
        )
    return st.tuples(
        st.integers(min_value=-12, max_value=12), st.integers(min_value=0, max_value=2)
    ).map(lambda nk: element(ZP2, Fraction(nk[0], 2 ** nk[1])))


@st.composite
def polys(draw, field, max_deg=2):
    d = {}
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=max_deg))
            for _ in range(field.ring.ngens)
        )
        d[exps] = draw(st.integers(min_value=1, max_value=field.p - 1))
    return field.ring.from_dict(d)


@st.composite
def series(draw, field, descriptor, allow_zero=True):
    terms = {}
    for _ in range(draw(st.integers(min_value=0 if allow_zero else 1, max_value=3))):
        gamma = draw(_exps(descriptor))
        c = draw(polys(field))
        terms[gamma] = terms.get(gamma, field.zero) + c
    out = SeriesElement(field, descriptor, terms)
    if not allow_zero and out.is_zero():
        out = out + constant_series(field, descriptor, 1)
    return out


def series_for(p, allow_zero=True):
    s = SIGMAS[p]
    return series(s.field, s.descriptor, allow_zero=allow_zero)


# -- coefficient field --------------------------------------------------------------


def test_field_construction():
    assert F2.tags == (E0, E1)  # reordered to decreasing tags
    assert F2.units == ("u",)
    assert F2 == CoeffField(2, tags=(E0, E1), units=("u",))
    assert F2 != CoeffField(3, tags=(element(Z1, 1),))
    assert hash(F2) == hash(CoeffField(2, tags=(E1, E0), units=("u",)))
    with pytest.raises(ValueError):
        CoeffField(2, tags=(E0, E0))
    with pytest.raises(ValueError):
        CoeffField(2, tags=(element(ZP2, 0),))
    with pytest.raises(ValueError, match=r"positive group elements, got q\(-1\)$"):
        CoeffField(2, tags=(element(ZP2, -1),))
    # a long tag is quoted by its first characters and its length
    with pytest.raises(ValueError, match=r"got q\(-3{37}\.\.\. \(3004 characters\)$"):
        CoeffField(2, tags=(element(ZP2, -int("3" * 3000)),))
    for not_prime in (1, 4, 6):
        with pytest.raises(ValueError):
            CoeffField(not_prime)
    # no variables at all is a legal (constant) coefficient field
    empty = CoeffField(5)
    assert empty.one * 7 == empty.one * 2


@pytest.mark.parametrize("tags, shown", [((1,), "1"), ((1, 2), "1"), ((E0, 2), "2"), ((E0, hull_element(ZP2, 1)), ".*HullElement")])
def test_field_checks_its_tags_before_it_orders_them(tags, shown):
    with pytest.raises(ValueError, match=f"positive group elements, got {shown}"):
        CoeffField(2, tags=tags)


def test_import_leaves_sympy_unloaded():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ramify, ramify.cli; print('sympy' in sys.modules)"
    got = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (got.returncode, got.stdout) == (0, "False\n"), got.stderr


def test_generators():
    assert str(F2.gens[0]) == "x0"
    assert str(F2.unit_gen("u")) == "u"
    with pytest.raises(ValueError):
        F2.unit_gen("w")


# -- series ring --------------------------------------------------------------------


@given(st.sampled_from([2, 3]), st.data())
def test_ring_laws(p, data):
    f = data.draw(series_for(p))
    g = data.draw(series_for(p))
    h = data.draw(series_for(p))
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == SeriesElement(f.field, f.descriptor, {})
    assert (f - g) + g == f


@given(st.sampled_from([2, 3]), st.data())
def test_valuation_additive(p, data):
    f = data.draw(series_for(p, allow_zero=False))
    g = data.draw(series_for(p, allow_zero=False))
    assert (f * g).valuation() == f.valuation() + g.valuation()


@given(st.sampled_from([2, 3]), st.data())
def test_valuation_of_sum(p, data):
    f = data.draw(series_for(p, allow_zero=False))
    g = data.draw(series_for(p, allow_zero=False))
    s = f + g
    if not s.is_zero():
        lo = min(f.valuation(), g.valuation(), key=lambda x: (x < f.valuation(), 0))
        # ultrametric inequality, with equality when the minimum is unique
        assert not (s.valuation() < f.valuation() and s.valuation() < g.valuation())
        if f.valuation() != g.valuation():
            small = f if f.valuation() < g.valuation() else g
            assert s.valuation() == small.valuation()


def test_series_shift_scale_power():
    f = t_term(F2, ZP2, E0) + variable_series(F2, ZP2, F2.unit_gen("u"))
    assert f.shift(E1).valuation() == E1
    assert f.power(0) == constant_series(F2, ZP2, 1)
    assert f.power(3) == f * f * f
    with pytest.raises(ValueError):
        SeriesElement(F2, ZP2, {}).valuation()


def test_series_peer_checks():
    f = constant_series(F2, ZP2, 1)
    g = constant_series(F3, Z1, 1)
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(TypeError):
        f + 1
    # the lex point (1, 5) must not be read as the Z[1/2] value 4101
    with pytest.raises(ValueError, match="the term lives over a different group"):
        t_term(CoeffField(2), ZP2, element(Z2, (1, 5)))


def test_a_coefficient_from_another_ring_is_refused():
    u_only, u_and_w = CoeffField(2, units=("u",)), CoeffField(2, units=("u", "w"))
    w = u_and_w.unit_gen("w")
    gamma = element(Z1, -2)
    # the exponent of w used to be dropped, giving the series (1)*t^(-2,)
    with pytest.raises(ValueError, match=r"F_2\[u, w\] used over F_2\[u\]"):
        t_term(u_only, Z1, gamma, w)
    with pytest.raises(ValueError):
        constant_series(u_only, Z1, w)
    with pytest.raises(ValueError):
        SeriesElement(u_only, Z1, {gamma: w})
    other_p = CoeffField(3, units=("u",)).unit_gen("u")
    with pytest.raises(ValueError, match=r"F_3\[u\] used over F_2\[u\]"):
        t_term(u_only, Z1, gamma, other_p)
    with pytest.raises(ValueError, match=r"F_3\[u\] used over F_2\[u\]"):
        SeriesElement(u_only, Z1, {element(Z1, 0): u_only.one, gamma: other_p})
    with pytest.raises(ValueError):
        constant_series(u_only, Z1, other_p)
    # an equal ring from another field of the same shape is the same ring
    twin = CoeffField(2, units=("u",)).unit_gen("u")
    assert t_term(u_only, Z1, gamma, twin) == t_term(u_only, Z1, gamma, u_only.unit_gen("u"))
    assert SeriesElement(u_only, Z1, {element(Z1, 0): u_only.zero, gamma: twin}) == t_term(u_only, Z1, gamma, twin)


def test_polynomials_over_another_field_do_not_combine():
    u = CoeffField(3, units=("u",)).unit_gen("u")
    v = CoeffField(3, units=("v",)).unit_gen("v")
    u5 = CoeffField(5, units=("u",)).unit_gen("u")
    for x, y, shown in ((u, v, r"F_3\[v\] used over F_3\[u\]"), (u, u5, r"F_5\[u\] used over F_3\[u\]")):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(ValueError, match=f"^coefficient from {shown}$"):
                op(x, y)
        # u + v used to give 2*u, and u == v to hold
        assert x != y and not x == y
    # a field of the same p and names reads polynomials alike
    twin = CoeffField(3, units=("u",)).unit_gen("u")
    assert twin == u and str(u + twin) == "2*u" and str(u - twin) == "0" and str(u * twin) == "u^2"


def test_polynomials_take_an_integer_on_either_side():
    field = CoeffField(3, units=("u",))
    u = field.unit_gen("u")
    for k in (-4, 0, 1, 2, 5):
        assert k * u == u * k
        assert k + u == u + k
        assert k - u == -(u - k)
    assert str(2 * u) == "2*u" and str(1 - u) == "1 + 2*u"
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(TypeError, match="cannot combine a polynomial with float"):
            op(1.5, u)


def test_polynomials_refuse_a_bool_on_either_side():
    field = CoeffField(3, units=("u",))
    u = field.unit_gen("u")
    forms = (
        lambda: u * True, lambda: True * u, lambda: u + True, lambda: True + u,
        lambda: u - False, lambda: False - u, lambda: u * False, lambda: False + u,
    )
    for form in forms:
        with pytest.raises(TypeError, match="^cannot combine a polynomial with bool$"):
            form()
    assert (u == True) is False and (u == False) is False and (u != True) is True
    assert str(u * 2) == str(2 * u) == "2*u" and u + 1 == 1 + u


def test_a_coefficient_that_is_not_a_polynomial_is_refused():
    field, gamma = CoeffField(3), element(Z1, -2)
    with pytest.raises(TypeError, match="a series coefficient must be a Poly, got int"):
        SeriesElement(field, Z1, {gamma: 3})
    with pytest.raises(TypeError, match="a series coefficient must be a Poly, got float"):
        t_term(field, Z1, gamma, 1.5)
    # True is not the integer 1 here
    with pytest.raises(TypeError, match="a series coefficient must be a Poly, got bool"):
        t_term(field, Z1, gamma, True)


@given(st.data())
def test_an_exponent_from_another_group_is_refused(data):
    home = data.draw(descriptors)
    foreign = data.draw(descriptors.filter(lambda d: d != home))
    field = CoeffField(2, units=("u",))
    u = field.unit_gen("u")
    # a zero coefficient does not get a foreign value past the check, nor
    # does a point of the group's divisible hull
    for gamma in (data.draw(elements(foreign)), data.draw(elements(home, hull=True))):
        for c in (u, field.zero):
            with pytest.raises(ValueError, match="the term lives over a different group"):
                SeriesElement(field, home, {gamma: c})
            with pytest.raises(ValueError, match="the term lives over a different group"):
                t_term(field, home, gamma, c)
            with pytest.raises(ValueError, match="the term lives over a different group"):
                SeriesElement(field, home, {zero(home): field.one, gamma: c})
    # constant_series puts its coefficient at t^0; a tagged variable whose
    # tag lies in another group is refused instead
    tagged = CoeffField(2, tags=(data.draw(positive_elements(foreign)),))
    with pytest.raises(ValueError, match="variable tags live in a different group"):
        constant_series(tagged, home, tagged.gens[0])


def _built(make):
    """(data, layout, exponent bound, t bound) of the series make() returns,
    or the type and text of the error it raises.  Layouts are interned and
    have no ``__eq__``, so equal results hold the identical layout."""
    try:
        f = make()
    except ValueError as e:
        return type(e), str(e)
    return f._data, f._lay, f._eb, f._tb


@st.composite
def _one_term_cases(draw):
    """(field, descriptor, gamma, coefficient): tags and exponents whose
    denominators widen the layout over every test group, exponents past the
    least field width, and zero and nonzero integer and Poly coefficients."""
    descriptor = draw(descriptors)
    p = draw(st.sampled_from([2, 3, 5]))
    tags = draw(st.lists(positive_elements(descriptor), max_size=2, unique=True))
    field = CoeffField(p, tags=tags, units=("u",))
    gamma = draw(elements(descriptor))
    monomial = st.tuples(st.integers(0, p - 1), st.sampled_from(field.gens), st.integers(0, 40)).map(
        lambda cge: field.one * cge[0] * cge[1] ** cge[2]
    )
    coeff = draw(st.one_of(
        st.integers(-2 * p, 2 * p),
        monomial,
        st.sampled_from([field.zero, field.one]),
        st.tuples(monomial, monomial).map(lambda ab: ab[0] + ab[1]),
    ))
    return field, descriptor, gamma, coeff


@settings(max_examples=300, deadline=None)
@given(_one_term_cases())
def test_one_term_series_match_the_constructor(case):
    field, descriptor, gamma, coeff = case
    poly = field.one * coeff if isinstance(coeff, int) else coeff
    want = _built(lambda: SeriesElement(field, descriptor, {gamma: poly}))
    assert _built(lambda: t_term(field, descriptor, gamma, coeff)) == want
    assert _built(lambda: t_term(field, descriptor, gamma, poly)) == want
    at_zero = _built(lambda: SeriesElement(field, descriptor, {zero(descriptor): poly}))
    assert _built(lambda: constant_series(field, descriptor, coeff)) == at_zero
    if not isinstance(coeff, int):
        assert _built(lambda: variable_series(field, descriptor, coeff)) == at_zero


@given(st.data())
def test_one_term_series_refuse_what_the_constructor_refuses(data):
    home = data.draw(descriptors)
    foreign = data.draw(descriptors.filter(lambda d: d != home))
    p = data.draw(st.sampled_from([2, 3, 5]))
    field = CoeffField(p, units=("u",))
    gamma = data.draw(elements(home))
    others = [
        (data.draw(elements(foreign)), field.unit_gen("u")),
        (data.draw(elements(home, hull=True)), 1),
        (gamma, CoeffField(p, units=("u", "w")).unit_gen("w")),
        (gamma, CoeffField(3 if p == 2 else 2, units=("u",)).unit_gen("u")),
    ]
    for g, c in others:
        poly = field.one * c if isinstance(c, int) else c
        want = _built(lambda: SeriesElement(field, home, {g: poly}))
        assert want[0] is ValueError
        assert _built(lambda: t_term(field, home, g, c)) == want
    c = CoeffField(p, units=("w",)).unit_gen("w")
    want = _built(lambda: SeriesElement(field, home, {zero(home): c}))
    assert want[0] is ValueError
    assert _built(lambda: constant_series(field, home, c)) == want
    assert _built(lambda: variable_series(field, home, c)) == want
    tagged = CoeffField(p, tags=(data.draw(positive_elements(foreign)),))
    want = _built(lambda: SeriesElement(tagged, home, {gamma: tagged.gens[0]}))
    assert want == (ValueError, "variable tags live in a different group")
    assert _built(lambda: t_term(tagged, home, gamma, tagged.gens[0])) == want
    assert _built(lambda: constant_series(tagged, home, 1)) == want


# -- field elements -----------------------------------------------------------------


@given(st.sampled_from([2, 3]), st.data())
def test_field_element_laws(p, data):
    a = FieldElement(data.draw(series_for(p)), data.draw(series_for(p, allow_zero=False)))
    b = FieldElement(data.draw(series_for(p)), data.draw(series_for(p, allow_zero=False)))
    assert a + b == b + a
    assert a - a == a * FieldElement(constant_series(a.field, a.descriptor, 0))
    if not b.is_zero():
        assert (a / b) * b == a
    assert a * b == b * a
    assert a ** 2 == a * a


def test_field_element_golden():
    t = FieldElement(t_term(F2, ZP2, E1))
    one = FieldElement(constant_series(F2, ZP2, 1))
    assert (one / t).valuation() == -E1
    assert (t ** -2).valuation() == int_scale(-2, E1)
    with pytest.raises(ZeroDivisionError):
        one / (t - t)
    # cross-form equality: t/t^2 == 1/t
    assert FieldElement(t_term(F2, ZP2, E1), t_term(F2, ZP2, int_scale(2, E1))) == one / t
    assert t == t_term(F2, ZP2, E1)  # series on the right is accepted


# -- the order-p automorphism -------------------------------------------------------


@given(st.sampled_from([2, 3]), st.data())
def test_sigma_has_order_p(p, data):
    s = SIGMAS[p]
    f = data.draw(series_for(p))
    out = f
    for _ in range(p):
        out = s.apply(out)
    assert out == f


@given(st.sampled_from([2, 3]), st.data())
def test_sigma_preserves_valuation_and_lead(p, data):
    s = SIGMAS[p]
    f = data.draw(series_for(p, allow_zero=False))
    g = s.apply(f)
    assert g.valuation() == f.valuation()
    assert g.split_lead()[1] - f.split_lead()[1] == s.field.zero


@given(st.sampled_from([2, 3]), st.data())
def test_sigma_is_ring_map(p, data):
    s = SIGMAS[p]
    f = data.draw(series_for(p))
    g = data.draw(series_for(p))
    assert s.apply(f + g) == s.apply(f) + s.apply(g)
    assert s.apply(f * g) == s.apply(f) * s.apply(g)


def test_sigma_images():
    s = SIGMAS[2]
    x0 = variable_series(F2, ZP2, F2.gens[0])
    x1 = variable_series(F2, ZP2, F2.gens[1])
    assert s.apply(x0) == x0 + t_term(F2, ZP2, E0)
    assert s.apply(x1) == x1 + t_term(F2, ZP2, E1)
    # units and constants are untouched
    u = variable_series(F2, ZP2, F2.unit_gen("u"))
    assert s.apply(u) == u
    assert s.delta(constant_series(F2, ZP2, 1)).is_zero()


def test_sigma_delta_product_expansion():
    # sigma(x0 x1) - x0 x1 = x0 t^{e1} + x1 t^{e0} + t^{e0+e1}
    s = SIGMAS[2]
    x0 = variable_series(F2, ZP2, F2.gens[0])
    x1 = variable_series(F2, ZP2, F2.gens[1])
    d = s.delta(x0 * x1)
    expect = (
        x0.shift(E1)
        + x1.shift(E0)
        + t_term(F2, ZP2, E0 + E1)
    )
    assert d == expect
    assert d.valuation() == E1


def test_sigma_fixed_combination():
    # x0 - x1 t^{e0 - e1} is fixed: both variables shift by the same term
    s = SIGMAS[2]
    x0 = variable_series(F2, ZP2, F2.gens[0])
    x1 = variable_series(F2, ZP2, F2.gens[1])
    y = x0 - x1.shift(E0 - E1)
    assert s.delta(y).is_zero()


# -- norm and trace -----------------------------------------------------------------


@given(st.sampled_from([2, 3]), st.data())
@settings(deadline=None)
def test_norm_trace_sigma_fixed(p, data):
    s = SIGMAS[p]
    f = data.draw(series_for(p, allow_zero=False))
    n = norm(s, f)
    tr = trace(s, f)
    assert s.apply(n) == n
    assert s.apply(tr) == tr
    assert n.valuation() == int_scale(p, f.valuation())


@st.composite
def multi_term_series(draw, field, descriptor):
    terms = {}
    for _ in range(draw(st.integers(min_value=2, max_value=3))):
        gamma = draw(_exps(descriptor))
        terms[gamma] = terms.get(gamma, field.zero) + draw(polys(field, max_deg=1))
    return SeriesElement(field, descriptor, terms)


@given(st.sampled_from(WIDE_SIGMAS), st.data())
@settings(deadline=None, max_examples=40)
def test_norm_trace_laws_on_multi_term_series(s, data):
    f = data.draw(multi_term_series(s.field, s.descriptor))
    g = data.draw(multi_term_series(s.field, s.descriptor))
    assert valuation_laws(s, f, g) == []
    assert norm_trace_laws(s, f) == []


def test_trace_of_constant():
    s = SIGMAS[3]
    c = constant_series(F3, Z1, 1)
    assert trace(s, c) == constant_series(F3, Z1, 3)  # = 0 mod 3
    assert trace(s, c).is_zero()
    assert norm(s, c) == c


# N(x_d) = prod over i in F_p of (x_d + i*t^d) = x_d^p - t^((p-1)d)*x_d, the
# Artin-Schreier polynomial; a unit u, which sigma fixes, rides along
ZP3 = p_inverted(3)
AS_TAGS = {
    ZP3: (element(ZP3, Fraction(1, 3)), element(ZP3, 2)),
    Z2: (element(Z2, (1, -2)), element(Z2, (0, 3))),
    Q2: (element(Q2, (1, 0)), element(Q2, (Fraction(-1, 2), 1))),
}


@pytest.mark.parametrize("descriptor", [ZP3, Z2, Q2])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_norm_of_a_tagged_variable_is_its_artin_schreier_polynomial(p, descriptor):
    field = CoeffField(p, tags=AS_TAGS[descriptor], units=("u",))
    s = SigmaSpec(field, descriptor)
    u = variable_series(field, descriptor, field.unit_gen("u"))
    for i, d in enumerate(field.tags):
        x = variable_series(field, descriptor, field.gens[i])
        c = t_term(field, descriptor, int_scale(p - 1, d))
        for y in (x, x + u):
            assert norm(s, y) == y.power(p) - c * y


# Tr(x_d^k) = sum_j C(k, j) x_d^(k-j) t^(jd) sum_{i<p} i^j, and the inner sum
# is -1 when j > 0 and (p-1) | j, else 0 (j = 0 gives p); so Tr(x_d^k) = 0
# for k < p - 1 and Tr(x_d^(p-1)) = -t^((p-1)d), and a unit u rides along
@pytest.mark.parametrize("descriptor", [ZP3, Z2, Q2])
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_trace_of_a_tagged_power(p, descriptor):
    field = CoeffField(p, tags=AS_TAGS[descriptor], units=("u",))
    s = SigmaSpec(field, descriptor)
    u = variable_series(field, descriptor, field.unit_gen("u"))
    one = constant_series(field, descriptor, 1)
    for i, d in enumerate(field.tags):
        x = variable_series(field, descriptor, field.gens[i])
        top = -t_term(field, descriptor, int_scale(p - 1, d))
        for unit in (one, u):
            for k in range(p):
                got = trace(s, (x * unit).power(k))
                if k < p - 1:
                    assert got.is_zero(), (k, unit)
                else:
                    assert got == top * unit.power(k)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_norm_makes_p_minus_1_products_and_sigma_calls(p, monkeypatch):
    # the stub is no automorphism, so nothing cancels by accident: the norm
    # is still the left to right product of f, sigma f, ..., sigma^(p-1) f
    field = CoeffField(p, tags=(element(Z1, 1),), units=("u",))
    u = variable_series(field, Z1, field.unit_gen("u"))
    f = variable_series(field, Z1, field.gens[0]) + t_term(field, Z1, element(Z1, -1))
    applied, products = [], []

    def apply(x):
        applied.append(x)
        return x.shift(element(Z1, 1)) + u

    mul = SeriesElement.__mul__

    def counting(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(SeriesElement, "__mul__", counting)
    got = norm(SimpleNamespace(p=p, apply=apply), f)
    assert (len(applied), len(products)) == (p - 1, p - 1)
    conj = [f]
    for _ in range(p - 1):
        conj.append(conj[-1].shift(element(Z1, 1)) + u)
    expect = conj[0]
    for c in conj[1:]:
        expect = mul(expect, c)
    assert got == expect


def test_series_law_labels_on_a_broken_sigma(monkeypatch):
    s = SIGMAS[2]
    f = t_term(F2, ZP2, E1) + variable_series(F2, ZP2, F2.gens[0])
    g = t_term(F2, ZP2, element(ZP2, -1), F2.unit_gen("u"))
    assert valuation_laws(s, f, g) == [] and norm_trace_laws(s, f) == []
    shifting = SimpleNamespace(p=2, apply=lambda x: x.shift(element(ZP2, -1)))
    shifting.delta = lambda x: shifting.apply(x) - x
    assert valuation_laws(shifting, f, g) == ["sigma preserves valuation"]
    assert norm_trace_laws(shifting, f) == ["norm is fixed", "trace is fixed", "norm valuation"]
    # a product that lands one step low breaks additivity
    mul = SeriesElement.__mul__
    monkeypatch.setattr(SeriesElement, "__mul__", lambda a, b: mul(a, b).shift(element(ZP2, -1)))
    identity = SimpleNamespace(p=2, apply=lambda x: x)
    assert valuation_laws(identity, f, g) == ["valuation additivity"]


def test_polynomials_series_and_literals_take_powers_by_the_same_products(monkeypatch):
    # v and t(1) play the same part, so each product of v + u + 2 and of
    # t(1) + u + 2 has operands of the same sizes; a literal's ^n makes the
    # products of SeriesElement.power and is charged the pairs they touch
    field = CoeffField(3, units=("u",))
    v, u = CoeffField(3, units=("v", "u")).gens
    poly = v + u + 2
    series = t_term(field, Z1, element(Z1, 1)) + variable_series(field, Z1, field.unit_gen("u"))
    series = series + constant_series(field, Z1, 2)
    seen = []
    for cls, size in ((Poly, lambda a: len(a.terms())), (SeriesElement, SeriesElement.num_terms)):
        mul = cls.__mul__
        monkeypatch.setattr(cls, "__mul__", lambda a, b, mul=mul, size=size: seen.append((size(a), size(b))) or mul(a, b))
    for n in range(18):
        reader = literals._SeriesReader(literals._Tokens(f"(t(1) + u + 2)^{n}"), field, Z1)
        products = []
        for power in (lambda: poly ** n, lambda: series.power(n), reader.sum):
            seen.clear()
            products.append((power(), list(seen)))
        (_, by_poly), (by_series, by_power), (by_literal, by_reader) = products
        assert by_poly == by_power == by_reader, n
        assert len(by_power) == n.bit_length() + bin(n).count("1") - (n > 0)
        assert by_literal == by_series
        assert literals.PARSE_PAIR_BUDGET - reader.pairs_left == sum(m * k for m, k in by_reader)


# -- p-th power detection -----------------------------------------------------------


@given(st.sampled_from([2, 3]), st.data())
def test_pth_power_frobenius_oracle(p, data):
    field = SIGMAS[p].field
    g = data.draw(polys(field))
    flag, root = is_pth_power(field, g ** p)
    assert flag
    assert root == g


def test_pth_power_negatives():
    x0, x1 = F2.gens[0], F2.gens[1]
    assert is_pth_power(F2, x0 * x1) == (False, None)
    assert is_pth_power(F2, x0 + x1) == (False, None)
    flag, root = is_pth_power(F2, x0 ** 2 * x1 ** 2)
    assert flag and root == x0 * x1
    assert is_pth_power(F2, F2.zero) == (True, F2.zero)


# -- sigma refuses a series it does not act on -------------------------------------------


def _sigma_and_foreign_series():
    """(sigma, f) where f lies over another ring or group than sigma."""
    zp3 = p_inverted(3)
    half, one = element(ZP2, Fraction(1, 2)), element(ZP2, 1)
    two_tags = CoeffField(2, tags=(one, half))
    over_zp3 = CoeffField(2, tags=(element(zp3, 1),))
    over_f2 = CoeffField(2, tags=(one,))
    return [
        # one tag against x1 of a two-tag field: no row for x1
        (SigmaSpec(CoeffField(2, tags=(one,)), ZP2), variable_series(two_tags, ZP2, two_tags.gens[1])),
        # Z[1/2] against Z[1/3]: x0 would move by t^(1/2), outside Z[1/3]
        (SigmaSpec(CoeffField(2, tags=(half,)), ZP2), variable_series(over_zp3, zp3, over_zp3.gens[0])),
        # F_3 against F_2: x0^2 would gain the coefficient 2
        (SigmaSpec(CoeffField(3, tags=(one,)), ZP2), variable_series(over_f2, ZP2, over_f2.gens[0] ** 2)),
    ]


@pytest.mark.parametrize("case", range(3), ids=["tags", "group", "p"])
def test_sigma_refuses_a_series_over_another_ring_or_group(case):
    sigma, f = _sigma_and_foreign_series()[case]
    for act in (sigma.apply, sigma.delta):
        with pytest.raises(ValueError, match="^sigma acts only on series over its own p, variables and group$"):
            act(f)


# -- printing, equality and refused powers ------------------------------------------------


def test_series_repr_lists_its_terms_in_increasing_value():
    field = CoeffField(2, tags=(element(ZP2, Fraction(1, 2)),), units=("u",))
    f = t_term(field, ZP2, element(ZP2, Fraction(3, 2)), field.unit_gen("u") + 1)
    f = f + t_term(field, ZP2, element(ZP2, -1), field.gens[0])
    assert repr(f) == "(x0)*t^-1 + (1 + u)*t^3/2"
    assert repr(constant_series(field, ZP2, 0)) == "0"


def test_series_equality_across_fields_groups_and_layouts():
    field = CoeffField(2, tags=(element(ZP2, Fraction(1, 2)),))
    other = CoeffField(2, tags=(element(ZP2, Fraction(1, 4)),))
    f = t_term(field, ZP2, element(ZP2, -1), field.gens[0])
    assert f != t_term(other, ZP2, element(ZP2, -1), other.gens[0])  # another field
    plain = CoeffField(2)
    assert constant_series(plain, Z1, 1) != constant_series(plain, ZP2, 1)  # another group
    # another layout: a finer denominator, then another term count
    fine = t_term(field, ZP2, element(ZP2, Fraction(1, 8)))
    assert f + fine - fine == f
    assert f + fine != f
    assert f.__eq__(3) is NotImplemented and f != 3


def test_poly_against_an_integer_and_refused_negative_powers():
    x0 = F2.gens[0]
    assert F2.one == 3 and x0 != 3  # 3 is 1 mod 2
    with pytest.raises(ValueError, match="^polynomial powers need an integer n >= 0$"):
        x0 ** -1
    with pytest.raises(ValueError, match="^series powers need n >= 0$"):
        variable_series(F2, ZP2, x0).power(-1)


def test_coeff_field_names_repr_and_equality():
    with pytest.raises(ValueError, match=r"^duplicate variable names in \['x0', 'x0'\]$"):
        CoeffField(2, tags=(element(ZP2, 1),), units=("x0",))
    assert repr(F2) == "CoeffField(p=2, tags=(2, 1/2), units=('u',))"
    assert F2.__eq__(2) is NotImplemented and F2 != 2
