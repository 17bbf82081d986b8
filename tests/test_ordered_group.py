import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from ramify.cuts import frontier_cut, open_cut
from ramify.defect_lab import build_defect_model, verify_delta_bounds
from ramify.ordered_group import (
    TRIAL_DIVISION_CAP,
    GroupDescriptor,
    GroupElement,
    _is_prime,
    _is_squarefree_nonsquare,
    HullElement,
    add,
    compare,
    divide_exact,
    element,
    hull_element,
    in_group,
    int_lex,
    int_scale,
    is_positive,
    mod_p_image,
    neg,
    p_inverted,
    quad_sign,
    quadratic,
    sign,
    to_hull,
    zero,
)
from ramify.series_field import CoeffField, t_term
from ramify.swan import artin_schreier_reduce

from . import group_reference as ref
from .strategies import element_pairs, element_triples, elements


def test_descriptor_validation():
    with pytest.raises(ValueError):
        int_lex(0)
    with pytest.raises(ValueError):
        p_inverted(4)
    with pytest.raises(ValueError):
        p_inverted(1)
    with pytest.raises(ValueError):
        quadratic(4)  # square
    with pytest.raises(ValueError):
        quadratic(12)  # not squarefree
    with pytest.raises(ValueError):
        quadratic(1)
    assert str(int_lex(2)) == "zlex:2"
    assert str(p_inverted(3)) == "zp:3"
    assert str(quadratic(5)) == "quad:5"
    assert not int_lex(3).is_dense
    assert p_inverted(2).is_dense and quadratic(2).is_dense


_INTEGER_GATES = {
    "int_lex": int_lex,
    "p_inverted": p_inverted,
    "quadratic": quadratic,
    "CoeffField": CoeffField,
    "Cut.power": frontier_cut(int_lex(2), (1,)).power,
    "Cut.pth_root_set": frontier_cut(int_lex(2), (1,)).pth_root_set,
    "mod_p_image": lambda p: mod_p_image(element(int_lex(1), 1), p),
    "int_scale": lambda n: int_scale(n, element(int_lex(1), 1)),
    "divide_exact": lambda n: divide_exact(element(int_lex(1), 2), n),
    "Poly.__pow__": lambda n: CoeffField(3, units=("u",)).unit_gen("u") ** n,
    "SeriesElement.power": t_term(CoeffField(3), int_lex(1), element(int_lex(1), 1)).power,
    "build_defect_model": lambda n: build_defect_model(
        p_inverted(2), 2, open_cut(p_inverted(2), element(p_inverted(2), 1)), depth=n
    ),
    "verify_delta_bounds": lambda n: verify_delta_bounds(
        build_defect_model(p_inverted(2), 2, open_cut(p_inverted(2), element(p_inverted(2), 1))), samples=n
    ),
    "artin_schreier_reduce": lambda n: artin_schreier_reduce(
        t_term(CoeffField(2), p_inverted(2), element(p_inverted(2), -1)), n
    ),
    "SeriesElement.artin_schreier_run": t_term(CoeffField(2), p_inverted(2), element(p_inverted(2), -1)).artin_schreier_run,
}


@pytest.mark.parametrize("value", [2.0, 2.5, True, Fraction(2)], ids=repr)
@pytest.mark.parametrize("gate", list(_INTEGER_GATES))
def test_integer_parameters_refuse_every_other_type(gate, value):
    # 2.0 and Fraction(2) pass the range and prime tests as 2, True as 1
    with pytest.raises(TypeError, match=f"^expected an integer, got {type(value).__name__}$"):
        _INTEGER_GATES[gate](value)


def test_values_are_immutable_typed_and_hash_by_value():
    d = quadratic(2)
    assert repr(d) == "GroupDescriptor(kind='quad', param=2)"
    g = element(d, (Fraction(1, 2), 3))
    # the same numbers in the two spaces are different values
    assert GroupElement(d, g.nums, g.den) != HullElement(d, g.nums, g.den)
    assert GroupElement(d, (1, 0), 1) != HullElement(d, (1, 0), 1)
    # equal values built apart are equal and hash alike
    assert quadratic(2) == d and hash(quadratic(2)) == hash(d)
    h = add(element(d, (Fraction(1, 4), 1)), element(d, (Fraction(1, 4), 2)))
    assert h == g and h is not g and hash(h) == hash(g)
    for obj, name in ((d, "kind"), (d, "param"), (g, "nums"), (g, "den"), (g, "descriptor")):
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)


def test_zero_is_one_shared_immutable_element_per_group_and_hull():
    for d in (int_lex(1), int_lex(3), p_inverted(2), p_inverted(5), quadratic(2), quadratic(3)):
        for hull, make, kind in ((False, element, GroupElement), (True, hull_element, HullElement)):
            z = zero(d, hull)
            assert type(z) is kind and z == make(d, (0,) * d.param if d.kind == "zlex" else 0)
            # repeat calls, and calls with an equal descriptor built apart,
            # return the same object
            assert zero(d, hull) is z
            assert zero(type(d)(d.kind, d.param), hull) is z
            for name in ("nums", "den", "descriptor"):
                with pytest.raises(AttributeError):
                    setattr(z, name, getattr(z, name))
        assert zero(d) != zero(d, hull=True)
    assert zero(int_lex(2)) is not zero(int_lex(3)) and zero(p_inverted(2)) != zero(p_inverted(3))


def test_coercion_validation():
    zp2 = p_inverted(2)
    with pytest.raises(ValueError):
        element(zp2, Fraction(1, 3))  # denominator is not a power of 2
    element(zp2, Fraction(5, 8))
    hull_element(zp2, Fraction(1, 3))  # any rational lives in the hull
    zl2 = int_lex(2)
    with pytest.raises(ValueError):
        element(zl2, (1,))
    with pytest.raises(ValueError):
        element(zl2, (Fraction(1, 2), 0))
    hull_element(zl2, (Fraction(1, 2), Fraction(0)))


@given(element_pairs())
def test_compare_antisymmetry(pair):
    x, y = pair
    assert compare(x, y) == -compare(y, x)
    assert (compare(x, y) == 0) == (x == y)


@given(element_triples())
def test_compare_transitivity(triple):
    x, y, z = triple
    a, b, c = sorted([x, y, z])
    assert a <= b <= c
    assert a <= c


@given(element_triples())
def test_group_laws(triple):
    x, y, z = triple
    d = x.descriptor
    assert add(x, y) == add(y, x)
    assert add(add(x, y), z) == add(x, add(y, z))
    assert add(x, neg(x)) == zero(d)
    assert add(x, zero(d)) == x


@given(element_triples())
def test_order_translation_invariant(triple):
    x, y, z = triple
    assert compare(x, y) == compare(add(x, z), add(y, z))


@given(element_pairs(), st.integers(min_value=0, max_value=7))
def test_int_scale_matches_repeated_add(pair, n):
    x, _ = pair
    total = zero(x.descriptor)
    for _ in range(n):
        total = add(total, x)
    assert int_scale(n, x) == total
    assert int_scale(-n, x) == neg(total)


@given(elements(), st.integers(min_value=2, max_value=7))
def test_divide_exact_inverts_scale(x, n):
    q = divide_exact(x, n)
    if q is not None:
        assert int_scale(n, q) == x
    # the hull always divides
    h = divide_exact(to_hull(x), n)
    assert h is not None and int_scale(n, h) == to_hull(x)


def test_divide_exact_refusals():
    zl2 = int_lex(2)
    assert divide_exact(element(zl2, (2, 4)), 2) == element(zl2, (1, 2))
    assert divide_exact(element(zl2, (1, 2)), 2) is None
    zp2 = p_inverted(2)
    assert divide_exact(element(zp2, 1), 3) is None
    assert divide_exact(element(zp2, Fraction(3, 4)), 2) == element(zp2, Fraction(3, 8))
    qd = quadratic(2)
    x = element(qd, (Fraction(1), Fraction(1)))
    assert divide_exact(x, 5) == element(qd, (Fraction(1, 5), Fraction(1, 5)))


@given(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
    st.sampled_from([2, 3, 5, 6, 7]),
)
def test_quad_sign_against_floats(a, b, d):
    value = a + b * math.sqrt(d)
    if abs(value) < 1e-6:
        return
    assert quad_sign(Fraction(a), Fraction(b), d) == (1 if value > 0 else -1)


def test_quad_sign_near_ties():
    # 10/7 > sqrt(2) > 7/5; floats nearby agree but these are decided exactly
    assert quad_sign(Fraction(10, 7), Fraction(-1), 2) == 1
    assert quad_sign(Fraction(7, 5), Fraction(-1), 2) == -1
    assert quad_sign(Fraction(3), Fraction(-2), 2) == 1
    assert quad_sign(Fraction(-3), Fraction(2), 2) == -1
    assert quad_sign(Fraction(0), Fraction(1), 2) == 1


@given(element_pairs())
def test_hull_embedding_preserves_order(pair):
    x, y = pair
    assert compare(x, y) == compare(to_hull(x), to_hull(y))
    assert in_group(to_hull(x))
    assert element(x.descriptor, to_hull(x).value) == x


def test_hull_group_do_not_mix():
    zp2 = p_inverted(2)
    g = element(zp2, 1)
    h = hull_element(zp2, 1)
    assert g != h
    with pytest.raises(TypeError):
        add(g, h)
    with pytest.raises(TypeError):
        compare(g, h)
    with pytest.raises(ValueError):
        element(zp2, hull_element(zp2, Fraction(1, 3)).value)


def test_cross_group_ops_rejected():
    with pytest.raises(ValueError):
        add(element(p_inverted(2), 1), element(p_inverted(3), 1))
    with pytest.raises(ValueError):
        compare(element(int_lex(2), (1, 0)), element(int_lex(3), (1, 0, 0)))


@given(elements())
def test_sign_consistency(x):
    s = sign(x)
    assert s in (-1, 0, 1)
    assert (s == 0) == (x == zero(x.descriptor))
    assert (s > 0) == is_positive(x)
    assert sign(neg(x)) == -s


def test_mod_p_image_per_family():
    assert mod_p_image(element(int_lex(3), (5, -1, 7)), 3) == [2, 2, 1]
    assert mod_p_image(element(int_lex(1), 4), 2) == [0]
    # Z[1/q]/pZ[1/q] = F_p for q != p: -1/4 -> -1 * 4^-1 = 2 mod 3, 3/8 -> 3 * 8^-1 = 1 mod 5
    assert mod_p_image(element(p_inverted(2), Fraction(-1, 4)), 3) == [2]
    assert mod_p_image(element(p_inverted(2), Fraction(3, 8)), 5) == [1]
    # p-divisible groups have the zero quotient
    assert mod_p_image(element(p_inverted(5), Fraction(1, 25)), 5) == []
    assert mod_p_image(element(quadratic(2), (Fraction(1, 3), 1)), 2) == []
    with pytest.raises(ValueError):
        mod_p_image(hull_element(int_lex(1), 1), 2)
    with pytest.raises(ValueError):
        mod_p_image(element(int_lex(1), 1), 4)


@given(element_pairs(), st.sampled_from([2, 3, 5, 7]))
def test_mod_p_image_is_the_quotient_map(pair, p):
    x, y = pair
    # additive, with kernel exactly p*Gamma
    image = lambda v: mod_p_image(v, p)
    assert image(add(x, y)) == [(a + b) % p for a, b in zip(image(x), image(y))]
    assert (not any(image(x))) == (divide_exact(x, p) is not None)


def _checked(like, raw):
    """What the validating constructor makes of a raw value in the space of
    ``like``, or None where it refuses the value."""
    make = hull_element if isinstance(like, HullElement) else element
    try:
        return make(like.descriptor, raw)
    except ValueError:
        return None


def _coordinate_types(value):
    return tuple(map(type, value)) if isinstance(value, tuple) else type(value)


@given(
    st.booleans().flatmap(lambda hull: element_pairs(hull=hull)),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-7, max_value=7).filter(bool),
)
def test_closed_operations_match_the_validating_constructor(pair, n, m):
    x, y = pair

    def each(f, *values):
        if isinstance(values[0], tuple):
            return tuple(map(f, *values))
        return f(*values)

    results = [
        (add(x, y), each(lambda a, b: a + b, x.value, y.value)),
        (neg(x), each(lambda a: -a, x.value)),
        (int_scale(n, x), each(lambda a: n * a, x.value)),
        (divide_exact(x, m), each(lambda a: Fraction(a) / m, x.value)),
    ]
    for got, raw in results:
        want = _checked(x, raw)
        assert got == want
        if want is not None:
            assert type(got) is type(want)
            assert _coordinate_types(got.value) == _coordinate_types(want.value)
    assert sign(x) == compare(x, zero(x.descriptor, hull=isinstance(x, HullElement)))


# -- the integer form against the Fraction oracle -----------------------------------

_BIG = 10 ** 400
_ORACLE_GROUPS = [int_lex(1), int_lex(2), int_lex(3), p_inverted(2), p_inverted(3), p_inverted(5), quadratic(2), quadratic(3)]
# small numerators and 10^400-sized ones of either sign
_numerators = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.builds(lambda s, k: s * (_BIG + k), st.sampled_from([1, -1]), st.integers(min_value=0, max_value=5)),
)


@st.composite
def _oracle_pair(draw):
    """Two points of one space: a group or its hull, any family."""
    d = draw(st.sampled_from(_ORACLE_GROUPS))
    hull = draw(st.booleans())
    width = len(zero(d).nums)

    def coordinate():
        num = draw(_numerators)
        if d.kind == "zlex" and not hull:
            return num
        if d.kind == "zp" and not hull:
            return Fraction(num, d.param ** draw(st.integers(min_value=0, max_value=400)))
        return Fraction(num, draw(st.sampled_from([1, 2, 3, 5, 6, 9, 10 ** 399, _BIG + 1])))

    make = hull_element if hull else element
    return tuple(make(d, coordinate() if width == 1 else tuple(coordinate() for _ in range(width))) for _ in range(2))


def _canonical(x):
    return x.den > 0 and math.gcd(x.den, *x.nums) == 1 and (x.den == 1 or x.descriptor.kind != "zlex" or isinstance(x, HullElement))


@settings(max_examples=300)
@given(_oracle_pair(), st.integers(min_value=-7, max_value=7), st.integers(min_value=-7, max_value=7).filter(bool), st.sampled_from([2, 3, 5, 7]))
def test_integer_form_matches_the_fraction_oracle(pair, n, m, p):
    x, y = pair
    d, hull = x.descriptor, isinstance(x, HullElement)
    X, Y = x.value, y.value
    assert _canonical(x) and _canonical(y)
    assert compare(x, y) == ref.compare(d, X, Y) and (x == y) == (X == Y)
    assert sign(x) == ref.sign(d, X)
    results = [
        (add(x, y), ref.add(d, X, Y)),
        (neg(x), ref.int_scale(d, -1, X)),
        (int_scale(n, x), ref.int_scale(d, n, X)),
        (divide_exact(x, m), ref.divide_exact(d, X, m, hull)),
    ]
    for got, want in results:
        assert (got is None) == (want is None)
        if want is not None:
            assert type(got) is type(x) and _canonical(got)
            assert got.value == want and _coordinate_types(got.value) == _coordinate_types(want)
    h = x if hull else to_hull(x)
    assert in_group(h) == ref.in_group(d, h.value)
    if ref.in_group(d, h.value):
        g = element(d, h.value)
        assert _canonical(g) and g.value == ref.group_value(d, h.value)
        assert mod_p_image(g, p) == ref.mod_p_image(d, g.value, p)


@settings(max_examples=300)
@given(
    st.sampled_from([2, 3, 5, 7, 2 ** 31 - 1]),
    st.integers(min_value=0, max_value=700),
    st.integers(min_value=1, max_value=10 ** 6),
)
def test_membership_by_denominator_matches_the_division_loop(q, e, r):
    # a denominator q^e * r lies in Z[1/q] exactly when the loop that
    # strips factors of q ends at 1
    d = p_inverted(q)
    den = q ** e * r
    assert in_group(hull_element(d, Fraction(1, den))) == ref.in_group(d, Fraction(1, den))


def test_trial_division_matches_the_definitions():
    n_max = 5000
    composite = [False] * (n_max + 1)
    square_factor = [False] * (n_max + 1)
    for k in range(2, n_max + 1):
        for m in range(2 * k, n_max + 1, k):
            composite[m] = True
        for m in range(k * k, n_max + 1, k * k):
            square_factor[m] = True
    for n in range(n_max + 1):
        assert _is_prime(n) == (n >= 2 and not composite[n])
        # squarefree and >= 2 is never a square
        assert _is_squarefree_nonsquare(n) == (n >= 2 and not square_factor[n])
    # at the cap: 2**31 - 1 is prime, 2**31 is neither; above it is refused
    assert _is_prime(TRIAL_DIVISION_CAP - 1) and _is_squarefree_nonsquare(TRIAL_DIVISION_CAP - 1)
    assert not _is_prime(TRIAL_DIVISION_CAP) and not _is_squarefree_nonsquare(TRIAL_DIVISION_CAP)
    for test in (_is_prime, _is_squarefree_nonsquare):
        with pytest.raises(ValueError, match=r"^2147483649 exceeds the supported parameter cap 2\*\*31$"):
            test(TRIAL_DIVISION_CAP + 1)


# -- rarely-run branches ---------------------------------------------------------------


def test_descriptor_refuses_an_unknown_kind_and_compares_only_with_descriptors():
    # parse_group answers first for text; the constructor refuses on its own
    with pytest.raises(ValueError, match="^unknown group kind 'foo'$"):
        GroupDescriptor("foo", 1)
    assert p_inverted(2).__eq__("zp:2") is NotImplemented and p_inverted(2) != "zp:2"


def test_points_order_with_greater_than_and_greater_or_equal():
    d = p_inverted(2)
    one, half = element(d, 1), element(d, Fraction(1, 2))
    assert one >= one and one >= half and not half >= one
    assert one > half and not one > one and not half > one
