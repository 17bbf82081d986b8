from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from ramify.cuts import Surd, open_cut, principal_cut
from ramify.defect_lab import build_defect_model
from ramify.ordered_group import (
    element,
    hull_element,
    int_lex,
    int_scale,
    p_inverted,
    quadratic,
    to_hull,
)
from ramify.separation import (
    GapDatum,
    ThresholdPair,
    connectivity_threshold,
    model_gap,
    separation_bound,
)
from ramify.series_field import t_term, variable_series
from ramify.swan import break_of

from .strategies import descriptors, positive_elements

Z1 = int_lex(1)
ZP2 = p_inverted(2)
ZP3 = p_inverted(3)
ZP5 = p_inverted(5)
Q2 = quadratic(2)


def test_gap_datum_validation():
    with pytest.raises(ValueError):
        GapDatum(1, (element(Z1, 1),))
    with pytest.raises(ValueError):
        GapDatum(2, ())
    with pytest.raises(ValueError):
        GapDatum(2, (element(Z1, 0),))
    with pytest.raises(ValueError):
        GapDatum(2, (element(Z1, 1), element(Z1, -2)))
    d = GapDatum(3, (element(Z1, 1), element(Z1, 4), element(Z1, 2)))
    assert d.max_gap() == element(Z1, 4)


def test_threshold_golden():
    pair = connectivity_threshold(element(Z1, 1), 2)
    assert isinstance(pair, ThresholdPair)
    assert pair.connected_at == principal_cut(hull_element(Z1, 2))
    assert pair.separated_at == open_cut(Z1, hull_element(Z1, 2), over_hull=True)
    # gaps may be handed over as hull values directly
    pair2 = connectivity_threshold(hull_element(ZP2, Fraction(1, 2)), 2)
    assert pair2.connected_at == principal_cut(hull_element(ZP2, 1))
    assert pair2.separated_at == open_cut(ZP2, hull_element(ZP2, 1), over_hull=True)
    with pytest.raises(ValueError):
        connectivity_threshold(element(Z1, 0), 2)


@given(st.data(), st.sampled_from([2, 3]))
def test_separated_inside_connected(data, p):
    d = data.draw(descriptors)
    gap = data.draw(positive_elements(d))
    pair = connectivity_threshold(gap, p)
    assert pair.separated_at.subset(pair.connected_at)
    assert pair.separated_at != pair.connected_at
    # the threshold sits at p times the gap
    assert pair.connected_at.contains(int_scale(p, to_hull(gap)))
    assert not pair.separated_at.contains(int_scale(p, to_hull(gap)))


def test_separation_bound_golden():
    d = GapDatum(2, (element(Z1, 1),))
    assert separation_bound(d) == open_cut(Z1, hull_element(Z1, 2), over_hull=True)
    d2 = GapDatum(3, (element(Z1, 1), element(Z1, 2)))
    assert separation_bound(d2) == open_cut(Z1, hull_element(Z1, 6), over_hull=True)
    d3 = GapDatum(2, (element(ZP2, Fraction(3, 4)),))
    assert separation_bound(d3) == open_cut(ZP2, hull_element(ZP2, Fraction(3, 2)), over_hull=True)


@given(st.data(), st.integers(min_value=2, max_value=4))
def test_separation_bound_inside_each_gap_power(data, n):
    d = data.draw(descriptors)
    gaps = tuple(data.draw(positive_elements(d)) for _ in range(data.draw(st.integers(1, 3))))
    datum = GapDatum(n, gaps)
    bound = separation_bound(datum)
    for g in gaps:
        per_gap = open_cut(d, to_hull(g), over_hull=True).power(n)
        assert bound.subset(per_gap)


@given(st.data(), st.sampled_from([2, 3]))
def test_equal_gaps_bound_matches_threshold_power(data, p):
    d = data.draw(descriptors)
    g = data.draw(positive_elements(d))
    datum = GapDatum(p, (g, g))
    pair = connectivity_threshold(g, p)
    assert separation_bound(datum).subset(pair.separated_at)


# -- gaps read off a defect model -----------------------------------------------------


@pytest.mark.parametrize("depth", [3, 4, 5, 6])
@pytest.mark.parametrize(
    "descriptor, p, bound",
    [
        (ZP2, 2, element(ZP2, 1)),
        (ZP3, 3, Surd(Fraction(1, 2), 1, 2)),
        (ZP5, 5, element(ZP5, 1)),
        (Q2, 2, element(Q2, (1, 1))),
        (Q2, 3, element(Q2, (1, 1))),
    ],
    ids=["zp2", "zp3-surd", "zp5", "quad2-p2", "quad2-p3"],
)
def test_model_gap_of_generators(descriptor, p, bound, depth):
    # sigma(x_i) - x_i = t^e(i) exactly, for every generator of the model
    m = build_defect_model(descriptor, p, open_cut(descriptor, bound), depth=depth)
    for i, e in enumerate(m.e_seq):
        x = variable_series(m.field, descriptor, m.field.gens[i])
        assert model_gap(m, x) == e
    # a product moves by the smaller tag
    x0 = variable_series(m.field, descriptor, m.field.gens[0])
    x1 = variable_series(m.field, descriptor, m.field.gens[1])
    assert model_gap(m, x0 + x1) == m.e_seq[1]
    assert model_gap(m, x0 * x1) == m.e_seq[1]


def test_model_gap_rejects_fixed_elements():
    m = build_defect_model(ZP2, 2, open_cut(ZP2, element(ZP2, 1)), depth=3)
    t = t_term(m.field, ZP2, element(ZP2, 5))
    with pytest.raises(ValueError, match="fixes"):
        model_gap(m, t)
    x0 = variable_series(m.field, ZP2, m.field.gens[0])
    x1 = variable_series(m.field, ZP2, m.field.gens[1])
    fixed = x0 - x1.shift(m.e_seq[0] - m.e_seq[1])
    with pytest.raises(ValueError, match="fixes"):
        model_gap(m, fixed)


def test_model_gap_chain_approaches_the_break():
    # deeper generators have smaller gaps; all thresholds stay inside the break
    m = build_defect_model(ZP2, 2, open_cut(ZP2, element(ZP2, 1)), depth=4)
    brk = break_of(m.conductor)
    gaps = [
        model_gap(m, variable_series(m.field, ZP2, m.field.gens[i]))
        for i in range(len(m.e_seq))
    ]
    for a, b in zip(gaps, gaps[1:]):
        assert b < a
    pairs = [connectivity_threshold(g, m.p) for g in gaps]
    for pair, g in zip(pairs, gaps):
        assert pair.connected_at.subset(brk)
        # the conductor cut contains each threshold value p*e(i)
        assert m.conductor.contains(int_scale(m.p, g))
    # smaller gaps give larger threshold ideals: the chain climbs toward the break
    for lo, hi in zip(pairs, pairs[1:]):
        assert lo.connected_at.subset(hi.connected_at)
        assert lo.connected_at != hi.connected_at


@pytest.mark.parametrize("p", [0, 1, 4])
def test_connectivity_threshold_refuses_a_p_that_is_not_prime(p):
    with pytest.raises(ValueError, match=f"^the residue characteristic must be prime, got {p}$"):
        connectivity_threshold(element(ZP2, 1), p)


@pytest.mark.parametrize("p", [True, 2.0])
def test_connectivity_threshold_refuses_a_p_that_is_not_an_int(p):
    with pytest.raises(TypeError, match="^expected an integer, got "):
        connectivity_threshold(element(ZP2, 1), p)


@pytest.mark.parametrize("degree", [2.5, 2.0, True])
def test_gap_datum_refuses_a_degree_that_is_not_an_int(degree):
    with pytest.raises(TypeError, match="^expected an integer, got "):
        GapDatum(degree, (element(Z1, 1),))
