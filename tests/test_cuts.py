import math
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from ramify.cuts import Surd, frontier_cut, open_cut, principal_cut, whole_cut
from ramify.ordered_group import (
    _is_squarefree_nonsquare,
    compare,
    element,
    hull_element,
    int_lex,
    int_scale,
    min_positive,
    p_inverted,
    quadratic,
    to_hull,
    zero,
)

from .strategies import descriptors, elements, group_cuts, hull_ideals

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
    step = min_positive(d)
    if step is not None:
        assert not cut.contains(m - step)


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


@given(group_cuts(), st.integers(min_value=1, max_value=4))
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
