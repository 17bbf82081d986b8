import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import ramify.swan as swan_mod
from ramify.cuts import open_cut, principal_cut, whole_cut
from ramify.ordered_group import (
    divide_exact,
    element,
    hull_element,
    int_lex,
    int_scale,
    p_inverted,
    quadratic,
    sign,
)
from ramify.series_field import CoeffField, SeriesElement, constant_series, t_term, variable_series
from ramify.swan import (
    EnlargedGroup,
    EqualCharSymbolic,
    FULL_IMAGE,
    KummerSymbolic,
    RESIDUE_INSEP,
    RESIDUE_TRIVIAL,
    ReduceResult,
    RswSymbol,
    TRIVIAL_IMAGE,
    Type2Move,
    UndeterminedError,
    UnitSymbol,
    ValueClass,
    artin_schreier_reduce,
    break_of,
    classify_equal_char,
    classify_kummer_symbolic,
    galois_image,
    plan_log_smooth,
    single_jump_violations,
    transported_value_image,
    value_group_image,
    wild_inertia_check,
)

from .series_reference import is_pth_power
from .strategies import descriptors, elements, group_cuts, hull_ideals

Z1 = int_lex(1)
Z2 = int_lex(2)
ZP2 = p_inverted(2)
QD2 = quadratic(2)

F2 = CoeffField(2, units=("u",))
F3 = CoeffField(3, units=("u",))


def tpow(field, descriptor, n, coeff=1):
    return t_term(field, descriptor, element(descriptor, n), coeff)


# -- normalization ------------------------------------------------------------------


def test_reduce_strips_pth_power_lead():
    f = tpow(F2, Z1, -4) + tpow(F2, Z1, -3)
    res = artin_schreier_reduce(f)
    assert res.status == "reduced"
    assert res.case == "i"
    assert res.iterations == 1
    assert res.f.valuation() == element(Z1, -3)


def test_reduce_terminal_cases():
    assert artin_schreier_reduce(tpow(F2, Z1, -3)).case == "i"
    u = variable_series(F2, Z1, F2.unit_gen("u"))
    assert artin_schreier_reduce(u * tpow(F2, Z1, -2)).case == "ii"
    assert artin_schreier_reduce(tpow(F2, Z1, 2)).case == "iii"
    assert artin_schreier_reduce(tpow(F2, Z1, 0)).case == "iii"
    zero_f = tpow(F2, Z1, 1) - tpow(F2, Z1, 1)
    assert artin_schreier_reduce(zero_f).case == "iii"


def test_reduce_exhausts_over_dense_group():
    f2 = CoeffField(2)
    f = t_term(f2, ZP2, element(ZP2, -1))
    res = artin_schreier_reduce(f)
    assert res.status == "exhausted"
    assert res.iterations == 64
    # valuation has been pushed up to -1/2^64 without reaching 0
    assert res.f.valuation() == element(ZP2, Fraction(-1, 2 ** 64))


def test_reduce_exhausts_over_quad():
    f3 = CoeffField(3)
    f = t_term(f3, QD2, element(QD2, (-2, 1)), 2)
    res = artin_schreier_reduce(f)
    assert res.status == "exhausted"
    assert res.iterations == 64
    # every step divides the valuation by 3, so it ends at v(f)/3^64
    assert res.f.valuation() == element(QD2, (Fraction(-2, 3 ** 64), Fraction(1, 3 ** 64)))
    assert res.f == t_term(f3, QD2, res.f.valuation(), 2)


def _powering_reduce(f, max_iters=64):
    """The reduction loop as it once ran, subtracting g^p - g with g^p
    computed by series powering."""
    p = f.field.p
    for it in range(max_iters):
        if f.is_zero():
            return ReduceResult("reduced", f, "iii", it)
        v = f.valuation()
        if sign(v) >= 0:
            return ReduceResult("reduced", f, "iii", it)
        w = divide_exact(v, p)
        if w is None:
            return ReduceResult("reduced", f, "i", it)
        flag, root = is_pth_power(f.field, f.split_lead()[1])
        if not flag:
            return ReduceResult("reduced", f, "ii", it)
        g = t_term(f.field, f.descriptor, w, root)
        f = f - (g.power(p) - g)
    return ReduceResult("exhausted", f, None, max_iters)


def _decoding_reduce(f, max_iters=64):
    """The reduction loop on decoded values: split off the lead, decide on
    its ``GroupElement`` and ``Poly``, and add the root back as a term."""
    p = f.field.p
    for it in range(max_iters):
        if f.is_zero():
            return ReduceResult("reduced", f, "iii", it)
        v, lead, rest = f.split_lead()
        if sign(v) >= 0:
            return ReduceResult("reduced", f, "iii", it)
        w = divide_exact(v, p)
        if w is None:
            return ReduceResult("reduced", f, "i", it)
        flag, root = is_pth_power(f.field, lead)
        if not flag:
            return ReduceResult("reduced", f, "ii", it)
        f = rest + t_term(f.field, f.descriptor, w, root)
    return ReduceResult("exhausted", f, None, max_iters)


@st.composite
def _as_right_hand_sides(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    q = 3 if p == 2 else 2
    zp = p_inverted(p)
    descriptor = draw(st.sampled_from([Z1, Z2, int_lex(3), zp, p_inverted(q), QD2, quadratic(3)]))
    # a tag 1/p puts p into the layout's denominator, so that some steps keep
    # the layout and others grow its denominator by p
    tags = (element(zp, Fraction(1, p)),) if descriptor == zp and draw(st.booleans()) else ()
    field = CoeffField(p, tags=tags, units=("x", "y"))
    x, y, c = field.unit_gen("x"), field.unit_gen("y"), lambda k: field.one * k
    # the p-th powers of the last two are multi-monomial, such as x^p*y^(2p) + 2*x^(2p)
    roots = st.sampled_from([field.one, c(p - 1), x, x ** 3 * y, x * y ** 2 + c(2) * x ** 2, y + c(p - 1)])
    f = constant_series(field, descriptor, 0)
    for i in range(draw(st.integers(1, 3))):
        # the first term is polar, so that most series need a substitution
        w = draw(elements(descriptor).filter(lambda g: sign(g) < 0) if i == 0 else elements(descriptor))
        root, k = draw(roots), draw(st.integers(0, 2))
        # a lead at p^k * w whose coefficient is a p^k-th power, unless spoiled by a cofactor
        lead = root ** p ** k * (draw(roots) if draw(st.booleans()) else field.one)
        f = f + t_term(field, descriptor, int_scale(p ** k, w), lead)
        if k and draw(st.booleans()):
            # a term at v/p that the first substitution's g cancels
            f = f - t_term(field, descriptor, int_scale(p ** (k - 1), w), root ** p ** (k - 1))
    if tags and draw(st.booleans()):
        f = f + variable_series(field, descriptor, field.gens[0])
    return f


def _assert_same_reduction(got, want):
    assert (got.status, got.case, got.iterations) == (want.status, want.case, want.iterations)
    assert got.f == want.f


# budgets around the first steps and around the default 64, so that runs in
# closed form end at the budget as well as at a normal form
_budgets = st.sampled_from([0, 1, 2, 3, 63, 64, 65])


@settings(max_examples=200, deadline=None)
@given(_as_right_hand_sides(), _budgets)
def test_reduction_matches_the_powering_loop(f, max_iters):
    _assert_same_reduction(artin_schreier_reduce(f, max_iters), _powering_reduce(f, max_iters))


@settings(max_examples=200, deadline=None)
@given(_as_right_hand_sides(), _budgets)
def test_reduction_matches_the_decoding_loop(f, max_iters):
    _assert_same_reduction(artin_schreier_reduce(f, max_iters), _decoding_reduce(f, max_iters))


@st.composite
def _right_hand_sides_with_integral_terms(draw):
    """A polar part over ``zp:p`` or ``quad:2`` plus one to four terms of
    value >= 0, which never lead.  The polar coefficients are p-th powers,
    so about half of these reductions exhaust."""
    p = draw(st.sampled_from([2, 3, 5]))
    descriptor = draw(st.sampled_from([p_inverted(p), QD2]))
    field = CoeffField(p, units=("x", "y"))
    x, y, c = field.unit_gen("x"), field.unit_gen("y"), lambda k: field.one * k
    f = constant_series(field, descriptor, 0)
    for _ in range(draw(st.integers(1, 2))):
        w = draw(elements(descriptor).filter(lambda g: sign(g) < 0))
        # p-th powers, so that the substitutions go on
        lead = draw(st.sampled_from([field.one, c(p - 1), x ** p, x ** p * y ** (2 * p) + c(2)]))
        f = f + t_term(field, descriptor, w, lead)
    for _ in range(draw(st.integers(1, 4))):
        v = draw(elements(descriptor).filter(lambda g: sign(g) >= 0))
        f = f + t_term(field, descriptor, v, draw(st.sampled_from([field.one, x, y + c(p - 1), x * y])))
    return f


@settings(max_examples=60, deadline=None)
@given(_right_hand_sides_with_integral_terms(), _budgets)
def test_reduction_with_integral_terms_matches_both_loops(f, max_iters):
    got, want = artin_schreier_reduce(f, max_iters), _decoding_reduce(f, max_iters)
    _assert_same_reduction(got, _powering_reduce(f, max_iters))
    _assert_same_reduction(got, want)
    assert got == want


def _one_term_cases():
    """(f, budget, case, iterations, the reduced f) for one-term polar parts."""
    f2, f3 = CoeffField(2, units=("u",)), CoeffField(3, units=("u",))
    ZP3 = p_inverted(3)
    u = f2.unit_gen("u")
    return [
        # v_2(8) = 3: -8/2^4 leaves Z
        (tpow(f2, Z1, -8), 64, "i", 3, tpow(f2, Z1, -1)),
        # gcd(9, 18) = 9 = 3^2
        (tpow(f3, Z2, (-9, 18)), 64, "i", 2, tpow(f3, Z2, (-1, 2))),
        # a tie: after two steps -1/2 leaves Z[1/3] and u^4 becomes u, and "i" is checked first
        (tpow(f2, ZP3, -4, u ** 4), 64, "i", 2, tpow(f2, ZP3, -1, u)),
        (tpow(f2, ZP3, -4, u ** 2), 64, "ii", 1, tpow(f2, ZP3, -2, u)),
        # Z[1/2] and Q + Q*sqrt(2) are p-divisible, so only the exponent of u
        # ends the run: at the budget itself, or one step before it
        (tpow(f2, ZP2, -1, u ** 32), 5, None, 5, tpow(f2, ZP2, Fraction(-1, 32), u)),
        (tpow(f2, ZP2, -1, u ** 32), 6, "ii", 5, tpow(f2, ZP2, Fraction(-1, 32), u)),
        (tpow(f3, QD2, (-2, 1), f3.unit_gen("u") ** 9), 2, None, 2, tpow(f3, QD2, (Fraction(-2, 9), Fraction(1, 9)), f3.unit_gen("u"))),
        (tpow(f3, QD2, (-2, 1), f3.unit_gen("u") ** 9), 3, "ii", 2, tpow(f3, QD2, (Fraction(-2, 9), Fraction(1, 9)), f3.unit_gen("u"))),
    ]


@pytest.mark.parametrize("f, budget, case, iterations, reduced", _one_term_cases())
def test_one_term_reductions_stop_where_the_valuations_say(f, budget, case, iterations, reduced):
    got = artin_schreier_reduce(f, budget)
    want = ReduceResult("exhausted" if case is None else "reduced", reduced, case, iterations)
    _assert_same_reduction(got, want)
    _assert_same_reduction(got, _decoding_reduce(f, budget))
    _assert_same_reduction(got, _powering_reduce(f, budget))


def _reduce_with_budgets(monkeypatch, f):
    """artin_schreier_reduce(f), and (terms, budget) of each run it called."""
    budgets = []
    run = SeriesElement.artin_schreier_run

    def spy(self, n):
        budgets.append((self.num_terms(), n))
        return run(self, n)

    monkeypatch.setattr(SeriesElement, "artin_schreier_run", spy)
    return artin_schreier_reduce(f), budgets


def test_a_polar_part_that_shrinks_to_one_term_finishes_in_closed_form(monkeypatch):
    # over Z at p = 3 the first run makes one substitution, since f has a
    # negative value besides its lead's: the root t^(-9) of t^(-27) joins
    # t^(-9) into 2*t^(-9).  The lead's value is then the only negative one,
    # so the remaining 63 substitutions run in closed form with t^2 riding
    # along, and stop at case i after two more, since 9 = 3^2
    f = tpow(F3, Z1, -27) + tpow(F3, Z1, -9) + tpow(F3, Z1, 2)
    got, budgets = _reduce_with_budgets(monkeypatch, f)
    assert budgets == [(3, 64), (2, 63)]
    want = ReduceResult("reduced", tpow(F3, Z1, -1, 2) + tpow(F3, Z1, 2), "i", 3)
    _assert_same_reduction(got, want)
    _assert_same_reduction(got, _decoding_reduce(f))
    _assert_same_reduction(got, _powering_reduce(f))


@pytest.mark.parametrize(
    "f, budgets, status, case, iterations",
    [
        # over Z at p = 2, v_2(8) = 3: t^(-8) leaves case i after three
        # substitutions, t^1 riding along
        (tpow(F2, Z1, -8) + tpow(F2, Z1, 1), [(2, 64)], "reduced", "i", 3),
        # over Z[1/2] every root is in the group: the budget ends the run
        (tpow(F2, ZP2, -1) + tpow(F2, ZP2, 3), [(2, 64)], "exhausted", None, 64),
        # over Q + Q*sqrt(2) at p = 3, 3 - 3*sqrt(2) and 1 - sqrt(2) are
        # negative though their codes are lexicographically positive: one
        # step first, whose root t^(1 - sqrt(2)) joins the second negative
        # term into 2*t^(1 - sqrt(2)); then the lead's value is the only
        # negative one, and the budget ends the run with t^sqrt(2) riding along
        (tpow(F3, QD2, (3, -3)) + tpow(F3, QD2, (1, -1)) + tpow(F3, QD2, (0, 1)), [(3, 64), (2, 63)], "exhausted", None, 64),
    ],
)
def test_terms_of_value_at_least_zero_ride_through_the_run(monkeypatch, f, budgets, status, case, iterations):
    got, calls = _reduce_with_budgets(monkeypatch, f)
    assert calls == budgets
    assert (got.status, got.case, got.iterations) == (status, case, iterations)
    _assert_same_reduction(got, _decoding_reduce(f))
    _assert_same_reduction(got, _powering_reduce(f))


F2UV = CoeffField(2, units=("u", "v"))
U, V = F2UV.unit_gen("u"), F2UV.unit_gen("v")


@pytest.mark.parametrize(
    "f, case, iterations, reduced",
    [
        # v_2(8) = 3 and v_2(4) = 2: after two steps u + v is not a square
        (tpow(F2UV, Z1, -8, U ** 4 + V ** 4), "ii", 2, tpow(F2UV, Z1, -2, U + V)),
        # after one step over Z[1/3], u^2 + v has an exponent prime to 2
        (tpow(F2UV, p_inverted(3), -4, U ** 4 + V ** 2), "ii", 1, tpow(F2UV, p_inverted(3), -2, U ** 2 + V)),
    ],
)
def test_a_lead_of_several_monomials_finishes_in_closed_form(monkeypatch, f, case, iterations, reduced):
    got, budgets = _reduce_with_budgets(monkeypatch, f)
    assert budgets == [(2, 64)]
    _assert_same_reduction(got, ReduceResult("reduced", reduced, case, iterations))
    _assert_same_reduction(got, _decoding_reduce(f))
    _assert_same_reduction(got, _powering_reduce(f))


# -- equal characteristic classification ---------------------------------------------


def test_swan_data_is_a_record_that_prints_as_before():
    data = classify_equal_char(EqualCharSymbolic(2, "i", c=element(Z1, 3), unit_name="u"))
    assert repr(data) == (
        "SwanData(conductor=Cut(descriptor=GroupDescriptor(kind='zlex', param=1), over_hull=False, "
        "value=_Prefix(nums=(3,), den=1), inclusive=True), rsw=RswSymbol(conductor_generator="
        "GroupElement(descriptor=GroupDescriptor(kind='zlex', param=1), value=(3,)), dlog_terms="
        "((1, UnitSymbol(name='u')), (1, ValueClass(gamma=GroupElement(descriptor="
        "GroupDescriptor(kind='zlex', param=1), value=(-3,)))))), defect=False, e_pred=2, "
        "residue_pred='trivial', unramified=False, case='i')"
    )
    unramified = classify_equal_char(EqualCharSymbolic(3, "iii", descriptor=Z1))
    assert repr(unramified) == (
        "SwanData(conductor=Cut(descriptor=GroupDescriptor(kind='zlex', param=1), over_hull=False, "
        "value=_Prefix(nums=(0,), den=1), inclusive=True), rsw=None, defect=False, e_pred=1, "
        "residue_pred='trivial', unramified=True, case='iii')"
    )
    # a record unpacks and compares as the tuple of its fields
    conductor, rsw, defect, e_pred, residue, unramified_flag, case = data
    assert (e_pred, residue, case) == (2, RESIDUE_TRIVIAL, "i") and rsw.dlog_terms[0] == (1, UnitSymbol("u"))
    assert data == tuple(data) and hash(data) == hash(tuple(data))


def test_classify_case_i_concrete():
    data = classify_equal_char(tpow(F2, Z1, -3))
    assert data.case == "i"
    assert data.conductor == principal_cut(element(Z1, 3))
    assert data.rsw == RswSymbol(element(Z1, 3), ((1, ValueClass(element(Z1, -3))),))
    assert not data.defect
    assert data.e_pred == 2
    assert data.residue_pred == RESIDUE_TRIVIAL
    assert not data.unramified


def test_classify_case_i_with_unit_lead():
    u = variable_series(F2, Z1, F2.unit_gen("u"))
    data = classify_equal_char(u * tpow(F2, Z1, -3))
    assert data.case == "i"
    assert data.rsw.dlog_terms == (
        (1, UnitSymbol("u")),
        (1, ValueClass(element(Z1, -3))),
    )


def test_classify_case_ii_concrete():
    u = variable_series(F2, Z1, F2.unit_gen("u"))
    data = classify_equal_char(u * tpow(F2, Z1, -2))
    assert data.case == "ii"
    assert data.conductor == principal_cut(element(Z1, 2))
    # the value part of dlog is p-divisible, so only the unit symbol remains
    assert data.rsw.dlog_terms == ((1, UnitSymbol("u")),)
    assert data.e_pred == 1
    assert data.residue_pred == RESIDUE_INSEP


def test_classify_case_iii_concrete():
    data = classify_equal_char(tpow(F2, Z1, 1))
    assert data.case == "iii"
    assert data.conductor == whole_cut(Z1)
    assert data.rsw is None
    assert data.unramified
    assert data.e_pred == 1


def test_classify_symbolic_agrees_with_concrete():
    sym = classify_equal_char(EqualCharSymbolic(p=2, case="i", c=element(Z1, 3)))
    con = classify_equal_char(tpow(F2, Z1, -3))
    assert sym.conductor == con.conductor
    assert sym.rsw == con.rsw
    assert (sym.e_pred, sym.residue_pred, sym.defect, sym.unramified) == (
        con.e_pred,
        con.residue_pred,
        con.defect,
        con.unramified,
    )
    sym2 = classify_equal_char(
        EqualCharSymbolic(p=2, case="ii", c=element(Z1, 2), unit_name="u")
    )
    u = variable_series(F2, Z1, F2.unit_gen("u"))
    con2 = classify_equal_char(u * tpow(F2, Z1, -2))
    assert sym2.conductor == con2.conductor
    assert sym2.rsw == con2.rsw
    sym3 = classify_equal_char(EqualCharSymbolic(p=2, case="iii", descriptor=Z1))
    assert sym3.conductor == whole_cut(Z1) and sym3.unramified


def test_classify_symbolic_validation():
    with pytest.raises(ValueError):
        classify_equal_char(EqualCharSymbolic(p=2, case="i", c=element(Z1, 4)))
    with pytest.raises(ValueError):
        classify_equal_char(EqualCharSymbolic(p=2, case="ii", c=element(Z1, 3), unit_name="u"))
    with pytest.raises(ValueError):
        classify_equal_char(EqualCharSymbolic(p=2, case="ii", c=element(Z1, 2)))
    with pytest.raises(ValueError):
        classify_equal_char(EqualCharSymbolic(p=2, case="i", c=element(Z1, -3)))
    with pytest.raises(ValueError):
        classify_equal_char(EqualCharSymbolic(p=2, case="iii"))
    with pytest.raises(ValueError):
        classify_equal_char(EqualCharSymbolic(p=2, case="vi", c=element(Z1, 3)))
    with pytest.raises(TypeError):
        classify_equal_char("t(-3)")


@given(st.integers(min_value=1, max_value=9), st.data())
@settings(deadline=None)
def test_classification_invariant_under_reduction_moves(c, data):
    # adding g^p - g never changes the conductor data
    f = tpow(F2, Z1, -c)
    if c % 2 == 0:
        f = variable_series(F2, Z1, F2.unit_gen("u")) * f
    w = data.draw(st.integers(min_value=-3, max_value=3))
    gc = data.draw(st.integers(min_value=0, max_value=1))
    g = tpow(F2, Z1, w) + tpow(F2, Z1, 0, gc)
    base = classify_equal_char(f)
    moved = classify_equal_char(f + (g.power(2) - g))
    assert moved.conductor == base.conductor
    assert moved.case == base.case
    assert (moved.e_pred, moved.residue_pred, moved.defect, moved.unramified) == (
        base.e_pred,
        base.residue_pred,
        base.defect,
        base.unramified,
    )
    assert moved.rsw.conductor_generator == base.rsw.conductor_generator


def test_exhausted_reduction_is_undetermined():
    f2 = CoeffField(2)
    f = t_term(f2, ZP2, element(ZP2, -1))
    with pytest.raises(UndeterminedError):
        classify_equal_char(f)


# -- Kummer classification ------------------------------------------------------------


def test_kummer_golden_table():
    d1 = classify_kummer_symbolic(KummerSymbolic(p=2, case="i", e0=element(Z1, 1), v_a=element(Z1, 3)))
    assert d1.conductor == principal_cut(element(Z1, 2))
    assert d1.rsw == RswSymbol(element(Z1, 2), ((1, ValueClass(element(Z1, 3))),))
    assert d1.e_pred == 2 and not d1.defect and not d1.unramified

    d2 = classify_kummer_symbolic(KummerSymbolic(p=3, case="ii", e0=element(Z1, 1), unit_name="u"))
    assert d2.conductor == principal_cut(element(Z1, 3))
    assert d2.rsw.dlog_terms == ((1, UnitSymbol("u")),)
    assert d2.e_pred == 1 and d2.residue_pred == RESIDUE_INSEP

    d3 = classify_kummer_symbolic(KummerSymbolic(p=2, case="iii", e0=element(Z1, 2), v_b=element(Z1, 3)))
    assert d3.conductor == principal_cut(element(Z1, 1))
    assert d3.rsw == RswSymbol(element(Z1, 1), ((1, ValueClass(element(Z1, 3))),))
    assert d3.e_pred == 2

    d4 = classify_kummer_symbolic(
        KummerSymbolic(p=3, case="iv", e0=element(Z1, 2), v_b=element(Z1, 3), unit_name="u")
    )
    assert d4.conductor == principal_cut(element(Z1, 3))
    assert d4.rsw.dlog_terms == ((1, UnitSymbol("u")),)
    assert d4.e_pred == 1 and d4.residue_pred == RESIDUE_INSEP

    d5 = classify_kummer_symbolic(KummerSymbolic(p=2, case="v", e0=element(Z1, 1)))
    assert d5.conductor == whole_cut(Z1)
    assert d5.unramified and d5.rsw is None


def test_kummer_validation():
    e0 = element(Z1, 2)
    with pytest.raises(ValueError):
        classify_kummer_symbolic(KummerSymbolic(p=2, case="i", e0=e0, v_a=element(Z1, 4)))
    with pytest.raises(ValueError):
        classify_kummer_symbolic(KummerSymbolic(p=2, case="ii", e0=e0))
    with pytest.raises(ValueError):
        classify_kummer_symbolic(KummerSymbolic(p=2, case="iii", e0=e0, v_b=element(Z1, 4)))
    with pytest.raises(ValueError):
        classify_kummer_symbolic(KummerSymbolic(p=3, case="iv", e0=e0, v_b=element(Z1, 4), unit_name="u"))
    # v(b) must stay below p*e0
    with pytest.raises(ValueError):
        classify_kummer_symbolic(KummerSymbolic(p=2, case="iii", e0=e0, v_b=element(Z1, 5)))
    with pytest.raises(ValueError):
        classify_kummer_symbolic(KummerSymbolic(p=2, case="iii", e0=e0, v_b=element(Z1, -1)))
    with pytest.raises(ValueError):
        classify_kummer_symbolic(KummerSymbolic(p=2, case="i", e0=element(Z1, 0), v_a=element(Z1, 3)))
    with pytest.raises(ValueError):
        classify_kummer_symbolic(KummerSymbolic(p=2, case="x", e0=e0))


def test_symbolic_descriptors_take_every_value_from_one_group():
    e0, other = element(Z1, 1), element(p_inverted(3), 1)
    for desc in (
        KummerSymbolic(2, "i", e0=e0, v_a=other),
        KummerSymbolic(2, "iii", e0=e0, v_b=other),
        KummerSymbolic(2, "v", e0=e0, v_a=other),
    ):
        with pytest.raises(ValueError, match="^group mismatch: zlex:1 vs zp:3$"):
            classify_kummer_symbolic(desc)
    for case in ("i", "iii"):
        with pytest.raises(ValueError, match="^group mismatch: zlex:1 vs zp:3$"):
            classify_equal_char(EqualCharSymbolic(2, case, c=other, descriptor=Z1))
    # an equal descriptor agrees, not only the same object
    got = classify_equal_char(EqualCharSymbolic(2, "i", c=element(Z1, 3), descriptor=int_lex(1)))
    assert got.conductor == principal_cut(element(Z1, 3))
    got = classify_kummer_symbolic(KummerSymbolic(2, "i", e0=e0, v_a=element(int_lex(1), 1)))
    assert got.conductor == principal_cut(element(Z1, 2))


# -- the conductor form in the value group --------------------------------------------


@pytest.mark.parametrize("p, error", [(0, ValueError), (1, ValueError), (True, TypeError)])
def test_the_conductor_form_is_read_mod_a_prime(p, error):
    rsw = RswSymbol(element(Z1, 3), ((1, ValueClass(element(Z1, -3))),))
    for call in (value_group_image, plan_log_smooth, lambda r, q: transported_value_image(r, q, ())):
        with pytest.raises(error):
            call(rsw, p)


def test_value_group_image_rules():
    g3, g2 = element(Z1, -3), element(Z1, -2)
    # unit symbols vanish
    rsw = RswSymbol(element(Z1, 3), ((1, UnitSymbol("u")), (1, ValueClass(g3))))
    assert value_group_image(rsw, 2) == ((1, g3),)
    # equal classes combine mod p
    rsw = RswSymbol(element(Z1, 3), ((1, ValueClass(g3)), (1, ValueClass(g3))))
    assert value_group_image(rsw, 2) == ()
    g4 = element(Z1, -4)
    rsw = RswSymbol(element(Z1, 4), ((1, ValueClass(g4)), (1, ValueClass(g4))))
    assert value_group_image(rsw, 3) == ((2, g4),)
    # p-divisible classes vanish
    rsw = RswSymbol(element(Z1, 2), ((1, ValueClass(g2)),))
    assert value_group_image(rsw, 2) == ()
    assert value_group_image(rsw, 3) == ((1, g2),)
    # targets that span Gamma/p*Gamma make every class p-divisible
    rsw = RswSymbol(element(Z1, 3), ((1, ValueClass(g3)),))
    assert value_group_image(rsw, 2, targets=(element(Z1, 1),)) == ()
    assert value_group_image(rsw, 2, targets=(element(Z1, 2),)) == ((1, g3),)


# -- ramification group evaluation ----------------------------------------------------


def test_galois_image_at_and_above_break():
    data = classify_equal_char(tpow(F2, Z1, -3))
    brk = break_of(data.conductor)
    assert galois_image(data.conductor, brk) == FULL_IMAGE
    assert galois_image(data.conductor, principal_cut(hull_element(Z1, 3))) == FULL_IMAGE
    above = open_cut(Z1, hull_element(Z1, 3), over_hull=True)
    assert galois_image(data.conductor, above) == TRIVIAL_IMAGE
    below = principal_cut(hull_element(Z1, Fraction(5, 2)))
    assert galois_image(data.conductor, below) == FULL_IMAGE


def test_galois_image_validation():
    conductor = principal_cut(element(Z1, 3))
    with pytest.raises(ValueError):
        galois_image(conductor, whole_cut(Z1, over_hull=True))
    with pytest.raises(ValueError):
        galois_image(conductor, principal_cut(element(Z1, 3)))  # not a hull ideal
    with pytest.raises(ValueError):
        galois_image(conductor, principal_cut(hull_element(ZP2, 3)))
    with pytest.raises(ValueError):
        galois_image(principal_cut(hull_element(Z1, 3)), principal_cut(hull_element(Z1, 3)))


@given(st.data())
@settings(deadline=None)
def test_single_jump(data):
    d = data.draw(descriptors)
    conductor = data.draw(group_cuts(d, allow_whole=False))
    ideal = data.draw(hull_ideals(d))
    image = galois_image(conductor, ideal)
    assert (image == FULL_IMAGE) == break_of(conductor).subset(ideal)


@given(st.data())
@settings(deadline=None)
def test_image_monotone_in_the_ideal(data):
    d = data.draw(descriptors)
    conductor = data.draw(group_cuts(d, allow_whole=False))
    i1 = data.draw(hull_ideals(d))
    i2 = data.draw(hull_ideals(d))
    if not i1.subset(i2):
        i1, i2 = i2, i1
    # a full image at a deep ideal persists at every shallower one
    if galois_image(conductor, i1) == FULL_IMAGE:
        assert galois_image(conductor, i2) == FULL_IMAGE


def test_single_jump_violations_label_a_broken_evaluator(monkeypatch):
    conductor = principal_cut(element(Z1, 3))
    at, above, deep = (
        principal_cut(hull_element(Z1, 3)),
        open_cut(Z1, hull_element(Z1, 3), over_hull=True),
        principal_cut(hull_element(Z1, 5)),
    )
    assert single_jump_violations(conductor, [at, above, deep]) == []
    # full everywhere: the two ideals above the break misplace the jump
    monkeypatch.setattr(swan_mod, "galois_image", lambda conductor, ideal: FULL_IMAGE)
    assert single_jump_violations(conductor, [at, above, deep]) == ["jump location"] * 2
    # full only at the least ideal breaks all three parts of the law
    monkeypatch.setattr(swan_mod, "galois_image", lambda c, ideal: FULL_IMAGE if ideal == deep else TRIVIAL_IMAGE)
    labels = single_jump_violations(conductor, [at, above, deep])
    assert set(labels) == {"jump location", "monotonicity", "intersection stability"}


def test_break_of_whole_rejected():
    with pytest.raises(ValueError):
        break_of(whole_cut(Z1))


def test_wild_inertia_matches_ramification():
    for data in [
        classify_equal_char(tpow(F2, Z1, -3)),
        classify_equal_char(EqualCharSymbolic(p=2, case="ii", c=element(Z1, 2), unit_name="u")),
        classify_equal_char(tpow(F2, Z1, 1)),
        classify_kummer_symbolic(KummerSymbolic(p=2, case="v", e0=element(Z1, 1))),
    ]:
        assert wild_inertia_check(data) == (not data.unramified)


# -- the log-smooth planner ---------------------------------------------------------------


def test_planner_kills_case_i():
    data = classify_equal_char(tpow(F2, Z1, -3))
    moves = plan_log_smooth(data.rsw, 2)
    assert moves == (Type2Move(2, element(Z1, -3)),)
    assert transported_value_image(data.rsw, 2, moves) == ()


def test_planner_empty_for_case_ii():
    data = classify_equal_char(
        EqualCharSymbolic(p=2, case="ii", c=element(Z1, 2), unit_name="u")
    )
    assert value_group_image(data.rsw, 2) == ()
    assert plan_log_smooth(data.rsw, 2) == ()


def test_planner_kummer_case_iii():
    data = classify_kummer_symbolic(
        KummerSymbolic(p=2, case="iii", e0=element(Z1, 2), v_b=element(Z1, 3))
    )
    moves = plan_log_smooth(data.rsw, 2)
    assert moves == (Type2Move(2, element(Z1, 3)),)
    assert transported_value_image(data.rsw, 2, moves) == ()


def test_enlarged_group_membership():
    # adjoining 3/2 makes 2Gamma' = 2Z + 3Z = Z
    g = EnlargedGroup(2, (element(Z1, 3),))
    assert g.in_p_multiples(element(Z1, 1))
    assert g.in_p_multiples(element(Z1, 3))
    # adjoining 2/2 = 1 changes nothing: 2Gamma' = 2Z
    g2 = EnlargedGroup(2, (element(Z1, 2),))
    assert not g2.in_p_multiples(element(Z1, 1))
    assert g2.in_p_multiples(element(Z1, 4))
    assert transported_value_image(
        RswSymbol(element(Z1, 3), ((1, ValueClass(element(Z1, -3))),)), 2, ()
    ) == ((1, element(Z1, -3)),)


def _searched_in_p_multiples(group, gamma):
    """The p^k search the planner once ran: gamma is in p*Gamma' exactly
    when some shift by 0..p-1 copies of each target is p-divisible in Gamma."""
    for combo in itertools.product(range(group.p), repeat=len(group.targets)):
        shifted = gamma
        for c, t in zip(combo, group.targets):
            shifted = shifted - int_scale(c, t)
        if divide_exact(shifted, group.p) is not None:
            return True
    return False


@st.composite
def _enlarged_groups(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    q = draw(st.sampled_from([p, 3 if p == 2 else 2]))
    descriptor = draw(st.sampled_from([Z1, Z2, int_lex(3), p_inverted(q), QD2]))
    targets = tuple(draw(st.lists(elements(descriptor), max_size=3)))
    return EnlargedGroup(p, targets), draw(elements(descriptor))


@settings(max_examples=300)
@given(_enlarged_groups())
def test_linear_solve_matches_the_search(case):
    group, gamma = case
    assert group.in_p_multiples(gamma) == _searched_in_p_multiples(group, gamma)


def test_enlarged_group_refuses_mixed_groups():
    # images of different groups live in different F_p-spaces
    with pytest.raises(ValueError):
        EnlargedGroup(2, (element(Z2, (1, 0)),)).in_p_multiples(element(Z1, 1))


@st.composite
def _queried_enlarged_groups(draw):
    group, gamma = draw(_enlarged_groups())
    descriptor = gamma.descriptor
    return group, [gamma] + draw(st.lists(elements(descriptor), max_size=4))


@settings(max_examples=200)
@given(_queried_enlarged_groups())
def test_one_enlarged_group_serves_many_queries(case):
    # the targets are reduced once; every later query must still see all of them
    group, gammas = case
    for gamma in gammas:
        fresh = EnlargedGroup(group.p, group.targets).in_p_multiples(gamma)
        assert group.in_p_multiples(gamma) == fresh == _searched_in_p_multiples(group, gamma)


def test_enlarged_group_refuses_another_group_after_queries():
    group = EnlargedGroup(3, (element(Z2, (1, 0)), element(Z2, (0, 3))))
    assert group.in_p_multiples(element(Z2, (4, 3)))
    assert not group.in_p_multiples(element(Z2, (0, 1)))
    with pytest.raises(ValueError, match="^group mismatch: zlex:1 vs zlex:2$"):
        group.in_p_multiples(element(Z1, 1))


@pytest.mark.parametrize("p, error", [(4, ValueError), (1, ValueError), (0, ValueError), (True, TypeError)])
def test_enlarged_group_divides_by_a_prime(p, error):
    with pytest.raises(error):
        EnlargedGroup(p, (element(Z1, 1),))


@pytest.mark.parametrize("e", [3, True, -7, 4])
def test_transport_refuses_a_move_of_another_degree(e):
    # adjoining a cube root makes (1/3)Z, and 1 is not in (2/3)Z, yet the
    # enlarged group would add 1/2 and report the class killed
    t = element(Z1, 1)
    rsw = RswSymbol(t, ((1, ValueClass(t)),))
    with pytest.raises(ValueError, match=f"^only degree-p moves transport, got e = {e} for p = 2$"):
        transported_value_image(rsw, 2, (Type2Move(e, t),))
    assert transported_value_image(rsw, 2, (Type2Move(2, t),)) == ()


def test_transport_refuses_a_bare_point():
    t = element(Z1, 1)
    rsw = RswSymbol(t, ((1, ValueClass(t)),))
    with pytest.raises(TypeError, match="^expected a Type2Move, got GroupElement$"):
        transported_value_image(rsw, 2, (t,))


# -- refused inputs ---------------------------------------------------------------------


@pytest.mark.parametrize("p", [4, 1])
def test_symbolic_classifiers_refuse_a_p_that_is_not_prime(p):
    # over Z/4 the table would answer e = 4, computing over a ring that is no field
    one, two = element(Z1, 1), element(Z1, 2)
    for datum in (
        EqualCharSymbolic(p, "i", c=element(Z1, 3)),
        EqualCharSymbolic(p, "ii", c=element(Z1, 4), unit_name="u"),
        EqualCharSymbolic(p, "iii", descriptor=Z1),
    ):
        with pytest.raises(ValueError, match=f"^the residue characteristic must be prime, got {p}$"):
            classify_equal_char(datum)
    for datum in (
        KummerSymbolic(p, "i", e0=one, v_a=one),
        KummerSymbolic(p, "ii", e0=one, unit_name="u"),
        KummerSymbolic(p, "iii", e0=two, v_b=one),
        KummerSymbolic(p, "iv", e0=two, v_b=element(Z1, 4), unit_name="u"),
        KummerSymbolic(p, "v", e0=one),
    ):
        with pytest.raises(ValueError, match=f"^the residue characteristic must be prime, got {p}$"):
            classify_kummer_symbolic(datum)


@pytest.mark.parametrize("p", [True, 2.0])
def test_symbolic_classifiers_refuse_a_p_of_another_type(p):
    with pytest.raises(TypeError):
        classify_equal_char(EqualCharSymbolic(p, "i", c=element(Z1, 3)))
    with pytest.raises(TypeError):
        classify_kummer_symbolic(KummerSymbolic(p, "i", e0=element(Z1, 1), v_a=element(Z1, 1)))


def test_reduction_refuses_a_negative_budget():
    f = t_term(CoeffField(2), ZP2, element(ZP2, -1))
    with pytest.raises(ValueError, match="^the substitution budget must be non-negative, got -3$"):
        artin_schreier_reduce(f, -3)
    with pytest.raises(ValueError, match="^the substitution budget must be non-negative, got -2$"):
        f.artin_schreier_run(-2)
    # a budget of 0 takes no step
    assert artin_schreier_reduce(f, 0) == ReduceResult("exhausted", f, None, 0)
    assert f.artin_schreier_run(0) == (None, f, 0)
