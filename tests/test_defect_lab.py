import random
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from ramify import defect_lab
from ramify.cuts import Surd, frontier_cut, open_cut, principal_cut, whole_cut
from ramify.defect_lab import (
    DeltaBoundError,
    DeltaReport,
    LimitEntry,
    STATUS_BELOW_ALL,
    STATUS_UNRESOLVED,
    STATUS_WITNESSED,
    VARIANT_CLOSED,
    VARIANT_OPEN,
    VARIANT_OPEN_IRRATIONAL,
    MAX_DEPTH,
    PrincipalCase,
    _grid_sequence,
    _surd_floor,
    break_witness,
    build_defect_model,
    build_principal_case,
    conductor_limit_check,
    limit_queries,
    twin_pair,
    verify_delta_bounds,
    witness_persistence,
)
from ramify.ordered_group import (
    divide_exact,
    element,
    hull_element,
    int_lex,
    int_scale,
    p_inverted,
    quadratic,
    to_hull,
)
from ramify.sampling import random_irrational_bound, random_model_series, random_positive_element
from ramify.series_field import CoeffField, SigmaSpec, t_term
from ramify.swan import FULL_IMAGE, RESIDUE_TRIVIAL, TRIVIAL_IMAGE, SwanData, break_of, galois_image

from . import delta_reference as ref

Z1 = int_lex(1)
Z2 = int_lex(2)
ZP2 = p_inverted(2)
ZP3 = p_inverted(3)
QD2 = quadratic(2)


def canonical_model(depth=4):
    return build_defect_model(ZP2, 2, open_cut(ZP2, element(ZP2, 1)), depth)


# -- principal constructions -------------------------------------------------------


def test_principal_case_shapes():
    case = build_principal_case(ZP3, 2, element(ZP3, 3))
    assert case.swan.conductor == principal_cut(element(ZP3, 3))
    assert case.swan.case == "i"
    assert case.swan.e_pred == 2
    # in a p-divisible group the construction always goes through a unit
    case2 = build_principal_case(ZP2, 2, element(ZP2, 3))
    assert case2.swan.conductor == principal_cut(element(ZP2, 3))
    assert case2.swan.case == "ii"
    assert case2.swan.e_pred == 1
    with pytest.raises(ValueError):
        build_principal_case(ZP2, 2, element(ZP2, 0))
    with pytest.raises(ValueError):
        build_principal_case(ZP2, 2, element(Z1, 3))


# -- grid sequences -----------------------------------------------------------------


def test_grid_golden_dyadic():
    m = canonical_model()
    assert [e.value for e in m.e_seq] == [
        Fraction(1),
        Fraction(3, 4),
        Fraction(5, 8),
        Fraction(9, 16),
        Fraction(17, 32),
    ]
    assert m.depth == 4 and len(m.e_seq) == 5


def test_grid_golden_with_stalls():
    m = build_defect_model(ZP2, 2, open_cut(ZP2, Surd(Fraction(2, 3))), depth=3)
    assert [e.value for e in m.e_seq] == [
        Fraction(1),
        Fraction(1, 2),
        Fraction(3, 8),
        Fraction(11, 32),
    ]


def test_grid_golden_irrational():
    m = build_defect_model(ZP2, 2, open_cut(ZP2, Surd(0, 1, 2)), depth=4)
    assert [e.value for e in m.e_seq] == [
        Fraction(1),
        Fraction(3, 4),
        Fraction(23, 32),
        Fraction(91, 128),
        Fraction(363, 512),
    ]
    # every e(i) lies strictly above sqrt(2)/2
    for e in m.e_seq:
        assert Surd(e.value).cmp(Surd(0, Fraction(1, 2), 2)) > 0


@given(
    st.fractions(max_denominator=10**6),
    st.fractions(max_denominator=10**6),
    st.sampled_from([2, 3, 5, 6, 7, 2147483647]),
)
def test_surd_floor_brackets(a, b, d):
    # exact: floor <= s < floor + 1, also far beyond float range
    for s in (Surd(a, b, d), Surd(10**400, 1, 2), Surd(-(10**400), Fraction(1, 3), 7)):
        f = _surd_floor(s)
        assert s.cmp(Surd(f)) >= 0 and s.cmp(Surd(f + 1)) < 0


def test_grid_base_follows_the_group():
    m = build_defect_model(ZP3, 3, open_cut(ZP3, element(ZP3, 1)), depth=3)
    assert [e.value for e in m.e_seq] == [
        Fraction(1),
        Fraction(2, 3),
        Fraction(4, 9),
        Fraction(10, 27),
    ]
    mq = build_defect_model(QD2, 2, open_cut(QD2, element(QD2, (1, 0))), depth=3)
    assert [e.value[0] for e in mq.e_seq] == [
        Fraction(1),
        Fraction(3, 4),
        Fraction(5, 8),
        Fraction(9, 16),
    ]
    assert all(e.value[1] == 0 for e in mq.e_seq)


def _brute_grid(bound, q, depth):
    """The first depth + 1 distinct values among the least points of
    (1/q^j) * Z strictly above ``bound``, j = 0, 1, ..., each bracketed by
    exact comparisons."""
    values, j = [], 0
    while len(values) <= depth:
        c = Fraction(_surd_floor(bound.scale(q ** j)) + 1, q ** j)
        assert Surd(c - Fraction(1, q ** j)).cmp(bound) <= 0 < Surd(c).cmp(bound)
        if not values or c < values[-1]:
            values.append(c)
        j += 1
    return values


@st.composite
def _grid_bounds(draw, q):
    """Rational and surd bounds, some just below a grid point, where the
    grid stalls for up to 40 levels."""
    a = Fraction(draw(st.integers(-40, 400)), draw(st.sampled_from([1, 3, 7, q, q ** 3, 10 ** 6])))
    m = draw(st.integers(1, 40))
    below = Fraction(draw(st.integers(-3, 3)) * q ** m - 1, q ** m)
    kind = draw(st.sampled_from(["rational", "below", "surd", "surd below"]))
    if kind == "rational":
        return Surd(a)
    if kind == "below":
        return Surd(below)
    d = draw(st.sampled_from([2, 3, 5]))
    b = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.sampled_from([1, 4, 9])))
    if kind == "surd":
        return Surd(a, b, d)
    # |b| * sqrt(d) < 21 < 2^5, so the bound stays below the grid point
    return Surd(below, abs(b) / q ** (m + 5), d)


@given(st.sampled_from([(ZP2, 2), (ZP3, 3), (ZP3, 2), (QD2, 2), (QD2, 3)]), st.integers(1, 6), st.data())
def test_grid_sequence_matches_the_distinct_candidates(case, depth, data):
    descriptor, p = case
    q = p if descriptor == QD2 else descriptor.param
    bound = data.draw(_grid_bounds(q))
    got = _grid_sequence(descriptor, p, bound, depth)
    assert got == tuple(element(descriptor, v) for v in _brute_grid(bound, q, depth))


# -- model construction -------------------------------------------------------------


def test_model_invariants():
    for m in [
        canonical_model(3),
        build_defect_model(ZP3, 3, open_cut(ZP3, element(ZP3, 2)), 3),
        build_defect_model(QD2, 2, open_cut(QD2, Surd(0, 1, 2)), 3),
    ]:
        for a, b in zip(m.e_seq, m.e_seq[1:]):
            assert b < a
        for e in m.e_seq:
            assert m.root_set.contains(e)
            assert m.conductor.contains(int_scale(m.p, e))
        assert m.field.tags == m.e_seq
        assert m.swan.defect and m.swan.conductor == m.conductor
        assert m.swan.rsw is None and m.swan.e_pred == 1


def test_build_refusals():
    with pytest.raises(ValueError, match="least element"):
        build_defect_model(ZP2, 2, principal_cut(element(ZP2, 2)))
    with pytest.raises(ValueError, match="cannot occur as a conductor cut"):
        build_defect_model(Z2, 2, frontier_cut(Z2, (0,)))
    with pytest.raises(ValueError, match="unramified"):
        build_defect_model(ZP2, 2, whole_cut(ZP2))
    with pytest.raises(ValueError, match="different group"):
        build_defect_model(ZP3, 2, open_cut(ZP2, element(ZP2, 1)))
    with pytest.raises(ValueError, match="over the group"):
        build_defect_model(ZP2, 2, open_cut(ZP2, hull_element(ZP2, 1), over_hull=True))
    with pytest.raises(ValueError, match="dense"):
        build_defect_model(Z2, 2, frontier_cut(Z2, (1,)))
    with pytest.raises(ValueError, match="depth"):
        build_defect_model(ZP2, 2, open_cut(ZP2, element(ZP2, 1)), depth=0)
    with pytest.raises(ValueError, match="depth"):
        build_defect_model(ZP2, 2, open_cut(ZP2, element(ZP2, 1)), depth=MAX_DEPTH + 1)
    # the realizability test reads p first, so it refuses a p that is not prime
    with pytest.raises(ValueError, match="^the residue characteristic must be prime, got 4$"):
        build_defect_model(ZP2, 4, open_cut(ZP2, element(ZP2, 1)))


# -- sampled verification -----------------------------------------------------------


def test_delta_bounds_hold_across_groups():
    for m in [
        canonical_model(3),
        build_defect_model(ZP3, 3, open_cut(ZP3, element(ZP3, 1)), 3),
        build_defect_model(QD2, 2, open_cut(QD2, element(QD2, (1, 0))), 3),
    ]:
        report = verify_delta_bounds(m, samples=60, rng=random.Random(7))
        assert report.samples == 60
        assert report.monomials_checked > 0
        # tagged variables always move, so nothing sampled is sigma-fixed
        assert report.sigma_fixed == 0


def test_delta_bounds_deterministic_by_seed():
    m = canonical_model(3)
    a = verify_delta_bounds(m, samples=40, rng=random.Random(3))
    b = verify_delta_bounds(m, samples=40, rng=random.Random(3))
    assert a == b


def _with_tags(m, scale):
    """``m`` with sigma(x_i) = x_i + t^(scale(d_i)) in place of its own sigma."""
    m.sigma = SigmaSpec(CoeffField(m.p, tags=[scale(t) for t in m.field.tags]), m.descriptor)
    return m


def test_delta_bounds_catch_a_fast_automorphism():
    # sigma(x_i) = x_i + t^(d_i / 2) moves every tagged variable too fast
    m = _with_tags(canonical_model(3), lambda t: divide_exact(t, 2))
    with pytest.raises(DeltaBoundError, match="below the floor"):
        verify_delta_bounds(m, samples=50)


@pytest.mark.parametrize("p", [2, 3])
def test_delta_bounds_catch_a_fast_automorphism_over_quad(p):
    # the same fault over Q + Q*sqrt(2), where floors are compared by quad_sign
    m = _with_tags(build_defect_model(QD2, p, open_cut(QD2, element(QD2, (1, 0))), 3), lambda t: divide_exact(t, 2))
    with pytest.raises(DeltaBoundError, match="below the floor") as got:
        verify_delta_bounds(m, samples=50)
    with pytest.raises(DeltaBoundError) as want:
        ref.verify_delta_bounds(m, samples=50)
    assert str(got.value) == str(want.value)


class _FastOnSums:
    """A model's sigma, except that sigma(f) - f of a series with more than
    one term is moved down by t^(-1), which only the per-element floor sees."""

    def __init__(self, sigma, descriptor):
        self.sigma, self.step = sigma, element(descriptor, -1)

    def delta(self, f):
        d = self.sigma.delta(f)
        return d if f.num_terms() == 1 else d.shift(self.step)


@pytest.mark.parametrize("descriptor, p", [(ZP2, 2), (QD2, 3)])
def test_delta_bounds_check_the_element_floor(descriptor, p):
    m = build_defect_model(descriptor, p, open_cut(descriptor, element(descriptor, 1)), 3)
    m.sigma = _FastOnSums(m.sigma, descriptor)
    with pytest.raises(DeltaBoundError, match=r"^element with value .* moved by "):
        verify_delta_bounds(m, samples=50)


def _tag_free_sample(model, rng):
    """t^1 + t^2: a ring element in which no tagged variable occurs."""
    d, field = model.descriptor, model.field
    return t_term(field, d, element(d, 1)) + t_term(field, d, element(d, 2))


class _Bumped:
    """A model's sigma, except that sigma(f) - f gains ``bump`` for every f
    that ``moves`` picks."""

    def __init__(self, sigma, bump, moves):
        self.sigma, self.bump, self.moves = sigma, bump, moves

    def delta(self, f):
        d = self.sigma.delta(f)
        return d + self.bump if self.moves(f) else d


def test_delta_bounds_pass_tag_free_samples(monkeypatch):
    monkeypatch.setattr(defect_lab, "random_model_series", _tag_free_sample)
    assert verify_delta_bounds(canonical_model(3), samples=5) == DeltaReport(5, 0, 5)


@pytest.mark.parametrize("moves, message", [
    (lambda f: True, "sigma moved a tag-free monomial"),
    (lambda f: f.num_terms() > 1, "sigma moved an element with no tagged variable"),
])
def test_delta_bounds_catch_a_sigma_that_moves_tag_free_elements(monkeypatch, moves, message):
    monkeypatch.setattr(defect_lab, "random_model_series", _tag_free_sample)
    m = canonical_model(3)
    m.sigma = _Bumped(m.sigma, t_term(m.field, ZP2, element(ZP2, 1)), moves)
    with pytest.raises(DeltaBoundError, match=f"^{message}$"):
        verify_delta_bounds(m, samples=5)


# -- the packed-key check against its decoding oracle -------------------------------------

# every group and p the oracle comparison covers, each with a rational and an
# irrational bound (a surd over a radicand the group does not contain)
_ORACLE_CASES = [
    (descriptor, p, kind)
    for descriptor in (ZP2, ZP3, p_inverted(5), p_inverted(7), QD2)
    for p in (2, 3)
    for kind in ("rational", "irrational")
]


def _oracle_model(descriptor, p, kind, depth):
    if kind == "irrational":
        bound = Surd(Fraction(1, 3), Fraction(1, 2), 3 if descriptor == QD2 else 2)
    elif descriptor == QD2:
        bound = element(QD2, (Fraction(3, 2), Fraction(1, 2)))
    else:
        bound = element(descriptor, Fraction(5, descriptor.param))
    return build_defect_model(descriptor, p, open_cut(descriptor, bound), depth)


def _outcome(check, model, seed):
    """The report of a check, or the text of the error it raised."""
    try:
        return check(model, samples=12, rng=random.Random(seed))
    except DeltaBoundError as e:
        return str(e)


@pytest.mark.parametrize("descriptor, p, kind", _ORACLE_CASES)
def test_sampler_matches_the_oracle(descriptor, p, kind):
    for depth in range(1, 9):
        model = _oracle_model(descriptor, p, kind, depth)
        for seed in range(4):
            rng, rng_ref = random.Random(seed), random.Random(seed)
            for _ in range(8):
                got, want = random_model_series(model, rng), ref.random_model_series(model, rng_ref)
                assert got == want
                # the same packed keys, in the same order, layout and bounds
                assert list(got._data.items()) == list(want._data.items())
                assert (got._lay, got._eb, got._tb) == (want._lay, want._eb, want._tb)
            # the same draws from the generator
            assert rng.getstate() == rng_ref.getstate()


@pytest.mark.parametrize("descriptor, p, kind", _ORACLE_CASES)
def test_delta_bounds_match_the_oracle(descriptor, p, kind):
    for depth in range(1, 9):
        for seed in range(3):
            seed += 10 * depth
            want = _outcome(ref.verify_delta_bounds, _oracle_model(descriptor, p, kind, depth), seed)
            assert isinstance(want, DeltaReport)
            assert _outcome(verify_delta_bounds, _oracle_model(descriptor, p, kind, depth), seed) == want
            # a faster sigma fails at the same monomial with the same message,
            # and a slower one passes with the same report
            q = 2 if descriptor == QD2 else descriptor.param
            for scale in (
                lambda t: divide_exact(t, q),
                lambda t: int_scale(q * q - 1, divide_exact(t, q * q)),
                lambda t: int_scale(2, t),
            ):
                got = _outcome(verify_delta_bounds, _with_tags(_oracle_model(descriptor, p, kind, depth), scale), seed)
                want = _outcome(ref.verify_delta_bounds, _with_tags(_oracle_model(descriptor, p, kind, depth), scale), seed)
                assert got == want


# -- the cut as a limit of thresholds -------------------------------------------------


def test_limit_check_taxonomy():
    m = canonical_model(4)  # thresholds 2, 3/2, 5/4, 9/8, 17/16
    q = lambda v: element(ZP2, v)
    report = conductor_limit_check(
        m,
        [
            q(3),
            q(2),
            q(Fraction(3, 2)),
            q(Fraction(9, 8)),
            q(Fraction(33, 32)),
            q(1),
            q(Fraction(1, 2)),
        ],
    )
    assert report.ok
    statuses = [(e.status, e.witness) for e in report.entries]
    assert statuses == [
        (STATUS_WITNESSED, 0),
        (STATUS_WITNESSED, 0),
        (STATUS_WITNESSED, 1),
        (STATUS_WITNESSED, 3),
        (STATUS_UNRESOLVED, None),
        (STATUS_BELOW_ALL, None),
        (STATUS_BELOW_ALL, None),
    ]
    assert report.unresolved == 1
    members = [e.member for e in report.entries]
    assert members == [True, True, True, True, True, False, False]


def test_limit_witnesses_persist_under_deepening():
    shallow = canonical_model(2)
    deep = canonical_model(5)
    queries = [
        element(ZP2, v)
        for v in [
            3,
            2,
            Fraction(3, 2),
            Fraction(5, 4),
            Fraction(9, 8),
            Fraction(17, 16),
            1,
            Fraction(1, 2),
        ]
    ]
    r1 = conductor_limit_check(shallow, queries)
    r2 = conductor_limit_check(deep, queries)
    assert r1.ok and r2.ok
    for e1, e2 in zip(r1.entries, r2.entries):
        assert e1.member == e2.member
        if e1.status == STATUS_WITNESSED:
            assert e2.status == STATUS_WITNESSED
            assert e2.witness == e1.witness
        if e1.status == STATUS_BELOW_ALL:
            assert e2.status == STATUS_BELOW_ALL
    # something unresolved at depth 2 resolves by depth 5
    assert r1.unresolved > r2.unresolved
    assert r2.unresolved == 0


def test_witness_persistence_labels_swapped_models():
    shallow, deep = canonical_model(2), canonical_model(4)
    queries = limit_queries(deep, random.Random(5))
    assert len(queries) == 50
    assert queries[:5] == [int_scale(2, e) for e in deep.e_seq]
    rs, rd, labels = witness_persistence(shallow, deep, queries)
    assert labels == [] and rd.unresolved < rs.unresolved
    # deep first: the "deeper" model loses the witnesses at indices 3 and 4
    _, _, swapped = witness_persistence(deep, shallow, queries)
    assert "deepening only resolves" in swapped
    assert "witness survives deepening" in swapped


def test_a_conductor_below_its_thresholds_is_inconsistent():
    # the deep model claims the cut {x > 2}, yet its thresholds 2*e(i) are
    # 2, 3/2, 5/4, ...: the non-member 3/2 dominates the threshold at index 1
    shallow, deep = canonical_model(2), canonical_model(4)
    deep.conductor = open_cut(ZP2, element(ZP2, 2))
    gamma = element(ZP2, Fraction(3, 2))
    report = conductor_limit_check(deep, [gamma])
    assert not report.ok
    assert report.entries == (LimitEntry(gamma, False, "inconsistent", 1),)
    _, _, labels = witness_persistence(shallow, deep, [gamma])
    assert labels == ["deep consistent", "membership is depth-free", "witness survives deepening"]


def _limit_bounds(d, rng):
    """A bound in the group and one outside it: a group point, and a Surd
    over sqrt(2), or over sqrt(3) for quad:2, which holds sqrt(2)."""
    if d.kind == "quad":
        a, b = Fraction(rng.randint(1, 6), rng.choice((1, 2))), Fraction(rng.randint(0, 2), 2)
        r, s = Fraction(rng.randint(0, 6), rng.randint(1, 4)), Fraction(rng.randint(1, 5), rng.randint(1, 4))
        return element(d, (a, b)), Surd(r, s, 3)
    return element(d, Fraction(rng.randint(1, 8), d.param ** rng.randint(0, 2))), random_irrational_bound(rng, d)


def _limit_probes(model, rng):
    """Each threshold, one step of its own grid level above and below it, a
    point above the first threshold, one below the last, zero, and draws."""
    d, qs = model.descriptor, []
    thresholds = [int_scale(model.p, e) for e in model.e_seq]
    for th in thresholds:
        step = element(d, Fraction(1, th.den))
        qs += [th, th + step, th - step]
    qs += [thresholds[0] + element(d, 1), thresholds[-1] - element(d, Fraction(1, thresholds[-1].den)), element(d, 0)]
    return qs + [random_positive_element(rng, d, span=6) for _ in range(12)]


def test_limit_check_bisection_matches_the_linear_scan():
    rng = random.Random(31)
    for d in (ZP2, ZP3, p_inverted(5), p_inverted(7), QD2):
        for p in (2, 3):
            for bound in _limit_bounds(d, rng):
                cut = open_cut(d, bound)
                for depth in range(1, 13):
                    model = build_defect_model(d, p, cut, depth)
                    queries = _limit_probes(model, rng)
                    report = conductor_limit_check(model, queries)
                    assert report == ref.conductor_limit_check(model, queries)
                    assert [e.witness for e in report.entries[: 3 * (depth + 1) : 3]] == list(range(depth + 1))
    # a model whose conductor sits below its thresholds
    shallow, deep = canonical_model(2), canonical_model(4)
    deep.conductor = open_cut(ZP2, element(ZP2, 2))
    queries = _limit_probes(deep, rng) + _limit_probes(shallow, rng)
    report = conductor_limit_check(deep, queries)
    assert not report.ok and report == ref.conductor_limit_check(deep, queries)


def test_a_grid_sequence_that_does_not_strictly_decrease_is_refused(monkeypatch):
    # the limit check bisects the thresholds, so the builder refuses a
    # repeated or rising step even when every step lies in the root set
    grid = defect_lab._grid_sequence
    for bend in (lambda s: s[:2] + s[1:], lambda s: s[1:2] + s[:1] + s[2:]):
        monkeypatch.setattr(defect_lab, "_grid_sequence", lambda *args: bend(grid(*args)))
        with pytest.raises(RuntimeError, match="^grid sequence does not strictly decrease$"):
            canonical_model(4)
    monkeypatch.undo()
    assert len(canonical_model(4).e_seq) == 5


# -- twins -----------------------------------------------------------------------------


def test_twin_pair_golden():
    tp = twin_pair(ZP2, 2, element(ZP2, 1), depth=3)
    pb = element(ZP2, 2)
    assert tp.ramified.swan.conductor == principal_cut(pb)
    assert tp.defect.conductor == open_cut(ZP2, pb)
    assert tp.divergence == open_cut(ZP2, hull_element(ZP2, 2), over_hull=True)
    h1, h2 = tp.ramified.swan.conductor, tp.defect.conductor
    # all principal hull ideals agree
    rng = random.Random(11)
    for _ in range(120):
        g = hull_element(ZP2, Fraction(rng.randint(1, 64), 2 ** rng.randint(0, 4)))
        ideal = principal_cut(g)
        assert galois_image(h1, ideal) == galois_image(h2, ideal)
    # the open ideal at p*b tells them apart
    assert galois_image(h1, tp.divergence) == TRIVIAL_IMAGE
    assert galois_image(h2, tp.divergence) == FULL_IMAGE
    with pytest.raises(ValueError):
        twin_pair(ZP2, 2, element(ZP2, 0))


# -- break witnesses -------------------------------------------------------------------


def test_break_witness_variants():
    w1 = break_witness(ZP2, 2, element(ZP2, 3), VARIANT_CLOSED)
    assert isinstance(w1, PrincipalCase)
    assert break_of(w1.swan.conductor) == principal_cut(hull_element(ZP2, 3))
    assert break_of(w1.swan.conductor).kind == "principal"
    assert not w1.swan.defect

    w2 = break_witness(ZP2, 2, element(ZP2, 3), VARIANT_OPEN, depth=3)
    assert break_of(w2.swan.conductor) == open_cut(ZP2, hull_element(ZP2, 3), over_hull=True)
    assert break_of(w2.swan.conductor).kind != "principal"
    assert w2.swan.defect

    w3 = break_witness(ZP2, 2, Surd(0, 1, 2), VARIANT_OPEN_IRRATIONAL, depth=3)
    assert break_of(w3.swan.conductor).kind == "open"
    assert not break_of(w3.swan.conductor).value.is_rational
    assert w3.swan.defect
    assert break_of(w3.swan.conductor) == break_of(w3.conductor)


def test_break_witness_validation():
    with pytest.raises(ValueError):
        break_witness(ZP2, 2, Surd(0, 1, 2), VARIANT_CLOSED)
    with pytest.raises(ValueError):
        break_witness(ZP2, 2, element(ZP2, 3), VARIANT_OPEN_IRRATIONAL)
    with pytest.raises(ValueError):
        break_witness(ZP2, 2, Surd(Fraction(3, 2)), VARIANT_OPEN_IRRATIONAL)
    with pytest.raises(ValueError):
        break_witness(ZP2, 2, element(ZP2, 3), "closed-irrational")


def test_the_model_keeps_its_thresholds_and_the_queries_start_with_them():
    rng = random.Random(32)
    for d in (ZP2, ZP3, p_inverted(5), p_inverted(7), QD2):
        for p in (2, 3):
            for bound in _limit_bounds(d, rng):
                for depth in (1, 4, 9):
                    model = build_defect_model(d, p, open_cut(d, bound), depth)
                    assert model.thresholds == tuple(int_scale(p, e) for e in model.e_seq)
                    queries = limit_queries(model, random.Random(depth))
                    assert queries[: depth + 1] == list(model.thresholds) and len(queries) == 50


def test_verify_delta_bounds_refuses_a_negative_sample_count():
    model = canonical_model(2)
    with pytest.raises(ValueError, match="^samples must be non-negative, got -3$"):
        verify_delta_bounds(model, samples=-3)
    assert verify_delta_bounds(model, samples=0) == DeltaReport(0, 0, 0)


# -- the case table's defect row -----------------------------------------------------


@pytest.mark.parametrize("descriptor, p, bound", [
    (ZP2, 2, element(ZP2, 1)),
    (ZP3, 3, element(ZP3, Fraction(2, 3))),
    (QD2, 3, element(QD2, (1, 1))),
    (ZP3, 2, Surd(1, 1, 2)),
])
def test_a_defect_model_reads_the_defect_row(descriptor, p, bound):
    conductor = open_cut(descriptor, bound)
    m = build_defect_model(descriptor, p, conductor, 2)
    assert m.swan == SwanData(conductor, None, True, 1, RESIDUE_TRIVIAL, False, None)


@pytest.mark.parametrize("descriptor, p, b", [
    (ZP2, 2, element(ZP2, 1)),
    (ZP2, 3, element(ZP2, Fraction(3, 4))),
    (ZP3, 2, element(ZP3, Fraction(1, 9))),
    (QD2, 3, element(QD2, (Fraction(1, 2), 1))),
    (QD2, 2, element(QD2, (2, -1))),
])
def test_the_twins_diverge_at_the_break_of_the_defect_side(descriptor, p, b):
    # the open hull cut above p*b, which is the hull closure of the defect conductor
    pair = twin_pair(descriptor, p, b, depth=1)
    assert pair.divergence == open_cut(descriptor, to_hull(int_scale(p, b)), over_hull=True)
    assert pair.divergence == break_of(pair.defect.conductor)


def _stepped_sigma(scale):
    """A stand-in for ``SigmaSpec`` whose sigma moves x_i by t^(scale(e(i))):
    a field with the model's p and variable names, but scaled tags."""
    def make(field, descriptor):
        return SigmaSpec(CoeffField(field.p, tags=[scale(t) for t in field.tags]), descriptor)
    return make


@pytest.mark.parametrize(
    "scale, step",
    [(lambda t: int_scale(2, t), "2"), (lambda t: divide_exact(t, 2), "1/2")],
    ids=["doubled", "halved"],
)
def test_build_defect_model_refuses_a_sigma_whose_steps_are_not_the_tags(monkeypatch, scale, step):
    # the floor lets a slower sigma through; the measured steps do not
    monkeypatch.setattr(defect_lab, "SigmaSpec", _stepped_sigma(scale))
    with pytest.raises(DeltaBoundError, match=rf"^x0 moved by {step}, not by its step e\(0\) = 1$"):
        canonical_model(3)
    with pytest.raises(DeltaBoundError, match=r"^x0 moved by "):
        build_defect_model(QD2, 3, open_cut(QD2, element(QD2, (1, 1))), 3)


def test_build_defect_model_refuses_a_sigma_that_fixes_a_generator(monkeypatch):
    class Fixing(SigmaSpec):
        def delta(self, f):
            return f - f

    monkeypatch.setattr(defect_lab, "SigmaSpec", Fixing)
    with pytest.raises(DeltaBoundError, match=r"^sigma fixes x0, whose step e\(0\) is 1$"):
        canonical_model(3)

