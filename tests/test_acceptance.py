"""Acceptance gate: one timed criterion per test, summarized after the run.

Each criterion is self-contained, seeded, and asserts zero violations inside
its stated wall-clock budget.  The summary hook in conftest prints one
PASS/FAIL line per criterion at the end of the session.
"""

import random
import time
from fractions import Fraction

from ramify.cuts import Surd, frontier_cut, open_cut, principal_cut, whole_cut
from ramify.defect_lab import (
    build_defect_model,
    build_principal_case,
    limit_queries,
    twin_pair,
    verify_delta_bounds,
    witness_persistence,
)
from ramify.ordered_group import (
    element,
    hull_element,
    int_lex,
    p_inverted,
    quadratic,
)
from ramify.sampling import (
    random_group_cut,
    random_hull_ideal,
    random_model_series,
    random_positive_element,
)
from ramify.series_field import (
    CoeffField,
    SeriesElement,
    SigmaSpec,
    norm_trace_laws,
    t_term,
    valuation_laws,
    variable_series,
)
from ramify.swan import (
    EqualCharSymbolic,
    FULL_IMAGE,
    KummerSymbolic,
    RESIDUE_INSEP,
    RESIDUE_TRIVIAL,
    TRIVIAL_IMAGE,
    UnitSymbol,
    ValueClass,
    break_of,
    classify_equal_char,
    classify_kummer_symbolic,
    galois_image,
    plan_log_smooth,
    single_jump_violations,
    transported_value_image,
    value_group_image,
)

from .conftest import record_acceptance

Z1 = int_lex(1)
Z2 = int_lex(2)
ZP2 = p_inverted(2)
ZP3 = p_inverted(3)
QD2 = quadratic(2)


class Criterion:
    """Collects violations and wall time, records one summary line."""

    def __init__(self, number, name, budget):
        self.number = number
        self.name = name
        self.budget = budget
        self.failures = []
        self.elapsed = None

    def check(self, cond, label):
        if not cond:
            self.failures.append(label)

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and not self.failures
        record_acceptance(self.number, self.name, ok, self.elapsed, self.budget)
        return False

    def conclude(self):
        assert not self.failures, f"violations: {self.failures[:10]}"
        assert self.elapsed < self.budget, f"{self.elapsed:.2f}s over budget {self.budget}s"


def test_criterion_01_equal_char_table():
    with Criterion(1, "equal-characteristic table", 1.0) as c:
        f2 = CoeffField(2, units=("u",))
        u = variable_series(f2, Z1, f2.unit_gen("u"))
        t = lambda n, f=f2: t_term(f, Z1, element(Z1, n))

        d = classify_equal_char(t(-3))
        c.check(d.conductor == principal_cut(element(Z1, 3)), "case i conductor")
        c.check(d.e_pred == 2, "case i e")
        c.check(d.residue_pred == RESIDUE_TRIVIAL, "case i residue")
        c.check(d.rsw.conductor_generator == element(Z1, 3), "case i generator")
        c.check(d.rsw.dlog_terms == ((1, ValueClass(element(Z1, -3))),), "case i target")

        d = classify_equal_char(u * t(-2))
        c.check(d.conductor == principal_cut(element(Z1, 2)), "case ii conductor")
        c.check(d.e_pred == 1, "case ii e")
        c.check(d.residue_pred == RESIDUE_INSEP, "case ii residue")
        c.check(d.rsw.dlog_terms == ((1, UnitSymbol("u")),), "case ii target")

        d = classify_equal_char(t(2))
        c.check(d.conductor == whole_cut(Z1), "case iii conductor")
        c.check(d.unramified and d.e_pred == 1, "case iii shape")

        # symbolic descriptors land on the same tuples
        for sym, con in [
            (EqualCharSymbolic(2, "i", c=element(Z1, 3)), classify_equal_char(t(-3))),
            (
                EqualCharSymbolic(2, "ii", c=element(Z1, 2), unit_name="u"),
                classify_equal_char(u * t(-2)),
            ),
        ]:
            ds, dc = classify_equal_char(sym), con
            c.check(ds.conductor == dc.conductor, "symbolic conductor")
            c.check(ds.rsw == dc.rsw, "symbolic target")
            c.check(ds.e_pred == dc.e_pred, "symbolic e")
            c.check(ds.residue_pred == dc.residue_pred, "symbolic residue")
        ds = classify_equal_char(EqualCharSymbolic(2, "iii", descriptor=Z1))
        c.check(ds.conductor == whole_cut(Z1) and ds.unramified, "symbolic case iii")
    c.conclude()


def test_criterion_02_kummer_table():
    with Criterion(2, "degree-p radical table", 1.0) as c:
        e0 = element(Z1, 2)
        d1 = classify_kummer_symbolic(KummerSymbolic(2, "i", e0=e0, v_a=element(Z1, 3)))
        c.check(d1.conductor == principal_cut(element(Z1, 4)), "case i conductor")
        c.check(d1.e_pred == 2, "case i e")

        d2 = classify_kummer_symbolic(KummerSymbolic(2, "ii", e0=e0, unit_name="u"))
        c.check(d2.conductor == principal_cut(element(Z1, 4)), "case ii conductor")
        c.check(d2.residue_pred == RESIDUE_INSEP, "case ii residue")

        d3 = classify_kummer_symbolic(KummerSymbolic(2, "iii", e0=e0, v_b=element(Z1, 3)))
        c.check(d3.conductor == principal_cut(element(Z1, 1)), "case iii conductor")
        c.check(d3.rsw.dlog_terms == ((1, ValueClass(element(Z1, 3))),), "case iii target")

        d4 = classify_kummer_symbolic(
            KummerSymbolic(3, "iv", e0=e0, v_b=element(Z1, 3), unit_name="u")
        )
        c.check(d4.conductor == principal_cut(element(Z1, 3)), "case iv conductor")
        c.check(d4.e_pred == 1 and d4.residue_pred == RESIDUE_INSEP, "case iv shape")

        d5 = classify_kummer_symbolic(KummerSymbolic(2, "v", e0=e0))
        c.check(d5.conductor == whole_cut(Z1) and d5.unramified, "case v shape")
    c.conclude()


def test_criterion_03_single_jump_across_pairs():
    with Criterion(3, "image evaluation has a single jump", 10.0) as c:
        rng = random.Random(30)
        pairs = 0
        for descriptor in [Z1, Z2, ZP2, QD2]:
            for _ in range(32):
                H = random_group_cut(rng, descriptor, allow_whole=False)
                ideals = [random_hull_ideal(rng, descriptor) for _ in range(8)]
                c.failures += [f"{v} {descriptor} {H.kind}" for v in single_jump_violations(H, ideals)]
                pairs += len(ideals) + 1  # the break ideal is evaluated too
        c.check(pairs >= 1000, f"only {pairs} pairs")
    c.conclude()


def test_criterion_04_displacement_bounds():
    with Criterion(4, "automorphism displacement bounds", 30.0) as c:
        for p in (2, 3):
            descriptor = p_inverted(p)
            cut = open_cut(descriptor, element(descriptor, 1))
            for depth in (1, 2, 3, 4):
                model = build_defect_model(descriptor, p, cut, depth=depth)
                report = verify_delta_bounds(model, samples=200, rng=random.Random(40 + depth))
                c.check(report.samples == 200, f"samples p={p} N={depth}")
                c.check(report.monomials_checked > 0, f"coverage p={p} N={depth}")
    c.conclude()


def test_criterion_05_limit_witnesses_persist():
    with Criterion(5, "membership witnesses persist with depth", 5.0) as c:
        rng = random.Random(50)
        for descriptor, p, bound in [(ZP2, 2, 1), (ZP3, 3, 2)]:
            cut = open_cut(descriptor, element(descriptor, bound))
            shallow = build_defect_model(descriptor, p, cut, depth=2)
            deep = build_defect_model(descriptor, p, cut, depth=4)
            _, _, violations = witness_persistence(shallow, deep, limit_queries(deep, rng))
            c.failures += [f"{v} over {descriptor}" for v in violations]
    c.conclude()


def test_criterion_06_twin_pair_principal_blindness():
    with Criterion(6, "principal ideals cannot see the defect twin", 1.0) as c:
        pair = twin_pair(ZP2, 2, element(ZP2, 1), depth=3)
        H1 = pair.ramified.swan.conductor
        H2 = pair.defect.swan.conductor
        c.check(H1 == principal_cut(element(ZP2, 2)), "ramified conductor")
        c.check(H2 == open_cut(ZP2, element(ZP2, 2)), "defect conductor")
        rng = random.Random(60)
        agreements = 0
        for _ in range(120):
            ideal = principal_cut(random_positive_element(rng, ZP2, hull=True))
            if galois_image(H1, ideal) == galois_image(H2, ideal):
                agreements += 1
        c.check(agreements == 120, f"only {agreements}/120 principal agreements")
        div = pair.divergence
        c.check(div == open_cut(ZP2, hull_element(ZP2, 2), over_hull=True), "divergence ideal")
        c.check(galois_image(H1, div) == TRIVIAL_IMAGE, "ramified side at divergence")
        c.check(galois_image(H2, div) == FULL_IMAGE, "defect side at divergence")
    c.conclude()


def test_criterion_07_break_shape_by_construction():
    with Criterion(7, "break is principal exactly without defect", 5.0) as c:
        rng = random.Random(70)
        defectless = 0
        # concrete principal constructions across group kinds
        for descriptor in [Z1, Z2, ZP2, ZP3, QD2]:
            for _ in range(8):
                g = random_positive_element(rng, descriptor, span=6)
                case = build_principal_case(descriptor, rng.choice((2, 3)), g)
                brk = break_of(case.swan.conductor)
                c.check(brk.kind == "principal", f"concrete break over {descriptor}")
                c.check(not case.swan.defect, "concrete defect flag")
                defectless += 1
        # symbolic radical cases with a principal conductor
        for desc in [
            KummerSymbolic(2, "i", e0=element(Z1, 1), v_a=element(Z1, 3)),
            KummerSymbolic(3, "ii", e0=element(Z1, 1), unit_name="u"),
            KummerSymbolic(2, "iii", e0=element(Z1, 2), v_b=element(Z1, 3)),
            KummerSymbolic(3, "iv", e0=element(Z1, 2), v_b=element(Z1, 3), unit_name="u"),
        ] * 3:
            data = classify_kummer_symbolic(desc)
            c.check(break_of(data.conductor).kind == "principal", "radical break")
            c.check(not data.defect, "radical defect flag")
            defectless += 1
        c.check(defectless >= 50, f"only {defectless} defectless cases")
        # defect models never give a principal break
        targets = [
            (ZP2, 2, open_cut(ZP2, element(ZP2, 1))),
            (ZP2, 2, open_cut(ZP2, Surd(0, 1, 2))),  # irrational bound
            (ZP3, 3, open_cut(ZP3, element(ZP3, 2))),
            (QD2, 2, open_cut(QD2, element(QD2, (1, 0)))),
        ]
        irrational_seen = False
        for descriptor, p, cut in targets:
            model = build_defect_model(descriptor, p, cut, depth=2)
            brk = break_of(model.swan.conductor)
            c.check(brk.kind != "principal", f"defect break over {descriptor}")
            c.check(model.swan.defect, "defect flag")
            if descriptor == ZP2 and not cut.value.is_rational:
                irrational_seen = brk.kind == "open" and not brk.value.is_rational
        c.check(irrational_seen, "irrational-bound defect break")
    c.conclude()


def test_criterion_08_value_class_planner():
    with Criterion(8, "root adjunctions kill the value classes", 2.0) as c:
        rng = random.Random(80)
        case_i = []
        for _ in range(12):
            case_i.append(EqualCharSymbolic(2, "i", c=element(Z1, 2 * rng.randint(1, 9) - 1)))
        for _ in range(6):
            a = rng.randint(0, 5)
            b = 2 * rng.randint(-2, 2) + 1  # odd, so (a, b) is never 2-divisible
            if a == 0:
                b = abs(b)
            case_i.append(EqualCharSymbolic(2, "i", c=element(Z2, (a, b))))
        for _ in range(6):
            num = 2 * rng.randint(1, 9) - 1
            case_i.append(
                EqualCharSymbolic(2, "i", c=element(ZP3, Fraction(num, 3 ** rng.randint(0, 2))))
            )
        planned = 0
        for desc in case_i:
            data = classify_equal_char(desc)
            c.check(data.e_pred == desc.p, "case i is totally ramified")
            image = value_group_image(data.rsw, desc.p)
            c.check(len(image) == 1, "one surviving value class")
            moves = plan_log_smooth(data.rsw, desc.p)
            c.check(len(moves) == 1, "one move per class")
            after = transported_value_image(data.rsw, desc.p, moves)
            c.check(after == (), "transported image is empty")
            # with no surviving class the table predicts no value-part
            # ramification: e drops to 1
            e_after = desc.p if after else 1
            c.check(e_after == 1, "predicted e after the moves")
            planned += 1
        c.check(planned >= 20, f"only {planned} case-i descriptors")
        for unit_case in [
            EqualCharSymbolic(2, "ii", c=element(Z1, 2), unit_name="u"),
            EqualCharSymbolic(3, "ii", c=element(Z1, 3), unit_name="w"),
        ]:
            data = classify_equal_char(unit_case)
            c.check(plan_log_smooth(data.rsw, unit_case.p) == (), "unit case plans nothing")
    c.conclude()


def test_criterion_09_dense_quadrant_rejected():
    with Criterion(9, "positive quadrant is not a conductor cut", 1.0) as c:
        quadrant = frontier_cut(Z2, (0,))
        for p in (2, 3):
            c.check(not quadrant.is_realizable_conductor(p), f"condition at p={p}")
            try:
                build_defect_model(Z2, p, quadrant)
                c.check(False, f"constructor accepted it at p={p}")
            except ValueError as e:
                c.check("conductor cut" in str(e), f"refusal reason at p={p}")
    c.conclude()


def test_criterion_10_series_engine_laws():
    with Criterion(10, "series engine laws", 10.0) as c:
        for p in (2, 3):
            descriptor = p_inverted(p)
            model = build_defect_model(descriptor, p, open_cut(descriptor, element(descriptor, 1)), depth=3)
            rng = random.Random(100 + p)

            def nonzero_series():
                while True:
                    s = random_model_series(model, rng)
                    if not s.is_zero():
                        return s

            for _ in range(250):
                f = nonzero_series()
                g = nonzero_series()
                c.failures += valuation_laws(model.sigma, f, g)
            # norm and trace are costlier; exercise them on single monomials
            for _ in range(250):
                gamma = element(descriptor, Fraction(rng.randint(-8, 8), p ** rng.randint(0, 3)))
                i = rng.randrange(len(model.e_seq))
                exps = [0] * len(model.field.gens)
                exps[i] = 1
                coeff = model.field.ring.from_dict({tuple(exps): rng.randint(1, p - 1)})
                f = SeriesElement(model.field, descriptor, {gamma: coeff})
                c.failures += norm_trace_laws(model.sigma, f)
        # norm and trace on multi-term series: drawn as `verify --suite
        # series` draws them at p = 5 and 7, and built by hand over quad:2
        # and zlex:2
        for p, draws in ((5, 30), (7, 8)):
            descriptor = p_inverted(p)
            model = build_defect_model(descriptor, p, open_cut(descriptor, element(descriptor, 1)), depth=3)
            rng = random.Random(200 + p)
            for _ in range(draws):
                f = random_model_series(model, rng)
                g = random_model_series(model, rng)
                c.failures += valuation_laws(model.sigma, f, g) + norm_trace_laws(model.sigma, f)
        hand_tags = {
            QD2: (element(QD2, (1, 0)), element(QD2, (Fraction(-1, 2), 1))),
            Z2: (element(Z2, (1, -2)), element(Z2, (0, 3))),
        }
        for descriptor, tags in hand_tags.items():
            field = CoeffField(3, tags=tags, units=("u",))
            sigma = SigmaSpec(field, descriptor)
            rng = random.Random(300)
            for _ in range(40):
                f = _hand_built_series(field, descriptor, rng)
                g = _hand_built_series(field, descriptor, rng)
                c.failures += valuation_laws(sigma, f, g) + norm_trace_laws(sigma, f)
    c.conclude()


def _hand_built_series(field, descriptor, rng):
    """Two or three terms t^gamma times a monomial in every variable."""
    terms = {}
    for _ in range(rng.randint(2, 3)):
        if descriptor == Z2:
            gamma = element(Z2, (rng.randint(-3, 3), rng.randint(-9, 9)))
        else:
            a = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4)))
            gamma = element(descriptor, (a, Fraction(rng.randint(-3, 3), rng.choice((1, 3)))))
        exps = tuple(rng.randint(0, 2) for _ in range(field.ring.ngens))
        terms[gamma] = terms.get(gamma, field.zero) + field.ring.from_dict({exps: rng.randint(1, field.p - 1)})
    return SeriesElement(field, descriptor, terms)
