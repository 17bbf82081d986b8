import ast
import contextlib
import io
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import ramify.cli as cli_mod
import ramify.literals as literals
from ramify.cli import run
from ramify.cuts import Surd, frontier_cut, open_cut, principal_cut
from ramify.defect_lab import DeltaBoundError, build_defect_model, build_principal_case
from ramify.literals import format_cut, format_element, parse_cut, parse_element, parse_group, parse_series
from ramify.ordered_group import MAX_RANK, divide_exact, element, hull_element, int_lex, p_inverted, quadratic
from ramify.series_field import CoeffField, SeriesElement, t_term, variable_series
from ramify.swan import RswSymbol, artin_schreier_reduce, break_of

from . import scanner_reference
from .test_defect_lab import _with_tags
from .strategies import descriptors, elements, group_cuts, hull_ideals

Z1 = int_lex(1)
Z2 = int_lex(2)
ZP2 = p_inverted(2)


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(args)
    return code, out.getvalue(), err.getvalue()


# -- parsing ------------------------------------------------------------------------


def test_parse_group():
    assert parse_group("zlex:3") == int_lex(3)
    assert parse_group("zp:2") == ZP2
    assert parse_group("quad:5") == quadratic(5)
    huge = ["zp:1000000000000000003", "quad:1000000000000000003"]  # refused, not trial-divided
    for bad in ["zlex:0", "zp:4", "quad:4", "zq:2", "zlex", "zlex:two"] + huge:
        with pytest.raises(Exception):
            parse_group(bad)


def test_a_rank_above_the_cap_is_refused_at_once():
    # Z^n values carry n coordinates, so a huge rank would be built first
    for rank in (MAX_RANK + 1, 10 ** 9):
        start = time.perf_counter()
        code, out, err = run_cli(["classify", "--group", f"zlex:{rank}", "--p", "2", "--as", "u*t(lex(-1))"])
        assert time.perf_counter() - start < ARGV_SECONDS
        assert (code, out) == (2, "")
        assert "Traceback" not in err
        assert err == f"error: lexicographic rank must be between 1 and {MAX_RANK}, got {rank}\n"
    assert parse_group(f"zlex:{MAX_RANK}") == int_lex(MAX_RANK)


def test_parse_element_forms():
    assert parse_element("3", Z1) == element(Z1, 3)
    assert parse_element("lex(1,-2)", Z2) == element(Z2, (1, -2))
    assert parse_element("q(3/2)", ZP2) == element(ZP2, Fraction(3, 2))
    assert parse_element("3/2", ZP2) == element(ZP2, Fraction(3, 2))
    qd = quadratic(2)
    assert parse_element("quad(1/2,3)", qd) == element(qd, (Fraction(1, 2), 3))
    assert parse_element("1/2", Z1, hull=True) == hull_element(Z1, Fraction(1, 2))


def test_parse_cut_forms():
    assert parse_cut("whole", ZP2).is_whole
    assert parse_cut("ge q(2)", ZP2) == principal_cut(element(ZP2, 2))
    assert parse_cut("gt q(2)", ZP2) == open_cut(ZP2, element(ZP2, 2))
    assert parse_cut("ge(q(2))", ZP2) == parse_cut("ge q(2)", ZP2)
    assert parse_cut("gt surd(0,1,2)", ZP2) == open_cut(ZP2, Surd(0, 1, 2))
    assert parse_cut("frontier(1)", Z2) == frontier_cut(Z2, (1,))
    assert parse_cut("frontier_ge(2)", Z2, hull=True) == frontier_cut(
        Z2, (2,), over_hull=True, inclusive=True
    )
    with pytest.raises(Exception):
        parse_cut("ge q(2) junk", ZP2)
    with pytest.raises(Exception):
        parse_cut("between 1 and 2", ZP2)


def test_parse_series_matches_manual():
    text = "t(-3) + x[q(1/2)]^2*u"
    f, field = parse_series(text, ZP2, 2)
    manual_field = CoeffField(2, tags=(element(ZP2, Fraction(1, 2)),), units=("u",))
    assert field == manual_field
    x = variable_series(manual_field, ZP2, manual_field.gens[0])
    u = variable_series(manual_field, ZP2, manual_field.unit_gen("u"))
    expect = t_term(manual_field, ZP2, element(ZP2, -3)) + (x * x * u)
    assert f == expect
    g, _ = parse_series("2*t(1)^3", Z1, 3)
    h, _ = parse_series("t(3) + t(3)", Z1, 3)
    assert g == h


def test_the_artin_schreier_pipeline_runs_on_series():
    # a parsed literal, its reduction and a built datum are plain series
    f, _ = parse_series("u*t(-4) + t(-3)", Z1, 2)
    assert isinstance(f, SeriesElement)
    assert isinstance(artin_schreier_reduce(f).f, SeriesElement)
    assert isinstance(build_principal_case(ZP2, 2, element(ZP2, 3)).f, SeriesElement)


def _scanned(scan, text):
    try:
        return scan(text)
    except literals.InputError as e:
        return f"InputError: {e}"


# ASCII, tabs, the number characters, and Unicode digits, letters and
# numerals that str.isdigit, isalpha and isalnum tell apart: ² is a digit
# but not decimal, ٣ is decimal, Ⅻ and ½ are numerals but not digits
_scanner_text = st.text(
    alphabet=st.one_of(
        st.sampled_from(list("\t -/3_") + ["²", "٣", "Ⅻ", "½", "\u00a0"]),
        st.characters(max_codepoint=127),
        st.characters(whitelist_categories=("Lu", "Ll", "Lo", "Nd", "Nl", "No", "Zs")),
    ),
    max_size=24,
)


@settings(max_examples=500)
@given(_scanner_text)
def test_the_scanner_matches_the_character_loop(text):
    assert _scanned(lambda t: literals._Tokens(t).items, text) == _scanned(scanner_reference.scan, text)


def _fraction_only(tok, context):
    """Number parsing as it was before the integer path: always a Fraction."""
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise literals.InputError(f"expected a rational number but found {tok!r} in {context!r}")


# the characters of numeric tokens (a sign or a digit, then digits and "/"),
# with decimal digits from other scripts and digits that are not decimal
_number_text = st.text(alphabet=st.sampled_from(list("-+/0123456789") + ["²", "٣", "٤", "１", "Ⅻ", "½"]), max_size=8)


@settings(max_examples=500)
@given(_number_text)
def test_integer_tokens_parse_to_the_same_value_as_fractions(tok):
    got = _scanned(lambda t: literals._parse_fraction(t, "ctx"), tok)
    want = _scanned(lambda t: _fraction_only(t, "ctx"), tok)
    assert got == want
    if isinstance(got, int):
        assert tok.lstrip("-+").isdecimal()


# -- format/parse round-trips ----------------------------------------------------------


@given(st.data())
def test_element_round_trip(data):
    d = data.draw(descriptors)
    hull = data.draw(st.booleans())
    g = data.draw(elements(d, hull=hull))
    assert parse_element(format_element(g), d, hull=hull) == g


@given(group_cuts())
def test_group_cut_round_trip(cut):
    assert parse_cut(format_cut(cut), cut.descriptor, hull=False) == cut


@given(hull_ideals())
def test_hull_ideal_round_trip(ideal):
    assert parse_cut(format_cut(ideal), ideal.descriptor, hull=True) == ideal


def test_round_trip_frontier_ge():
    br = frontier_cut(Z2, (1,)).hull_closure()
    assert format_cut(br) == "frontier_ge(2)"
    assert parse_cut(format_cut(br), Z2, hull=True) == br


# -- the literal layer's boundary ------------------------------------------------------

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")


def _env():
    """The environment of a subprocess that imports ramify from this tree."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))


# the readers and printers that code outside the package looks up, or
# replaces, by name on ramify.cli
LITERAL_NAMES = (
    "parse_group",
    "parse_element",
    "parse_bound",
    "parse_cut",
    "parse_series",
    "format_element",
    "format_surd",
    "format_cut",
    "format_rsw",
)


def test_the_literal_layer_imports_without_the_command_line():
    code = "import sys, ramify.literals; print(sorted({'ramify.cli', 'argparse'} & set(sys.modules)))"
    got = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=60)
    assert (got.returncode, got.stdout) == (0, "[]\n"), got.stderr


def test_importing_ramify_loads_no_dataclasses():
    code = "import sys, ramify; print('dataclasses' in sys.modules)"
    got = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=60)
    assert (got.returncode, got.stdout) == (0, "False\n"), got.stderr


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module or ''}.{a.name}" for a in node.names)


def test_no_library_module_imports_the_command_line():
    package = os.path.join(_SRC, "ramify")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "cli.py":
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read())
            assert not any(m.split(".")[-1] == "cli" for m in _imported_modules(tree)), name


def test_the_command_line_binds_the_literal_layers_functions(monkeypatch):
    for name in LITERAL_NAMES:
        assert getattr(cli_mod, name) is getattr(literals, name), name
    # a printer replaced by name is reached by the printers that call it
    seen = []
    monkeypatch.setattr(literals, "format_element", lambda g: seen.append(g) or format_element(g))
    assert cli_mod.format_cut(principal_cut(element(ZP2, 3))) == "ge q(3)"
    assert seen == [element(ZP2, 3)]


# -- golden outputs --------------------------------------------------------------------


def test_classify_golden():
    code, out, _ = run_cli(["classify", "--group", "zlex:1", "--p", "2", "--as", "t(-3)"])
    assert code == 0
    assert out == (
        "[swan]\n"
        "case: i\n"
        "H: ge 3\n"
        "defect: false\n"
        "e: p\n"
        "residue: trivial\n"
        "unramified: false\n"
        "rsw: dlog(t(-3))\n"
    )


def test_classify_unit_golden():
    code, out, _ = run_cli(["classify", "--group", "zlex:1", "--p", "2", "--as", "u*t(-2)"])
    assert code == 0
    assert out == (
        "[swan]\n"
        "case: ii\n"
        "H: ge 2\n"
        "defect: false\n"
        "e: 1\n"
        "residue: insep-p\n"
        "unramified: false\n"
        "rsw: dlog(u)\n"
    )


@pytest.mark.parametrize(
    "p, literal, rsw",
    [
        ("2", "u^3*t(-3)", "dlog(u^3) + dlog(t(-3))"),
        ("3", "2*u*t(-2)", "dlog(2*u) + dlog(t(-2))"),
        ("3", "u^3*v*t(-2) + (u+2*v)^2*t(-2)", "dlog(v^2 + u*v + u^2 + u^3*v) + dlog(t(-2))"),
    ],
)
def test_classify_unit_labels(p, literal, rsw):
    code, out, _ = run_cli(["classify", "--group", "zlex:1", "--p", p, "--as", literal])
    assert code == 0
    assert f"rsw: {rsw}\n" in out


def test_a_form_with_no_terms_prints_as_zero():
    # no case of the table yields one, so no command prints it
    assert literals.format_rsw(RswSymbol(element(int_lex(1), 1), ())) == "0"
    assert literals.format_rsw(None) == "none"


@pytest.mark.parametrize(
    "flags, case, H, e, residue, unramified, rsw",
    [
        (["--case", "i", "--c", "q(1/3)"], "i", "ge q(1/3)", "p", "trivial", "false", "dlog(t(q(-1/3)))"),
        (["--case", "ii", "--c", "q(2)", "--unit", "u"], "ii", "ge q(2)", "1", "insep-p", "false", "dlog(u)"),
        (["--case", "iii"], "iii", "whole", "1", "trivial", "true", "none"),
    ],
)
def test_classify_case_golden(flags, case, H, e, residue, unramified, rsw):
    code, out, _ = run_cli(["classify", "--group", "zp:3", "--p", "2", *flags])
    assert code == 0
    assert out == (
        "[swan]\n"
        f"case: {case}\n"
        f"H: {H}\n"
        "defect: false\n"
        f"e: {e}\n"
        f"residue: {residue}\n"
        f"unramified: {unramified}\n"
        f"rsw: {rsw}\n"
    )


def test_classify_kummer_plan_golden():
    code, out, _ = run_cli(
        ["classify", "--group", "zlex:1", "--p", "3", "--kummer", "iii", "--e0", "2", "--vb", "4"]
    )
    assert code == 0
    assert out == (
        "[swan]\n"
        "case: iii\n"
        "H: ge 2\n"
        "defect: false\n"
        "e: p\n"
        "residue: trivial\n"
        "unramified: false\n"
        "rsw: dlog(t(4))\n"
        "[plan]\n"
        "moves: 1\n"
        "move0: adjoin degree-3 root at 4\n"
    )


def test_classify_undetermined_is_reported_not_fatal():
    code, out, _ = run_cli(["classify", "--group", "zp:2", "--p", "2", "--as", "t(-1)"])
    assert code == 0
    assert "status: undetermined" in out
    assert "defect model" in out


def test_eval_golden():
    code, out, _ = run_cli(["eval", "--group", "zp:2", "--H", "ge q(2)", "--I", "gt q(2)"])
    assert code == 0
    assert out == "[eval]\nH: ge q(2)\nI: gt q(2)\nimage: trivial\n"
    code, out, _ = run_cli(["eval", "--group", "zp:2", "--H", "ge q(2)", "--I", "ge q(2)"])
    assert code == 0
    assert out.endswith("image: full\n")


def test_breaks_construction_golden():
    code, out, _ = run_cli(
        ["breaks", "--group", "zp:2", "--bound", "q(3)", "--variant", "open", "--depth", "2"]
    )
    assert code == 0
    assert out == (
        "[break]\n"
        "variant: open\n"
        "H: gt q(3)\n"
        "break: gt q(3)\n"
        "principal: false\n"
        "defect: true\n"
    )


def test_breaks_direct_golden():
    code, out, _ = run_cli(["breaks", "--group", "zlex:2", "--H", "frontier(1)"])
    assert code == 0
    assert out == "[break]\nH: frontier(1)\nbreak: frontier_ge(2)\nprincipal: false\n"
    code, out, _ = run_cli(["breaks", "--group", "zlex:1", "--H", "ge 3"])
    assert code == 0
    assert out == "[break]\nH: ge 3\nbreak: ge 3\nprincipal: true\n"


def test_construct_defect_golden():
    code, out, _ = run_cli(
        ["construct-defect", "--group", "zp:2", "--cut", "gt q(1)", "--p", "2", "--depth", "3", "--samples", "20"]
    )
    assert code == 0
    head, rest = out.split("[verify]")
    assert head == (
        "[model]\n"
        "group: zp:2\n"
        "p: 2\n"
        "C: gt q(1)\n"
        "D: gt q(1/2)\n"
        "depth: 3\n"
        "e0: q(1)\n"
        "e1: q(3/4)\n"
        "e2: q(5/8)\n"
        "e3: q(9/16)\n"
        "H: gt q(1)\n"
        "defect: true\n"
        "break: gt q(1)\n"
    )
    assert "failures: 0" in rest
    assert "ok: true" in rest
    assert "queries: 50" in rest
    assert "unresolved: 0" in rest


def test_demo_br10_kv_golden():
    code, out, _ = run_cli(
        ["demo-br10", "--group", "zp:2", "--b", "q(1)", "--p", "2", "--samples", "20", "--format", "kv"]
    )
    assert code == 0
    assert out == (
        "[br10]\n"
        "H1: ge q(2)\n"
        "H2: gt q(2)\n"
        "samples: 20\n"
        "agreements: 20\n"
        "divergence_at: gt q(2)\n"
        "image1_at_divergence: trivial\n"
        "image2_at_divergence: full\n"
    )


def test_demo_br10_plain_has_table():
    code, out, _ = run_cli(
        ["demo-br10", "--group", "zp:2", "--b", "q(1)", "--p", "2", "--samples", "8", "--table-rows", "5"]
    )
    assert code == 0
    lines = out.splitlines()
    header = [l for l in lines if "image1" in l and "image2" in l]
    assert len(header) == 1
    rows = [l for l in lines if l.rstrip().endswith("yes")]
    assert len(rows) == 5


def test_separation_golden():
    code, out, _ = run_cli(["separation", "--gap", "q(1/2)", "--p", "2", "--hull"])
    assert code == 0
    assert out == (
        "[separation]\n"
        "gap: q(1/2)\n"
        "p: 2\n"
        "connected_at: ge q(1)\n"
        "separated_at: gt q(1)\n"
    )
    code, out, _ = run_cli(["separation", "--gaps", "1,2", "--degree", "3", "--p", "2"])
    assert code == 0
    assert out == "[separation]\ndegree: 3\ngaps: 1,2\nbound: gt 6\n"


@pytest.mark.parametrize(
    "argv, gaps, bound",
    [
        (["--group", "zlex:2", "--hull", "--gaps", "lex(1,2),lex(0,3)"], "lex(1,2),lex(0,3)", "gt lex(2,4)"),
        (["--group", "quad:2", "--gaps", "quad(1,0),quad(0,1)"], "quad(1,0),quad(0,1)", "gt quad(0,2)"),
        (["--gaps", "1,,2"], "1,2", "gt 4"),
        (["--gaps", "1,2,"], "1,2", "gt 4"),
    ],
)
def test_gaps_are_elements_of_any_group(argv, gaps, bound):
    # a comma inside an element's parentheses does not split the list, and
    # an empty entry is skipped
    code, out, err = run_cli(["separation", "--p", "2"] + argv)
    assert (code, err) == (0, "")
    assert out == f"[separation]\ndegree: 2\ngaps: {gaps}\nbound: {bound}\n"


def test_separation_at_a_huge_degree_scales_the_bound_at_once():
    start = time.perf_counter()
    code, out, _ = run_cli(["separation", "--p", "2", "--gaps", "1", "--degree", "100000000"])
    assert time.perf_counter() - start < ARGV_SECONDS
    assert code == 0
    assert "bound: gt 100000000\n" in out


def test_a_bare_negative_rational_is_an_option_value():
    argv = ["classify", "--group", "zp:2", "--p", "3", "--kummer", "i", "--e0", "1"]
    bare = run_cli(argv + ["--va", "-1/2"])
    assert bare == run_cli(argv + ["--va=-1/2"])
    assert bare[0] == 0
    assert "rsw: dlog(t(q(-1/2)))\n" in bare[1]
    code, out, err = run_cli(["separation", "--p", "2", "--gap", "-1/2"])
    assert (code, out) == (2, "")
    assert "expected one argument" not in err
    assert "coordinates (-1/2) do not lie in Z^1" in err


def test_verify_series_suite():
    code, out, _ = run_cli(["verify", "--suite", "series", "--p", "2", "--samples", "30"])
    assert code == 0
    assert "failures: 0" in out


VERIFY_ALL_P2 = """\
[verify]
suite: claim2
group: zp:2
C: gt q(3/8)
depth: 3
samples: 60
monomials: 157
failures: 0
[verify]
suite: limits
queries: 50
unresolved_depth2: 2
unresolved_depth4: 0
failures: 0
[verify]
suite: theorem1
pairs: 63
failures: 0
[verify]
suite: series
samples: 60
failures: 0
"""

VERIFY_ALL_P3 = """\
[verify]
suite: claim2
group: zp:3
C: gt q(4/3)
depth: 3
samples: 20
monomials: 65
failures: 0
[verify]
suite: limits
queries: 50
unresolved_depth2: 2
unresolved_depth4: 0
failures: 0
[verify]
suite: theorem1
pairs: 21
failures: 0
[verify]
suite: series
samples: 20
failures: 0
"""


@pytest.mark.parametrize(
    "p, samples, seed, expected",
    [("2", "60", "5", VERIFY_ALL_P2), ("3", "20", "1", VERIFY_ALL_P3)],
)
def test_verify_all_golden(p, samples, seed, expected):
    code, out, err = run_cli(["verify", "--suite", "all", "--p", p, "--samples", samples, "--seed", seed])
    assert (code, out, err) == (0, expected, "")


VERIFY_CLAIM2_QUAD = """\
[verify]
suite: claim2
group: quad:2
C: gt quad(1,1)
depth: 3
samples: 200
monomials: 590
failures: 0
"""


def test_verify_claim2_over_quad_golden():
    # the displacement floors over Q + Q*sqrt(2) are compared by quad_sign
    argv = ["verify", "--suite", "claim2", "--group", "quad:2", "--cut", "gt quad(1,1)", "--p", "3", "--samples", "200", "--seed", "0"]
    assert run_cli(argv) == (0, VERIFY_CLAIM2_QUAD, "")


# -- exit codes --------------------------------------------------------------------------


def test_exit_2_on_bad_literal():
    code, out, err = run_cli(["classify", "--group", "zlex:1", "--p", "2", "--as", "t(q1)"])
    assert code == 2
    assert out == ""
    assert err == "error: expected a rational number but found 'q1' in 't(q1)'\n"


def test_exit_2_on_whole_break():
    code, _, err = run_cli(["breaks", "--group", "zlex:1", "--H", "whole"])
    assert code == 2
    assert "no jump" in err


def test_exit_2_on_demo_br10_over_a_discrete_group():
    # over Z the twin cut gt p*b has a least element, so no defect twin exists
    code, out, err = run_cli(["demo-br10", "--group", "zlex:1", "--p", "2", "--b", "1"])
    assert code == 2
    assert out == ""
    assert err == "error: the twin pair needs a dense value group: its defect side is a defect extension\n"


@pytest.mark.parametrize(
    "literal",
    ["(t(-1)+u+t(-2))^2000", "((t(-1)+u+t(-2))^100)^100", "(u+t(1))^10000*(t(-1)+v)^9999"],
)
def test_exit_2_when_a_literal_outgrows_the_parse_budget(literal):
    start = time.perf_counter()
    code, out, err = run_cli(["classify", "--group", "zlex:1", "--p", "7", "--as", literal])
    assert time.perf_counter() - start < ARGV_SECONDS
    assert (code, out) == (2, "")
    assert err == f"error: series literal needs more than {literals.PARSE_PAIR_BUDGET} coefficient-term products (the parse budget)\n"


def test_parse_budget_leaves_powers_below_it_unchanged():
    # the parser's own square-and-multiply gives SeriesElement.power's series
    f, field = parse_series("(t(-1)+u+t(-2))^300", Z1, 7)
    base = t_term(field, Z1, element(Z1, -1)) + variable_series(field, Z1, field.unit_gen("u")) + t_term(field, Z1, element(Z1, -2))
    assert f == base.power(300)


def test_exit_2_at_once_on_an_exponent_above_the_cap():
    # the interpreter's int-string limit (4300 digits by default) is no cap:
    # it can be lifted, and Python before 3.10.7 has none
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        start = time.perf_counter()
        code, out, err = run_cli(["classify", "--group", "zp:2", "--p", "2", "--as", f"u^1{'0' * 4999}*t(-1)"])
        elapsed = time.perf_counter() - start
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert elapsed < ARGV_SECONDS
    assert (code, out) == (2, "")
    assert err == f"error: series exponents are at most {literals.MAX_EXPONENT}\n"
    # the cap itself is accepted
    f, field = parse_series(f"u^{literals.MAX_EXPONENT}", Z1, 2)
    assert f == variable_series(field, Z1, field.unit_gen("u")).power(literals.MAX_EXPONENT)


def test_long_number_tokens_are_refused_whatever_the_int_digit_limit():
    # the same exit and message at the default limit and with it lifted,
    # naming the cap and not echoing the token
    argvs = [
        ["classify", "--group", "zp:2", "--p", "2", "--as", f"t(-1{'0' * 4999})"],
        ["classify", "--group", f"zp:1{'0' * 4999}", "--p", "2", "--as", "t(-1)"],
        ["classify", "--group", "zp:2", "--p", "2", "--as", f"t(q(1/3{'0' * 4999}))"],
    ]
    for argv in argvs:
        for result in _at_both_int_digit_limits(argv):
            assert result == (2, "", f"error: numbers have at most {literals.MAX_DIGITS} digits\n")
    # a run of exactly MAX_DIGITS digits is read
    f, field = parse_series(f"t(-1{'0' * (literals.MAX_DIGITS - 1)})", ZP2, 2)
    assert f.valuation() == element(ZP2, -(10 ** (literals.MAX_DIGITS - 1)))


def test_a_name_in_a_numbers_place_is_refused_as_no_number():
    # only runs of digits count against the digit cap, so a long name is
    # named as the fault, quoted in part
    names = "a" * 5000
    shown = f"'{'a' * 40}'... (5000 characters)"
    argv = ["classify", "--group", "zp:2", "--p", "2", "--as", "t(-1)^" + names]
    assert run_cli(argv) == (2, "", f"error: expected an integer exponent, found {shown}\n")
    argv = ["eval", "--group", "zp:" + names, "--H", "whole", "--I", "whole"]
    assert run_cli(argv) == (2, "", f"error: expected an integer group parameter, found {shown}\n")
    # a number one digit past the cap is still refused by it
    argv = ["classify", "--group", "zp:2", "--p", "2", "--as", f"t({'1' * (literals.MAX_DIGITS + 1)})"]
    for result in _at_both_int_digit_limits(argv):
        assert result == (2, "", f"error: numbers have at most {literals.MAX_DIGITS} digits\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--group", "a" * 3000 + ":2", "--H", "whole", "--I", "whole"],
        ["eval", "--group", "zp:2", "--H", "a" * 3000, "--I", "whole"],
        ["classify", "--group", "zp:2", "--p", "2", "--as", "t(-1)^" + "a" * 3000],
        ["classify", "--group", "zp:2", "--p", "2", "--case", "i", "--c", f"q(1/{'3' * 4000})"],
        ["classify", "--group", "zp:2", "--p", "2", "--as", f"x[q(-{'3' * 3000})]"],
    ],
)
def test_long_literal_text_is_not_quoted_in_full(argv):
    # tokens, literal texts and values are quoted up to
    # ordered_group.ECHO_CHARS characters, with their length
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert len(err.encode()) < 300 and err.count("\n") == 1, err[:300]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "--group", "zq:2", "--H", "whole", "--I", "whole"], "unknown group kind 'zq' (use zlex:n, zp:p, quad:d)"),
        (["eval", "--group", "zp:2", "--H", "lt q(1)", "--I", "whole"], "unknown cut form 'lt' (use whole, ge, gt, frontier, frontier_ge)"),
        (["classify", "--group", "zp:2", "--p", "2", "--as", "t(-1)^e"], "expected an integer exponent, found 'e'"),
        (["classify", "--group", "zp:2", "--p", "2", "--case", "i", "--c", "q(1/3)"], "1/3 has a denominator prime to 2 (while reading an element of zp:2)"),
        (["separation", "--p", "2", "--gaps", "1,abc"], "expected a rational number but found 'abc' in '1,abc'"),
        (["separation", "--p", "2", "--gap", "1 2"], "trailing input '2' in '1 2'"),
        (["classify", "--group", "zp:2", "--p", "2", "--as", "x[q(-1)]"], "variable tags must be positive group elements, got 'q(-1)'"),
        (["classify", "--group", "zp:2", "--p", "2", "--as", "x[0]"], "variable tags must be positive group elements, got 'q(0)'"),
        (
            ["eval", "--group", "zlex:2", "--H", "ge lex(1/2,0)", "--I", "ge lex(0,0)"],
            "coordinates (1/2, 0) do not lie in Z^2 (while reading an element of zlex:2)",
        ),
    ],
)
def test_short_literal_text_is_quoted_whole(argv, message):
    assert run_cli(argv) == (2, "", f"error: {message}\n")


def _at_both_int_digit_limits(argv):
    """run_cli(argv) at the interpreter's int-string limit and, where the
    interpreter has one, with it lifted."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    got = [run_cli(argv)]
    if limit is not None:
        sys.set_int_max_str_digits(0)
        try:
            got.append(run_cli(argv))
        finally:
            sys.set_int_max_str_digits(limit)
    return got


_LONG = "1" + "0" * 4999


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--p", ["classify", "--group", "zp:2", "--p", _LONG, "--as", "t(-1)"]),
        ("--samples", ["verify", "--suite", "claim2", "--p", "2", "--samples", _LONG]),
        ("--table-rows", ["demo-br10", "--group", "zp:2", "--p", "2", "--b", "1", "--table-rows", _LONG]),
        ("--seed", ["construct-defect", "--group", "zp:2", "--p", "2", "--cut", "gt q(1)", "--seed", _LONG]),
        ("--seed", ["verify", "--suite", "series", "--p", "2", "--seed", "-" + _LONG]),
        ("--depth", ["breaks", "--group", "zp:2", "--bound", "q(1)", "--depth", _LONG]),
        ("--depth", ["verify", "--suite", "limits", "--p", "2", "--depth", _LONG]),
        ("--degree", ["separation", "--p", "2", "--gaps", "q(1),q(2)", "--degree", _LONG]),
    ],
)
def test_long_integer_flags_are_refused_whatever_the_int_digit_limit(flag, argv):
    # one reader for every integer flag: the same exit and message at the
    # default limit and with it lifted, naming the cap and not echoing the value
    for code, out, err in _at_both_int_digit_limits(argv):
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {flag}: numbers have at most {literals.MAX_DIGITS} digits\n")
        assert "0" * 50 not in err


def test_a_seed_at_the_digit_cap_is_read():
    argv = ["construct-defect", "--group", "zp:2", "--p", "2", "--cut", "gt q(1)", "--samples", "1"]
    assert run_cli(argv + ["--seed", "9" * literals.MAX_DIGITS])[0] == 0


_NINES = "9" * literals.MAX_DIGITS


def test_a_separation_bound_past_the_digit_cap_is_refused_whatever_the_int_digit_limit():
    # a degree of MAX_DIGITS nines passes the flag's reader, but the bound,
    # twice the degree, has one digit more: the same exit and message at the
    # default limit and with it lifted, naming the cap
    argv = ["separation", "--p", "2", "--gaps", "q(1),q(2)", "--degree", _NINES]
    for result in _at_both_int_digit_limits(argv):
        assert result == (2, "", f"error: the bound has numbers of more than {literals.MAX_DIGITS} digits\n")
    # one nine fewer, the bound has MAX_DIGITS digits and prints
    for code, out, err in _at_both_int_digit_limits(argv[:-1] + [_NINES[1:]]):
        assert (code, err) == (0, "")
        assert out.endswith(f"bound: gt q({2 * int(_NINES[1:])})\n")


@pytest.mark.parametrize(
    "argv, refused",
    [
        # refused: a value of at most MAX_DIGITS digits that the flag refuses after int()
        (["classify", "--group", "zp:2", "--p", "{}", "--as", "t(-1)"], _NINES),
        (["separation", "--p", "{}", "--gap", "q(1)"], "-" + _NINES),
        (["verify", "--suite", "claim2", "--p", "2", "--samples", "{}"], _NINES),
        (["construct-defect", "--group", "zp:2", "--p", "2", "--cut", "gt q(1)", "--samples", "{}"], "-" + _NINES),
        (["demo-br10", "--group", "zp:2", "--p", "2", "--b", "1", "--table-rows", "{}"], "-" + _NINES),
        (["verify", "--suite", "series", "--p", "2", "--seed", "{}"], None),
        (["breaks", "--group", "zp:2", "--bound", "q(1)", "--depth", "{}"], None),
        (["verify", "--suite", "limits", "--p", "2", "--depth", "{}"], _NINES),
        (["separation", "--p", "2", "--gaps", "q(1),q(2)", "--degree", "{}"], "-" + _NINES),
        (["classify", "--group", "zp:{}", "--p", "2", "--as", "t(-1)"], _NINES),
        (["classify", "--group", "quad:{}", "--p", "2", "--as", "t(-1)"], "-" + _NINES),
    ],
)
def test_long_flag_values_are_not_echoed_in_full(argv, refused):
    # a value is quoted up to ordered_group.ECHO_CHARS characters, with its
    # length; argparse's usage text (up to 240 bytes) comes on top
    for value in filter(None, ("x" * 20000, "9" * 20000, refused)):
        code, out, err = run_cli([a.replace("{}", value) for a in argv])
        assert (code, out) == (2, "")
        assert len(err.splitlines()[-1].encode()) < 200 and len(err.encode()) < 440, err[-300:]


def test_short_flag_values_are_echoed_whole():
    assert run_cli(["separation", "--p", "x" * 40, "--gap", "q(1)"])[2].endswith(
        f"error: argument --p: expected a prime, found '{'x' * 40}'\n"
    )
    assert run_cli(["eval", "--group", "zp:2147483659", "--H", "ge q(1)", "--I", "ge q(1)"]) == (
        2, "", "error: 2147483659 exceeds the supported parameter cap 2**31\n"
    )


def test_exit_2_on_missing_mode():
    code, _, err = run_cli(["classify", "--group", "zlex:1", "--p", "2"])
    assert code == 2
    assert "one of the arguments --as --case --kummer is required" in err


def test_exit_2_on_argparse_errors():
    with contextlib.redirect_stderr(io.StringIO()):
        assert run(["classify", "--p", "2", "--as", "t(-3)"]) == 2  # missing --group
        assert run(["no-such-command"]) == 2
        assert run(["verify", "--suite", "nope", "--p", "2"]) == 2


MALFORMED_ARGVS = [
    ["classify", "--group", "zlex:1", "--p", "1", "--as", "t(-3)"],
    ["classify", "--group", "zlex:1", "--p", "4", "--as", "t(-3)"],
    ["separation", "--gap", "1", "--p", "1"],
    ["verify", "--suite", "limits", "--p", "2", "--depth", "1"],
    ["construct-defect", "--group", "zp:2", "--p", "2", "--cut", "gt q(1)", "--samples", "-3"],
    ["verify", "--suite", "claim2", "--p", "2", "--cut", "ge(q(1))"],
    ["verify", "--suite", "limits", "--p", "2", "--cut", "ge(q(1))"],
    ["verify", "--suite", "series", "--p", "1", "--samples", "2"],
    ["eval", "--group", "zlex:2", "--H", "gt(surd(0,1,2))", "--I", "ge(lex(1,0))"],
    ["breaks", "--group", "zlex:2", "--bound", "surd(0,1,2)", "--variant", "open-irrational"],
    ["eval", "--group", "zp:1000000000000000003", "--H", "ge q(1)", "--I", "ge q(1)"],
    ["eval", "--group", "quad:1000000000000000003", "--H", "ge quad(1,0)", "--I", "ge quad(1,0)"],
    ["construct-defect", "--group", "zp:2", "--p", "2", "--cut", "gt q(1)", "--depth", "2000"],
    ["demo-br10", "--group", "zp:2", "--p", "2", "--b", "1", "--depth", "5000"],
    ["verify", "--suite", "series", "--p", "2", "--samples", "1", "--depth", "0"],
    ["verify", "--suite", "series", "--p", "2", "--group", "zlex:1"],
    ["verify", "--suite", "theorem1", "--p", "2", "--cut", "gt q(1)"],
    ["classify", "--group", "zlex:1", "--p", "2", "--as", "t(-3)", "--case", "i", "--c", "3"],
    ["classify", "--group", "zlex:1", "--p", "2", "--case", "i", "--c", "3", "--e0", "5", "--va", "7"],
    ["separation", "--p", "2", "--gap", "1", "--gaps", "2,3"],
    ["separation", "--p", "2", "--gap", "1", "--degree", "3"],
    ["breaks", "--group", "zp:2", "--H", "ge q(1)", "--bound", "q(1)", "--variant", "open"],
    ["breaks", "--group", "zlex:1", "--H", "ge 3", "--variant", "open"],
    ["breaks", "--group", "zp:2", "--H", "gt q(1)", "--depth", "9"],
    ["breaks", "--group", "zp:2", "--H", "gt q(1)", "--p", "3"],
    ["demo-br10", "--group", "zp:2", "--p", "2", "--b", "1", "--format", "kv", "--table-rows", "3"],
    ["classify", "--group", "zlex:1", "--p", "2", "--as", "t(-1)*Ⅻ"],
    ["verify", "--suite", "series", "--p", str(cli_mod.SERIES_MAX_P + 1), "--samples", "1"],
    ["verify", "--suite", "all", "--p", str(cli_mod.SERIES_MAX_P + 1), "--samples", "1"],
    ["verify", "--suite", "claim2", "--p", "2", "--samples", str(cli_mod.MAX_SAMPLES + 1)],
    ["construct-defect", "--group", "zp:2", "--p", "2", "--cut", "gt q(1)", "--samples", str(cli_mod.MAX_SAMPLES + 1)],
    ["demo-br10", "--group", "zp:2", "--p", "2", "--b", "1", "--samples", str(cli_mod.MAX_SAMPLES + 1)],
]


@pytest.mark.parametrize("argv", MALFORMED_ARGVS)
def test_exit_2_on_any_malformed_input(argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "script, flags",
    [
        ("separation_sweep.py", ["--p", "4"]),
        ("separation_sweep.py", ["--bound", "x"]),
        ("separation_sweep.py", ["--p", "3", "--bound", "1/2"]),
        ("separation_sweep.py", ["--depth", "0"]),
        ("demo_breaks.py", ["--depth", "0"]),
        ("demo_breaks.py", ["--depth", "300"]),
        ("demo_breaks.py", ["--bounds", "0"]),
        ("demo_breaks.py", ["--bounds", "-1"]),
    ],
)
def test_scripts_exit_2_on_bad_input(script, flags):
    argv = [sys.executable, os.path.join(_ROOT, "scripts", script), *flags]
    got = subprocess.run(argv, env=_env(), capture_output=True, text=True, timeout=60)
    assert got.returncode == 2 and "error:" in got.stderr, got.stderr
    assert "Traceback" not in got.stderr


def test_samples_above_the_cap_are_refused_before_sampling(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("sampled despite the cap")

    for name in ("verify_delta_bounds", "random_model_series", "random_positive_element", "build_defect_model"):
        monkeypatch.setattr(cli_mod, name, boom)
    over = str(cli_mod.MAX_SAMPLES + 1)
    for argv in (
        ["verify", "--suite", "all", "--p", "2", "--samples", over],
        ["construct-defect", "--group", "zp:2", "--p", "2", "--cut", "gt q(1)", "--samples", over],
        ["demo-br10", "--group", "zp:2", "--p", "2", "--b", "1", "--samples", over],
    ):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert f"expected at most {cli_mod.MAX_SAMPLES} samples, found {over}" in err
    # the cap itself is accepted
    assert cli_mod._PARSER.parse_args(["verify", "--suite", "all", "--p", "2", "--samples", str(cli_mod.MAX_SAMPLES)]).samples == cli_mod.MAX_SAMPLES


def test_verify_refuses_flags_no_suite_reads():
    assert run_cli(["verify", "--suite", "series", "--p", "2", "--group", "zp:2"]) == (
        2, "", "error: --group is not read by suite series\n"
    )
    assert run_cli(["verify", "--suite", "theorem1", "--p", "2", "--cut", "gt q(1)"]) == (
        2, "", "error: --cut is not read by suite theorem1\n"
    )
    assert run_cli(["verify", "--suite", "theorem1", "--p", "2", "--depth", "9"]) == (
        2, "", "error: --depth is not read by suite theorem1\n"
    )
    code, _, _ = run_cli(["verify", "--suite", "all", "--p", "2", "--samples", "2", "--cut", "gt q(1)"])
    assert code == 0  # claim2 and limits read it


def test_modes_refuse_flags_they_do_not_read():
    assert run_cli(["classify", "--group", "zlex:1", "--p", "2", "--case", "i", "--c", "3", "--e0", "5"]) == (
        2, "", "error: --e0 is not read by --case\n"
    )
    assert run_cli(["breaks", "--group", "zp:2", "--H", "gt q(1)", "--depth", "9"]) == (
        2, "", "error: --depth is not read by --H\n"
    )
    assert run_cli(["demo-br10", "--group", "zp:2", "--p", "2", "--b", "1", "--format", "kv", "--table-rows", "3"]) == (
        2, "", "error: --table-rows is not read by --format kv\n"
    )


def test_verify_builds_models_at_the_given_depth(monkeypatch):
    build = cli_mod.build_defect_model
    depths = []

    def recording(*args, depth):
        depths.append(depth)
        return build(*args, depth=depth)

    monkeypatch.setattr(cli_mod, "build_defect_model", recording)
    code, out, _ = run_cli(["verify", "--suite", "limits", "--p", "2", "--depth", "4"])
    assert code == 0 and depths == [3, 5]
    assert "unresolved_depth3: " in out and "unresolved_depth5: " in out
    depths.clear()
    code, _, _ = run_cli(["verify", "--suite", "series", "--p", "2", "--samples", "2", "--depth", "2"])
    assert code == 0 and depths == [2]


def test_construct_defect_prints_a_root_set_off_the_group():
    # over Z[1/3] at p = 2 the root set is gt 1/2, and 1/2 is no group point
    code, out, err = run_cli(["construct-defect", "--group", "zp:3", "--p", "2", "--cut", "gt q(1)"])
    assert (code, err) == (0, "")
    printed = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    assert printed["D"] == "gt surd(1/2,0,0)"
    d = parse_group("zp:3")
    model = build_defect_model(d, 2, open_cut(d, element(d, 1)), depth=3)
    cuts = {"C": model.conductor, "D": model.root_set, "H": model.swan.conductor, "break": break_of(model.conductor)}
    for key, cut in cuts.items():
        assert parse_cut(printed[key], d, hull=cut.over_hull) == cut


def test_breaks_with_a_400_digit_surd_bound():
    bound = f"surd({10 ** 400},1,2)"
    code, out, err = run_cli(["breaks", "--group", "zp:2", "--bound", bound, "--variant", "open-irrational"])
    assert (code, err) == (0, "")
    assert "defect: true" in out.splitlines()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--group", "zp:3", "--p", "2", "--case", "i", "--c", "q(2)"], "case i needs a non-p-divisible value, got 2"),
        (["classify", "--group", "zp:3", "--p", "2", "--kummer", "i", "--va", "q(1)"], "--kummer needs --e0, the value of zeta_p - 1"),
        (["breaks", "--group", "zp:2", "--bound", "q(1)"], "--bound needs --variant"),
        (["separation", "--p", "2", "--gap", "quad(1,0)"], "quad gaps need an explicit --group quad:d"),
    ],
)
def test_exit_2_names_what_the_flags_lack(argv, message):
    assert run_cli(argv) == (2, "", f"error: {message}\n")


def test_exit_2_on_kummer_validation():
    code, _, err = run_cli(
        ["classify", "--group", "zlex:1", "--p", "2", "--kummer", "i", "--e0", "1", "--va", "4"]
    )
    assert code == 2
    assert "case i" in err


def test_exit_1_when_verification_fails(monkeypatch):
    def boom(model, samples=0, rng=None):
        raise DeltaBoundError("forced failure for the exit-code contract")

    monkeypatch.setattr(cli_mod, "verify_delta_bounds", boom)
    code, out, _ = run_cli(
        ["construct-defect", "--group", "zp:2", "--cut", "gt q(1)", "--p", "2", "--samples", "5"]
    )
    assert code == 1
    assert "failures: 1" in out
    assert "forced failure" in out


@pytest.mark.parametrize("suite", ["theorem1", "limits", "series"])
def test_exit_1_when_a_verify_law_fails(monkeypatch, suite):
    persistence = cli_mod.witness_persistence
    monkeypatch.setattr(cli_mod, "single_jump_violations", lambda conductor, ideals: ["forced"])
    monkeypatch.setattr(cli_mod, "witness_persistence", lambda *args: persistence(*args)[:2] + (["forced"],))
    monkeypatch.setattr(cli_mod, "norm_trace_laws", lambda sigma, f: ["forced"])
    code, out, _ = run_cli(["verify", "--suite", suite, "--p", "2", "--samples", "5"])
    assert code == 1
    assert int(re.search(r"^failures: (\d+)$", out, re.M).group(1)) > 0


DEMO_BR10_FAILED = """\
[br10]
H1: ge q(2)
H2: ge q(2)
samples: 3
agreements: 3
divergence_at: gt q(2)
image1_at_divergence: trivial
image2_at_divergence: trivial
check: FAILED
"""


def test_demo_br10_fails_when_the_twins_agree_at_the_divergence(monkeypatch):
    # with the defect side replaced by the ramified one, the open hull ideal
    # at p*b no longer tells the two conductors apart
    twins = cli_mod.twin_pair

    def alike(*args, **kwargs):
        pair = twins(*args, **kwargs)
        pair.defect = pair.ramified
        return pair

    monkeypatch.setattr(cli_mod, "twin_pair", alike)
    argv = ["demo-br10", "--group", "zp:2", "--p", "2", "--b", "1", "--samples", "3", "--format", "kv"]
    assert run_cli(argv) == (1, DEMO_BR10_FAILED, "")


def test_verify_claim2_reports_a_broken_floor(monkeypatch):
    # sigma(x_i) = x_i + t^(d_i / 2) moves the tagged variables too fast
    build = cli_mod.build_defect_model
    monkeypatch.setattr(
        cli_mod, "build_defect_model", lambda *args, **kwargs: _with_tags(build(*args, **kwargs), lambda t: divide_exact(t, 2))
    )
    argv = ["verify", "--suite", "claim2", "--p", "2", "--cut", "gt q(1)", "--samples", "5"]
    assert run_cli(argv) == (
        1, "[verify]\nsuite: claim2\nfailures: 1\ndetail: monomial at value -1/2 moved by 0, below the floor 1/4\n", ""
    )


# each literal diagnostic that no other test reaches, with the input that
# reaches it: exit 2 and one line on stderr
LITERAL_DIAGNOSTICS = [
    (["classify", "--group", "zp:2", "--p", "2", "--as", "t[1]"], "expected '(' but found '[' in 't[1]'"),
    (["eval", "--group", "zp:2", "--H", "ge", "--I", "ge q(1)"], "expected an element in 'ge'"),
    (["eval", "--group", "zp:2", "--H", "ge q(1,2)", "--I", "ge q(1)"], "q(...) takes a single rational"),
    (["eval", "--group", "zp:2", "--H", "ge lex(1)", "--I", "ge q(1)"], "lex(...) element does not live in zp:2"),
    (["eval", "--group", "zlex:2", "--H", "ge 1", "--I", "ge lex(1,0)"], "bare value '1' is ambiguous over zlex:2; use lex(...)"),
    (["breaks", "--group", "zp:2", "--bound", "surd(1,2)", "--variant", "open-irrational"], "surd(a,b,d) takes three arguments"),
    (["breaks", "--group", "zp:2", "--bound", "surd(0,1,1/2)", "--variant", "open-irrational"], "the radicand of surd(a,b,d) is an integer"),
    (["eval", "--group", "zp:2", "--H", "ge surd(0,1,2)", "--I", "ge q(1)"], "a principal cut needs an element bound, not a surd"),
    (["eval", "--group", "zp:2", "--H", "frontier(1)", "--I", "ge q(1)"], "frontier cuts live over lex groups, not zp:2"),
    (["classify", "--group", "zp:2", "--p", "2", "--as", "t(-1)*"], "expected a series factor in 't(-1)*'"),
    (["classify", "--group", "zp:2", "--p", "2", "--as", "1/2*t(1)"], "series coefficients are integers mod p, found 1/2"),
    (["classify", "--group", "zp:2", "--p", "2", "--as", "u^-1"], "negative exponents are not series"),
    (["classify", "--group", "zp:2", "--p", "2", "--as", "u^2147483649"], "series exponents are at most 2147483648"),
]


@pytest.mark.parametrize("argv, message", LITERAL_DIAGNOSTICS)
def test_literal_diagnostics_golden(argv, message):
    assert run_cli(argv) == (2, "", f"error: {message}\n")


# inputs that parse but that the library refuses: exit 2 and one line on stderr
REFUSED_INPUTS = [
    (["classify", "--group", "zlex:1", "--p", "2", "--kummer", "iii", "--e0", "2", "--vb", "2"],
     "case iii needs v(b) outside p times the value group"),
    (["classify", "--group", "zlex:1", "--p", "2", "--kummer", "iv", "--e0", "2", "--vb", "2"],
     "case iv needs the residue unit's name"),
    (["breaks", "--group", "zp:2", "--p", "2", "--bound", "surd(0,1,2)", "--variant", "open"],
     "open variant needs a group element"),
]


@pytest.mark.parametrize("argv, message", REFUSED_INPUTS)
def test_refused_inputs_golden(argv, message):
    assert run_cli(argv) == (2, "", f"error: {message}\n")


# -- argv fuzzing ------------------------------------------------------------------------

# keys whose printed value is a cut over the group, and over its hull
GROUP_CUT_KEYS = ("H", "H1", "H2", "C", "D")
HULL_CUT_KEYS = ("I", "break", "divergence_at", "bound", "connected_at", "separated_at")

_primes = st.sampled_from(["2", "3", "5"])
_groups = st.sampled_from(["zlex:1", "zlex:2", "zp:2", "zp:3", "zp:5", "quad:2", "quad:3"])
_rationals = st.builds(
    lambda a, b: str(Fraction(a, b)), st.integers(min_value=-3, max_value=4), st.integers(min_value=1, max_value=4)
)
_depths = st.integers(min_value=0, max_value=4).map(str)
_samples = st.integers(min_value=0, max_value=5).map(str)
_seeds = st.integers(min_value=0, max_value=9).map(str)


@st.composite
def _element_text(draw, group):
    kind, param = group.split(":")
    r = draw(st.lists(_rationals, min_size=2, max_size=2))
    # a bare rational names a rational point; a negative one must still be
    # read as the option's value
    if (kind != "zlex" or param == "1") and draw(st.booleans()):
        return r[0]
    if kind == "zlex":
        return f"lex({','.join(r[: int(param)])})"
    if kind == "zp":
        return f"q({r[0]})"
    return f"quad({r[0]},{r[1]})"


@st.composite
def _cut_text(draw, group):
    forms = ["whole", "ge", "gt", "surd"] + (["frontier", "frontier_ge"] if group.startswith("zlex") else [])
    form = draw(st.sampled_from(forms))
    if form == "whole":
        return form
    if form == "surd":
        return f"gt surd({draw(_rationals)},{draw(_rationals)},{draw(st.sampled_from([2, 3]))})"
    if form.startswith("frontier"):
        return f"{form}({','.join(draw(st.lists(_rationals, min_size=1, max_size=2)))})"
    return f"{form} {draw(_element_text(group))}"


# small exponents mostly, and up to 10^4, where products of several-term
# bases outgrow the parse budget
_exponents = st.one_of(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=10**4)).map(str)


@st.composite
def _series_text(draw, group):
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        factors = [str(draw(st.integers(min_value=1, max_value=3)))]
        for unit in draw(st.lists(st.sampled_from(["u", "v", "(u+1)"]), max_size=2)):
            factors.append(f"{unit}^{draw(_exponents)}")
        if draw(st.booleans()):
            factors.append(f"x[{draw(_element_text(group))}]^{draw(_exponents)}")
        factors.append(f"t({draw(_element_text(group))})")
        term = "*".join(factors)
        # nested powers of a sum, such as ((t(-1)+u+t(-2))^50)^40
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            term = f"({term}+u+t({draw(_element_text(group))}))^{draw(_exponents)}"
        terms.append(term)
    return " + ".join(terms)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ["classify", "eval", "breaks", "construct-defect", "demo-br10", "separation", "verify"]
    ))
    group = draw(_groups)
    p = draw(_primes)
    element_of = _element_text(group)
    opt = lambda flag, strategy: [flag, draw(strategy)] if draw(st.booleans()) else []
    if command == "classify":
        mode = draw(st.sampled_from(["as", "case", "kummer"]))
        argv = [command, "--group", group, "--p", p]
        if mode == "as":
            return argv + ["--as", draw(_series_text(group))]
        if mode == "case":
            return argv + ["--case", draw(st.sampled_from(["i", "ii", "iii"]))] + opt("--c", element_of) + opt(
                "--unit", st.just("u")
            )
        return (
            argv
            + ["--kummer", draw(st.sampled_from(["i", "ii", "iii", "iv", "v"])), "--e0", draw(element_of)]
            + opt("--va", element_of)
            + opt("--vb", element_of)
            + opt("--unit", st.just("w"))
        )
    if command == "eval":
        return [command, "--group", group, "--H", draw(_cut_text(group)), "--I", draw(_cut_text(group))]
    if command == "breaks":
        if draw(st.booleans()):
            return [command, "--group", group, "--H", draw(_cut_text(group))]
        bound = draw(st.one_of(element_of, st.builds("surd({},{},2)".format, _rationals, _rationals)))
        variant = draw(st.sampled_from(["closed", "open", "open-irrational"]))
        return [command, "--group", group, "--p", p, "--bound", bound, "--variant", variant, "--depth", draw(_depths)]
    if command == "construct-defect":
        return [command, "--group", group, "--p", p, "--cut", draw(_cut_text(group))] + [
            "--depth", draw(_depths), "--samples", draw(_samples), "--seed", draw(_seeds)
        ]
    if command == "demo-br10":
        # only the plain table reads --table-rows
        layout = draw(st.sampled_from([[], ["--format", "plain"], ["--format", "kv"]]))
        rows = [] if layout == ["--format", "kv"] else ["--table-rows", draw(_samples)]
        return [command, "--group", group, "--p", p, "--b", draw(element_of), "--depth", draw(_depths)] + [
            "--samples", draw(_samples), "--seed", draw(_seeds)
        ] + rows + layout
    if command == "separation":
        argv = [command, "--p", p] + (["--group", group] if draw(st.booleans()) else [])
        if draw(st.booleans()):
            argv += ["--hull"]
        if draw(st.booleans()):
            return argv + ["--gap", draw(element_of)]
        gaps = ",".join(draw(st.lists(element_of, min_size=1, max_size=3)))
        return argv + ["--gaps", gaps, "--degree", draw(st.sampled_from(["1", "2", "3"]))]
    suite = draw(st.sampled_from(["claim2", "limits", "theorem1", "series", "all"]))
    argv = [command, "--suite", suite, "--p", p, "--samples", draw(_samples), "--seed", draw(_seeds)]
    return argv + ["--depth", draw(_depths)] + opt("--group", st.just(group)) + opt("--cut", _cut_text(group))


# wall-time bound of one fuzzed argv; hostile literals must be refused
# within it rather than computed
ARGV_SECONDS = 5


@settings(max_examples=100, deadline=None)
@given(_argv())
def test_any_argv_keeps_the_exit_contract_and_prints_reparseable_cuts(argv):
    printed = []

    def recording_format_cut(cut):
        text = format_cut(cut)
        printed.append((text, cut))
        return text

    cli_mod.format_cut = recording_format_cut
    start = time.perf_counter()
    try:
        code, out, err = run_cli(argv)  # an exception escaping run fails the test
    finally:
        cli_mod.format_cut = format_cut
    assert time.perf_counter() - start < ARGV_SECONDS, argv
    assert code in (0, 1, 2)
    assert (out == "", "error:" in err) == (code == 2, code == 2)
    assert "Traceback" not in err
    assert "expected one argument" not in err  # every drawn option has its value
    for text, cut in printed:
        assert parse_cut(text, cut.descriptor, hull=cut.over_hull) == cut
    spaces = {(text, cut.over_hull) for text, cut in printed}
    for line in out.splitlines():
        key, _, text = line.partition(": ")
        if key in GROUP_CUT_KEYS + HULL_CUT_KEYS:
            assert (text, key in HULL_CUT_KEYS) in spaces


# -- the two parse routes -----------------------------------------------------------


def _golden_argvs():
    """{golden test name: the argv of each of its run_cli calls}, read off
    this module's source; each call's argument is evaluated once per
    parametrize row, with the test's own list assignments in scope."""
    with open(__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    out = {}
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("test_") and fn.name.endswith("_golden")):
            continue
        rows = [{}]
        for dec in fn.decorator_list:
            if isinstance(dec, ast.Call) and ast.unparse(dec.func) == "pytest.mark.parametrize":
                names = [n.strip() for n in ast.literal_eval(dec.args[0]).split(",")]
                values = eval(ast.unparse(dec.args[1]), globals())
                rows = [{**row, **dict(zip(names, v if len(names) > 1 else (v,)))} for row in rows for v in values]
        lists = {
            node.targets[0].id: eval(ast.unparse(node.value), globals())
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.List)
        }
        calls = [
            ast.unparse(node.args[0])
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "run_cli"
        ]
        out[fn.name] = [eval(call, globals(), {**lists, **row}) for call in calls for row in rows]
    return out


def _parsed(parse, argv):
    """parse(argv), or the SystemExit code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = parse(argv)
        except SystemExit as e:
            got = SystemExit, e.code
    return got, out.getvalue(), err.getvalue()


def _assert_routes_agree(argv):
    assert _parsed(cli_mod._parse, argv) == _parsed(cli_mod._PARSER.parse_args, argv), argv


_CLASSIFY = ["classify", "--group", "zp:2", "--p", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--help"],
        ["classify", "-h"],
        ["eval", "--group", "zp:2", "--h"],
        ["no-such-command", "--p", "2"],
        ["--p", "2", "classify"],
        _CLASSIFY,
        _CLASSIFY + ["--as", "t(-1)", "--bogus"],
        _CLASSIFY + ["--as", "t(-1)", "stray"],
        ["classify", "--gro", "zp:2", "--p", "2", "--as", "t(-1)"],
        _CLASSIFY + ["--as=t(-1)"],
        _CLASSIFY + ["--", "--as", "t(-1)"],
        _CLASSIFY + ["--as", "t(-1)", "--"],
        ["--", *_CLASSIFY, "--as", "t(-1)"],
        ["classify", "--group", "zp:2", "--p", "3", "--kummer", "i", "--e0", "1", "--va", "-1/2"],
        ["separation", "--p", "2", "--gap", "-1/2"],
        ["verify", "--suite", "all", "--p", "2", "--samples", "x"],
    ],
)
def test_the_subparser_route_parses_as_the_top_level_parser(argv):
    _assert_routes_agree(argv)


def test_malformed_and_golden_argvs_parse_alike_on_both_routes():
    golden = _golden_argvs()
    assert all(golden.values()) and len(golden) >= 12, golden
    for argv in MALFORMED_ARGVS + [argv for argvs in golden.values() for argv in argvs]:
        _assert_routes_agree(argv)


@settings(max_examples=200, deadline=None)
@given(_argv())
def test_any_drawn_argv_parses_alike_on_both_routes(argv):
    _assert_routes_agree(argv)


def test_a_command_name_skips_the_top_level_parser(monkeypatch):
    argv = ["classify", "--group", "zlex:1", "--p", "2", "--as", "t(-3)"]
    want = run_cli(argv)
    monkeypatch.setattr(cli_mod, "_PARSER", None)
    assert run_cli(argv) == want
    # no argv reads the process's own arguments
    monkeypatch.setattr(sys, "argv", ["ramify", *argv])
    assert run_cli(None) == want


@pytest.mark.parametrize("command", ["breaks", "construct-defect"])
@pytest.mark.parametrize("k", [600, 14000])
def test_a_bound_just_below_an_integer_builds_its_grid(command, k):
    # the root-set bound 1 - 2^-(k+1) repeats the grid point 1 on every level
    # up to k + 1; 2^14000 has 4215 digits, near the 4300-digit parse limit
    bound = f"q({2 ** (k + 1) - 1}/{2 ** k})"
    if command == "breaks":
        argv = [command, "--group", "zp:2", "--p", "2", "--bound", bound, "--variant", "open", "--depth", "2"]
    else:
        argv = [command, "--group", "zp:2", "--p", "2", "--cut", f"gt {bound}", "--depth", "2"]
    start = time.perf_counter()
    code, out, err = run_cli(argv)
    assert time.perf_counter() - start < ARGV_SECONDS
    assert (code, err) == (0, "")
    assert "defect: true" in out.splitlines()


# -- seeding -----------------------------------------------------------------------------


def test_seed_reproducibility():
    args = ["construct-defect", "--group", "zp:2", "--cut", "gt q(1)", "--p", "2", "--samples", "10"]
    base = run_cli(args + ["--seed", "7"])
    again = run_cli(args + ["--seed", "7"])
    assert base == again


DOUBLED_STEP_ARGVS = [
    ["verify", "--suite", "claim2", "--p", "2", "--cut", "gt q(1)", "--samples", "5"],
    ["verify", "--suite", "limits", "--p", "2", "--seed", "0"],
    ["verify", "--suite", "series", "--p", "2", "--samples", "2"],
    ["construct-defect", "--group", "zp:2", "--cut", "gt q(1)", "--p", "2", "--samples", "5"],
    ["breaks", "--group", "zp:2", "--bound", "q(1)", "--variant", "open"],
    ["demo-br10", "--group", "zp:2", "--p", "2", "--b", "1"],
]


@pytest.mark.parametrize("argv", DOUBLED_STEP_ARGVS, ids=lambda argv: " ".join(argv[:3]))
def test_a_doubled_step_sigma_fails_verification(monkeypatch, argv):
    # sigma(x_i) = x_i + t^(2*e(i)) passes every floor; build_defect_model's
    # measured steps refuse it, and each command reports a failed check
    from .test_defect_lab import _stepped_sigma

    monkeypatch.setattr("ramify.defect_lab.SigmaSpec", _stepped_sigma(lambda t: t + t))
    code, out, err = run_cli(argv)
    assert (code, err) == (1, "")
    assert re.search(r"^failures: 1\ndetail: x0 moved by \S+, not by its step e\(0\) = \S+\n\Z", out, re.M), out
