"""Theory-file front end: grammar, diagnostics, elaboration, rendering."""

import json

import pytest

from varcalc.dsl import (
    ElabContext, GradingMismatch, MissingStructureConstants, SyntaxError_,
    UndeclaredIdentifier, build_context, elaborate_form, parse_expression, parse_theory,
)
from varcalc.chart import (
    DimensionMismatch, GradingError, JetCutoffExceeded, VarcalcError,
)
from varcalc.render import form_json, render_text
from varcalc.randforms import suite_chart, FormGenerator
from conftest import load_theory


def test_empty_file_is_a_syntax_error():
    with pytest.raises(SyntaxError_) as e:
        parse_theory("")
    assert "1:1" in str(e.value)


def test_diagnostics_carry_position():
    with pytest.raises(SyntaxError_) as e:
        parse_theory("theory t\ndimension 2\nsignature + +\nlagrangian ((1+2)\n")
    assert "4:" in str(e.value) or "expected" in str(e.value)


def test_undeclared_identifier():
    td = parse_theory("theory t\ndimension 2\nsignature + +\nlagrangian nosuch * vol\n")
    chart, ctx = build_context(td)
    with pytest.raises(UndeclaredIdentifier):
        ctx.form(td.lagrangian[0])


def test_odd_ghost_function_argument_is_rejected():
    # the formal chain rule treats arguments as even: d_v(d_v(g(c, u)))
    # would not vanish for an odd c
    td = parse_theory("theory t\ndimension 2\nsignature + +\n"
                      "field u scalar\nfield c scalar ghost 1\n"
                      "function g arity 2\nlagrangian 0\n")
    chart, ctx = build_context(td)
    with pytest.raises(GradingMismatch, match="odd ghosts"):
        elaborate_form(ctx, "g(c, u)")
    with pytest.raises(GradingMismatch, match="odd ghosts"):
        elaborate_form(ctx, "fint(0; g(u, c_,1))")
    assert not elaborate_form(ctx, "g(u, 0) * c").is_zero()


def test_star_one_is_the_volume_form():
    td = parse_theory("theory t\ndimension 4\nsignature - + + +\nlagrangian 0\n")
    chart, ctx = build_context(td)
    v = elaborate_form(ctx, "star(1)")
    expect = elaborate_form(ctx, "dx0 ∧ dx1 ∧ dx2 ∧ dx3")
    assert (v - expect).is_zero()


def test_star_squares_correctly():
    td = parse_theory("theory t\ndimension 4\nsignature - + + +\nlagrangian 0\n")
    chart, ctx = build_context(td)
    # Lorentzian 4d: star star = sgn(g) (-1)^{k(n-k)}: +1 on 1-forms, -1 on 2-forms
    for base in ("dx0", "dx1"):
        v = elaborate_form(ctx, f"star(star({base}))")
        assert (v - elaborate_form(ctx, base)).is_zero()
    for base in ("dx0 ∧ dx1", "dx1 ∧ dx2"):
        v = elaborate_form(ctx, f"star(star({base}))")
        assert (v + elaborate_form(ctx, base)).is_zero()


_LIGHTCONE = "theory lc\ndimension 2\nmetric 0 1 / 1 0\nfield q scalar\n"
_FLIPPED = "theory fl\ndimension 2\nsignature - +\norientation -1\nfield q scalar\n"


@pytest.mark.parametrize("head, expr, want", [
    (_LIGHTCONE, "star(dx0)", "-dx0"),
    (_LIGHTCONE, "star(d(q))", "q_,1 ∧ dx1 - q_,0 ∧ dx0"),
    (_FLIPPED, "vol", "-dx0 ∧ dx1"),
    (_FLIPPED, "star(dx1)", "dx0"),
    (_FLIPPED, "star(d(q))", "q_,1 ∧ dx0 + q_,0 ∧ dx1"),
    ("theory t\ndimension 2\nmetric 0.5 0 / 0 2\nfield q scalar\n", "star(dx0)",
     "2 ∧ dx1"),
])
def test_star_reads_the_metric_and_orientation_of_the_file(head, expr, want):
    _chart, ctx = build_context(parse_theory(head))
    assert render_text(elaborate_form(ctx, expr)) == want


def test_equiv_across_metrics_is_a_chart_mismatch(tmp_path, capsys):
    from varcalc.cli import main
    paths = []
    for name, head in (("lc", _LIGHTCONE), ("fl", _FLIPPED)):
        paths.append(tmp_path / f"{name}.thy")
        paths[-1].write_text(head + "lagrangian 1/2 * d(q) ∧ star(d(q))\n",
                             encoding="utf-8")
    assert main(["el", str(paths[0])]) == 0
    capsys.readouterr()
    assert main(["equiv", *map(str, paths)]) == 1
    assert capsys.readouterr().err == (
        "error: theories live on different charts: metric 0 1 / 1 0 vs -1 0 / 0 1\n")


def test_first_order_maxwell_elaborates(first_order_maxwell):
    T = first_order_maxwell
    expect = elaborate_form(T.ctx, "B ∧ d(A) - 1/2 * B ∧ star(B)")
    assert (T.L - expect).is_zero()


def test_chern_simons_elaborates_with_structure(chern_simons):
    # the cubic trace is nonzero and the full Lagrangian is in Im(P)
    T = chern_simons
    cubic = elaborate_form(T.ctx, "tr(A ∧ A ∧ A)")
    assert not cubic.is_zero()
    assert (T.suite.euler_projector(T.L) - T.L).is_zero()


def test_round_trip_shipped_theories():
    for name in ("point_particle", "scalar_field", "maxwell", "maxwell_sourced",
                 "maxwell_first_order", "yang_mills_su2", "chern_simons_su2",
                 "bf_abelian_4d"):
        T = load_theory(name)
        back = elaborate_form(T.ctx, render_text(T.L))
        assert (back - T.L).is_zero(), name


def test_parse_render_identity_on_random_forms():
    ch = suite_chart(dim=3, nfields=2, ghost_field=True)
    ctx = ElabContext(ch)
    gen = FormGenerator(ch, seed=17, max_order=2, max_degree=3)
    for _ in range(200):
        w = gen.form(gen.rng.randint(0, 2), gen.rng.randint(0, 3), nterms=3)
        assert (elaborate_form(ctx, render_text(w)) - w).is_zero()


def test_render_zero_and_determinism(maxwell):
    from varcalc.algebra import LocalForm
    assert render_text(LocalForm.zero(maxwell.chart)) == "0"
    assert render_text(maxwell.EL) == render_text(maxwell.EL)


def test_json_schema(maxwell):
    from varcalc.render import report_json
    doc = json.loads(report_json("el", [form_json(maxwell.EL)]))
    assert doc["schema"] == "varcalc.report.v1"
    assert doc["results"][0]["grading"]["vertical"] == 1
    assert doc["results"][0]["terms"]


def test_grammar_unambiguous_on_corpus():
    # a single parse per input: parsing twice yields identical trees
    for text in ("a + b * c", "-d(phi) ∧ star(d(phi))", "<j , A> + [A, xi]"):
        assert parse_expression(text) == parse_expression(text)


def test_source_must_be_closed():
    bad = """theory t
dimension 4
signature - + + +
field A form 1
source j form 3 = t * dx1 ∧ dx2 ∧ dx3
lagrangian j ∧ A
"""
    td = parse_theory(bad)
    with pytest.raises(VarcalcError):
        build_context(td)


_HEAD = "theory t\ndimension 2\nsignature + +\n"


@pytest.mark.parametrize("text, line, message", [
    ("theory t\ndimension two\n", 2, "'dimension' expects an integer"),
    (_HEAD + "field q form\n", 4, "'form' expects an integer"),
    ("theory\ndimension 2\n", 1, "'theory' expects an argument"),
    (_HEAD + "orientation\n", 4, "'orientation' expects an integer"),
    (_HEAD + "jet_cutoff x\n", 4, "'jet_cutoff' expects an integer"),
    (_HEAD + "function V arity\n", 4, "'arity' expects an integer"),
    (_HEAD + "field q scalar ghost one\n", 4, "'ghost' expects an integer"),
    (_HEAD + "field q scalar components\n", 4, "'components' expects an integer"),
    (_HEAD + "field q scalar\nlagrangian 0\nsymmetry s param e components\n", 6,
     "'components' expects an integer"),
    (_HEAD + "field q scalar\nlagrangian\n", 5, "'lagrangian' expects an argument"),
    ("theory t\ndimension 2\nmetric 1 x / 0 1\n", 3, "metric expects rational entries"),
    ("theory t\ndimension 2\nsignature + x\n", 3, "signature expects '+' or '-', found 'x'"),
    ("theory t\ndimension 2 7\n", 2, "unexpected token '7' in dimension"),
    ("theory t extra\ndimension 2\n", 1, "unexpected token 'extra' in theory"),
    (_HEAD + "orientation 1 junk\n", 4, "unexpected token 'junk' in orientation"),
    (_HEAD + "jet_cutoff 4 5\n", 4, "unexpected token '5' in jet_cutoff"),
    (_HEAD + "structure g su2 junk\n", 4, "unexpected token 'junk' in structure"),
    (_HEAD + "function V arity 2 3\n", 4, "unexpected token '3' in function"),
    (_HEAD + "function V junk\n", 4, "unexpected token 'junk' in function"),
], ids=["dimension", "form", "theory", "orientation", "jet_cutoff", "arity", "ghost",
        "components", "param_components", "lagrangian", "metric", "signature",
        "dimension_trailing", "theory_trailing", "orientation_trailing",
        "jet_cutoff_trailing", "structure_trailing", "arity_trailing",
        "function_trailing"])
def test_malformed_operand_is_a_positioned_syntax_error(tmp_path, capsys, text, line,
                                                        message):
    _check_positioned(tmp_path, capsys, text, line, 1, message)


def test_optional_header_operands_keep_their_defaults():
    td = parse_theory(_HEAD + "function V\nfunction W arity 2\nstructure g\n")
    assert [(name, arity) for name, arity, _no in td.functions] == [("V", 1), ("W", 2)]
    assert td.structures["g"].dim == 1 and not td.structures["g"].f


def _check_positioned(tmp_path, capsys, text, line, col, message, error=SyntaxError_):
    """theory_from_text raises ``error`` at (line, col), and `varcalc el`
    on the file exits 2 with the positioned message."""
    from varcalc.cli import main
    from varcalc.theory import theory_from_text
    with pytest.raises(error) as e:
        theory_from_text(text)
    assert (e.value.line, e.value.col) == (line, col)
    path = tmp_path / "bad.thy"
    path.write_text(text, encoding="utf-8")
    assert main(["el", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:{line}:{col}: {message}\n"


_SOLVE = _HEAD + "field q scalar\nlagrangian 1/2 * d(q) ∧ star(d(q))\nsolve "


@pytest.mark.parametrize("text, line, col, message", [
    (_SOLVE + "q_,55\n", 6, 7, "direction 5 out of range in q_,55"),
    (_SOLVE + "q_,ab\n", 6, 7, "expected direction digits after '_,'"),
    (_SOLVE + "q_,0_,1\n", 6, 11, "solve expects jets like q_,00"),
    (_SOLVE + "p_,0\n", 6, 1, "solve names unknown component 'p'"),
    ("theory t\ndimension 2\nmetric 1 0 / 0\n", 3, 1, "metric must be 2 x 2"),
    ("theory t\ndimension 2\nmetric 1 0 0 / 0 1 0 / 0 0 1\n", 3, 1, "metric must be 2 x 2"),
    ("theory t\ndimension 2\nmetric 2 0 / 0 1\n", 3, 1,
     "metric determinant must be +-1 for exact Hodge duals"),
    ("theory t\ndimension 2\nmetric 1 1 / 1 1\n", 3, 1, "degenerate metric"),
    (_HEAD + "coordinates t x y\n", 4, 1, "coordinates must name 2 coordinates"),
    (_HEAD + "orientation 3\n", 4, 1, "orientation must be 1 or -1"),
    (_HEAD + "orientation 0\n", 4, 1, "orientation must be 1 or -1"),
    (_HEAD + "jet_cutoff -1\n", 4, 1, "jet_cutoff must be >= 0"),
    (_HEAD + "field q scalar\nlagrangian 0\nsymmetry s param e scalar\n  q = e\n"
     "symmetry s param f scalar\n", 8, 1, "duplicate symmetry 's'"),
    (_HEAD + "structure g su3\n", 4, 1, "unknown structure spec 'su3'"),
    (_HEAD + "field q scalar\nlagrangian vol * q'\n", 5, 18, "stray prime on 'q'"),
    (_HEAD + "field q scalar\nlagrangian 0\nsymmetry s param e scalar\n  q = e'\n", 7, 7,
     "stray prime on 'e'"),
    (_HEAD + "field q scalar\nsource j scalar = q'\n", 5, 19, "stray prime on 'q'"),
    (_HEAD + "field q scalar\nlagrangian 1/0 * q * q * vol\n", 5, 14, "division by zero"),
    (_HEAD + "field q scalar\nlagrangian 0\nsymmetry s param e scalar\n  q = 1/0 * e\n",
     7, 9, "division by zero"),
    (_HEAD + "function V\nfield q scalar\nlagrangian fint(1/0; V(l q)) * vol\n", 6, 19,
     "division by zero"),
    (_HEAD + "function V\nfield q scalar\nlagrangian V{1/0}(q) * vol\n", 6, 16,
     "division by zero"),
    (_HEAD + "function V\nfield q scalar\nlagrangian V{1/2}(q) * vol\n", 6, 14,
     "derivative order must be an integer, got 1/2"),
    (_HEAD + "function V arity 2\nfield q scalar\nlagrangian V{0,3/2}(q, q) * vol\n", 6, 16,
     "derivative order must be an integer, got 3/2"),
    (_HEAD + "function V\nfield q scalar\nlagrangian fint(1/2; V(l q)) * vol\n", 6, 17,
     "fint power must be an integer, got 1/2"),
    (_HEAD + "function V arity -1\nfield q scalar\nlagrangian 0\n", 4, 1,
     "arity must be >= 0"),
    (_HEAD + "field A form -1\nlagrangian 0\n", 4, 1, "form degree must be >= 0"),
    (_HEAD + "field q scalar\nsource j form -1 = 0\nlagrangian 0\n", 5, 1,
     "form degree must be >= 0"),
    (_HEAD + "field q scalar\nlagrangian 0\nsymmetry s param e form -1\n  q = 0\n", 6, 1,
     "form degree must be >= 0"),
    (_HEAD + "field q scalar components 0\nlagrangian 0\n", 4, 1,
     "components must be >= 1"),
    (_HEAD + "field q scalar components -2\nlagrangian 0\n", 4, 1,
     "components must be >= 1"),
], ids=["solve_direction", "solve_digits", "solve_adjacent", "solve_component",
        "metric_ragged", "metric_size", "metric_det", "metric_degenerate", "coordinates",
        "orientation_3", "orientation_0", "jet_cutoff", "symmetry_twice", "structure",
        "stray_prime", "stray_prime_symmetry", "stray_prime_source", "zero_denominator",
        "zero_denominator_symmetry", "zero_denominator_fint", "zero_denominator_orders",
        "fraction_order", "fraction_second_order", "fraction_fint_power", "arity_negative",
        "form_negative", "source_form_negative", "param_form_negative", "components_0",
        "components_negative"])
def test_malformed_value_is_a_positioned_syntax_error(tmp_path, capsys, text, line, col,
                                                      message):
    _check_positioned(tmp_path, capsys, text, line, col, message)


@pytest.mark.parametrize("text, line, col, message, error", [
    (_HEAD + "field q scalar\nlagrangian nosuch * star(1)\n", 5, 12,
     "unknown identifier 'nosuch'", UndeclaredIdentifier),
    (_HEAD + "field A form 1 lie g\nlagrangian 0\n", 4, 1,
     "structure 'g' not declared", MissingStructureConstants),
    (_HEAD + "field q scalar\nlagrangian 0\nsymmetry s param e scalar\n  p = e\n", 7, 1,
     "symmetry assigns unknown field 'p'", UndeclaredIdentifier),
    (_HEAD + "field q scalar\nlagrangian 0\nsymmetry s param e scalar\n  q = nosuch\n",
     7, 7, "unknown identifier 'nosuch'", UndeclaredIdentifier),
    (_HEAD + "field q scalar\nlagrangian 0\nsymmetry s param e scalar lie g\n  q = e\n",
     6, 1, "structure 'g' not declared", MissingStructureConstants),
    (_HEAD + "field q scalar\nsource j scalar = nosuch\nlagrangian 0\n", 5, 19,
     "unknown identifier 'nosuch'", UndeclaredIdentifier),
    (_HEAD + "field q scalar\nlagrangian q * dx5\n", 5, 12, "dx5 out of range",
     DimensionMismatch),
    (_HEAD + "field q scalar\nlagrangian q_,2 * star(1)\n", 5, 12,
     "direction 2 out of range in q_,2", DimensionMismatch),
], ids=["lagrangian_identifier", "field_structure", "assigned_field",
        "assignment_identifier", "param_structure", "source_identifier",
        "lagrangian_direction", "lagrangian_jet_direction"])
def test_unresolved_name_is_positioned(tmp_path, capsys, text, line, col, message, error):
    """A name that elaborating a declaration cannot resolve keeps its
    error type and carries the position of the declaration: its
    expression, or column 1 of a field, symmetry or assignment line."""
    _check_positioned(tmp_path, capsys, text, line, col, message, error)


@pytest.mark.parametrize("text, line, col, message, error", [
    (_HEAD + "coordinates x y\nfield q scalar\nsource j scalar = y * dx0\n"
     "lagrangian q * q * vol\n", 6, 19, "external source 'j' is not closed (d j != 0)",
     VarcalcError),
    (_HEAD + "field q scalar\nfield q scalar\nlagrangian q * q * vol\n", 5, 1,
     "duplicate component 'q'", VarcalcError),
    (_HEAD + "field q scalar\nlagrangian tr(q) * vol\n", 5, 12, "tr of a scalar",
     GradingMismatch),
    (_HEAD + "structure g su2\nfield q scalar\nlagrangian 0\n"
     "symmetry s param e scalar lie g\n  q = e\n", 8, 7,
     "assignment to 'q' has Lie indices ('g',), expected ()", GradingError),
    (_HEAD + "jet_cutoff 0\nfield q scalar\nlagrangian d(q) ∧ star(d(q))\n", 6, 12,
     "jet order 1 exceeds cutoff 0", JetCutoffExceeded),
    (_HEAD + "field q scalar\nlagrangian q * dx0\n", 5, 12,
     "lagrangian must be a (0, 2) form, got (0,1)", GradingError),
    (_HEAD + "constant m\nconstant m\nfield q scalar\nlagrangian m * q * vol\n", 5, 1,
     "duplicate component 'm'", VarcalcError),
    (_HEAD + "constant m m\n", 4, 1, "duplicate component 'm'", VarcalcError),
    (_HEAD + "coordinates t x\nconstant x\n", 5, 1, "duplicate component 'x'",
     VarcalcError),
    (_HEAD + "function V\nfunction V arity 2\nfield q scalar\n"
     "lagrangian V(q) * vol\n", 5, 1, "duplicate function symbol 'V'", VarcalcError),
    ("theory t\ndimension 2\nmetric 1/2 0 / 0 2\n", 3, 1,
     "metric must be 2 x 2 ('/' separates rows, so an entry such as 1/2 must be "
     "written as a decimal)", SyntaxError_),
], ids=["open_source", "duplicate_field", "tr_scalar", "lie_indices", "jet_cutoff",
        "lagrangian_bidegree", "duplicate_constant", "duplicate_constant_one_line",
        "constant_named_as_coordinate", "duplicate_function", "metric_fraction"])
def test_elaboration_error_is_positioned(tmp_path, capsys, text, line, col, message,
                                         error):
    """Any error raised while a declaration is read or elaborated carries
    that declaration's position, and keeps its type."""
    from varcalc.theory import theory_from_text
    with pytest.raises(VarcalcError) as e:
        theory_from_text(text)
    assert type(e.value) is error
    _check_positioned(tmp_path, capsys, text, line, col, message, error)


def test_arity_zero_stays_legal():
    """A function of no arguments is a constant symbol: V() elaborates."""
    from varcalc.theory import theory_from_text
    T = theory_from_text(_HEAD + "function V arity 0\nfield q scalar\n"
                         "lagrangian V() * q * q * vol\n")
    assert render_text(T.L) == "q * q * V() ∧ dx0 ∧ dx1"


def test_jet_cutoff_zero_is_honoured():
    from varcalc.theory import theory_from_text
    T = theory_from_text(_HEAD + "jet_cutoff 0\nfield q scalar\nlagrangian q * q * vol\n")
    assert T.chart.jet_cutoff == 0


@pytest.mark.parametrize("name", [
    "point_particle", "scalar_field", "scalar_field_null", "maxwell", "maxwell_sourced",
    "maxwell_first_order", "yang_mills_su2", "chern_simons_su2", "bf_abelian_4d"])
def test_each_expression_is_parsed_once(monkeypatch, name):
    from importlib import resources
    from varcalc import dsl, theory
    from varcalc.theory import theory_from_text
    text = resources.files("varcalc.theories").joinpath(name + ".thy").read_text(
        encoding="utf-8")
    parsed = []

    def counting(source, line_no=1, col=1):
        parsed.append(line_no)
        return parse_expression(source, line_no, col)

    for module in (dsl, theory):
        monkeypatch.setattr(module, "parse_expression", counting, raising=False)
    theory_from_text(text)
    expressions = [no for no, ln in enumerate(text.splitlines(), 1)
                   if ln.startswith(("lagrangian", "source", " "))]
    assert sorted(parsed) == expressions


def test_parameter_family_has_no_collective_value(tmp_path, capsys):
    from varcalc.cli import main
    path = tmp_path / "family.thy"
    path.write_text(_HEAD + "field q scalar\nlagrangian 1/2 * d(q) ∧ star(d(q))\n"
                    "symmetry s param e components 2\n  q = e\n", encoding="utf-8")
    assert main(["noether", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}:7:7: parameter family 'e' has no collective value; use its "
        "components e0..\n")
