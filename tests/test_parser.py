"""Theory-file front end: grammar, diagnostics, elaboration, rendering."""

import json

import pytest

from varcalc.dsl import (
    ElabContext, GradingMismatch, SyntaxError_, UndeclaredIdentifier, build_context,
    elaborate_form, parse_expression, parse_theory,
)
from varcalc.chart import VarcalcError
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
        elaborate_form(ctx, td.lagrangian, td.lagrangian_line)


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
], ids=["dimension", "form", "theory", "orientation", "jet_cutoff", "arity", "ghost",
        "components", "param_components", "lagrangian", "metric", "signature"])
def test_malformed_operand_is_a_positioned_syntax_error(tmp_path, capsys, text, line,
                                                        message):
    from varcalc.cli import main
    from varcalc.theory import theory_from_text
    with pytest.raises(SyntaxError_) as e:
        theory_from_text(text)
    assert e.value.line == line
    path = tmp_path / "bad.thy"
    path.write_text(text, encoding="utf-8")
    assert main(["el", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:{line}:1: {message}\n"


def test_parameter_family_has_no_collective_value(tmp_path, capsys):
    from varcalc.cli import main
    path = tmp_path / "family.thy"
    path.write_text(_HEAD + "field q scalar\nlagrangian 1/2 * d(q) ∧ star(d(q))\n"
                    "symmetry s param e components 2\n  q = e\n", encoding="utf-8")
    assert main(["noether", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: parameter family 'e' has no collective value; use its components e0..\n")
