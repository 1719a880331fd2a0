"""Parameter promotion and contraction as algebra.transport images, against
the word loops they replaced.

The oracle below is the code before the change, verbatim: each moved the
unique parameter jet (or leg) of every term to the other chart with a loop
of its own.  The new functions must give the same terms in the same order,
with exact coefficients, on J and S of every local symmetry of the bundled
theories and on the h>= images that decompose_dual_current contracts.
"""

import pytest

from varcalc.algebra import LocalForm, d_h, midx_zero
from varcalc.chart import NonlinearParameter
from varcalc.dsl import elaborate_form
from varcalc.euler import interior_euler
from varcalc.homotopy import get_suite
from varcalc.noether import contract_param, noether_cone, promote_param_linear
from varcalc.render import render_text
from varcalc.theory import theory_from_text
from conftest import assert_exact, load_theory


# ---------------------------------------------------------------------------
# the oracle: the two loops before the change, verbatim
# ---------------------------------------------------------------------------

def oracle_promote_param_linear(form: LocalForm, param_fids):
    chart = form.chart
    pset = set(param_fids)
    pro = chart.promoted(param_fids)
    out = LocalForm(pro)
    for key, c in form.terms.items():
        hits = [i for i, a in enumerate(key)
                if a[0] == 'j' and a[1] in pset]
        if len(hits) != 1:
            raise NonlinearParameter(
                f"term is not parameter-linear: {render_text(LocalForm(chart, {key: c}))}")
        i = hits[0]
        word = key[:i] + (('v', key[i][1], key[i][2]),) + key[i + 1:]
        out._accum(word, c)
    return out


def oracle_contract_param(form: LocalForm, param_fids, base_chart):
    pset = set(param_fids)
    out = LocalForm(base_chart)
    for key, c in form.terms.items():
        hits = [i for i, a in enumerate(key)
                if a[0] == 'v' and a[1] in pset]
        if not hits:
            continue
        if len(hits) > 1:
            raise NonlinearParameter("form is not parameter-linear")
        i = hits[0]
        word = key[:i] + (('j', key[i][1], key[i][2]),) + key[i + 1:]
        out._accum(word, c)
    return out


# ---------------------------------------------------------------------------

LOCAL_SYMMETRIES = [("bf_abelian_4d", "gaugeA"), ("bf_abelian_4d", "gaugeB"),
                    ("chern_simons_su2", "gauge"), ("maxwell", "gauge"),
                    ("maxwell_first_order", "gauge"), ("maxwell_sourced", "gauge"),
                    ("yang_mills_su2", "gauge")]


def same(new, old):
    assert new.chart is old.chart
    assert list(new.terms.items()) == list(old.terms.items())
    assert_exact(new)


def test_every_bundled_local_symmetry_is_listed():
    from importlib import resources
    names = sorted(p.name[:-4] for p in resources.files("varcalc.theories").iterdir()
                   if p.name.endswith(".thy"))
    listed = [(n, s) for n in names for s, a in load_theory(n).symmetries.items()
              if a.is_local]
    assert listed == LOCAL_SYMMETRIES


@pytest.mark.parametrize("name, sym_name", LOCAL_SYMMETRIES)
def test_promotion_and_contraction_match_the_loops(name, sym_name):
    T = load_theory(name)
    sym = T.symmetry(sym_name)
    pf = sym.param_fids()
    S, J = noether_cone(T, sym)
    images = []
    for F in (J, S):
        Fc = promote_param_linear(F, pf)
        same(Fc, oracle_promote_param_linear(F, pf))
        suite = get_suite(Fc.chart)
        parts = suite.h_horizontal(d_h(Fc))
        if F.grading()[1] == T.chart.dim:
            parts = parts + interior_euler(Fc)
        images += [parts, suite.h_horizontal(Fc)]
    assert not J.is_zero() and any(not image.is_zero() for image in images)
    for image in images:
        same(contract_param(image, pf, T.chart),
             oracle_contract_param(image, pf, T.chart))


def _chart_with_function():
    """A chart with a parameter jet inside a function argument."""
    return theory_from_text(
        "theory t\ndimension 2\nsignature + +\nfunction V arity 1\n"
        "field q scalar\nlagrangian 1/2 * d(q) ∧ star(d(q))\n"
        "symmetry s param e scalar\n  q = d(e) ∧ star(dx0)\n")


def test_parameter_jets_inside_functions_stay_jets():
    T = _chart_with_function()
    pf = T.symmetry("s").param_fids()
    F = elaborate_form(T.ctx, "V(e) * e_,1 * q * dx0 - 3 * V(q) * e * dx1")
    Fc = promote_param_linear(F, pf)
    same(Fc, oracle_promote_param_linear(F, pf))
    # a term without a parameter leg is annihilated
    q = T.chart.by_name("q").fid
    G = Fc + LocalForm.from_word(Fc.chart, (('v', q, midx_zero(2)), ('h', 0)))
    same(contract_param(G, pf, T.chart), oracle_contract_param(G, pf, T.chart))
    assert contract_param(G, pf, T.chart) == F


def test_quadratic_term_is_not_parameter_linear(maxwell):
    pf = maxwell.symmetry("gauge").param_fids()
    F = elaborate_form(maxwell.ctx, "xi * xi_,1 * dx0 ∧ dx2 ∧ dx3")
    for promote in (promote_param_linear, oracle_promote_param_linear):
        with pytest.raises(NonlinearParameter, match="term is not parameter-linear"):
            promote(F, pf)


def test_two_parameter_legs_are_not_parameter_linear(maxwell):
    pf = maxwell.symmetry("gauge").param_fids()
    chart = maxwell.chart.promoted(pf)
    z = midx_zero(chart.dim)
    xi = pf[0]
    F = LocalForm.from_word(chart, (('v', xi, z), ('v', xi, (1, 0, 0, 0)), ('h', 1)))
    assert not F.is_zero()
    for contract in (contract_param, oracle_contract_param):
        with pytest.raises(NonlinearParameter, match="form is not parameter-linear"):
            contract(F, pf, maxwell.chart)
