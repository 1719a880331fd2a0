"""Kernel identities on forms with function atoms and named constants.

FormGenerator emits polynomial jets only, so the seeded suites never see a
function application V(u_,K), W(u, v), V'(u) or a named constant m, inv(m).
The generator below writes such forms as theory-file expressions and
elaborates them on one chart.  The identities d dv + dv d = 0 and dv dv = 0
are what make Theory's check `d omega = dv E L` redundant
(notes/decisions.md §19); d d = 0 and P d = 0 are the exactness side.

Where an identity fails literally (ROADMAP item 6(b)), its residual is
evaluated instead: V and W get polynomial models, and ``evaluate``
integrates each fiber integral fint(k; ...) exactly in lambda.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from varcalc.algebra import PointAssignment, d_h, d_v, evaluate, iter_midx, zero_star
from varcalc.chart import ResidualNonzero
from varcalc.dsl import build_context, elaborate_form, parse_theory
from varcalc.homotopy import get_suite
from varcalc.noether import verify_noether1
from varcalc.theory import theory_from_text
from conftest import atom_terms

_HEAD = ("theory atoms\ndimension 2\nsignature + +\nconstant m\nfunction V\n"
         "function W arity 2\nfield u0 scalar\nfield u1 scalar\n")
CHART, CTX = build_context(parse_theory(_HEAD))
SUITE = get_suite(CHART)
CASES = 150


def _jet(rng):
    digits = "".join(sorted(rng.choice("01") for _ in range(rng.randint(0, 2))))
    name = rng.choice(("u0", "u1"))
    return f"{name}_,{digits}" if digits else name


def _factor(rng):
    return rng.choice((
        lambda: _jet(rng), lambda: f"V({_jet(rng)})", lambda: f"V'({_jet(rng)})",
        lambda: f"W({_jet(rng)}, {_jet(rng)})", lambda: "m", lambda: "inv(m)"))()


def random_forms(seed, p, q):
    """CASES nonzero (p, q) forms of two terms; p or q None draws it per
    form.  Each term is a rational times one to three factors (jets up to
    order 2, function applications over jets, m, inv(m)), then p legs
    delta(jet) and q distinct dx legs."""
    rng = random.Random(seed)
    out = []
    while len(out) < CASES:
        pp = rng.randint(0, 2) if p is None else p
        qq = rng.randint(0, 2) if q is None else q
        terms = []
        for _ in range(2):
            fs = [f"{rng.randint(-4, 4) or 1}/{rng.randint(1, 3)}"]
            fs += [_factor(rng) for _ in range(rng.randint(1, 3))]
            fs += [f"delta({_jet(rng)})" for _ in range(pp)]
            fs += [f"dx{mu}" for mu in sorted(rng.sample(range(2), qq))]
            terms.append(" * ".join(fs))
        form = elaborate_form(CTX, " + ".join(terms))
        if not form.is_zero():
            out.append(form)
    return out


def test_forms_hold_function_atoms_and_constants():
    words = [key for w in random_forms(0, None, None) for key in atom_terms(w)]
    assert any(a[0] == 'f' for key in words for a in key)
    assert any(a[0] == 'ji' for key in words for a in key)
    assert any(a[0] == 'j' and CHART.component(a[1]).name == "m"
               for key in words for a in key)


@pytest.mark.parametrize("name, p, q, identity", [
    ("d dv + dv d = 0", None, None, lambda w: d_h(d_v(w)) + d_v(d_h(w))),
    ("dv dv = 0", None, None, lambda w: d_v(d_v(w))),
    ("d d = 0", None, None, lambda w: d_h(d_h(w))),
    ("P d = 0", 0, 1, lambda w: SUITE.euler_projector(d_h(w))),
], ids=["d_dv", "dv_dv", "d_d", "P_d"])
def test_kernel_identity_with_function_atoms(name, p, q, identity):
    bad = [w for w in random_forms(1, p, q) if not identity(w).is_zero()]
    assert not bad, (name, len(bad))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6(b): the residual "
                   "alpha - d h0 alpha - P alpha is zero only once its fiber "
                   "integrals are evaluated.  resolve_fiber_integrals runs "
                   "inside h_vertical, not on d h0 alpha, and does no "
                   "integration by parts in lambda (k >= 1).  V(u0_,1) dx0 ∧ dx1 "
                   "leaves V(u0_,1) - V(0) - u0_,1 fint(0; V'(l u0_,1))",
                   raises=AssertionError)
def test_top_form_homotopy_identity_with_function_atoms():
    """alpha = d h0 alpha + P alpha + p*0* alpha on (0, n) forms."""
    bad = [w for w in random_forms(2, 0, 2)
           if not (w - d_h(SUITE.h_zero(w)) - SUITE.euler_projector(w)
                   - zero_star(w)).is_zero()]
    assert not bad, len(bad)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6(b): the Noether I "
                   "residual holds fint(0; V'(l phi_,0)) and fint(1; V''(l "
                   "phi_,0)) terms that cancel only after integration by "
                   "parts in lambda", raises=ResidualNonzero)
def test_noether1_translation_with_function_lagrangian():
    T = theory_from_text(
        "theory fa\ndimension 2\nsignature - +\nfunction V\nfield phi scalar\n"
        "lagrangian V(phi_,0) * star(1)\n"
        "symmetry transl param e scalar constant\n  phi = e * phi_,1\n")
    assert verify_noether1(T, T.symmetry("transl")).passed


# polynomial models: V(a) = 2 - a + 3/2 a^2 + 1/3 a^3, W(a, b) = 1 - 2 ab
# + 1/2 a^2 b + 5 b^3
_MODELS = {1: (((0,), 2), ((1,), -1), ((2,), Fraction(3, 2)), ((3,), Fraction(1, 3))),
           2: (((0, 0), 1), ((1, 1), -2), ((2, 1), Fraction(1, 2)), ((0, 3), 5))}


def _model_functions(monkeypatch, chart):
    monkeypatch.setattr(chart, "functions", [
        dataclasses.replace(fn, model=_MODELS[fn.arity]) for fn in chart.functions])


def _random_point(chart, rng):
    """Nonzero rationals for every jet within the chart's cutoff, and
    dx^mu = 1."""
    jets = {(c.fid, m): Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
            for c in chart.components for k in range(chart.jet_cutoff + 1)
            for m in iter_midx(chart.dim, k)}
    return PointAssignment(chart, jets, hlegs=dict.fromkeys(range(chart.dim), 1))


def test_top_form_homotopy_residual_evaluates_to_zero(monkeypatch):
    """The residual of the identity above, on the forms where it is not
    literally zero, vanishes at random points once V and W are
    polynomials: it is zero as a function."""
    _model_functions(monkeypatch, CHART)
    rng = random.Random(0)
    residuals = [r for r in (w - d_h(SUITE.h_zero(w)) - SUITE.euler_projector(w)
                             - zero_star(w) for w in random_forms(2, 0, 2))
                 if not r.is_zero()]
    assert len(residuals) > 100
    assert any(a[0] == 'F' for r in residuals for key in atom_terms(r) for a in key)
    for r in residuals:
        for _ in range(2):
            assert evaluate(r, _random_point(CHART, rng)) == 0


def test_noether1_residual_with_function_lagrangian_evaluates_to_zero(monkeypatch):
    T = theory_from_text(
        "theory fa\ndimension 2\nsignature - +\nfunction V\nfield phi scalar\n"
        "lagrangian V(phi_,0) * star(1)\n"
        "symmetry transl param e scalar constant\n  phi = e * phi_,1\n")
    with pytest.raises(ResidualNonzero) as err:
        verify_noether1(T, T.symmetry("transl"))
    residual = err.value.residual
    _model_functions(monkeypatch, residual.chart)
    rng = random.Random(0)
    for _ in range(5):
        assert evaluate(residual, _random_point(residual.chart, rng)) == 0
