"""Theories, symmetries, and the homotopy Noether machinery."""

from fractions import Fraction

import pytest

from varcalc.chart import (
    ChartMismatch, InvariantViolation, NoFixpoint, NoSolvedForm, NotASymmetry, NotLocal,
    ResidualNonzero, OnShellResidual,
)
from varcalc.algebra import LocalForm, d_h, d_v, midx_zero
from varcalc.dsl import elaborate_form
from varcalc.euler import insert, lie_derivative
from varcalc.homotopy import get_suite
from varcalc.noether import (
    IDENTITY_NAMES, decompose_dual_current, noether2, noether_cone,
    verify_identity, verify_noether1,
)
from varcalc import theory as theory_mod
from varcalc.theory import theory_from_text
from conftest import load_theory


def test_build_theory_caches_and_invariants(scalar_field):
    T = scalar_field
    assert (d_v(T.L) - T.EL - d_h(T.theta)).is_zero()
    assert (d_h(T.omega) - d_v(T.EL)).is_zero()
    # engine convention: theta differs from star(d phi) ^ delta(phi) by the
    # documented orientation of the horizontal differential
    expect = elaborate_form(T.ctx, "star(d(phi)) ∧ delta(phi)")
    assert (T.theta + expect).is_zero()


def test_zero_lagrangian_all_caches_zero():
    T = theory_from_text("theory z\ndimension 2\nsignature + +\n"
                         "field phi scalar\nlagrangian 0\n")
    assert T.L.is_zero() and T.EL.is_zero() and T.theta.is_zero() \
        and T.omega.is_zero() and T.Lh.is_zero()


def test_point_particle_projection(point_particle):
    T = point_particle
    expect = elaborate_form(
        T.ctx,
        "(-1/2*m*(q0_,00*q0 + q1_,00*q1 + q2_,00*q2) - V(q0,q1,q2)"
        " + V(0,0,0)) * dx0")
    assert (T.Lh - expect).is_zero()
    # idempotence through the function-symbol chain
    assert (T.suite.euler_projector(T.Lh) - T.Lh).is_zero()


def test_lagrangians_equivalent():
    base = "theory a\ndimension 1\nsignature +\nconstant m\nfield q scalar\n"
    T1 = theory_from_text(base + "lagrangian 1/2*m*q_,0*q_,0 * dx0\n")
    T2 = theory_from_text(base + "lagrangian 1/2*m*q_,0*q_,0 * dx0 + 3 * dx0\n")
    same, (const, prim) = T1.lagrangians_equivalent(T2)
    assert same
    assert (T2.L - T1.L - const - d_h(prim)).is_zero()
    T3 = theory_from_text(base + "lagrangian 1/2*m*q_,0*q_,0*dx0 + q*q*dx0\n")
    same3, w3 = T1.lagrangians_equivalent(T3)
    assert not same3 and w3 is None


def test_forms_of_two_theories_combine_with_function_atoms():
    # each chart numbers its function atoms in the order it meets them, so
    # one Lagrangian written in two orders is held in different codes
    base = "theory a\ndimension 2\nsignature + +\nfunction V\nfield q scalar\n"
    A = theory_from_text(base + "lagrangian 2 * V'(q) * vol + V(q) * vol\n")
    B = theory_from_text(base + "lagrangian V(q) * vol + 2 * V'(q) * vol\n")
    assert A.L.terms != B.L.terms
    assert (A.L - B.L).is_zero() and (B.L - A.L).is_zero()
    assert A.L == B.L and A.EL == B.EL
    v, w = elaborate_form(A.ctx, "V(q)"), elaborate_form(B.ctx, "V'(q)")
    assert v.wedge(w) == elaborate_form(B.ctx, "V(q) * V'(q)")
    # the witness closes on the difference, whichever theory is asked
    C = theory_from_text(base + "lagrangian V'(q) * q_,0 * vol + V(q) * vol"
                         " + 3 * vol + 2 * V'(q) * vol\n")
    for S, T in ((A, C), (C, A)):
        same, (const, prim) = S.lagrangians_equivalent(T)
        assert same
        assert (T.L - S.L - const - d_h(prim)).is_zero()
        assert not const.is_zero() and not prim.is_zero()


@pytest.mark.parametrize("a, b, difference", [
    ("maxwell", "bf_abelian_4d", "fid 4 holds A0 (dynamic, ghost 0) vs B01 (dynamic, ghost 0)"),
    ("maxwell", "chern_simons_su2", "dimension 4 vs 3"),
    ("maxwell_first_order", "maxwell",
     "fid 4 holds B01 (dynamic, ghost 0) vs A0 (dynamic, ghost 0)"),
    ("maxwell", "point_particle", "dimension 4 vs 1"),
    ("scalar_field", "scalar_field_null", "dimension 2 vs 3"),
])
def test_equivalence_on_different_charts_is_a_typed_error(a, b, difference):
    with pytest.raises(ChartMismatch) as e:
        load_theory(a).lagrangians_equivalent(load_theory(b))
    assert str(e.value) == f"theories live on different charts: {difference}"


@pytest.mark.parametrize("text, difference", [
    ("signature - +\nfield q scalar\n", "metric -1 0 / 0 1 vs 1 0 / 0 1"),
    ("coordinates t x\nsignature + +\nfield q scalar\n", "coordinates t x vs x0 x1"),
    ("signature + +\nfield q scalar ghost 1\n", "fid 2 holds q (dynamic, ghost 1) vs "
     "q (dynamic, ghost 0)"),
    ("signature + +\nconstant q\n", "fid 2 holds q (const, ghost 0) vs "
     "q (dynamic, ghost 0)"),
    ("signature + +\nfield q scalar\nfield p scalar\n",
     "fid 3 holds p (dynamic, ghost 0) vs nothing"),
    ("signature + +\nfunction V\nfield q scalar\n",
     "function 0 is V (arity 1) vs nothing"),
])
def test_chart_mismatch_names_the_first_difference(text, difference):
    head = "theory t\ndimension 2\n"
    base = theory_from_text(head + "signature + +\nfield q scalar\nlagrangian 0\n")
    other = theory_from_text(head + text + "lagrangian 0\n")
    with pytest.raises(ChartMismatch) as e:
        other.lagrangians_equivalent(base)
    assert str(e.value) == f"theories live on different charts: {difference}"


def test_first_order_maxwell_equivalence_witness(first_order_maxwell):
    T = first_order_maxwell
    P = T.suite.euler_projector(T.L)
    diff = P - T.L
    wit = elaborate_form(T.ctx, "d(-1/2 * B ∧ A)")
    assert (diff - wit).is_zero()


def test_is_symmetry(maxwell_sourced, scalar_field):
    assert maxwell_sourced.is_symmetry(maxwell_sourced.symmetry("gauge"))
    assert scalar_field.is_symmetry(scalar_field.symmetry("transl"))
    # phi -> xi*phi on a scalar with potential is not a symmetry
    T = theory_from_text(
        "theory s\ndimension 2\nsignature - +\nfunction V arity 1\n"
        "field phi scalar\n"
        "lagrangian -1/2*d(phi)∧star(d(phi)) + V(phi)*star(1)\n"
        "symmetry scale param xi scalar constant\n  phi = xi * phi\n")
    assert not T.is_symmetry(T.symmetry("scale"))


def test_shift_symmetry_free_scalar():
    T = theory_from_text(
        "theory s\ndimension 2\nsignature - +\nfield phi scalar\n"
        "lagrangian -1/2*d(phi)∧star(d(phi))\n"
        "symmetry shift param xi scalar constant\n  phi = xi\n"
        "solve phi_,00\n")
    sym = T.symmetry("shift")
    assert T.is_symmetry(sym)
    S, J = noether_cone(T, sym)
    assert S.is_zero()
    # engine conventions give the shift current as -star(d phi) xi (the same
    # parameter-reflection that pins the Maxwell current to +star(F) d xi)
    expect = elaborate_form(T.ctx, "star(d(phi)) * xi")
    assert (J + expect).is_zero()
    assert verify_noether1(T, sym).passed
    with pytest.raises(NotLocal):
        noether2(T, sym)


def test_maxwell_cone_current_pins(maxwell_sourced):
    T = maxwell_sourced
    sym = T.symmetry("gauge")
    S, J = noether_cone(T, sym)
    assert (J - elaborate_form(T.ctx, "star(d(A)) ∧ d(xi)")).is_zero()
    # S = d(xi) ^ jext = d(xi * jext); the source renders it jext ^ d(xi)
    # with the opposite wedge ordering (see the decisions ledger)
    assert (S - elaborate_form(T.ctx, "d(xi) ∧ jext")).is_zero()
    assert (S - d_h(elaborate_form(T.ctx, "xi * jext"))).is_zero()
    assert (T.EL - elaborate_form(
        T.ctx, "(d(star(d(A))) - jext) ∧ delta(A)")).is_zero()


def test_noether1_negative_control(maxwell_sourced):
    T = maxwell_sourced
    sym = T.symmetry("gauge")
    S, J = noether_cone(T, sym)
    bad = J + elaborate_form(T.ctx, "A1 * xi * dx1 ∧ dx2 ∧ dx3")
    residual = d_h(bad) + S - insert(sym.rho, T.EL)
    assert not residual.is_zero()


def test_noether2_maxwell(maxwell_sourced):
    T = maxwell_sourced
    data = noether2(T, T.symmetry("gauge"))
    ex = lambda t: elaborate_form(T.ctx, t)
    # J = C + dK with K = star(F) xi and j = xi jext; the constraint current
    # carries the rederived sign C = -(d star F) xi (see ledger)
    assert (data.K - ex("star(d(A)) * xi")).is_zero()
    assert (data.j - ex("xi * jext")).is_zero()
    assert (data.C + ex("d(star(d(A))) * xi")).is_zero()
    assert (data.J - data.C - d_h(data.K)).is_zero()
    assert (data.S - data.s - d_h(data.j)).is_zero()
    assert T.reduce_on_shell(data.C + data.j).is_zero()


def test_noether2_reconstruction_bf(bf4):
    for name in ("gaugeA", "gaugeB"):
        data = noether2(bf4, bf4.symmetry(name))
        assert (data.J - data.C - d_h(data.K)).is_zero()
        assert not data.C.is_zero()


def test_dual_current_trivial_and_reconstruction(maxwell):
    z = LocalForm.zero(maxwell.chart)
    f, k = decompose_dual_current(z, maxwell.symmetry("gauge").param_fids())
    assert f.is_zero() and k.is_zero()
    # F = d(xi) ^ beta with parameter-free beta, below top degree
    beta = elaborate_form(maxwell.ctx, "A1 * dx2")
    F = elaborate_form(maxwell.ctx, "d(xi)").wedge(beta)
    f2, k2 = decompose_dual_current(F, maxwell.symmetry("gauge").param_fids())
    assert (F - f2 - d_h(k2)).is_zero()


def test_promoted_chart_has_its_own_suite(maxwell):
    ch = maxwell.chart
    fids = maxwell.symmetry("gauge").param_fids()
    pro = ch.promoted(fids)
    assert ch.promoted(fids) is pro
    assert get_suite(ch.promoted(fids)).chart is ch.promoted(fids)
    assert get_suite(ch).chart is ch


def test_yang_mills_external_current_vanishes(yang_mills):
    data = noether2(yang_mills, yang_mills.symmetry("gauge"))
    assert data.j.is_zero() and data.S.is_zero()
    rep = verify_identity(yang_mills, "gauge", "thm:jext=0")
    assert rep.passed


def test_identity_catalog_full_corpus():
    from varcalc.chart import NotLocal
    pairs = [("maxwell", "gauge"), ("maxwell_sourced", "gauge"),
             ("maxwell_first_order", "gauge"), ("bf_abelian_4d", "gaugeA"),
             ("bf_abelian_4d", "gaugeB"), ("chern_simons_su2", "gauge"),
             ("yang_mills_su2", "gauge"), ("scalar_field", "transl")]
    for tname, sname in pairs:
        T = load_theory(tname)
        for ident in IDENTITY_NAMES:
            try:
                rep = verify_identity(T, sname, ident)
                assert rep.passed, (tname, sname, ident)
            except NotLocal:
                assert not T.symmetry(sname).is_local


def test_reduce_on_shell(point_particle):
    T = point_particle
    ctx = T.ctx
    expr = elaborate_form(ctx, "m*q0_,00 + V{1,0,0}(q0,q1,q2)")
    assert T.reduce_on_shell(expr).is_zero()
    # a generic expression is left alone
    other = elaborate_form(ctx, "q0 * q1_,0")
    assert (T.reduce_on_shell(other) - other).is_zero()
    # no solved forms declared -> error
    T2 = theory_from_text("theory t\ndimension 1\nsignature +\nfield q scalar\n"
                          "lagrangian 1/2*q_,0*q_,0*dx0\n")
    with pytest.raises(NoSolvedForm):
        T2.reduce_on_shell(elaborate_form(T2.ctx, "q_,00"))


def test_solve_needs_a_named_constant_coefficient():
    """x * phi_,00 is not solved for phi_,00: the coordinate x is not a named
    constant, so inv(x) would neither cancel against x nor commute with D_mu,
    and would not parse back."""
    with pytest.raises(NoSolvedForm):
        theory_from_text("theory xcoef\ndimension 2\ncoordinates t x\n"
                         "signature - +\nfield phi scalar\n"
                         "lagrangian -1/2 * x * d(phi) ∧ star(d(phi))\n"
                         "solve phi_,00\n")


def test_reduce_on_shell_raises_without_fixpoint(maxwell_sourced, monkeypatch):
    # C + j reaches zero in the first round and is confirmed a fixpoint in
    # the second; one round is not enough to certify it
    T = maxwell_sourced
    data = noether2(T, T.symmetry("gauge"))
    form = data.C + data.j
    assert not form.is_zero()
    with monkeypatch.context() as m:
        m.setattr(theory_mod, "MAX_ROUNDS", 1)
        with pytest.raises(NoFixpoint) as info:
            T.reduce_on_shell(form)
    assert info.value.form is not None and info.value.form.is_zero()
    assert "after 1 round(s)" in str(info.value)
    assert T.reduce_on_shell(form).is_zero()


def test_fiber_integral_of_two_applications_varies_each():
    """fint(0; V(l q) * W(l q)) * vol: the product rule under the fiber
    integral gives one fint(1; ...) per differentiated application."""
    T = theory_from_text("theory f\ndimension 2\nsignature + +\nfunction V\n"
                         "function W\nfield q scalar\n"
                         "lagrangian fint(0; V(l q) * W(l q)) * vol\n")
    want = elaborate_form(T.ctx, "(fint(1; V'(l q) * W(l q)) + fint(1; V(l q) * W'(l q)))"
                                 " * delta(q) * vol")
    assert len(want.terms) == 2
    assert T.EL == want


def test_pairing_and_trace_agree_on_su2():
    """The Killing pairing <.,.> and tr read the same su(2) form: the
    Yang-Mills kinetic term written both ways differs by zero."""
    head = ("theory p\ndimension 4\ncoordinates t x y z\nsignature - + + +\n"
            "structure su2 eps\nfield A form 1 lie su2\nlagrangian ")
    pair = theory_from_text(head + "1/2 * <d(A), star(d(A))>\n")
    trace = theory_from_text(head + "1/2 * tr(d(A) * star(d(A)))\n")
    assert not pair.L.is_zero() and pair.L == trace.L
    diff = theory_from_text(
        head + "1/2 * <d(A), star(d(A))> - 1/2 * tr(d(A) * star(d(A)))\n")
    assert diff.EL.is_zero()


def test_trace_distributes_over_signed_and_scaled_summands(chern_simons):
    head = ("theory c\ndimension 3\ncoordinates t x y\nsignature - + +\n"
            "structure su2 eps\nfield A form 1 lie su2\nlagrangian ")
    plus = theory_from_text(head + "tr(A ∧ d(A) + 2/3 * (A ∧ A ∧ A))\n")
    minus = theory_from_text(head + "tr(-(A ∧ d(A)) - 2/3 * (A ∧ A ∧ A))\n")
    assert plus.L == chern_simons.L
    assert minus.EL == -chern_simons.EL and not minus.EL.is_zero()
