"""Exactness decided by the h0 primitive: on a top form B the residual
B - d h0 B is P0 B, so the master equations and Lagrangian equivalence
read their verdicts off it.  The P0 route of the earlier engine is kept
below, verbatim, as the oracle."""

import copy
from importlib import resources

import pytest

from varcalc.algebra import LocalForm, d_h, d_v, zero_star
from varcalc.bv import (
    bfv_extend, bv_bracket, bv_extend, hamiltonian_vector_field,
    verify_bfv_cme, verify_cme,
)
from varcalc.chart import (
    ChartMismatch, CMEFails, GradingError, InvariantViolation, VarcalcError,
)
from varcalc.noether import Report, decompose_dual_current
from varcalc.render import form_json, render_text
from varcalc.slicing import SliceSpec, restrict_to_slice
from varcalc.theory import theory_from_text
from conftest import load_theory
from test_bv import BFV_PAIRS, BV_PAIRS, _cme_breaking_lagrangian

THEORIES = sorted(p.name[:-4] for p in resources.files("varcalc.theories").iterdir()
                  if p.name.endswith(".thy"))


def _parent_verify_cme(bv):
    B = bv_bracket(bv.Q, bv.Q, bv.omega_BV)
    suite = bv.suite
    if B.is_zero():
        return Report("densitised CME", True, "{L,L} = 0"), B
    PB = suite.euler_projector0(B)
    if not PB.is_zero():
        raise CMEFails("classical master equation fails: P0({L,L}) = "
                       + render_text(PB), PB)
    prim = suite.h_zero(B)
    if not (d_h(prim) - B).is_zero():
        raise CMEFails("CME primitive failed to close", B)
    return Report("densitised CME", True,
                  "{L,L} = d(" + render_text(prim)[:80] + ")"), prim


def _parent_verify_bfv_cme(bfv):
    B = bv_bracket(bfv.Q, bfv.Q, bfv.omega_BFV)
    if B.is_zero():
        return Report("BFV master equation", True, "{L,L} = 0")
    PB = bfv.suite.euler_projector0(B)
    if not PB.is_zero():
        raise CMEFails("BFV master equation fails", PB)
    return Report("BFV master equation", True, "{L,L} d-exact")


def _parent_lagrangians_equivalent(self, other):
    diff = other.L - self.L
    same = (other.EL - self.EL).is_zero()
    same_p = (self.suite.euler_projector(other.L)
              - self.suite.euler_projector(self.L)).is_zero()
    if same != same_p:
        raise InvariantViolation("E and P disagree on Lagrangian equivalence")
    if not same:
        return False, None
    const = zero_star(diff)
    primitive = self.suite.h_zero(diff)
    resid = diff - const - d_h(primitive)
    if not resid.is_zero():
        raise InvariantViolation("equivalence witness failed to close")
    return True, (const, primitive)


def _outcome(fn, *args):
    """(result, None) or (None, (exception type, message, residual))."""
    try:
        return fn(*args), None
    except VarcalcError as e:
        return None, (type(e), str(e), getattr(e, "residual", None))


def _same(a, b):
    if isinstance(a, LocalForm):
        return isinstance(b, LocalForm) and (a - b).is_zero()
    if isinstance(a, tuple):
        return type(a) is type(b) and len(a) == len(b) and \
            all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _negative_control(maxwell):
    bv = bv_extend(maxwell, maxwell.symmetry("gauge"))
    bad = copy.copy(bv)
    bad.Q = hamiltonian_vector_field(_cme_breaking_lagrangian(bv), bv.omega_BV)
    return bad


@pytest.mark.parametrize("name,sym", [("maxwell", "gauge"),
                                      ("yang_mills_su2", "gauge"),
                                      ("bf_abelian_4d", "gaugeA"), (None, None)],
                         ids=["maxwell", "yang_mills_su2", "bf_abelian_4d",
                              "negative_control"])
def test_residual_is_the_projection(name, sym):
    if name is None:
        bv = _negative_control(load_theory("maxwell"))
    else:
        T = load_theory(name)
        bv = bv_extend(T, T.symmetry(sym))
    B = bv_bracket(bv.Q, bv.Q, bv.omega_BV)
    assert not B.is_zero()
    P0 = bv.suite.euler_projector0(B)
    assert (B - d_h(bv.suite.h_zero(B)) - P0).is_zero()
    assert P0.is_zero() == (name is not None)


def test_negative_control_message_and_residual(maxwell):
    bad = _negative_control(maxwell)
    _res, want = _outcome(_parent_verify_cme, bad)
    _res, got = _outcome(verify_cme, bad)
    assert want is not None and got is not None
    assert got[0] is want[0] is CMEFails
    assert got[1] == want[1]
    assert got[1].startswith("classical master equation fails: P0({L,L}) = ")
    assert (got[2] - want[2]).is_zero()


@pytest.mark.parametrize("name,sym", BV_PAIRS)
def test_verify_cme_matches_parent(name, sym):
    T = load_theory(name)
    bv = bv_extend(T, T.symmetry(sym))
    want, werr = _outcome(_parent_verify_cme, bv)
    got, gerr = _outcome(verify_cme, bv)
    assert _same(got, want) and _same(gerr, werr)
    assert got[0].line() == want[0].line()


@pytest.mark.parametrize("name,sym", BFV_PAIRS)
def test_verify_bfv_cme_matches_parent(name, sym):
    T = load_theory(name)
    bfv = bfv_extend(restrict_to_slice(T, SliceSpec(transverse=0)), T.symmetry(sym))
    want, werr = _outcome(_parent_verify_bfv_cme, bfv)
    got, gerr = _outcome(verify_bfv_cme, bfv)
    assert werr is None and gerr is None
    assert got.line() == want.line()


def _variants(name):
    """The bundled theory, the same Lagrangian plus a constant density
    (equivalent) and twice it (not equivalent)."""
    text = resources.files("varcalc.theories").joinpath(name + ".thy").read_text()
    lines = text.splitlines()
    i = next(k for k, ln in enumerate(lines) if ln.startswith("lagrangian "))
    expr = lines[i][len("lagrangian "):]
    vol = "dx0" if name == "point_particle" else "star(1)"
    out = []
    for new in (expr + " + 3 * " + vol, "2 * (" + expr + ")"):
        lines[i] = "lagrangian " + new
        out.append(theory_from_text("\n".join(lines) + "\n"))
    return out


@pytest.mark.parametrize("name", THEORIES)
def test_lagrangians_equivalent_matches_parent(name):
    T = load_theory(name)
    plus_const, doubled = _variants(name)
    for other, expect in ((T, True), (plus_const, True), (doubled, False)):
        want, werr = _outcome(_parent_lagrangians_equivalent, T, other)
        got, gerr = _outcome(T.lagrangians_equivalent, other)
        assert werr is None and gerr is None
        assert want[0] is got[0] is expect
        assert _same(got, want)


@pytest.mark.parametrize("name", THEORIES)
def test_projection_is_vertical_homotopy_of_el(name):
    T = load_theory(name)
    assert (T.Lh - T.suite.euler_projector(T.L)).is_zero()


@pytest.mark.parametrize("name", THEORIES)
def test_d_omega_is_dv_el(name):
    """d omega = dv E L.  Theory checks only dv L = E L + d theta, which
    implies it by d dv + dv d = 0 and dv dv = 0 (notes/decisions.md §19)."""
    T = load_theory(name)
    assert d_h(T.omega) == d_v(T.EL)


ZERO_THEORY = "theory z\ndimension 2\nsignature + -\nfield phi scalar\nlagrangian 0\n"


def test_zero_lagrangian_restricts_to_an_empty_slice():
    sig = restrict_to_slice(theory_from_text(ZERO_THEORY), SliceSpec(transverse=0))
    assert sig.theta_sigma.is_zero() and sig.omega_sigma.is_zero()
    assert sig.theta_sigma.chart is sig.schart
    assert sig.momenta == {} and sig.dt_fields == {} and sig.dt_solves == {}
    assert sig.pairing == {} and sig.surviving == set()


def test_zero_dual_current_decomposes_to_zero(maxwell):
    ch = maxwell.chart
    f, k = decompose_dual_current(LocalForm.zero(ch),
                                  maxwell.symmetry("gauge").param_fids())
    assert f.is_zero() and k.is_zero()
    assert f.chart is ch and k.chart is ch


def test_zero_form_json():
    ch = theory_from_text(ZERO_THEORY).chart
    assert form_json(LocalForm.zero(ch)) == {
        "grading": {"vertical": 0, "horizontal": 0, "ghost": 0},
        "text": "0", "terms": []}


def test_equivalence_across_dimensions_is_a_chart_mismatch():
    """The parent code failed here only through the grading of the other
    Lagrangian; the chart comparison now names the difference first."""
    T, other = load_theory("maxwell"), load_theory("chern_simons_su2")
    _res, want = _outcome(_parent_lagrangians_equivalent, T, other)
    _res, got = _outcome(T.lagrangians_equivalent, other)
    assert want == (GradingError, "Euler projector acts on (0, top) forms", None)
    assert got == (ChartMismatch, "theories live on different charts: dimension 4 vs 3",
                   None)
