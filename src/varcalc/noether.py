"""Homotopy Noether currents, dual-current decompositions, and the
verification catalog of conservation identities."""

from __future__ import annotations

from dataclasses import dataclass

from .chart import (
    NonlinearParameter, NotASymmetry, NotLocal, OnShellResidual,
    ResidualNonzero, VarcalcError,
)
from .algebra import (
    LocalForm, d_h, d_v, midx_zero, relabel, substitute, transport, zero_star,
)
from .euler import insert, interior_euler, lie_derivative
from .homotopy import get_suite
from .theory import SymmetryAction, Theory, per_symmetry
from .render import render_text


@dataclass(frozen=True)
class NoetherData:
    S: LocalForm            # external 0-current (parameter-linear)
    J: LocalForm            # Noether current (0, n-1)
    C: LocalForm            # constraint current
    K: LocalForm            # flux 2-current (0, n-2)
    j: LocalForm            # external current with S = d j
    s: LocalForm            # source part of S


@dataclass
class Report:
    name: str
    passed: bool
    detail: str = ""

    def line(self):
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}" + \
            (f"  ({self.detail})" if self.detail and not self.passed else "")


@per_symmetry
def noether_cone(theory: Theory, sym: SymmetryAction):
    """The cone Noether current (S, J) of a symmetry."""
    lrl = lie_derivative(sym.rho, theory.L)
    if not theory.is_symmetry(sym, lrl):
        raise NotASymmetry(f"{sym.name} is not a symmetry of {theory.td.name}")
    suite = theory.suite
    S = zero_star(lrl)
    J = suite.h_zero(lrl) + insert(sym.rho, theory.theta)
    return S, J


@per_symmetry
def flow_remainder(theory: Theory, sym: SymmetryAction):
    """A - d h>=(A), A = i_rho omega + d_v J the flow integrand of a
    symmetry: lemma:flow-density and thm:hamflow-closed both read it, so a
    verify --all takes one h>=(A) per symmetry."""
    _S, J = noether_cone(theory, sym)
    A = insert(sym.rho, theory.omega) + d_v(J)
    return A - d_h(theory.suite.h_horizontal(A))


@per_symmetry
def lie_EL(theory: Theory, sym: SymmetryAction):
    """L_rho(E L): lemma:flow-density and thm:inv-eom both read it."""
    return lie_derivative(sym.rho, theory.EL)


def verify_noether1(theory: Theory, sym: SymmetryAction):
    S, J = noether_cone(theory, sym)
    residual = d_h(J) + S - insert(sym.rho, theory.EL)
    if not residual.is_zero():
        raise ResidualNonzero(
            f"Noether I residual nonzero: {render_text(residual)}", residual)
    return Report("thm:N1 dJ + p*S - i_rho(EL) = 0", True,
                  f"J = {render_text(J)}")


# ---------------------------------------------------------------------------
# parameter promotion (the action Lie algebroid chart)
# ---------------------------------------------------------------------------

def promote_param_linear(form: LocalForm, param_fids):
    """F -> F_check: the parameter jet of each (parameter-linear) term is
    replaced in place by the corresponding vertical leg on the chart where
    the parameter is promoted to a field."""
    chart = form.chart
    pset = set(param_fids)
    for key, c in form.terms.items():
        if sum(a[0] == 'j' and a[1] in pset for a in map(chart.decode, key)) != 1:
            raise NonlinearParameter(
                f"term is not parameter-linear: {render_text(LocalForm(chart, {key: c}))}")

    def leg(a, in_fn):
        return ('v',) + a[1:] if a[0] == 'j' and a[1] in pset and not in_fn else a

    return transport(form, chart.promoted(pset), leg)


def contract_param(form: LocalForm, param_fids, base_chart):
    """The inverse of promotion: replace the unique parameter leg of each
    term by the parameter jet, in place.  Terms without a parameter leg
    are annihilated (the tautological fiber contraction)."""
    pset = set(param_fids)
    chart = form.chart

    def legs(key):
        return sum(a[0] == 'v' and a[1] in pset for a in map(chart.decode, key))

    if any(legs(key) > 1 for key in form.terms):
        raise NonlinearParameter("form is not parameter-linear")

    def jet(a, _in_fn):
        return ('j',) + a[1:] if a[0] == 'v' and a[1] in pset else a

    return transport(form.components(legs), base_chart, jet)


def decompose_dual_current(F: LocalForm, param_fids):
    """F = f + d k for a parameter-linear local map F.

    f = hpar(h>= d F_check + I F_check)   (the interior term at top degree)
    k = -hpar h>= F_check
    """
    chart = F.chart
    n = chart.dim
    Fc = promote_param_linear(F, param_fids)
    suite = get_suite(Fc.chart)
    _p, q = F.grading()
    parts = suite.h_horizontal(d_h(Fc))
    if q == n:
        parts = parts + interior_euler(Fc)
    f = contract_param(parts, param_fids, chart)
    k = -contract_param(suite.h_horizontal(Fc), param_fids, chart)
    resid = F - f - d_h(k)
    if not resid.is_zero():
        raise ResidualNonzero("dual-current decomposition failed to close", resid)
    return f, k


@per_symmetry
def noether2(theory: Theory, sym: SymmetryAction) -> NoetherData:
    """J = C + dK and S = s + dj, with the constraint current equal to the
    external current on shell.

    The engine's rederived on-shell law is C|_EL = -j: with the exact
    conventions dJ = -p*S + i_rho(EL) and J = C + dK, the constraint
    current takes the value -j on shell (the opposite sign appears in the
    source text next to a known stray sign; consistency of J = C + dK
    forces this one).
    """
    if not sym.is_local:
        raise NotLocal(f"{sym.name} is not a local symmetry")
    S, J = noether_cone(theory, sym)
    pf = sym.param_fids()
    C, K = decompose_dual_current(J, pf)
    s, j = decompose_dual_current(S, pf)
    onshell = theory.reduce_on_shell(C + j)
    if not onshell.is_zero():
        raise OnShellResidual(
            f"C + j does not vanish on shell: {render_text(onshell)}")
    return NoetherData(S=S, J=J, C=C, K=K, j=j, s=s)


@per_symmetry
def twin_constraint(theory: Theory, sym: SymmetryAction):
    """(C_eta, L_rho C_eta), C_eta the relabelling xi -> eta of the
    constraint current (notes/decisions.md §32): lem:inv-C and thm:jext=0
    both read it."""
    C_e = relabel(noether2(theory, sym).C, theory.chart, sym.twin_fids())
    return C_e, lie_derivative(sym.rho, C_e)


# ---------------------------------------------------------------------------
# bracket substitution on the twin parameter
# ---------------------------------------------------------------------------

def bracket_bindings(sym: SymmetryAction, chart, fids=None):
    """Bindings on ``chart`` substituting the twin parameter eta by
    [xi, eta] (with the engine's internal bracket), turning X_eta into
    X_{[xi,eta]}; ``fids`` carries the theory chart's fids to ``chart``'s
    when the two differ."""
    tw = sym.twin_fids()
    xi = {p: fids[p] if fids else p for p in tw}
    eta = {p: fids[q] if fids else q for p, q in tw.items()}
    z = midx_zero(chart.dim)
    br = sym.bracket(chart, xi, eta)
    return {(eta[p], z): br.get(p, LocalForm(chart)) for p in sym.param_fids()}


# ---------------------------------------------------------------------------
# identity catalog
# ---------------------------------------------------------------------------

IDENTITY_NAMES = (
    "thm:dbom", "thm:N1", "lemma:flow-density", "cor:equi-dJ",
    "lem:inv-C", "thm:inv-eom", "thm:hamflow-closed", "thm:jext=0",
)


def verify_identity(theory: Theory, sym_name, ident) -> Report:
    suite = theory.suite
    sym = theory.symmetry(sym_name) if sym_name else None

    if ident == "thm:dbom":
        residual = d_h(theory.omega) - d_v(theory.EL)
        return _residual_report(ident, residual)

    if ident == "thm:N1":
        return verify_noether1(theory, sym)

    if ident == "lemma:flow-density":
        residual = flow_remainder(theory, sym) + suite.h_horizontal(lie_EL(theory, sym))
        return _residual_report(ident, residual)

    if ident == "thm:inv-eom":
        residual = theory.reduce_on_shell(lie_EL(theory, sym))
        return _residual_report(ident + " (on shell)", residual)

    if ident == "thm:hamflow-closed":
        residual = theory.reduce_on_shell(flow_remainder(theory, sym))
        return _residual_report(ident + " (integrand, on shell)", residual)

    if ident == "cor:equi-dJ":
        if not sym.is_local:
            raise NotLocal("cor:equi-dJ requires a local symmetry")
        # the twin current is the relabelling xi -> eta (notes/decisions.md §32);
        # L_rho d_h J_eta = d_h L_rho J_eta, as [L_rho, d_h] = 0 (§33)
        tw = sym.twin_fids()
        S_e, J_e = (relabel(f, theory.chart, tw) for f in noether_cone(theory, sym))
        bb = bracket_bindings(sym, theory.chart)
        residual = d_h(lie_derivative(sym.rho, J_e) - substitute(J_e, bb)) \
            - substitute(S_e, bb)
        return _residual_report(ident, residual)

    if ident == "lem:inv-C":
        residual = theory.reduce_on_shell(twin_constraint(theory, sym)[1])
        return _residual_report(ident + " (on shell)", residual)

    if ident == "thm:jext=0":
        if not sym.is_local:
            raise NotLocal("thm:jext=0 requires a local symmetry")
        C_e, lie_C_e = twin_constraint(theory, sym)
        j_e = relabel(noether2(theory, sym).j, theory.chart, sym.twin_fids())
        bb = bracket_bindings(sym, theory.chart)
        # equivariance of C (checked, reported)
        eq = lie_C_e - substitute(C_e, bb)
        eq_exact = eq.is_zero()
        eq_onshell = eq_exact or theory.reduce_on_shell(eq).is_zero()
        j_br = substitute(j_e, bb)
        if not j_br.is_zero():
            return Report(ident, False,
                          f"j on a commutator is nonzero: {render_text(j_br)}")
        detail = "C equivariant exactly" if eq_exact else (
            "C equivariant on shell" if eq_onshell else
            "C not equivariant (reported, hypothesis fails)")
        return Report(ident + " j([G,G]) = 0", True, detail)

    raise VarcalcError(f"unknown identity {ident!r}")


def _residual_report(name, residual):
    if residual.is_zero():
        return Report(name, True)
    raise ResidualNonzero(
        f"{name}: residual = {render_text(residual)}", residual)
