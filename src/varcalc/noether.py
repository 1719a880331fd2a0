"""Homotopy Noether currents, dual-current decompositions, and the
verification catalog of conservation identities."""

from __future__ import annotations

from dataclasses import dataclass

from .chart import (
    NonlinearParameter, NotASymmetry, NotLocal, OnShellResidual,
    ResidualNonzero, VarcalcError,
)
from .algebra import (
    LocalForm, d_h, d_v, midx_zero, substitute, zero_star,
)
from .euler import EvolutionaryField, insert, interior_euler, lie_derivative
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


def contract_param(form: LocalForm, param_fids, base_chart):
    """The inverse of promotion: replace the unique parameter leg of each
    term by the parameter jet, in place.  Terms without a parameter leg
    are annihilated (the tautological fiber contraction)."""
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


# ---------------------------------------------------------------------------
# twin parameters and bracket substitution
# ---------------------------------------------------------------------------

@per_symmetry
def twin_symmetry(theory: Theory, sym: SymmetryAction) -> SymmetryAction:
    """The same action read through the auxiliary twin parameter copy."""
    chart = theory.chart
    bindings = {}
    twin_fids = {}
    for g in sym.param_groups:
        tg = theory.ctx.groups[g.name + "__b"]
        for key, fid in g.comps.items():
            tfid = tg.comps[key]
            bindings[(fid, midx_zero(chart.dim))] = LocalForm.from_word(
                chart, (('j', tfid, midx_zero(chart.dim)),))
            twin_fids[fid] = tfid
    comps = {fid: substitute(f, bindings) for fid, f in sym.rho.components.items()}
    twin = SymmetryAction.__new__(SymmetryAction)
    twin.theory = theory
    twin.name = sym.name + "__b"
    twin.param_groups = [theory.ctx.groups[g.name + "__b"] for g in sym.param_groups]
    twin.rho = EvolutionaryField(chart, comps, name=twin.name)
    twin.structure = sym.structure
    twin.is_local = sym.is_local
    return twin


def bracket_bindings(theory: Theory, sym: SymmetryAction, twin: SymmetryAction):
    """Bindings substituting the twin parameter by [xi, eta] (with the
    engine's internal bracket), turning X_eta into X_{[xi,eta]}."""
    chart = theory.chart
    z = midx_zero(chart.dim)
    out = {(tfid, z): LocalForm(chart) for tfid in twin.param_fids()}
    for tfid, fa, fb, coeff in sym.bracket_terms(twin):
        out[(tfid, z)]._accum((('j', fa, z), ('j', fb, z)), coeff)
    return out


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
        _S, J = noether_cone(theory, sym)
        A = insert(sym.rho, theory.omega) + d_v(J)
        lel = lie_derivative(sym.rho, theory.EL)
        residual = A - d_h(suite.h_horizontal(A)) + suite.h_horizontal(lel)
        return _residual_report(ident, residual)

    if ident == "thm:inv-eom":
        residual = theory.reduce_on_shell(lie_derivative(sym.rho, theory.EL))
        return _residual_report(ident + " (on shell)", residual)

    if ident == "thm:hamflow-closed":
        _S, J = noether_cone(theory, sym)
        A = insert(sym.rho, theory.omega) + d_v(J)
        residual = theory.reduce_on_shell(A - d_h(suite.h_horizontal(A)))
        return _residual_report(ident + " (integrand, on shell)", residual)

    if ident == "cor:equi-dJ":
        if not sym.is_local:
            raise NotLocal("cor:equi-dJ requires a local symmetry")
        twin = twin_symmetry(theory, sym)
        S_e, J_e = noether_cone(theory, twin)
        dJ_e = d_h(J_e)
        lhs = lie_derivative(sym.rho, dJ_e)
        bb = bracket_bindings(theory, sym, twin)
        S_b = substitute(S_e, bb)
        J_b = substitute(J_e, bb)
        residual = lhs - d_h(J_b) - S_b
        return _residual_report(ident, residual)

    if ident == "lem:inv-C":
        twin = twin_symmetry(theory, sym)
        data = noether2(theory, twin)
        residual = theory.reduce_on_shell(lie_derivative(sym.rho, data.C))
        return _residual_report(ident + " (on shell)", residual)

    if ident == "thm:jext=0":
        if not sym.is_local:
            raise NotLocal("thm:jext=0 requires a local symmetry")
        twin = twin_symmetry(theory, sym)
        data = noether2(theory, twin)
        bb = bracket_bindings(theory, sym, twin)
        # equivariance of C (checked, reported)
        lc = lie_derivative(sym.rho, data.C)
        c_br = substitute(data.C, bb)
        eq = lc - c_br
        eq_exact = eq.is_zero()
        eq_onshell = eq_exact or theory.reduce_on_shell(eq).is_zero()
        j_br = substitute(data.j, bb)
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
