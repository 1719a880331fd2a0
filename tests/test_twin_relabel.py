"""The twin parameter eta as a relabelling of xi.

The bracket identities (cor:equi-dJ, lem:inv-C, thm:jext=0) and the CE
cocycle compare the current of xi with the current of a second parameter
eta.  The engine reads every eta-quantity as the relabelling xi -> eta of
its xi-quantity (``SymmetryAction.twin_fids``, ``algebra.relabel``).  The
oracle here is the former construction, kept verbatim: a second
``SymmetryAction`` on the twin parameter groups, whose currents are built
from scratch.  Both must give equal term dicts on every bundled (theory,
symmetry) pair.
"""

import dataclasses
from importlib import resources

import pytest

from varcalc.algebra import LocalForm, midx_zero, relabel, substitute
from varcalc.bv import BVTheory
from varcalc.chart import VarcalcError
from varcalc.dsl import elaborate_form
from varcalc.euler import EvolutionaryField
from varcalc.noether import (IDENTITY_NAMES, NoetherData, noether2, noether_cone,
                             verify_identity)
from varcalc.slicing import SliceSpec, restrict_to_slice, sigma_noether
from varcalc.theory import SymmetryAction, theory_from_text
from conftest import load_theory


def twin_symmetry(theory, sym):
    """The same action read through the auxiliary twin parameter copy."""
    chart = theory.chart
    z = midx_zero(chart.dim)
    twins = [theory.ctx.groups[g.name + "__b"] for g in sym.param_groups]
    bindings = {(fid, z): LocalForm.from_word(chart, (('j', tg.comps[key], z),))
                for g, tg in zip(sym.param_groups, twins)
                for key, fid in g.comps.items()}
    comps = {fid: substitute(f, bindings) for fid, f in sym.rho.components.items()}
    name = sym.name + "__b"
    return SymmetryAction(theory, name, twins,
                          EvolutionaryField(chart, comps, name=name), sym.structure)


PAIRS = [
    ("bf_abelian_4d", "gaugeA"), ("bf_abelian_4d", "gaugeB"),
    ("chern_simons_su2", "gauge"), ("maxwell", "gauge"),
    ("maxwell_first_order", "gauge"), ("maxwell_sourced", "gauge"),
    ("scalar_field", "transl"), ("yang_mills_su2", "gauge"),
]


@pytest.mark.parametrize("name, sname", PAIRS)
def test_relabelled_currents_match_the_twin_action(name, sname):
    T = load_theory(name)
    sym = T.symmetry(sname)
    old = twin_symmetry(T, sym)
    tw = sym.twin_fids()
    assert sorted(tw.values()) == old.param_fids()
    for new_f, old_f in zip(noether_cone(T, sym), noether_cone.__wrapped__(T, old)):
        assert relabel(new_f, T.chart, tw).terms == old_f.terms
    if sym.is_local:
        data, raw = noether2(T, sym), noether2.__wrapped__(T, old)
        for f in dataclasses.fields(NoetherData):
            assert relabel(getattr(data, f.name), T.chart, tw).terms == \
                getattr(raw, f.name).terms, f.name
    restricted = 0
    for t in range(T.chart.dim):
        try:
            sigma = restrict_to_slice(T, SliceSpec(transverse=t))
        except VarcalcError:
            continue
        restricted += 1
        tw_s = {sigma.b2s[p]: sigma.b2s[q] for p, q in tw.items()}
        H = relabel(sigma_noether(sigma, sym), sigma.schart, tw_s)
        assert H.terms == sigma_noether(sigma, old).terms, t
    assert restricted


def test_no_twin_is_memoized_after_verify_all():
    T = theory_from_text(resources.files("varcalc.theories").joinpath(
        "yang_mills_su2.thy").read_text(encoding="utf-8"))
    for ident in IDENTITY_NAMES:
        assert verify_identity(T, "gauge", ident).passed, ident
    assert T.derived
    assert all(sym is T.symmetry("gauge") for _build, sym in T.derived)


def test_lift_keeps_a_parameter_inside_a_function_argument():
    T = theory_from_text(
        "theory t\ndimension 2\nsignature - +\nfunction W arity 1\nfield A form 1\n"
        "lagrangian -1/2 * d(A) ∧ star(d(A))\n"
        "symmetry gauge param xi scalar\n  A = d(xi)\n")
    bv = BVTheory(T, T.symmetry("gauge"))
    xi = T.chart.by_name("xi").fid
    lifted = bv.lift(elaborate_form(T.ctx, "W(xi) * xi_,1 * star(1)"))
    (word, c), = lifted.terms.items()
    assert c == 1
    jets = [a for a in word if a[0] == 'j']
    (fn,) = [a for a in word if a[0] == 'f']
    assert jets == [('j', bv.ghosts[xi], (0, 1))]
    assert fn[3] == (('j', bv.b2x[xi], (0, 0)),)
    assert bv.chart.component(bv.b2x[xi]).name == "xi"
