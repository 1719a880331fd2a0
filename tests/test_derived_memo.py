"""Derived objects per (theory, symmetry action).

``noether_cone``, ``noether2`` and ``bv_extend`` are built once per
theory and action (``theory.derived``).  A memoized result
must equal an unmemoized build, a failed build must fail again on the next
call, and no command may write into a result that later callers share.
"""

import copy
import dataclasses
from importlib import resources

import pytest

from varcalc.algebra import LocalForm
from varcalc.bv import (BVTheory, bfv_extend, bv_extend, check_q_nilpotent,
                        verify_bvbfv, verify_cme)
from varcalc.chart import NotASymmetry, NotLocal
from varcalc.lie import Structure
from varcalc.euler import EvolutionaryField
from varcalc.noether import (IDENTITY_NAMES, NoetherData, noether2,
                             noether_cone, verify_identity)
from varcalc.render import render_text
from varcalc.slicing import (SliceSpec, compute_ce_cocycle, corner_data,
                             restrict_to_slice, sigma_noether,
                             split_constraint_flux, verify_corner_master)
from varcalc.theory import SymmetryAction, theory_from_text


def _fresh(name):
    text = resources.files("varcalc.theories").joinpath(
        name + ".thy").read_text(encoding="utf-8")
    return theory_from_text(text)


def _texts(forms):
    return {k: render_text(f) for k, f in forms.items()}


def _same_noether(a, b):
    for f in dataclasses.fields(NoetherData):
        assert render_text(getattr(a, f.name)) == render_text(getattr(b, f.name)), f.name


def _same_bv(a, b):
    assert [c.name for c in a.chart.components] == [c.name for c in b.chart.components]
    assert (a.ghosts, a.antifields) == (b.ghosts, b.antifields)
    for attr in ("L", "omega_BV", "theta", "omega"):
        assert render_text(getattr(a, attr)) == render_text(getattr(b, attr)), attr
    assert _texts(a.qce) == _texts(b.qce)
    assert _texts(a.Q.components) == _texts(b.Q.components)


@pytest.mark.parametrize("name, snames", [
    ("maxwell", ["gauge"]), ("maxwell_sourced", ["gauge"]),
    ("yang_mills_su2", ["gauge"]), ("chern_simons_su2", ["gauge"]),
    ("bf_abelian_4d", ["gaugeA", "gaugeB"]),
])
def test_memo_matches_unmemoized_build(name, snames):
    T = _fresh(name)
    for sname in snames:
        sym = T.symmetry(sname)
        cone = noether_cone(T, sym)
        assert noether_cone(T, sym) is cone
        raw = noether_cone.__wrapped__(T, sym)
        assert [render_text(f) for f in cone] == [render_text(f) for f in raw]
        data = noether2(T, sym)
        assert noether2(T, sym) is data
        _same_noether(data, noether2.__wrapped__(T, sym))
        bv = bv_extend(T, sym)
        assert bv_extend(T, sym) is bv
        _same_bv(bv, BVTheory(T, sym))


def test_failures_are_not_stored():
    T = theory_from_text(
        "theory s\ndimension 2\nsignature - +\nfunction V arity 1\n"
        "field phi scalar\n"
        "lagrangian -1/2*d(phi)∧star(d(phi)) + V(phi)*star(1)\n"
        "symmetry scale param xi scalar constant\n  phi = xi * phi\n")
    for _ in range(2):
        with pytest.raises(NotASymmetry):
            noether_cone(T, T.symmetry("scale"))
    assert not T.derived
    T = theory_from_text(
        "theory s\ndimension 2\nsignature - +\nfield phi scalar\n"
        "lagrangian -1/2*d(phi)∧star(d(phi))\n"
        "symmetry shift param xi scalar constant\n  phi = xi\n"
        "solve phi_,00\n")
    sym = T.symmetry("shift")
    for _ in range(2):
        with pytest.raises(NotLocal):
            noether2(T, sym)
    assert (noether2.__wrapped__, sym) not in T.derived


def test_copied_action_builds_its_own_bv(yang_mills):
    sym = yang_mills.symmetry("gauge")
    scaled = copy.copy(sym)
    st = sym.structure
    scaled.structure = Structure(
        st.name, st.dim, {k: [(c, 2 * v) for c, v in lst] for k, lst in st.f.items()},
        st.kappa)
    bv, bv2 = bv_extend(yang_mills, sym), bv_extend(yang_mills, scaled)
    assert bv2 is not bv and bv_extend(yang_mills, scaled) is bv2
    assert render_text(bv2.L) != render_text(bv.L)


def _shared_forms(T):
    """Every LocalForm reachable from the theory's memoized results."""
    out, seen, stack = [], set(), list(T.derived.values())
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, LocalForm):
            out.append(x)
        elif isinstance(x, (tuple, list)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, (NoetherData, SymmetryAction, EvolutionaryField, BVTheory)):
            stack.extend(v for k, v in vars(x).items()
                         if k not in ("theory", "base_theory"))
    return out


def test_commands_do_not_mutate_shared_results(yang_mills):
    T = yang_mills
    sym = T.symmetry("gauge")
    noether2(T, sym)
    bv = bv_extend(T, sym)
    snapshot = [(f, dict(f.terms)) for f in _shared_forms(T)]
    assert len(snapshot) > 20

    for ident in IDENTITY_NAMES:
        assert verify_identity(T, "gauge", ident).passed, ident
    assert check_q_nilpotent(bv).passed
    assert verify_cme(bv)[0].passed
    t0 = SliceSpec(transverse=0)
    sig = restrict_to_slice(T, t0)
    assert all(r.passed for r in verify_bvbfv(bv, bfv_extend(sig, sym), t0))
    split_constraint_flux(sig, sym, sigma_noether(sig, sym))
    compute_ce_cocycle(sig, sym)
    assert verify_corner_master(corner_data(
        restrict_to_slice(T, SliceSpec(transverse=0, corner=1)), sym)).passed

    changed = [render_text(f) for f, terms in snapshot if f.terms != terms]
    assert not changed, changed
