"""The Lie derivative L_rho = [i_rho, d_v] as one derivation
(euler.lie_derivative), against the two-pass Cartan sum that it replaced,
kept verbatim here as the oracle.

For an even ghost shift, i_rho and d_v are odd derivations, so their
anticommutator i_rho d_v + d_v i_rho is an even derivation; it agrees with
the one pass on every atom, hence on every form.  For an odd shift (the BV
Q) i_rho is even and the one pass is the graded commutator
i_rho d_v - d_v i_rho, which the Cartan sum matches on forms without legs
only (notes/decisions.md §33).  The random forms hold jets of fields and
parameters, function atoms V(u_,K) with slot derivatives, fiber integrals
and up to two vertical legs."""

import contextlib
import io
import random
from fractions import Fraction
from importlib import resources

import pytest

from varcalc import euler, noether
from varcalc.algebra import LocalForm, d_h, d_v, iter_midx, midx_zero, relabel
from varcalc.bv import bv_extend
from varcalc.chart import DYNAMIC, PARAM
from varcalc.cli import main
from varcalc.euler import EvolutionaryField, insert, lie_derivative
from varcalc.randforms import suite_chart
from varcalc.theory import theory_from_text

from conftest import load_theory
from make_digests import THEORIES

PAIRS = [(name, s) for name, (_coords, syms) in THEORIES.items() for s in syms]
COUNT = 12


def cartan_sum(rho, form):
    """The former euler.lie_derivative: Cartan formula L_rho = i_rho d_v + d_v i_rho."""
    return insert(rho, d_v(form)) + d_v(insert(rho, form))


def graded_commutator(rho, form):
    """[i_rho, d_v] for an even i_rho (an odd ghost shift)."""
    return insert(rho, d_v(form)) - d_v(insert(rho, form))


def random_forms(chart, seed, p, count=COUNT):
    """``count`` nonzero forms with p vertical legs, of two terms each: up to
    two jets of fields or parameters (order <= 2), a function atom or fiber
    integral of the chart's functions in half the terms, the legs and a
    random set of horizontal legs."""
    rng = random.Random(seed)
    n = chart.dim
    jets = [(c.fid, m) for c in chart.components if c.kind in (DYNAMIC, PARAM)
            for order in range(3) for m in iter_midx(n, order)]
    legs = [j for j in jets if chart.kind(j[0]) == DYNAMIC]

    def function_atom():
        fs = rng.choice(chart.functions)
        app = ('f', fs.sym_id, tuple(rng.randint(0, 1) for _ in range(fs.arity)),
               tuple(('j',) + rng.choice(legs[:len(legs) // 2 + 1])
                     for _ in range(fs.arity)))
        return app if rng.random() < 0.6 else ('F', rng.randint(0, 1), (app,))

    out = []
    while len(out) < count:
        w = LocalForm(chart)
        for _ in range(2):
            word = [('j',) + rng.choice(jets) for _ in range(rng.randint(0, 2))]
            if chart.functions and rng.random() < 0.5:
                word.append(function_atom())
            word += [('v',) + rng.choice(legs) for _ in range(p)]
            word += [('h', mu) for mu in sorted(rng.sample(range(n), rng.randint(0, n)))]
            w._accum(tuple(word), Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3)))
        if w.terms:
            out.append(w)
    return out


def _bv(name):
    T = load_theory(name)
    return bv_extend(T, T.symmetry("gauge"))


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("name, sym", PAIRS)
def test_one_pass_is_the_cartan_sum(name, sym, p):
    T = load_theory(name)
    rho = T.symmetry(sym).rho
    assert rho.ghost_shift % 2 == 0
    moved = 0
    for w in random_forms(T.chart, p, p):
        one = lie_derivative(rho, w)
        assert one.terms == cartan_sum(rho, w).terms
        moved += bool(one.terms)
    assert moved


def test_forms_hold_function_atoms_and_fiber_integrals():
    T = load_theory("scalar_field")
    kinds = {a[0] for p in range(3) for w in random_forms(T.chart, p, p)
             for key in w.terms for a in key}
    assert {'f', 'F', 'j', 'v', 'h'} <= kinds
    # a function atom's image is the chain rule V'(u) D_K rho
    rho = T.symmetry("transl").rho
    phi = T.chart.by_name("phi").fid
    z = midx_zero(2)
    V = LocalForm(T.chart, {(('f', 0, (0,), (('j', phi, z),)),): 1})
    dV = LocalForm(T.chart, {(('f', 0, (1,), (('j', phi, z),)),): 1})
    assert lie_derivative(rho, V).terms == dV.wedge(rho.components[phi]).terms


@pytest.fixture(scope="module")
def suite_fields():
    """A plain field of each parity on the suite chart with a ghost c:
    rho^u0 = u1 u1, rho^c = c u0 (shift 0) and rho^u0 = c u1 (shift 1)."""
    ch = suite_chart(dim=2, nfields=2, ghost_field=True)
    u0, u1, c = (ch.by_name(nm).fid for nm in ("u0", "u1", "c"))
    z = midx_zero(2)

    def word(*fids):
        return LocalForm.from_word(ch, tuple(('j', f, z) for f in fids))

    even = EvolutionaryField(ch, {u0: word(u1, u1), c: word(c, u0)})
    odd = EvolutionaryField(ch, {u0: word(c, u1)})
    assert (even.ghost_shift, odd.ghost_shift) == (0, 1)
    return ch, even, odd


@pytest.mark.parametrize("p", [0, 1, 2])
def test_plain_fields_on_the_suite_chart(suite_fields, p):
    ch, even, odd = suite_fields
    for w in random_forms(ch, 10 + p, p, count=40):
        assert lie_derivative(even, w).terms == cartan_sum(even, w).terms
        one = lie_derivative(odd, w)
        assert one.terms == graded_commutator(odd, w).terms
        if p == 0:
            assert one.terms == cartan_sum(odd, w).terms


@pytest.mark.parametrize("name", ["maxwell", "yang_mills_su2"])
def test_bv_q_is_the_graded_commutator(name):
    """On forms without legs the one pass is i_Q d_v, today's Cartan sum; on
    forms with legs it is i_Q d_v - d_v i_Q, and the Cartan sum is not a
    derivation there: the two differ by 2 d_v i_Q."""
    bv = _bv(name)
    Q = bv.Q
    assert Q.ghost_shift % 2 == 1
    for w in random_forms(bv.chart, 20, 0):
        one = lie_derivative(Q, w)
        assert one.terms == cartan_sum(Q, w).terms == insert(Q, d_v(w)).terms
    differ = 0
    for p in (1, 2):
        for w in random_forms(bv.chart, 20 + p, p):
            one = lie_derivative(Q, w)
            assert one.terms == graded_commutator(Q, w).terms
            gap = cartan_sum(Q, w) - one
            assert gap.terms == (d_v(insert(Q, w)) * 2).terms
            differ += bool(gap.terms)
    assert differ


@pytest.mark.parametrize("name, sym", PAIRS)
def test_lie_derivative_commutes_with_d_h(name, sym):
    """[L_rho, d_h] = 0 for a prolonged field: both sides are derivations
    that agree on every atom.  cor:equi-dJ takes d_h(L_rho J_eta) for
    L_rho(d_h J_eta) on this ground."""
    T = load_theory(name)
    rho = T.symmetry(sym).rho
    n = T.chart.dim
    for p in range(3):
        for w in random_forms(T.chart, 30 + p, p):
            w = w.components(lambda key: LocalForm.key_hdeg(key) < n)
            assert lie_derivative(rho, d_h(w)).terms == d_h(lie_derivative(rho, w)).terms


@pytest.mark.parametrize("name", ["maxwell", "yang_mills_su2"])
def test_bv_q_anticommutes_with_d_h_without_legs(name):
    """For the odd Q the graded commutator [L_Q, d_h] = L_Q d_h + d_h L_Q
    vanishes on forms without legs."""
    bv = _bv(name)
    n = bv.chart.dim
    for w in random_forms(bv.chart, 40, 0):
        w = w.components(lambda key: LocalForm.key_hdeg(key) < n)
        assert lie_derivative(bv.Q, d_h(w)).terms == (-d_h(lie_derivative(bv.Q, w))).terms


def test_images_are_kept_per_chart_and_field(suite_fields, monkeypatch):
    """The images live in rho.images[('L', chart)], and the chart's own
    table holds no field: a second pass over the same form derives no atom
    again, so it calls no d_v."""
    ch, even, _odd = suite_fields
    w = random_forms(ch, 50, 2, count=1)[0]
    first = lie_derivative(even, w)
    assert even.images[('L', ch)]
    assert all(key == 'dv' or key[0] in ('d', 'D') for key in ch.images)
    calls = []
    monkeypatch.setattr(euler, "d_v", lambda form: calls.append(form) or d_v(form))
    assert lie_derivative(even, w).terms == first.terms
    assert not calls


def _fresh(name):
    return theory_from_text(resources.files("varcalc.theories").joinpath(
        name + ".thy").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["maxwell", "scalar_field", "bf_abelian_4d"])
def test_verify_all_takes_each_lie_derivative_once_per_symmetry(name, monkeypatch):
    """lemma:flow-density and thm:inv-eom read one L_rho(E L) per symmetry,
    lem:inv-C and thm:jext=0 one L_rho(C_eta) per local symmetry."""
    T = _fresh(name)
    wanted = []
    for sym in T.symmetries.values():
        wanted.append((sym.name, T.EL.terms))
        if sym.is_local:
            C_e = relabel(noether.noether2(T, sym).C, T.chart, sym.twin_fids())
            assert C_e.terms
            wanted.append((sym.name, C_e.terms))
    inputs = []

    def recording(rho, form):
        inputs.append((rho.name, form.terms))
        return lie_derivative(rho, form)

    monkeypatch.setattr(noether, "lie_derivative", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--all", name]) == 0
    assert [inputs.count(x) for x in wanted] == [1] * len(wanted)
