"""bv.graded_extension against the loops it replaced.

BVTheory, BFVTheory and corner_bracket_SS each wrote the extension
L = body + Σ_x x† ∧ q(x) ∧ vol, ω + sign Σ_x d x† ∧ d x ∧ vol by hand
before graded_extension built it for all three (notes/decisions.md §38).
Those loops are kept below as the oracle.  On every bundled theory with a
local symmetry, and on a Maxwell theory scaled by inv(g), L_BV, ω_BV,
L_BFV and ω_BFV at the slice t = 0 and every component of both Q equal
the oracle's term for term, in the same order and the same chart.  The
corner bracket equals the former corner code's on su(2) and on arbitrary
structure constants.  Each check on L still raises before Q is taken,
with the type and message it had.
"""

import random
from fractions import Fraction

import pytest

import varcalc.bv as bv_module
from varcalc.algebra import LocalForm, h_coefficient, midx_zero, transport
from varcalc.bv import (
    BVTheory, BFVTheory, bv_bracket, bv_extend, bfv_extend, hamiltonian_vector_field,
)
from varcalc.chart import NoBracket, VarcalcError
from varcalc.lie import Structure, _kval, su2_structure
from varcalc.slicing import (
    SliceSpec, _corner_ring_chart, corner_bracket_SS, restrict_to_slice,
    sigma_noether, split_constraint_flux,
)
from varcalc.theory import theory_from_text
from conftest import assert_exact, atom_terms, load_theory
from test_canonical import _random_corner_data
from test_named_constants import MAXWELL_G
from test_param_promotion import LOCAL_SYMMETRIES

PAIRS = LOCAL_SYMMETRIES + [("maxwell_g", "gauge")]


def _theory(name):
    return theory_from_text(MAXWELL_G) if name == "maxwell_g" else load_theory(name)


def _vol(chart):
    """The codes of the volume word dx0 ∧ ... ∧ dx(n-1)."""
    return chart.encode_word(tuple(('h', mu) for mu in range(chart.dim)))


def oracle_bv(bv, theory):
    """(L_BV, ω_BV) by the former loops of BVTheory.__init__."""
    self, chart = bv, bv.chart
    z = midx_zero(chart.dim)
    L0 = self.lift(theory.L)
    vol = _vol(chart)
    LBV = L0
    for fid, qf in sorted(self.qce.items()):
        af = self.antifields[fid]
        head = chart.encode_word((('j', af, z),))
        for key, c in qf.terms.items():
            term = LocalForm(chart)
            term._accum(head + key + vol, c)
            LBV = LBV + term
    omega = LocalForm(chart)
    for fid, af in sorted(self.antifields.items()):
        omega._accum(chart.encode_word((('v', af, z), ('v', fid, z))) + vol, 1)
    return LBV, omega


def oracle_bfv(bfv, sigma, sym):
    """(L_BFV, ω_BFV) by the former loops of BFVTheory.__init__."""
    self, chart, schart = bfv, bfv.chart, sigma.schart
    orientation = bfv.orientation
    z = midx_zero(chart.dim)
    c_of = {pf: bfv.ghosts[sigma.b2s[pf]] for pf in sym.param_fids()}

    def jet(a, in_fn):
        if a[0] in ('f', 'F'):
            return a
        fid = self.ghosts.get(a[1], self.s2x.get(a[1]))
        if fid is None:
            raise VarcalcError(
                f"component {schart.component(a[1]).name} has no BFV image")
        return (a[0], fid) + a[2:]

    def move(form):
        return transport(form, chart, jet)

    H0, hflux = split_constraint_flux(sigma, sym, sigma_noether(sigma, sym))
    L = move(H0)
    vol = _vol(chart)
    for p, br in sym.bracket(chart, c_of, c_of).items():
        dag = chart.encode_word((('j', self.ghost_momenta[c_of[p]], z),))
        for key, c in br.terms.items():
            L._accum(dag + key + vol, Fraction(c * orientation, 2))
    omega = move(sigma.omega_sigma)
    for cfid, gm in sorted(self.ghost_momenta.items()):
        omega._accum(chart.encode_word((('v', gm, z), ('v', cfid, z))) + vol,
                     Fraction(-orientation))
    return L, omega


def oracle_corner_bracket_SS(st, k):
    """The former corner_bracket_SS, its S and ω written by hand."""
    ch, hfids, cfids = _corner_ring_chart(st.dim)
    z = midx_zero(1)
    dx0 = (('h', 0),)
    S = LocalForm(ch)
    for a, b, c, coeff in st.terms():
        S.add_word((('j', hfids[c], z), ('j', cfids[a], z), ('j', cfids[b], z)) + dx0,
                   Fraction(coeff) / 2)
    for a in range(st.dim):
        for b in range(st.dim):
            kv = _kval(k, a, b)
            if kv:
                S.add_word((('j', cfids[a], z), ('j', cfids[b], z)) + dx0, kv / 2)
    omega = LocalForm(ch)
    for a in range(st.dim):
        omega.add_word((('v', hfids[a], z), ('v', cfids[a], z)) + dx0, 1)
    Q = hamiltonian_vector_field(S, omega)
    return h_coefficient(bv_bracket(Q, Q, omega), (0,))


def same(got, want):
    """The same chart and the same terms, in the same order."""
    assert got.chart is want.chart
    assert list(got.terms.items()) == list(want.terms.items())
    assert_exact(got)


def same_field(Q, L, omega):
    want = hamiltonian_vector_field(L, omega)
    assert list(Q.components) == list(want.components)
    for fid, comp in Q.components.items():
        same(comp, want.components[fid])


@pytest.mark.parametrize("name, sym_name", PAIRS)
def test_bv_extension_matches_the_former_loops(name, sym_name):
    T = _theory(name)
    bv = bv_extend(T, T.symmetry(sym_name))
    L, omega = oracle_bv(bv, T)
    same(bv.L, L)
    same(bv.omega_BV, omega)
    same_field(bv.Q, L, omega)


@pytest.mark.parametrize("name, sym_name", PAIRS)
def test_bfv_extension_matches_the_former_loops(name, sym_name):
    T = _theory(name)
    sym = T.symmetry(sym_name)
    sigma = restrict_to_slice(T, SliceSpec(transverse=0))
    if sym_name == "gaugeB":
        # a reducible symmetry without bracket data has no BFV extension
        with pytest.raises(NoBracket, match="^BFV extension needs bracket data$"):
            bfv_extend(sigma, sym)
        return
    bfv = bfv_extend(sigma, sym)
    L, omega = oracle_bfv(bfv, sigma, sym)
    same(bfv.L, L)
    same(bfv.omega_BFV, omega)
    same_field(bfv.Q, L, omega)


def test_corner_bracket_matches_the_former_corner_code():
    rng = random.Random(1)
    cases = [(su2_structure(), {}), (su2_structure(), {(0, 1): Fraction(1)})]
    for dim in (1, 2, 3):
        for _ in range(10):
            f, k = _random_corner_data(rng, dim)
            cases.append((Structure("t", dim, f, {}), k))
    nonzero = 0
    for st, k in cases:
        # each call builds its own ring chart: compare the decoded words
        got = corner_bracket_SS(st, k)
        assert atom_terms(got) == atom_terms(oracle_corner_bracket_SS(st, k))
        assert_exact(got)
        nonzero += not got.is_zero()
    assert nonzero


# -- each check on L raises before Q is taken ----------------------------------

@pytest.fixture
def no_q(monkeypatch):
    def refuse(F, omega):
        raise AssertionError("Q taken before the checks on L")
    monkeypatch.setattr(bv_module, "hamiltonian_vector_field", refuse)


def _with_extra_term(monkeypatch, name):
    """graded_extension, with the word name ∧ vol added to L."""
    extend = bv_module.graded_extension

    def patched(chart, *args):
        L, omega = extend(chart, *args)
        word = (('j', chart.by_name(name).fid, midx_zero(chart.dim)),)
        word += tuple(('h', mu) for mu in range(chart.dim))
        return L + LocalForm.from_word(chart, word), omega
    monkeypatch.setattr(bv_module, "graded_extension", patched)


def test_bv_body_check_raises_before_q(monkeypatch, no_q):
    T = load_theory("maxwell")
    monkeypatch.setattr(bv_module, "zero_ghost_body", lambda bv, form: LocalForm(form.chart))
    with pytest.raises(VarcalcError) as err:
        BVTheory(T, T.symmetry("gauge"))
    assert type(err.value) is VarcalcError
    assert str(err.value) == "BV body projection does not reproduce L"


def test_bv_ghost_degree_check_raises_before_q(monkeypatch, no_q):
    T = load_theory("maxwell")
    # c_xi ∧ vol has ghost degree 1, and the body projection drops it
    _with_extra_term(monkeypatch, "c_xi")
    with pytest.raises(VarcalcError) as err:
        BVTheory(T, T.symmetry("gauge"))
    assert type(err.value) is VarcalcError
    assert str(err.value) == "L_BV has a term of nonzero ghost degree"


def test_bfv_ghost_degree_check_raises_before_q(monkeypatch, no_q):
    T = load_theory("maxwell")
    sigma = restrict_to_slice(T, SliceSpec(transverse=0))
    # A1 ∧ vol has ghost degree 0
    _with_extra_term(monkeypatch, "A1")
    with pytest.raises(VarcalcError) as err:
        BFVTheory(sigma, T.symmetry("gauge"))
    assert type(err.value) is VarcalcError
    assert str(err.value) == "L_BFV must have ghost degree 1, got {0, 1}"
