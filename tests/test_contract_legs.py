"""One-scan leg contraction and the interior Euler operator built on it,
checked against the per-leg contraction they replaced (one whole-form
derivation pass per leg), on seeded words over the 2- and 3-dimensional
suite charts.

The words mix legs of the even-ghost fields u0, u1 (odd legs) and of the
ghost c (even legs, so they repeat), legs with 1 <= |K| <= 3, function and
fiber-integral atoms, and a named constant with its inverse.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from varcalc.algebra import (
    LocalForm, atom_parity, contract_legs, iter_midx, midx_zero, prepend_atom,
    total_derivative,
)
from varcalc.chart import CONST, GradingError
from varcalc.euler import interior_euler
from varcalc.randforms import suite_chart
from varcalc.render import render_text
from conftest import assert_exact

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=150)


# -- the reference: per-leg contraction through a derivation, kept verbatim --

def reference_apply_derivation(form: LocalForm, parity, image):
    """Graded derivation: image(atom) -> LocalForm | None (None = zero).

    The image of an atom is spliced in place with the Koszul sign of moving
    an operator of the given parity across the atoms before it (operators
    act from the left).
    """
    chart = form.chart
    out = LocalForm(chart)
    for key, coeff in form.terms.items():
        left_par = 0
        seen = None
        for i, atom in enumerate(key):
            if atom != seen:    # derive each distinct atom once per run
                run = 1
                j = i + 1
                while j < len(key) and key[j] == atom:
                    run += 1
                    j += 1
                im = image(atom)
                if im is not None and im.terms:
                    sgn = -1 if (parity and left_par & 1) else 1
                    for ikey, ic in im.terms.items():
                        word = key[:i] + ikey + key[i + 1:]
                        out._accum(word, coeff * ic * sgn * run)
                seen = atom
            left_par += atom_parity(chart, atom)
    return out


def apply_midx_derivative(form, midx):
    for mu, k in enumerate(midx):
        for _ in range(k):
            form = total_derivative(form, mu)
    return form


def minus_D(form, midx):
    """(-D)_K = (-1)^{|K|} D_K."""
    out = apply_midx_derivative(form, midx)
    if sum(midx) % 2:
        out = -out
    return out


def reference_contract_leg(form: LocalForm, fid, midx):
    """Interior product with the coordinate vertical vector dual to one leg."""
    chart = form.chart
    par = (1 + chart.ghost(fid)) & 1
    target = ('v', fid, midx)

    def image(atom):
        if atom == target:
            return LocalForm.scalar(chart, 1)
        return None

    return reference_apply_derivation(form, par, image)


def reference_leg_multiindices(form):
    """The set of (fid, midx) vertical legs appearing in a form."""
    out = set()
    for key in form.terms:
        for atom in key:
            if atom[0] == 'v':
                out.add((atom[1], atom[2]))
    return out


def reference_interior_euler(form: LocalForm):
    """Takens' interior Euler operator on (p>=1, top) forms.

    I(w) = (1/p) sum_a  du^a ^ sum_K (-D)_K (i^a_K w)
    """
    if form.is_zero():
        return form
    chart = form.chart
    p, q = form.grading()
    n = chart.dim
    if q != n or p < 1:
        raise GradingError(f"interior Euler operator needs (p>=1, q={n}), got ({p},{q})")
    out = LocalForm(chart)
    for fid, K in sorted(reference_leg_multiindices(form)):
        contracted = reference_contract_leg(form, fid, K)
        if contracted.is_zero():
            continue
        ibp = minus_D(contracted, K)
        out = out + prepend_atom(ibp, ('v', fid, midx_zero(chart.dim)))
    return out * Fraction(1, p)


# -- words on the suite charts ------------------------------------------------

def _chart(dim):
    ch = suite_chart(dim=dim, nfields=2, ghost_field=True)
    ch.add_component("k", kind=CONST)
    ch.add_function("g", arity=2)
    return ch


class Atoms:
    def __init__(self, dim):
        ch = self.chart = _chart(dim)
        z = midx_zero(dim)
        e0 = tuple(int(i == 0) for i in range(dim))
        u0, u1, c, k = (ch.by_name(nm).fid for nm in ("u0", "u1", "c", "k"))
        g = ch.function_by_name("g").sym_id
        low = [m for order in (0, 1) for m in iter_midx(dim, order)]
        f1 = ('f', g, (0, 0), (('j', u0, z), ('j', u1, e0)))
        f2 = ('f', g, (1, 0), (('j', u1, z), ('j', 0, z)))
        self.coeffs = (
            [('j', fid, m) for fid in (u0, u1, c) for m in low]
            + [('j', k, z), ('ji', k), ('j', 0, z)]
            + [f1, f2, ('F', 0, (f1,)), ('F', 1, (f1, f2))])
        self.legs = [('v', fid, m) for fid in (u0, u1, c)
                     for order in (0, 1, 2, 3) for m in iter_midx(dim, order)]
        self.ghost_legs = [a for a in self.legs if a[1] == c]
        self.volume = tuple(('h', mu) for mu in range(dim))


ATOMS = {dim: Atoms(dim) for dim in (2, 3)}
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool)


def _legs(A, count):
    """``count`` legs; two ghost legs are drawn often, so that they repeat."""
    leg = st.one_of(st.sampled_from(A.legs), st.sampled_from(A.ghost_legs[:2]))
    return st.lists(leg, min_size=count, max_size=count)


@st.composite
def forms(draw, dim, homogeneous):
    """A normalized form on the suite chart of ``dim``; ``homogeneous``
    gives a (p, top) form with 1 <= p <= 3, otherwise any legs and any
    horizontal legs per word."""
    A = ATOMS[dim]
    p = draw(st.integers(1, 3))
    out = LocalForm(A.chart)
    for _ in range(draw(st.integers(1, 4))):
        word = draw(st.lists(st.sampled_from(A.coeffs), max_size=3))
        if homogeneous:
            word += draw(_legs(A, p)) + list(A.volume)
        else:
            word += draw(_legs(A, draw(st.integers(1, 3))))
            word += draw(st.lists(st.sampled_from(A.volume), max_size=dim, unique=True))
        out._accum(tuple(draw(st.permutations(word))), draw(coeffs))
    return out


def _same(got: LocalForm, want: LocalForm):
    assert list(got.terms.items()) == list(want.terms.items())
    assert_exact(got)


@pytest.mark.parametrize("dim", [2, 3])
def test_contract_legs_matches_per_leg_contraction(dim):
    @SEEDED
    @given(forms(dim, homogeneous=False))
    def check(w):
        legs = contract_legs(w)
        assert set(legs) == reference_leg_multiindices(w)
        for (fid, K), got in legs.items():
            _same(got, reference_contract_leg(w, fid, K))

    check()


@pytest.mark.parametrize("dim", [2, 3])
def test_interior_euler_matches_per_leg_operator(dim):
    """Same terms as the per-leg operator; the Horner-form sum over K
    lists them in another order (term order is no part of the contract,
    notes/decisions.md §12)."""
    @settings(SEEDED, max_examples=60)
    @given(forms(dim, homogeneous=True))
    def check(w):
        got, want = interior_euler(w), reference_interior_euler(w)
        assert got.terms == want.terms
        assert render_text(got) == render_text(want)
        assert_exact(got)

    check()


def test_words_reach_every_contraction_case():
    """Odd legs after odd atoms flip sign, a repeated even leg contracts
    with its run length, and legs of one field at different K stay apart."""
    A = ATOMS[2]
    ch = A.chart
    u0, c = ch.by_name("u0").fid, ch.by_name("c").fid
    z, e0 = (0, 0), (1, 0)
    cz, cu, ce = ('j', c, z), ('v', u0, z), ('v', u0, e0)
    w = LocalForm.from_word(ch, (cz, cu, ce), 3)
    legs = contract_legs(w)
    assert legs == {(u0, z): LocalForm.from_word(ch, (cz, ce), -3),
                    (u0, e0): LocalForm.from_word(ch, (cz, cu), 3)}
    gc = ('v', c, z)
    r = LocalForm.from_word(ch, (gc, gc, gc, cu), Fraction(1, 2))
    assert contract_legs(r)[c, z] == LocalForm.from_word(ch, (gc, gc, cu), Fraction(3, 2))
    assert contract_legs(LocalForm(ch)) == {}
