"""The horizontal differential as one odd derivation (algebra.horizontal)
against the sum over directions it replaced.

The oracle below is that sum verbatim: for each direction mu the total
derivative D_mu, then dx^mu prepended to every word.  For the suite's d0
(the same with the vertical legs left alone) D_mu acts on each word's
coefficient atoms, wedged back in front of its legs.  d_h and d0 must
give the same terms with exact coefficients; the order of the terms is
not compared, since it is not part of the contract (the renderers sort).  The forms are the
seeded words of test_splice, which hold function atoms and fiber
integrals, a named constant beside its inverse, coordinate jets whose
derivative is 1, repeated ghost legs and runs of equal even atoms, and
L, theta, E(L) and omega of every bundled theory.
"""

import pytest
from hypothesis import given

from varcalc.algebra import LocalForm, d_h, prepend_atom, total_derivative
from varcalc.homotopy import get_suite
from conftest import assert_exact, atom_terms, load_theory, on_form
from test_el_oracle import THEORIES
from test_splice import SEEDED, forms


def coefficient_derivative(f, mu):
    """D_mu on the coefficient atoms of each word only: c ^ l -> D_mu(c) ^ l,
    l the word's vertical and horizontal legs."""
    ch = f.chart
    out = LocalForm(ch)
    for key, c in atom_terms(f).items():
        n = next((i for i, a in enumerate(key) if a[0] in ('v', 'h')), len(key))
        out = out + total_derivative(LocalForm.from_word(ch, key[:n], c), mu).wedge(
            LocalForm.from_word(ch, key[n:]))
    return out


def oracle(f, legs=True):
    out = LocalForm(f.chart)
    for mu in range(f.chart.dim):
        dmu = total_derivative(f, mu) if legs else coefficient_derivative(f, mu)
        out = out + prepend_atom(dmu, ('h', mu))
    return out


def check(form):
    got = d_h(form)
    assert got.terms == oracle(form).terms
    assert_exact(got)
    got = on_form(get_suite(form.chart).d0, form)
    assert got.terms == oracle(form, legs=False).terms
    assert_exact(got)


@SEEDED
@given(forms())
def test_seeded_forms(form):
    check(form)


@SEEDED
@given(forms())
def test_d_h_squares_to_zero(form):
    assert d_h(d_h(form)).is_zero()


@pytest.mark.parametrize("name", THEORIES)
def test_bundled_theories(name):
    T = load_theory(name)
    for form in (T.L, T.theta, T.EL, T.omega):
        assert form.terms
        check(form)
