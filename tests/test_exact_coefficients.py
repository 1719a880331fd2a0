"""Canonical exact coefficients: a coefficient of a form an operator returns
is an int when it is integral and a Fraction only when it is not.

The seeded operators take inputs whose coefficients mix ints, integral
Fractions such as Fraction(4, 2), and non-integral Fractions, and must
agree with the same operator on the all-Fraction copy of the input.  Each
place that divides a coefficient gets a direct case, and the Yang-Mills
data (E(L), theta, omega, the Noether II currents, the BV action and the
CME residual) must be canonical throughout.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from varcalc.algebra import (
    LocalForm, contract_legs, d_h, d_v, midx_zero, substitute, zero_star,
)
from varcalc.bv import bv_bracket, bv_extend, verify_cme
from varcalc.chart import VarcalcError
from varcalc.euler import interior_euler
from varcalc.homotopy import get_suite
from varcalc.noether import noether2
from varcalc.randforms import FormGenerator
from varcalc.lie import Structure
from varcalc.slicing import corner_bracket_SS
from varcalc.theory import _solve_linear
from conftest import assert_exact
from test_radial import coordinate_forms, vertical_forms
from test_splice import ATOMS, CHARTS, SEEDED, U0, U1, V_FN, forms

mixed_coeffs = st.one_of(
    st.integers(-4, 4).filter(bool),
    st.integers(-4, 4).filter(bool).map(lambda k: Fraction(2 * k, 2)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(
        lambda c: c.denominator != 1))


@st.composite
def mixed(draw, base):
    """A seeded form with its coefficients redrawn from mixed_coeffs and
    stored as drawn, so the input itself is not canonical."""
    form = draw(base)
    return LocalForm(form.chart, {k: draw(mixed_coeffs) for k in form.terms})


def as_fractions(form):
    return LocalForm(form.chart, {k: Fraction(c) for k, c in form.terms.items()})


def exact_and_same(op, *inputs):
    """op on the mixed inputs and on their all-Fraction copies: both results
    canonical and equal, or the same error from both."""
    try:
        want = op(*(as_fractions(f) for f in inputs))
    except VarcalcError as e:
        with pytest.raises(type(e)):
            op(*inputs)
        return
    got = op(*inputs)
    if isinstance(got, LocalForm):
        got, want = {(): got}, {(): want}
    assert got.keys() == want.keys()
    for k, form in got.items():
        assert_exact(form)
        assert_exact(want[k])
        assert form == want[k]


dims = st.sampled_from(sorted(CHARTS))
pairs = dims.flatmap(lambda n: st.tuples(mixed(forms(n)), mixed(forms(n))))


@SEEDED
@given(mixed(forms()))
def test_d_h(form):
    exact_and_same(d_h, form)


@SEEDED
@given(mixed(forms()))
def test_d_v(form):
    exact_and_same(d_v, form)


@SEEDED
@given(pairs)
def test_wedge(pair):
    exact_and_same(LocalForm.wedge, *pair)


@st.composite
def bindings(draw, n):
    """One or two words of at most two even jets or coordinates: small, as
    the binding is prolonged to every derivative jet it replaces."""
    even = ATOMS[n]["even"]
    out = LocalForm(CHARTS[n])
    for _ in range(draw(st.integers(1, 2))):
        out.add_word(draw(st.lists(even, max_size=2)), 1)
    return out


@SEEDED
@given(dims.flatmap(lambda n: st.tuples(mixed(forms(n)), mixed(bindings(n)))))
def test_substitute(pair):
    """transport through substitute, the binding's coefficients mixed too."""
    form, expr = pair
    n = form.chart.dim
    exact_and_same(lambda f, e: substitute(f, {(n + U0, midx_zero(n)): e}), form, expr)


@SEEDED
@given(mixed(forms()))
def test_zero_star(form):
    exact_and_same(zero_star, form)


@SEEDED
@given(mixed(forms()))
def test_contract_legs(form):
    exact_and_same(contract_legs, form)


@SEEDED
@given(mixed(vertical_forms()))
def test_h_vertical(form):
    exact_and_same(get_suite(form.chart).h_vertical, form)


@SEEDED
@given(mixed(coordinate_forms()))
def test_poincare_x(form):
    exact_and_same(get_suite(form.chart).poincare_x, form)


# the randomized suites' forms: a seeded FormGenerator form of vertical
# degree 1 or 2 and horizontal degree 1 to n (h is zero at degree 0) on a
# suite chart, whose strata stay small
suite_forms = st.builds(
    lambda n, seed, p, q: FormGenerator(CHARTS[n], seed).form(p, q % n + 1, nterms=2),
    dims, st.integers(0, 10 ** 6), st.integers(1, 2), st.integers(0, 2))


@SEEDED
@given(mixed(suite_forms))
def test_h_inf(form):
    exact_and_same(get_suite(form.chart).h_inf, form)


# ---------------------------------------------------------------------------
# the places that divide
# ---------------------------------------------------------------------------

CH = CHARTS[2]
Z = midx_zero(2)
U = ('j', 2 + U0, Z)
DU, DW = ('v', 2 + U0, Z), ('v', 2 + U1, Z)
VOL = (('h', 0), ('h', 1))


def word(atoms, c):
    return LocalForm.from_word(CH, atoms, c)


def only_coeff(form):
    (c,) = form.terms.values()
    return c


@pytest.mark.parametrize("c, want", [(1, Fraction(1, 2)), (2, 1), (3, Fraction(3, 2))])
def test_h_vertical_divides_by_the_weight(c, want):
    """u0 du0 has weight 2, so hv gives c/2 u0 u0."""
    got = get_suite(CH).h_vertical(word((U, DU), c))
    assert got == word((U, U), want)
    assert type(only_coeff(got)) is type(want)


@pytest.mark.parametrize("atoms, c, want", [
    ((('h', 0),), 3, 3),                       # 3 dx0 -> 3 x0
    ((('j', 0, Z), ('h', 0)), 1, Fraction(1, 2)),   # x0 dx0 -> 1/2 x0 x0
])
def test_poincare_x_divides_by_the_weight(atoms, c, want):
    got = get_suite(CH).poincare_x(word(atoms, c))
    assert only_coeff(got) == want and type(only_coeff(got)) is type(want)


@pytest.mark.parametrize("k, c, want", [(0, 1, 1), (0, 3, 3), (1, 3, Fraction(3, 2))])
def test_zero_star_of_a_fiber_integral(k, c, want):
    """0*('F', k, inner) is the inner application at zero over k + 1."""
    app = ('f', V_FN, (0,), (U,))
    got = zero_star(word((('F', k, (app,)),), c))
    assert got == word((('f', V_FN, (0,), (('0',),)),), want)
    assert type(only_coeff(got)) is type(want)


@pytest.mark.parametrize("c, want", [(1, Fraction(-1, 2)), (2, -1)])
def test_sigma1_pseudo_inverse(c, want):
    """d du0 = -(du0_,0 dx0 + du0_,1 dx1), so h du0_,0 dx0 = -1/2 du0."""
    got = get_suite(CH).h_inf(word((('v', 2 + U0, (1, 0)), ('h', 0)), c))
    assert got == word((DU,), want)
    assert type(only_coeff(got)) is type(want)


def test_interior_euler_one_over_p():
    """I = (1/p) sum du ^ i_du on a (2, n) form without leg derivatives is
    the identity: the 1/2 meets the 2 of the two contractions."""
    w = word((U, DU, DW) + VOL, 1)
    got = interior_euler(w)
    assert got == w and type(only_coeff(got)) is int


@pytest.mark.parametrize("c, want", [(3, Fraction(-3, 2)), (4, -2)])
def test_solve_linear_divides_by_the_leading_coefficient(c, want):
    """2 u0_,00 + c u0 = 0 solved for u0_,00."""
    E = word((('j', 2 + U0, (2, 0)),), 2) + word((U,), c)
    got = _solve_linear(E, (2 + U0, (2, 0)))
    assert got == word((U,), want)
    assert type(only_coeff(got)) is type(want)


def test_corner_halves():
    """S = 1/2 f h c c + 1/2 k c c in the corner ring, and its bracket."""
    f = {(0, 1): [(2, 1)], (1, 2): [(0, 1)], (2, 0): [(1, 1)]}
    k = {(0, 1): 1}
    assert_exact(corner_bracket_SS(Structure("t", 3, f, {}), k))


# ---------------------------------------------------------------------------
# Yang-Mills data
# ---------------------------------------------------------------------------

def test_yang_mills_data_is_canonical(yang_mills):
    T = yang_mills
    sym = T.symmetry("gauge")
    for form in (T.L, T.EL, T.theta, T.omega):
        assert_exact(form)
    data = noether2(T, sym)
    for form in (data.S, data.J, data.C, data.K, data.j, data.s):
        assert_exact(form)
    bv = bv_extend(T, sym)
    assert_exact(bv.L)
    assert_exact(bv_bracket(bv.Q, bv.Q, bv.omega_BV))
    rep, prim = verify_cme(bv)
    assert rep.passed
    assert_exact(prim)
