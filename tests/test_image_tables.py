"""The per-chart tables of derivation images (Chart.images) against images
computed per call.

d_h, the suite's d0, D_mu (each direction, with and without legs) and d_v
read and fill their chart's table.  Each runs once with the table cleared
(cold) and once with it filled (warm), and must give the same terms in the
same order, with exact coefficients, as apply_derivation with no table
(images=None), which computes every image afresh in the call.  The forms
are the seeded words of test_splice and L, theta, E(L) and omega of every
bundled theory.  A promoted chart has its own table, an image above the
jet cutoff is not stored, and a table holds image data, never a LocalForm.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given

from varcalc import algebra
from varcalc.algebra import LocalForm, d_h, d_v, midx_zero, total_derivative
from varcalc.chart import CPARAM, JetCutoffExceeded
from varcalc.homotopy import get_suite
from varcalc.randforms import suite_chart
from conftest import assert_exact, atom_terms, load_theory, on_form
from test_el_oracle import THEORIES
from test_splice import SEEDED, forms


def operators(chart):
    ops = [d_h, lambda f: on_form(get_suite(chart).d0, f), d_v]
    for mu in range(chart.dim):
        ops.append(lambda f, mu=mu: total_derivative(f, mu))
    return ops


@contextmanager
def per_call():
    """apply_derivation without a table: every image computed in the call."""
    saved = algebra.apply_derivation
    algebra.apply_derivation = \
        lambda form, parity, image, images=None: saved(form, parity, image)
    try:
        yield
    finally:
        algebra.apply_derivation = saved


def assert_no_local_form(x):
    assert not isinstance(x, LocalForm)
    if type(x) is tuple:
        for y in x:
            assert_no_local_form(y)


def assert_tables_hold_data(chart):
    for table in chart.images.values():
        for im in table.values():
            assert im is None or type(im) is tuple
            assert_no_local_form(im)


def check(form):
    chart = form.chart
    for op in operators(chart):
        with per_call():
            want = list(op(form).terms.items())
        chart.images.clear()
        for _run in ("cold", "warm"):
            got = op(form)
            assert list(got.terms.items()) == want
            assert_exact(got)
        assert chart.images or not form.terms
    assert_tables_hold_data(chart)


@SEEDED
@given(forms())
def test_seeded_forms(form):
    check(form)


@pytest.mark.parametrize("name", THEORIES)
def test_bundled_theories(name):
    T = load_theory(name)
    for form in (T.L, T.theta, T.EL, T.omega):
        assert form.terms
        check(form)


@pytest.mark.parametrize("base_first", [True, False], ids=["base_first", "promoted_first"])
def test_promoted_chart_has_its_own_table(base_first):
    """A constant parameter e is constant on its chart (D_0 e = 0, d_v e = 0)
    and dynamical on the promoted one; neither chart reads the other's
    images, whichever runs first."""
    ch = suite_chart(2, nfields=1)
    e = ch.add_component("e", kind=CPARAM).fid
    z = midx_zero(2)

    def run(chart):
        f = LocalForm.from_word(chart, (('j', e, z),))
        return atom_terms(d_v(f)), atom_terms(total_derivative(f, 0))

    if base_first:
        base = run(ch)
        pro = ch.promoted({e})
        promoted = run(pro)
    else:
        pro = ch.promoted({e})
        promoted = run(pro)
        base = run(ch)
    assert pro.images is not ch.images
    assert base == ({}, {})
    assert promoted == ({(('v', e, z),): 1}, {(('j', e, (1, 0)),): 1})


def test_cutoff_image_stores_nothing():
    """An atom whose image exceeds the jet cutoff leaves no entry and raises
    on every call; the atoms before it in the word keep theirs."""
    ch = suite_chart(2, nfields=1)
    u = ch.by_name("u0").fid
    low, top = ('j', u, (1, 0)), ('j', u, (ch.jet_cutoff, 0))
    form = LocalForm.from_word(ch, (low, top))
    for _call in range(2):
        with pytest.raises(JetCutoffExceeded):
            total_derivative(form, 0)
        with pytest.raises(JetCutoffExceeded):
            d_h(form)
        for key in (('D', 0), ('d', True)):
            assert ch.encode(low) in ch.images[key]
            assert ch.encode(top) not in ch.images[key]
    assert_tables_hold_data(ch)
