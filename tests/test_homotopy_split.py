"""The exact horizontal-homotopy hot path against its defining formulas:
d0 = d_h - d1, Delta^{-1} = Delta^+ wherever the inverse is used, and
memoized sigma1 images equal to freshly computed ones."""

from fractions import Fraction

import pytest

from varcalc.algebra import LocalForm, d_h, midx_zero
from varcalc.homotopy import HomotopySuite, get_suite, pseudo_inverse_psd
from varcalc.randforms import FormGenerator, suite_chart


def _chart(dim):
    ch = suite_chart(dim=dim, nfields=2, ghost_field=True)
    ch.add_function("g", arity=2)
    return ch


def _function_atoms(ch):
    """Function and fiber-integral coefficient atoms on the suite chart."""
    z = midx_zero(ch.dim)
    e0 = tuple(int(i == 0) for i in range(ch.dim))
    u0, u1 = ch.by_name("u0").fid, ch.by_name("u1").fid
    g = ch.function_by_name("g").sym_id
    f1 = ('f', g, (0, 0), (('j', u0, z), ('j', u1, e0)))
    f2 = ('f', g, (1, 0), (('j', u1, z), ('0',)))
    return [f1, f2, ('F', 0, (f1,)), ('F', 1, (f1, f2))]


@pytest.mark.parametrize("dim", [2, 3])
def test_d0_is_d_h_minus_d1(dim):
    ch = _chart(dim)
    suite = get_suite(ch)
    gen = FormGenerator(ch, seed=11 + dim)
    fatoms = _function_atoms(ch)
    checked = 0
    for i in range(40):
        w = gen.form_random_grading(pmax=2, nterms=3)
        if i % 2:
            # multiply in function / fiber-integral coefficients
            w = LocalForm.from_word(ch, (fatoms[i % len(fatoms)],),
                                    Fraction(i, 3)).wedge(w)
        if w.is_zero():
            continue
        assert suite.d0(w) == d_h(w) - suite.d1(w)
        checked += 1
    assert checked >= 30


def _exercise(suite, gen, n):
    ch = suite.chart
    for i in range(n):
        w = gen.form(1 + i % 2, i % (ch.dim + 1), nterms=2)
        suite.h_horizontal(w)


@pytest.mark.parametrize("dim", [2, 3])
def test_delta_inverse_equals_pseudo_inverse_on_every_stratum(dim):
    ch = _chart(dim)
    suite = HomotopySuite(ch)
    _exercise(suite, FormGenerator(ch, seed=5), 12)
    assert suite._strata
    degrees = 0
    for st in suite._strata.values():
        for b in range(dim + 1):
            assert st.delta_pinv(b) == pseudo_inverse_psd(st.laplacian(b))
            degrees += 1
    assert degrees > dim + 1


@pytest.mark.parametrize("dim", [2, 3])
def test_sigma1_cold_equals_warm(dim):
    ch = _chart(dim)
    warm = HomotopySuite(ch)
    _exercise(warm, FormGenerator(ch, seed=1), 12)
    assert any(st.images for st in warm._strata.values())
    gen = FormGenerator(ch, seed=2)
    for i in range(12):
        w = gen.form(1 + i % 2, i % (ch.dim + 1), nterms=3)
        cold = HomotopySuite(ch)
        assert cold.sigma1(w) == warm.sigma1(w)
        assert cold.h_horizontal(w) == warm.h_horizontal(w)
