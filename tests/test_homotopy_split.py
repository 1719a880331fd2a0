"""The exact horizontal-homotopy hot path against its defining formulas:
d0 = d_h - d1, sigma1 = e^+ (checked against sympy), the d1-acyclicity
check, and memoized sigma1 images equal to freshly computed ones."""

from fractions import Fraction

import pytest

from varcalc.algebra import (
    LocalForm, apply_derivation, d_h, midx_shift, midx_zero, prepend_atom,
)
from varcalc.chart import InvariantViolation
from varcalc.homotopy import HomotopySuite, _Stratum, get_suite
from varcalc.randforms import FormGenerator, suite_chart
from conftest import image_strata, on_form, sigma1_terms

sympy = pytest.importorskip("sympy")


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


def d1(form):
    """d1 = dx^mu ^ (shift of the vertical legs' multi-indices), the leg
    part of d_h, written out as the oracle for d0 = d_h - d1."""
    chart = form.chart
    out = LocalForm(chart)
    for mu in range(chart.dim):
        def image(code, mu=mu):
            atom = chart.decode(code)
            if atom[0] == 'v':
                return LocalForm.from_word(chart, (('v', atom[1], midx_shift(atom[2], mu)),))
            return None
        shifted = apply_derivation(form, 0, image)
        out = out + prepend_atom(shifted, ('h', mu))
    return out


@pytest.mark.parametrize("dim", [2, 3])
def test_d0_is_d_h_minus_d1(dim):
    ch = _chart(dim)
    suite = get_suite(ch)
    gen = FormGenerator(ch, seed=11 + dim)
    fatoms = _function_atoms(ch)
    checked = 0
    for i in range(40):
        w = form_random_grading(gen, pmax=2, nterms=3)
        if i % 2:
            # multiply in function / fiber-integral coefficients
            w = LocalForm.from_word(ch, (fatoms[i % len(fatoms)],),
                                    Fraction(i, 3)).wedge(w)
        if w.is_zero():
            continue
        assert on_form(suite.d0, w) == d_h(w) - d1(w)
        checked += 1
    assert checked >= 30


def form_random_grading(gen, pmax=2, nterms=3):
    """A random form of random bidegree, moved here verbatim from
    FormGenerator, which has no other caller for it."""
    p = gen.rng.randint(0, pmax)
    q = gen.rng.randint(0, gen.chart.dim)
    return gen.form(p, q, nterms)


def _exercise(suite, gen, n):
    ch = suite.chart
    for i in range(n):
        w = gen.form(1 + i % 2, i % (ch.dim + 1), nterms=2)
        suite.h_horizontal(w)


def _dense(ch, st, b):
    """The d1 matrix e from degree b to b+1 as a sympy matrix."""
    cols, ntgt = st.d1(ch, b)
    return sympy.Matrix(ntgt, len(cols), lambda i, j: cols[j].get(i, 0))


@pytest.mark.parametrize("dim", [2, 3])
def test_sigma1_is_pseudo_inverse_of_d1_on_every_stratum(dim):
    ch = _chart(dim)
    suite = HomotopySuite(ch)
    _exercise(suite, FormGenerator(ch, seed=5), 12)
    degrees = 0
    for st in image_strata(suite).values():
        for b in range(1, dim + 1):
            if not 0 < len(st.basis(ch, b)) <= 20 or len(st.basis(ch, b - 1)) > 20:
                continue
            pinv = _dense(ch, st, b - 1).pinv()
            for i, word in enumerate(st.bases[b]):
                image = dict(sigma1_terms(st.sigma1_image(ch, word)))
                assert [image.get(w, 0) for w in st.bases[b - 1]] == list(pinv.col(i))
            degrees += 1
    assert degrees > 2 * dim


@pytest.mark.parametrize("dim", [2, 3])
def test_d1_cohomology_below_top_degree_is_rejected(dim):
    ch = _chart(dim)
    suite = HomotopySuite(ch)
    _exercise(suite, FormGenerator(ch, seed=5), 4)
    key = next(k for k, s in suite._strata.items()
               if s.fids and _dense(ch, s, 0).rank() > 0)
    _Stratum(*key).delta_pinv(ch, 1)             # acyclic as built
    broken = _Stratum(*key)
    cols, ntgt = broken.d1(ch, 0)
    broken.e[0] = ([{}] * len(cols), ntgt)
    with pytest.raises(InvariantViolation, match="unexpected d1-cohomology"):
        broken.delta_pinv(ch, 1)


@pytest.mark.parametrize("dim", [2, 3])
def test_sigma1_cold_equals_warm(dim):
    # every suite on a chart shares the chart's tables, so the cold side of
    # each word is a fresh chart with the same components
    ch = _chart(dim)
    warm = HomotopySuite(ch)
    _exercise(warm, FormGenerator(ch, seed=1), 12)
    assert warm._images
    gen = FormGenerator(ch, seed=2)
    for i in range(12):
        w = gen.form(1 + i % 2, i % (ch.dim + 1), nterms=3)
        fresh = _chart(dim)
        cold = HomotopySuite(fresh)
        assert not cold._images
        cw = LocalForm(fresh, dict(w.terms))
        assert on_form(cold.sigma1, cw) == on_form(warm.sigma1, w)
        assert cold.h_horizontal(cw) == warm.h_horizontal(w)


def test_h_inf_guard_is_an_invariant_violation(monkeypatch):
    """A perturbation series that never reaches zero (here d0 and sigma1
    replaced by the identity) stops at the guard with a typed error."""
    ch = _chart(2)
    suite = HomotopySuite(ch)
    monkeypatch.setattr(suite, "d0", lambda form, memo: form)
    monkeypatch.setattr(suite, "sigma1", lambda form: (1, form))
    w = FormGenerator(ch, seed=3).form(1, 1, nterms=2)
    assert not w.is_zero()
    with pytest.raises(InvariantViolation, match="failed to terminate"):
        suite.h_inf(w)
