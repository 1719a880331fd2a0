"""The integer perturbation series of h_inf and the prolongations of an
evolutionary field against the code they replaced, kept verbatim here.

The series oracle is the former sigma1 and h_inf: each stratum image with
`Fraction` coefficients, acc += cur and cur = -sigma1(d0(cur)).  The engine
runs the same rounds over one integer denominator, so it must give the same
terms in the same order with exact coefficients.  The prolongation oracle
is the former `apply_midx_derivative`, which `EvolutionaryField.component`
now reaches one direction at a time through its memo.
"""

from fractions import Fraction
import random

import pytest
from hypothesis import given

from varcalc.algebra import (
    LocalForm, _add, _q, atom_parity, d_v, iter_midx, total_derivative,
)
from varcalc.chart import InvariantViolation
from varcalc.euler import EvolutionaryField, interior_euler
from varcalc.homotopy import HomotopySuite, _leg_split, _stratum_key, get_suite
from varcalc.randforms import FormGenerator, suite_chart
from conftest import assert_exact, load_theory
from test_el_oracle import THEORIES
from test_splice import SEEDED, forms


# -- the former series, verbatim, over the engine's strata ---------------------

class FractionSeries:
    """sigma1 and h_inf as they were before the integer series, reading the
    Laplacian blocks (delta_pinv) of the suite's own strata."""

    def __init__(self, suite):
        self.suite = suite
        self.chart = suite.chart
        self.images = {}

    def sigma1_image(self, st, word):
        images = self.images.setdefault(id(st), {})
        image = images.get(word)
        if image is None:
            b = sum(1 for a in word if a[0] == 'h')
            i = st.index[b].get(word)
            if i is None:
                raise InvariantViolation("leg word missing from its stratum basis")
            image = []
            if b and st.fids:
                rows, block_of = st.delta_pinv(b)
                z = {}
                for j, c in rows[i].items():
                    members, inv = block_of[j]
                    for j2, x in zip(members, inv[j]):
                        if x:
                            z[j2] = z.get(j2, 0) + c * x
                image = [(st.bases[b - 1][j], _q(s))
                         for j, s in sorted(z.items()) if s]
            images[word] = image
        return image

    def sigma1(self, form):
        chart = self.chart
        out = LocalForm(chart)
        for key, coeff in form.terms.items():
            coeffs, legs = _leg_split(key)
            if not legs:
                continue
            image = self.sigma1_image(
                self.suite._stratum(_stratum_key(chart, legs)), legs)
            if not image:
                continue
            if sum(atom_parity(chart, a) for a in coeffs) & 1:
                coeff = -coeff
            for target, c in image:
                _add(out.terms, coeffs + target, coeff * c)
        return out

    def h_inf(self, form):
        acc = LocalForm(self.chart)
        cur = self.sigma1(form)
        guard = 0
        while not cur.is_zero():
            for k, c in cur.terms.items():
                _add(acc.terms, k, c)
            cur = -self.sigma1(self.suite.d0(cur))
            guard += 1
            if guard > 10 * (self.chart.jet_cutoff + self.chart.dim + 2):
                raise InvariantViolation("perturbation series failed to terminate")
        return acc


def _same_series(suite, form):
    got = suite.h_inf(form)
    want = FractionSeries(suite).h_inf(form)
    assert list(got.terms.items()) == list(want.terms.items())
    assert_exact(got)
    return got


# -- the series ----------------------------------------------------------------

@SEEDED
@given(forms().map(lambda f: f.components(lambda w: LocalForm.key_vdeg(w) <= 4)))
def test_h_inf_matches_fraction_series_on_splice_forms(form):
    """The seeded words of test_splice, with at most four legs per word
    (a fifth leg can take a minute: ROADMAP item 7)."""
    _same_series(get_suite(form.chart), form)


@pytest.mark.parametrize("dim", [2, 3])
def test_h_inf_matches_fraction_series_on_suite_forms(dim):
    """Suite forms with Fraction coefficients (the generator's rationals,
    some scaled by 1/7 or 5/6), and the input h_horizontal gives h_inf."""
    ch = suite_chart(dim=dim, nfields=2, ghost_field=True)
    suite = HomotopySuite(ch)
    gen = FormGenerator(ch, seed=40 + dim)
    scale = random.Random(dim)
    nonzero = 0
    for i in range(48):
        w = gen.form(1 + i % 3, i % (dim + 1), nterms=3)
        w = w * scale.choice([1, Fraction(1, 7), Fraction(5, 6)])
        if i % (dim + 1) == dim and not w.is_zero():
            w = w - interior_euler(w)
        nonzero += not _same_series(suite, w).is_zero()
    assert nonzero > 30


@pytest.mark.parametrize("coeff", [1, Fraction(2, 3)])
def test_h_inf_matches_fraction_series_on_the_four_leg_word(coeff):
    """du0_,11 du1_,00 dc_,0 dc_,0 dx0 on the 2-d suite chart with a ghost."""
    ch = suite_chart(dim=2, nfields=2, ghost_field=True)
    u0, u1, c = (ch.by_name(n).fid for n in ("u0", "u1", "c"))
    w = LocalForm.from_word(ch, (('v', u0, (0, 2)), ('v', u1, (2, 0)), ('v', c, (1, 0)),
                                 ('v', c, (1, 0)), ('h', 0)), coeff)
    assert len(_same_series(HomotopySuite(ch), w).terms) > 100


@pytest.mark.parametrize("name", THEORIES)
def test_h_inf_matches_fraction_series_on_d_v_L(name):
    T = load_theory(name)
    dvL = d_v(T.L)
    _same_series(T.suite, dvL)
    _same_series(T.suite, dvL - interior_euler(dvL))


def test_integer_rounds_keep_integer_coefficients():
    """d0 keeps integers integral, and sigma1 scales its image by the lcm L
    it reports, so an integral input gives integral rounds."""
    ch = suite_chart(dim=2, nfields=2, ghost_field=True)
    suite = HomotopySuite(ch)
    gen = FormGenerator(ch, seed=7)
    rounds = 0
    for i in range(12):
        w = gen.form(1 + i % 2, 1, nterms=3)
        cur = LocalForm(ch, {k: c.numerator * 12 // c.denominator for k, c in w.terms.items()})
        while not cur.is_zero():
            L, cur = suite.sigma1(suite.d0(cur))
            assert type(L) is int and L >= 1
            assert all(type(c) is int for c in cur.terms.values())
            rounds += 1
    assert rounds > 12


# -- prolongations of an evolutionary field -----------------------------------

def apply_midx_derivative(form, midx):
    for mu, k in enumerate(midx):
        for _ in range(k):
            form = total_derivative(form, mu)
    return form


@pytest.mark.parametrize("name", THEORIES)
@pytest.mark.parametrize("descending", [False, True])
def test_component_matches_direction_by_direction_prolongation(name, descending):
    """component(fid, K) for every K of order <= 3, cold, asked in rising
    and in falling order, against D_K applied direction by direction."""
    T = load_theory(name)
    ch = T.chart
    mids = [K for order in range(4) for K in iter_midx(ch.dim, order)]
    if descending:
        mids.reverse()
    checked = 0
    for sym in T.symmetries.values():
        rho = EvolutionaryField(ch, sym.rho.components, sym.rho.name)
        for fid in range(len(ch.components)):
            base = sym.rho.components.get(fid)
            for K in mids:
                got = rho.component(fid, K)
                if base is None:
                    assert got.is_zero()
                    continue
                want = apply_midx_derivative(base, K)
                assert list(got.terms.items()) == list(want.terms.items())
                assert_exact(got)
                checked += 1
    assert checked or not T.symmetries
