"""The integer perturbation series of h_inf, its two leg-grouped steps and
the prolongations of an evolutionary field against the code they replaced,
kept verbatim here.

The series oracle is the former sigma1 and h_inf: each stratum image with
`Fraction` coefficients, acc += cur and cur = -sigma1(d0(cur)).  The engine
runs the same rounds on leg-grouped data over one integer denominator, so
it must give the same terms with exact coefficients; their order is no part
of the contract.  The step oracles are the former per-word sigma1, which
splits every word into its coefficient and leg atoms, and the former d0,
horizontal(form, legs=False).  The prolongation oracle is the former
`apply_midx_derivative`, which `EvolutionaryField.component` now reaches
one direction at a time through its memo.
"""

from fractions import Fraction
from math import lcm
import random

import pytest
from hypothesis import given

from varcalc.algebra import (
    LocalForm, _add, _q, d_v, horizontal, iter_midx,
    total_derivative,
)
from varcalc.chart import InvariantViolation
from varcalc.euler import EvolutionaryField, interior_euler
from varcalc import homotopy
from varcalc.homotopy import (
    HomotopySuite, _leg_split, _Stratum, _stratum_key, get_suite,
)
from varcalc.randforms import FormGenerator, suite_chart
from conftest import assert_exact, load_theory, on_form
from test_el_oracle import THEORIES
from test_splice import SEEDED, forms


# -- the former series, verbatim, over the engine's strata ---------------------

def _suite_stratum(suite, legs):
    """The stratum of ``legs`` in the suite's table, made there on first
    read as HomotopySuite.sigma1 makes it."""
    key = _stratum_key(suite.chart, legs)
    if key not in suite._strata:
        suite._strata[key] = _Stratum(*key)
    return suite._strata[key]


class FractionSeries:
    """sigma1 and h_inf as they were before the integer series, reading the
    Laplacian blocks (blocks, built by delta_pinv) of the suite's own
    strata."""

    def __init__(self, suite):
        self.suite = suite
        self.chart = suite.chart
        self.images = {}

    def sigma1_image(self, st, word):
        images = self.images.setdefault(id(st), {})
        image = images.get(word)
        if image is None:
            b = sum(1 for a in map(self.chart.decode, word) if a[0] == 'h')
            # the engine builds no basis for a stratum without vertical legs
            if st.fids and word not in st.basis(self.chart, b):
                raise InvariantViolation("leg word missing from its stratum basis")
            image = []
            if b and st.fids:
                i = st.index[b][word]
                rows, block_of = st.delta_pinv(self.chart, b)
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
            coeffs, legs = _leg_split(chart, key)
            if not legs:
                continue
            image = self.sigma1_image(_suite_stratum(self.suite, legs), legs)
            if not image:
                continue
            if sum(a & 1 for a in coeffs) & 1:      # parity bits of the codes
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
            cur = -self.sigma1(horizontal(cur, legs=False))
            guard += 1
            if guard > 10 * (self.chart.jet_cutoff + self.chart.dim + 2):
                raise InvariantViolation("perturbation series failed to terminate")
        return acc


def _same_series(suite, form):
    got = suite.h_inf(form)
    want = FractionSeries(suite).h_inf(form)
    assert got.terms == want.terms
    assert_exact(got)
    return got


# -- the per-word steps, verbatim ----------------------------------------------

def per_word_sigma1(suite, form):
    """The former HomotopySuite.sigma1: (L, L sigma1(form)), word by word."""
    chart = suite.chart
    reads = []
    for key, coeff in form.terms.items():
        coeffs, legs = _leg_split(chart, key)
        if not legs:
            continue
        den, image = _suite_stratum(suite, legs).sigma1_image(chart, legs)
        if not image:
            continue
        if sum(a & 1 for a in coeffs) & 1:      # parity bits of the codes
            coeff = -coeff
        reads.append((coeffs, coeff, den, image))
    L = lcm(*(r[2] for r in reads))
    out = LocalForm(chart)
    terms = out.terms
    for coeffs, coeff, den, image in reads:
        if den != L:
            coeff *= L // den
        for target, n in image:
            _add(terms, coeffs + target, coeff * n)
    return L, out


def _same_steps(suite, form):
    """The grouped sigma1 and d0 against the per-word route on ``form`` and
    on every round of its series; returns the number of rounds."""
    cur = form
    rounds = 0
    while not cur.is_zero():
        L, got = on_form(suite.sigma1, cur)
        want_L, want = per_word_sigma1(suite, cur)
        assert L == want_L and got.terms == want.terms
        assert_exact(got)
        cur = on_form(suite.d0, got)
        assert cur.terms == horizontal(got, legs=False).terms
        assert_exact(cur)
        rounds += 1
        assert rounds <= 10 * (suite.chart.jet_cutoff + suite.chart.dim + 2)
    return rounds


def _suite_forms(dim):
    """A suite on the dim-d suite chart with a ghost, and 48 seeded forms
    on it with Fraction coefficients (the generator's rationals, some
    scaled by 1/7 or 5/6); on top degree each is the input h_horizontal
    gives h_inf."""
    ch = suite_chart(dim=dim, nfields=2, ghost_field=True)
    gen = FormGenerator(ch, seed=40 + dim)
    scale = random.Random(dim)
    forms = []
    for i in range(48):
        w = gen.form(1 + i % 3, i % (dim + 1), nterms=3)
        w = w * scale.choice([1, Fraction(1, 7), Fraction(5, 6)])
        if i % (dim + 1) == dim and not w.is_zero():
            w = w - interior_euler(w)
        forms.append(w)
    return HomotopySuite(ch), forms


def _four_leg_word(coeff):
    """du0_,11 du1_,00 dc_,0 dc_,0 dx0 on the 2-d suite chart with a ghost."""
    ch = suite_chart(dim=2, nfields=2, ghost_field=True)
    u0, u1, c = (ch.by_name(n).fid for n in ("u0", "u1", "c"))
    return LocalForm.from_word(ch, (('v', u0, (0, 2)), ('v', u1, (2, 0)), ('v', c, (1, 0)),
                                    ('v', c, (1, 0)), ('h', 0)), coeff)


# -- the series ----------------------------------------------------------------

@SEEDED
@given(forms().map(lambda f: f.components(lambda w: f.key_vdeg(w) <= 4)))
def test_h_inf_matches_fraction_series_on_splice_forms(form):
    """The seeded words of test_splice, with at most four legs per word
    (a fifth leg can take a minute: ROADMAP item 7)."""
    _same_series(get_suite(form.chart), form)


@pytest.mark.parametrize("dim", [2, 3])
def test_h_inf_matches_fraction_series_on_suite_forms(dim):
    suite, forms = _suite_forms(dim)
    assert sum(not _same_series(suite, w).is_zero() for w in forms) > 30


@pytest.mark.parametrize("coeff", [1, Fraction(2, 3)])
def test_h_inf_matches_fraction_series_on_the_four_leg_word(coeff):
    w = _four_leg_word(coeff)
    assert len(_same_series(HomotopySuite(w.chart), w).terms) > 100


@pytest.mark.parametrize("name", THEORIES)
def test_h_inf_matches_fraction_series_on_d_v_L(name):
    T = load_theory(name)
    dvL = d_v(T.L)
    _same_series(T.suite, dvL)
    _same_series(T.suite, dvL - interior_euler(dvL))


@pytest.mark.parametrize("dim", [2, 3])
def test_grouped_steps_match_per_word_steps_on_suite_forms(dim):
    suite, forms = _suite_forms(dim)
    assert sum(_same_steps(suite, w) for w in forms) > 60


def test_grouped_steps_match_per_word_steps_on_the_four_leg_word():
    """Its coefficient word is empty, so d0 kills sigma1 of it: one round,
    whose sigma1 reads one leg word and writes over a hundred."""
    w = _four_leg_word(Fraction(2, 3))
    assert _same_steps(HomotopySuite(w.chart), w) == 1


@pytest.mark.parametrize("name", THEORIES)
def test_grouped_steps_match_per_word_steps_on_d_v_L(name):
    T = load_theory(name)
    dvL = d_v(T.L)
    _same_steps(T.suite, dvL)
    _same_steps(T.suite, dvL - interior_euler(dvL))


def _d0_reads(monkeypatch, suite, form):
    """Runs h_inf on ``form`` against the Fraction series, recording the
    coefficient words that horizontal(..., legs=False) differentiates and
    the distinct coefficient words of each d0 round."""
    read, rounds = [], []
    horizontal_of = homotopy.horizontal
    d0 = suite.d0

    def counting_horizontal(f, legs=True):
        if not legs:
            (cw,) = f.terms
            read.append(cw)
        return horizontal_of(f, legs)

    def recording_d0(groups, memo):
        rounds.append({cw for coeffs in groups.values() for cw in coeffs})
        return d0(groups, memo)

    monkeypatch.setattr(homotopy, "horizontal", counting_horizontal)
    monkeypatch.setattr(suite, "d0", recording_d0)
    _same_series(suite, form)
    monkeypatch.undo()
    return read, rounds


def test_each_d0_image_is_taken_once_per_h_inf_call_on_the_four_leg_word(monkeypatch):
    w = _four_leg_word(Fraction(2, 3))
    read, rounds = _d0_reads(monkeypatch, HomotopySuite(w.chart), w)
    assert read == [()] and rounds == [{()}]


def _read_once(read, rounds):
    """Each distinct coefficient word of the rounds was differentiated
    once; returns how many d0 images the rounds would take without the
    memo, and how many they take."""
    distinct = set().union(*rounds)
    assert sorted(read) == sorted(distinct)
    return sum(map(len, rounds)), len(distinct)


@pytest.mark.parametrize("top", [False, True])
def test_each_d0_image_is_taken_once_per_h_inf_call_on_d_v_L(monkeypatch, top):
    """d_v L of Yang-Mills, and d_v L - I d_v L, the input that
    h_horizontal gives h_inf."""
    T = load_theory("yang_mills_su2")
    form = d_v(T.L)
    if top:
        form = form - interior_euler(form)
    _read_once(*_d0_reads(monkeypatch, T.suite, form))


@pytest.mark.parametrize("dim", [2, 3])
def test_each_d0_image_is_taken_once_per_h_inf_call_on_suite_forms(monkeypatch, dim):
    """On the seeded suite forms coefficient words recur across the rounds
    of one call, and are still differentiated once."""
    suite, forms = _suite_forms(dim)
    per_round = once = 0
    for w in forms:
        a, b = _read_once(*_d0_reads(monkeypatch, suite, w))
        per_round += a
        once += b
    assert per_round > once > 100, (per_round, once)


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
            L, cur = on_form(suite.sigma1, on_form(suite.d0, cur))
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
