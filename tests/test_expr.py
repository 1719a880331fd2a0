"""Core exact-form layer: normalization, wedge, evaluation, substitution."""

from fractions import Fraction

import pytest

from varcalc.chart import Chart, JetCutoffExceeded, UnassignedSymbol, VarcalcError
from varcalc.algebra import (
    LocalForm, PointAssignment, d_h, d_v, evaluate, iter_midx, midx_zero,
    substitute, total_derivative,
)
from varcalc.randforms import suite_chart, FormGenerator
from conftest import atom_terms


def chart1():
    ch = Chart(2)
    ch.add_coordinates()
    ch.add_component("q")
    ch.add_component("c", ghost=1)
    return ch


def test_repeated_wedge_leg_vanishes():
    ch = chart1()
    q = ch.by_name("q").fid
    z = midx_zero(2)
    w = LocalForm.from_word(ch, (('v', q, z), ('v', q, z), ('h', 0)))
    assert w.is_zero()


def test_horizontal_antisymmetry():
    ch = chart1()
    a = LocalForm.from_word(ch, (('h', 0), ('h', 1)))
    b = LocalForm.from_word(ch, (('h', 1), ('h', 0)))
    assert (a + b).is_zero()
    assert not (a - b).is_zero()


def test_odd_jet_squares_to_zero():
    ch = chart1()
    c = ch.by_name("c").fid
    z = midx_zero(2)
    w = LocalForm.from_word(ch, (('j', c, z), ('j', c, z)))
    assert w.is_zero()
    # but ghost LEGS are even: delta(c) ^ delta(c) survives
    w2 = LocalForm.from_word(ch, (('v', c, z), ('v', c, z)))
    assert not w2.is_zero()


def test_normalize_idempotent_on_random_forms():
    ch = suite_chart(dim=2, nfields=2, ghost_field=True)
    gen = FormGenerator(ch, seed=2, max_order=2, max_degree=3)
    for _ in range(200):
        w = gen.form(gen.rng.randint(0, 2), gen.rng.randint(0, 2), nterms=3)
        again = LocalForm(ch)
        for key, c in w.terms.items():
            again._accum(key, c)
        assert again == w


def test_wedge_graded_commutative_and_associative():
    ch = suite_chart(dim=2, nfields=2, ghost_field=True)
    gen = FormGenerator(ch, seed=3, max_order=1, max_degree=2)
    for _ in range(200):
        a = gen.form(gen.rng.randint(0, 1), gen.rng.randint(0, 1), nterms=2)
        b = gen.form(gen.rng.randint(0, 1), gen.rng.randint(0, 1), nterms=2)
        c = gen.form(gen.rng.randint(0, 1), gen.rng.randint(0, 1), nterms=1)
        if a.is_zero() or b.is_zero():
            continue
        try:
            pa, qa = a.grading()
            ga = a.ghost_degree()
            pb, qb = b.grading()
            gb = b.ghost_degree()
        except Exception:
            continue
        sign = (-1) ** ((pa + qa + ga) * (pb + qb + gb))
        assert (a.wedge(b) - b.wedge(a) * sign).is_zero()
        assert (a.wedge(b).wedge(c) - a.wedge(b.wedge(c))).is_zero()


def test_jet_cutoff_is_an_error():
    ch = Chart(1, jet_cutoff=2)
    ch.add_coordinates()
    q = ch.add_component("q").fid
    f = LocalForm.from_word(ch, (('j', q, (2,)),))
    with pytest.raises(JetCutoffExceeded):
        total_derivative(f, 0)


def test_evaluate_simple_and_unassigned():
    ch = chart1()
    q = ch.by_name("q").fid
    z = midx_zero(2)
    f = LocalForm.from_word(ch, (('j', q, z), ('h', 0)), Fraction(1))
    pt = PointAssignment(ch, jets={(q, z): Fraction(3, 2)}, hlegs={0: Fraction(1)})
    assert evaluate(f, pt) == Fraction(3, 2)
    assert evaluate(LocalForm.zero(ch), PointAssignment(ch)) == 0
    with pytest.raises(UnassignedSymbol):
        evaluate(f, PointAssignment(ch, hlegs={0: 1}))


def test_evaluate_d_squared_randomized():
    ch = suite_chart(dim=2, nfields=1)
    gen = FormGenerator(ch, seed=4, max_order=1, max_degree=2)
    rng = gen.rng
    for _ in range(50):
        w = gen.form(1, 0, nterms=2)
        dd = d_h(d_h(w))
        assert dd.is_zero()
        # randomized evaluation backend agrees
        jets = {(fid, m): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for fid in [ch.by_name("u0").fid]
                for k in range(4) for m in iter_midx(2, k)}
        vlegs = {(ch.by_name("u0").fid, m): Fraction(rng.randint(-3, 3))
                 for k in range(4) for m in iter_midx(2, k)}
        pt = PointAssignment(ch, jets=jets, vlegs=vlegs,
                             hlegs={0: Fraction(1), 1: Fraction(2)})
        assert evaluate(dd, pt) == 0


def test_substitute_zero_and_prolongation():
    ch = chart1()
    q = ch.by_name("q").fid
    z = midx_zero(2)
    f = LocalForm.from_word(ch, (('j', q, z), ('j', q, z), ('h', 0)))
    out = substitute(f, {(q, z): LocalForm.zero(ch)})
    assert out.is_zero()
    # binding extends to derivative jets by total differentiation
    g = LocalForm.from_word(ch, (('j', q, (1, 0)),))
    x = ch.by_name("x0").fid
    xext = LocalForm.from_word(ch, (('j', x, z), ('j', x, z)))  # q := x^2
    out2 = substitute(g, {(q, z): xext})
    expect = LocalForm.from_word(ch, (('j', x, z),), 2)
    assert (out2 - expect).is_zero()


def test_substitute_rewrites_fiber_integral_arguments():
    ch = Chart(1)
    ch.add_coordinates()
    u, w, a = (ch.add_component(nm).fid for nm in ("u", "w", "a"))
    g = ch.add_function("g", arity=2).sym_id
    z = midx_zero(1)
    ju, jw, ja = ('j', u, z), ('j', w, z), ('j', a, z)

    def fint(*apps):
        inner = tuple(sorted(('f', g, (0, 0), args) for args in apps))
        return LocalForm.from_word(ch, (('F', 0, inner),))

    form = fint((ju, ('j', u, (1,))), (jw, ('0',)))
    # u := a renames the jet and its derivative and moves g(a, a_,0) after
    # g(w, 0) in the sorted applications; w := 0 zeroes its slot
    assert substitute(form, {(u, z): LocalForm.from_word(ch, (ja,))}) == \
        fint((ja, ('j', a, (1,))), (jw, ('0',)))
    assert substitute(form, {(w, z): LocalForm.zero(ch)}) == \
        fint((ju, ('j', u, (1,))), (('0',), ('0',)))
    with pytest.raises(VarcalcError, match="plain jet or zero"):
        substitute(form, {(u, z): LocalForm.from_word(ch, (jw, jw))})


def test_scaling_substitution_matches_vertical_homotopy_termwise():
    # lambda-scaled substitution cross-checks the scaling integrand of hv:
    # for a monomial of jet degree k with p legs, hv multiplies by 1/(k+p)
    from varcalc.homotopy import get_suite
    ch = suite_chart(dim=2, nfields=1)
    u = ch.by_name("u0").fid
    z = midx_zero(2)
    suite = get_suite(ch)
    w = LocalForm.from_word(ch, (('j', u, z), ('j', u, z), ('v', u, z), ('h', 0), ('h', 1)))
    hv = suite.h_vertical(w)
    expect = LocalForm.from_word(ch, (('j', u, z),) * 3 + (('h', 0), ('h', 1)),
                                 Fraction(1, 3))
    assert (hv - expect).is_zero()


def test_vertical_homotopy_formal_integrand_and_nonscalable():
    # hv on an opaque potential produces a formal fiber integral; applying
    # hv again to a fiber-carrying coefficient is reported, not guessed
    from varcalc.chart import Chart, NonScalableTerm
    from varcalc.homotopy import get_suite
    import pytest as _pytest
    ch = Chart(1)
    ch.add_coordinates()
    q = ch.add_component("q").fid
    W = ch.add_function("W", arity=1)
    z = midx_zero(1)
    suite = get_suite(ch)
    # q W'(q) dq ^ dx: the scaled integrand l W'(l q) q is not a total
    # lambda-derivative, so the fiber integral stays formal
    w = LocalForm.from_word(ch, (('j', q, z), ('f', W.sym_id, (1,), (('j', q, z),)),
                                 ('v', q, z), ('h', 0)))
    hv = suite.h_vertical(w)
    assert any(a[0] == 'F' for key in atom_terms(hv) for a in key)
    with _pytest.raises(NonScalableTerm):
        suite.h_vertical(hv.wedge(LocalForm.from_word(ch, (('v', q, z),))))


def test_gradient_pattern_resolves_to_potential_difference():
    # sum_i q_i dV/dq_i(l q) integrates to V(q) - V(0)
    from varcalc.chart import Chart
    from varcalc.homotopy import get_suite
    from varcalc.euler import exterior_euler
    ch = Chart(1)
    ch.add_coordinates()
    q = [ch.add_component(f"q{i}").fid for i in range(2)]
    V = ch.add_function("V", arity=2)
    z = midx_zero(1)
    suite = get_suite(ch)
    L = LocalForm.from_word(ch, (('f', V.sym_id, (0, 0),
                                  (('j', q[0], z), ('j', q[1], z))), ('h', 0)))
    P = suite.euler_projector(L)
    expect = L - LocalForm.from_word(ch, (('f', V.sym_id, (0, 0),
                                           (('0',), ('0',))), ('h', 0)))
    assert (P - expect).is_zero()
