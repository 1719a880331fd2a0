"""Operator suite: differentials, Euler operators, homotopies, cone,
prolongation, insertion, Lie derivative."""

from fractions import Fraction

import pytest

from varcalc.chart import Chart, GradingError, NotConstant
from varcalc.algebra import LocalForm, d_h, d_v, midx_zero, zero_star
from varcalc.euler import (
    EvolutionaryField, exterior_euler, insert, interior_euler, lie_derivative,
)
from varcalc.homotopy import bruteforce_dexactness, get_suite
from varcalc.randforms import suite_chart, FormGenerator


# the horizontal cone operators, moved here verbatim from HomotopySuite,
# which has no other caller for them

def cone_d(suite, pair):
    a, b = pair
    suite._check_constant(a)
    return (-d_h(a), d_h(b) + a)


def cone_h(suite, pair):
    a, b = pair
    suite._check_constant(a)
    return (zero_star(b), suite.h_zero(b))


@pytest.fixture(scope="module")
def ch():
    return suite_chart(dim=2, nfields=2, ghost_field=True)


@pytest.fixture(scope="module")
def suite(ch):
    return get_suite(ch)


@pytest.fixture()
def gen(ch):
    return FormGenerator(ch, seed=9, max_order=2, max_degree=2)


def test_dh_definition(ch):
    u = ch.by_name("u0").fid
    z = midx_zero(2)
    f = LocalForm.from_word(ch, (('j', u, z),))
    df = d_h(f)
    expect = (LocalForm.from_word(ch, (('j', u, (1, 0)), ('h', 0)))
              + LocalForm.from_word(ch, (('j', u, (0, 1)), ('h', 1))))
    assert (df - expect).is_zero()


def test_dv_leibniz_and_constants(ch):
    u = ch.by_name("u0").fid
    z = midx_zero(2)
    f = LocalForm.from_word(ch, (('j', u, z), ('j', u, z)))
    dv = d_v(f)
    expect = LocalForm.from_word(ch, (('j', u, z), ('v', u, z)), 2)
    assert (dv - expect).is_zero()
    x = ch.by_name("x0").fid
    const = LocalForm.from_word(ch, (('j', x, z), ('h', 1)))
    assert d_v(const).is_zero()


def test_anticommutation_randomized(ch, gen):
    for _ in range(200):
        w = gen.form(gen.rng.randint(0, 2), gen.rng.randint(0, 2), nterms=2)
        assert (d_h(d_v(w)) + d_v(d_h(w))).is_zero()


def test_interior_euler_single_ibp(ch):
    # I(dphi_mu ^ vol * c) = -D_mu(c) dphi ^ vol  for constant-free c
    u, v = ch.by_name("u0").fid, ch.by_name("u1").fid
    z = midx_zero(2)
    c = LocalForm.from_word(ch, (('j', v, z), ('j', v, z)))
    w = c.wedge(LocalForm.from_word(ch, (('v', u, (1, 0)), ('h', 0), ('h', 1))))
    I = interior_euler(w)
    from varcalc.algebra import total_derivative
    expect = (-total_derivative(c, 0)).wedge(
        LocalForm.from_word(ch, (('v', u, z), ('h', 0), ('h', 1))))
    assert (I - expect).is_zero()


def test_interior_euler_grading_error(ch, gen):
    w = gen.form(1, 1, nterms=1)
    if not w.is_zero():
        with pytest.raises(GradingError):
            interior_euler(w)
    w0 = gen.form(0, 2, nterms=1)
    if not w0.is_zero():
        with pytest.raises(GradingError):
            interior_euler(w0)


def test_exterior_euler_nilpotent(ch, gen):
    for _ in range(60):
        w = gen.form(0, 2, nterms=2)
        if w.is_zero():
            continue
        E = exterior_euler(w)
        if E.is_zero():
            continue
        assert exterior_euler(E).is_zero()
        # E(d alpha) = 0
        a = gen.form(0, 1, nterms=2)
        da = d_h(a)
        if not da.is_zero():
            assert exterior_euler(da).is_zero()


def test_euler_projector_kills_exact_and_constants(ch, suite, gen):
    for _ in range(60):
        zform = gen.form(0, 1, nterms=2)
        dz = d_h(zform)
        if not dz.is_zero():
            assert suite.euler_projector(dz).is_zero()
    x = ch.by_name("x0").fid
    const = LocalForm.from_word(ch, (('j', x, midx_zero(2)), ('h', 0), ('h', 1)))
    assert suite.euler_projector(const).is_zero()
    # P0 = P + p*0* is idempotent
    for _ in range(40):
        w = gen.form(0, 2, nterms=2)
        if w.is_zero():
            continue
        p0 = suite.euler_projector0(w)
        assert (suite.euler_projector0(p0) - p0).is_zero()


def test_h_horizontal_grading_error(suite, gen):
    w = gen.form(0, 1, nterms=1)
    if not w.is_zero():
        with pytest.raises(GradingError):
            suite.h_horizontal(w)


def test_takens_acyclicity_witness(ch, suite, gen):
    # for d-closed forms constructed as d(beta): d h>(d beta) = d beta
    for _ in range(60):
        beta = gen.form(gen.rng.randint(1, 2), gen.rng.randint(0, 1), nterms=2)
        db = d_h(beta)
        if db.is_zero():
            continue
        rec = d_h(suite.h_horizontal(db))
        q = db.grading()[1]
        if q == ch.dim:
            rec = rec + interior_euler(db)
        assert (rec - db).is_zero()


def test_bruteforce_oracle_crosschecks_h(ch, suite):
    gen = FormGenerator(ch, seed=21, max_order=1, max_degree=1)
    checked = 0
    for _ in range(40):
        w = gen.form(1, 2, nterms=1)
        if w.is_zero():
            continue
        t = w - interior_euler(w)
        if t.is_zero():
            continue
        assert (d_h(suite.h_horizontal(w)) - t).is_zero()
        assert bruteforce_dexactness(t, extra_rounds=2)
        checked += 1
    assert checked >= 10


def test_cone_identities(ch, suite, gen):
    x0 = ch.by_name("x0").fid
    z = midx_zero(2)
    for _ in range(100):
        # cone pairs are graded: a in Omega^{q+1}(M), b in Omega^{0,q}
        qb = gen.rng.randint(0, ch.dim - 1)
        deg = gen.rng.randint(0, 2)
        aword = tuple([('j', x0, z)] * deg
                      + [('h', m) for m in sorted(gen.rng.sample(range(2), qb + 1))])
        a = LocalForm.from_word(ch, aword, gen.rational())
        b = gen.form(0, qb, nterms=2)
        pair = (a, b)
        dd = cone_d(suite, cone_d(suite, pair))
        assert dd[0].is_zero() and dd[1].is_zero()
        # cone homotopy identity d_C h_C + h_C d_C + i(0 (+) P) = id
        ha, hb = cone_h(suite, pair)
        d_h_pair = cone_d(suite, (ha, hb))
        h_d_pair = cone_h(suite, cone_d(suite, pair))
        q = b.grading()[1] if not b.is_zero() else 0
        Pb = suite.euler_projector(b) if (not b.is_zero() and q == ch.dim) \
            else LocalForm.zero(ch)
        ra = d_h_pair[0] + h_d_pair[0] - a
        rb = d_h_pair[1] + h_d_pair[1] + Pb - b
        assert ra.is_zero() and rb.is_zero()


def test_cone_not_constant(ch, suite, gen):
    b = gen.form(0, 1, nterms=1)
    u = ch.by_name("u0").fid
    a = LocalForm.from_word(ch, (('j', u, midx_zero(2)), ('h', 0)))
    with pytest.raises(NotConstant):
        cone_d(suite, (a, b))


def test_cone_trivial_cases(ch, suite):
    z = LocalForm.zero(ch)
    x0 = ch.by_name("x0").fid
    c = LocalForm.from_word(ch, (('j', x0, midx_zero(2)),))
    da, db = cone_d(suite, (z, c))
    assert da.is_zero() and (db - d_h(c) - c * 0).is_zero()
    ha, hb = cone_h(suite, (c, z))
    assert ha.is_zero() and hb.is_zero()


def test_prolong_insert_lie(ch, gen):
    # rho(xi)u0 = u1^2 as a plain evolutionary field
    u0, u1 = ch.by_name("u0").fid, ch.by_name("u1").fid
    z = midx_zero(2)
    rho = EvolutionaryField(ch, {
        u0: LocalForm.from_word(ch, (('j', u1, z), ('j', u1, z)))})
    # i_rho(dv u0) = rho^{u0}
    leg = LocalForm.from_word(ch, (('v', u0, z),))
    assert (insert(rho, leg) - rho.components[u0]).is_zero()
    # prolongation commutes with total derivatives: [L_rho, d] = 0
    for _ in range(100):
        w = gen.form(gen.rng.randint(0, 1), gen.rng.randint(0, 1), nterms=2)
        lhs = lie_derivative(rho, d_h(w))
        rhs = d_h(lie_derivative(rho, w))
        assert (lhs - rhs).is_zero()
    # i_rho i_rho = 0 for a ghost-0 action
    for _ in range(60):
        w = gen.form(2, gen.rng.randint(0, 2), nterms=2)
        assert insert(rho, insert(rho, w)).is_zero()
    # L_rho(constant) = 0
    x0 = ch.by_name("x0").fid
    const = LocalForm.from_word(ch, (('j', x0, z), ('h', 0)))
    assert lie_derivative(rho, const).is_zero()


def test_special_homotopy_mode(ch, suite, gen):
    # the post-processed homotopy h d h satisfies the same identities
    for _ in range(20):
        w = gen.form(1, ch.dim, nterms=2)
        if w.is_zero():
            continue
        hs = suite.h_horizontal(d_h(suite.h_horizontal(w)))
        assert (w - d_h(hs) - interior_euler(w)).is_zero()
