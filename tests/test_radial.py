"""The radial contractions h_vertical and poincare_x, the one-pass
resolve_fiber_integrals and the d1 matrices of the strata, against the
code they replaced.

The oracle below is that code verbatim: h_vertical and poincare_x with
their own Koszul sign loops and a weight counted on the input word,
resolve_fiber_integrals restarting its scan after every resolution, and
the suite's d1.  The new code must give the same term dicts with exact
coefficients, and raise where the oracle raises, on seeded forms of the
2-d and 3-d suite charts of test_splice: function atoms with dynamical
arguments (one and two per word), odd ghost jets, repeated even ghost
legs, named constants, and coordinate-polynomial forms of every degree.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from varcalc.algebra import (
    LocalForm, apply_derivation, atom_parity, d_h, iter_midx, midx_shift,
    midx_zero, prepend_atom,
)
from varcalc.chart import COORD, DYNAMIC, Chart, NonScalableTerm
from varcalc.euler import exterior_euler
from varcalc.homotopy import get_suite, resolve_fiber_integrals
from varcalc.randforms import FormGenerator
from conftest import assert_exact, image_strata
from test_splice import C, CHARTS, G_CONST, G_FN, SEEDED, U0, U1, V_FN, forms


# ---------------------------------------------------------------------------
# the oracle: the code before the radial contraction, verbatim
# ---------------------------------------------------------------------------

def oracle_h_vertical(form):
    chart = form.chart
    out = LocalForm(chart)
    for key, coeff in form.terms.items():
        atoms = list(key)
        vpos = [i for i, a in enumerate(atoms) if a[0] == 'v']
        if not vpos:
            continue
        p = len(vpos)
        a_count = 0
        scaled_f = []
        for a in atoms:
            if a[0] == 'j' and chart.kind(a[1]) == DYNAMIC:
                a_count += 1
            elif a[0] == 'f' and any(
                    x[0] == 'j' and chart.kind(x[1]) == DYNAMIC for x in a[3]):
                scaled_f.append(a)
            elif a[0] == 'F':
                raise NonScalableTerm(
                    "vertical homotopy applied to a form already carrying "
                    "a fiber-integral factor")
        k = a_count + (p - 1)
        for i in vpos:
            sgn = 1
            for a in atoms[:i]:
                if atom_parity(chart, a):
                    sgn = -sgn
            leg = atoms[i]
            word = list(atoms)
            word[i] = ('j', leg[1], leg[2])
            if scaled_f:
                word = [a for a in word if a not in scaled_f]
                word.append(('F', k, tuple(sorted(scaled_f))))
                out._accum(tuple(word), coeff * sgn)
            else:
                out._accum(tuple(word), coeff * sgn * Fraction(1, k + 1))
    return oracle_resolve_fiber_integrals(out)


def oracle_poincare_x(form):
    chart = form.chart
    out = LocalForm(chart)
    for key, coeff in form.terms.items():
        atoms = list(key)
        hpos = [i for i, a in enumerate(atoms) if a[0] == 'h']
        if not hpos:
            continue
        q = len(hpos)
        degx = sum(1 for a in atoms if a[0] == 'j' and chart.kind(a[1]) == COORD)
        for i in hpos:
            sgn = 1
            for a in atoms[:i]:
                if atom_parity(chart, a):
                    sgn = -sgn
            mu = atoms[i][1]
            xfid = next(c.fid for c in chart.components
                        if c.kind == COORD and c.coord_dir == mu)
            word = atoms[:i] + [('j', xfid, midx_zero(chart.dim))] + atoms[i + 1:]
            out._accum(tuple(word), coeff * sgn * Fraction(1, q + degx))
    return out


def oracle_resolve_fiber_integrals(form: LocalForm):
    chart = form.chart
    changed = True
    while changed:
        changed = False
        groups = {}
        for key, coeff in form.terms.items():
            fpos = [i for i, a in enumerate(key) if a[0] == 'F']
            if len(fpos) != 1:
                continue
            node = key[fpos[0]]
            k, inner = node[1], node[2]
            if k != 0 or len(inner) != 1:
                continue
            app = inner[0]
            sym, dords, args = app[1], app[2], app[3]
            rest = key[:fpos[0]] + key[fpos[0] + 1:]
            for slot, arg in enumerate(args):
                if dords[slot] < 1 or arg[0] != 'j':
                    continue
                arg_atom = ('j', arg[1], arg[2])
                if arg_atom not in rest:
                    continue
                w = list(rest)
                w.remove(arg_atom)
                base = tuple(d - (1 if s == slot else 0) for s, d in enumerate(dords))
                gkey = (tuple(w), sym, base, args, coeff)
                groups.setdefault(gkey, {})[slot] = key
        for (w, sym, base, args, coeff), slots in groups.items():
            needed = [s for s, a in enumerate(args) if a[0] == 'j']
            if not needed or any(s not in slots for s in needed):
                continue
            if any(key not in form.terms or form.terms[key] != coeff
                   for key in slots.values()):
                continue
            for key in set(slots.values()):
                form.terms.pop(key, None)
            out = LocalForm(chart)
            out._accum(w + (('f', sym, base, args),), coeff)
            zargs = tuple(('0',) if a[0] == 'j' else a for a in args)
            out._accum(w + (('f', sym, base, zargs),), -coeff)
            form = form + out
            changed = True
            break
    return form


def oracle_d1(form):
    chart = form.chart
    out = LocalForm(chart)
    for mu in range(chart.dim):
        def image(atom, mu=mu):
            if atom[0] == 'v':
                return LocalForm.from_word(chart, (('v', atom[1], midx_shift(atom[2], mu)),))
            return None
        shifted = apply_derivation(form, 0, image)
        out = out + prepend_atom(shifted, ('h', mu))
    return out


def same(got, want):
    assert got.terms == want.terms
    assert_exact(got)


def same_or_raise(op, oracle, form):
    """op and oracle on copies of form: equal terms, or the same error."""
    try:
        want = oracle(LocalForm(form.chart, dict(form.terms)))
    except NonScalableTerm:
        with pytest.raises(NonScalableTerm):
            op(form)
        return
    same(op(form), want)


# ---------------------------------------------------------------------------
# seeded forms
# ---------------------------------------------------------------------------

def _pieces(dim):
    ch = CHARTS[dim]
    n = dim
    u0, u1, c, g = (n + k for k in (U0, U1, C, G_CONST))
    z = midx_zero(n)
    midx = [m for order in range(3) for m in iter_midx(n, order)]
    coords = [('j', mu, z) for mu in range(n)]
    dyn = [('j', f, m) for f in (u0, u1) for m in midx]
    args = dyn[:2 * (n + 1)] + coords[:1] + [('0',)]
    dords = st.integers(0, 1)
    dyn_app = st.one_of(
        st.builds(lambda d, a: ('f', V_FN, (d,), (a,)), dords, st.sampled_from(dyn[:n + 1])),
        st.builds(lambda d1, d2, a, b: ('f', G_FN, (d1, d2), (a, b)),
                  dords, dords, st.sampled_from(dyn[:n + 1]), st.sampled_from(args)))
    return ch, {
        "even": st.sampled_from(dyn + coords),
        "ghost": st.sampled_from([('j', c, m) for m in midx]),
        "const": st.sampled_from([('j', g, z), ('ji', g)]),
        "dyn_app": dyn_app,
        "odd_leg": st.sampled_from([('v', f, m) for f in (u0, u1) for m in midx]),
        "ghost_leg": st.sampled_from([('v', c, m) for m in midx[:n + 1]]),
        "h": st.sampled_from([('h', mu) for mu in range(n)]),
        "coord": st.sampled_from(coords),
    }


PIECES = {dim: _pieces(dim) for dim in CHARTS}
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
dims = st.sampled_from(sorted(CHARTS))


@st.composite
def vertical_forms(draw):
    """Words of even and ghost (odd) jets, named constants, zero to two
    function atoms with dynamical arguments, one or more odd legs or
    repeated even ghost legs, and horizontal legs."""
    ch, a = PIECES[draw(dims)]
    out = LocalForm(ch)
    for _ in range(draw(st.integers(1, 4))):
        word = draw(st.lists(a["even"], max_size=3))
        word += draw(st.lists(a["ghost"], max_size=2))
        word += draw(st.lists(a["const"], max_size=1))
        word += draw(st.lists(a["dyn_app"], max_size=2))
        word += draw(st.lists(a["odd_leg"], max_size=2))
        word += draw(st.lists(a["ghost_leg"], max_size=3))
        word += draw(st.lists(a["h"], max_size=2))
        out._accum(tuple(draw(st.permutations(word))), draw(coeffs))
    return out


@st.composite
def coordinate_forms(draw):
    """Coordinate polynomials times named constants and dx's, every word
    of one horizontal degree q in 0..n."""
    ch, a = PIECES[draw(dims)]
    q = draw(st.integers(0, ch.dim))
    out = LocalForm(ch)
    for _ in range(draw(st.integers(1, 4))):
        word = draw(st.lists(a["coord"], max_size=4))
        word += draw(st.lists(a["const"], max_size=2))
        word += [('h', mu) for mu in draw(st.permutations(range(ch.dim)))[:q]]
        out._accum(tuple(draw(st.permutations(word))), draw(coeffs))
    return out


@st.composite
def fiber_patterns(draw):
    """Sums of gradient patterns sum_i arg_i F^{(d+e_i)}(l*args) over a
    common word, some with a slot missing or a coefficient changed, so
    that some groups resolve and some do not."""
    ch, a = PIECES[draw(dims)]
    out = LocalForm(ch)
    for _ in range(draw(st.integers(1, 4))):
        app = draw(a["dyn_app"])
        rest = draw(st.lists(a["even"], max_size=2))
        rest += draw(st.lists(a["odd_leg"], max_size=1))
        rest += draw(st.lists(a["h"], max_size=1))
        c = draw(coeffs)
        sym, base, args = app[1], app[2], app[3]
        for slot, arg in enumerate(args):
            if arg[0] != 'j' or not draw(st.integers(0, 5)):
                continue
            d = base[:slot] + (base[slot] + 1,) + base[slot + 1:]
            fiber = ('F', 0, (('f', sym, d, args),))
            cs = c if draw(st.integers(0, 5)) else c + 1
            out._accum(tuple(rest) + (('j', arg[1], arg[2]), fiber), cs)
    return out


# ---------------------------------------------------------------------------
# the tests
# ---------------------------------------------------------------------------

@SEEDED
@given(vertical_forms())
def test_h_vertical(form):
    same_or_raise(get_suite(form.chart).h_vertical, oracle_h_vertical, form)


@SEEDED
@given(forms())
def test_h_vertical_on_splice_forms(form):
    """The forms of test_splice also hold fiber integrals, which raise
    NonScalableTerm next to a leg."""
    same_or_raise(get_suite(form.chart).h_vertical, oracle_h_vertical, form)


@SEEDED
@given(coordinate_forms())
def test_poincare_x(form):
    same(get_suite(form.chart).poincare_x(form), oracle_poincare_x(form))


@settings(SEEDED, max_examples=200)
@given(coordinate_forms())
def test_poincare_x_de_rham_identity(form):
    """a = d P a + P d a + (the constant 0-form part of a) on coordinate
    polynomials with named-constant coefficients, of every form degree:
    poincare_x on nonzero forms, which no bundled cocycle reaches."""
    ch = form.chart
    P = get_suite(ch).poincare_x
    const = LocalForm(ch, {k: c for k, c in form.terms.items() if not any(
        a[0] == 'h' or (a[0] == 'j' and ch.kind(a[1]) == COORD) for a in k)})
    assert (form - d_h(P(form)) - P(d_h(form)) - const).is_zero()


@SEEDED
@given(fiber_patterns())
def test_resolve_fiber_integrals(form):
    copy = LocalForm(form.chart, dict(form.terms))
    same(resolve_fiber_integrals(form), oracle_resolve_fiber_integrals(copy))


@pytest.mark.parametrize("dim", sorted(CHARTS))
def test_resolve_groups_sharing_a_word(dim):
    """u0 u1 G^(1,1) belongs to two complete groups, of u1 G^(0,1) and of
    u0 G^(1,0); the first resolves, and the second, missing that word,
    stays formal."""
    ch = CHARTS[dim]
    z = midx_zero(dim)
    a, b = ('j', dim + U0, z), ('j', dim + U1, z)

    def fiber(d):
        return ('F', 0, (('f', G_FN, d, (a, b)),))

    form = LocalForm(ch)
    for word in ((a, b, fiber((1, 1))), (b, b, fiber((0, 2))), (a, a, fiber((2, 0)))):
        form._accum(word + (('h', 0),), Fraction(2, 3))
    copy = LocalForm(ch, dict(form.terms))
    got = resolve_fiber_integrals(form)
    same(got, oracle_resolve_fiber_integrals(copy))
    assert sum(1 for key in got.terms if any(x[0] == 'F' for x in key)) == 1


def test_gradient_pattern():
    """sum_i q_i dV/dq_i(l q) dq ^ dx, as in test_expr, and the same
    pattern with a function atom and a second potential in the word."""
    ch = Chart(1)
    ch.add_coordinates()
    q = [ch.add_component(f"q{i}").fid for i in range(2)]
    V = ch.add_function("V", arity=2).sym_id
    W = ch.add_function("W", arity=1).sym_id
    z = midx_zero(1)
    qs = (('j', q[0], z), ('j', q[1], z))
    L = LocalForm.from_word(ch, (('f', V, (0, 0), qs), ('h', 0)))
    pot = LocalForm.from_word(ch, (('f', W, (0,), qs[:1]),))
    suite = get_suite(ch)
    for form in (L, L + L.wedge(pot), L.wedge(pot)):
        E = exterior_euler(form)
        same(suite.h_vertical(E), oracle_h_vertical(E))
    # the plain pattern resolves to V(q) - V(0): no fiber integral is left
    P = suite.h_vertical(exterior_euler(L))
    assert P.terms and all(a[0] != 'F' for key in P.terms for a in key)


@pytest.mark.parametrize("dim", sorted(CHARTS))
def test_strata_d1_is_d_h_on_leg_words(dim):
    """The stratum of every leg word that h_horizontal reads on seeded
    forms holds the matrices of d1."""
    ch = CHARTS[dim]
    suite = get_suite(ch)
    gen = FormGenerator(ch, seed=dim)
    for i in range(12):
        suite.h_horizontal(gen.form(1 + i % 2, i % (dim + 1), nterms=2))
    strata = image_strata(suite)
    assert strata
    for st_ in strata.values():
        for b in range(dim):        # e builds each degree on first read
            cols, _ntgt = st_.d1(ch, b)
            idx = st_.index[b + 1]
            for w, col in zip(st_.bases[b], cols):
                want = oracle_d1(LocalForm(ch, {w: Fraction(1)}))
                assert {idx[k]: c for k, c in want.terms.items()} == col
