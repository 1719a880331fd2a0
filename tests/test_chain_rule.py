"""The chain rule through function atoms 'f' and fiber integrals 'F', shared
by the total derivative and the vertical differential, checked against the
bicomplex laws on seeded random words.

Function arguments mix dynamic, parameter and coordinate jets and '0'; the
words also carry ghost jets and ghost legs.  Function arguments are even:
the engine never applies a function symbol to a ghost (a BV or BFV chart
keeps the base fields as arguments), and for an odd argument the formal
chain rule does not square to zero.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from varcalc.algebra import LocalForm, d_h, d_v, total_derivative
from varcalc.chart import PARAM, Chart

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def _chart():
    ch = Chart(2, jet_cutoff=4)
    ch.add_coordinates()                          # x0, x1
    ch.add_component("u")                         # dynamic, even
    ch.add_component("w")                         # dynamic, even
    ch.add_component("c", ghost=1)                # dynamic ghost, odd
    ch.add_component("xi", kind=PARAM)            # symmetry parameter
    ch.add_function("g", arity=2)
    ch.add_function("V", arity=1)
    return ch


CH = _chart()
X0, X1, U, W, C, XI = range(6)
G, V = 0, 1
MIDX = [(0, 0), (1, 0), (0, 1)]

ARGS = [('j', fid, m) for fid in (U, W, XI) for m in MIDX] + \
    [('j', X0, (0, 0)), ('j', X1, (0, 0)), ('0',)]
JETS = [('j', fid, m) for fid in (U, W, C, XI, X1) for m in MIDX]
LEGS = [('v', fid, m) for fid in (U, C) for m in MIDX]

dords = st.tuples(st.integers(0, 1), st.integers(0, 1))
apps = st.one_of(
    st.builds(lambda d, a, b: ('f', G, d, (a, b)),
              dords, st.sampled_from(ARGS), st.sampled_from(ARGS)),
    st.builds(lambda d, a: ('f', V, (d,), (a,)),
              st.integers(0, 1), st.sampled_from(ARGS)))
fibers = st.builds(lambda k, inner: ('F', k, tuple(sorted(inner))),
                   st.integers(0, 1), st.lists(apps, min_size=1, max_size=2))
terms = st.tuples(
    st.lists(st.one_of(apps, fibers), min_size=1, max_size=2),
    st.lists(st.sampled_from(JETS), max_size=2),
    st.lists(st.sampled_from(LEGS), max_size=1),
    st.lists(st.sampled_from([('h', 0), ('h', 1)]), max_size=1),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))
forms = st.lists(terms, min_size=1, max_size=3)


def _form(spec):
    out = LocalForm(CH)
    for fns, jets, legs, hs, coeff in spec:
        out.add_word(fns + jets + legs + hs, Fraction(coeff))
    return out


@SEEDED
@given(forms)
def test_d_v_squares_to_zero(spec):
    assert d_v(d_v(_form(spec))).is_zero()


@SEEDED
@given(forms)
def test_d_h_squares_to_zero(spec):
    assert d_h(d_h(_form(spec))).is_zero()


@SEEDED
@given(forms)
def test_d_h_and_d_v_anticommute(spec):
    a = _form(spec)
    assert (d_h(d_v(a)) + d_v(d_h(a))).is_zero()


@SEEDED
@given(forms, st.integers(0, 1))
def test_total_derivative_commutes_with_d_v(spec, mu):
    a = _form(spec)
    assert total_derivative(d_v(a), mu) == d_v(total_derivative(a, mu))


def test_words_reach_every_chain_rule_branch():
    """A parameter argument moves under D_mu only, a coordinate argument
    differentiates to 1, a dynamic argument moves under both."""
    z = (0, 0)
    app = ('f', G, (0, 0), (('j', XI, z), ('j', X0, z)))
    a = LocalForm.from_word(CH, (app,))
    assert d_v(a).is_zero()
    assert total_derivative(a, 0) == LocalForm.from_word(
        CH, (('f', G, (1, 0), app[3]), ('j', XI, (1, 0)))) + LocalForm.from_word(
        CH, (('f', G, (0, 1), app[3]),))
    fib = ('F', 0, (('f', V, (0,), (('j', U, z),)),))
    b = LocalForm.from_word(CH, (fib,))
    assert d_v(b) == LocalForm.from_word(
        CH, (('F', 1, (('f', V, (1,), (('j', U, z),)),)), ('v', U, z)))
