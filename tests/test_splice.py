"""The merge kernel of algebra.apply_derivation and algebra.prepend_atom
against the sort-every-word kernel it replaced.

The oracle below is that kernel verbatim: each image word is spliced into
the word and the result is re-sorted by norm_word.  The operators built on
the kernel (d_h with and without legs, d_v, total_derivative, insert) run
once as they are and once with the oracle patched in, and must give the
same terms in the same order with exact coefficients.  The seeded words hold odd legs after
odd atoms, repeated ghost-1 legs, coordinate jets whose derivative is 1,
a named constant next to its inverse, and function atoms and fiber
integrals.
"""

from contextlib import contextmanager, nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from varcalc import algebra, euler
from varcalc.algebra import (
    LocalForm, d_h, d_v, horizontal, iter_midx, midx_zero,
    norm_word, prepend_atom, total_derivative,
)
from varcalc.chart import CONST, JetCutoffExceeded
from varcalc.euler import EvolutionaryField, insert
from varcalc.randforms import suite_chart
from conftest import assert_exact

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=50)


# ---------------------------------------------------------------------------
# the oracle: the kernel before the merge, verbatim
# ---------------------------------------------------------------------------

def _accum(self, atoms, coeff):
    res = norm_word(self.chart, atoms, coeff)
    if res is None:
        return
    key, c = res
    new = self.terms.get(key, 0) + c
    if new:
        self.terms[key] = new
    else:
        self.terms.pop(key, None)


def oracle_apply_derivation(form: LocalForm, parity, image, images=None):
    """Per call, whatever table it is given: ``images`` is ignored."""
    chart = form.chart
    out = LocalForm(chart)
    for key, coeff in form.terms.items():
        left_par = 0
        seen = None
        for i, atom in enumerate(key):
            if atom != seen:    # derive each distinct atom once per run
                run = 1
                j = i + 1
                while j < len(key) and key[j] == atom:
                    run += 1
                    j += 1
                im = image(atom)
                if im is not None and im.terms:
                    sgn = -1 if (parity and left_par & 1) else 1
                    for ikey, ic in im.terms.items():
                        word = key[:i] + ikey + key[i + 1:]
                        _accum(out, word, coeff * ic * sgn * run)
                seen = atom
            left_par += atom & 1     # the parity bit of the atom's code
    return out


def oracle_prepend_atom(form: LocalForm, atom):
    out = LocalForm(form.chart)
    for key, coeff in form.terms.items():
        _accum(out, form.chart.encode_word((atom,)) + key, coeff)
    return out


@contextmanager
def oracle_kernel():
    saved = (algebra.apply_derivation, algebra.prepend_atom, euler.apply_derivation)
    algebra.apply_derivation = euler.apply_derivation = oracle_apply_derivation
    algebra.prepend_atom = oracle_prepend_atom
    try:
        yield
    finally:
        algebra.apply_derivation, algebra.prepend_atom, euler.apply_derivation = saved


def same(op, *args):
    """op(*args) with the merge kernel and with the oracle: identical ordered
    items, every coefficient exact (assert_exact)."""
    got = op(*args)
    with oracle_kernel():
        want = op(*args)
    assert list(got.terms.items()) == list(want.terms.items())
    assert_exact(got)


# ---------------------------------------------------------------------------
# seeded words on the 2-d and 3-d suite charts
# ---------------------------------------------------------------------------

def _chart(dim):
    ch = suite_chart(dim, nfields=2, ghost_field=True)    # x.., u0, u1, c
    ch.add_component("g", kind=CONST)
    ch.add_function("V", arity=1)
    ch.add_function("G", arity=2)
    return ch


CHARTS = {dim: _chart(dim) for dim in (2, 3)}
U0, U1, C, G_CONST = 0, 1, 2, 3     # offsets past the coordinates
V_FN, G_FN = 0, 1


def _atoms(ch):
    n = ch.dim
    u0, u1, c, g = (n + k for k in (U0, U1, C, G_CONST))
    z = midx_zero(n)
    midx = [m for order in range(3) for m in iter_midx(n, order)]
    coords = [('j', mu, z) for mu in range(n)]
    even = [('j', f, m) for f in (u0, u1) for m in midx] + coords
    args = [('j', f, m) for f in (u0, u1) for m in midx[:n + 1]] + coords + [('0',)]
    dords = st.integers(0, 1)
    apps = st.one_of(
        st.builds(lambda d, a: ('f', V_FN, (d,), (a,)), dords, st.sampled_from(args)),
        st.builds(lambda d1, d2, a, b: ('f', G_FN, (d1, d2), (a, b)),
                  dords, dords, st.sampled_from(args), st.sampled_from(args)))
    fibers = st.builds(lambda k, inner: ('F', k, tuple(sorted(inner))),
                       st.integers(0, 1), st.lists(apps, min_size=1, max_size=2))
    return {
        "even": st.sampled_from(even),
        "ghost": st.sampled_from([('j', c, m) for m in midx]),
        "const": st.sampled_from([('j', g, z), ('ji', g)]),
        "fn": st.one_of(apps, fibers),
        "odd_leg": st.sampled_from([('v', f, m) for f in (u0, u1) for m in midx]),
        "ghost_leg": st.sampled_from([('v', c, m) for m in midx[:n + 1]]),
        "h": st.sampled_from([('h', mu) for mu in range(n)]),
    }


ATOMS = {dim: _atoms(ch) for dim, ch in CHARTS.items()}
coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def forms(draw, dim=None, legs=True, ghost_free=False):
    """A form on a suite chart: words of even jets, ghost jets (odd), named
    constants, function atoms, odd legs, repeated ghost-1 legs and
    horizontal legs, in random order before normalization."""
    if dim is None:
        dim = draw(st.sampled_from(sorted(CHARTS)))
    ch, a = CHARTS[dim], ATOMS[dim]
    out = LocalForm(ch)
    for _ in range(draw(st.integers(1, 4))):
        word = draw(st.lists(a["even"], max_size=3))
        word += draw(st.lists(a["const"], max_size=2))
        word += draw(st.lists(a["fn"], max_size=1))
        if not ghost_free:
            word += draw(st.lists(a["ghost"], max_size=2))
        if legs:
            word += draw(st.lists(a["odd_leg"], max_size=2))
            word += draw(st.lists(a["ghost_leg"], max_size=3))
            word += draw(st.lists(a["h"], max_size=2))
        out.add_word(draw(st.permutations(word)), draw(coeffs))
    return out


@SEEDED
@given(forms())
def test_d_h(form):
    same(d_h, form)


@SEEDED
@given(forms())
def test_d_v(form):
    same(d_v, form)


@SEEDED
@given(forms(), st.integers(0, 2))
def test_total_derivative(form, mu):
    same(lambda f: total_derivative(f, mu % f.chart.dim), form)


@SEEDED
@given(forms())
def test_horizontal_coefficients_only(form):
    same(lambda f: horizontal(f, legs=False), form)


@SEEDED
@given(forms(), st.data())
def test_insert(form, data):
    """An insertion whose components hold named constants and their
    inverses (so the constant path is taken), of either parity."""
    ch = form.chart
    n = ch.dim
    shift = data.draw(st.integers(0, 1))
    comps = {}
    for fid in (n + U0, n + U1):
        expr = data.draw(forms(n, legs=False, ghost_free=True))
        if shift:
            expr = expr.wedge(LocalForm.from_word(ch, (('j', n + C, midx_zero(n)),)))
        comps[fid] = expr
    rho = EvolutionaryField(ch, comps)
    same(insert, rho, form)


@SEEDED
@given(forms(), st.data())
def test_prepend_atom(form, data):
    ch = form.chart
    a = ATOMS[ch.dim]
    atom = data.draw(st.one_of(a["h"], a["odd_leg"], a["ghost_leg"], a["const"]))
    same(prepend_atom, form, atom)


def test_cutoff_is_still_checked():
    """An image word above the jet cutoff raises, as before the merge."""
    ch = CHARTS[2]
    u0 = ch.dim + U0
    top = ('j', u0, (ch.jet_cutoff, 0))
    form = LocalForm.from_word(ch, (top, ('h', 1)), 2)
    for kernel in (nullcontext, oracle_kernel):
        with kernel():
            with pytest.raises(JetCutoffExceeded):
                total_derivative(form, 0)
            with pytest.raises(JetCutoffExceeded):
                d_h(form)
            with pytest.raises(JetCutoffExceeded):
                prepend_atom(form, ('v', u0, (ch.jet_cutoff + 1, 0)))
