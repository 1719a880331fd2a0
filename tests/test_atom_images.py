"""Derivation images of jet and leg atoms read off their codes, against the LocalForm construction they replaced, kept verbatim here.

The oracle builds the image of a 'j' or 'v' atom under D_mu, under
dx^mu ^ D_mu (with and without legs) and under d_v as a LocalForm: through
LocalForm.from_word, and for dx^mu ^ D_mu through prepend_atom and a sum
over mu.  The engine writes the one-atom words directly.  For every atom
of a chart, the image data in the chart's table (Chart.images) must equal
the oracle's image data term by term and in order, every code of every
image word must be the chart's code object for its atom, and an image
above the jet cutoff must raise JetCutoffExceeded in both paths.  The
tables are keyed by codes; the oracle reads the decoded atom."""

import pytest

from varcalc.algebra import (
    LocalForm, _image_data, chain_rule, d_v, horizontal, iter_midx,
    midx_shift, prepend_atom, total_derivative,
)
from varcalc.chart import (
    CONST, CPARAM, DYNAMIC, PARAM, Chart, JetCutoffExceeded,
)
from varcalc.randforms import suite_chart


# -- the former construction, verbatim ---------------------------------------

def oracle_d_mu(chart, atom, mu, legs):
    t = atom[0]
    if t == 'j' or (t == 'v' and legs):
        return LocalForm.from_word(chart, ((t, atom[1], midx_shift(atom[2], mu)),))
    if t in ('f', 'F'):
        return chain_rule(chart, atom, lambda a: ('j', a[1], midx_shift(a[2], mu)))
    return None


def oracle_horizontal(chart, legs):
    def image(atom):
        out = LocalForm(chart)
        for mu in range(chart.dim):
            im = oracle_d_mu(chart, atom, mu, legs)
            if im is not None:
                out = out + prepend_atom(im, ('h', mu))
        return out
    return image


def oracle_d_v(chart):
    def leg(a):
        return ('v', a[1], a[2]) if chart.kind(a[1]) == DYNAMIC else None

    def image(atom):
        t = atom[0]
        if t == 'j':
            v = leg(atom)
            return None if v is None else LocalForm.from_word(chart, (v,))
        if t in ('f', 'F'):
            return chain_rule(chart, atom, leg)
        return None
    return image


# -- the operators and their tables -------------------------------------------

def operators(chart):
    """(table key, engine operator, oracle image) for every derivation that
    keeps its images in the chart's table."""
    ops = [(('d', legs), lambda f, legs=legs: horizontal(f, legs),
            oracle_horizontal(chart, legs)) for legs in (True, False)]
    ops.append(('dv', d_v, oracle_d_v(chart)))
    for mu in range(chart.dim):
        ops.append((('D', mu), lambda f, mu=mu: total_derivative(f, mu),
                    lambda a, mu=mu: oracle_d_mu(chart, a, mu, True)))
    return ops


def atoms(chart, top):
    """The codes of the jet, inverse and leg atoms of every component up to
    order ``top``, and of the horizontal legs."""
    out = []
    for comp in chart.components:
        orders = range(top + 1) if comp.kind in (DYNAMIC, PARAM) else (0,)
        for order in orders:
            for m in iter_midx(chart.dim, order):
                out.append(('j', comp.fid, m))
                if comp.kind == DYNAMIC:
                    out.append(('v', comp.fid, m))
        if comp.kind == CONST:
            out.append(('ji', comp.fid))
    out += [('h', mu) for mu in range(chart.dim)]
    return [chart.encode(a) for a in out]


def check_chart(chart, top):
    """Each atom's image in each table against the oracle's; returns the
    number of nonzero images compared."""
    nonzero = 0
    for key, op, oracle in operators(chart):
        for atom in atoms(chart, top):
            op(LocalForm(chart, {(atom,): 1}))
            got = chart.images[key][atom]
            assert got == _image_data(oracle(chart.decode(atom))), (key, atom)
            for ikey, ic, nic, ins in got or ():
                assert type(ic) is int and nic == -ic
                for a in ikey:
                    assert a is chart.codes[chart.decode(a)], (key, atom, a)
                if ins is not None:
                    assert ins is ikey
            nonzero += got is not None
    return nonzero


def test_suite_chart_with_a_ghost():
    """Even fields with odd legs, and the ghost c with an odd jet and an
    even leg, so both signs of dx^mu past the atom occur."""
    ch = suite_chart(dim=2, nfields=2, ghost_field=True)
    assert check_chart(ch, top=3) > 100


def test_coordinates_constants_and_constant_parameters():
    """D_mu x^mu = 1 (the empty word, or dx^mu alone), D_mu x^nu = 0 for
    nu != mu, and a named constant, its inverse and a constant parameter
    have zero image; a field-valued parameter shifts but has no leg."""
    ch = Chart(3, jet_cutoff=4, coord_names=("t", "x", "y"))
    ch.add_coordinates()
    m = ch.add_component("m", kind=CONST).fid
    e = ch.add_component("e", kind=CPARAM).fid
    xi = ch.add_component("xi", kind=PARAM).fid
    ch.add_component("A", ghost=0)
    ch.add_component("b", ghost=-1)
    assert check_chart(ch, top=2) > 0
    z = (0, 0, 0)
    t_atom = ch.encode(('j', 0, z))
    assert ch.images[('D', 0)][t_atom] == (((), 1, -1, ()),)
    assert ch.images[('D', 1)][t_atom] is None
    h0 = ch.encode(('h', 0))
    assert ch.images[('d', True)][t_atom] == (((h0,), 1, -1, (h0,)),)
    for fid in (m, e):
        for key in (('d', True), ('d', False), 'dv', ('D', 2)):
            assert ch.images[key][ch.encode(('j', fid, z))] is None
    assert ch.images['dv'][ch.encode(('j', xi, z))] is None
    assert ch.images[('D', 2)][ch.encode(('j', xi, z))] is not None


def test_function_atoms_keep_the_chain_rule():
    ch = suite_chart(dim=2, nfields=1)
    V = ch.add_function("V", arity=1).sym_id
    u = ch.by_name("u0").fid
    f = ('f', V, (0,), (('j', u, (1, 0)),))
    fc = ch.encode(f)
    for key, op, oracle in operators(ch):
        op(LocalForm(ch, {(fc,): 1}))
        assert ch.images[key][fc] == _image_data(oracle(f)), key


@pytest.mark.parametrize("t", ['j', 'v'])
def test_jet_at_the_cutoff_raises_in_both_paths(t):
    ch = suite_chart(dim=2, nfields=1, ghost_field=True)
    for name in ("u0", "c"):
        atom = (t, ch.by_name(name).fid, (ch.jet_cutoff, 0))
        form = LocalForm(ch, {(ch.encode(atom),): 1})
        with pytest.raises(JetCutoffExceeded):
            oracle_d_mu(ch, atom, 0, True)
        with pytest.raises(JetCutoffExceeded):
            total_derivative(form, 0)
        for legs in (True, False):
            if t == 'v' and not legs:
                continue
            with pytest.raises(JetCutoffExceeded):
                oracle_horizontal(ch, legs)(atom)
            with pytest.raises(JetCutoffExceeded):
                horizontal(form, legs)
