"""The atom codec (Chart.encode, Chart.decode, Chart.decode_word): a word
is a tuple of int codes, one per atom.

Over atoms of every kind, on the 2-d and 3-d suite charts with a ghost
and on a theory with two function symbols (jets at the cutoff order,
ghosts, inverses of named constants, function atoms and fiber
integrals; conftest.codec_atoms): decode inverts encode, and the order of
the codes is the order of the former sort key except inside the run of
function atoms.  Words normalized on codes are checked against the
former normalizer on atom tuples in test_norm_word.py, on these charts
too.
"""

import gc
import weakref

import pytest

from varcalc.algebra import LocalForm, midx_zero, norm_word
from varcalc.chart import ONE, ZERO, ChartMismatch, JetCutoffExceeded
from varcalc.render import render_text
from varcalc.theory import theory_from_text
from conftest import (
    TWO_FUNCTIONS, atom_parity, codec_atoms, codec_charts, codec_suite_chart,
)
from test_norm_word import _sort_key

CHARTS = codec_charts()
ATOMS = {name: codec_atoms(ch) for name, ch in CHARTS.items()}


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_decode_inverts_encode(name):
    ch = CHARTS[name]
    for a in ATOMS[name]:
        code = ch.encode(a)
        assert type(code) is int and code >= 0, a
        assert ch.decode(code) == a
        assert code & 1 == atom_parity(ch, a), a
    assert len({ch.encode(a) for a in ATOMS[name]}) == len(set(ATOMS[name]))


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_code_order_is_the_sort_key_order_outside_function_atoms(name):
    ch = CHARTS[name]
    kept = [a for a in ATOMS[name] if a[0] not in ('f', 'F')]
    assert sorted(kept, key=ch.encode) == sorted(kept, key=_sort_key)
    # function atoms sit between the jets and the legs, as their ranks do
    fns = [ch.encode(a) for a in ATOMS[name] if a[0] in ('f', 'F')]
    jets = [ch.encode(a) for a in kept if a[0] in ('j', 'ji')]
    legs = [ch.encode(a) for a in kept if a[0] in ('v', 'h')]
    assert max(jets) < min(fns) and max(fns) < min(legs)
    assert all(ch.encode(f) < ch.encode(F) for f in ATOMS[name] if f[0] == 'f'
               for F in ATOMS[name] if F[0] == 'F')


def test_zero_one_and_cutoff():
    ch = CHARTS["suite2"]
    x0, e = ch.by_name("x0").fid, ch.by_name("e").fid
    u0 = ch.by_name("u0").fid
    assert ch.encode(('j', x0, (1, 0))) == ONE
    assert ch.encode(('j', x0, (0, 1))) == ZERO
    assert ch.encode(('j', e, (1, 0))) == ZERO
    assert ch.encode_word((('j', x0, (1, 0)), ('j', u0, (0, 0)))) == \
        (ch.encode(('j', u0, (0, 0))),)
    assert ch.encode_word((('j', e, (1, 0)), ('j', u0, (0, 0)))) == (ZERO,)
    for t in ('j', 'v'):
        with pytest.raises(JetCutoffExceeded):
            ch.encode((t, u0, (ch.jet_cutoff + 1, 0)))


def test_atoms_of_another_dimension_are_refused_before_a_code_is_kept():
    """A multi-index or dx^mu of another dimension has no code here: it
    would read as a code of this chart and overwrite that atom's entry."""
    ch = codec_suite_chart(2)
    u0 = ch.by_name("u0").fid
    own = ('j', u0, (0, 1))
    code = ch.encode(own)
    kept = (dict(ch.codes), dict(ch.atoms))
    for t in ('j', 'v'):
        for midx in ((0, 0, 1), (1,)):
            with pytest.raises(ChartMismatch, match="of length"):
                ch.encode((t, u0, midx))
    for mu in (2, 5, -1):
        with pytest.raises(ChartMismatch, match=f"dx{mu} on a chart of dimension 2"):
            ch.encode(('h', mu))
    assert (ch.codes, ch.atoms) == kept
    assert ch.decode(code) == own
    assert ch.decode_word(ch.encode_word((own, ('h', 1)))) == (own, ('h', 1))


def test_normalized_words_are_their_own_normal_form():
    T = theory_from_text(TWO_FUNCTIONS)
    for form in (T.L, T.EL, T.theta):
        for key, c in form.terms.items():
            assert key == tuple(sorted(key))
            assert norm_word(form.chart, key, c) == (key, c)


@pytest.mark.parametrize("first", ["V", "W"])
def test_two_function_atoms_render_in_tuple_order(first):
    """The registry orders function atoms by first encounter; the printed
    word reorders them into the former canonical order, so the text is the
    same whichever atom the chart met first."""
    ch = theory_from_text(TWO_FUNCTIONS).chart
    q, p = ch.by_name("q").fid, ch.by_name("p").fid
    z = midx_zero(2)
    W = ('f', ch.function_by_name("W").sym_id, (0,), (('j', p, z),))
    V = ('f', ch.function_by_name("V").sym_id, (0, 0), (('j', q, z), ('j', p, z)))
    for a in ((V, W) if first == "V" else (W, V)):
        ch.encode(a)
    form = LocalForm.from_word(ch, (V, ('j', q, z), W, ('h', 1), ('h', 0)), 2)
    assert render_text(form) == "-2 * q * W(p) * V(q, p) ∧ dx0 ∧ dx1"
    (key,) = form.terms
    assert ch.decode_word(key) == (('j', q, z), W, V, ('h', 0), ('h', 1))


def test_promoted_and_derived_charts_read_the_same_codes():
    ch = CHARTS["suite2"]
    e = ch.by_name("e").fid
    kept = [a for a in ATOMS["suite2"] if not (a[0] == 'j' and a[1] == e)]
    pro = ch.promoted({e})
    assert pro.registry is ch.registry
    der, fids = ch.derive(ch.coord_names)
    assert all(f == fids[f] for f in fids)
    for a in kept:
        assert pro.encode(a) == ch.encode(a)
        if a[0] not in ('f', 'F'):
            assert der.encode(a) == ch.encode(a)
    # e is a constant parameter on ch and dynamical on pro
    assert ch.encode(('j', e, (1, 0))) == ZERO
    assert pro.decode(pro.encode(('j', e, (1, 0)))) == ('j', e, (1, 0))


def test_the_registry_holds_no_chart():
    gc.disable()
    try:
        ch = codec_suite_chart(2)
        pro = ch.promoted({ch.by_name("e").fid})
        u0 = ch.by_name("u0").fid
        pro.encode(('f', 0, (0,), (('j', u0, (0, 0)),)))
        registry = ch.registry
        assert all(type(x) in (int, tuple) for x in registry)
        refs = [weakref.ref(ch), weakref.ref(pro)]
        del ch, pro
        assert all(r() is None for r in refs)
        assert registry
    finally:
        gc.enable()
