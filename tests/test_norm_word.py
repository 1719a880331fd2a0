"""Word normalization on cached per-atom data, checked against the
insertion-sort normalizer it replaced, on atoms the seeded suites never
generate."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from varcalc.algebra import atom_parity, midx_order, midx_zero, norm_word
from varcalc.chart import (
    COORD, CONST, CPARAM, Chart, JetCutoffExceeded,
)
from conftest import assert_exact

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=600)


# -- the reference: the insertion-sort normalizer, kept verbatim -----------

_RANK = {'j': 0, 'ji': 0, 'f': 1, 'F': 2, 'v': 3, 'h': 4}


def _sort_key(atom):
    return (_RANK[atom[0]],) + atom[1:]


def reference_norm_word(chart, atoms, coeff):
    """Canonicalize a word; returns (key, coeff) or None if zero."""
    if not coeff:
        return None
    work = []
    for a in atoms:
        t = a[0]
        if t == 'j':
            fid = a[1]
            kind = chart.kind(fid)
            order = midx_order(a[2])
            if order and kind in (COORD, CONST, CPARAM):
                if kind == COORD and order == 1:
                    # D_mu x^nu = delta
                    if a[2][chart.component(fid).coord_dir] == 1:
                        continue       # factor 1
                return None            # zero factor
            if order > chart.jet_cutoff:
                raise JetCutoffExceeded(
                    f"jet order {order} exceeds cutoff {chart.jet_cutoff}")
            work.append(a)
        elif t == 'v':
            if midx_order(a[2]) > chart.jet_cutoff:
                raise JetCutoffExceeded(
                    f"jet order {midx_order(a[2])} exceeds cutoff {chart.jet_cutoff}")
            work.append(a)
        else:
            work.append(a)
    # insertion sort, tracking odd-odd transpositions
    sign = 1
    out = []
    for a in work:
        ka = _sort_key(a)
        pa = atom_parity(chart, a)
        i = len(out)
        while i > 0 and _sort_key(out[i - 1]) > ka:
            if pa and atom_parity(chart, out[i - 1]):
                sign = -sign
            i -= 1
        out.insert(i, a)
    # cancel inverse-constant pairs, kill odd squares
    cleaned = []
    counts = {}
    for a in out:
        if a[0] in ('j', 'ji') and chart.kind(a[1]) == CONST:
            key = a[1]
            counts[key] = counts.get(key, 0) + (1 if a[0] == 'j' else -1)
        else:
            cleaned.append(a)
    const_atoms = []
    for fid in sorted(counts):
        c = counts[fid]
        zero = midx_zero(chart.dim)
        if c > 0:
            const_atoms += [('j', fid, zero)] * c
        elif c < 0:
            const_atoms += [('ji', fid)] * (-c)
    # reinsert constants (parity 0: no signs); keep global order
    merged = []
    ci = 0
    for a in cleaned:
        while ci < len(const_atoms) and _sort_key(const_atoms[ci]) <= _sort_key(a):
            merged.append(const_atoms[ci]); ci += 1
        merged.append(a)
    merged.extend(const_atoms[ci:])
    for i in range(1, len(merged)):
        if merged[i] == merged[i - 1] and atom_parity(chart, merged[i]):
            return None
    return tuple(merged), Fraction(coeff) * sign


# -- a chart with every component kind ---------------------------------------

def _chart():
    ch = Chart(2, jet_cutoff=2)
    ch.add_coordinates()                          # x0, x1
    ch.add_component("u")                         # dynamic, even
    ch.add_component("c", ghost=1)                # dynamic ghost, odd
    ch.add_component("k", kind=CONST)
    ch.add_component("m", kind=CONST)
    ch.add_component("p", kind=CPARAM)
    ch.add_function("g", arity=2)
    return ch


CH = _chart()
X0, X1, U, C, K, M, P = range(7)
MIDX = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1)]   # (2, 1) > cutoff

JETS = [('j', fid, m) for fid in (X0, X1, U, C, K, P) for m in MIDX]
ATOMS = (
    JETS
    + [('j', M, (0, 0))]
    + [('ji', K), ('ji', M), ('ji', U)]
    + [('f', 0, (0, 0), (('j', U, (0, 0)), ('j', X1, (0, 0)))),
       ('f', 0, (1, 0), (('j', U, (1, 0)), ('0',))),
       ('F', 0, (('f', 0, (0, 1), (('j', C, (0, 0)), ('j', U, (0, 0)))),)),
       ('F', 1, (('f', 0, (0, 0), (('j', U, (0, 0)), ('0',))),
                 ('f', 0, (1, 0), (('j', U, (0, 1)), ('0',)))))]
    + [('v', fid, m) for fid in (U, C) for m in MIDX]
    + [('h', 0), ('h', 1)]
)

# odd atoms and named constants are drawn often, so that repeated odd legs
# and constants next to their inverses occur
odd = [a for a in ATOMS if atom_parity(CH, a)]
consts = [('j', K, (0, 0)), ('ji', K), ('j', M, (0, 0)), ('ji', M)]
atoms = st.one_of(st.sampled_from(ATOMS), st.sampled_from(odd), st.sampled_from(consts))
words = st.lists(atoms, max_size=8)
coeffs = st.one_of(st.integers(-3, 3),
                   st.fractions(min_value=-3, max_value=3, max_denominator=5))


def _outcome(fn, chart, word, coeff):
    try:
        return fn(chart, tuple(word), coeff)
    except JetCutoffExceeded:
        return JetCutoffExceeded


@SEEDED
@given(words, coeffs)
def test_norm_word_matches_insertion_sort_reference(word, coeff):
    want = _outcome(reference_norm_word, CH, word, coeff)
    got = _outcome(norm_word, CH, word, coeff)
    assert got == want
    if isinstance(got, tuple):
        assert_exact(dict([got]))


def test_oracle_words_reach_every_branch():
    # the strategy's atoms drive each action of the normalizer at least once
    z = (0, 0)
    assert norm_word(CH, (('j', X0, (1, 0)), ('j', U, z)), 1) == ((('j', U, z),), 1)
    assert norm_word(CH, (('j', X0, (0, 1)),), 1) is None
    assert norm_word(CH, (('j', P, (1, 0)),), 1) is None
    assert norm_word(CH, (('j', K, z), ('ji', K), ('j', U, z)), 2) == \
        ((('j', U, z),), 2)
    assert norm_word(CH, (('v', U, z), ('j', U, z), ('v', U, z)), 1) is None
    assert norm_word(CH, (('h', 1), ('h', 0)), 1) == ((('h', 0), ('h', 1)), -1)
    with pytest.raises(JetCutoffExceeded):
        norm_word(CH, (('v', U, (2, 1)),), 1)


def test_promoted_chart_starts_with_an_empty_cache():
    ch = _chart()
    atom = ('j', P, (1, 0))
    assert norm_word(ch, (atom,), 1) is None        # d of a constant parameter
    pro = ch.promoted([P])
    assert pro.atom_data is not ch.atom_data
    assert norm_word(pro, (atom,), 1) == ((atom,), 1)
    assert norm_word(ch, (atom,), 1) is None
