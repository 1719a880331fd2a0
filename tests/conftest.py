import os
import sys
from fractions import Fraction
from importlib import resources
from itertools import combinations
from math import lcm

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from varcalc.algebra import LocalForm, _q, iter_midx, midx_zero, norm_word  # noqa: E402
from varcalc.chart import COORD, CONST, CPARAM  # noqa: E402
from varcalc.homotopy import _leg_split, _Stratum, _stratum_key  # noqa: E402
from varcalc.randforms import suite_chart  # noqa: E402
from varcalc.theory import theory_from_text  # noqa: E402

_cache = {}


def assert_exact(form):
    """Every coefficient of a LocalForm (or a terms dict) is canonical: an
    int, or a Fraction that is not integral.  Floats fail, and so does an
    integral Fraction."""
    for key, c in getattr(form, "terms", form).items():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), \
            (key, c)


def norm(chart, atoms, coeff):
    """norm_word on a word of atom tuples, as LocalForm.add_word encodes
    it, with the result decoded: (atoms, coeff) or None."""
    res = norm_word(chart, chart.encode_word(atoms) if coeff else (), coeff)
    return None if res is None else (chart.decode_word(res[0]), res[1])


def atom_parity(chart, atom):
    """The parity of an atom tuple, as the engine read it before atom codes
    carried it: the oracles of the tests read it."""
    t = atom[0]
    if t == 'j':
        return chart.ghost(atom[1]) & 1
    if t == 'v':
        return (1 + chart.ghost(atom[1])) & 1
    if t == 'h':
        return 1
    return 0


def code_word(chart, atoms):
    """The codes of a normalized word of atom tuples, in code order."""
    return tuple(sorted(chart.encode_word(atoms)))


def atom_terms(form):
    """The terms of a LocalForm (or of a {word: c} dict on ``form.chart``)
    with each word decoded to atom tuples in canonical order."""
    return {form.chart.decode_word(k): c for k, c in form.terms.items()}


def coded(chart, terms):
    """{word of codes: c} for {normalized word of atom tuples: c}: the
    encoded words, with the run of function atoms in code order."""
    return {code_word(chart, w): c for w, c in terms.items()}


TWO_FUNCTIONS = (
    "theory t\ndimension 2\nsignature + +\njet_cutoff 3\nconstant m\n"
    "function W\nfunction V arity 2\nfield q scalar\nfield p scalar\n"
    "field c scalar ghost 1\n"
    "lagrangian 1/2 * m * d(q) ∧ star(d(q)) + V(q, p) * W(p) * vol\n")


def codec_suite_chart(dim):
    """A suite chart with a ghost, a named constant g, a constant parameter
    e and two function symbols."""
    ch = suite_chart(dim, nfields=2, ghost_field=True)
    ch.add_component("g", kind=CONST)
    ch.add_component("e", kind=CPARAM)
    ch.add_function("V", arity=1)
    ch.add_function("G", arity=2)
    return ch


def codec_charts():
    """The charts the atom codec is checked on, by name."""
    return {"suite2": codec_suite_chart(2), "suite3": codec_suite_chart(3),
            "two_functions": theory_from_text(TWO_FUNCTIONS).chart}


def codec_atoms(ch):
    """Kept atoms of every kind: jets and legs of every component up to the
    cutoff order, inverses of named constants, dx^mu, and function atoms
    and fiber integrals over jet arguments."""
    n = ch.dim
    cut = ch.jet_cutoff
    z = midx_zero(n)
    orders = [m for k in range(cut + 1) for m in iter_midx(n, k)]
    out = [('h', mu) for mu in range(n)]
    jets = []
    for comp in ch.components:
        if comp.kind in (COORD, CONST, CPARAM):
            out.append(('j', comp.fid, z))
            if comp.kind == CONST:
                out.append(('ji', comp.fid))
            continue
        jets += [('j', comp.fid, m) for m in orders]
        out += [('v', comp.fid, m) for m in orders]
    out += jets
    args = [a for a in jets if ch.ghost(a[1]) % 2 == 0][:3] + [('0',)]
    for fn in ch.functions:
        for dords in iter_midx(fn.arity, 1):
            for arg in combinations(args, fn.arity):
                out.append(('f', fn.sym_id, dords, arg))
    fs = [a for a in out if a[0] == 'f'][:3]
    out += [('F', k, tuple(sorted(inner))) for k in (0, 1)
            for inner in ((fs[0],), (fs[1], fs[2]))]
    return out


def sigma1_terms(image):
    """A stored sigma1 image (den, [(word, int numerator)]) as its list of
    (word, canonical coefficient); checks that den is the lcm of the
    denominators, so the numerators share no common factor with it."""
    den, terms = image
    assert type(den) is int and den >= 1
    assert all(type(n) is int and n for _w, n in terms)
    out = [(w, _q(Fraction(n, den))) for w, n in terms]
    assert den == lcm(1, *(c.denominator for _w, c in out))
    return out


def image_strata(suite):
    """{stratum key: a new _Stratum} for the stratum of every
    leg word with a vertical leg in the suite's sigma1 image table, in the
    order the words were first read.  The suite writes the image of a
    one-leg word in closed form and builds no stratum for it
    (notes/decisions.md §31), so a test of the strata reads them from the
    words here, not from suite._strata.  A word with no vertical leg has
    image 0, and its stratum has no basis (§36)."""
    out = {}
    for legs in suite._images:
        key = _stratum_key(suite.chart, legs)
        if key[0] and key not in out:
            out[key] = _Stratum(*key)
    return out


def on_form(step, form):
    """A leg-grouped step of a HomotopySuite (its sigma1 or d0) applied to a
    LocalForm: the form is grouped as {leg word: {coefficient word: c}},
    and the grouped result is rebuilt as a LocalForm, as (L, form) for
    sigma1."""
    groups = {}
    for key, c in form.terms.items():
        coeffs, legs = _leg_split(form.chart, key)
        groups.setdefault(legs, {})[coeffs] = c
    got = step(groups)
    L, got = got if type(got) is tuple else (None, got)
    out = LocalForm(form.chart, {cw + legs: c for legs, terms in got.items()
                                 for cw, c in terms.items()})
    return out if L is None else (L, out)


def load_theory(name):
    if name not in _cache:
        text = resources.files("varcalc.theories").joinpath(
            name + ".thy").read_text(encoding="utf-8")
        _cache[name] = theory_from_text(text)
    return _cache[name]


@pytest.fixture(scope="session")
def maxwell():
    return load_theory("maxwell")


@pytest.fixture(scope="session")
def maxwell_sourced():
    return load_theory("maxwell_sourced")


@pytest.fixture(scope="session")
def point_particle():
    return load_theory("point_particle")


@pytest.fixture(scope="session")
def scalar_field():
    return load_theory("scalar_field")


@pytest.fixture(scope="session")
def yang_mills():
    return load_theory("yang_mills_su2")


@pytest.fixture(scope="session")
def chern_simons():
    return load_theory("chern_simons_su2")


@pytest.fixture(scope="session")
def bf4():
    return load_theory("bf_abelian_4d")


@pytest.fixture(scope="session")
def first_order_maxwell():
    return load_theory("maxwell_first_order")


@pytest.fixture(scope="session")
def scalar_null():
    return load_theory("scalar_field_null")
