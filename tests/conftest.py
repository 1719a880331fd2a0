import os
import sys
from fractions import Fraction
from importlib import resources
from math import lcm

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from varcalc.algebra import LocalForm, _q  # noqa: E402
from varcalc.homotopy import _leg_split, _Stratum, _stratum_key  # noqa: E402
from varcalc.theory import theory_from_text  # noqa: E402

_cache = {}


def assert_exact(form):
    """Every coefficient of a LocalForm (or a terms dict) is canonical: an
    int, or a Fraction that is not integral.  Floats fail, and so does an
    integral Fraction."""
    for key, c in getattr(form, "terms", form).items():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), \
            (key, c)


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
        coeffs, legs = _leg_split(key)
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
