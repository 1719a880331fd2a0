"""Exact linear algebra over Q, checked against sympy as an independent
oracle on seeded random small rational matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from varcalc.algebra import LocalForm, midx_zero
from varcalc.chart import (
    VarcalcError, det, inverse, mat_mul, mat_T, pseudo_inverse_psd, rref,
)
from varcalc.homotopy import bruteforce_dexactness
from varcalc.randforms import suite_chart

sympy = pytest.importorskip("sympy")

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# zeros are drawn often so that singular and rank-deficient matrices occur
entries = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-3, max_value=3, max_denominator=4))


def matrices(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


square = st.integers(1, 4).flatmap(lambda n: matrices(n, n))
rect = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(lambda rc: matrices(*rc))


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in m])


def from_sympy(M):
    return [[Fraction(int(x.p), int(x.q)) for x in M.row(i)] for i in range(M.rows)]


nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


def sparse_matrices(rows, cols):
    """At most two nonzero entries per row, as in the stratum matrices."""
    row = st.dictionaries(st.integers(0, cols - 1), nonzero, max_size=2).map(
        lambda d: [d.get(j, Fraction(0)) for j in range(cols)])
    return st.lists(row, min_size=rows, max_size=rows)


sparse = st.tuples(st.integers(1, 8), st.integers(1, 10)).flatmap(
    lambda rc: sparse_matrices(*rc))


@settings(SEEDED, max_examples=60)
@given(sparse)
def test_rref_of_mostly_zero_rows_matches_sympy(m):
    R, pivots, factor = rref(m)
    S, spivots = to_sympy(m).rref()
    assert R == from_sympy(S)
    assert tuple(pivots) == spivots
    assert all(type(x) is Fraction for row in R for x in row)
    if len(m) == len(m[0]):
        d = to_sympy(m).det()
        assert (factor if len(pivots) == len(m) else 0) == Fraction(int(d.p), int(d.q))


@SEEDED
@given(square)
def test_det_and_inverse_match_sympy(m):
    M = to_sympy(m)
    d = M.det()
    assert det(m) == Fraction(int(d.p), int(d.q))
    if d == 0:
        with pytest.raises(VarcalcError):
            inverse(m)
    else:
        assert inverse(m) == from_sympy(M.inv())


@SEEDED
@given(rect)
def test_pseudo_inverse_psd_matches_sympy(b):
    # B^T B is symmetric PSD, rank-deficient whenever B has fewer rows than
    # columns or dependent columns
    D = mat_mul(mat_T(b), b)
    assert pseudo_inverse_psd(D) == from_sympy(to_sympy(D).pinv())


def test_bruteforce_rejects_non_exact_form():
    # u_,0 u_,0 dx0 has a nonzero Euler-Lagrange expression, so it is not
    # d-exact; every target term lies in the ansatz image, so the verdict
    # comes from the elimination (the augmented column is a pivot)
    ch = suite_chart(dim=1, nfields=1)
    u = ch.by_name("u0").fid
    ux = ('j', u, (1,))
    target = LocalForm.from_word(ch, (ux, ux, ('h', 0)))
    assert not bruteforce_dexactness(target)
    exact = LocalForm.from_word(ch, (('j', u, midx_zero(1)), ux, ('h', 0)))
    assert bruteforce_dexactness(exact)
