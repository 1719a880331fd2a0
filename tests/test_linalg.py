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


def gauss_jordan_rref(m):
    """The Gauss-Jordan rref over Fractions that the fraction-free one
    replaced, kept verbatim as an oracle."""
    R = [list(row) for row in m]
    nrows = len(R)
    ncols = len(R[0]) if R else 0
    pivots = []
    factor = Fraction(1)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if R[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            R[r], R[piv] = R[piv], R[r]
            factor = -factor
        row = R[r]
        factor *= row[c]
        inv = Fraction(1) / row[c]
        nz = [j for j in range(c, ncols) if row[j]]
        for j in nz:
            row[j] *= inv
        for i in range(nrows):
            other = R[i]
            if i != r and other[c]:
                f = other[c]
                for j in nz:
                    other[j] -= f * row[j]
        pivots.append(c)
        r += 1
    return R, pivots, factor


big_ints = st.one_of(st.just(0), st.integers(-10**6, 10**6))
mixed = st.one_of(st.just(0), st.integers(-5, 5),
                  st.fractions(min_value=-50, max_value=50, max_denominator=60))


def dependent_rows(entry):
    """Rectangular matrices whose extra rows are combinations of the
    first ones, so that the rank is below both sides."""
    def build(args):
        base, coeffs = args
        extra = [[sum(c * row[j] for c, row in zip(cs, base))
                  for j in range(len(base[0]))] for cs in coeffs]
        return base + extra
    return st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 3)).flatmap(
        lambda rce: st.tuples(
            st.lists(st.lists(entry, min_size=rce[1], max_size=rce[1]),
                     min_size=rce[0], max_size=rce[0]),
            st.lists(st.lists(st.integers(-3, 3), min_size=rce[0], max_size=rce[0]),
                     min_size=rce[2], max_size=rce[2]))).map(build)


def shaped(entry):
    return st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda rc: st.lists(st.lists(entry, min_size=rc[1], max_size=rc[1]),
                            min_size=rc[0], max_size=rc[0]))


@SEEDED
@given(st.one_of(shaped(big_ints), shaped(mixed), dependent_rows(big_ints),
                 dependent_rows(mixed), sparse))
def test_fraction_free_rref_matches_gauss_jordan(m):
    R, pivots, factor = rref(m)
    S, spivots, sfactor = gauss_jordan_rref(m)
    assert R == S
    assert pivots == spivots
    assert factor == sfactor and type(factor) is Fraction


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
