"""Strata built one degree at a time against the eager construction they
replaced, kept verbatim here.

The oracle enumerates every multi-index distribution of every degree of a
stratum when it is made, and builds every d1 matrix.  The engine builds a
degree when it is first read and normalizes only the non-decreasing
distribution of each run of equal fids.  Both must give the same basis, in
the same order, and the same matrix of d1 at every degree."""

from importlib import resources
from itertools import combinations

import pytest

from varcalc import verify
from varcalc.algebra import norm_word
from varcalc.homotopy import (
    HomotopySuite, _distributions, _Stratum, d_h_columns, get_suite,
)
from varcalc.randforms import suite_chart
from varcalc.theory import theory_from_text

from conftest import image_strata
from test_el_oracle import THEORIES


class EagerStratum(_Stratum):
    """The former _Stratum: every degree enumerated and every d1 matrix
    built on construction."""

    def __init__(self, suite, fids, V):
        self.suite = suite
        self.fids = fids
        chart = suite.chart
        n = chart.dim
        self.bases = {}
        self.index = {}
        dirs = range(n)
        for b in range(n + 1):
            words = set()
            for H in combinations(dirs, b):
                chi = [0] * n
                for mu in H:
                    chi[mu] = 1
                T = tuple(v + c for v, c in zip(V, chi))
                if any(t < 0 for t in T):
                    continue
                hatoms = tuple(('h', mu) for mu in H)
                if not fids:
                    if all(t == 0 for t in T):
                        words.add(chart.encode_word(hatoms))
                    continue
                for dist in _distributions(T, len(fids)):
                    atoms = tuple(('v', fid, I) for fid, I in zip(fids, dist))
                    res = norm_word(chart, chart.encode_word(atoms + hatoms), 1)
                    if res is not None:
                        words.add(res[0])
            basis = sorted(words)
            self.bases[b] = basis
            self.index[b] = {w: i for i, w in enumerate(basis)}
        # matrices of d1: bases[b] -> bases[b+1]; d0 vanishes on leg
        # words, so d1 is d_h there
        self.e = {b: (d_h_columns(chart, self.bases[b], self.index[b + 1]),
                      len(self.bases[b + 1])) for b in range(n)}
        self.blocks = {}
        self.images = {}


def _same_as_eager(suite, key, st):
    """Every degree of the lazy stratum ``st`` against the eager one;
    returns the number of basis words compared."""
    ch = suite.chart
    n = ch.dim
    oracle = EagerStratum(HomotopySuite(ch), *key)
    for b in range(n + 1):
        assert st.basis(ch, b) == oracle.bases[b], (key, b)
        assert st.index[b] == oracle.index[b], (key, b)
    for b in range(n):
        assert st.d1(ch, b) == oracle.e[b], (key, b)
    return sum(len(oracle.bases[b]) for b in range(n + 1))


def test_lazy_strata_of_the_seeded_suites_equal_eager_ones(monkeypatch):
    charts = []

    def recording_chart(**kw):
        charts.append(suite_chart(**kw))
        return charts[-1]

    monkeypatch.setattr(verify, "suite_chart", recording_chart)
    ok, _rows = verify.run_suites(seed=0, cases=40)
    assert ok
    words = {}
    for ch in charts:
        suite = get_suite(ch)
        for key, st in image_strata(suite).items():
            words[ch.dim] = words.get(ch.dim, 0) + _same_as_eager(suite, key, st)
    assert set(words) == {2, 3} and min(words.values()) > 1000, words


@pytest.mark.parametrize("name", THEORIES)
def test_lazy_strata_of_theta_equal_eager_ones(name):
    """The strata of the leg words that building theta = h>=(d_v L) reads,
    on a fresh load and the first read of theta.  Every such word has one
    leg, so the suite itself builds no stratum."""
    text = resources.files("varcalc.theories").joinpath(
        name + ".thy").read_text(encoding="utf-8")
    T = theory_from_text(text)
    T.theta
    suite = get_suite(T.chart)
    assert not suite._strata
    strata = image_strata(suite)
    assert strata
    for key, st in strata.items():
        _same_as_eager(suite, key, st)


@pytest.mark.parametrize("name, odd", [("u0", True), ("c", False)])
def test_three_equal_fids(name, odd):
    """du_,I du_,J du_,K with I + J + K minus the dx atoms = (2, 1).  The
    leg of an even field is odd, and an odd leg twice in one word vanishes,
    so each basis word holds three distinct multi-indices; the leg of the
    ghost c is even, and its words may repeat one."""
    ch = suite_chart(dim=2, nfields=1, ghost_field=True)
    fid = ch.by_name(name).fid
    suite = HomotopySuite(ch)
    key = ((fid, fid, fid), (2, 1))
    st = _Stratum(*key)
    assert _same_as_eager(suite, key, st) > 0
    repeats = 0
    for b in range(ch.dim + 1):
        for word in st.basis(ch, b):
            legs = [a for a in ch.decode_word(word) if a[0] == 'v']
            assert len(legs) == 3
            repeats += len(set(legs)) < 3
    assert (repeats == 0) == odd
    # degree 0: (0,0) (1,0) (1,1) and (0,0) (0,1) (2,0); even legs add
    # (0,0) (0,0) (2,1) and (1,0) (1,0) (0,1)
    assert len(st.bases[0]) == (2 if odd else 4)
