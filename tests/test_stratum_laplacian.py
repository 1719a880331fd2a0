"""sigma1 from the blocks of each stratum's Hodge Laplacian against the
dense pseudo-inverse it replaces.

The oracle is the former route, kept verbatim: sigma1 = e^T (e e^T)^+ with
(e e^T)^+ from ``pseudo_inverse_psd``.  Both are the Moore-Penrose inverse
of d1, which is unique, so every image must agree term for term."""

from fractions import Fraction
from math import lcm

import pytest

from varcalc import verify
from varcalc.algebra import LocalForm
from varcalc.chart import InvariantViolation, pseudo_inverse_psd
from varcalc.homotopy import HomotopySuite, _leg_split, _Stratum, _stratum_key
from varcalc.randforms import suite_chart

from conftest import assert_exact


class PinvStratum(_Stratum):
    """A stratum whose sigma1 is the former dense pseudo-inverse route."""

    def __init__(self, suite, fids, V):
        super().__init__(suite, fids, V)
        self.pinv = {}

    def delta_pinv(self, b):
        """(e e^T)^+ for the d1 matrix e from degree b-1 to b, so that
        sigma1 = e^T (e e^T)^+ = e^+.  Below top degree on strata with
        legs d1 is acyclic, which is checked on the ranks of e."""
        if b not in self.pinv:
            if (self.fids and b < self.suite.chart.dim
                    and self.rank(b - 1) + self.rank(b) != len(self.bases[b])):
                raise InvariantViolation(
                    "unexpected d1-cohomology below top horizontal degree")
            dim = len(self.bases[b])
            D = [[Fraction(0)] * dim for _ in range(dim)]
            for col in self.e[b - 1][0]:
                for i, c in col.items():
                    for i2, c2 in col.items():
                        D[i][i2] += c * c2
            self.pinv[b] = pseudo_inverse_psd(D)
        return self.pinv[b]

    def sigma1_image(self, word):
        """sigma1 of a canonical leg word of this stratum, memoized as a
        list of (target word, coefficient)."""
        image = self.images.get(word)
        if image is None:
            b = sum(1 for a in word if a[0] == 'h')
            i = self.index[b].get(word)
            if i is None:
                raise InvariantViolation("leg word missing from its stratum basis")
            image = []
            if b:
                z = [row[i] for row in self.delta_pinv(b)]
                cols, _ = self.e[b - 1]
                for j, col in enumerate(cols):
                    s = sum(c * z[k] for k, c in col.items() if z[k])
                    if s:
                        image.append((self.bases[b - 1][j], s))
            self.images[word] = image
        return image


def _seeded_strata(monkeypatch, seed, cases):
    """The strata that the seeded criterion-5 suites build, per chart."""
    charts = []

    def recording_chart(**kw):
        charts.append(suite_chart(**kw))
        return charts[-1]

    monkeypatch.setattr(verify, "suite_chart", recording_chart)
    ok, _rows = verify.run_suites(seed=seed, cases=cases)
    assert ok
    return [(ch, ch._homotopy_suite._strata) for ch in charts]


def test_laplacian_images_equal_pseudo_inverse_images(monkeypatch):
    compared = {2: 0, 3: 0}
    for ch, strata in _seeded_strata(monkeypatch, seed=0, cases=40):
        oracle_suite = HomotopySuite(ch)
        for key, st in strata.items():
            oracle = PinvStratum(oracle_suite, *key)
            for b in range(1, ch.dim + 1):
                for word in st.bases[b]:
                    image = st.sigma1_image(word)
                    assert image == oracle.sigma1_image(word), (key, word)
                    assert_exact(dict(image))
                    compared[ch.dim] += 1
    assert compared[2] > 1000 and compared[3] > 1000, compared


def _stratum(nlegs):
    """The stratum of the first nlegs legs of du0_,11 du1_,00 dc_,0 dc_,0
    wedged with dx0, on the 2-d suite chart."""
    ch = suite_chart(dim=2, nfields=2, ghost_field=True)
    u0, u1, c = (ch.by_name(n).fid for n in ("u0", "u1", "c"))
    legs = (('v', u0, (0, 2)), ('v', u1, (2, 0)), ('v', c, (1, 0)),
            ('v', c, (1, 0)))
    word = LocalForm.from_word(ch, legs[:nlegs] + (('h', 0),))
    (key,) = word.terms
    _coeffs, legs = _leg_split(key)
    return _Stratum(HomotopySuite(ch), *_stratum_key(ch, legs))


def _product(rows, Q):
    """The matrix with sparse rows ({column: entry}) times the dense Q."""
    out = []
    for row in rows:
        acc = [0] * len(Q[0])
        for k, p in row.items():
            acc = [a + p * q for a, q in zip(acc, Q[k])]
        out.append(acc)
    return out


def _sparse(M):
    return [{k: x for k, x in enumerate(row) if x} for row in M]


def _transpose(M):
    return [list(col) for col in zip(*M)]


def test_penrose_identities_on_the_four_leg_stratum():
    """sigma1 = e^+ from degree 1 to 0 on the stratum of
    du0_,11 du1_,00 dc_,0 dc_,0 dx0, whose degree-1 basis has 411 words:
    with A = e_0 and X = sigma1, A X A = A, X A X = X, and A X and X A
    are symmetric."""
    st = _stratum(4)
    src, tgt = st.bases[0], st.bases[1]
    assert len(tgt) == 411
    cols, _ = st.e[0]
    rows = [{} for _ in tgt]
    for j, col in enumerate(cols):
        for i, c in col.items():
            rows[i][j] = c
    X = [[0] * len(tgt) for _ in src]
    for i, word in enumerate(tgt):
        image = st.sigma1_image(word)
        assert_exact(dict(image))
        for target, c in image:
            X[st.index[0][target]][i] = c
    # X = N / d with N integral keeps the products in integers
    d = lcm(*(Fraction(x).denominator for row in X for x in row))
    N = [[int(x * d) for x in row] for row in X]
    AN = _product(rows, N)
    NA = _transpose(_product(cols, _transpose(N)))
    A = [[row.get(j, 0) for j in range(len(src))] for row in rows]
    assert _product(rows, NA) == [[d * a for a in row] for row in A]
    assert _product(_sparse(NA), N) == [[d * x for x in row] for row in N]
    assert AN == _transpose(AN)
    assert NA == _transpose(NA)


def test_singular_laplacian_block_is_rejected():
    """At top degree no rank guard runs; a Laplacian block that is singular
    there (e_{n-1} broken to zero) still raises the cohomology error."""
    st = _stratum(3)
    n = st.suite.chart.dim
    cols, ntgt = st.e[n - 1]
    st.e[n - 1] = ([{}] * len(cols), ntgt)
    with pytest.raises(InvariantViolation, match="unexpected d1-cohomology"):
        st.delta_pinv(n)
