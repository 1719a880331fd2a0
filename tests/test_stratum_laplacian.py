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
from varcalc.chart import InvariantViolation, pseudo_inverse_psd, rref
from varcalc.homotopy import _leg_split, _Stratum, _stratum_key, get_suite
from varcalc.randforms import suite_chart

from conftest import assert_exact, image_strata, sigma1_terms


def _d1_rank(ch, st, b):
    """Rank of the d1 matrix e from degree b to b+1, by rref."""
    cols, ntgt = st.d1(ch, b)
    return len(rref([[col.get(i, 0) for i in range(ntgt)] for col in cols])[1])


class PinvStratum(_Stratum):
    """A stratum whose sigma1 is the former dense pseudo-inverse route."""

    def __init__(self, fids, V):
        super().__init__(fids, V)
        self.pinv = {}
        self.images = {}

    def delta_pinv(self, chart, b):
        """(e e^T)^+ for the d1 matrix e from degree b-1 to b, so that
        sigma1 = e^T (e e^T)^+ = e^+.  Below top degree on strata with
        legs d1 is acyclic, which is checked on the ranks of e."""
        if b not in self.pinv:
            if (self.fids and b < chart.dim
                    and _d1_rank(chart, self, b - 1) + _d1_rank(chart, self, b)
                    != len(self.basis(chart, b))):
                raise InvariantViolation(
                    "unexpected d1-cohomology below top horizontal degree")
            dim = len(self.basis(chart, b))
            D = [[Fraction(0)] * dim for _ in range(dim)]
            for col in self.d1(chart, b - 1)[0]:
                for i, c in col.items():
                    for i2, c2 in col.items():
                        D[i][i2] += c * c2
            self.pinv[b] = pseudo_inverse_psd(D)
        return self.pinv[b]

    def sigma1_image(self, chart, word):
        """sigma1 of a canonical leg word of this stratum, memoized as a
        list of (target word, coefficient)."""
        image = self.images.get(word)
        if image is None:
            b = sum(1 for a in chart.decode_word(word) if a[0] == 'h')
            self.basis(chart, b)
            i = self.index[b].get(word)
            if i is None:
                raise InvariantViolation("leg word missing from its stratum basis")
            image = []
            if b:
                z = [row[i] for row in self.delta_pinv(chart, b)]
                cols, _ = self.d1(chart, b - 1)
                for j, col in enumerate(cols):
                    s = sum(c * z[k] for k, c in col.items() if z[k])
                    if s:
                        image.append((self.bases[b - 1][j], s))
            self.images[word] = image
        return image


def _seeded_strata(monkeypatch, seed, cases):
    """The strata of the leg words that the seeded criterion-5 suites read,
    per chart."""
    charts = []

    def recording_chart(**kw):
        charts.append(suite_chart(**kw))
        return charts[-1]

    monkeypatch.setattr(verify, "suite_chart", recording_chart)
    ok, _rows = verify.run_suites(seed=seed, cases=cases)
    assert ok
    return [(ch, image_strata(get_suite(ch))) for ch in charts]


def test_laplacian_images_equal_pseudo_inverse_images(monkeypatch):
    compared = {2: 0, 3: 0}
    for ch, strata in _seeded_strata(monkeypatch, seed=0, cases=40):
        for key, st in strata.items():
            oracle = PinvStratum(*key)
            for b in range(1, ch.dim + 1):
                for word in st.basis(ch, b):
                    image = sigma1_terms(st.sigma1_image(ch, word))
                    assert image == oracle.sigma1_image(ch, word), (key, word)
                    assert_exact(dict(image))
                    compared[ch.dim] += 1
    assert compared[2] > 1000 and compared[3] > 1000, compared


def _stratum(nlegs):
    """(chart, stratum) of the first nlegs legs of du0_,11 du1_,00 dc_,0
    dc_,0 wedged with dx0, on the 2-d suite chart."""
    ch = suite_chart(dim=2, nfields=2, ghost_field=True)
    u0, u1, c = (ch.by_name(n).fid for n in ("u0", "u1", "c"))
    legs = (('v', u0, (0, 2)), ('v', u1, (2, 0)), ('v', c, (1, 0)),
            ('v', c, (1, 0)))
    word = LocalForm.from_word(ch, legs[:nlegs] + (('h', 0),))
    (key,) = word.terms
    _coeffs, legs = _leg_split(ch, key)
    return ch, _Stratum(*_stratum_key(ch, legs))


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
    ch, st = _stratum(4)
    cols, _ = st.d1(ch, 0)
    src, tgt = st.bases[0], st.bases[1]
    assert len(tgt) == 411
    rows = [{} for _ in tgt]
    for j, col in enumerate(cols):
        for i, c in col.items():
            rows[i][j] = c
    X = [[0] * len(tgt) for _ in src]
    for i, word in enumerate(tgt):
        image = sigma1_terms(st.sigma1_image(ch, word))
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
    ch, st = _stratum(3)
    n = ch.dim
    cols, ntgt = st.d1(ch, n - 1)
    st.e[n - 1] = ([{}] * len(cols), ntgt)
    with pytest.raises(InvariantViolation, match="unexpected d1-cohomology"):
        st.delta_pinv(ch, n)


def test_d1_is_acyclic_below_top_degree(monkeypatch):
    """rank e_{b-1} + rank e_b = dim C_b for 1 <= b < n on every stratum
    with legs that criterion 5 builds on the 2-d and 3-d suite charts, and
    on the four-leg stratum: the Koszul exactness that sigma1 rests on and
    that the engine no longer checks (notes/decisions.md §22)."""
    strata = [(ch, st) for ch, sts in _seeded_strata(monkeypatch, seed=0, cases=200)
              for st in sts.values() if st.fids]
    strata.append(_stratum(4))
    checked = {2: 0, 3: 0}
    for ch, st in strata:
        for b in range(1, ch.dim):
            assert _d1_rank(ch, st, b - 1) + _d1_rank(ch, st, b) == len(st.bases[b]), \
                (st.fids, b)
            checked[ch.dim] += 1
    assert checked[2] > 100 and checked[3] > 100, checked
