"""sigma1 of one-leg words in closed form against the stratum that it
replaced on them.

On a stratum with one vertical leg the Hodge Laplacian of the source
degree is |F| Id, F the free directions of the stratum, so sigma1 = e^T/|F|
(notes/decisions.md §31).  HomotopySuite.sigma1 writes the image of such a
word in closed form and builds no stratum.  The oracle is
_Stratum.sigma1_image on a new stratum, which inverts the Laplacian block by
block on the stratum's bases.  Both return (den, [(word, numerator)]), and
they must be equal."""

import contextlib
import io
from itertools import combinations

import pytest

from varcalc.algebra import iter_midx, norm_word
from varcalc.chart import DYNAMIC
from varcalc.cli import main
from varcalc.homotopy import HomotopySuite, _Stratum, _stratum_key
from varcalc.randforms import suite_chart

from make_digests import THEORIES


def _stratum_image(chart, legs):
    return _Stratum(*_stratum_key(chart, legs)).sigma1_image(chart, legs)


def _one_leg(chart, legs):
    return sum(a[0] == 'v' for a in chart.decode_word(legs)) == 1


def _check(suite, legs):
    """The suite's image of a one-leg word against the stratum's, and its
    target words hold the chart's code objects."""
    image = suite._images[legs]
    chart = suite.chart
    assert image == _stratum_image(chart, legs), legs
    assert all(a is chart.codes[chart.decode(a)] for word, _n in image[1] for a in word)


def _argvs():
    """theta, noether, verify --all, cme and bvbfv on every bundled theory,
    every symmetry and the slice at its first coordinate."""
    for name, (coords, syms) in THEORIES.items():
        yield ["theta", name]
        yield ["verify", "--all", name]
        for s in syms:
            yield ["noether", name, "--symmetry", s]
            yield ["cme", name, "--symmetry", s]
            yield ["bvbfv", name, "--slice", coords[0] + "=0", "--symmetry", s]


def test_closed_form_on_every_word_the_commands_read(monkeypatch):
    """Every one-leg word of every suite that the commands make, the BV and
    slice charts included: legs of even ghosts and of antifields too.  No
    word they read has two legs, so none of them builds a stratum."""
    suites = []
    init = HomotopySuite.__init__

    def recording(self, chart):
        init(self, chart)
        suites.append(self)

    monkeypatch.setattr(HomotopySuite, "__init__", recording)
    for argv in _argvs():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1), argv
    monkeypatch.undo()
    words = even = antifield = 0
    for suite in suites:
        assert not suite._strata
        chart = suite.chart
        for legs in suite._images:
            if _one_leg(chart, legs):
                _check(suite, legs)
                ghost = chart.ghost(chart.decode(legs[0])[1])
                words += 1
                even += ghost % 2 == 1
                antifield += ghost < 0
    assert words > 1000 and even > 10 and antifield > 10, (words, even, antifield)


@pytest.mark.parametrize("dim", [2, 3])
def test_closed_form_on_every_low_order_word(dim):
    """Every one-leg word of order <= 3 and every horizontal degree b = 0..n
    on the suite chart with a ghost, read through sigma1."""
    ch = suite_chart(dim=dim, nfields=2, ghost_field=True)
    suite = HomotopySuite(ch)
    checked = 0
    for comp in ch.components:
        if comp.kind != DYNAMIC:
            continue
        for order in range(4):
            for I in iter_midx(dim, order):
                for b in range(dim + 1):
                    for H in combinations(range(dim), b):
                        atoms = (('v', comp.fid, I),) + tuple(('h', mu) for mu in H)
                        legs, _c = norm_word(ch, ch.encode_word(atoms), 1)
                        suite.sigma1({legs: {(): 1}})
                        _check(suite, legs)
                        checked += 1
    assert not suite._strata
    assert checked == 3 * len([I for k in range(4) for I in iter_midx(dim, k)]) * 2 ** dim


@pytest.mark.parametrize("dim", [2, 3])
def test_closed_form_at_the_jet_cutoff(dim):
    """A leg at the chart's jet cutoff: the image lowers its order, and its
    stratum's degrees b-2 to b reach no order above the cutoff."""
    ch = suite_chart(dim=dim, nfields=1, ghost_field=True)
    cut = ch.jet_cutoff
    suite = HomotopySuite(ch)
    for name in ("u0", "c"):
        fid = ch.by_name(name).fid
        for I in ((cut,) + (0,) * (dim - 1), (0,) * (dim - 1) + (cut,)):
            for b in range(dim + 1):
                for H in combinations(range(dim), b):
                    legs, _c = norm_word(ch, ch.encode_word(
                        (('v', fid, I),) + tuple(('h', mu) for mu in H)), 1)
                    suite.sigma1({legs: {(): 1}})
                    _check(suite, legs)
    assert not suite._strata
