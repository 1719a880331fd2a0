"""Every Theory, slice theory, BV/BFV theory, Chart, HomotopySuite and
stratum that one ``cli.main`` call builds is freed by reference counting
when the call returns: each cache lives on the object it derives from and
points back at no owner, and a stratum keeps no chart (notes/decisions.md
§34, §36).  The cyclic collector is off during the call and
the check, so an object that only it could free is still alive there.

The sweep runs each command on every bundled theory, each symmetry and the
first coordinate slice and corner.  Runs that exit 1 (a failed verdict or
a refused symmetry) are kept: a failure path must free what it built too.
The criterion-5 suites build no theory but many strata, on charts of
their own; they run in text and in JSON at two seeds.
"""

import contextlib
import gc
import io
import weakref

import pytest

from varcalc import bv, chart, cli, homotopy, slicing, theory
from make_digests import THEORIES

BUILT = (theory.Theory, slicing.SigmaTheory, bv.BVTheory, bv.BFVTheory, chart.Chart,
         homotopy.HomotopySuite, homotopy._Stratum)


def _runs():
    runs = []
    for T, (coords, syms) in THEORIES.items():
        for cmd in ("el", "theta", "omega", "project"):
            runs.append([cmd, T])
        runs.append(["equiv", T, T])
        runs.append(["verify", "--all", T])
        sl = ["--slice", f"{coords[0]}=0"]
        runs.append(["canonical", T, *sl])
        for s in syms:
            for cmd in ("noether", "noether2", "bv", "cme"):
                runs.append([cmd, T, "--symmetry", s])
            runs.append(["bvbfv", T, *sl, "--symmetry", s])
            if len(coords) > 1:
                runs.append(["corner", T, *sl, "--corner", f"{coords[1]}=0",
                             "--symmetry", s])
    return runs


@pytest.fixture
def built(monkeypatch):
    """[(class name, weak reference)] of every object of BUILT made while
    the test runs."""
    refs = []
    for cls in BUILT:
        def init(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            refs.append((_cls.__name__, weakref.ref(self)))
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)
    return refs


def _alive_after(built, argv):
    """(exit code, names of the objects of BUILT still alive) after
    ``cli.main(argv)``, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        alive = [name for name, ref in built if ref() is not None]
    finally:
        if enabled:
            gc.enable()
    return code, alive


@pytest.mark.parametrize("argv", _runs(), ids=" ".join)
def test_nothing_built_outlives_the_call(built, argv):
    code, alive = _alive_after(built, argv)
    assert code in (0, 1)
    assert {"Theory", "Chart"} <= {name for name, _ref in built}
    assert alive == []


@pytest.mark.parametrize("argv", [
    [*fmt, "verify", "--suites", "--cases", cases, "--seed", seed]
    for cases, seed in (("2", "1"), ("20", "8")) for fmt in ([], ["--json"])
], ids=" ".join)
def test_no_stratum_of_the_suites_outlives_the_call(built, argv):
    code, alive = _alive_after(built, argv)
    assert code == 0
    assert {"Chart", "HomotopySuite", "_Stratum"} <= {name for name, _ref in built}
    assert alive == []
