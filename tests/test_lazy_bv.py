"""theta_BV and omega of a BVTheory, built on first read, against the eager
construction in BVTheory.__init__ that they replaced, kept verbatim here;
and the flow integrand of the identity catalog, taken once per symmetry.

theta_BV = h>=(dv L_BV) and its flow/boundary check run on the first read
of theta (or of omega, which reads it).  bv and cme read neither;
verify_bvbfv reads theta, through SigmaTheory(bv) and insert(bv.Q,
bv.theta)."""

import contextlib
import io
from importlib import resources

import pytest

from varcalc import bv as bv_module
from varcalc.algebra import d_h, d_v
from varcalc.bv import BVTheory
from varcalc.chart import ResidualNonzero
from varcalc.cli import main
from varcalc.euler import insert
from varcalc.homotopy import HomotopySuite
from varcalc.noether import noether_cone
from varcalc.theory import theory_from_text

from make_digests import THEORIES


def _fresh(name):
    return theory_from_text(resources.files("varcalc.theories").joinpath(
        name + ".thy").read_text(encoding="utf-8"))


def eager(self):
    """The former construction in BVTheory.__init__, on a built extension."""
    omega = self.omega_BV
    dvL = d_v(self.L)
    theta = self.suite.h_horizontal(dvL)
    rem = insert(self.Q, omega) - dvL + d_h(theta)
    if not rem.is_zero():
        raise ResidualNonzero("BV flow/boundary identity failed", rem)
    return theta, d_v(theta)


BUILDS = [(name, s) for name, (_coords, syms) in THEORIES.items() for s in syms
          if _fresh(name).symmetry(s).is_local]


@pytest.fixture
def built(monkeypatch):
    """Every BVTheory the command line builds."""
    out = []
    init = BVTheory.__init__

    def recording(self, theory, sym):
        init(self, theory, sym)
        out.append(self)

    monkeypatch.setattr(BVTheory, "__init__", recording)
    return out


def _run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


def test_every_local_symmetry_is_a_build():
    assert len(BUILDS) == 7 and ("bf_abelian_4d", "gaugeB") in BUILDS


@pytest.mark.parametrize("name, sym", BUILDS)
def test_first_reads_equal_the_eager_construction(name, sym):
    T = _fresh(name)
    theta, omega = eager(BVTheory(T, T.symmetry(sym)))
    for first in ("theta", "omega"):
        bv = BVTheory(T, T.symmetry(sym))
        assert not {"theta", "omega"} & set(vars(bv))
        assert getattr(bv, first) is getattr(bv, first)
        for attr, want in (("theta", theta), ("omega", omega)):
            assert list(getattr(bv, attr).terms.items()) == list(want.terms.items()), \
                (first, attr)


def test_bv_and_cme_build_neither(built):
    assert _run("bv", "yang_mills_su2", "--symmetry", "gauge") == 0
    assert _run("cme", "yang_mills_su2", "--symmetry", "gauge") == 0
    assert len(built) == 2
    assert not any({"theta", "omega"} & set(vars(bv)) for bv in built)
    assert _run("bvbfv", "yang_mills_su2", "--slice", "t=0", "--symmetry", "gauge") == 0
    # bvbfv reads theta_BV (SigmaTheory and i_Q theta_BV), not omega
    assert len(built) == 3 and set(vars(built[2])) & {"theta", "omega"} == {"theta"}


def test_failed_check_raises_on_first_read_of_theta(monkeypatch):
    """With d theta forced wrong, the extension builds and every read of
    theta, or of omega through it, raises; nothing is cached."""
    monkeypatch.setattr(bv_module, "d_h", lambda form: d_h(form) * 2)
    T = _fresh("maxwell")
    bv = BVTheory(T, T.symmetry("gauge"))
    assert bv.L.terms and bv.Q.components
    for attr in ("theta", "theta", "omega"):
        with pytest.raises(ResidualNonzero, match="BV flow/boundary identity failed"):
            getattr(bv, attr)
    assert not {"theta", "omega"} & set(vars(bv))


# two free scalars with a rotation (whose flow integrand is zero) and the
# translations (whose flow integrand is not)
TWO_SCALARS = """theory two_scalars
dimension 2
coordinates t x
signature - +
field p scalar
field q scalar
lagrangian -1/2 * d(p) ∧ star(d(p)) - 1/2 * d(q) ∧ star(d(q))
symmetry rot param a scalar constant
  p = a * q
  q = -1 * a * p
symmetry transl param e components 2 constant
  p = e0 * p_,0 + e1 * p_,1
  q = e0 * q_,0 + e1 * q_,1
solve p_,00
solve q_,00
"""


@pytest.mark.parametrize("name", ["scalar_field", "two_scalars"])
def test_verify_all_takes_one_flow_integrand_per_symmetry(name, monkeypatch, tmp_path):
    """lemma:flow-density and thm:hamflow-closed read one A - d h>=(A), so
    h>= runs on A = i_rho omega + d_v J once per symmetry.  Of the bundled
    theories only scalar_field has a nonzero A; a zero A is not counted."""
    if name == "two_scalars":
        path = tmp_path / "two_scalars.thy"
        path.write_text(TWO_SCALARS, encoding="utf-8")
        T, arg = theory_from_text(TWO_SCALARS), str(path)
    else:
        T, arg = _fresh(name), name
    integrands = []
    for sym in T.symmetries.values():
        _S, J = noether_cone(T, sym)
        A = insert(sym.rho, T.omega) + d_v(J)
        if A.terms:
            integrands.append(A.terms)
    assert integrands
    inputs = []
    h_horizontal = HomotopySuite.h_horizontal

    def recording(self, form):
        inputs.append(form.terms)
        return h_horizontal(self, form)

    monkeypatch.setattr(HomotopySuite, "h_horizontal", recording)
    assert _run("verify", "--all", arg) == 0
    assert [sum(terms == A for terms in inputs) for A in integrands] == \
        [1] * len(integrands)
