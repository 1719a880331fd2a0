"""theta, omega and P(L) of a Theory, built on first read, against the
eager construction in Theory.__init__ that they replaced, kept verbatim
here.

A load elaborates L and builds E(L), the solved forms and the symmetry
actions.  theta = h>=(d_v L) and its check d_v L = E L + d theta run on
the first read of theta (or of omega, which reads it), and P(L) = hv E L
on the first read of Lh.  A command that reads none of them, such as el,
runs no horizontal homotopy."""

from importlib import resources

import pytest

from varcalc import theory as theory_module
from varcalc.algebra import d_h, d_v
from varcalc.chart import InvariantViolation
from varcalc.cli import main
from varcalc.homotopy import HomotopySuite
from varcalc.theory import theory_from_text

from test_el_oracle import THEORIES


def text_of(name):
    return resources.files("varcalc.theories").joinpath(
        name + ".thy").read_text(encoding="utf-8")


def eager(self):
    """The former construction in Theory.__init__, on a loaded theory."""
    dvL = d_v(self.L)
    theta = self.suite.h_horizontal(dvL)
    omega = d_v(theta)
    Lh = self.suite.h_vertical(self.EL)      # P(L) = hv E L
    resid = dvL - self.EL - d_h(theta)
    if not resid.is_zero():
        raise InvariantViolation("d_v L != E L + d theta")
    return theta, omega, Lh


@pytest.fixture
def h_inf_calls(monkeypatch):
    calls = []
    h_inf = HomotopySuite.h_inf

    def counting(self, form):
        calls.append(form)
        return h_inf(self, form)

    monkeypatch.setattr(HomotopySuite, "h_inf", counting)
    return calls


@pytest.mark.parametrize("name", THEORIES)
def test_first_reads_equal_the_eager_construction(name):
    theta, omega, Lh = eager(theory_from_text(text_of(name)))
    for first in ("theta", "omega", "Lh"):
        T = theory_from_text(text_of(name))
        assert not {"theta", "omega", "Lh"} & set(vars(T))
        got = getattr(T, first)
        assert got is getattr(T, first)
        for attr, want in (("theta", theta), ("omega", omega), ("Lh", Lh)):
            assert list(getattr(T, attr).terms.items()) == list(want.terms.items()), \
                (first, attr)


def test_el_runs_no_horizontal_homotopy(h_inf_calls, capsys):
    assert main(["el", "maxwell"]) == 0
    assert capsys.readouterr().out.startswith("E(L): ")
    assert h_inf_calls == []
    assert main(["theta", "maxwell"]) == 0
    assert len(h_inf_calls) == 1


def test_load_builds_none_of_them(h_inf_calls):
    T = theory_from_text(text_of("yang_mills_su2"))
    assert h_inf_calls == []
    assert not {"theta", "omega", "Lh"} & set(vars(T))
    T.omega
    assert len(h_inf_calls) == 1 and {"theta", "omega"} <= set(vars(T))
    T.theta
    T.Lh
    assert len(h_inf_calls) == 1


def test_failed_check_raises_on_first_read_of_theta(monkeypatch):
    """With d theta forced wrong, the load succeeds and every read of
    theta, or of omega through it, raises; nothing is cached."""
    monkeypatch.setattr(theory_module, "d_h", lambda form: d_h(form) * 2)
    T = theory_from_text(text_of("maxwell"))
    assert T.EL.terms and T.symmetries
    for attr in ("theta", "theta", "omega"):
        with pytest.raises(InvariantViolation, match="d_v L != E L"):
            getattr(T, attr)
    assert not {"theta", "omega"} & set(vars(T))
    assert T.Lh.terms
