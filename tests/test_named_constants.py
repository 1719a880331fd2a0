"""Named constants through the slice, the BV and BFV extensions and the
solved forms.

A Lagrangian scaled by inv(g) puts the inverse atom of a named constant in
every form the slice and the extensions build: SigmaTheory.restrict and
to_bulk carry the 'ji' atom across charts, and graded_extension extends a
body that holds it.  A solved jet whose coefficient is inv(m) is solved by
inverting the constant monomial, m * inv(m) = 1.
"""

from varcalc.bv import bfv_extend, bv_extend, verify_bvbfv
from varcalc.chart import CONST
from varcalc.cli import main
from varcalc.render import render_text
from varcalc.slicing import SliceSpec, compute_ce_cocycle, restrict_to_slice
from varcalc.theory import theory_from_text

MAXWELL_G = """theory maxwell_g
dimension 4
coordinates t x y z
signature - + + +
constant g
field A form 1
lagrangian inv(g) * (1/2 * d(A) ∧ star(d(A)))
symmetry gauge param xi scalar
  A = d(xi)
solve A0_,11 A1_,00 A2_,00 A3_,00
"""

# E(L) = inv(m) * (q_,00 - q_,11) + q: the q_,00 coefficient is inv(m)
INV_MASS = """theory inv_mass
dimension 2
coordinates t x
signature - +
constant m
field q scalar
lagrangian inv(m) * (1/2 * d(q) ∧ star(d(q))) + 1/2 * q * q * vol
solve q_,00
"""


def _holds_inverse(form):
    chart = form.chart
    return any(a[0] == 'ji' and chart.kind(a[1]) == CONST
               for key in form.terms for a in chart.decode_word(key))


def test_slice_of_an_inverse_constant_pairs_each_field_with_its_momentum():
    T = theory_from_text(MAXWELL_G)
    sigma = restrict_to_slice(T, SliceSpec(transverse=0))
    assert sigma.pairing == {f"A{i}": [f"Pi_A{i}"] for i in (1, 2, 3)} | \
        {f"Pi_A{i}": [f"A{i}"] for i in (1, 2, 3)}
    # each momentum definition holds inv(g), and pi* carries it back
    for _sfid, density in sigma.momenta.values():
        assert _holds_inverse(density)
        assert _holds_inverse(sigma.to_bulk(density))
    table = compute_ce_cocycle(sigma, T.symmetry("gauge"))
    assert [render_text(v) for v in table.values()] == ["0"]


def test_extensions_of_an_inverse_constant_pass_the_compatibility_conditions():
    T = theory_from_text(MAXWELL_G)
    sym = T.symmetry("gauge")
    spec = SliceSpec(transverse=0)
    bv = bv_extend(T, sym)
    bfv = bfv_extend(restrict_to_slice(T, spec), sym)
    # the BV body holds inv(g); on the slice the momenta absorb it
    assert _holds_inverse(bv.L) and not _holds_inverse(bfv.L)
    reports = verify_bvbfv(bv, bfv, spec)
    assert [r.passed for r in reports] == [True, True, True], \
        [r.line() for r in reports]


def test_inverse_constant_on_the_command_line(tmp_path, capsys):
    path = tmp_path / "maxwell_g.thy"
    path.write_text(MAXWELL_G, encoding="utf-8")
    assert main(["canonical", str(path), "--slice", "t=0"]) == 0
    out = capsys.readouterr().out
    assert "'A1': ['Pi_A1'], 'A2': ['Pi_A2'], 'A3': ['Pi_A3']" in out
    assert "kappa = {'(((), ()), ((), ()))': '0'}" in out
    assert main(["bvbfv", str(path), "--slice", "t=0"]) == 0
    assert capsys.readouterr().out.count("PASS") == 3
    assert main(["verify", "--all", str(path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and out.count("PASS") == 8


def test_solved_jet_with_an_inverse_constant_coefficient():
    T = theory_from_text(INV_MASS)
    q = T.chart.by_name("q").fid
    (target, sol), = T.solved.items()
    assert target == (q, (2, 0))
    assert render_text(sol) == "q_,11 - m * q"
