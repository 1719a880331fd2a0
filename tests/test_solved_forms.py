"""Theory.solved against the generator scan it replaced.

The oracle below is the code before the change, verbatim apart from taking
the theory and its generator list as arguments: it kept the EL generators
as a list and rescanned that list for each candidate generator.  The
solved forms must be the same bindings in the same order on every bundled
theory with solve lines.
"""

import pytest

from varcalc.algebra import contract_legs, h_coefficient, midx_zero
from varcalc.chart import NoSolvedForm
from varcalc.dsl import SyntaxError_, parse_theory
from varcalc.render import atom_text
from varcalc.theory import Theory, _solve_linear
from conftest import assert_exact, load_theory


# ---------------------------------------------------------------------------
# the oracle: the generator list and its rescan, verbatim
# ---------------------------------------------------------------------------

def oracle_extract_generators(self):
    z = midx_zero(self.chart.dim)
    legs = contract_legs(self.EL)
    return [(fid, legs[fid, K]) for fid, K in sorted(legs) if K == z]


def oracle_scalar_generator(self, el_generators, fid):
    for gfid, coeff in el_generators:
        if gfid == fid:
            return h_coefficient(coeff, range(self.chart.dim))
    return None


def oracle_build_solved_forms(self):
    el_generators = oracle_extract_generators(self)
    chart = self.chart
    bindings = {}
    used = set()
    for name, midx, line in self.td.solve:
        if not chart.has_name(name):
            raise SyntaxError_(f"solve names unknown component {name!r}", line, 1)
        target = (chart.by_name(name).fid, midx)
        found = False
        for gfid, _c in el_generators:
            if gfid in used:
                continue
            E = oracle_scalar_generator(self, el_generators, gfid)
            sol = _solve_linear(E, target)
            if sol is not None:
                bindings[target] = sol
                used.add(gfid)     # one solved jet per EL generator
                found = True
                break
        if not found:
            raise NoSolvedForm(
                f"no unused EL component is linear in {atom_text(chart, ('j', *target))} "
                f"with invertible coefficient")
    return bindings


# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", [
    "bf_abelian_4d", "chern_simons_su2", "maxwell", "maxwell_first_order",
    "maxwell_sourced", "point_particle", "scalar_field", "scalar_field_null",
    "yang_mills_su2"])
def test_solved_forms_match_the_generator_scan(name):
    T = load_theory(name)
    assert T.td.solve
    want = oracle_build_solved_forms(T)
    assert list(T.solved) == list(want)
    for target, sol in T.solved.items():
        assert list(sol.terms.items()) == list(want[target].terms.items())
        assert_exact(sol)


@pytest.mark.parametrize("solve", ["q_,00 q_,11", "q_,01"])
def test_unsolvable_jet_raises_like_the_generator_scan(solve):
    """One solved jet per generator: a second jet for the only generator,
    or a jet it is not linear in, raises NoSolvedForm."""
    text = ("theory t\ndimension 2\nsignature - +\nfield q scalar\n"
            "lagrangian -1/2 * d(q) ∧ star(d(q))\nsolve ")
    T = Theory(parse_theory(text + "q_,00\n"))
    T.td.solve = parse_theory(text + solve + "\n").solve
    with pytest.raises(NoSolvedForm) as want:
        oracle_build_solved_forms(T)
    with pytest.raises(NoSolvedForm) as got:
        T._build_solved_forms()
    assert str(got.value) == str(want.value)
