"""Slice restriction, Sigma-Noether data, cocycles, corner algebra."""

import random
from fractions import Fraction
from importlib import resources

import pytest

from varcalc.chart import (
    COORD, DegenerateSlice, DoesNotDescend, NoFlux, NotExact, VerdictMismatch,
)
from varcalc.algebra import (
    LocalForm, apply_derivation, d_h, midx_zero, substitute, transport,
)
from varcalc.cli import main
from varcalc import slicing
from varcalc.dsl import ElabContext, elaborate_form
from varcalc.lie import Structure, _kval, abelian_structure, schouten_PiPi, su2_structure
from varcalc.render import render_text
from varcalc.slicing import (
    CornerData, SliceSpec, _corner_ring_chart, compute_ce_cocycle, corner_data,
    corner_bracket_SS, descended_action, restrict_to_slice, sigma_noether,
    split_constraint_flux, verify_corner_master,
)
from varcalc.theory import theory_from_text
from conftest import assert_exact, load_theory


@pytest.fixture(scope="module")
def scalar_slice(scalar_field):
    return restrict_to_slice(scalar_field, SliceSpec(transverse=0))


@pytest.fixture(scope="module")
def maxwell_slice(maxwell):
    return restrict_to_slice(maxwell, SliceSpec(transverse=0, corner=1))


def test_scalar_slice_fields_and_omega(scalar_slice):
    sig = scalar_slice
    ctx = ElabContext(sig.schart)
    expect = elaborate_form(ctx, "delta(Pi_phi) ∧ delta(phi) ∧ dx0")
    assert (sig.omega_sigma - expect).is_zero()
    assert sig.pairing == {"phi": ["Pi_phi"], "Pi_phi": ["phi"]}


def test_null_slice_integrand(scalar_null):
    sig = restrict_to_slice(scalar_null, SliceSpec(transverse=0))
    ctx = ElabContext(sig.schart)
    # vol_S d_u(delta Psi) ^ delta Psi, written as a top form on Sigma
    expect = elaborate_form(ctx, "delta(phi_,0) ∧ delta(phi) ∧ dx0 ∧ dx1")
    assert (sig.omega_sigma - expect).is_zero()
    assert list(sig.momenta) == []


def test_zero_lagrangian_slice():
    T = theory_from_text("theory z\ndimension 2\nsignature + +\n"
                         "field phi scalar\nlagrangian 0\n")
    sig = restrict_to_slice(T, SliceSpec(transverse=0))
    assert sig.omega_sigma.is_zero() and sig.pairing == {}


def test_maxwell_slice_pairing(maxwell_slice):
    assert maxwell_slice.pairing["A1"] == ["Pi_A1"]
    assert "A0" not in maxwell_slice.pairing   # reduced out


def test_maxwell_gauss_and_flux(maxwell, maxwell_slice):
    sym = maxwell.symmetry("gauge")
    H = sigma_noether(maxwell_slice, sym)
    H0, hf = split_constraint_flux(maxwell_slice, sym, H)
    assert (H - H0 - d_h(hf)).is_zero()
    ctx = ElabContext(maxwell_slice.schart)
    gauss = elaborate_form(ctx, "(Pi_A1_,0 + Pi_A2_,1 + Pi_A3_,2) * xi ∧ dx0 ∧ dx1 ∧ dx2")
    assert (H0 - gauss).is_zero()
    assert not hf.is_zero()


def test_sigma_noether_trivial_action(maxwell, maxwell_slice):
    from varcalc.euler import EvolutionaryField
    from varcalc.theory import SymmetryAction
    zero = SymmetryAction(maxwell, "zero", maxwell.symmetry("gauge").param_groups,
                          EvolutionaryField(maxwell.chart, {}))
    assert zero.is_local
    H = sigma_noether(maxwell_slice, zero)
    assert H.is_zero()


def test_does_not_descend_reports_offenders(scalar_field, scalar_slice):
    # an expression with second transverse jets cannot descend
    bad = elaborate_form(scalar_field.ctx, "phi_,00 * dx1")
    with pytest.raises(DoesNotDescend) as e:
        scalar_slice.express(bad)
    assert e.value.offending


def test_ce_cocycle_tables(maxwell, maxwell_slice, yang_mills):
    sym = maxwell.symmetry("gauge")
    table = compute_ce_cocycle(maxwell_slice, sym)
    assert table and all(v.is_zero() for v in table.values())
    ym_slice = restrict_to_slice(yang_mills, SliceSpec(transverse=0, corner=1))
    table2 = compute_ce_cocycle(ym_slice, yang_mills.symmetry("gauge"))
    assert table2 and all(v.is_zero() for v in table2.values())


def test_ce_cocycle_negative_control(maxwell, maxwell_slice, monkeypatch):
    # shifting H_eta by a field-dependent non-closed term breaks exactness;
    # H_eta is the relabelling xi -> eta of H_xi, so the shift goes there
    sym = maxwell.symmetry("gauge")
    ctx = ElabContext(maxwell_slice.schart)
    shift = elaborate_form(
        ctx, "A1 * A1 * xi__b ∧ dx0 ∧ dx1 ∧ dx2")
    unshifted = slicing.relabel
    monkeypatch.setattr(slicing, "relabel", lambda *args: unshifted(*args) + shift)
    with pytest.raises(NotExact):
        compute_ce_cocycle(maxwell_slice, sym)


def test_corner_data_and_master(yang_mills):
    sig = restrict_to_slice(yang_mills, SliceSpec(transverse=0, corner=1))
    sym = yang_mills.symmetry("gauge")
    cd = corner_data(sig, sym)
    assert cd.structure.dim == 3 and cd.h_densities
    rep = verify_corner_master(cd)
    assert rep.passed


def test_corner_requires_flux():
    T = theory_from_text(
        "theory s\ndimension 2\nsignature - +\nfield phi scalar\n"
        "lagrangian -1/2*d(phi)∧star(d(phi))\n"
        "symmetry shift param xi scalar\n  phi = xi\nsolve phi_,00\n")
    # shift with a field-valued parameter is not a symmetry of the free scalar
    assert not T.is_symmetry(T.symmetry("shift"))


def _graded_partial(form, fid, parity):
    chart = form.chart
    z = midx_zero(chart.dim)

    def image(atom):
        if atom == chart.encode(('j', fid, z)):
            return LocalForm.scalar(chart, 1)
        return None

    return apply_derivation(form, parity, image)


def _hand_written_corner_bracket_SS(dim, f, k):
    """The corner bracket before it was the BV bracket, kept verbatim as
    the oracle: sum_a dS/dc^a ∧ dS/dh_a + dS/dh_a ∧ dS/dc^a."""
    ch, hfids, cfids = _corner_ring_chart(dim)
    z = midx_zero(1)
    S = LocalForm(ch)
    for (a, b), lst in f.items():
        for c, coeff in lst:
            S.add_word((('j', hfids[c], z), ('j', cfids[a], z), ('j', cfids[b], z)),
                     Fraction(coeff) / 2)
    for a in range(dim):
        for b in range(dim):
            kv = _kval(k, a, b)
            if kv:
                S.add_word((('j', cfids[a], z), ('j', cfids[b], z)), kv / 2)
    out = LocalForm(ch)
    for a in range(dim):
        dSc = _graded_partial(S, cfids[a], 1)
        dSh = _graded_partial(S, hfids[a], 0)
        out = out + dSc.wedge(dSh) + dSh.wedge(dSc)
    return out


def _random_corner_data(rng, dim):
    """Arbitrary rational f^{ab}_c (antisymmetric or not) and k^{ab}."""
    f = {}
    for a in range(dim):
        for b in range(dim):
            lst = [(c, Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
                   for c in range(dim) if rng.random() < 0.3]
            if any(v for _c, v in lst):
                f[(a, b)] = [(c, v) for c, v in lst if v]
    k = {(a, b): Fraction(rng.randint(-3, 3)) for a in range(dim) for b in range(dim)
         if rng.random() < 0.3}
    return f, k


def test_corner_bracket_matches_the_hand_written_bracket():
    rng = random.Random(0)
    cases = [(3, su2_structure().f, {}), (3, su2_structure().f, {(0, 1): Fraction(1)})]
    cases += [(dim, *_random_corner_data(rng, dim))
              for dim in (1, 2, 3, 4) for _ in range(25)]
    for dim, f, k in cases:
        got = corner_bracket_SS(Structure("t", dim, f, {}), k)
        want = _hand_written_corner_bracket_SS(dim, f, k)
        assert got == want, (dim, f, k)
        assert_exact(got)


def test_corner_master_negative_and_verdicts_agree():
    # genuinely non-Jacobi constants fail both computations coherently
    bad = {(0, 1): [(1, Fraction(1))], (1, 0): [(1, Fraction(-1))],
           (0, 2): [(2, Fraction(1))], (2, 0): [(2, Fraction(-1))],
           (1, 2): [(2, Fraction(1))], (2, 1): [(2, Fraction(-1))]}
    d = CornerData(Structure("bad", 3, bad, {}), k={}, h_densities={})
    rep = verify_corner_master(d)
    assert not rep.passed
    assert rep.detail == "{S,S} = 2 * hc2 * cg0 * cg1 * cg2"
    assert not corner_bracket_SS(d.structure, {}).is_zero()
    assert schouten_PiPi(d.structure, {})
    # an injected constant 2-cocycle keeps the master equation
    d2 = CornerData(su2_structure(), k={(0, 1): Fraction(1)}, h_densities={})
    assert verify_corner_master(d2).passed
    # abelian with k = 0: trivially holds
    d3 = CornerData(abelian_structure("u", 1), k={}, h_densities={})
    assert verify_corner_master(d3).passed


TWO_MAXWELL = """theory two_maxwell
dimension 4
coordinates t x y z
signature - + + +
field A form 1
field B form 1
lagrangian -1/2 * d(A) ∧ star(d(A)) - 1/2 * d(B) ∧ star(d(B))
symmetry gauge param xi scalar param eta scalar
  A = d(xi)
  B = d(eta)
"""


def test_two_parameter_groups_get_one_basis_element_each():
    """Each parameter component of a symmetry is its own basis element, and
    every other parameter component is zero there: the corner densities of
    two Maxwell copies hold no parameter, and kappa has all four pairs."""
    T = theory_from_text(TWO_MAXWELL)
    sym = T.symmetry("gauge")
    cd = corner_data(restrict_to_slice(T, SliceSpec(transverse=0, corner=1)), sym)
    assert cd.h_densities == {((), (), 0): "-Pi_A1 ∧ dx1 ∧ dx2",
                              ((), (), 1): "-Pi_B1 ∧ dx1 ∧ dx2"}
    assert cd.structure.dim == 2 and verify_corner_master(cd).passed
    kappa = compute_ce_cocycle(restrict_to_slice(T, SliceSpec(transverse=0)), sym)
    labels = [((), (), 0), ((), (), 1)]
    assert sorted(kappa) == [(a, b) for a in labels for b in labels]
    assert all(k.is_zero() for k in kappa.values())


def test_bf_slice_constraint(bf4):
    sig = restrict_to_slice(bf4, SliceSpec(transverse=0, corner=1))
    sym = bf4.symmetry("gaugeB")
    H = sigma_noether(sig, sym)
    H0, hf = split_constraint_flux(sig, sym, H)
    assert (H - H0 - d_h(hf)).is_zero()
    assert not H0.is_zero() and not hf.is_zero()


# Lagrangians that hold the slice coordinate t: the slice evaluates it at 0
TDEP = """theory tdep
dimension 2
coordinates t x
signature - +
field phi scalar
lagrangian 1/2 * (1 + t) * d(phi) * star(d(phi))
"""

WT = """theory wt
dimension 2
coordinates t x
signature - +
function W
field phi scalar
lagrangian -1/2 * d(phi) ∧ star(d(phi)) + W(t) * phi_,0 * phi_,1 * vol
"""

TMAX = """theory tmax
dimension 4
coordinates t x y z
signature - + + +
field A form 1
lagrangian 1/2 * (1 + t) * d(A) ∧ star(d(A))
symmetry gauge param xi scalar
  A = d(xi)
"""

T_DEPENDENT = {"tdep": TDEP, "wt": WT, "tmax": TMAX}


@pytest.fixture(scope="module", params=sorted(T_DEPENDENT))
def t_dependent(request):
    return theory_from_text(T_DEPENDENT[request.param])


def test_t_dependent_lagrangian_restricts_at_t_zero(t_dependent, maxwell_slice):
    sig = restrict_to_slice(t_dependent, SliceSpec(transverse=0))
    if sig.schart.has_name("A0"):
        # 1 + t is 1 on the slice: the Maxwell slice data
        assert render_text(sig.omega_sigma) == render_text(maxwell_slice.omega_sigma)
        assert sig.pairing == maxwell_slice.pairing
        return
    ctx = ElabContext(sig.schart)
    expect = elaborate_form(ctx, "-delta(phi) ∧ delta(Pi_phi) ∧ dx0")
    assert (sig.omega_sigma - expect).is_zero()


def _bulk_iota(form, t):
    """iota^* on the bulk chart, written independently of the slice chart:
    words holding dx^t vanish, and the coordinate x^t is 0 as a jet and as
    a function argument."""
    chart = form.chart

    def image(a, in_fn):
        if a[0] == 'j' and chart.component(a[1]).kind == COORD \
                and chart.component(a[1]).coord_dir == t:
            return ('0',) if in_fn else None
        return a

    dxt = chart.encode(('h', t))
    return transport(form.components(lambda w: dxt not in w), chart, image)


BUNDLED = sorted(p.name[:-4] for p in resources.files("varcalc.theories").iterdir()
                 if p.name.endswith(".thy"))


@pytest.mark.parametrize("name", BUNDLED + sorted(T_DEPENDENT))
def test_pi_star_omega_sigma_is_iota_star_omega(name):
    """pi^* omega_Sigma = iota^* omega on every coordinate slice where the
    restriction succeeds: the momentum solves undo under pi^*, so the
    identity holds by construction (notes/decisions.md §27)."""
    T = (theory_from_text(T_DEPENDENT[name]) if name in T_DEPENDENT
         else load_theory(name))
    restricted = 0
    for t in range(T.chart.dim):
        try:
            sig = restrict_to_slice(T, SliceSpec(transverse=t))
        except (DegenerateSlice, DoesNotDescend):
            continue
        restricted += 1
        assert (sig.to_bulk(sig.omega_sigma) - _bulk_iota(T.omega, t)).is_zero(), t
    assert restricted


def test_t_dependent_theories_on_the_command_line(tmp_path, capsys):
    for name, text in T_DEPENDENT.items():
        (tmp_path / (name + ".thy")).write_text(text, encoding="utf-8")
    tmax, wt = str(tmp_path / "tmax.thy"), str(tmp_path / "wt.thy")
    for argv in (["canonical", tmax, "--slice", "t=0"],
                 ["corner", tmax, "--slice", "t=0"],
                 ["bvbfv", tmax, "--slice", "t=0"],
                 ["canonical", wt, "--slice", "t=0"]):
        assert main(argv) == 0, argv
    assert capsys.readouterr().out.count("PASS") == 4
    # the coefficient 1 + t of the A0 momentum relation is not constant
    assert main(["canonical", tmax, "--slice", "x=0"]) == 1
    assert capsys.readouterr().err == \
        "error: cannot solve the momentum relation for A0\n"


# Two fields whose momentum relations both hold Dt_p and Dt_q.  Each
# relation is solved for its lex-max unsolved Dt field after the solved ones
# are substituted, and the new solution is substituted back into the earlier
# ones (notes/decisions.md §29).
KINETIC = ("theory {name}\ndimension 2\ncoordinates t x\nsignature - +\n"
           "field p scalar\nfield q scalar\n"
           "lagrangian ({kinetic} - 1/2 * p_,1 * p_,1 - 1/2 * q_,1 * q_,1) * dx0 * dx1\n")
# kinetic matrix [[1, 1], [1, 2]]
INVERTIBLE = KINETIC.format(
    name="inv", kinetic="1/2 * p_,0 * p_,0 + p_,0 * q_,0 + q_,0 * q_,0")
# kinetic matrix [[2, 2], [2, 2]]
SINGULAR = KINETIC.format(name="sing", kinetic="(p_,0 + q_,0) * (p_,0 + q_,0)")


def test_invertible_kinetic_matrix_pairs_each_field_with_its_momentum():
    T = theory_from_text(INVERTIBLE)
    sig = restrict_to_slice(T, SliceSpec(transverse=0))
    assert sig.pairing == {"p": ["Pi_p"], "q": ["Pi_q"], "Pi_p": ["p"], "Pi_q": ["q"]}
    ctx = ElabContext(sig.schart)
    expect = elaborate_form(
        ctx, "-delta(p) ∧ delta(Pi_p) ∧ dx0 - delta(q) ∧ delta(Pi_q) ∧ dx0")
    assert (sig.omega_sigma - expect).is_zero()
    # the momenta are Pi = -K Dt in this orientation, so the solves are
    # Dt = -K^-1 Pi with K^-1 = [[2, -1], [-1, 1]]
    z = midx_zero(1)
    densities = {sig.schart.component(sfid).name: render_text(d)
                 for sfid, d in sig.momenta.values()}
    assert densities == {"p": "-Dt_p - Dt_q", "q": "-Dt_p - 2 * Dt_q"}
    solves = {sig.schart.component(fid).name: render_text(expr)
              for (fid, _z), expr in sig.dt_solves.items()}
    assert solves == {"Dt_p": "-2 * Pi_p + Pi_q", "Dt_q": "Pi_p - Pi_q"}
    assert all(K == z for _fid, K in sig.dt_solves)
    assert (sig.to_bulk(sig.omega_sigma) - _bulk_iota(T.omega, 0)).is_zero()


def test_singular_kinetic_matrix_is_a_degenerate_slice():
    T = theory_from_text(SINGULAR)
    with pytest.raises(DegenerateSlice, match="cannot solve the momentum relation for q"):
        restrict_to_slice(T, SliceSpec(transverse=0))


def test_shared_dt_fields_on_the_command_line(tmp_path, capsys):
    inv, sing = tmp_path / "inv.thy", tmp_path / "sing.thy"
    inv.write_text(INVERTIBLE, encoding="utf-8")
    sing.write_text(SINGULAR, encoding="utf-8")
    assert main(["canonical", str(inv), "--slice", "t=0"]) == 0
    assert capsys.readouterr().out == (
        "field pairing: {'p': ['Pi_p'], 'q': ['Pi_q'], 'Pi_p': ['p'], 'Pi_q': ['q']}\n"
        "omega_Sigma = -delta(p) ∧ delta(Pi_p) ∧ dx0 - delta(q) ∧ delta(Pi_q) ∧ dx0\n")
    assert main(["canonical", str(sing), "--slice", "t=0"]) == 1
    assert capsys.readouterr().err == "error: cannot solve the momentum relation for q\n"


def test_bundled_momentum_solves_substitute_nothing(monkeypatch):
    """On every bundled theory each momentum relation holds one Dt field of
    its own, so the elimination calls substitute only for theta_Sigma."""
    calls = []
    monkeypatch.setattr(slicing, "substitute",
                        lambda form, b: calls.append(b) or substitute(form, b))
    restricted = 0
    for name in BUNDLED:
        T = load_theory(name)
        for t in range(T.chart.dim):
            calls.clear()
            try:
                sig = restrict_to_slice(T, SliceSpec(transverse=t))
            except (DegenerateSlice, DoesNotDescend):
                continue
            assert len(calls) == (1 if sig.dt_solves else 0), (name, t)
            restricted += 1
    assert restricted > 20
    calls.clear()
    restrict_to_slice(theory_from_text(INVERTIBLE), SliceSpec(transverse=0))
    assert len(calls) == 3      # one forward, one back, then theta_Sigma
