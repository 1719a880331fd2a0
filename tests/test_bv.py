"""BV/BFV extensions, master equations, compatibility, witnesses."""

from fractions import Fraction

import pytest

from varcalc.chart import NotHamiltonian, NotLocal, ResidualNonzero
from varcalc.algebra import LocalForm, contract_legs, d_v, h_coefficient, midx_zero
from varcalc.dsl import elaborate_form
from varcalc.euler import (
    EvolutionaryField, insert, interior_euler, lie_derivative,
)
from varcalc.render import render_text
from varcalc.bv import (
    bfv_extend, bv_bracket, bv_extend, check_q_nilpotent, cohomology_witness,
    hamiltonian_vector_field, verify_bfv_cme, verify_bvbfv, verify_cme,
    zero_ghost_body,
)
from varcalc.slicing import SigmaTheory, SliceSpec, restrict_to_slice
from varcalc.theory import theory_from_text
from conftest import assert_exact, atom_terms, load_theory
from test_param_promotion import LOCAL_SYMMETRIES


@pytest.fixture(scope="module")
def bv_maxwell(maxwell):
    return bv_extend(maxwell, maxwell.symmetry("gauge"))


@pytest.fixture(scope="module")
def bv_ym(yang_mills):
    return bv_extend(yang_mills, yang_mills.symmetry("gauge"))


@pytest.fixture(scope="module")
def bv_bf(bf4):
    return bv_extend(bf4, bf4.symmetry("gaugeA"))


def test_bv_body_and_ghost_grading(bv_maxwell, maxwell):
    body = zero_ghost_body(bv_maxwell, bv_maxwell.L)
    assert (body - bv_maxwell.lift(maxwell.L)).is_zero()
    assert all(bv_maxwell.L.key_ghost(k) == 0 for k in bv_maxwell.L.terms)


def test_bv_maxwell_antifield_term(bv_maxwell):
    # L_BV = L + <A+, dc> with no ghost-ghost term in the Abelian case
    anti = bv_maxwell.L - zero_ghost_body(bv_maxwell, bv_maxwell.L)
    names = {bv_maxwell.chart.component(a[1]).name
             for key in atom_terms(anti) for a in key if a[0] == 'j'}
    assert any(n.endswith("_dag") for n in names)
    assert "c_xi_dag" not in names


def test_bv_ym_ghost_term(bv_ym):
    anti = bv_ym.L - zero_ghost_body(bv_ym, bv_ym.L)
    names = {bv_ym.chart.component(a[1]).name
             for key in atom_terms(anti) for a in key if a[0] == 'j'}
    assert any(n.startswith("c_xi") and n.endswith("_dag") for n in names)


def test_q_nilpotent(bv_maxwell, bv_ym, bv_bf):
    for bv in (bv_maxwell, bv_ym, bv_bf):
        assert check_q_nilpotent(bv).passed


def test_q_nilpotent_negative_control(yang_mills):
    # breaking the Jacobi identity of the bracket breaks Q^2 on the ghost
    import copy
    sym = yang_mills.symmetry("gauge")
    broken = copy.copy(sym)
    st = sym.structure
    from varcalc.lie import Structure
    f = {k: [(c, v * (2 if k == (0, 1) else 1)) for c, v in lst]
         for k, lst in st.f.items()}
    f[(1, 0)] = [(c, -v) for c, v in f[(0, 1)]]
    broken.structure = Structure(st.name, st.dim, f, st.kappa)
    bv = bv_extend(yang_mills, broken)
    with pytest.raises(ResidualNonzero):
        check_q_nilpotent(bv)


def test_cme(bv_maxwell, bv_ym, bv_bf):
    for bv in (bv_maxwell, bv_ym, bv_bf):
        rep, prim = verify_cme(bv)
        assert rep.passed


def _cme_breaking_lagrangian(bv):
    """L_BV of Maxwell with a wrong coefficient on the ghost coupling."""
    z = midx_zero(bv.chart.dim)
    return bv.L + LocalForm.from_word(
        bv.chart,
        (('j', bv.chart.by_name("A1_dag").fid, z),
         ('j', bv.chart.by_name("c_xi").fid, (0, 1, 0, 0)),
         ('h', 0), ('h', 1), ('h', 2), ('h', 3)), Fraction(1))


def test_cme_negative_control(maxwell):
    # wrong coefficient on the ghost coupling breaks the master equation
    sym = maxwell.symmetry("gauge")
    bv = bv_extend(maxwell, sym)
    bad = _cme_breaking_lagrangian(bv)
    Q2 = hamiltonian_vector_field(bad, bv.omega_BV)
    B = insert(Q2, insert(Q2, bv.omega_BV))
    PB = bv.suite.euler_projector(B)
    assert not PB.is_zero()


def test_bracket_antisymmetry_and_constants(bv_maxwell):
    bv = bv_maxwell
    chart = bv.chart
    z = midx_zero(chart.dim)
    vol = tuple(('h', mu) for mu in range(chart.dim))
    F = LocalForm.from_word(chart, (('j', chart.by_name("A1").fid, z),
                                    ('j', chart.by_name("A1_dag").fid, z)) + vol)
    G = LocalForm.from_word(chart, (('j', chart.by_name("A2").fid, z),
                                    ('j', chart.by_name("A2_dag").fid, z)) + vol)
    XF = hamiltonian_vector_field(F, bv.omega_BV)
    XG = hamiltonian_vector_field(G, bv.omega_BV)
    fg = bv_bracket(XF, XG, bv.omega_BV)
    gf = bv_bracket(XG, XF, bv.omega_BV)
    # both odd-parity hamiltonians here: {F,G} = -(-1)^{(f+1)(g+1)}{G,F}
    assert (fg + gf).is_zero() or (fg - gf).is_zero()
    const = LocalForm.from_word(chart, (('j', chart.by_name(chart.coord_names[0]).fid, z),) + vol)
    X_const = hamiltonian_vector_field(const, bv.omega_BV)
    assert bv_bracket(bv.Q, X_const, bv.omega_BV).is_zero()


def test_bfv_and_compatibility(maxwell, bf4):
    for T, sname in ((maxwell, "gauge"), (bf4, "gaugeA")):
        sym = T.symmetry(sname)
        sig = restrict_to_slice(T, SliceSpec(transverse=0))
        bfv = bfv_extend(sig, sym)
        assert verify_bfv_cme(bfv).passed
        # the linear-in-c part of I dv L_BFV recovers the constraint
        assert not bfv.C_BFV.is_zero()
        bv = bv_extend(T, sym)
        reps = verify_bvbfv(bv, bfv, SliceSpec(transverse=0))
        assert all(r.passed for r in reps), [r.line() for r in reps]


def test_bvbfv_compatibility_yang_mills(yang_mills, bv_ym):
    """All three BV-BFV conditions on the SU(2) Yang-Mills slice t = 0."""
    spec = SliceSpec(transverse=0)
    bfv = bfv_extend(restrict_to_slice(yang_mills, spec), yang_mills.symmetry("gauge"))
    reps = verify_bvbfv(bv_ym, bfv, spec)
    assert len(reps) == 3 and all(r.passed for r in reps), [r.line() for r in reps]


def test_bv_and_bfv_map_coordinates():
    """A closed source with a coordinate coefficient: the coordinate jet y
    lifts to the BV chart and moves to the BFV chart."""
    from importlib import resources
    text = resources.files("varcalc.theories").joinpath(
        "maxwell_sourced.thy").read_text(encoding="utf-8")
    text = text.replace("jext form 3 = dx1", "jext form 3 = y * dx1")
    assert "y * dx1 ∧ dx2 ∧ dx3" in text
    T = theory_from_text(text)
    sym = T.symmetry("gauge")
    bv = bv_extend(T, sym)
    y = ('j', bv.chart.by_name("y").fid, midx_zero(4))
    assert any(y in key for key in atom_terms(bv.L))
    assert check_q_nilpotent(bv).passed
    assert verify_cme(bv)[0].passed
    spec = SliceSpec(transverse=0)
    bfv = bfv_extend(restrict_to_slice(T, spec), sym)
    reps = verify_bvbfv(bv, bfv, spec)
    assert len(reps) == 3 and reps[0].passed and reps[1].passed


def test_master_bracket_is_built_once_per_extension(monkeypatch):
    """verify_cme and condition 2 of verify_bvbfv read one {L_BV, L_BV};
    a copy of the extension with another Q builds its own."""
    import copy
    from importlib import resources
    from varcalc import bv as bv_module
    calls = []
    bracket = bv_module.bv_bracket

    def counting(XF, XG, omega):
        calls.append(XF)
        return bracket(XF, XG, omega)

    monkeypatch.setattr(bv_module, "bv_bracket", counting)
    T = theory_from_text(resources.files("varcalc.theories").joinpath(
        "maxwell.thy").read_text(encoding="utf-8"))
    sym = T.symmetry("gauge")
    bv = bv_extend(T, sym)
    spec = SliceSpec(transverse=0)
    assert verify_cme(bv)[0].passed
    reps = verify_bvbfv(bv, bfv_extend(restrict_to_slice(T, spec), sym), spec)
    assert reps[1].passed and verify_cme(bv)[0].passed
    assert calls == [bv.Q]
    other = copy.copy(bv)
    other.Q = hamiltonian_vector_field(bv.L * 2, bv.omega_BV)
    assert (other.master_bracket - bv.master_bracket * 4).is_zero()
    assert calls == [bv.Q, other.Q]


@pytest.mark.parametrize("t", range(4))
def test_bvbfv_maxwell_every_slice(maxwell, bv_maxwell, t):
    """All three conditions on every coordinate slice x^t = 0: the BFV
    data carries the induced orientation (-1)^t of the slice."""
    spec = SliceSpec(transverse=t)
    bfv = bfv_extend(restrict_to_slice(maxwell, spec), maxwell.symmetry("gauge"))
    assert bfv.orientation == (-1) ** t
    reps = verify_bvbfv(bv_maxwell, bfv, spec)
    assert len(reps) == 3 and all(r.passed for r in reps), [r.line() for r in reps]


def test_bvbfv_yang_mills_odd_slice(yang_mills, bv_ym):
    spec = SliceSpec(transverse=1)
    bfv = bfv_extend(restrict_to_slice(yang_mills, spec), yang_mills.symmetry("gauge"))
    reps = verify_bvbfv(bv_ym, bfv, spec)
    assert len(reps) == 3 and all(r.passed for r in reps), [r.line() for r in reps]


def test_bvbfv_orientation_negative_control(maxwell, bv_maxwell):
    """The ghost pairing of the opposite orientation fails condition 1."""
    spec = SliceSpec(transverse=0)
    bfv = bfv_extend(restrict_to_slice(maxwell, spec), maxwell.symmetry("gauge"))
    z = midx_zero(bfv.chart.dim)
    vol = tuple(('h', mu) for mu in range(bfv.chart.dim))
    for cfid, gm in bfv.ghost_momenta.items():
        # -1 -> +1: the pairing term bfv_extend writes for orientation -1
        bfv.omega_BFV.add_word((('v', gm, z), ('v', cfid, z)) + vol, 2)
    reps = verify_bvbfv(bv_maxwell, bfv, spec)
    assert not reps[0].passed


def test_bfv_ym_master(yang_mills):
    sym = yang_mills.symmetry("gauge")
    sig = restrict_to_slice(yang_mills, SliceSpec(transverse=0))
    bfv = bfv_extend(sig, sym)
    assert verify_bfv_cme(bfv).passed


def test_cohomology_witness(bv_maxwell, maxwell):
    bv = bv_maxwell
    # gauge-invariant density F ^ star F is Q-closed
    cand = bv.lift(elaborate_form(maxwell.ctx, "d(A) ∧ star(d(A))"))
    assert cohomology_witness(bv, cand) == "closed"
    # A ^ star A is not
    bad = bv.lift(elaborate_form(maxwell.ctx, "A ∧ star(A)"))
    assert cohomology_witness(bv, bad) == "not closed"
    # Q(anything of ghost -1) with itself as certificate is exact
    z = midx_zero(bv.chart.dim)
    vol = tuple(('h', mu) for mu in range(4))
    gen_m1 = LocalForm.from_word(
        bv.chart, (('j', bv.chart.by_name("A1_dag").fid, z),
                   ('j', bv.chart.by_name("A1").fid, z)) + vol)
    cand2 = lie_derivative(bv.Q, gen_m1)
    assert cohomology_witness(bv, cand2, certificate=gen_m1) == "exact"


def test_bv_requires_local_symmetry(scalar_field):
    with pytest.raises(NotLocal):
        bv_extend(scalar_field, scalar_field.symmetry("transl"))


# ---------------------------------------------------------------------------
# Hamiltonian vector fields against the trial-insertion solver
# ---------------------------------------------------------------------------

def _trial_hamiltonian_vector_field(F: LocalForm, omega: LocalForm) -> EvolutionaryField:
    """Solve I i_X omega = I dv F for X, for source-constant pairings."""
    chart = F.chart
    z = midx_zero(chart.dim)
    n = chart.dim
    src = interior_euler(omega)
    EF = interior_euler(d_v(F))

    # pairing table: for generator u, the omega term d(u') ^ d(u) vol
    pair = {}
    for key, c in src.terms.items():
        legs = [a for a in chart.decode_word(key) if a[0] == 'v']
        rest = [a for a in chart.decode_word(key) if a[0] not in ('v', 'h')]
        if len(legs) != 2 or rest:
            raise NotHamiltonian("symplectic density is not a constant pairing")
        (f1, m1), (f2, m2) = (legs[0][1], legs[0][2]), (legs[1][1], legs[1][2])
        if m1 != z or m2 != z:
            raise NotHamiltonian("symplectic pairing involves higher jets")
        pair.setdefault(f2, []).append((f1, key, c))
        pair.setdefault(f1, []).append((f2, key, c))

    comps = {}
    EF_legs = contract_legs(EF)
    for u in sorted(pair):
        # coefficient of d(u) in EF determines X along the partner of u
        coeff = EF_legs.get((u, z))
        if coeff is None:
            continue
        partners = {v for v, _k, _c in pair[u]}
        if len(partners) != 1:
            raise NotHamiltonian("degenerate symplectic pairing")
        v = partners.pop()
        dens = h_coefficient(coeff, range(n))
        # calibrate the sign/normalization through the insertion itself
        trial = EvolutionaryField(chart, {v: dens}, name="trial")
        got_full = insert(trial, omega)
        got = contract_legs(interior_euler(got_full)).get((u, z), LocalForm(chart))
        ratio = _proportionality(h_coefficient(got, range(n)), dens)
        if ratio is None:
            raise NotHamiltonian(
                f"cannot solve the flow equation along {chart.component(v).name}")
        comps[v] = comps.get(v, LocalForm.zero(chart)) + dens * (Fraction(1) / ratio)

    X = EvolutionaryField(chart, {k: v for k, v in comps.items()
                                  if not v.is_zero()}, name="X_F")
    resid = interior_euler(insert(X, omega)) - EF
    if not resid.is_zero():
        raise NotHamiltonian(
            "no Hamiltonian vector field solves the flow equation: residual "
            + render_text(resid))
    return X


def _proportionality(got, want):
    """The rational r with got = r * want, if it exists."""
    if got.is_zero() or want.is_zero():
        return None
    key = next(iter(want.terms))
    if key not in got.terms:
        return None
    r = got.terms[key] / want.terms[key]
    return r if (got - want * r).is_zero() else None


BV_PAIRS = [("bf_abelian_4d", "gaugeA"), ("bf_abelian_4d", "gaugeB"),
            ("chern_simons_su2", "gauge"), ("maxwell", "gauge"),
            ("maxwell_first_order", "gauge"), ("maxwell_sourced", "gauge"),
            ("yang_mills_su2", "gauge")]
# gaugeB has no bracket data, so it has no BFV extension
BFV_PAIRS = [p for p in BV_PAIRS if p[1] != "gaugeB"]


def _assert_same_field(F, omega):
    X = hamiltonian_vector_field(F, omega)
    oracle = _trial_hamiltonian_vector_field(F, omega)
    assert list(X.components) == list(oracle.components)
    for fid, comp in X.components.items():
        assert list(comp.terms.items()) == list(oracle.components[fid].terms.items())
        assert_exact(comp)
    return X


@pytest.mark.parametrize("name,sym", BV_PAIRS)
def test_hamiltonian_vector_field_matches_trial_insertion_bv(name, sym):
    T = load_theory(name)
    bv = bv_extend(T, T.symmetry(sym))
    _assert_same_field(bv.L, bv.omega_BV)


@pytest.mark.parametrize("name,sym", BFV_PAIRS)
def test_hamiltonian_vector_field_matches_trial_insertion_bfv(name, sym):
    T = load_theory(name)
    bfv = bfv_extend(restrict_to_slice(T, SliceSpec(transverse=0)), T.symmetry(sym))
    _assert_same_field(bfv.L, bfv.omega_BFV)


def test_hamiltonian_vector_field_matches_trial_insertion_off_shell(bv_maxwell):
    X = _assert_same_field(_cme_breaking_lagrangian(bv_maxwell), bv_maxwell.omega_BV)
    assert X.components



def test_hamiltonian_vector_field_matches_trial_insertion_odd_insertion(
        bv_maxwell, maxwell):
    """Functionals of the same ghost degree as omega: their fields shift ghost
    degree by 0, so i_X is odd, on the BV chart (one odd and one even leg per
    pair) and the BFV chart (field-momentum pairs of two odd legs)."""
    bfv = bfv_extend(restrict_to_slice(maxwell, SliceSpec(transverse=0)),
                     maxwell.symmetry("gauge"))
    cases = ((bv_maxwell.omega_BV, [("A1", "A1_dag"), ("c_xi", "c_xi_dag")]),
             (bfv.omega_BFV, [("A1", "Pi_A1"), ("A2", "A2"), ("Pi_A3", "Pi_A3"),
                              ("c_xi", "c_xi_dag")]))
    for omega, pairs in cases:
        chart = omega.chart
        z = midx_zero(chart.dim)
        vol = tuple(('h', mu) for mu in range(chart.dim))
        for a, b in pairs:
            F = LocalForm.from_word(chart, (('j', chart.by_name(a).fid, z),
                                            ('j', chart.by_name(b).fid, z)) + vol)
            assert (F.ghost_degree() - omega.ghost_degree()) % 2 == 0
            assert _assert_same_field(F, omega).components


@pytest.mark.parametrize("name, sym_name", LOCAL_SYMMETRIES)
def test_omega_bv_is_d_v_of_the_canonical_potential(name, sym_name):
    """omega_BV = d_v of Σ j(φ†) ∧ δφ ∧ vol over the fields and ghosts."""
    T = load_theory(name)
    bv = bv_extend(T, T.symmetry(sym_name))
    chart = bv.chart
    z = midx_zero(chart.dim)
    vol = tuple(('h', mu) for mu in range(chart.dim))
    theta_can = LocalForm(chart)
    for fid, af in sorted(bv.antifields.items()):
        theta_can = theta_can + LocalForm.from_word(
            chart, (('j', af, z), ('v', fid, z)) + vol)
    assert d_v(theta_can) == bv.omega_BV
    assert len(bv.omega_BV.terms) == len(bv.antifields)


@pytest.mark.parametrize("name, sym_name", LOCAL_SYMMETRIES)
def test_hamiltonian_flow_reproduces_q_ce(name, sym_name):
    """Q = Q_CE on every field and ghost, zero where Q_CE has no
    component; BVTheory relies on it unchecked (notes/decisions.md §19)."""
    T = load_theory(name)
    bv = bv_extend(T, T.symmetry(sym_name))
    zero = LocalForm.zero(bv.chart)
    for fid in bv.antifields:
        assert bv.Q.components.get(fid, zero) == bv.qce.get(fid, zero), \
            bv.chart.component(fid).name


@pytest.mark.parametrize("name, sym_name", BFV_PAIRS)
def test_every_bfv_component_has_a_bv_slice_namesake(name, sym_name):
    """The bridge of verify_bvbfv maps each BFV component to the BV-slice
    component of its name, a ghost momentum to the slice partner of its
    ghost (notes/decisions.md §19), on every coordinate slice."""
    T = load_theory(name)
    sym = T.symmetry(sym_name)
    bv = bv_extend(T, sym)
    for t in range(T.chart.dim):
        spec = SliceSpec(transverse=t)
        bfv = bfv_extend(restrict_to_slice(T, spec), sym)
        bvs = SigmaTheory(bv, spec)
        for gfid in bfv.ghost_momenta:
            assert len(bvs.pairing[bfv.chart.component(gfid).name]) == 1
        ghost_momenta = {bfv.chart.component(g).name for g in bfv.ghost_momenta.values()}
        for comp in bfv.chart.components:
            if comp.name not in ghost_momenta:
                assert bvs.schart.has_name(comp.name), (t, comp.name)


# The two BV-BFV verdicts the engine does not reach yet (ROADMAP item 2).
# Strict: a change that makes either pass must say so and move the pin.

@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the BFV side misses "
                   "the source in condition 3 (c_xi_dag: -1)")
def test_bvbfv_maxwell_sourced_condition_3(maxwell_sourced):
    spec = SliceSpec(transverse=0)
    sym = maxwell_sourced.symmetry("gauge")
    reps = verify_bvbfv(bv_extend(maxwell_sourced, sym),
                        bfv_extend(restrict_to_slice(maxwell_sourced, spec), sym), spec)
    assert reps[2].passed, reps[2].line()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the boundary content "
                   "of the CME primitive is not L_BFV in condition 2")
def test_bvbfv_chern_simons_condition_2(chern_simons):
    spec = SliceSpec(transverse=0)
    sym = chern_simons.symmetry("gauge")
    reps = verify_bvbfv(bv_extend(chern_simons, sym),
                        bfv_extend(restrict_to_slice(chern_simons, spec), sym), spec)
    assert reps[1].passed, reps[1].line()
