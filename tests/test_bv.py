"""BV/BFV extensions, master equations, compatibility, witnesses."""

from fractions import Fraction

import pytest

from varcalc.chart import CMEFails, NotLocal, ResidualNonzero, VarcalcError
from varcalc.algebra import LocalForm, d_h, midx_zero
from varcalc.dsl import elaborate_form
from varcalc.euler import insert, lie_derivative
from varcalc.bv import (
    bfv_extend, bv_bracket, bv_extend, check_q_nilpotent, cohomology_witness,
    verify_bfv_cme, verify_bvbfv, verify_cme, zero_ghost_body,
)
from varcalc.slicing import SliceSpec, restrict_to_slice
from varcalc.theory import theory_from_text
from conftest import load_theory


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
             for key in anti.terms for a in key if a[0] == 'j'}
    assert any(n.endswith("_dag") for n in names)
    assert "c_xi_dag" not in names


def test_bv_ym_ghost_term(bv_ym):
    anti = bv_ym.L - zero_ghost_body(bv_ym, bv_ym.L)
    names = {bv_ym.chart.component(a[1]).name
             for key in anti.terms for a in key if a[0] == 'j'}
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
    from varcalc.dsl import Structure
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


def test_cme_negative_control(maxwell):
    # wrong coefficient on the ghost coupling breaks the master equation
    sym = maxwell.symmetry("gauge")
    bv = bv_extend(maxwell, sym)
    z = midx_zero(bv.chart.dim)
    bad = bv.L + LocalForm.from_word(
        bv.chart,
        (('j', bv.chart.by_name("A1_dag").fid, z),
         ('j', bv.chart.by_name("c_xi").fid, (0, 1, 0, 0)),
         ('h', 0), ('h', 1), ('h', 2), ('h', 3)), Fraction(1))
    from varcalc.bv import hamiltonian_vector_field
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
    fg = bv_bracket(F, G, bv.omega_BV)
    gf = bv_bracket(G, F, bv.omega_BV)
    # both odd-parity hamiltonians here: {F,G} = -(-1)^{(f+1)(g+1)}{G,F}
    assert (fg + gf).is_zero() or (fg - gf).is_zero()
    const = LocalForm.from_word(chart, (('j', chart.by_name(chart.coord_names[0]).fid, z),) + vol)
    assert bv_bracket(bv.L, const, bv.omega_BV).is_zero()


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
    assert any(y in key for key in bv.L.terms)
    assert check_q_nilpotent(bv).passed
    assert verify_cme(bv)[0].passed
    spec = SliceSpec(transverse=0)
    bfv = bfv_extend(restrict_to_slice(T, spec), sym)
    reps = verify_bvbfv(bv, bfv, spec)
    assert len(reps) == 3 and reps[0].passed and reps[1].passed


def test_bvbfv_orientation_negative_control(maxwell):
    sym = maxwell.symmetry("gauge")
    sig = restrict_to_slice(maxwell, SliceSpec(transverse=0))
    bfv_bad = bfv_extend(sig, sym, orientation=-1)
    bv = bv_extend(maxwell, sym)
    reps = verify_bvbfv(bv, bfv_bad, SliceSpec(transverse=0))
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
