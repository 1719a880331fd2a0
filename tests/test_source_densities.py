"""algebra.source_densities against the four inline constructions it
replaced.

Each oracle below is the former code, verbatim apart from taking its form
(and, for the slice pairing, the slice) as arguments:

* the EL generators of Theory._build_solved_forms;
* the momentum densities of the SigmaTheory.__init__ loop, which kept only
  legs whose coefficient carries a Dt field;
* the per-field coefficients of SigmaTheory._pairing_table;
* the flow coefficients of bv.hamiltonian_vector_field.

They run on every bundled theory's EL, on theta_Sigma (as restricted, and
after the momentum solves) and I omega_Sigma at each coordinate slice, and
on I d_v L of each BV and BFV build.
"""

from importlib import resources

import pytest

from varcalc.algebra import (
    LocalForm, contract_legs, d_v, h_coefficient, midx_zero, source_densities,
)
from varcalc.bv import bfv_extend, bv_extend
from varcalc.chart import DYNAMIC, VarcalcError
from varcalc.euler import interior_euler
from varcalc.slicing import SliceSpec, restrict_to_slice
from conftest import atom_terms, load_theory

BUNDLED = sorted(p.name[:-4] for p in resources.files("varcalc.theories").iterdir()
                 if p.name.endswith(".thy"))


# ---------------------------------------------------------------------------
# the oracles: the former inline constructions, verbatim
# ---------------------------------------------------------------------------

def oracle_generators(EL):
    """Theory._build_solved_forms."""
    chart = EL.chart
    z = midx_zero(chart.dim)
    legs = contract_legs(EL)
    generators = {fid: h_coefficient(legs[fid, K], range(chart.dim))
                  for fid, K in sorted(legs) if K == z}
    return generators


def oracle_momentum_densities(sig, theta_s):
    """The momentum loop of SigmaTheory.__init__, up to the Pi component."""
    schart = theta_s.chart
    out = {}
    z = midx_zero(schart.dim)
    legs = contract_legs(theta_s)
    for (sfid, K), C in sorted(legs.items()):
        if K != z:
            continue
        dts = sorted({a[1] for k in atom_terms(C) for a in k
                      if a[0] == 'j' and a[1] in set(sig.dt_fields.values())})
        if not dts:
            continue
        density = h_coefficient(C, range(schart.dim))
        out[sfid] = density
    return out


def oracle_pairing_coefficients(sig):
    """SigmaTheory._pairing_table: the coefficient of each slice field's
    leg in I omega_Sigma, and its partners."""
    schart = sig.schart
    src = interior_euler(sig.omega_sigma)
    fields = ({a[1] for k in atom_terms(sig.omega_sigma) for a in k
               if a[0] == 'v'} |
              {a[1] for k in atom_terms(sig.omega_sigma) for a in k
               if a[0] == 'j' and schart.kind(a[1]) == DYNAMIC})
    coefficients = {}
    table = {}
    z = midx_zero(schart.dim)
    legs = contract_legs(src)
    for f in sorted(fields):
        co = legs.get((f, z), LocalForm(schart))
        coefficients[f] = co
        partners = sorted({schart.component(a[1]).name
                           for k in atom_terms(co) for a in k if a[0] == 'v'})
        nm = schart.component(f).name
        if partners:
            table[nm] = partners
    return coefficients, table, fields


def oracle_flow_coefficients(EF):
    """bv.hamiltonian_vector_field, for every order-zero leg of EF."""
    chart = EF.chart
    z = midx_zero(chart.dim)
    out = {}
    EF_legs = contract_legs(EF)
    for u in sorted({fid for fid, _K in EF_legs}):
        coeff = EF_legs.get((u, z))
        if coeff is None:
            continue
        dens = h_coefficient(coeff, range(chart.dim))
        out[u] = dens
    return out


# ---------------------------------------------------------------------------
# the comparisons
# ---------------------------------------------------------------------------

def _same(got, want):
    """Equal keys in fid order and equal densities, term for term."""
    assert list(got) == list(want)
    for fid in want:
        assert got[fid].terms == want[fid].terms, fid


def _slices(T):
    for t in range(T.chart.dim):
        try:
            yield restrict_to_slice(T, SliceSpec(transverse=t))
        except VarcalcError:
            continue


@pytest.mark.parametrize("name", BUNDLED)
def test_el_generators(name):
    T = load_theory(name)
    got = source_densities(T.EL)
    _same(got, oracle_generators(T.EL))
    assert list(got) == sorted(got) and got


@pytest.mark.parametrize("name", BUNDLED)
def test_slice_theta_and_pairing(name):
    T = load_theory(name)
    built = 0
    for sig in _slices(T):
        theta_s = sig.restrict(T.theta)
        want = oracle_momentum_densities(sig, theta_s)
        got = source_densities(theta_s)
        _same({fid: got[fid] for fid in want}, want)
        assert [sfid for sfid, _d in sig.momenta.values()] == list(want)
        for sfid, density in sig.momenta.values():
            assert density.terms == want[sfid].terms
        _same(source_densities(sig.theta_sigma), oracle_generators(sig.theta_sigma))
        coefficients, table, fields = oracle_pairing_coefficients(sig)
        assert (sig.pairing, sig.surviving) == (table, fields)
        got = source_densities(interior_euler(sig.omega_sigma))
        for f, co in coefficients.items():
            assert got.get(f, LocalForm(sig.schart)).terms == \
                h_coefficient(co, range(sig.schart.dim)).terms, f
        built += 1
    assert built, name


def _bv_and_bfv_builds(T):
    for sym in T.symmetries.values():
        try:
            yield bv_extend(T, sym)
        except VarcalcError:
            pass
        for sig in _slices(T):
            try:
                yield bfv_extend(sig, sym)
            except VarcalcError:
                pass


# the BV and BFV builds per theory: one BV extension per local symmetry and
# one BFV extension per (symmetry, slice) pair that builds; scalar_field's
# translations are global, and the other two theories declare no symmetry
BUILDS = {"bf_abelian_4d": 6, "chern_simons_su2": 4, "maxwell": 5,
          "maxwell_first_order": 5, "maxwell_sourced": 5, "point_particle": 0,
          "scalar_field": 0, "scalar_field_null": 0, "yang_mills_su2": 5}


@pytest.mark.parametrize("name", BUNDLED)
def test_bv_and_bfv_flow_coefficients(name):
    T = load_theory(name)
    built = 0
    for ext in _bv_and_bfv_builds(T):
        EF = interior_euler(d_v(ext.L))
        _same(source_densities(EF), oracle_flow_coefficients(EF))
        built += 1
    assert built == BUILDS[name]
