"""lie.Structure's table methods against the code they replaced, kept
verbatim below: the reflected bracket that Theory._declared_action built by
hand, and the two- and three-index branches of ElabContext._trace; the
order of tr's errors; and the named tables of a 'structure' line."""

import random
from fractions import Fraction
from itertools import product

import pytest

from varcalc.algebra import LocalForm
from varcalc.chart import Chart
from varcalc.dsl import (
    ElabContext, GradingMismatch, Val, build_context, elaborate_form, parse_theory,
)
from varcalc.lie import Structure, abelian_structure, structure_from_spec, su2_structure
from test_lie_cyclic import COEFFS, N_TABLES, seeded_tables


# ---------------------------------------------------------------------------
# the oracles, verbatim
# ---------------------------------------------------------------------------

def oracle_reflected(st):
    """The flip of Theory._declared_action before Structure.reflected."""
    flipped = {ab: [(c, -coeff) for c, coeff in lst]
               for ab, lst in st.f.items()}
    return Structure(st.name, st.dim, flipped, st.kappa)


def oracle_trace(st, v, chart):
    """The two- and three-index branches of ElabContext._trace before
    Structure.invariant."""
    out = LocalForm.zero(chart)
    if len(v.indices) == 2:
        for (a, b), f in v.comps.items():
            k = st.pair(a, b)
            if k:
                out = out + f * k
        return Val.scalar(out)
    if len(v.indices) == 3:
        for (a, b, c), f in v.comps.items():
            total = Fraction(0)
            for d, coeff in st.bracket_coeffs(b, c):
                k = st.pair(a, d)
                if k:
                    total += Fraction(1, 2) * k * coeff
            if total:
                out = out + f * total
        return Val.scalar(out)


# ---------------------------------------------------------------------------
# structures: su(2) and the seeded tables, with seeded invariant forms
# ---------------------------------------------------------------------------

def random_kappa(rng, dim):
    """Sparse rational kappa in either orientation, some entries zero."""
    return {(a, b): rng.choice(COEFFS + [Fraction(0)])
            for a in range(dim) for b in range(dim) if rng.random() < 0.4}


def structures():
    rng = random.Random(21)
    out = [su2_structure("t")]
    for dim, f, _k in seeded_tables(22, N_TABLES):
        out.append(Structure("t", dim, f, random_kappa(rng, dim)))
    return out


def test_reflected_matches_the_hand_written_flip():
    for st in structures():
        f = {ab: list(lst) for ab, lst in st.f.items()}
        got, want = st.reflected(), oracle_reflected(st)
        assert got == want and list(got.f) == list(want.f)
        assert got.kappa is st.kappa and st.f == f       # st itself unchanged


def test_invariant_matches_the_trace_branches():
    chart = Chart(1)
    chart.add_coordinates()
    one = LocalForm.scalar(chart, 1)
    nonzero = 0
    for st in structures():
        ctx = ElabContext(chart)
        ctx.structures["t"] = st
        for n in (2, 3):
            for idx in product(range(st.dim), repeat=n):
                v = Val(("t",) * n, {idx: one})
                want = oracle_trace(st, v, chart)
                assert ctx._trace(v) == want, (st, idx)
                k = st.invariant(idx)
                assert (LocalForm.scalar(chart, k) if k else LocalForm.zero(chart)) \
                    == want.comps[()], (st, idx)
                nonzero += bool(k)
            whole = Val(("t",) * n, {idx: one for idx in product(range(st.dim), repeat=n)})
            assert ctx._trace(whole) == oracle_trace(st, whole, chart)
    assert nonzero > 100


# ---------------------------------------------------------------------------
# tr's errors keep their order
# ---------------------------------------------------------------------------

MIXED = """theory t
dimension 2
signature + +
structure g su2
structure h abelian2
field a scalar lie g
field b scalar lie h
field q scalar
"""


@pytest.mark.parametrize("expr, message", [
    ("tr(q)", "tr of a scalar"),
    ("tr(a * a * b * b)",
     "tr requires matching Lie indices, got ('g', 'g', 'h', 'h')"),
    ("tr(a * a * a * a)", "tr supports at most triple products"),
    ("tr(b * b * b * b * b)", "tr supports at most triple products"),
])
def test_trace_errors_keep_their_order(expr, message):
    _chart, ctx = build_context(parse_theory(MIXED))
    with pytest.raises(GradingMismatch) as e:
        elaborate_form(ctx, expr)
    assert str(e.value) == message


def test_trace_of_one_index_is_zero():
    _chart, ctx = build_context(parse_theory(MIXED))
    assert elaborate_form(ctx, "tr(a)").is_zero()


# ---------------------------------------------------------------------------
# the named tables of a 'structure' line
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec, want", [
    ("su2", su2_structure("g")), ("eps", su2_structure("g")),
    ("abelian", abelian_structure("g", 1)), ("abelian3", abelian_structure("g", 3)),
])
def test_structure_from_spec(spec, want):
    got = structure_from_spec("g", spec)
    assert got == want and got.name == "g"


@pytest.mark.parametrize("spec", ["su3", "abelianx", "abelian-1", "Abelian2", ""])
def test_unknown_spec_is_none(spec):
    assert structure_from_spec("g", spec) is None
