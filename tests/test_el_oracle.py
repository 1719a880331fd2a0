"""E(L) of every bundled theory against sympy's ``euler_equations`` on the
component-expanded Lagrangian density, an oracle that shares nothing with
the engine's Euler operator.

Dynamical components become undefined functions of the coordinates, named
constants become symbols, and a function atom F^{(d)}(args) becomes the
derivative of an undefined function at its sympy arguments.
"""

import pytest
import sympy as sp
from sympy.calculus.euler import euler_equations

from varcalc.chart import COORD, CONST, DYNAMIC
from conftest import load_theory

THEORIES = ["point_particle", "scalar_field", "scalar_field_null", "maxwell",
            "maxwell_sourced", "maxwell_first_order", "chern_simons_su2",
            "bf_abelian_4d", "yang_mills_su2"]


class SympyChart:
    """The sympy image of the atoms of a chart."""

    def __init__(self, chart):
        self.chart = chart
        self.xs = sp.symbols(f"x0:{chart.dim}")
        self.fields = {c.fid: sp.Function(c.name)(*self.xs)
                       for c in chart.components if c.kind == DYNAMIC}
        self.consts = {c.fid: sp.Symbol(c.name)
                       for c in chart.components if c.kind == CONST}

    def jet(self, fid, midx):
        kind = self.chart.kind(fid)
        if kind == COORD:
            assert not any(midx)
            return self.xs[self.chart.component(fid).coord_dir]
        if kind == CONST:
            assert not any(midx)
            return self.consts[fid]
        assert kind == DYNAMIC, kind
        args = [x for x, k in zip(self.xs, midx) for _ in range(k)]
        u = self.fields[fid]
        return sp.diff(u, *args) if args else u

    def atom(self, a):
        if a[0] == 'j':
            return self.jet(a[1], a[2])
        if a[0] == 'ji':
            return 1 / self.consts[a[1]]
        assert a[0] == 'f', a
        fn = self.chart.function(a[1])
        ys = sp.symbols(f"y0:{fn.arity}")
        expr = sp.Function(fn.name)(*ys)
        for y, k in zip(ys, a[2]):
            if k:
                expr = sp.diff(expr, y, k)
        vals = [0 if x[0] == '0' else self.jet(x[1], x[2]) for x in a[3]]
        return expr.subs(dict(zip(ys, vals)), simultaneous=True)

    def value(self, atoms, c):
        out = sp.Rational(c.numerator, c.denominator)
        for a in atoms:
            out *= self.atom(a)
        return out


@pytest.mark.parametrize("name", THEORIES)
def test_el_matches_sympy_euler_equations(name):
    T = load_theory(name)
    chart = T.L.chart
    S = SympyChart(chart)
    vol = tuple(('h', mu) for mu in range(chart.dim))
    density = sp.Integer(0)
    for key, c in T.L.terms.items():
        assert key[-chart.dim:] == vol, key
        density += S.value(key[:-chart.dim], c)
    got = {fid: sp.Integer(0) for fid in S.fields}
    for key, c in T.EL.terms.items():
        assert key[-chart.dim:] == vol, key
        leg = key[-chart.dim - 1]
        assert leg[0] == 'v' and not any(leg[2]), key
        got[leg[1]] += S.value(key[:-chart.dim - 1], c)
    fids = sorted(S.fields)
    eqs = euler_equations(density, [S.fields[f] for f in fids], S.xs)
    for fid, eq in zip(fids, eqs):
        want = eq.lhs if isinstance(eq, sp.Eq) else sp.Integer(0)
        assert sp.expand((got[fid] - want).doit()) == 0, chart.component(fid).name
