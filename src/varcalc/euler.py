"""Interior/exterior Euler operators, evolutionary fields, Lie derivatives."""

from __future__ import annotations

from fractions import Fraction

from .chart import GradingError, GhostDegreeMismatch
from .algebra import (
    LocalForm, apply_derivation, apply_midx_derivative, contract_legs, d_v,
    midx_zero, prepend_atom,
)


def minus_D(form, midx):
    """(-D)_K = (-1)^{|K|} D_K."""
    out = apply_midx_derivative(form, midx)
    if sum(midx) % 2:
        out = -out
    return out


def interior_euler(form: LocalForm):
    """Takens' interior Euler operator on (p>=1, top) forms.

    I(w) = (1/p) sum_a  du^a ^ sum_K (-D)_K (i^a_K w)
    """
    if form.is_zero():
        return form
    chart = form.chart
    p, q = form.grading()
    n = chart.dim
    if q != n or p < 1:
        raise GradingError(f"interior Euler operator needs (p>=1, q={n}), got ({p},{q})")
    out = LocalForm(chart)
    legs = contract_legs(form)
    for fid, K in sorted(legs):
        ibp = minus_D(legs[fid, K], K)
        out = out + prepend_atom(ibp, ('v', fid, midx_zero(chart.dim)))
    return out * Fraction(1, p)


def exterior_euler(form: LocalForm):
    """E = I d; produces the Euler-Lagrange source form of a density."""
    n = form.chart.dim
    if form.terms and form.grading()[1] != n:
        raise GradingError(f"exterior Euler operator needs top horizontal degree {n}")
    return interior_euler(d_v(form))


class EvolutionaryField:
    """A vertical vector field given by components per field component.

    ``components`` maps fid -> (0,0) LocalForm.  All components must shift
    ghost degree by the same amount, which becomes the parity of the
    associated insertion operator.
    """

    def __init__(self, chart, components, name="rho"):
        self.chart = chart
        self.components = {}
        self.name = name
        shifts = set()
        for fid, expr in components.items():
            if expr.is_zero():
                continue
            if expr.grading() != (0, 0):
                raise GradingError("evolutionary components must be scalars")
            shifts.add(expr.ghost_degree() - chart.ghost(fid))
            self.components[fid] = expr
        if len(shifts) > 1:
            raise GhostDegreeMismatch(
                f"components of {name} shift ghost degree inconsistently: {sorted(shifts)}")
        self.ghost_shift = shifts.pop() if shifts else 0
        self._prolonged = {}

    def component(self, fid, midx=None):
        chart = self.chart
        if midx is None:
            midx = midx_zero(chart.dim)
        key = (fid, midx)
        if key not in self._prolonged:
            base = self.components.get(fid)
            if base is None:
                self._prolonged[key] = LocalForm.zero(chart)
            else:
                self._prolonged[key] = apply_midx_derivative(base, midx)
        return self._prolonged[key]

    def is_zero(self):
        return all(c.is_zero() for c in self.components.values())


def insert(rho: EvolutionaryField, form: LocalForm):
    """Interior product i_rho: contracts one vertical leg with D_K(rho)."""
    parity = (1 + rho.ghost_shift) & 1

    def image(atom):
        return rho.component(atom[1], atom[2]) if atom[0] == 'v' else None

    return apply_derivation(form, parity, image)


def lie_derivative(rho: EvolutionaryField, form: LocalForm):
    """Cartan formula L_rho = i_rho d_v + d_v i_rho."""
    return insert(rho, d_v(form)) + d_v(insert(rho, form))

