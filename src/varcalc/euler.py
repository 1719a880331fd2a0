"""Interior/exterior Euler operators, evolutionary fields, Lie derivatives."""

from __future__ import annotations

from fractions import Fraction

from .chart import DYNAMIC, GradingError, GhostDegreeMismatch
from .algebra import (
    LocalForm, _add, apply_derivation, contract_legs, d_v, midx_last,
    midx_lower, midx_zero, prepend_atom, prolong, total_derivative,
)


def interior_euler(form: LocalForm):
    """Takens' interior Euler operator on (p>=1, top) forms.

    I(w) = (1/p) sum_a  du^a ^ sum_K (-D)_K (i^a_K w)

    The sum over K is taken in Horner form: from the highest order down,
    each K is peeled at its last direction nu into the partial sum at
    K - e_nu, so each merged partial sum gets one D_nu pass.
    """
    if form.is_zero():
        return form
    chart = form.chart
    p, q = form.grading()
    n = chart.dim
    if q != n or p < 1:
        raise GradingError(f"interior Euler operator needs (p>=1, q={n}), got ({p},{q})")
    out = LocalForm(chart)
    by_fid = {}
    for (fid, K), g in contract_legs(form).items():
        by_fid.setdefault(fid, {})[K] = g
    zero = midx_zero(n)
    for fid in sorted(by_fid):
        partial = by_fid[fid]
        while partial:
            K = max(partial, key=lambda K: (sum(K), K))
            g = partial.pop(K)
            nu = midx_last(K)
            if nu is None:      # K = 0 comes last
                for k, c in prepend_atom(g, ('v', fid, zero)).terms.items():
                    _add(out.terms, k, c)
            elif g.terms:
                below = partial.setdefault(midx_lower(K, nu), LocalForm(chart))
                for k, c in total_derivative(g, nu).terms.items():
                    _add(below.terms, k, -c)
    return out if p == 1 else out * Fraction(1, p)


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
        self.images = {}    # ('i' | 'L', chart) -> images of insert | lie_derivative

    def component(self, fid, midx):
        """D_K of the component of ``fid`` (algebra.prolong), zero for a
        component the field leaves alone."""
        got = self._prolonged.get((fid, midx))
        if got is None:
            base = self.components.get(fid)
            got = self._prolonged[fid, midx] = (
                LocalForm.zero(self.chart) if base is None else
                prolong(self._prolonged, fid, base, midx, midx_zero(len(midx))))
        return got


def insert(rho: EvolutionaryField, form: LocalForm):
    """Interior product i_rho: contracts one vertical leg with D_K(rho).
    The images are read and filled in one table per (chart, field),
    ``rho.images[('i', form.chart)]``."""
    parity = (1 + rho.ghost_shift) & 1
    chart = form.chart

    def image(code):
        atom = chart.decode(code)
        return rho.component(atom[1], atom[2]) if atom[0] == 'v' else None

    return apply_derivation(form, parity, image,
                            rho.images.setdefault(('i', form.chart), {}))


def lie_derivative(rho: EvolutionaryField, form: LocalForm):
    """L_rho = [i_rho, d_v], the graded commutator, as one derivation of
    parity rho.ghost_shift & 1 (notes/decisions.md §33): u^a_K of a
    dynamical field goes to D_K rho^a, du^a_K to +-d_v(D_K rho^a) (+ for an
    even shift), a function atom to i_rho d_v of its word.  For an odd shift
    this is i_rho d_v - d_v i_rho.  The images are read and filled in one
    table per (chart, field), ``rho.images[('L', form.chart)]``."""
    chart = form.chart
    parity = rho.ghost_shift & 1

    def image(code):
        atom = chart.decode(code)
        t = atom[0]
        if t == 'j':
            return rho.component(atom[1], atom[2]) \
                if chart.kind(atom[1]) == DYNAMIC else None
        if t == 'v':
            im = d_v(rho.component(atom[1], atom[2]))
            return -im if parity else im
        if t in ('f', 'F'):
            return insert(rho, d_v(LocalForm(chart, {(code,): 1})))
        return None

    return apply_derivation(form, parity, image,
                            rho.images.setdefault(('L', chart), {}))
