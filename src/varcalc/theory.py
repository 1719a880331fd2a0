"""Lagrangian field theories: build, caches, equivalence, symmetries,
solved-form on-shell reduction."""

from __future__ import annotations

import functools
from fractions import Fraction

from .chart import (
    CONST, DYNAMIC, PARAM, GradingError, InvariantViolation, NoFixpoint, NoSolvedForm,
    VarcalcError,
)
from .algebra import (
    LocalForm, contract_legs, d_h, d_v, h_coefficient, midx_zero, substitute,
    zero_star,
)
from .euler import EvolutionaryField, exterior_euler, lie_derivative
from .homotopy import HomotopySuite, get_suite
from .dsl import (
    ElabContext, FieldGroup, Structure, TheoryDef, build_context,
    elaborate_form, parse_expression,
)


class SymmetryAction:
    """A (local) Lie algebra action by evolutionary vector fields.

    The engine realizes a declared action through the parameter reflection
    (rho, [.,.]) -> (-rho, -[.,.]), an isomorphic presentation of the same
    Lie algebra action chosen so that the homotopy Noether currents come
    out on the conventions used for the shipped corpus.
    """

    def __init__(self, theory, name, param_groups, assignments, structure=None):
        self.theory = theory
        self.name = name
        self.param_groups = param_groups
        chart = theory.chart
        ctx = theory.ctx
        comps = {}
        for gname, (rhs_text, line) in assignments.items():
            if gname not in ctx.groups:
                raise VarcalcError(f"symmetry assigns unknown field {gname!r}")
            g = ctx.groups[gname]
            val = ctx.elaborate(parse_expression(rhs_text, line))
            comps.update(_match_components(ctx, g, val))
        self.rho = EvolutionaryField(
            chart, {fid: -f for fid, f in comps.items()}, name=name)
        if structure is None:
            self.structure = None
        else:
            st = ctx.structures[structure]
            flipped = {ab: [(c, -coeff) for c, coeff in lst]
                       for ab, lst in st.f.items()}
            self.structure = Structure(st.name, st.dim, flipped, st.kappa)
        self.is_local = all(
            theory.chart.kind(fid) == PARAM
            for g in param_groups for fid in g.comps.values())

    def param_fids(self):
        out = []
        for g in self.param_groups:
            out.extend(sorted(g.comps.values()))
        return out

    def bracket_terms(self, other=None):
        """The terms of the bracket [xi, eta] of this action's parameter xi
        with ``other``'s parameter eta (default xi itself): (c, a, b, f) for
        each term f xi^a eta^b of its component c, as parameter fids, with a
        from this action and c, b from ``other``."""
        other = other or self
        if self.structure is None:
            return
        for g, og in zip(self.param_groups, other.param_groups):
            for (fidx, lidx), c in og.comps.items():
                if lidx:
                    for a, b, f in self.structure.brackets_onto(lidx[0]):
                        yield c, g.comps[(fidx, (a,))], og.comps[(fidx, (b,))], f


def _match_components(ctx: ElabContext, g: FieldGroup, val):
    """Match an elaborated RHS against the components of a field group."""
    chart = ctx.chart
    out = {}
    if g.multiplicity:
        raise VarcalcError(
            f"assign components of {g.name!r} individually")
    indices = (g.lie,) if g.lie else ()
    if val.indices != indices:
        raise GradingError(
            f"assignment to {g.name!r} has Lie indices {val.indices}, "
            f"expected {indices}")
    for (fidx, lidx), fid in g.comps.items():
        form = val.comps.get(lidx)
        if form is None:
            continue
        comp_form = h_coefficient(form, fidx)
        if not comp_form.is_zero():
            out[fid] = comp_form
    return out


class Theory:
    """A Lagrangian field theory with its derived homotopy caches."""

    def __init__(self, td: TheoryDef, jet_cutoff=None):
        self.td = td
        self.chart, self.ctx = build_context(td, jet_cutoff=jet_cutoff)
        self.suite: HomotopySuite = get_suite(self.chart)
        if not td.lagrangian:
            raise VarcalcError("theory has no lagrangian")
        self.L = elaborate_form(self.ctx, td.lagrangian, td.lagrangian_line)
        if not self.L.is_zero():
            p, q = self.L.grading()
            if (p, q) != (0, self.chart.dim):
                raise GradingError(
                    f"lagrangian must be a (0, {self.chart.dim}) form, got ({p},{q})")
        self.EL = exterior_euler(self.L)
        dvL = d_v(self.L)
        self.theta = self.suite.h_horizontal(dvL)
        self.omega = d_v(self.theta)
        self.Lh = self.suite.h_vertical(self.EL)      # P(L) = hv E L
        resid = dvL - self.EL - d_h(self.theta)
        if not resid.is_zero():
            raise InvariantViolation("d_v L != E L + d theta")
        resid2 = d_h(self.omega) - d_v(self.EL)
        if not resid2.is_zero():
            raise InvariantViolation("d omega != d_v E L")
        self.el_generators = self._extract_generators()
        self.solved = self._build_solved_forms()
        self.derived = {}          # (builder, SymmetryAction) -> result, see per_symmetry()
        self.symmetries = {}
        for decl in td.symmetries:
            groups = [self.ctx.groups[d[0]] for d in decl.params]
            self.symmetries[decl.name] = SymmetryAction(
                self, decl.name, groups,
                {k: v for k, v in decl.assignments.items()},
                structure=decl.structure)

    # -- Euler-Lagrange generators and solved forms -------------------------
    def _extract_generators(self):
        z = midx_zero(self.chart.dim)
        legs = contract_legs(self.EL)
        return [(fid, legs[fid, K]) for fid, K in sorted(legs) if K == z]

    def _scalar_generator(self, fid):
        """The EL source component for a field, with legs stripped."""
        for gfid, coeff in self.el_generators:
            if gfid == fid:
                return h_coefficient(coeff, range(self.chart.dim))
        return None

    def _build_solved_forms(self):
        chart = self.chart
        bindings = {}
        used = set()
        for name, digits in self.td.solve:
            comp = chart.by_name(name)
            m = [0] * chart.dim
            for dch in digits:
                m[int(dch)] += 1
            target = (comp.fid, tuple(m))
            found = False
            for gfid, _c in self.el_generators:
                if gfid in used:
                    continue
                E = self._scalar_generator(gfid)
                sol = _solve_linear(E, target)
                if sol is not None:
                    bindings[target] = sol
                    used.add(gfid)     # one solved jet per EL generator
                    found = True
                    break
            if not found:
                raise NoSolvedForm(
                    f"no unused EL component is linear in {name}_,{digits} "
                    f"with invertible coefficient")
        return bindings

    def reduce_on_shell(self, form: LocalForm, max_rounds=12):
        """Substitute declared solved forms (and their prolongations) to a
        fixpoint; certifies membership in the prolonged EL ideal.  Raises
        NoFixpoint if the form still changes after ``max_rounds`` rounds."""
        if not self.solved:
            if form.is_zero():
                return form
            raise NoSolvedForm(
                "theory declares no solved forms for its EL generators")
        cur = form
        for _ in range(max_rounds):
            nxt = substitute(cur, self.solved)
            if nxt == cur:
                return nxt
            cur = nxt
        raise NoFixpoint(
            f"on-shell reduction reached no fixpoint after {max_rounds} round(s)", cur)

    # -- symmetry-facing API -------------------------------------------------
    def symmetry(self, name) -> SymmetryAction:
        try:
            return self.symmetries[name]
        except KeyError:
            raise VarcalcError(f"theory has no symmetry {name!r}") from None

    def is_symmetry(self, sym: SymmetryAction, lrl=None):
        """Whether P(L_rho L) = 0; ``lrl`` is L_rho L when the caller has
        it already."""
        if lrl is None:
            lrl = lie_derivative(sym.rho, self.L)
        if lrl.is_zero():
            return True
        if not self.suite.euler_projector(lrl).is_zero():
            return False
        # representative independence: check against L^h as well
        lrlh = lie_derivative(sym.rho, self.Lh)
        if not lrlh.is_zero() and not self.suite.euler_projector(lrlh).is_zero():
            raise InvariantViolation(
                "symmetry verdict differs between L and P(L)")
        return True

    def lagrangians_equivalent(self, other: "Theory"):
        """Same EL set; returns (bool, witness) with witness = (constant
        part, d-primitive) of the difference when equivalent."""
        diff = other.L - self.L
        same = (other.EL - self.EL).is_zero()
        # P of this chart acts on (0, top) forms only
        if other.L.terms and other.L.grading() != (0, self.chart.dim):
            raise GradingError("Euler projector acts on (0, top) forms")
        same_p = (other.Lh - self.Lh).is_zero()
        if same != same_p:
            raise InvariantViolation("E and P disagree on Lagrangian equivalence")
        if not same:
            return False, None
        const = zero_star(diff)
        primitive = self.suite.h_zero(diff)
        resid = diff - const - d_h(primitive)
        if not resid.is_zero():
            raise InvariantViolation("equivalence witness failed to close")
        return True, (const, primitive)


def per_symmetry(build):
    """Run ``build(theory, sym)`` once per theory and symmetry action.

    The result is kept in ``theory.derived`` under ``(build, sym)``: the key
    holds the action itself, which hashes by identity, so a copy of an
    action is a new key.  A build that raises stores nothing, so every
    check a builder runs runs on its first successful build.  The result
    is shared by every later caller and must not be mutated."""
    @functools.wraps(build)
    def memo(theory, sym):
        key = (build, sym)
        if key not in theory.derived:
            theory.derived[key] = build(theory, sym)
        return theory.derived[key]
    return memo


def _solve_linear(E: LocalForm, target):
    """Solve E = 0 for the target jet if E = c * u_target + rest with c a
    nonzero rational times named constants and their inverses."""
    if E is None:
        return None
    chart = E.chart
    fid, midx = target
    atom = ('j', fid, midx)
    lead = LocalForm(chart)
    rest = LocalForm(chart)
    for key, c in E.terms.items():
        if atom in key:
            if key.count(atom) > 1:
                return None
            i = key.index(atom)
            cof = key[:i] + key[i + 1:]
            if any(a[0] == 'j' and chart.kind(a[1]) == DYNAMIC for a in cof):
                return None
            lead._accum(cof, c)
        else:
            rest._accum(key, c)
    if lead.is_zero() or len(lead.terms) != 1:
        return None
    (cof_word, cval), = lead.terms.items()
    if any(a[0] not in ('j', 'ji') or chart.kind(a[1]) != CONST for a in cof_word):
        return None
    # invert the constant monomial
    inv_word = []
    for a in cof_word:
        if a[0] == 'j':
            inv_word.append(('ji', a[1]))
        else:
            inv_word.append(('j', a[1], midx_zero(chart.dim)))
    inv = LocalForm.from_word(chart, tuple(inv_word), Fraction(1) / cval)
    return (-rest).wedge(inv)


def theory_from_text(text, jet_cutoff=None) -> Theory:
    from .dsl import parse_theory
    return Theory(parse_theory(text), jet_cutoff=jet_cutoff)
