"""Lagrangian field theories: build, caches, equivalence, symmetries,
solved-form on-shell reduction."""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import zip_longest

from .chart import (
    CONST, COORD, DYNAMIC, PARAM, ChartMismatch, GradingError, InvariantViolation,
    NoFixpoint, NoSolvedForm, VarcalcError,
)
from .algebra import (
    LocalForm, d_h, d_v, h_coefficient, midx_zero, source_densities, substitute,
    zero_star,
)
from .euler import EvolutionaryField, exterior_euler, lie_derivative
from .homotopy import HomotopySuite, get_suite
from .dsl import (
    ElabContext, FieldGroup, SymmetryDecl, SyntaxError_, TheoryDef,
    UndeclaredIdentifier, build_context, located, parse_theory,
)
from .render import atom_text

MAX_ROUNDS = 12     # substitution rounds reduce_on_shell runs to a fixpoint


class SymmetryAction:
    """A (local) Lie algebra action by evolutionary vector fields: the
    action ``rho`` of the parameters ``param_groups`` with the bracket of
    ``structure`` (None for an abelian action)."""

    def __init__(self, theory, name, param_groups, rho, structure=None):
        self.groups = theory.ctx.groups     # read by twin_fids; no theory held
        self.name = name
        self.param_groups = param_groups
        self.rho = rho
        self.structure = structure
        self.is_local = all(
            theory.chart.kind(fid) == PARAM
            for g in param_groups for fid in g.comps.values())

    def param_fids(self):
        out = []
        for g in self.param_groups:
            out.extend(sorted(g.comps.values()))
        return out

    def twin_fids(self):
        """{xi fid: eta fid}: each parameter component and its copy in the
        twin group that build_context declares right after the parameter's
        group, so the renaming keeps the canonical order of every atom of a
        form that holds no eta (notes/decisions.md §32)."""
        return {fid: self.groups[g.name + "__b"].comps[key]
                for g in self.param_groups for key, fid in g.comps.items()}

    def bracket(self, chart, left, right):
        """The bracket [xi, eta] on ``chart``: {c: sum of f xi^a eta^b} over
        the parameter components c of this action, where xi^a is the jet of
        left[a] and eta^b that of right[b] (left and right map this action's
        parameter fids to fids of ``chart``).  A component with no bracket
        term is left out, so an abelian action gives {}."""
        out = {}
        z = midx_zero(chart.dim)
        for g in self.param_groups:
            for (fidx, lidx), c in g.comps.items():
                st = self.structure if lidx else None
                for a, b, f in st.brackets_onto(lidx[0]) if st else ():
                    out.setdefault(c, LocalForm(chart))._accum(
                        (('j', left[g.comps[(fidx, (a,))]], z),
                         ('j', right[g.comps[(fidx, (b,))]], z)), f)
        return out


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

    def __init__(self, td: TheoryDef):
        self.td = td
        self.chart, self.ctx = build_context(td)
        self.suite: HomotopySuite = get_suite(self.chart)
        if td.lagrangian is None:
            raise VarcalcError("theory has no lagrangian")
        ast, line, col = td.lagrangian
        with located(line, col):
            self.L = self.ctx.form(ast)
            if not self.L.is_zero():
                p, q = self.L.grading()
                if (p, q) != (0, self.chart.dim):
                    raise GradingError(
                        f"lagrangian must be a (0, {self.chart.dim}) form, got ({p},{q})")
        self.EL = exterior_euler(self.L)
        self.solved = self._build_solved_forms()
        self.derived = {}          # (builder, SymmetryAction) -> result, see per_symmetry()
        self.symmetries = {decl.name: self._declared_action(decl)
                           for decl in td.symmetries}

    # theta, omega and P(L) are built on first read: a command such as
    # el, equiv, bv or cme never reads theta (notes/decisions.md §30)
    @functools.cached_property
    def theta(self):
        """theta = h>=(d_v L), checked against d_v L = E L + d theta."""
        dvL = d_v(self.L)
        theta = self.suite.h_horizontal(dvL)
        if not (dvL - self.EL - d_h(theta)).is_zero():
            raise InvariantViolation("d_v L != E L + d theta")
        return theta

    @functools.cached_property
    def omega(self):
        return d_v(self.theta)

    @functools.cached_property
    def Lh(self):
        """P(L) = hv E L."""
        return self.suite.h_vertical(self.EL)

    def _declared_action(self, decl: SymmetryDecl) -> SymmetryAction:
        """The action a symmetry section declares, realized through the
        parameter reflection (rho, [.,.]) -> (-rho, -[.,.]): an isomorphic
        presentation of the same Lie algebra action, chosen so that the
        homotopy Noether currents come out on the conventions used for the
        shipped corpus (notes/decisions.md §2).  The bracket is that of the
        first parameter with a Lie type."""
        ctx = self.ctx
        comps = {}
        for gname, (ast, line, col) in decl.assignments.items():
            with located(line, 1):
                if gname not in ctx.groups:
                    raise UndeclaredIdentifier(f"symmetry assigns unknown field {gname!r}")
            with located(line, col):
                comps.update(_match_components(ctx, ctx.groups[gname], ctx.elaborate(ast)))
        rho = EvolutionaryField(
            self.chart, {fid: -f for fid, f in comps.items()}, name=decl.name)
        lie = next((p.lie for p in decl.params if p.lie), None)
        structure = ctx.structures[lie].reflected() if lie else None
        groups = [ctx.groups[p.name] for p in decl.params]
        return SymmetryAction(self, decl.name, groups, rho, structure)

    # -- solved forms --------------------------------------------------------
    def _build_solved_forms(self):
        """Each 'solve' jet from the first unused EL generator, in fid
        order, that is linear in it; one solved jet per generator."""
        chart = self.chart
        generators = source_densities(self.EL)
        bindings = {}
        for name, midx, line in self.td.solve:
            if not chart.has_name(name):
                raise SyntaxError_(f"solve names unknown component {name!r}", line, 1)
            target = (chart.by_name(name).fid, midx)
            for gfid, E in generators.items():
                sol = _solve_linear(E, target)
                if sol is not None:
                    bindings[target] = sol
                    del generators[gfid]
                    break
            else:
                raise NoSolvedForm(
                    f"no unused EL component is linear in {atom_text(chart, ('j', *target))} "
                    f"with invertible coefficient")
        return bindings

    def reduce_on_shell(self, form: LocalForm):
        """Substitute declared solved forms (and their prolongations) to a
        fixpoint; certifies membership in the prolonged EL ideal.  Raises
        NoFixpoint if the form still changes after MAX_ROUNDS rounds."""
        if not self.solved:
            if form.is_zero():
                return form
            raise NoSolvedForm(
                "theory declares no solved forms for its EL generators")
        cur = form
        for _ in range(MAX_ROUNDS):
            nxt = substitute(cur, self.solved)
            if nxt == cur:
                return nxt
            cur = nxt
        raise NoFixpoint(
            f"on-shell reduction reached no fixpoint after {MAX_ROUNDS} round(s)", cur)

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
        part, d-primitive) of the difference when equivalent.  Raises
        ChartMismatch, naming the first difference, when the two charts
        differ in what a Lagrangian can hold."""
        mismatch = _chart_difference(self, other)
        if mismatch:
            raise ChartMismatch(f"theories live on different charts: {mismatch}")
        diff = other.L - self.L
        same = (other.EL - self.EL).is_zero()
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


def _chart_difference(ta, tb):
    """The first difference between the charts of two theories in what a
    Lagrangian can hold, or None: the dimension, the coordinate names, the
    metric, the name, kind and ghost degree at each fid of a coordinate,
    constant or dynamical component, and the function symbols."""
    def metric(t):
        return " / ".join(" ".join(map(str, row)) for row in t.td.metric)

    def held(ch):
        return [(c.fid, c.name, c.kind, c.ghost) for c in ch.components
                if c.kind in (COORD, CONST, DYNAMIC)]

    def component(c):
        return "nothing" if c is None else f"{c[1]} ({c[2]}, ghost {c[3]})"

    def function(f):
        return "nothing" if f is None else f"{f.name} (arity {f.arity})"

    a, b = ta.chart, tb.chart
    if a.dim != b.dim:
        return f"dimension {a.dim} vs {b.dim}"
    if a.coord_names != b.coord_names:
        return f"coordinates {' '.join(a.coord_names)} vs {' '.join(b.coord_names)}"
    if ta.td.metric != tb.td.metric:
        return f"metric {metric(ta)} vs {metric(tb)}"
    for x, y in zip_longest(held(a), held(b)):
        if x != y:
            return f"fid {(x or y)[0]} holds {component(x)} vs {component(y)}"
    for x, y in zip_longest(a.functions, b.functions):
        if function(x) != function(y):
            return f"function {(x or y).sym_id} is {function(x)} vs {function(y)}"
    return None


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
    """The theory a .thy text declares; ``jet_cutoff``, when given,
    replaces the file's."""
    td = parse_theory(text)
    if jet_cutoff is not None:
        td.jet_cutoff = jet_cutoff
    return Theory(td)
