"""BV and BFV graded extensions: ghosts, antifields, master equations,
and the BV-BFV compatibility conditions on a coordinate slice."""

from __future__ import annotations

import functools
from fractions import Fraction

from .chart import (
    DYNAMIC, CMEFails, DoesNotDescend, NoBracket,
    NotHamiltonian, NotLocal, NotStronglyHamiltonian, ResidualNonzero,
    VarcalcError,
)
from .algebra import (
    LocalForm, d_h, d_v, midx_zero, relabel, source_densities, transport,
)
from .euler import EvolutionaryField, insert, interior_euler, lie_derivative
from .homotopy import get_suite
from .noether import Report
from .render import render_text
from .slicing import (
    SigmaTheory, SliceSpec, descended_action, sigma_noether, split_constraint_flux,
)
from .theory import SymmetryAction, Theory, per_symmetry


def graded_extension(chart, body, omega, conj, q, sign):
    """The graded extension of ``body`` by generators x with conjugates
    x† = conj[x] (notes/decisions.md §38): (L, omega) with
    L = body + Σ_x x† ∧ q[x] ∧ vol over sorted(q), and
    omega = omega + sign Σ_x d x† ∧ d x ∧ vol over sorted(conj).
    The input forms are left as they are."""
    z = midx_zero(chart.dim)
    vol = chart.encode_word(tuple(('h', mu) for mu in range(chart.dim)))
    L = LocalForm(chart, dict(body.terms))
    for x in sorted(q):
        head = chart.encode_word((('j', conj[x], z),))
        for key, c in q[x].terms.items():
            L._accum(head + key + vol, c)
    omega = LocalForm(chart, dict(omega.terms))
    for x in sorted(conj):
        omega._accum(chart.encode_word((('v', conj[x], z), ('v', x, z))) + vol, sign)
    return L, omega


class BVTheory:
    """The minimal BV extension of a theory with a faithful local symmetry."""

    def __init__(self, theory: Theory, sym: SymmetryAction):
        if not sym.is_local:
            raise NotLocal("BV extension needs a local symmetry")
        base = theory.chart
        chart, self.b2x = base.derive(base.coord_names)

        # ghosts replace the symmetry parameters; antifields double the fields
        self.ghosts = {}             # base param fid -> ghost fid
        for pf in sym.param_fids():
            self.ghosts[pf] = chart.add_component(
                "c_" + base.component(pf).name, ghost=1).fid
        self.antifields = {}         # chart fid (field or ghost) -> antifield fid
        matter = [self.b2x[c.fid] for c in base.components if c.kind == DYNAMIC]
        for fid in matter + sorted(self.ghosts.values()):
            comp = chart.component(fid)
            self.antifields[fid] = chart.add_component(
                comp.name + "_dag", ghost=-1 - comp.ghost).fid
        self.chart = chart
        self.suite = get_suite(chart)

        # lift: parameter jets become ghost jets in place, except inside a
        # function argument (components are parameter-linear)
        self._lift = {b: self.ghosts.get(b, x) for b, x in self.b2x.items()}
        L0 = self.lift(theory.L)

        # Q_CE on fields: rho with the parameter replaced by the ghost
        self.qce = {}
        for bfid, comp_form in sym.rho.components.items():
            self.qce[self.b2x[bfid]] = self.lift(comp_form)
        # Q_CE on ghosts: -1/2 [c, c] with the engine bracket
        for p, br in sym.bracket(chart, self.ghosts, self.ghosts).items():
            if not br.is_zero():
                self.qce[self.ghosts[p]] = br * Fraction(-1, 2)

        # L_BV = L + sum phi+ Q_CE(phi) vol, omega_BV = sum d(phi+) ^ d(phi) vol
        self.L, self.omega_BV = graded_extension(
            chart, L0, LocalForm(chart), self.antifields, self.qce, 1)
        if not (zero_ghost_body(self, self.L) - L0).is_zero():
            raise VarcalcError("BV body projection does not reproduce L")
        for key in self.L.terms:
            if self.L.key_ghost(key) != 0:
                raise VarcalcError("L_BV has a term of nonzero ghost degree")
        # Q reproduces Q_CE on fields and ghosts (notes/decisions.md §19);
        # it is taken after the checks, so an invalid L raises their error
        self.Q = hamiltonian_vector_field(self.L, self.omega_BV)
        self._bracket = None         # (Q, omega_BV, {L_BV, L_BV})

    def lift(self, form):
        """A base-chart form on the BV chart, parameter jets as ghost jets."""
        return relabel(form, self.chart, self._lift, self.b2x)

    # theta_BV and omega are built on first read, as a Theory's are: bv and
    # cme read neither (notes/decisions.md §30, §31)
    @functools.cached_property
    def theta(self):
        """The boundary structure: theta_BV is the homotopy primitive in
        dv L_BV = E L_BV + d theta_BV, and the flow equation makes
        i_Q omega_BV = E L_BV exactly, so i_Q omega_BV = dv L_BV - d theta_BV
        is checked here, against the Q of this object."""
        dvL = d_v(self.L)
        theta = self.suite.h_horizontal(dvL)
        rem = insert(self.Q, self.omega_BV) - dvL + d_h(theta)
        if not rem.is_zero():
            raise ResidualNonzero("BV flow/boundary identity failed", rem)
        return theta

    @functools.cached_property
    def omega(self):
        return d_v(self.theta)

    @property
    def master_bracket(self) -> LocalForm:
        """{L_BV, L_BV}, which the CME and condition 2 of the BV-BFV check
        both read: built once per (Q, omega_BV), so a copy whose Q is
        replaced gets the bracket of its own Q."""
        Q, omega = self.Q, self.omega_BV
        got = self._bracket
        if got is None or got[0] is not Q or got[1] is not omega:
            got = self._bracket = (Q, omega, bv_bracket(Q, Q, omega))
        return got[2]


def zero_ghost_body(bv: BVTheory, form):
    """Set every nonzero-ghost generator to zero."""
    chart = bv.chart
    return form.components(lambda w: not any(
        a[0] in ('j', 'v') and chart.ghost(a[1]) for a in map(chart.decode, w)))


def hamiltonian_vector_field(F: LocalForm, omega: LocalForm) -> EvolutionaryField:
    """Solve I i_X omega = I dv F for X, for source-constant pairings.

    A term c d(u1) ∧ d(u2) vol of omega turns X = D d/du2 into the d(u1)
    coefficient c (-1)^(P p1) D of I i_X omega, and X = D d/du1 into the
    d(u2) coefficient c (-1)^(P p2 + p1 p2) D, where p1, p2 are the parities
    of the legs and P that of i_X (notes/decisions.md §6).
    """
    chart = F.chart
    z = midx_zero(chart.dim)
    src = interior_euler(omega)
    EF = interior_euler(d_v(F))
    # i_X has parity 1 + gh X, and X shifts ghost degree by gh F - gh omega
    P = (1 + F.ghost_degree() - src.ghost_degree()) & 1

    # pairing table: generator u -> (partner v, coefficient of d(u) in
    # I i_X omega per unit X along v), one entry per omega term
    pair = {}
    for key, c in src.terms.items():
        atoms = [chart.decode(x) for x in key]
        legs = [a for a in atoms if a[0] == 'v']
        rest = [a for a in atoms if a[0] not in ('v', 'h')]
        if len(legs) != 2 or rest:
            raise NotHamiltonian("symplectic density is not a constant pairing")
        (f1, m1), (f2, m2) = (legs[0][1], legs[0][2]), (legs[1][1], legs[1][2])
        if m1 != z or m2 != z:
            raise NotHamiltonian("symplectic pairing involves higher jets")
        p1, p2 = (x & 1 for x in key if chart.code_v <= x < chart.code_h)
        pair.setdefault(f2, []).append((f1, c * (-1) ** (P * p2 + p1 * p2)))
        pair.setdefault(f1, []).append((f2, c * (-1) ** (P * p1)))

    comps = {}
    densities = source_densities(EF)
    for u in sorted(pair):
        # coefficient of d(u) in EF determines X along the partner of u
        dens = densities.get(u)
        if dens is None:
            continue
        partners = {v for v, _r in pair[u]}
        if len(partners) != 1:
            raise NotHamiltonian("degenerate symplectic pairing")
        v = partners.pop()
        ratio = sum(r for _v, r in pair[u])
        comps[v] = comps.get(v, LocalForm.zero(chart)) + dens * (Fraction(1) / ratio)

    X = EvolutionaryField(chart, {k: v for k, v in comps.items()
                                  if not v.is_zero()}, name="X_F")
    resid = interior_euler(insert(X, omega)) - EF
    if not resid.is_zero():
        raise NotHamiltonian(
            "no Hamiltonian vector field solves the flow equation: residual "
            + render_text(resid))
    return X


@per_symmetry
def bv_extend(theory: Theory, sym: SymmetryAction) -> BVTheory:
    return BVTheory(theory, sym)


def check_q_nilpotent(bv: BVTheory) -> Report:
    chart = bv.chart
    z = midx_zero(chart.dim)
    bad = []
    gens = sorted(set(bv.antifields) | set(bv.antifields.values()))
    for fid in gens:
        one = LocalForm.from_word(chart, (('j', fid, z),))
        q2 = lie_derivative(bv.Q, lie_derivative(bv.Q, one))
        if not q2.is_zero():
            bad.append((chart.component(fid).name, render_text(q2)))
    if bad:
        raise ResidualNonzero(
            "Q^2 != 0 on generators: " +
            "; ".join(f"{n}: {r}" for n, r in bad))
    return Report("Q_BV^2 = 0 on all generators", True)


def bv_bracket(XF: EvolutionaryField, XG: EvolutionaryField,
               omega: LocalForm) -> LocalForm:
    """The densitised bracket {F, G} = i_XF i_XG omega of two functionals,
    given their Hamiltonian vector fields."""
    return insert(XF, insert(XG, omega))


def verify_cme(bv: BVTheory) -> tuple[Report, LocalForm]:
    """Densitised classical master equation: {L_BV, L_BV} is d-exact, decided
    by its primitive.  On a top form B the homotopy identity reads
    B = d h0 B + P0 B, so the residual B - d h0 B is P0({L,L}) and is zero
    exactly when B is in Im(d); returns the h0-primitive."""
    B = bv.master_bracket
    if B.is_zero():
        return Report("densitised CME", True, "{L,L} = 0"), B
    prim = bv.suite.h_zero(B)
    resid = B - d_h(prim)
    if not resid.is_zero():
        raise CMEFails("classical master equation fails: P0({L,L}) = "
                       + render_text(resid), resid)
    return Report("densitised CME", True,
                  "{L,L} = d(" + render_text(prim)[:80] + ")"), prim


# ---------------------------------------------------------------------------
# BFV
# ---------------------------------------------------------------------------

class BFVTheory:
    def __init__(self, sigma: SigmaTheory, sym: SymmetryAction):
        theory = sigma.theory
        schart = sigma.schart
        # strong Hamiltonian flow equation: i_rho omega_Sigma = -dv H
        H = sigma_noether(sigma, sym)
        rho_s = descended_action(sigma, sym)
        flow = insert(rho_s, sigma.omega_sigma) + d_v(H)
        if not flow.is_zero():
            raise NotStronglyHamiltonian(
                "i_rho omega_Sigma + dv H != 0: " + render_text(flow))
        if sym.structure is None and any(
                len(g.comps) > 1 for g in sym.param_groups):
            raise NoBracket("BFV extension needs bracket data")

        # the slice x^t = const carries the induced orientation (-1)^t
        self.orientation = orientation = -1 if sigma.spec.transverse & 1 else 1
        chart, self.s2x = schart.derive(
            schart.coord_names, keep=lambda c: c.kind != DYNAMIC or c.fid in sigma.surviving)
        self.ghosts = {}             # sigma param fid -> ghost fid
        self.ghost_momenta = {}      # ghost fid -> ghost momentum fid
        c_of = {}                    # bulk param fid -> ghost fid
        for pf in sym.param_fids():
            sf = sigma.b2s[pf]
            name = "c_" + schart.component(sf).name
            c_of[pf] = self.ghosts[sf] = chart.add_component(name, ghost=1).fid
            self.ghost_momenta[c_of[pf]] = chart.add_component(
                name + "_dag", ghost=-1).fid
        self.chart = chart
        self.suite = get_suite(chart)

        def jet(a, in_fn):
            if a[0] in ('f', 'F'):
                return a
            fid = self.ghosts.get(a[1], self.s2x.get(a[1]))
            if fid is None:
                raise VarcalcError(
                    f"component {schart.component(a[1]).name} has no BFV image")
            return (a[0], fid) + a[2:]

        def move(form):
            return transport(form, chart, jet)

        H0, hflux = split_constraint_flux(sigma, sym, H)
        # L_BFV = <H0, c> + orientation/2 <c+, [c,c]> (parameters become
        # ghosts via self.ghosts), omega_BFV = omega_Sigma - orientation
        # sum dc+ ^ dc vol
        half = Fraction(orientation, 2)
        self.L, self.omega_BFV = graded_extension(
            chart, move(H0), move(sigma.omega_sigma), self.ghost_momenta,
            {c_of[p]: br * half for p, br in sym.bracket(chart, c_of, c_of).items()},
            -orientation)
        gh = {self.L.key_ghost(k) for k in self.L.terms}
        if gh - {1}:
            raise VarcalcError(f"L_BFV must have ghost degree 1, got {gh}")
        self.C_BFV = H0
        self.Q = hamiltonian_vector_field(self.L, self.omega_BFV)


def bfv_extend(sigma: SigmaTheory, sym: SymmetryAction) -> BFVTheory:
    return BFVTheory(sigma, sym)


def verify_bfv_cme(bfv: BFVTheory) -> Report:
    B = bv_bracket(bfv.Q, bfv.Q, bfv.omega_BFV)
    if B.is_zero():
        return Report("BFV master equation", True, "{L,L} = 0")
    resid = B - d_h(bfv.suite.h_zero(B))      # P0({L,L}), as in verify_cme
    if not resid.is_zero():
        raise CMEFails("BFV master equation fails", resid)
    return Report("BFV master equation", True, "{L,L} d-exact")


# ---------------------------------------------------------------------------
# BV-BFV compatibility
# ---------------------------------------------------------------------------

def verify_bvbfv(bv: BVTheory, bfv: BFVTheory, spec: SliceSpec):
    """The three compatibility conditions on the coordinate slice."""
    reports = []
    bvs = SigmaTheory(bv, spec)

    # ghost momenta bridge to the symplectic partner of the ghost in the
    # KT restriction of the BV theory (e.g. the transverse antifield)
    special = {}
    for gfid, gmfid in bfv.ghost_momenta.items():
        gname = bfv.chart.component(gfid).name
        partners = bvs.pairing.get(gname, [])
        if len(partners) == 1:
            special[bfv.chart.component(gmfid).name] = partners[0]

    # BFV chart -> BV-slice chart, by name and ghost pairing
    names = {c.fid: bvs.schart.by_name(special.get(c.name, c.name)).fid
             for c in bfv.chart.components}

    def bridge(form):
        return relabel(form, bvs.schart, names)

    # 1. iota* dv theta_BV = pi* omega_BFV
    lhs = bvs.omega_sigma
    rhs = bridge(bfv.omega_BFV)
    ok1 = (lhs - rhs).is_zero()
    reports.append(Report("iota* d theta_BV = pi* omega_BFV", ok1,
                          "" if ok1 else render_text(lhs - rhs)))

    # 2. {L_BV, L_BV} = d L_BFV, compared through the slice homotopy suite:
    # the bulk bracket is d-exact (the densitised CME) and the boundary
    # content of its canonical primitive is L_BFV, i.e.
    # iota*(i_Q theta_BV) - L_BFV is d_Sigma-exact.  The bulk verdict needs
    # no primitive, so it reads P0 directly; X is decided by its primitive.
    B = bv.master_bracket
    ok2 = True
    det2 = ""
    if not bv.suite.euler_projector0(B).is_zero():
        ok2 = False
        det2 = "{L_BV, L_BV} is not d-exact"
    if ok2:
        W = bvs.express(insert(bv.Q, bv.theta))
        X = W - bridge(bfv.L)
        if not (X - d_h(bvs.ssuite.h_zero(X))).is_zero():
            ok2 = False
            det2 = "boundary content of the CME primitive is not L_BFV: " \
                + render_text(X)[:160]
    reports.append(Report("{L_BV, L_BV} = d L_BFV (slice-normalized)", ok2, det2))

    # 3. Q_BV pi* = pi* Q_BFV on slice generators
    z = midx_zero(bfv.chart.dim)
    bad = []
    for comp in bfv.chart.components:
        if comp.kind != DYNAMIC:
            continue
        gen = LocalForm.from_word(bfv.chart, (('j', comp.fid, z),))
        rhs3 = bridge(lie_derivative(bfv.Q, gen))
        bulk_gen = bvs.to_bulk(bridge(gen))
        try:
            lhs3 = bvs.express(lie_derivative(bv.Q, bulk_gen))
        except DoesNotDescend as e:
            bad.append(f"{comp.name}: {e}")
            continue
        if not (lhs3 - rhs3).is_zero():
            bad.append(f"{comp.name}: {render_text(lhs3 - rhs3)}")
    reports.append(Report("Q_BV pi* = pi* Q_BFV", not bad, "; ".join(bad)))
    return reports


def cohomology_witness(bv: BVTheory, candidate: LocalForm, certificate=None):
    """closed / exact / neither verdict for a ghost-0 candidate."""
    if candidate.ghost_degree() != 0:
        raise VarcalcError("candidate must have ghost degree 0")
    qc = lie_derivative(bv.Q, candidate)
    if not qc.is_zero():
        return "not closed"
    if certificate is not None:
        qcert = lie_derivative(bv.Q, certificate)
        if (qcert - candidate).is_zero():
            return "exact"
        return "closed (certificate failed)"
    return "closed"
