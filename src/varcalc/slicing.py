"""Restriction to a codimension-1 coordinate slice (the Kijowski-Tulczyjew
step), the Sigma-Noether form with its constraint/flux split, equivariance
cocycles, and codimension-2 corner Poisson data."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chart import (
    Chart, COORD, DYNAMIC, DegenerateSlice, DoesNotDescend,
    NoFlux, NotExact, VarcalcError, VerdictMismatch,
)
from .algebra import (
    LocalForm, d_h, d_v, h_coefficient, midx_order, midx_shift, midx_zero,
    relabel, source_densities, substitute, transport,
)
from .euler import EvolutionaryField, interior_euler, lie_derivative
from .homotopy import get_suite
from .noether import (
    Report, bracket_bindings, decompose_dual_current, noether_cone,
)
from .render import render_text
from .lie import Structure, _kval, abelian_structure, schouten_PiPi
from .theory import Theory, SymmetryAction, _solve_linear


@dataclass
class SliceSpec:
    transverse: int = 0          # bulk direction transverse to the slice
    corner: int | None = None    # bulk direction whose slice bounds Sigma


class SigmaTheory:
    """Slice data: Sigma chart, momenta, omega_Sigma, translation maps."""

    def __init__(self, theory: Theory, spec: SliceSpec):
        self.theory = theory
        self.spec = spec
        bulk = theory.chart
        n = bulk.dim
        t = spec.transverse
        if not (0 <= t < n):
            raise VarcalcError("transverse direction out of range")
        self.tangential = [mu for mu in range(n) if mu != t]
        self._bulk_dir_to_sigma = {mu: i for i, mu in enumerate(self.tangential)}

        # --- Sigma chart -----------------------------------------------------
        names = [bulk.coord_names[mu] for mu in self.tangential]
        schart, self.b2s = bulk.derive(names)
        self.s2b = {s: b for b, s in self.b2s.items()}
        self.schart = schart
        self.ssuite = get_suite(schart)

        # --- restrict theta and introduce momenta ----------------------------
        dxt = bulk.encode(('h', t))
        theta_words = [bulk.decode_word(key) for key in theory.theta.terms
                       if dxt not in key]
        for key in theta_words:
            for a in key:
                if a[0] == 'v' and midx_order(a[2]):
                    raise VarcalcError(
                        "KT restriction needs order-zero variations in theta; "
                        "higher-order Lagrangians are not supported here")

        # transverse-derivative helper fields (one per bulk component used)
        self.dt_fields = {}      # bulk fid -> sigma fid of its d/dt restriction
        fields = {c.fid for c in bulk.components if c.kind != COORD}
        needed = {a[1] for key in theta_words for a in key
                  if a[0] == 'j' and a[1] in fields}
        for bfid in sorted(needed):
            comp = bulk.component(bfid)
            sc = schart.add_component("Dt_" + comp.name, ghost=comp.ghost,
                                      kind=comp.kind)
            self.dt_fields[bfid] = sc.fid

        theta_s = self.restrict(theory.theta)

        # momenta: one per vertical leg whose coefficient carries Dt fields;
        # density == Pi is solved for its lex-max unsolved Dt field, and the
        # solution substituted into the earlier ones (notes/decisions.md §29)
        self.momenta = {}        # sigma fid of Pi -> (sigma leg fid, definition)
        self.dt_solves = {}      # bindings (sigma Dt fid, 0) -> expression
        z = midx_zero(schart.dim)
        dtset = set(self.dt_fields.values())

        def dts_of(form):
            return {a[1] for k in form.terms for a in schart.decode_word(k)
                    if a[0] == 'j' and a[1] in dtset}

        for sfid, density in source_densities(theta_s).items():
            dts = dts_of(density)
            if not dts:
                continue
            bname = schart.component(sfid).name
            pc = schart.add_component("Pi_" + bname, ghost=schart.ghost(sfid),
                                      kind=DYNAMIC)
            self.momenta[pc.fid] = (sfid, density)
            eq = density - LocalForm.from_word(schart, (('j', pc.fid, z),))
            if any((dt, z) in self.dt_solves for dt in dts):
                eq = substitute(eq, self.dt_solves)
                dts = dts_of(eq)
            for dt in sorted(dts, reverse=True):
                sol = _solve_linear(eq, (dt, z))
                if sol is not None:
                    break
            else:
                raise DegenerateSlice(
                    f"cannot solve the momentum relation for {bname}",
                    kernel=[bname])
            new = {(dt, z): sol}
            for key, expr in self.dt_solves.items():
                if dt in dts_of(expr):
                    self.dt_solves[key] = substitute(expr, new)
            self.dt_solves.update(new)

        theta_final = substitute(theta_s, self.dt_solves) if self.dt_solves else theta_s
        left = self._leftover_dt(theta_final)
        if left:
            raise DegenerateSlice(
                "transverse jets without symplectic partner: " + ", ".join(left),
                kernel=left)
        self.theta_sigma = theta_final
        self.omega_sigma = d_v(theta_final)
        self.pairing, self.surviving = self._pairing_table()

    # --- plumbing -------------------------------------------------------------
    def _leftover_dt(self, form):
        dtset = set(self.dt_fields.values())
        names = set()
        for key in form.terms:
            for a in self.schart.decode_word(key):
                if a[0] in ('j', 'v') and a[1] in dtset:
                    names.add(self.schart.component(a[1]).name)
        return sorted(names)

    def restrict(self, form: LocalForm):
        """iota_Sigma^*: a bulk form on the slice x^t = 0, in Sigma-chart
        variables.  Words holding dx^t vanish, and are dropped before their
        jets are read; x^t is 0, as a jet and as a function argument; u_,t
        becomes Dt_u.  A jet u_,tt, or a transverse jet inside a function
        argument, does not descend."""
        bulk = self.theory.chart
        t = self.spec.transverse
        offending = set()

        def jet(a, in_fn):
            if a[0] in ('f', 'F'):
                return a
            if a[0] == 'ji':
                return ('ji', self.b2s[a[1]])
            comp = bulk.component(a[1])
            if comp.kind == COORD and comp.coord_dir == t:
                return ('0',) if in_fn else None
            J = tuple(a[2][mu] for mu in self.tangential)
            k = a[2][t]
            if in_fn:
                if k:
                    offending.add(comp.name)
                    return None
                return ('j', self.b2s[a[1]], J)
            if k == 0:
                return (a[0], self.b2s[a[1]], J)
            if k == 1 and a[1] in self.dt_fields:
                return (a[0], self.dt_fields[a[1]], J)
            offending.add(comp.name + "_," + str(t) * k)
            return None

        dxt = bulk.encode(('h', t))
        out = transport(form.components(lambda w: dxt not in w),
                        self.schart, jet, self._bulk_dir_to_sigma.__getitem__)
        if offending:
            raise DoesNotDescend(
                "transverse jets obstruct the restriction: "
                + ", ".join(sorted(offending)), sorted(offending))
        return out

    def express(self, bulk_form: LocalForm):
        """iota^* followed by momentum substitution; errors on leftovers."""
        s = self.restrict(bulk_form)
        if self.dt_solves:
            s = substitute(s, self.dt_solves)
        left = self._leftover_dt(s)
        if left:
            raise DoesNotDescend(
                "does not descend to the slice: " + ", ".join(left), left)
        return s

    def to_bulk(self, form: LocalForm):
        """pi_Sigma^*: substitute the momentum definitions and relabel."""
        bulk = self.theory.chart
        schart = self.schart
        t = self.spec.transverse
        dt_inv = {v: k for k, v in self.dt_fields.items()}

        def conv_midx(J):
            out = [0] * bulk.dim
            for i, mu in enumerate(self.tangential):
                out[mu] = J[i]
            return tuple(out)

        # momentum definitions, pushed to bulk jets
        mom_bind = {}
        for pfid, (_sfid, density) in self.momenta.items():
            mom_bind[(pfid, midx_zero(schart.dim))] = density
        work = substitute(form, mom_bind) if mom_bind else form

        def jet(a, in_fn):
            if a[0] in ('f', 'F'):
                return a
            fid = a[1]
            if a[0] == 'ji':
                return ('ji', self.s2b[fid])
            J = conv_midx(a[2])
            if in_fn:
                return ('j', self.s2b[fid], J)
            if fid in dt_inv:
                return (a[0], dt_inv[fid], midx_shift(J, t))
            return (a[0], self.s2b[fid], J)

        return transport(work, bulk, jet, self.tangential.__getitem__)

    def _pairing_table(self):
        """(the symplectic partners of each slice field, the set of slice
        fields): the dynamical fids of omega_Sigma, whose legs are all
        dynamical."""
        schart = self.schart
        src = interior_euler(self.omega_sigma)
        atoms = {a for k in self.omega_sigma.terms for a in schart.decode_word(k)}
        fields = ({a[1] for a in atoms if a[0] == 'v'} |
                  {a[1] for a in atoms
                   if a[0] == 'j' and schart.kind(a[1]) == DYNAMIC})
        table = {}
        kernel = []
        densities = source_densities(src)
        for f in sorted(fields):
            co = densities.get(f, LocalForm(schart))
            partners = sorted({schart.component(a[1]).name
                               for k in co.terms for a in schart.decode_word(k)
                               if a[0] == 'v'})
            nm = schart.component(f).name
            if partners:
                table[nm] = partners
            else:
                kernel.append(nm)
        if kernel:
            raise DegenerateSlice(
                "slice fields without symplectic partner: " + ", ".join(kernel),
                kernel)
        return table, fields


def restrict_to_slice(theory: Theory, spec: SliceSpec) -> SigmaTheory:
    return SigmaTheory(theory, spec)


# ---------------------------------------------------------------------------
# Sigma-Noether data
# ---------------------------------------------------------------------------

def sigma_noether(sigma: SigmaTheory, sym: SymmetryAction):
    """H: the slice image of the Noether current, in Sigma variables."""
    _S, J = noether_cone(sigma.theory, sym)
    return sigma.express(J)


def split_constraint_flux(sigma: SigmaTheory, sym: SymmetryAction, H):
    """(constraint form, flux form) of the Sigma-Noether form H."""
    return decompose_dual_current(H, [sigma.b2s[fid] for fid in sym.param_fids()])


def descended_action(sigma: SigmaTheory, sym: SymmetryAction) -> EvolutionaryField:
    """rho_Sigma on the surviving slice fields and the momenta; components
    of fields removed by the presymplectic reduction are not part of the
    slice action."""
    comps = {}
    for bfid, expr in sym.rho.components.items():
        sfid = sigma.b2s.get(bfid)
        if sfid is None or sfid not in sigma.surviving:
            continue
        comps[sfid] = sigma.express(expr)
    for pfid, (_sfid, density) in sigma.momenta.items():
        bulk_density = sigma.to_bulk(density)
        moved = lie_derivative(sym.rho, bulk_density)
        comps[pfid] = sigma.express(moved)
    comps = {fid: f for fid, f in comps.items() if not f.is_zero()}
    return EvolutionaryField(sigma.schart, comps, name=sym.name + "_sigma")


def sigma_param_basis(sigma: SigmaTheory, sym: SymmetryAction):
    """Basis substitutions xi -> e_a (constant sections) on the Sigma chart:
    one per parameter component, which goes to 1 while every other
    parameter component of the symmetry goes to 0.  An element is labelled
    (fidx, lidx) within its parameter group, with the group's position
    appended when the symmetry has several groups."""
    z = midx_zero(sigma.schart.dim)
    several = len(sym.param_groups) > 1
    comps = [(key + (gi,) if several else key, sigma.b2s[g.comps[key]])
             for gi, g in enumerate(sym.param_groups) for key in sorted(g.comps)]
    one, zero = LocalForm.scalar(sigma.schart, 1), LocalForm.zero(sigma.schart)
    return [(label, {(fid, z): one if fid == chosen else zero for _l, fid in comps})
            for label, chosen in comps]


def compute_ce_cocycle(sigma: SigmaTheory, sym: SymmetryAction):
    """The equivariance cocycle table kappa(e_a, e_b) and its verification.

    residual(xi, eta) = L_{rho(xi)} H_eta - H_{[xi,eta]}
    must be d-exact with a field-independent primitive kappa; a
    field-dependent or non-exact residual raises NotExact.
    """
    schart = sigma.schart
    tw = {sigma.b2s[p]: sigma.b2s[q] for p, q in sym.twin_fids().items()}
    H_eta = relabel(sigma_noether(sigma, sym), schart, tw)
    lhs = lie_derivative(descended_action(sigma, sym), H_eta)
    residual = lhs - substitute(H_eta, bracket_bindings(sym, schart, sigma.b2s))
    # the cocycle is field independent: any dynamical jet in the full
    # symbolic residual means the equivariance equation fails
    for key in residual.terms:
        for a in schart.decode_word(key):
            if a[0] in ('j', 'v') and schart.kind(a[1]) == DYNAMIC:
                raise NotExact(
                    "equivariance residual is field-dependent: "
                    + render_text(residual), residual)
    # kappa per basis pair
    table = {}
    basis = sigma_param_basis(sigma, sym)
    # the twin basis is the xi basis with its keys renamed
    basis_twin = [(label, {(tw[fid], j): v for (fid, j), v in sub.items()})
                  for label, sub in basis]
    suite = sigma.ssuite
    for (ka, sub_a) in basis:
        for (kb, sub_b) in basis_twin:
            # constant sections add no dynamical jet to the residual
            r_ab = substitute(substitute(residual, sub_a), sub_b)
            kappa = suite.poincare_x(r_ab)
            if not (d_h(kappa) - r_ab).is_zero():
                raise NotExact("equivariance residual is not d-exact", r_ab)
            table[(ka, kb)] = kappa
    _check_cocycle(sigma, sym, table)
    return table


def _check_cocycle(sigma: SigmaTheory, sym: SymmetryAction, table):
    """Constant CE 2-cocycle identity on basis triples:
    kappa([a,b], c) + kappa([b,c], a) + kappa([c,a], b) = 0."""
    st = sym.structure
    if st is None:
        return
    # a label without a Lie index leaves nothing to check
    if not all(ka[1] and kb[1] for ka, kb in table):
        return
    # the first table entry on a pair of Lie indices stands for the pair
    kappa = {}
    for (ka, kb), v in table.items():
        kappa.setdefault((ka[1][0], kb[1][0]), v.terms)
    fails = st.cyclic(lambda d, z: kappa.get((d, z), {}).items())
    if fails:
        raise NotExact(
            f"CE 2-cocycle identity fails on basis triple {next(iter(fails))}")


# ---------------------------------------------------------------------------
# corner data and the corner master equation
# ---------------------------------------------------------------------------

@dataclass
class CornerData:
    structure: Structure             # the corner algebra's bracket
    k: dict                          # constant 2-cocycle (a,b) -> Fraction
    h_densities: dict                # basis label -> rendered corner density


def corner_data(sigma: SigmaTheory, sym: SymmetryAction) -> CornerData:
    if sigma.spec.corner is None:
        raise VarcalcError("slice declares no corner")
    H = sigma_noether(sigma, sym)
    _H0, hflux = split_constraint_flux(sigma, sym, H)
    if hflux.is_zero():
        raise NoFlux("flux form vanishes; no corner data")
    corner_dir = sigma._bulk_dir_to_sigma.get(sigma.spec.corner)
    if corner_dir is None:
        raise VarcalcError("corner direction is not tangential to the slice")
    densities = {}
    for key, subs in sigma_param_basis(sigma, sym):
        val = substitute(hflux, subs)
        dxc = val.chart.encode(('h', corner_dir))
        densities[key] = render_text(val.components(lambda w: dxc not in w))
    st = sym.structure or abelian_structure(
        sym.name, sum(len(g.comps) for g in sym.param_groups))
    return CornerData(structure=st, k={}, h_densities=densities)


def _corner_ring_chart(dim):
    ch = Chart(1)
    ch.add_coordinates()
    hfids = [ch.add_component(f"hc{a}").fid for a in range(dim)]
    cfids = [ch.add_component(f"cg{a}", ghost=1).fid for a in range(dim)]
    return ch, hfids, cfids


def corner_bracket_SS(st: Structure, k):
    """{S_d, S_d} in the graded corner ring (odd variables c^a, even
    variables h_a), as the BV bracket of S_d ∧ dx0 under the odd symplectic
    density omega = sum_a dh_a ∧ dc^a ∧ dx0 on the 1-d ring chart."""
    # bv imports this module at load time, so its routines are imported here
    from .bv import bv_bracket, graded_extension, hamiltonian_vector_field
    ch, hfids, cfids = _corner_ring_chart(st.dim)
    z = midx_zero(1)
    body = LocalForm(ch)
    for a in range(st.dim):
        for b in range(st.dim):
            kv = _kval(k, a, b)
            if kv:
                body.add_word((('j', cfids[a], z), ('j', cfids[b], z), ('h', 0)), kv / 2)
    # S_d ∧ dx0 = 1/2 k(c, c) dx0 + Σ_c h_c ∧ 1/2 f^{ab}_c c^a c^b ∧ dx0
    q = {c: LocalForm(ch) for c in cfids}
    for a, b, c, coeff in st.terms():
        q[cfids[c]].add_word((('j', cfids[a], z), ('j', cfids[b], z)), Fraction(coeff) / 2)
    S, omega = graded_extension(ch, body, LocalForm(ch), dict(zip(cfids, hfids)), q, 1)
    Q = hamiltonian_vector_field(S, omega)
    return h_coefficient(bv_bracket(Q, Q, omega), (0,))


def verify_corner_master(data: CornerData):
    bra = corner_bracket_SS(data.structure, data.k)
    sch = schouten_PiPi(data.structure, data.k)
    v1 = bra.is_zero()
    v2 = not sch
    if v1 != v2:
        raise VerdictMismatch(
            f"graded bracket verdict {v1} differs from Schouten verdict {v2}")
    if not v1:
        return Report("corner master equation", False,
                      f"{{S,S}} = {render_text(bra)}")
    return Report("corner master equation", True,
                  "both {S,S} and [Pi,Pi]_SN vanish")
