"""Contracting homotopies for the bicomplex of local forms.

The horizontal differential d = dx^mu ^ D_mu is one odd derivation
(algebra.horizontal).  It splits as d = d1 + d0, where d1 shifts the
multi-indices of the vertical legs (and is linear over the coefficient
ring) and d0, the same derivation with the legs left alone,
differentiates only the coefficient atoms.
On each finite stratum of leg data, d1 is contracted exactly by sigma1,
the Moore-Penrose inverse e^+ of the matrix e = e_{b-1} of d1 from degree
b-1 to b, at every horizontal degree b >= 1.  Below top horizontal degree
on strata with legs d1 has no cohomology, which is checked as
rank e_{b-1} + rank e_b = dim C_b.  So the Hodge Laplacian of the source
degree, Delta = e_{b-2} e_{b-2}^T + e^T e, is invertible and agrees with
e^T e on im e^T, and sigma1 = Delta^{-1} e^T = e^+; Delta is inverted one
connected block at a time (notes/decisions.md §14).  The image of each
canonical leg word is computed once per stratum.  The homological
perturbation series in d0 (which terminates, since sigma1 lowers total
leg order) then produces a homotopy h for the full horizontal
differential satisfying

    alpha = h d alpha                     on (>=1, 0) forms,
    alpha = h d alpha + d h alpha         on (>=1, 0<q<n) forms,
    alpha = d h alpha + I alpha           on (>=1, n)  forms,

with I the interior Euler operator.  All arithmetic is exact.

The vertical homotopy and the base Poincare homotopy are one radial
contraction (_radial): an odd derivation trading a leg for its jet, then a
rescale of each output word by its weight.  On coefficients with opaque
function symbols the vertical one produces formal fiber-integral factors,
which are resolved whenever they assemble into a total lambda-derivative.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .chart import (
    COORD, DYNAMIC, GradingError, InvariantViolation, NonScalableTerm,
    NotConstant, VarcalcError, inverse, rref,
)
# imported for bench/tracer.py, which traces it under this module
from .chart import pseudo_inverse_psd  # noqa: F401
from .algebra import (
    LocalForm, _add, _q, apply_derivation, atom_parity, d_h, d_v, horizontal,
    midx_zero, norm_word, zero_star,
)
from .euler import interior_euler, exterior_euler


# ---------------------------------------------------------------------------
# strata of the leg complex
# ---------------------------------------------------------------------------

def _leg_split(key):
    """Split a canonical word into (coefficient atoms, leg atoms)."""
    for i, a in enumerate(key):
        if a[0] in ('v', 'h'):
            return key[:i], key[i:]
    return key, ()


def _stratum_key(chart, legs):
    fids = tuple(sorted(a[1] for a in legs if a[0] == 'v'))
    V = [0] * chart.dim
    for a in legs:
        if a[0] == 'v':
            for mu in range(chart.dim):
                V[mu] += a[2][mu]
        else:
            V[a[1]] -= 1
    return (fids, tuple(V))


def _distributions(total, slots, dim):
    """All ways to write the multi-index `total` as an ordered sum of
    `slots` multi-indices."""
    if slots == 1:
        yield (total,)
        return
    def parts(t):
        if len(t) == 1:
            for k in range(t[0] + 1):
                yield (k,)
            return
        for k in range(t[0] + 1):
            for rest in parts(t[1:]):
                yield (k,) + rest
    for first in parts(total):
        rem = tuple(a - b for a, b in zip(total, first))
        for rest in _distributions(rem, slots - 1, dim):
            yield (first,) + rest


class _Stratum:
    def __init__(self, suite, fids, V):
        self.suite = suite
        self.fids = fids
        chart = suite.chart
        n = chart.dim
        self.bases = {}
        self.index = {}
        dirs = range(n)
        for b in range(n + 1):
            words = set()
            for H in combinations(dirs, b):
                chi = [0] * n
                for mu in H:
                    chi[mu] = 1
                T = tuple(v + c for v, c in zip(V, chi))
                if any(t < 0 for t in T):
                    continue
                hatoms = tuple(('h', mu) for mu in H)
                if not fids:
                    if all(t == 0 for t in T):
                        words.add(hatoms)
                    continue
                for dist in _distributions(T, len(fids), n):
                    atoms = tuple(('v', fid, I) for fid, I in zip(fids, dist))
                    res = norm_word(chart, atoms + hatoms, 1)
                    if res is not None:
                        words.add(res[0])
            basis = sorted(words)
            self.bases[b] = basis
            self.index[b] = {w: i for i, w in enumerate(basis)}
        # matrices of d1: bases[b] -> bases[b+1]; d0 vanishes on leg
        # words, so d1 is d_h there
        self.e = {}
        for b in range(n):
            src, tgt = self.bases[b], self.bases[b + 1]
            idx = self.index[b + 1]
            cols = []
            for w in src:
                col = {}
                image = d_h(LocalForm(chart, {w: 1}))
                for k, c in image.terms.items():
                    col[idx[k]] = c
                cols.append(col)
            self.e[b] = (cols, len(tgt))
        self.ranks = {}
        self.blocks = {}
        self.images = {}

    def rank(self, b):
        """Rank of the d1 matrix e from degree b to b+1."""
        if b not in self.ranks:
            cols, ntgt = self.e[b]
            self.ranks[b] = len(rref([[col.get(i, 0) for i in range(ntgt)]
                                      for col in cols])[1])
        return self.ranks[b]

    def delta_pinv(self, b):
        """The block inverses of the Hodge Laplacian on the source degree
        of sigma1 from degree b, Delta = e_{b-2} e_{b-2}^T + e_{b-1}^T e_{b-1}
        on C_{b-1}.  On im e_{b-1}^T Delta is e_{b-1}^T e_{b-1}, so when
        Delta is invertible sigma1 = Delta^{-1} e_{b-1}^T = e_{b-1}^+.
        Delta is invertible exactly when d1 is acyclic at degree b-1, as it
        is below top degree on strata with legs.  Acyclicity at degree
        b < n is checked on the ranks of e, and a singular block fails
        the same way.

        Returns (rows, block_of): the rows of e_{b-1} as {column: entry},
        and for each word of C_{b-1} its connected block of Delta as
        (word indices, {word index: its row of the block's inverse})."""
        if b not in self.blocks:
            if (self.fids and b < self.suite.chart.dim
                    and self.rank(b - 1) + self.rank(b) != len(self.bases[b])):
                raise InvariantViolation(
                    "unexpected d1-cohomology below top horizontal degree")
            dim = len(self.bases[b - 1])
            cols, ntgt = self.e[b - 1]
            rows = [{} for _ in range(ntgt)]
            for j, col in enumerate(cols):
                for i, c in col.items():
                    rows[i][j] = c
            # Delta is the sum of the outer products of the columns of
            # e_{b-2} and of the rows of e_{b-1}
            D = [{} for _ in range(dim)]
            for vec in (self.e[b - 2][0] if b >= 2 else []) + rows:
                for j, c in vec.items():
                    Dj = D[j]
                    for j2, c2 in vec.items():
                        Dj[j2] = Dj.get(j2, 0) + c * c2
            block_of = [None] * dim
            for j in range(dim):
                if block_of[j] is not None:
                    continue
                members, stack = {j}, [j]
                while stack:
                    for j2, c in D[stack.pop()].items():
                        if c and j2 not in members:
                            members.add(j2)
                            stack.append(j2)
                members = sorted(members)
                try:
                    inv = inverse([[D[j1].get(j2, 0) for j2 in members]
                                   for j1 in members])
                except VarcalcError:
                    raise InvariantViolation(
                        "unexpected d1-cohomology below top horizontal degree"
                    ) from None
                block = (members, dict(zip(members, inv)))
                for j1 in members:
                    block_of[j1] = block
            self.blocks[b] = (rows, block_of)
        return self.blocks[b]

    def sigma1_image(self, word):
        """sigma1 of a canonical leg word of this stratum, memoized as a
        list of (target word, coefficient): Delta^{-1} applied to the
        word's row of e, which reads only the blocks that row touches."""
        image = self.images.get(word)
        if image is None:
            b = sum(1 for a in word if a[0] == 'h')
            i = self.index[b].get(word)
            if i is None:
                raise InvariantViolation("leg word missing from its stratum basis")
            image = []
            if b and self.fids:
                rows, block_of = self.delta_pinv(b)
                z = {}
                for j, c in rows[i].items():
                    members, inv = block_of[j]
                    for j2, x in zip(members, inv[j]):
                        if x:
                            z[j2] = z.get(j2, 0) + c * x
                image = [(self.bases[b - 1][j], _q(s))
                         for j, s in sorted(z.items()) if s]
            self.images[word] = image
        return image


# ---------------------------------------------------------------------------
# the homotopy suite
# ---------------------------------------------------------------------------

class HomotopySuite:
    """Bundled operators (d, dv, I, E, h>=, hv, h0, P, P0, d_C, h_C) on a chart."""

    def __init__(self, chart):
        self.chart = chart
        self._strata = {}

    # -- d = d1 + d0 split -------------------------------------------------
    def d0(self, form):
        """dx^mu ^ D_mu on the coefficient atoms only (d_h - d1): the odd
        derivation of d_h with the vertical legs left alone."""
        return horizontal(form, legs=False)

    # -- sigma1 and the perturbed homotopy ----------------------------------
    def _stratum(self, skey):
        if skey not in self._strata:
            self._strata[skey] = _Stratum(self, *skey)
        return self._strata[skey]

    def sigma1(self, form):
        chart = self.chart
        out = LocalForm(chart)
        for key, coeff in form.terms.items():
            coeffs, legs = _leg_split(key)
            if not legs:
                continue
            # the legs of a normalized word are a normalized leg word, and
            # coefficients followed by a leg word stay normalized
            image = self._stratum(_stratum_key(chart, legs)).sigma1_image(legs)
            if not image:
                continue
            if sum(atom_parity(chart, a) for a in coeffs) & 1:
                coeff = -coeff
            for target, c in image:
                _add(out.terms, coeffs + target, coeff * c)
        return out

    def h_inf(self, form):
        acc = LocalForm(self.chart)
        cur = self.sigma1(form)
        guard = 0
        while not cur.is_zero():
            acc = acc + cur
            cur = -self.sigma1(self.d0(cur))
            guard += 1
            if guard > 10 * (self.chart.jet_cutoff + self.chart.dim + 2):
                raise InvariantViolation("perturbation series failed to terminate")
        return acc

    # -- public operators ----------------------------------------------------
    def h_horizontal(self, form):
        """Anderson-style horizontal homotopy h>= on vertical degree >= 1."""
        n = self.chart.dim
        if any(LocalForm.key_vdeg(k) < 1 for k in form.terms):
            raise GradingError("horizontal homotopy needs vertical degree >= 1")
        top = form.components(lambda p, q: q == n)
        rest = form - top
        return self.h_inf(rest) + self.h_inf(top - interior_euler(top))

    def h_vertical(self, form):
        """Radial-scaling vertical homotopy; lowers vertical degree by one."""
        for key in form.terms:
            if any(a[0] == 'F' for a in key) and any(a[0] == 'v' for a in key):
                raise NonScalableTerm(
                    "vertical homotopy applied to a form already carrying "
                    "a fiber-integral factor")
        return resolve_fiber_integrals(
            _radial(form, 'v', DYNAMIC, lambda a: ('j', a[1], a[2])))

    def h_zero(self, form):
        """h0 = -hv h>= dv on vertical degree 0."""
        p, _q = form.grading()
        if p != 0:
            raise GradingError("h0 acts on vertical degree 0")
        return -self.h_vertical(self.h_horizontal(d_v(form)))

    def euler_projector(self, form):
        """P = hv i E on (0, top) forms."""
        if form.terms and form.grading() != (0, self.chart.dim):
            raise GradingError("Euler projector acts on (0, top) forms")
        return self.h_vertical(exterior_euler(form))

    def euler_projector0(self, form):
        return self.euler_projector(form) + zero_star(form)

    # -- horizontal cone -----------------------------------------------------
    def _check_constant(self, a):
        for key in a.terms:
            for atom in key:
                if atom[0] in ('v',):
                    raise NotConstant("cone element must be field-independent")
                if atom[0] == 'j' and self.chart.kind(atom[1]) == DYNAMIC:
                    raise NotConstant("cone element must be field-independent")
                if atom[0] in ('f', 'F'):
                    raise NotConstant("cone element must be field-independent")

    def cone_d(self, pair):
        a, b = pair
        self._check_constant(a)
        return (-d_h(a), d_h(b) + a)

    def cone_h(self, pair):
        a, b = pair
        self._check_constant(a)
        return (zero_star(b), self.h_zero(b))

    # -- de Rham homotopy on the base (field-independent forms) --------------
    def poincare_x(self, form):
        """Radial homotopy in the chart coordinates; acts on
        field-independent forms with polynomial coordinate coefficients."""
        chart = self.chart
        self._check_constant(form)
        xfid = {c.coord_dir: c.fid for c in chart.components if c.kind == COORD}
        z = midx_zero(chart.dim)
        return _radial(form, 'h', COORD, lambda a: ('j', xfid[a[1]], z))


def _radial(form, leg, kind, jet):
    """The radial contraction trading each `leg` atom for the jet
    `jet(atom)`: the odd derivation with that image, whose Koszul sign is
    apply_derivation's, then each output word divided by its weight w, the
    number of its `kind` jets and `leg` atoms (the input's scaling degree
    plus one).  A word holding function atoms with dynamical arguments
    keeps its coefficient and gathers them into the fiber integral
    ('F', w - 1, atoms) instead (notes/decisions.md §8)."""
    chart = form.chart

    def image(a):
        return LocalForm(chart, {(jet(a),): 1}) if a[0] == leg else None

    out = LocalForm(chart)
    for key, c in apply_derivation(form, 1, image).terms.items():
        w = sum(1 for a in key if a[0] == leg
                or (a[0] == 'j' and chart.kind(a[1]) == kind))
        fs = tuple(a for a in key if a[0] == 'f' and any(
            x[0] == 'j' and chart.kind(x[1]) == DYNAMIC for x in a[3]))
        if fs:
            out._accum(tuple(a for a in key if a not in fs) + (('F', w - 1, fs),), c)
        else:
            out.terms[key] = _q(Fraction(c, w))
    return out


def resolve_fiber_integrals(form: LocalForm):
    """Recognize sum_i arg_i * F^{(d+e_i)}(l*args) patterns as exact
    lambda-derivatives and resolve them to F(args) - F(0...).  Resolved
    words carry no fiber integral, so one pass finds every group."""
    chart = form.chart
    groups = {}
    for key, coeff in form.terms.items():
        fpos = [i for i, a in enumerate(key) if a[0] == 'F']
        if len(fpos) != 1:
            continue
        node = key[fpos[0]]
        k, inner = node[1], node[2]
        if k != 0 or len(inner) != 1:
            continue
        app = inner[0]
        sym, dords, args = app[1], app[2], app[3]
        rest = key[:fpos[0]] + key[fpos[0] + 1:]
        for slot, arg in enumerate(args):
            if dords[slot] < 1 or arg[0] != 'j':
                continue
            arg_atom = ('j', arg[1], arg[2])
            if arg_atom not in rest:
                continue
            w = list(rest)
            w.remove(arg_atom)
            base = tuple(d - (1 if s == slot else 0) for s, d in enumerate(dords))
            gkey = (tuple(w), sym, base, args, coeff)
            groups.setdefault(gkey, {})[slot] = key
    out = LocalForm(chart, dict(form.terms))
    for (w, sym, base, args, coeff), slots in groups.items():
        needed = [s for s, a in enumerate(args) if a[0] == 'j']
        if not needed or any(s not in slots for s in needed):
            continue
        if any(key not in out.terms for key in slots.values()):
            continue
        for key in set(slots.values()):
            del out.terms[key]
        out._accum(w + (('f', sym, base, args),), coeff)
        zargs = tuple(('0',) if a[0] == 'j' else a for a in args)
        out._accum(w + (('f', sym, base, zargs),), -coeff)
    return out


def get_suite(chart) -> HomotopySuite:
    suite = getattr(chart, "_homotopy_suite", None)
    if suite is None:
        suite = HomotopySuite(chart)
        chart._homotopy_suite = suite
    return suite


def bruteforce_dexactness(target, extra_rounds=1):
    """Independent integration-by-parts oracle for small instances.

    Decides by bounded linear algebra whether ``target`` lies in the image
    of the horizontal differential, using an ansatz basis generated from
    the target's own terms (one leg removed, orders lowered), without any
    homotopy operator.  Returns True when a primitive exists within the
    ansatz; meant to cross-check h>= on small forms.
    """
    chart = target.chart
    if target.is_zero():
        return True
    pool = set()

    def lowerings(key):
        for i, a in enumerate(key):
            if a[0] == 'h':
                rest = key[:i] + key[i + 1:]
                mu = a[1]
                yield rest
                for jj, b in enumerate(rest):
                    if b[0] in ('j', 'v') and b[2][mu] >= 1:
                        low = tuple(x - (1 if d == mu else 0)
                                    for d, x in enumerate(b[2]))
                        yield rest[:jj] + ((b[0], b[1], low),) + rest[jj + 1:]

    frontier = set(target.terms)
    for _ in range(extra_rounds + 1):
        new = set()
        for key in frontier:
            for cand in lowerings(key):
                res = norm_word(chart, cand, 1)
                if res is not None:
                    new.add(res[0])
        pool |= new
        frontier = new
    if not pool:
        return False
    cols = []
    index = {}
    for w in sorted(pool):
        img = d_h(LocalForm(chart, {w: 1}))
        col = {}
        for k, c in img.terms.items():
            idx = index.setdefault(k, len(index))
            col[idx] = c
        cols.append(col)
    tvec = {}
    for k, c in target.terms.items():
        if k not in index:
            return False
        tvec[index[k]] = c
    # A x = b is consistent iff the augmented column carries no pivot
    m = [[Fraction(0)] * len(cols) + [tvec.get(i, Fraction(0))]
         for i in range(len(index))]
    for j, col in enumerate(cols):
        for i, c in col.items():
            m[i][j] = c
    _R, pivots, _ = rref(m)
    return len(cols) not in pivots
