"""Contracting homotopies for the bicomplex of local forms.

The horizontal differential d = dx^mu ^ D_mu is one odd derivation
(algebra.horizontal).  It splits as d = d1 + d0, where d1 shifts the
multi-indices of the vertical legs (and is linear over the coefficient
ring) and d0, the same derivation with the legs left alone,
differentiates only the coefficient atoms.
On each finite stratum of leg data, d1 is contracted exactly by sigma1,
the Moore-Penrose inverse e^+ of the matrix e = e_{b-1} of d1 from degree
b-1 to b, at every horizontal degree b >= 1.  Below top horizontal degree
on strata with legs d1 has no cohomology (a Koszul complex,
notes/decisions.md §22).  So the Hodge Laplacian of the source degree,
Delta = e_{b-2} e_{b-2}^T + e^T e, is invertible and agrees with e^T e on
im e^T, and sigma1 = Delta^{-1} e^T = e^+; Delta is inverted one
connected block at a time (§14), and a singular block is reported.  On
a stratum with one vertical leg Delta is a scalar, and the image is
written in closed form with no stratum built (§31).  The
image of each canonical leg word is computed once per chart, and
kept as integer numerators over one denominator.  The homological
perturbation series in d0 (which terminates, since sigma1 lowers total leg
order), run in integers over one running denominator (§16), then produces
a homotopy h for the full horizontal differential satisfying

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
from itertools import combinations, product
from math import lcm

from .chart import (
    COORD, DYNAMIC, GradingError, InvariantViolation, NonScalableTerm,
    NotConstant, SingularMatrix, inverse, rref,
)
# imported for bench/tracer.py, which traces it under this module
from .chart import pseudo_inverse_psd  # noqa: F401
from .algebra import (
    LocalForm, _add, _data, _q, _splice, _word_data, apply_derivation,
    atom_parity, d_h, d_v, horizontal, midx_lower, midx_zero, norm_word,
    zero_star,
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


def _distributions(total, slots):
    """All ways to write the multi-index `total` as an ordered sum of
    `slots` multi-indices."""
    if slots == 1:
        yield (total,)
        return
    for first in product(*(range(t + 1) for t in total)):
        rem = tuple(a - b for a, b in zip(total, first))
        for rest in _distributions(rem, slots - 1):
            yield (first,) + rest


def d_h_columns(chart, words, index):
    """The matrix of d_h on a list of words: one {row: entry} column per
    word, the row of an image word being its position in ``index``; an
    image word that ``index`` lacks is appended to it."""
    cols = []
    for w in words:
        col = {}
        for k, c in d_h(LocalForm(chart, {w: 1})).terms.items():
            col[index.setdefault(k, len(index))] = c
        cols.append(col)
    return cols


def _one_leg_image(chart, legs):
    """sigma1 of a leg word v_I ∧ dx^h_0 ∧ ... ∧ dx^h_{b-1} with one vertical
    leg, in closed form, as _Stratum.sigma1_image returns it: with F the
    free directions mu of its stratum (I_mu - [mu in H] >= 0), the Hodge
    Laplacian is |F| Id (notes/decisions.md §31), so sigma1 = e^T / |F|
    and the image is (1/|F|) sum over k with I_{h_k} >= 1 of
    (-1)^(p_v + k) v_{I - e_{h_k}} ∧ dx^{H - h_k}, p_v the leg's parity."""
    v, hatoms = legs[0], legs[1:]
    fid, I = v[1], v[2]
    H = [a[1] for a in hatoms]
    odd = _data(chart, v)[1]
    terms = []
    for k, mu in enumerate(H):
        if I[mu]:
            low = _data(chart, ('v', fid, midx_lower(I, mu)))[3]
            terms.append(((low,) + hatoms[:k] + hatoms[k + 1:],
                          -1 if (odd + k) & 1 else 1))
    if not terms:
        return (1, [])
    terms.sort()
    return (sum(1 for mu, i in enumerate(I) if i >= (mu in H)), terms)


class _Stratum:
    """The leg words of one (fids, V) at each horizontal degree b: bases[b]
    (sorted) and index[b] (word -> position), filled by basis; e[b], the
    matrix of d1 from degree b to b+1, filled by d1; and blocks[b], the
    Laplacian blocks of sigma1 from degree b, filled by delta_pinv.  It is
    plain data and keeps no chart: each method takes the chart from its
    caller and builds a degree when it is first read; a sigma1 image at
    degree b reads degrees b-2 to b (notes/decisions.md §28, §36).  The
    images themselves are kept by the chart (§29, §34)."""

    def __init__(self, fids, V):
        self.fids = fids
        self.V = V
        self.bases = {}
        self.index = {}
        self.e = {}
        self.blocks = {}

    def basis(self, chart, b):
        """The sorted leg words of degree b, for a stratum with fids.  Atoms
        with equal fids commute up to sign, so of their multi-index
        distributions only the non-decreasing one is kept, and its legs
        followed by the dx atoms are already in canonical order.  Each
        leg's atom data (_data) raises JetCutoffExceeded above the cutoff,
        a word where an odd leg repeats vanishes, and the words hold the
        chart's cached atoms."""
        if b in self.bases:
            return self.bases[b]
        fids = self.fids
        tied = [i for i in range(1, len(fids)) if fids[i] == fids[i - 1]]
        words = set()
        for H in combinations(range(chart.dim), b):
            T = tuple(v + (mu in H) for mu, v in enumerate(self.V))
            if any(t < 0 for t in T):
                continue
            hatoms = tuple(_data(chart, ('h', mu))[3] for mu in H)
            for dist in _distributions(T, len(fids)):
                if any(dist[i - 1] > dist[i] for i in tied):
                    continue
                data = [_data(chart, ('v', fid, I)) for fid, I in zip(fids, dist)]
                if any(data[i][1] and dist[i - 1] == dist[i] for i in tied):
                    continue
                words.add(tuple(d[3] for d in data) + hatoms)
        basis = self.bases[b] = sorted(words)
        self.index[b] = {w: i for i, w in enumerate(basis)}
        return basis

    def d1(self, chart, b):
        """(columns, number of rows) of the matrix of d1 from degree b to
        b+1; d0 vanishes on leg words, so d1 is d_h there."""
        if b not in self.e:
            ntgt = len(self.basis(chart, b + 1))
            self.e[b] = (d_h_columns(chart, self.basis(chart, b), self.index[b + 1]), ntgt)
        return self.e[b]

    def delta_pinv(self, chart, b):
        """The block inverses of the Hodge Laplacian on the source degree
        of sigma1 from degree b, Delta = e_{b-2} e_{b-2}^T + e_{b-1}^T e_{b-1}
        on C_{b-1}.  On im e_{b-1}^T Delta is e_{b-1}^T e_{b-1}, so when
        Delta is invertible sigma1 = Delta^{-1} e_{b-1}^T = e_{b-1}^+.
        Delta is invertible exactly when d1 is acyclic at degree b-1, as it
        is below top degree on strata with legs (notes/decisions.md §22);
        a singular block raises InvariantViolation.

        Returns (rows, block_of), kept in blocks[b]: the rows of e_{b-1} as
        {column: entry}, and for each word of C_{b-1} its connected block
        of Delta as (word indices, {word index: its row of the block's
        inverse})."""
        if b in self.blocks:
            return self.blocks[b]
        cols, ntgt = self.d1(chart, b - 1)
        dim = len(self.bases[b - 1])
        rows = [{} for _ in range(ntgt)]
        for j, col in enumerate(cols):
            for i, c in col.items():
                rows[i][j] = c
        # Delta is the sum of the outer products of the columns of
        # e_{b-2} and of the rows of e_{b-1}
        D = [{} for _ in range(dim)]
        for vec in (self.d1(chart, b - 2)[0] if b >= 2 else []) + rows:
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
            except SingularMatrix:
                raise InvariantViolation(
                    "unexpected d1-cohomology below top horizontal degree"
                ) from None
            block = (members, dict(zip(members, inv)))
            for j1 in members:
                block_of[j1] = block
        self.blocks[b] = (rows, block_of)
        return rows, block_of

    def sigma1_image(self, chart, word):
        """sigma1 of a canonical leg word of this stratum as (den, [(target
        word, int numerator)]), den the lcm of the image's denominators:
        Delta^{-1} applied to the word's row of e, which reads only the
        blocks that row touches."""
        b = sum(1 for a in word if a[0] == 'h')
        if not (b and self.fids):
            return (1, [])
        rows, block_of = self.delta_pinv(chart, b)
        i = self.index[b][word]     # every leg word is in its basis (§24)
        z = {}
        for j, c in rows[i].items():
            members, inv = block_of[j]
            for j2, x in zip(members, inv[j]):
                if x:
                    z[j2] = z.get(j2, 0) + c * x
        terms = [(j, s) for j, s in sorted(z.items()) if s]
        den = lcm(*(s.denominator for _j, s in terms))
        return (den, [(self.bases[b - 1][j], s.numerator * (den // s.denominator))
                      for j, s in terms])


# ---------------------------------------------------------------------------
# the homotopy suite
# ---------------------------------------------------------------------------

class HomotopySuite:
    """Bundled operators (d, dv, I, E, h>=, hv, h0, P, P0) on a chart."""

    def __init__(self, chart):
        self.chart = chart
        self._strata = chart.strata
        self._images = chart.sigma1_images     # the one sigma1 memo

    # -- d = d1 + d0 split -------------------------------------------------
    def d0(self, groups, memo=None):
        """dx^mu ^ D_mu on the coefficient atoms only (d_h - d1), on
        leg-grouped data {leg word: {coefficient word: int}}: the odd
        derivation of d_h with the vertical legs left alone.  It maps c ^ l
        to d0(c) ^ l, and each word of d0(c) is t ^ dx^mu, so d0 of each
        distinct coefficient word is taken once per ``memo`` (one h_inf
        call, notes/decisions.md §28), and dx^mu ^ l is normalized once
        per (leg word, mu) (§25)."""
        if memo is None:
            memo = {}
        chart = self.chart
        hdata = [_data(chart, ('h', mu)) for mu in range(chart.dim)]
        out = {}
        uses = {}
        for legs, coeffs in groups.items():
            # per mu, the group of dx^mu ^ legs in out and the parity of its
            # Koszul sign, or None when dx^mu is in legs
            keys, odd = _word_data(chart, legs)
            row = []
            for d in hdata:
                s = _splice(legs, keys, odd, 0, False, (d,))
                row.append(None if s is None else (out.setdefault(s[0], {}), s[1]))
            for cw, c in coeffs.items():
                uses.setdefault(cw, []).append((row, c))
        for cw, where in uses.items():
            image = memo.get(cw)
            if image is None:
                image = memo[cw] = horizontal(LocalForm(chart, {cw: 1}), legs=False).terms
            for w, n in image.items():
                # w is t ^ dx^mu: dx^mu sorts after every coefficient atom
                mu, t = w[-1][1], w[:-1]
                for row, c in where:
                    dest = row[mu]
                    if dest is not None:
                        _add(dest[0], t, -c * n if dest[1] else c * n)
        return {legs: terms for legs, terms in out.items() if terms}

    # -- sigma1 and the perturbed homotopy ----------------------------------
    def sigma1(self, groups):
        """(L, L sigma1(groups)) on leg-grouped data, L the lcm of the
        denominators of the images read, so that integer coefficients stay
        integers.  Each leg word's image is computed once per chart and kept
        in _images: in closed form when the word has one vertical leg
        (_one_leg_image), else by its stratum.  A coefficient word c in
        front of it takes the sign (-1)^|c| (notes/decisions.md §25, §28,
        §29, §31)."""
        chart = self.chart
        images = self._images
        reads = []
        for legs, coeffs in groups.items():
            read = images.get(legs)
            if read is None:
                if legs[0][0] == 'v' and (len(legs) == 1 or legs[1][0] == 'h'):
                    read = _one_leg_image(chart, legs)
                else:
                    skey = _stratum_key(chart, legs)
                    st = self._strata.get(skey)
                    if st is None:
                        st = self._strata[skey] = _Stratum(*skey)
                    read = st.sigma1_image(chart, legs)
                images[legs] = read
            if read[1]:
                reads.append((read[0], read[1], coeffs))
        L = lcm(*(r[0] for r in reads))
        parity = {}
        out = {}
        for den, image, coeffs in reads:
            scale = L // den
            signed = []
            for cw, c in coeffs.items():
                odd = parity.get(cw)
                if odd is None:
                    odd = parity[cw] = sum(atom_parity(chart, a) for a in cw) & 1
                signed.append((cw, -c * scale if odd else c * scale))
            # the targets are leg words of the stratum, so every
            # coefficient word followed by one stays normalized
            for target, n in image:
                tgt = out.get(target)
                if tgt is None:
                    tgt = out[target] = {}
                for cw, c in signed:
                    _add(tgt, cw, c * n)
        return L, {legs: terms for legs, terms in out.items() if terms}

    def h_inf(self, form):
        """The perturbation series sum_r (-sigma1 d0)^r sigma1 of a form, run
        on leg-grouped data {leg word: {coefficient word: int}} with integer
        coefficients over one running denominator: the input is grouped
        once and scaled by the lcm of its denominators (its words without
        legs are dropped, as sigma1 kills them), each sigma1 round
        multiplies the denominator by the lcm it reports, and d0 keeps
        integers integral and takes each d0(c) once per call.  The rounds
        are added in order with the sign (-1)^r, each word is rebuilt
        once, and each output coefficient is divided once at the end
        (notes/decisions.md §16, §25, §28, §35)."""
        den = lcm(*(c.denominator for c in form.terms.values()))
        groups = {}
        for key, c in form.terms.items():
            # the legs of a normalized word are a normalized leg word
            coeffs, legs = _leg_split(key)
            if legs:
                groups.setdefault(legs, {})[coeffs] = \
                    c if den == 1 else c.numerator * (den // c.denominator)
        rounds = []
        L, cur = self.sigma1(groups)
        den *= L
        memo = {}
        guard = 0
        while cur:
            rounds.append((den, cur))
            L, cur = self.sigma1(self.d0(cur, memo))
            den *= L
            guard += 1
            if guard > 10 * (self.chart.jet_cutoff + self.chart.dim + 2):
                raise InvariantViolation("perturbation series failed to terminate")
        acc = {}
        if rounds:
            den = rounds[-1][0]
            for r, (d, cur) in enumerate(rounds):
                scale = den // d if r % 2 == 0 else -(den // d)
                for legs, coeffs in cur.items():
                    for cw, n in coeffs.items():
                        _add(acc, cw + legs, n * scale)
            if den != 1:
                acc = {k: _q(Fraction(n, den)) for k, n in acc.items()}
        return LocalForm(self.chart, acc)

    # -- public operators ----------------------------------------------------
    def h_horizontal(self, form):
        """Anderson-style horizontal homotopy h>= on vertical degree >= 1."""
        n = self.chart.dim
        if any(LocalForm.key_vdeg(k) < 1 for k in form.terms):
            raise GradingError("horizontal homotopy needs vertical degree >= 1")
        top = form.components(lambda w: LocalForm.key_hdeg(w) == n)
        return self.h_inf(form - interior_euler(top))

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

    # -- de Rham homotopy on the base (field-independent forms) --------------
    def _check_constant(self, a):
        if any(atom[0] in ('v', 'f', 'F') or
               atom[0] == 'j' and self.chart.kind(atom[1]) == DYNAMIC
               for key in a.terms for atom in key):
            raise NotConstant("cone element must be field-independent")

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
    return HomotopySuite(chart)


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
    index = {}
    cols = d_h_columns(chart, sorted(pool), index)
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
