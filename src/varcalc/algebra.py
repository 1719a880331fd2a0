"""Tri-graded local forms with exact rational coefficients.

A term is a word of atoms in a fixed canonical order:

    ('j',  fid, midx)        scalar jet factor  u^I_J   (repeats = powers)
    ('ji', fid)              inverse of an order-0 named constant
    ('f',  sym, dords, args) function application  F^{(dords)}(args)
    ('F',  k, inner)         fiber integral  int_0^1 l^k prod F(l*args) dl
    ('v',  fid, midx)        vertical leg  (variation of a jet)
    ('h',  mu)               horizontal leg dx^mu

Atoms carry a parity (total form degree + ghost degree mod 2); words are
sorted into canonical order with Koszul signs, powers of odd atoms vanish,
and a LocalForm is a dict {word: int | Fraction}.  A coefficient is an int
when it is integral and a Fraction only when it is not (_q), so integral
data multiplies as plain ints; a division goes through Fraction.  Every
operator below is a graded derivation or contraction driven by a per-atom
image map, so sign handling lives in exactly one place.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate

from .chart import (
    Chart, COORD, CONST, CPARAM, DYNAMIC,
    GradingError, GhostDegreeMismatch, JetCutoffExceeded, UnassignedSymbol,
    VarcalcError,
)

_RANK = {'j': 0, 'ji': 0, 'f': 1, 'F': 2, 'v': 3, 'h': 4}


def midx_zero(n):
    return (0,) * n


def midx_shift(a, mu):
    return tuple(x + (1 if i == mu else 0) for i, x in enumerate(a))


def midx_lower(a, mu):
    """a - e_mu."""
    return a[:mu] + (a[mu] - 1,) + a[mu + 1:]


def midx_last(a):
    """The last direction mu with a[mu] > 0; None for the zero multi-index."""
    for mu in range(len(a) - 1, -1, -1):
        if a[mu]:
            return mu
    return None


def midx_order(a):
    return sum(a)


def midx_geq(a, b):
    return all(x >= y for x, y in zip(a, b))


def midx_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def iter_midx(n, order):
    """All multi-indices of the given total order in n directions."""
    if n == 1:
        yield (order,)
        return
    for first in range(order + 1):
        for rest in iter_midx(n - 1, order - first):
            yield (first,) + rest


def atom_parity(chart, atom):
    t = atom[0]
    if t == 'j':
        return chart.ghost(atom[1]) & 1
    if t == 'v':
        return (1 + chart.ghost(atom[1])) & 1
    if t == 'h':
        return 1
    return 0


def atom_ghost(chart, atom):
    t = atom[0]
    if t in ('j', 'v'):
        return chart.ghost(atom[1])
    return 0


def _sort_key(atom):
    return (_RANK[atom[0]],) + atom[1:]


# what norm_word does with an atom
_KEEP, _CONST, _ONE, _ZERO = range(4)


def _atom_data(chart, atom):
    """(sort key, parity, action, atom) of an atom on a chart; raises
    JetCutoffExceeded for a jet or leg above the chart's cutoff."""
    t = atom[0]
    action = _KEEP
    if t in ('j', 'ji'):
        kind = chart.kind(atom[1])
        order = midx_order(atom[2]) if t == 'j' else 0
        if order and kind in (COORD, CONST, CPARAM):
            # D_mu x^nu = delta; every other derivative of a constant is 0
            if kind == COORD and order == 1 and \
                    atom[2][chart.component(atom[1]).coord_dir] == 1:
                action = _ONE
            else:
                action = _ZERO
        elif order > chart.jet_cutoff:
            raise JetCutoffExceeded(
                f"jet order {order} exceeds cutoff {chart.jet_cutoff}")
        elif kind == CONST:
            action = _CONST
    elif t == 'v' and midx_order(atom[2]) > chart.jet_cutoff:
        raise JetCutoffExceeded(
            f"jet order {midx_order(atom[2])} exceeds cutoff {chart.jet_cutoff}")
    return _sort_key(atom), atom_parity(chart, atom), action, atom


def norm_word(chart, atoms, coeff):
    """Canonicalize a word; returns (key, coeff) or None if zero.

    Atoms are sorted into canonical order with the Koszul sign of every
    odd-odd transposition; factors of 1 are dropped, a zero factor or an
    odd square kills the word, and named constants cancel against their
    inverses.  Per-atom data comes from the chart's ``atom_data`` cache.
    """
    if not coeff:
        return None
    cache = chart.atom_data
    work = []
    has_const = False
    for a in atoms:
        d = cache.get(a)
        if d is None:
            d = cache[a] = _atom_data(chart, a)
        action = d[2]
        if action == _ZERO:
            return None
        if action != _ONE:
            work.append(d)
            has_const = has_const or action == _CONST
    # insertion sort on the cached keys, tracking odd-odd transpositions
    sign = 1
    out = []
    for item in work:
        ka, pa = item[0], item[1]
        i = len(out)
        while i > 0 and out[i - 1][0] > ka:
            if pa and out[i - 1][1]:
                sign = -sign
            i -= 1
        out.insert(i, item)
    if has_const:
        out = _cancel_constants(chart, out)
    for i in range(1, len(out)):
        if out[i][1] and out[i][0] == out[i - 1][0]:
            return None     # odd square
    coeff = _q(coeff)
    return tuple(item[3] for item in out), (coeff if sign > 0 else -coeff)


def _cancel_constants(chart, out):
    """Cancel named constants against their inverses in a sorted word of
    atom data; the net powers go back in canonical place."""
    cleaned = []
    counts = {}
    for item in out:
        if item[2] == _CONST:
            a = item[3]
            counts[a[1]] = counts.get(a[1], 0) + (1 if a[0] == 'j' else -1)
        else:
            cleaned.append(item)
    zero = midx_zero(chart.dim)
    const_items = []
    for fid in sorted(counts):
        c = counts[fid]
        a = ('j', fid, zero) if c > 0 else ('ji', fid)
        const_items += [chart.atom_data[a]] * abs(c)
    # reinsert constants (parity 0: no signs); keep global order
    merged = []
    ci = 0
    for item in cleaned:
        while ci < len(const_items) and const_items[ci][0] <= item[0]:
            merged.append(const_items[ci])
            ci += 1
        merged.append(item)
    merged.extend(const_items[ci:])
    return merged


def _q(c):
    """The canonical exact coefficient: an int when c is integral, else a
    Fraction (never a float, never a Fraction with denominator 1)."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _add(terms, key, c):
    """terms[key] += c for a normalized key, dropping a zero sum."""
    old = terms.get(key)
    if old is not None:
        c = old + c
        if not c:
            del terms[key]
            return
    terms[key] = c if type(c) is int else _q(c)


def _data(chart, atom):
    d = chart.atom_data.get(atom)
    if d is None:
        d = chart.atom_data[atom] = _atom_data(chart, atom)
    return d


def _word_data(chart, key):
    """The sort keys of a normalized word and its odd-prefix counts:
    odd[m] is the number of odd atoms in key[:m]."""
    cache = chart.atom_data
    try:
        data = [cache[a] for a in key]
    except KeyError:
        data = [_data(chart, a) for a in key]
    return [d[0] for d in data], list(accumulate([d[1] for d in data], initial=0))


def _splice(key, keys, odd, i, drop, ins):
    """Merge a normalized run of atoms into a normalized word.

    ``ins`` is the atom data of the new atoms in canonical order; they go
    in at index i of ``key``, whose own atom key[i] (the first of its run)
    is dropped when ``drop`` is true.  Each new atom lands at its bisect
    position p among the other atoms, and an odd one crosses the odd atoms
    between i and p, read off the odd-prefix counts.  Returns (word, parity
    of the Koszul sign) or None when an odd atom meets its equal at the
    seam.  Named constants are not cancelled here: callers send words
    where one enters through norm_word.
    """
    n = len(key)
    par_i = odd[i + 1] - odd[i] if drop else 0
    sign = 0
    word = ()
    prev = 0
    for kx, px, _action, x in ins:
        p = bisect_left(keys, kx)
        if px:
            if p < n and keys[p] == kx and not (drop and p == i):
                return None     # odd square
            sign ^= (odd[p] - (par_i if p > i else 0) - odd[i]) & 1
        if drop and prev <= i < p:
            word += key[prev:i] + key[i + 1:p]
        else:
            word += key[prev:p]
        word += (x,)
        prev = p
    if drop and prev <= i:
        word += key[prev:i] + key[i + 1:]
    else:
        word += key[prev:]
    return word, sign


def _image_data(chart, im):
    """(word, coeff, -coeff, atom data) per term of an image form, as a
    tuple; the atom data is None when the word holds a named constant or
    its inverse, which must go through norm_word to cancel."""
    if im is None or not im.terms:
        return None
    out = []
    for ikey, ic in im.terms.items():
        ins = tuple(_data(chart, a) for a in ikey)
        if any(d[2] == _CONST for d in ins):
            ins = None
        out.append((ikey, ic, -ic, ins))
    return tuple(out)


class LocalForm:
    """A normalized sum of graded words with rational coefficients."""

    __slots__ = ('chart', 'terms')

    def __init__(self, chart: Chart, terms=None):
        self.chart = chart
        self.terms: dict[tuple, int | Fraction] = terms if terms is not None else {}

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, chart):
        return cls(chart)

    @classmethod
    def scalar(cls, chart, value):
        value = _q(value)
        return cls(chart, {(): value} if value else {})

    @classmethod
    def from_word(cls, chart, atoms, coeff=1):
        f = cls(chart)
        f._accum(atoms, coeff)
        return f

    def _accum(self, atoms, coeff):
        res = norm_word(self.chart, atoms, coeff)
        if res is not None:
            _add(self.terms, *res)

    # -- ring structure ----------------------------------------------------
    def __add__(self, other):
        out = LocalForm(self.chart, dict(self.terms))
        for k, c in other.terms.items():
            _add(out.terms, k, c)
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        scalar = _q(scalar)
        if not scalar:
            return LocalForm(self.chart)
        return LocalForm(self.chart, {k: _q(c * scalar) for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __neg__(self):
        # a negated canonical coefficient is canonical
        return LocalForm(self.chart, {k: -c for k, c in self.terms.items()})

    def wedge(self, other):
        out = LocalForm(self.chart)
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                out._accum(k1 + k2, c1 * c2)
        return out

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, LocalForm):
            return self.terms == other.terms
        return NotImplemented

    # -- grading -----------------------------------------------------------
    @staticmethod
    def key_vdeg(key):
        return sum(1 for a in key if a[0] == 'v')

    @staticmethod
    def key_hdeg(key):
        return sum(1 for a in key if a[0] == 'h')

    def key_ghost(self, key):
        return sum(atom_ghost(self.chart, a) for a in key)

    def grading(self):
        """(p, q) if homogeneous, else GradingError; zero form -> (0, 0)."""
        gr = {(self.key_vdeg(k), self.key_hdeg(k)) for k in self.terms}
        if not gr:
            return (0, 0)
        if len(gr) > 1:
            raise GradingError(f"inhomogeneous form: {sorted(gr)}")
        return gr.pop()

    def ghost_degree(self):
        gs = {self.key_ghost(k) for k in self.terms}
        if not gs:
            return 0
        if len(gs) > 1:
            raise GradingError(f"inhomogeneous ghost degree: {sorted(gs)}")
        return gs.pop()

    def components(self, keep):
        """Subform of the terms whose word ``keep`` accepts."""
        return LocalForm(self.chart, {k: c for k, c in self.terms.items() if keep(k)})

    def __repr__(self):
        from .render import render_text
        return f"LocalForm({render_text(self)})"


# ---------------------------------------------------------------------------
# generic graded operators
# ---------------------------------------------------------------------------

def apply_derivation(form: LocalForm, parity, image, images=None):
    """Graded derivation: image(atom) -> LocalForm | None (None = zero).

    The image of an atom is spliced in place with the Koszul sign of moving
    an operator of the given parity across the atoms before it (operators
    act from the left).  Each distinct atom's image is computed once, and
    its words are merged into the normalized word (_splice).  ``images``
    is the table of image data (_image_data) read and filled on the way:
    a chart's table (Chart.images) when the image depends only on the atom
    and the chart, else a new dict for this call.
    """
    chart = form.chart
    out = LocalForm(chart)
    terms = out.terms
    if images is None:
        images = {}
    for key, coeff in form.terms.items():
        keys = odd = None
        n = len(key)
        i = 0
        while i < n:            # derive each distinct atom once per run
            atom = key[i]
            j = i + 1
            while j < n and key[j] == atom:
                j += 1
            if atom in images:
                im = images[atom]
            else:
                im = images[atom] = _image_data(chart, image(atom))
            if im is not None:
                if keys is None:
                    keys, odd = _word_data(chart, key)
                run = j - i
                flip = parity & odd[i] & 1
                c0 = coeff * run if run > 1 else coeff
                for ikey, ic, nic, ins in im:
                    if ins is None:
                        out._accum(key[:i] + ikey + key[i + 1:],
                                   c0 * (nic if flip else ic))
                        continue
                    res = _splice(key, keys, odd, i, True, ins)
                    if res is not None:
                        neg = res[1] ^ flip
                        # an image coefficient of 1, as in the images of
                        # D_mu, d_v and the radial homotopy, needs no product
                        _add(terms, res[0], (-c0 if neg else c0) if ic == 1
                             else c0 * (nic if neg else ic))
            i = j
    return out


def chain_rule(chart, atom, leg):
    """Chain rule through a function atom 'f' or a fiber integral 'F':
    the sum over jet arguments a of the slot derivative times leg(a), the
    derivation's image of the argument (None where it acts as zero).  A
    slot derivative inside 'F' raises its lambda power by one."""
    inner = (atom,) if atom[0] == 'f' else atom[2]
    out = LocalForm(chart)
    for ai, app in enumerate(inner):
        sym, dords, args = app[1], app[2], app[3]
        for slot, arg in enumerate(args):
            d = leg(arg) if arg[0] == 'j' else None
            if d is None:
                continue
            nd = dords[:slot] + (dords[slot] + 1,) + dords[slot + 1:]
            napp = ('f', sym, nd, args)
            if atom[0] == 'F':
                napp = ('F', atom[1] + 1, inner[:ai] + (napp,) + inner[ai + 1:])
            out._accum((napp, d), 1)
    return out


def _put_factor(chart, terms, atom, mu=None):
    """Add the one-atom word of a jet or leg factor ``atom`` to an image's
    terms, read off its cached atom data (_data) without norm_word, with
    dx^mu after it when ``mu`` is given: a zero factor adds no term, a
    factor of 1 the empty word (or dx^mu alone), and otherwise the word
    holds the chart's cached atom object, with the sign -1 when dx^mu moves
    past an odd one.  Raises JetCutoffExceeded as norm_word does."""
    d = _data(chart, atom)
    if d[2] == _ZERO:
        return
    word = () if d[2] == _ONE else (d[3],)
    if mu is None:
        terms[word] = 1
    else:
        terms[word + (_data(chart, ('h', mu))[3],)] = -1 if word and d[1] else 1


def _d_mu(chart, atom, mu, legs):
    """D_mu of one atom, or None for zero: a jet's multi-index shifts by mu,
    and so does a vertical leg's when ``legs`` is true; a function atom or
    fiber integral goes through the chain rule."""
    t = atom[0]
    if t == 'j' or (t == 'v' and legs):
        terms = {}
        _put_factor(chart, terms, (t, atom[1], midx_shift(atom[2], mu)))
        return LocalForm(chart, terms)
    if t in ('f', 'F'):
        return chain_rule(chart, atom, lambda a: ('j', a[1], midx_shift(a[2], mu)))
    return None


def total_derivative(form: LocalForm, mu):
    """The total derivative D_mu (even derivation)."""
    chart = form.chart
    return apply_derivation(form, 0, lambda atom: _d_mu(chart, atom, mu, True),
                            chart.images.setdefault(('D', mu), {}))


def prolong(memo, tag, base, J, j0):
    """D^{J-j0} of a scalar form ``base``, memoized in ``memo`` under
    (tag, J): D_nu of the entry at J - e_nu, nu the last direction in which
    J exceeds j0, so the passes are those of D^{J-j0} applied direction by
    direction (notes/decisions.md §16).  A memo hit is one dict lookup."""
    key = (tag, J)
    got = memo.get(key)
    if got is None:
        nu = midx_last(midx_sub(J, j0))
        got = base if nu is None else total_derivative(
            prolong(memo, tag, base, midx_lower(J, nu), j0), nu)
        memo[key] = got
    return got


def horizontal(form: LocalForm, legs=True):
    """dx^mu ^ D_mu as one odd derivation: an atom's image is the sum over
    mu of dx^mu ^ D_mu(atom).  Moving dx^mu across the atoms before the one
    D_mu acts on is the Koszul sign apply_derivation gives parity 1, so this
    is the sum over mu of dx^mu ^ D_mu(form) in one pass over the words.
    With ``legs`` false the vertical legs are left alone (the suite's d0).
    A jet or leg has one word per mu (_put_factor), in mu order."""
    chart = form.chart

    def image(atom):
        t = atom[0]
        if t == 'j' or (t == 'v' and legs):
            terms = {}
            for mu in range(chart.dim):
                _put_factor(chart, terms, (t, atom[1], midx_shift(atom[2], mu)), mu)
            return LocalForm(chart, terms)
        out = LocalForm(chart)
        for mu in range(chart.dim):
            im = _d_mu(chart, atom, mu, legs)
            if im is not None:
                out = out + prepend_atom(im, ('h', mu))
        return out

    return apply_derivation(form, 1, image, chart.images.setdefault(('d', legs), {}))


def prepend_atom(form: LocalForm, atom):
    """atom ∧ form, merged into each normalized word (_splice)."""
    chart = form.chart
    out = LocalForm(chart)
    if not form.terms:
        return out
    d = _data(chart, atom)
    if d[2] != _KEEP:
        for key, coeff in form.terms.items():
            out._accum((atom,) + key, coeff)
        return out
    for key, coeff in form.terms.items():
        keys, odd = _word_data(chart, key)
        res = _splice(key, keys, odd, 0, False, (d,))
        if res is not None:
            _add(out.terms, res[0], -coeff if res[1] else coeff)
    return out


def d_h(form: LocalForm):
    """Horizontal differential d = dx^mu ^ D_mu (one odd derivation)."""
    return horizontal(form)


def d_v(form: LocalForm):
    """Vertical differential (variation along dynamical fields)."""
    chart = form.chart

    def leg(a):
        return ('v', a[1], a[2]) if chart.kind(a[1]) == DYNAMIC else None

    def image(atom):
        t = atom[0]
        if t == 'j':
            v = leg(atom)
            if v is None:
                return None
            terms = {}
            _put_factor(chart, terms, v)
            return LocalForm(chart, terms)
        if t in ('f', 'F'):
            return chain_rule(chart, atom, leg)
        return None

    return apply_derivation(form, 1, image, chart.images.setdefault('dv', {}))


def h_coefficient(form: LocalForm, dirs):
    """Coefficient of dx^dirs (ascending directions) in a form: the terms
    whose horizontal legs are exactly those, with the legs stripped."""
    target = tuple(('h', mu) for mu in dirs)
    out = LocalForm(form.chart)
    for key, c in form.terms.items():
        if tuple(a for a in key if a[0] == 'h') == target:
            out._accum(tuple(a for a in key if a[0] != 'h'), c)
    return out


def contract_legs(form: LocalForm):
    """Every single-leg interior product of a form in one scan: {(fid, K):
    i_(fid,K) form} over the vertical legs the form holds.  A word gives each
    leg run (equal atoms sit together in a normalized word) the word without
    one leg, times the run length and apply_derivation's sign for image 1:
    minus when the leg is odd and the atoms before it have odd total parity."""
    chart = form.chart
    out = {}
    for key, coeff in form.terms.items():
        left_par = 0
        seen = None
        for i, atom in enumerate(key):
            par = atom_parity(chart, atom)
            if atom[0] == 'v' and atom != seen:
                if atom[1:] not in out:
                    out[atom[1:]] = LocalForm(chart)
                sgn = -1 if par and left_par & 1 else 1
                _add(out[atom[1:]].terms, key[:i] + key[i + 1:],
                     coeff * sgn * key.count(atom))
            seen = atom
            left_par += par
    return out


def source_densities(form: LocalForm):
    """The components of a top-degree form as a source form: {fid: E_fid},
    in fid order, with E_fid the coefficient of du^fid ^ vol (the interior
    product along du^fid, its horizontal legs stripped) over the order-zero
    legs the form holds."""
    n = form.chart.dim
    z = midx_zero(n)
    legs = contract_legs(form)
    return {fid: h_coefficient(legs[fid, K], range(n)) for fid, K in sorted(legs) if K == z}


def transport(form: LocalForm, chart, image, h=None):
    """The algebra morphism onto ``chart`` given by an image per atom.

    ``image(atom, False)`` maps a 'j'/'v'/'ji' atom, or an 'f'/'F' atom
    after its jet arguments are mapped by ``image(arg, True)``, to an atom,
    a LocalForm on ``chart`` multiplied in at that place, or None for zero.
    ``image(arg, True)`` gives an atom, ('0',), or None, which drops the
    term.  ``h`` renumbers the horizontal legs dx^mu.  Each output word is
    normalized once on ``chart``, which gives the Koszul signs; a word whose
    atoms all map to themselves on the form's own chart is kept as it is.
    """
    def app(a):
        args = []
        for x in a[3]:
            if x[0] == 'j':
                x = image(x, True)
                if x is None:
                    return None
            args.append(x)
        return ('f', a[1], a[2], tuple(args))

    def atom_image(a):
        t = a[0]
        if t == 'h':
            return ('h', h(a[1])) if h else a
        if t == 'f':
            a = app(a)
        elif t == 'F':
            inner = [app(x) for x in a[2]]
            a = None if None in inner else ('F', a[1], tuple(sorted(inner)))
        return None if a is None else image(a, False)

    out = LocalForm(chart)
    same = chart is form.chart
    images = {}
    for key, c in form.terms.items():
        word = []
        for a in key:
            if a not in images:
                images[a] = atom_image(a)
            b = images[a]
            if b is None:
                break
            word.append(b)
        else:
            if same and tuple(word) == key:
                _add(out.terms, key, c)
                continue
            parts = [((), c)]
            for b in word:
                if type(b) is tuple:
                    parts = [(w + (b,), pc) for w, pc in parts]
                else:
                    parts = [(w + k, pc * kc)
                             for w, pc in parts for k, kc in b.terms.items()]
            for w, pc in parts:
                out._accum(w, pc)
    return out


def relabel(form: LocalForm, chart, fids, args=None):
    """The transport onto ``chart`` that renames component fids: each jet,
    leg and inverse-constant atom of fid f becomes that of fids.get(f, f),
    and a jet inside a function argument that of args.get(f, f) when
    ``args`` is given.  Every other part of a word stays as it is."""
    args = fids if args is None else args

    def image(a, in_fn):
        if a[0] in ('f', 'F'):
            return a
        return (a[0], (args if in_fn else fids).get(a[1], a[1])) + a[2:]

    return transport(form, chart, image)


def zero_star(form: LocalForm):
    """Evaluation on the zero section of the dynamical fields: a fiber
    integral becomes its inner applications over k + 1."""
    chart = form.chart

    def image(a, in_fn):
        t = a[0]
        if t in ('j', 'v') and chart.kind(a[1]) == DYNAMIC:
            return ('0',) if in_fn else None
        if t == 'F':
            return LocalForm(chart, {a[2]: _q(Fraction(1, a[1] + 1))})
        return a

    return transport(form, chart, image)


def substitute(form: LocalForm, bindings):
    """Capture-free substitution of jets; prolongs to derivative jets.

    ``bindings`` maps (fid, midx) to a (0,0) LocalForm.  An atom (fid, J)
    with J >= J0 for a bound J0 is replaced by D^{J-J0} of the bound
    expression; vertical legs are replaced by the variation of the same.
    A jet argument of a function may be bound only to a plain jet or zero.
    """
    chart = form.chart
    by_fid: dict[int, list] = {}
    for (fid, j0), expr in bindings.items():
        g_expr = expr.ghost_degree() if not expr.is_zero() else chart.ghost(fid)
        if not expr.is_zero() and g_expr != chart.ghost(fid):
            raise GhostDegreeMismatch(
                f"binding for component {chart.component(fid).name} changes ghost degree")
        p, q = expr.grading()
        if (p, q) != (0, 0):
            raise GradingError("bindings must be scalar (0,0) forms")
        by_fid.setdefault(fid, []).append((j0, expr))

    jets = {}
    legs = {}

    def bound_expr(fid, J, vertical):
        cands = [(j0, e) for j0, e in by_fid.get(fid, ()) if midx_geq(J, j0)]
        if not cands:
            return None
        # overlapping bindings: resolve deterministically by the largest
        # base multi-index (consistent on the solution ideal)
        cands.sort(key=lambda t: t[0], reverse=True)
        j0, e = cands[0]
        if not vertical:
            return prolong(jets, (fid, j0), e, J, j0)
        key = (fid, J)
        if key not in legs:
            legs[key] = d_v(prolong(jets, (fid, j0), e, J, j0))
        return legs[key]

    def image(a, in_fn):
        t = a[0]
        r = bound_expr(a[1], a[2], t == 'v') if t in ('j', 'v') else None
        if r is None:
            return a
        if not in_fn:
            return r
        if r.is_zero():
            return ('0',)
        if len(r.terms) == 1:
            (w, c), = r.terms.items()
            if c == 1 and len(w) == 1 and w[0][0] == 'j':
                return w[0]
        raise VarcalcError(
            "substitution inside a function argument must be "
            "a plain jet or zero")

    return transport(form, chart, image)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class PointAssignment:
    """Rational values for jets, vertical legs and horizontal legs."""

    def __init__(self, chart, jets=None, vlegs=None, hlegs=None):
        self.chart = chart
        self.jets = dict(jets or {})
        self.vlegs = dict(vlegs or {})
        self.hlegs = dict(hlegs or {})

    def jet(self, fid, midx):
        try:
            return self.jets[(fid, midx)]
        except KeyError:
            raise UnassignedSymbol(
                f"no value for jet {self.chart.component(fid).name}{midx}") from None

    def vleg(self, fid, midx):
        try:
            return self.vlegs[(fid, midx)]
        except KeyError:
            raise UnassignedSymbol(
                f"no value for leg d{self.chart.component(fid).name}{midx}") from None

    def hleg(self, mu):
        try:
            return self.hlegs[mu]
        except KeyError:
            raise UnassignedSymbol(f"no value for dx^{mu}") from None


def _arg_values(app, assign):
    return [Fraction(0) if a[0] == '0' else assign.jet(a[1], a[2]) for a in app[3]]


def _app_lambda_poly(chart, app, assign):
    """Value of F^{(d)}(l*args) as dict {lambda_power: Fraction}."""
    out = {}
    for power, v in chart.function(app[1]).monomials(app[2], _arg_values(app, assign)):
        out[power] = out.get(power, Fraction(0)) + v
    return out


def evaluate(form: LocalForm, assign: PointAssignment):
    chart = form.chart
    total = Fraction(0)
    for key, coeff in form.terms.items():
        val = Fraction(coeff)
        for atom in key:
            t = atom[0]
            if t == 'j':
                val *= assign.jet(atom[1], atom[2])
            elif t == 'ji':
                v = assign.jet(atom[1], midx_zero(chart.dim))
                if v == 0:
                    raise UnassignedSymbol("inverse of constant assigned zero")
                val *= Fraction(1) / v
            elif t == 'f':
                val *= chart.function(atom[1]).eval_model(atom[2], _arg_values(atom, assign))
            elif t == 'F':
                k, inner = atom[1], atom[2]
                poly = {k: Fraction(1)}
                for app in inner:
                    ap = _app_lambda_poly(chart, app, assign)
                    newpoly = {}
                    for p1, v1 in poly.items():
                        for p2, v2 in ap.items():
                            newpoly[p1 + p2] = newpoly.get(p1 + p2, Fraction(0)) + v1 * v2
                    poly = newpoly
                val *= sum((v / (p + 1) for p, v in poly.items()), Fraction(0))
            elif t == 'v':
                val *= assign.vleg(atom[1], atom[2])
            elif t == 'h':
                val *= assign.hleg(atom[1])
            if not val:
                break
        total += val
    return total
