"""Tri-graded local forms with exact rational coefficients.

A term is a word of atoms in a fixed canonical order:

    ('j',  fid, midx)        scalar jet factor  u^I_J   (repeats = powers)
    ('ji', fid)              inverse of an order-0 named constant
    ('f',  sym, dords, args) function application  F^{(dords)}(args)
    ('F',  k, inner)         fiber integral  int_0^1 l^k prod F(l*args) dl
    ('v',  fid, midx)        vertical leg  (variation of a jet)
    ('h',  mu)               horizontal leg dx^mu

A word is stored as a tuple of int codes, one per atom (Chart.encode):
the order of the codes is the canonical order, and the lowest bit of a
code is its atom's parity (total form degree + ghost degree mod 2), so the
kernel sorts, bisects and reads signs on ints.  Tuple atoms appear only
where words are built (LocalForm.from_word, Chart.encode_word) and where
they are printed (Chart.decode_word).  Words are sorted into canonical
order with Koszul signs, powers of odd atoms vanish, and a LocalForm is a
dict {word: int | Fraction}.  A coefficient is an int when it is integral
and a Fraction only when it is not (_q), so integral data multiplies as
plain ints; a division goes through Fraction.  Every operator below is a
graded derivation or contraction driven by a per-atom image map, so sign
handling lives in exactly one place.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate

from .chart import (
    Chart, DYNAMIC, ONE, ZERO,
    ChartMismatch, GradingError, GhostDegreeMismatch, UnassignedSymbol,
    VarcalcError,
)


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


def atom_ghost(chart, code):
    a = chart.decode(code)
    return chart.ghost(a[1]) if a[0] in ('j', 'v') else 0


def norm_word(chart, word, coeff):
    """Canonicalize a word of codes; returns (word, coeff) or None if zero.

    The codes are sorted with the Koszul sign of every transposition of
    two odd atoms; a zero factor (ZERO) or an odd square kills the word,
    and named constants cancel against their inverses.
    """
    if not coeff or ZERO in word:
        return None
    key = tuple(sorted(word))
    odd = [c for c in word if c & 1]
    sign = 1
    if len(odd) > 1:
        if len(set(odd)) < len(odd):
            return None     # odd square
        if key != word:
            for i in range(1, len(odd)):
                c = odd[i]
                for b in odd[:i]:
                    if b > c:
                        sign = -sign
    if any(c & 2 for c in key):
        key = _cancel_constants(chart, key)
    coeff = _q(coeff)
    return key, (coeff if sign > 0 else -coeff)


def _cancel_constants(chart, key):
    """Cancel named constants against their inverses in a sorted word; the
    net powers go back in canonical place (they are even: no signs)."""
    cleaned = []
    counts = {}
    for c in key:
        if c & 2:
            a = chart.decode(c)
            counts[a[1]] = counts.get(a[1], 0) + (1 if a[0] == 'j' else -1)
        else:
            cleaned.append(c)
    zero = midx_zero(chart.dim)
    for fid, n in counts.items():
        if n:
            cleaned += [chart.encode(('j', fid, zero) if n > 0 else ('ji', fid))] * abs(n)
    return tuple(sorted(cleaned))


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


def _word_data(key):
    """The odd-prefix counts of a normalized word: odd[m] is the number of
    odd atoms in key[:m]."""
    return list(accumulate([c & 1 for c in key], initial=0))


def _splice(key, odd, i, drop, ins):
    """Merge a normalized run of codes into a normalized word.

    ``ins`` holds the new codes in canonical order; they go in at index i
    of ``key``, whose own atom key[i] (the first of its run) is dropped
    when ``drop`` is true.  Each new code lands at its bisect position p
    in the word, and an odd one crosses the odd atoms between i and p,
    read off the odd-prefix counts.  Returns (word, parity of the Koszul
    sign) or None when an odd atom meets its equal at the seam.  Named
    constants are not cancelled here: callers send words where one enters
    through norm_word.
    """
    n = len(key)
    par_i = odd[i + 1] - odd[i] if drop else 0
    sign = 0
    word = ()
    prev = 0
    for x in ins:
        p = bisect_left(key, x)
        if x & 1:
            if p < n and key[p] == x and not (drop and p == i):
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


def _image_data(im):
    """(word, coeff, -coeff, word or None) per term of an image form, as a
    tuple; the last entry is None when the word holds a named constant or
    its inverse, which must go through norm_word to cancel."""
    if im is None or not im.terms:
        return None
    return tuple((ikey, ic, -ic, None if any(c & 2 for c in ikey) else ikey)
                 for ikey, ic in im.terms.items())


def _normal(word):
    """Whether a word of codes is normalized as it stands: non-decreasing,
    with no repeated odd code, no named constant and no zero factor."""
    prev = 0
    for c in word:
        if c < prev or c & 2 or (c == prev and c & 1):
            return False
        prev = c
    return True


class LocalForm:
    """A normalized sum of graded words with rational coefficients."""

    __slots__ = ('chart', 'terms')

    def __init__(self, chart: Chart, terms=None):
        self.chart = chart
        # a word of codes -> its coefficient
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
        """The form of one word of atom tuples, normalized."""
        f = cls(chart)
        f.add_word(atoms, coeff)
        return f

    def add_word(self, atoms, coeff):
        """Add a word of atom tuples, encoded (Chart.encode_word) and
        normalized; a zero coefficient encodes nothing, so it raises
        nothing."""
        self._accum(self.chart.encode_word(atoms) if coeff else (), coeff)

    def _accum(self, word, coeff):
        res = norm_word(self.chart, word, coeff)
        if res is not None:
            _add(self.terms, *res)

    def on(self, chart):
        """This form in the codes of ``chart``: itself when chart reads
        them (Chart.reads_codes_of), else its relabel onto chart, which
        decodes each atom here and encodes it there.  Raises ChartMismatch
        across dimensions, where a multi-index has no code."""
        if chart.reads_codes_of(self.chart):
            return self
        if chart.dim != self.chart.dim:
            raise ChartMismatch(f"a form of dimension {self.chart.dim} "
                                f"on a chart of dimension {chart.dim}")
        return relabel(self, chart, {})

    # -- ring structure ----------------------------------------------------
    # a sum, product or comparison reads the right operand in the codes of
    # the left one's chart (on): two charts number their function atoms
    # each in its own order

    def __add__(self, other):
        out = LocalForm(self.chart, dict(self.terms))
        if other.chart is not self.chart:
            other = other.on(self.chart)
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
        if other.chart is not self.chart:
            other = other.on(self.chart)
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                out._accum(k1 + k2, c1 * c2)
        return out

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, LocalForm):
            return self.terms == other.on(self.chart).terms
        return NotImplemented

    # -- grading -----------------------------------------------------------
    def key_vdeg(self, key):
        chart = self.chart
        return bisect_left(key, chart.code_h) - bisect_left(key, chart.code_v)

    def key_hdeg(self, key):
        return len(key) - bisect_left(key, self.chart.code_h)

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
    """Graded derivation: image(code) -> LocalForm | None (None = zero).

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
        odd = None
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
                im = images[atom] = _image_data(image(atom))
            if im is not None:
                if odd is None:
                    odd = _word_data(key)
                run = j - i
                flip = parity & odd[i] & 1
                c0 = coeff * run if run > 1 else coeff
                for ikey, ic, nic, ins in im:
                    if ins is None:
                        out._accum(key[:i] + ikey + key[i + 1:],
                                   c0 * (nic if flip else ic))
                        continue
                    res = _splice(key, odd, i, True, ins)
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
            out.add_word((napp, d), 1)
    return out


def _put_factor(chart, terms, atom, mu=None):
    """Add the one-atom word of a jet or leg factor ``atom`` to an image's
    terms, read off its code without norm_word, with dx^mu after it when
    ``mu`` is given: a zero factor adds no term, a factor of 1 the empty
    word (or dx^mu alone), and otherwise the word holds the atom's code,
    with the sign -1 when dx^mu moves past an odd one.  Raises
    JetCutoffExceeded as Chart.encode does."""
    c = chart.encode(atom)
    if c == ZERO:
        return
    word = () if c == ONE else (c,)
    if mu is None:
        terms[word] = 1
    else:
        terms[word + (chart.encode(('h', mu)),)] = -1 if c & 1 and word else 1


def _d_mu(chart, code, mu, legs):
    """D_mu of one atom, or None for zero: a jet's multi-index shifts by mu,
    and so does a vertical leg's when ``legs`` is true; a function atom or
    fiber integral goes through the chain rule."""
    atom = chart.decode(code)
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
    return apply_derivation(form, 0, lambda code: _d_mu(chart, code, mu, True),
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

    def image(code):
        atom = chart.decode(code)
        t = atom[0]
        if t == 'j' or (t == 'v' and legs):
            terms = {}
            for mu in range(chart.dim):
                _put_factor(chart, terms, (t, atom[1], midx_shift(atom[2], mu)), mu)
            return LocalForm(chart, terms)
        out = LocalForm(chart)
        for mu in range(chart.dim):
            im = _d_mu(chart, code, mu, legs)
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
    c = chart.encode(atom)
    if c < 0 or c & 2:
        w = () if c == ONE else (c,)
        for key, coeff in form.terms.items():
            out._accum(w + key, coeff)
        return out
    for key, coeff in form.terms.items():
        res = _splice(key, _word_data(key), 0, False, (c,))
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

    def image(code):
        atom = chart.decode(code)
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
    chart = form.chart
    target = tuple(chart.encode(('h', mu)) for mu in dirs)
    out = LocalForm(chart)
    for key, c in form.terms.items():
        h = bisect_left(key, chart.code_h)
        if key[h:] == target:
            out._accum(key[:h], c)
    return out


def contract_legs(form: LocalForm):
    """Every single-leg interior product of a form in one scan: {(fid, K):
    i_(fid,K) form} over the vertical legs the form holds.  A word gives each
    leg run (equal atoms sit together in a normalized word) the word without
    one leg, times the run length and apply_derivation's sign for image 1:
    minus when the leg is odd and the atoms before it have odd total parity."""
    chart = form.chart
    lo, hi = chart.code_v, chart.code_h
    out = {}
    for key, coeff in form.terms.items():
        left_par = 0
        seen = None
        for i, c in enumerate(key):
            if lo <= c < hi and c != seen:
                leg = chart.decode(c)[1:]
                if leg not in out:
                    out[leg] = LocalForm(chart)
                sgn = -1 if c & 1 and left_par & 1 else 1
                _add(out[leg].terms, key[:i] + key[i + 1:],
                     coeff * sgn * key.count(c))
            seen = c
            left_par += c & 1
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
    term.  ``h`` renumbers the horizontal legs dx^mu.  The atoms are tuples
    here: each is decoded once on the form's chart and its image encoded
    on ``chart``.  An output word that is normalized as it stands (_normal)
    is added directly; every other one is normalized once on ``chart``,
    which gives the Koszul signs.
    """
    src = form.chart

    def app(a):
        args = []
        for x in a[3]:
            if x[0] == 'j':
                x = image(x, True)
                if x is None:
                    return None
            args.append(x)
        return ('f', a[1], a[2], tuple(args))

    def atom_image(code):
        a = src.decode(code)
        t = a[0]
        if t == 'h':
            b = ('h', h(a[1])) if h else a
        else:
            if t == 'f':
                a = app(a)
            elif t == 'F':
                inner = [app(x) for x in a[2]]
                a = None if None in inner else ('F', a[1], tuple(sorted(inner)))
            b = None if a is None else image(a, False)
        return chart.encode_word((b,)) if type(b) is tuple else b

    out = LocalForm(chart)
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
            parts = [((), c)]
            for b in word:
                if type(b) is tuple:
                    parts = [(w + b, pc) for w, pc in parts]
                else:
                    parts = [(w + k, pc * kc)
                             for w, pc in parts for k, kc in b.terms.items()]
            for w, pc in parts:
                if _normal(w):
                    _add(out.terms, w, pc)
                else:
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
            # the inner applications are even: sorted codes are normalized
            return LocalForm(chart, {tuple(sorted(chart.encode(x) for x in a[2])):
                                     _q(Fraction(1, a[1] + 1))})
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
            if c == 1 and len(w) == 1 and chart.decode(w[0])[0] == 'j':
                return chart.decode(w[0])
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
        for code in key:
            atom = chart.decode(code)
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
