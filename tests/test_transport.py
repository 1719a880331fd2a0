"""algebra.transport as the one algebra morphism, against the three word
loops it replaced.

The oracle below is the code before the merge, verbatim: the relabelling
transport (images of jets only, one normalization per word), zero_star
with its own word loop, and substitute, which rebuilt every word with one
from_word and one wedge per atom.  The new code must give the same term
dicts with exact coefficients, raise where the oracle raises, on seeded
forms of the 2-d and 3-d suite charts of test_splice: even and ghost jets,
a named constant next to its inverse, 'f' and 'F' atoms, odd and ghost-1
legs and horizontal legs.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from varcalc.algebra import (
    LocalForm, d_v, iter_midx, midx_geq, midx_order, midx_sub, midx_zero,
    substitute, total_derivative, transport, zero_star,
)
from varcalc.chart import (
    CONST, DYNAMIC, Chart, GhostDegreeMismatch, GradingError, VarcalcError,
)
from conftest import assert_exact, atom_terms
from test_splice import C, CHARTS, SEEDED, U0, U1, forms


# ---------------------------------------------------------------------------
# the oracle: the three loops before the merge, verbatim
# ---------------------------------------------------------------------------

def apply_midx_derivative(form, midx):
    for mu, k in enumerate(midx):
        for _ in range(k):
            form = total_derivative(form, mu)
    return form


def oracle_transport(form: LocalForm, chart, jet, h=None):
    def app(a):
        args = []
        for x in a[3]:
            if x[0] == 'j':
                x = jet(x, True)
                if x is None:
                    return None
            args.append(x)
        return ('f', a[1], a[2], tuple(args))

    out = LocalForm(chart)
    for key, c in atom_terms(form).items():
        word = []
        for a in key:
            t = a[0]
            if t == 'h':
                b = ('h', h(a[1])) if h else a
            elif t == 'f':
                b = app(a)
            elif t == 'F':
                inner = [app(x) for x in a[2]]
                b = None if None in inner else ('F', a[1], tuple(sorted(inner)))
            else:
                b = jet(a, False)
            if b is None:
                break
            word.append(b)
        else:
            out.add_word(word, c)
    return out


def oracle_zero_star(form: LocalForm):
    chart = form.chart
    out = LocalForm(chart)
    for key, coeff in atom_terms(form).items():
        word = []
        dead = False
        for atom in key:
            t = atom[0]
            if t in ('j', 'v') and chart.kind(atom[1]) == DYNAMIC:
                dead = True
                break
            if t == 'f':
                args = tuple(('0',) if (a[0] == 'j' and chart.kind(a[1]) == DYNAMIC)
                             else a for a in atom[3])
                word.append(('f', atom[1], atom[2], args))
            elif t == 'F':
                k, inner = atom[1], atom[2]
                coeff = coeff / (k + 1)
                for app in inner:
                    args = tuple(('0',) if (a[0] == 'j' and chart.kind(a[1]) == DYNAMIC)
                                 else a for a in app[3])
                    word.append(('f', app[1], app[2], args))
            else:
                word.append(atom)
        if not dead:
            out.add_word(word, coeff)
    return out


def oracle_substitute(form: LocalForm, bindings):
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

    cache = {}

    def bound_expr(fid, J, vertical):
        cands = [(j0, e) for j0, e in by_fid.get(fid, ()) if midx_geq(J, j0)]
        if not cands:
            return None
        # overlapping bindings: resolve deterministically by the largest
        # base multi-index (consistent on the solution ideal)
        cands.sort(key=lambda t: t[0], reverse=True)
        j0, e = cands[0]
        key = (fid, J, vertical)
        if key not in cache:
            ex = apply_midx_derivative(e, midx_sub(J, j0))
            cache[key] = d_v(ex) if vertical else ex
        return cache[key]

    def app(atom):
        args = []
        for a in atom[3]:
            if a[0] == 'j':
                r = bound_expr(a[1], a[2], False)
                if r is not None:
                    if r.is_zero():
                        args.append(('0',))
                        continue
                    if len(r.terms) == 1:
                        (w, c), = atom_terms(r).items()
                        if c == 1 and len(w) == 1 and w[0][0] == 'j':
                            args.append(w[0])
                            continue
                    raise VarcalcError(
                        "substitution inside a function argument must be "
                        "a plain jet or zero")
            args.append(a)
        return ('f', atom[1], atom[2], tuple(args))

    out = LocalForm(chart)
    for key, coeff in atom_terms(form).items():
        # expand word left-to-right, splicing replacements
        parts = [LocalForm.scalar(chart, coeff)]
        for atom in key:
            t = atom[0]
            rep = None
            if t == 'j':
                rep = bound_expr(atom[1], atom[2], False)
            elif t == 'v':
                rep = bound_expr(atom[1], atom[2], True)
            elif t == 'f':
                atom = app(atom)
            elif t == 'F':
                atom = ('F', atom[1], tuple(sorted(app(x) for x in atom[2])))
            if rep is None:
                parts.append(LocalForm.from_word(chart, (atom,)))
            else:
                parts.append(rep)
        acc = parts[0]
        for p in parts[1:]:
            acc = acc.wedge(p)
        out = out + acc
    return out


def outcome(fn, *args):
    try:
        res = fn(*args)
    except VarcalcError as e:
        return type(e), str(e)
    assert_exact(res)
    return res.chart, res.terms


def same(new, old, *args):
    got, want = outcome(new, *args), outcome(old, *args)
    assert got == want
    return got


# ---------------------------------------------------------------------------
# target charts and maps
# ---------------------------------------------------------------------------

def _target(dim, names=("u0", "u1"), odd=()):
    """A chart with the suite chart's symbols, the two fields in the given
    order, those named in ``odd`` made ghost 1."""
    ch = Chart(dim, jet_cutoff=12)
    ch.add_coordinates()
    for nm in names:
        ch.add_component(nm, ghost=1 if nm in odd else 0)
    ch.add_component("c", ghost=1)
    ch.add_component("g", kind=CONST)
    ch.add_function("V", arity=1)
    ch.add_function("G", arity=2)
    return ch


SWAPPED = {dim: _target(dim, ("u1", "u0")) for dim in CHARTS}
ODD_U1 = {dim: _target(dim, odd=("u1",)) for dim in CHARTS}


def relabel(dim):
    """Swap u0 and u1; drop second jets of u1 (and their legs), and send a
    first jet of u0 in an argument to zero."""
    u0, u1 = dim + U0, dim + U1
    swap = {u0: u1, u1: u0}

    def jet(a, in_fn):
        if a[0] != 'ji' and a[1] == u1 and midx_order(a[2]) == 2:
            return None
        if in_fn and a[1] == u0 and midx_order(a[2]) == 1:
            return ('0',)
        return (a[0], swap.get(a[1], a[1])) + a[2:]
    return jet


def functions_too(jet):
    """The image of a map of jets: function atoms map to themselves."""
    return lambda a, in_fn: a if a[0] in ('f', 'F') else jet(a, in_fn)


def identity(a, in_fn):
    return a


@SEEDED
@given(forms())
def test_transport_relabels_onto_another_chart(form):
    n = form.chart.dim
    jet = relabel(n)
    h = (lambda mu: (mu + 1) % n)
    same(lambda f: transport(f, SWAPPED[n], functions_too(jet), h),
         lambda f: oracle_transport(f, SWAPPED[n], jet, h), form)


@SEEDED
@given(forms())
def test_transport_identity_onto_a_foreign_chart(form):
    """Atoms that map to themselves still renormalize on a chart where u1 is
    odd: its squares vanish and it picks up Koszul signs."""
    n = form.chart.dim
    same(lambda f: transport(f, ODD_U1[n], identity),
         lambda f: oracle_transport(f, ODD_U1[n], identity), form)


@SEEDED
@given(forms())
def test_transport_identity_keeps_the_form(form):
    assert transport(form, form.chart, identity) == form


@SEEDED
@given(forms())
def test_zero_star(form):
    same(zero_star, oracle_zero_star, form)


@SEEDED
@given(forms(legs=False, ghost_free=True))
def test_zero_star_on_coefficients(form):
    same(zero_star, oracle_zero_star, form)


@st.composite
def bindings(draw, ch):
    """One to three bound fields among u0, u1 and the ghost c, each at one
    or two base multi-indices of order <= 1 (two overlap at every J above
    both), bound to zero, to a plain jet or to a multi-term form (an odd
    one for c)."""
    n = ch.dim
    u0, u1, c = n + U0, n + U1, n + C
    midx = [m for order in range(2) for m in iter_midx(n, order)]
    plain = {u0: u1, u1: u0, c: c}
    out = {}
    for fid in draw(st.lists(st.sampled_from([u0, u1, c]), min_size=1, max_size=3,
                             unique=True)):
        for j0 in draw(st.lists(st.sampled_from(midx), min_size=1, max_size=2,
                                unique=True)):
            kind = draw(st.sampled_from(["zero", "plain", "form"]))
            if kind == "zero":
                expr = LocalForm.zero(ch)
            elif kind == "plain":
                expr = LocalForm.from_word(ch, (('j', plain[fid], draw(st.sampled_from(midx))),))
            else:
                expr = draw(forms(n, legs=False, ghost_free=True))
                if fid == c:
                    expr = expr.wedge(LocalForm.from_word(
                        ch, (('j', c, draw(st.sampled_from(midx))),)))
            out[(fid, j0)] = expr
    return out


@SEEDED
@given(forms(), st.data())
def test_substitute(form, data):
    same(substitute, oracle_substitute, form, data.draw(bindings(form.chart)))


@pytest.mark.parametrize("dim", sorted(CHARTS))
@pytest.mark.parametrize("kind", ["zero", "plain", "product", "ghost", "grading"])
def test_substitute_argument_bindings(dim, kind):
    """A bound jet argument of V and of a fiber integral: to zero, to a
    plain jet, to a product (an error), and the two binding checks."""
    ch = CHARTS[dim]
    n = ch.dim
    z = midx_zero(n)
    u0, u1, c = (('j', n + k, z) for k in (U0, U1, C))
    vu0 = ('f', 0, (1,), (u0,))
    form = LocalForm.from_word(ch, (vu0, ('F', 1, (vu0, ('f', 1, (0, 0), (u1, u0)))),
                                    ('v', n + U1, z), ('h', 0)), Fraction(3, 2))
    expr = {
        "zero": LocalForm.zero(ch),
        "plain": LocalForm.from_word(ch, (u1,)),
        "product": LocalForm.from_word(ch, (u1, u1)),
        "ghost": LocalForm.from_word(ch, (c,)),
        "grading": LocalForm.from_word(ch, (u1, ('h', 0))),
    }[kind]
    got = same(substitute, oracle_substitute, form, {(n + U0, z): expr})
    raises = {"product": VarcalcError, "ghost": GhostDegreeMismatch,
              "grading": GradingError}
    assert (got[0] is raises[kind]) if kind in raises else got[1]
