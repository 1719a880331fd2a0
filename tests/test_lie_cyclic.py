"""The Lie-algebra cyclic identity, written once as Structure.cyclic, against
the three loops it replaced.

The oracle below is that code verbatim: Structure.check_jacobi with its
f-table quadruple loop, slicing._check_cocycle with its label search and
triple loop, and slicing.schouten_PiPi with its own linear and constant
dicts.  On seeded tables of dimensions 1-4 (antisymmetric, given in a single
orientation, or arbitrary ordered pairs; with repeated target indices in one
bracket list; with a constant part k) the new code must give the same Jacobi
verdicts, the same [Pi, Pi]_SN dicts with Fraction values, and on kappa
tables the same pass or the same NotExact message at the same first failing
triple.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

from varcalc.algebra import LocalForm, midx_zero
from varcalc.chart import Chart, NotExact
from varcalc.lie import Structure, _kval, abelian_structure, schouten_PiPi, su2_structure
from varcalc.slicing import _check_cocycle


# ---------------------------------------------------------------------------
# the oracle: the three loops before Structure.cyclic, verbatim
# ---------------------------------------------------------------------------

def oracle_check_jacobi(self):
    n = self.dim
    ftab = {}
    for (a, b), lst in self.f.items():
        for c, coeff in lst:
            ftab[(a, b, c)] = ftab.get((a, b, c), Fraction(0)) + coeff
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for e in range(n):
                    total = Fraction(0)
                    for d in range(n):
                        total += ftab.get((a, b, d), Fraction(0)) * ftab.get((d, c, e), Fraction(0))
                        total += ftab.get((b, c, d), Fraction(0)) * ftab.get((d, a, e), Fraction(0))
                        total += ftab.get((c, a, d), Fraction(0)) * ftab.get((d, b, e), Fraction(0))
                    if total:
                        return False
    return True


def oracle_check_cocycle(sigma, sym, table):
    """Constant CE 2-cocycle identity on basis triples:
    kappa([a,b], c) + kappa([b,c], a) + kappa([c,a], b) = 0."""
    st = sym.structure
    if st is None:
        return
    labels = sorted({k[0] for k in table} | {k[1] for k in table})
    lie_of = {lab: lab[1][0] for lab in labels if lab[1]}
    if len(lie_of) != len(labels):
        return
    def kappa(a, b):
        for (ka, kb), v in table.items():
            if lie_of.get(ka) == a and lie_of.get(kb) == b:
                return v
        return None
    dims = sorted(set(lie_of.values()))
    for a in dims:
        for b in dims:
            for c in dims:
                total = None
                for (x, y, z_) in ((a, b, c), (b, c, a), (c, a, b)):
                    for d, coeff in st.bracket_coeffs(x, y):
                        v = kappa(d, z_)
                        if v is None:
                            continue
                        piece = v * coeff
                        total = piece if total is None else total + piece
                if total is not None and not total.is_zero():
                    raise NotExact(
                        f"CE 2-cocycle identity fails on basis triple {(a, b, c)}")


def oracle_schouten_PiPi(dim, f, k):
    """[Pi, Pi]_SN components for Pi^{ab}(h) = f^{ab}_c h_c + k^{ab}."""
    def Pi(a, b):
        lin = {}
        for cc, coeff in f.get((a, b), []):
            lin[cc] = lin.get(cc, Fraction(0)) + Fraction(coeff)
        for cc, coeff in f.get((b, a), []):
            lin[cc] = lin.get(cc, Fraction(0)) - Fraction(coeff)
        lin = {d: v / 2 for d, v in lin.items() if v}
        return lin, _kval(k, a, b)

    out = {}
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                total_lin = {}
                total_const = Fraction(0)
                for (x, y, z_) in ((a, b, c), (b, c, a), (c, a, b)):
                    lin_yz, _cyz = Pi(y, z_)
                    for d, dcoeff in lin_yz.items():
                        lin_dx, const_dx = Pi(d, x)
                        for e, v in lin_dx.items():
                            total_lin[e] = total_lin.get(e, Fraction(0)) + v * dcoeff
                        total_const += const_dx * dcoeff
                for e, v in total_lin.items():
                    if v:
                        out[(a, b, c, 'h', e)] = out.get((a, b, c, 'h', e), Fraction(0)) + v
                if total_const:
                    out[(a, b, c, '1')] = out.get((a, b, c, '1'), Fraction(0)) + total_const
    return {kk: v for kk, v in out.items() if v}


# ---------------------------------------------------------------------------
# seeded tables
# ---------------------------------------------------------------------------

COEFFS = [Fraction(c) for c in (-2, -1, 1, 2)] + [Fraction(1, 2), Fraction(-3, 2)]
MODES = ("antisymmetric", "single", "arbitrary")
N_TABLES = 360


def _bracket_list(rng, dim):
    lst = [(rng.randrange(dim), rng.choice(COEFFS))
           for _ in range(rng.choice((1, 1, 2)))]
    if rng.random() < 0.15:              # a repeated target index
        lst.append((lst[0][0], rng.choice(COEFFS)))
    return lst


def random_f(rng, dim, mode):
    """Sparse enough that some tables satisfy Jacobi and most do not."""
    density = rng.choice((0.2, 0.4, 0.8))
    f = {}
    pairs = [(a, b) for a in range(dim) for b in range(dim)
             if (a != b if mode == "arbitrary" else a < b)]
    if mode == "arbitrary":
        pairs += [(a, a) for a in range(dim)]
    for a, b in pairs:
        if rng.random() < density:
            f[(a, b)] = _bracket_list(rng, dim)
            if mode == "antisymmetric":
                f[(b, a)] = [(c, -v) for c, v in f[(a, b)]]
    return f


def random_k(rng, dim):
    k = {}
    for a in range(dim):
        for b in range(dim):
            if rng.random() < 0.3:
                k[(a, b)] = rng.choice(COEFFS)
    return k


def known_lie_algebras():
    """Tables that satisfy Jacobi, antisymmetric and in one orientation."""
    su2 = su2_structure().f
    heis = {(0, 1): [(2, Fraction(1))]}
    aff = {(0, 1): [(1, Fraction(1))]}
    tables = [(3, su2), (3, {ab: [(c, 3 * v) for c, v in lst]
                             for ab, lst in su2.items()}),
              (4, dict(su2)), (3, heis), (2, aff), (1, {}), (4, {})]
    out = []
    for dim, f in tables:
        out.append((dim, f))
        out.append((dim, {(a, b): lst for (a, b), lst in f.items() if a < b}))
    return out


def seeded_tables(seed, count):
    rng = random.Random(seed)
    out = [(dim, f, {}) for dim, f in known_lie_algebras()]
    while len(out) < count:
        dim = rng.randint(1, 4)
        f = random_f(rng, dim, MODES[len(out) % 3])
        k = random_k(rng, dim) if rng.random() < 0.7 else {}
        out.append((dim, f, k))
    return out


BAD = {(0, 1): [(1, Fraction(1))], (1, 0): [(1, Fraction(-1))],
       (0, 2): [(2, Fraction(1))], (2, 0): [(2, Fraction(-1))],
       (1, 2): [(2, Fraction(1))], (2, 1): [(2, Fraction(-1))]}


# ---------------------------------------------------------------------------
# Jacobi and [Pi, Pi]_SN
# ---------------------------------------------------------------------------

def test_jacobi_verdicts_match_the_oracle():
    verdicts = []
    for dim, f, _k in seeded_tables(11, N_TABLES):
        st = Structure("t", dim, f, {})
        verdict = st.check_jacobi()
        assert verdict == oracle_check_jacobi(st), (dim, f)
        verdicts.append(verdict)
    # the sample holds Lie algebras and non-Lie tables alike
    assert 20 < sum(verdicts) < len(verdicts) - 20


def test_schouten_dicts_match_the_oracle():
    nonzero = 0
    for dim, f, k in seeded_tables(12, N_TABLES):
        got = schouten_PiPi(Structure("t", dim, f, {}), k)
        assert got == oracle_schouten_PiPi(dim, f, k), (dim, f, k)
        assert all(type(v) is Fraction for v in got.values())
        nonzero += bool(got)
    assert 20 < nonzero < N_TABLES - 20


def test_named_tables():
    su2 = su2_structure()
    ab = abelian_structure("u", 2)
    bad = Structure("bad", 3, BAD, su2.kappa)
    for st in (su2, ab, bad):
        assert st.check_jacobi() == oracle_check_jacobi(st)
    assert su2.check_jacobi() and ab.check_jacobi() and not bad.check_jacobi()
    for st, k in [(su2, {}), (su2, {(0, 1): Fraction(1)}),
                  (ab, {(0, 1): Fraction(5)}), (bad, {})]:
        assert schouten_PiPi(st, k) == oracle_schouten_PiPi(st.dim, st.f, k)
    assert schouten_PiPi(su2, {(0, 1): Fraction(1)}) == {}
    assert schouten_PiPi(bad, {})


def test_pair_reads_either_order():
    st = Structure("t", 2, {}, {(0, 1): Fraction(3), (1, 1): Fraction(0)})
    assert st.pair(0, 1) == st.pair(1, 0) == Fraction(3)
    assert not st.pair(1, 1) and st.pair(0, 0) is None


# ---------------------------------------------------------------------------
# the CE 2-cocycle identity on kappa tables
# ---------------------------------------------------------------------------

CHART = Chart(1)
CHART.add_coordinates()
U = CHART.add_component("u").fid
W = CHART.add_component("w").fid
Z = midx_zero(1)
WORDS = [(), (('j', U, Z),), (('j', W, Z),), (('j', U, (1,)),)]


def random_form(rng):
    out = LocalForm(CHART)
    for word in rng.sample(WORDS, rng.randint(1, 2)):
        out = out + LocalForm.from_word(CHART, word, rng.choice(COEFFS))
    return out


def random_kappa(rng, st):
    """kappa on Lie-labelled basis pairs: a coboundary mu([a, b]) (a cocycle
    whenever st satisfies Jacobi), with one planted pair in most tables and
    entries dropped in some, under one of three label layouts."""
    dim = st.dim
    mu = [random_form(rng) for _ in range(dim)]
    values = {}
    for a in range(dim):
        for b in range(dim):
            v = LocalForm(CHART)
            for c, coeff in st.bracket_coeffs(a, b):
                v = v + mu[c] * coeff
            values[(a, b)] = v
    if rng.random() < 0.7:
        planted = (rng.randrange(dim), rng.randrange(dim))
        values[planted] = values[planted] + random_form(rng)
    layout = rng.choice(("one", "one", "two", "nonlie"))
    fidxs = [()] if layout == "one" else [(0,), (1,)]
    entries = []
    for (a, b), v in values.items():
        for fa in fidxs:
            for fb in fidxs:
                # a label sharing a Lie index carries its own value
                own = v if (fa, fb) == (fidxs[0],) * 2 else v + random_form(rng)
                entries.append(((fa, (a,)), (fb, (b,)), own))
    if layout == "nonlie":
        entries.append((((2,), ()), ((0,), (0,)), random_form(rng)))
    rng.shuffle(entries)
    if rng.random() < 0.2:
        entries = entries[: max(1, len(entries) * 3 // 4)]
    return {(ka, kb): v for ka, kb, v in entries}


def _outcome(check, st, table):
    try:
        check(None, SimpleNamespace(structure=st), table)
    except NotExact as e:
        return str(e)
    return None


def test_cocycle_check_matches_the_oracle():
    rng = random.Random(13)
    structures = [Structure("t", dim, f, {})
                  for dim, f, _k in seeded_tables(14, N_TABLES)]
    outcomes = []
    for st in structures:
        table = random_kappa(rng, st)
        got = _outcome(_check_cocycle, st, table)
        assert got == _outcome(oracle_check_cocycle, st, table), st.f
        outcomes.append(got)
    fails = [o for o in outcomes if o is not None]
    assert 20 < len(fails) < len(outcomes) - 20
    assert len(set(fails)) > 10          # many different first failing triples


def test_cocycle_check_on_named_structures():
    rng = random.Random(15)
    su2 = su2_structure()
    cases = [su2, abelian_structure("u", 3), Structure("bad", 3, BAD, {})]
    for st in cases:
        for _ in range(20):
            table = random_kappa(rng, st)
            assert (_outcome(_check_cocycle, st, table)
                    == _outcome(oracle_check_cocycle, st, table))
    # a coboundary of su2 passes; no structure means nothing to check
    lab = [((), (a,)) for a in range(3)]
    cobound = {(lab[a], lab[b]): sum((LocalForm.scalar(CHART, c + 1) * v
                                      for c, v in su2.bracket_coeffs(a, b)),
                                     LocalForm(CHART))
               for a in range(3) for b in range(3)}
    assert _outcome(_check_cocycle, su2, cobound) is None
    cobound[(lab[1], lab[1])] = LocalForm.scalar(CHART, 7)
    failed = "CE 2-cocycle identity fails on basis triple (0, 1, 2)"
    assert _outcome(_check_cocycle, su2, cobound) == failed
    assert _outcome(oracle_check_cocycle, su2, cobound) == failed
    assert _outcome(_check_cocycle, None, cobound) is None
