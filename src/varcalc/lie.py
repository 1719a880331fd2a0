"""Lie-algebra data, the structure constants f^{ab}_c and invariant form
kappa on a basis e_0..e_{dim-1}, and every computation on those tables."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import permutations, product


@dataclass
class Structure:
    name: str
    dim: int
    f: dict          # (a,b) -> list of (c, coeff)
    kappa: dict      # (a,b) -> Fraction

    def terms(self):
        """(a, b, c, f^{ab}_c) for every term of the table, in table order."""
        for (a, b), lst in self.f.items():
            for c, coeff in lst:
                yield a, b, c, coeff

    def bracket_coeffs(self, a, b):
        return self.f.get((a, b), [])

    def brackets_onto(self, c):
        """(a, b, f^{ab}_c) for each term of the table onto e_c, in order."""
        return [(a, b, coeff) for a, b, cc, coeff in self.terms() if cc == c]

    def pair(self, a, b):
        """The invariant form kappa(e_a, e_b), read in either order."""
        return self.kappa.get((a, b)) or self.kappa.get((b, a))

    def invariant(self, idx):
        """tr of a product of basis elements: kappa(e_a, e_b) for (a, b) and
        1/2 kappa(e_a, [e_b, e_c]) for (a, b, c)."""
        if len(idx) == 2:
            return self.pair(*idx)
        a, b, c = idx
        total = Fraction(0)
        for d, coeff in self.bracket_coeffs(b, c):
            k = self.pair(a, d)
            if k:
                total += Fraction(1, 2) * k * coeff
        return total

    def reflected(self):
        """The same algebra with the bracket negated, [.,.] -> -[.,.]."""
        return replace(self, f={ab: [(c, -coeff) for c, coeff in lst]
                                for ab, lst in self.f.items()})

    def cyclic(self, T):
        """{(a, b, c): {key: sum}} for each basis triple whose cyclic sum
        sum_{(x,y,z) in (a,b,c),(b,c,a),(c,a,b)} sum_d f^{xy}_d T(d, z)
        is nonzero; T(d, z) gives (key, rational coefficient) pairs, a
        repeated key summed."""
        out = {}
        for a, b, c in product(range(self.dim), repeat=3):
            total = {}
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                for d, coeff in self.bracket_coeffs(x, y):
                    for key, v in T(d, z):
                        total[key] = total.get(key, 0) + coeff * v
            total = {key: v for key, v in total.items() if v}
            if total:
                out[(a, b, c)] = total
        return out

    def check_jacobi(self):
        return not self.cyclic(self.bracket_coeffs)


def su2_structure(name="su2"):
    eps = {}
    for (a, b, c) in permutations(range(3)):
        sign = _perm_sign((a, b, c))
        eps.setdefault((a, b), []).append((c, Fraction(sign)))
    kappa = {(a, a): Fraction(1) for a in range(3)}
    return Structure(name, 3, eps, kappa)


def abelian_structure(name, dim):
    kappa = {(a, a): Fraction(1) for a in range(dim)}
    return Structure(name, dim, {}, kappa)


def structure_from_spec(name, spec):
    """The structure of a 'structure NAME SPEC' line: su(2) for 'su2' or
    'eps', abelian of dimension N for 'abelianN' (1 for 'abelian'), else None."""
    size = spec[len("abelian"):]
    if spec in ("su2", "eps"):
        return su2_structure(name)
    if spec.startswith("abelian") and (not size or size.isdecimal()):
        return abelian_structure(name, int(size or 1))
    return None


def _perm_sign(p):
    sign = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def _kval(k, a, b):
    if (a, b) in k:
        return Fraction(k[(a, b)])
    if (b, a) in k:
        return -Fraction(k[(b, a)])
    return Fraction(0)


def schouten_PiPi(st: Structure, k):
    """[Pi, Pi]_SN components for Pi^{ab}(h) = f^{ab}_c h_c + k^{ab}: the
    cyclic sum of Pi's antisymmetrized linear part P against Pi."""
    P = Structure("Pi", st.dim, {}, {})
    for a, b, c, v in st.terms():
        P.f.setdefault((a, b), []).append((c, Fraction(v) / 2))
        P.f.setdefault((b, a), []).append((c, -Fraction(v) / 2))

    def Pi(d, z):
        return ([(('h', e), v) for e, v in P.bracket_coeffs(d, z)]
                + [(('1',), _kval(k, d, z))])

    return {abc + key: v for abc, sums in P.cyclic(Pi).items()
            for key, v in sums.items()}
