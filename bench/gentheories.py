"""Seeded family of higher-derivative scalar theories for the corpus workload.

Each theory lives on an n-dimensional chart (n = 2..5) and has the Lagrangian

    L = (sum_A c_A * phi_,A * phi_,A + a2*phi^2 + a3*phi^3) * star(1)

with two multi-indices, one of |A| = order (2 or 3) and one of |A| = 2,
seeded rational coefficients, a global translation symmetry, a jet
cutoff of 2*order + 3 and a solved jet phi_,2A taken from a top-order term
(its coefficient in E(L) is the constant 2*c_A*(-1)^|A|).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

COORDS = ("t", "x", "y", "z", "w")
SHAPES = tuple((n, order) for n in (2, 3, 4, 5) for order in (2, 3))


@dataclass(frozen=True)
class GenTheory:
    name: str
    dim: int
    order: int
    terms: tuple          # ((Fraction c, multi-index), ...)
    potential: tuple      # (a2, a3)
    solve: tuple          # multi-index of the solved jet

    def text(self):
        n = self.dim
        body = [f"{_q(c)} * {_jet(m)} * {_jet(m)}" for c, m in self.terms]
        a2, a3 = self.potential
        body += [f"{_q(a2)} * phi * phi", f"{_q(a3)} * phi * phi * phi"]
        transl = " + ".join(f"e{mu} * phi_,{mu}" for mu in range(n))
        return "\n".join([
            f"theory {self.name}",
            f"dimension {n}",
            "coordinates " + " ".join(COORDS[:n]),
            "signature - " + " ".join("+" * (n - 1)),
            f"jet_cutoff {2 * self.order + 3}",
            "field phi scalar",
            "lagrangian (" + " + ".join(body) + ") * star(1)",
            f"symmetry transl param e components {n} constant",
            f"  phi = {transl}",
            f"solve {_jet(self.solve)}",
            "",
        ])


def _q(c):
    return f"({c.numerator}/{c.denominator})" if c.denominator != 1 \
        else f"({c.numerator})"


def _digits(m):
    return "".join(str(mu) * k for mu, k in enumerate(m))


def _jet(m):
    return "phi_," + _digits(m) if any(m) else "phi"


def _rational(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))


def _midx(rng, n, mult):
    """A multi-index with the given multiplicities on seeded distinct axes."""
    m = [0] * n
    for axis, k in zip(rng.sample(range(n), len(mult)), mult):
        m[axis] = k
    return tuple(m)


def generate(seed):
    """The eight theories (n = 2..5, order 2 and 3) for one seed.  The seed
    draws the coefficients and the axes of each derivative; the number of
    terms and the multiplicity pattern of each multi-index are fixed per
    (n, order), because they set the cost of every command."""
    out = []
    for n, order in SHAPES:
        rng = random.Random(f"{seed}:{n}:{order}")
        top = _midx(rng, n, (1,) * order if n >= order else (2, 1))
        low = _midx(rng, n, (2,))
        terms = tuple((_rational(rng), m) for m in sorted({top, low}))
        out.append(GenTheory(
            name=f"gen_n{n}_o{order}", dim=n, order=order, terms=terms,
            potential=(_rational(rng), _rational(rng)),
            solve=tuple(2 * k for k in top)))
    return out


def oracle_mismatch(g, el_row):
    """Compare varcalc's E(L) (a form_json row of ``el``) with sympy's
    ``euler_equations`` on the component-expanded Lagrangian density.
    Returns None when they agree, else a one-line reason."""
    import sympy as sp
    from sympy.calculus.euler import euler_equations

    xs = sp.symbols(f"x0:{g.dim}")
    phi = sp.Function("phi")(*xs)

    def jet(m):
        args = [v for v, k in zip(xs, m) for _ in range(k)]
        return sp.diff(phi, *args) if args else phi

    a2, a3 = g.potential
    density = sum(sp.Rational(c.numerator, c.denominator) * jet(m) ** 2
                  for c, m in g.terms)
    density += sp.Rational(a2.numerator, a2.denominator) * phi ** 2
    density += sp.Rational(a3.numerator, a3.denominator) * phi ** 3
    want = euler_equations(density, phi, xs)[0].lhs

    legs = [f"dx{mu}" for mu in range(g.dim)]
    got = sp.Integer(0)
    for term in el_row["terms"]:
        if term["vertical"] != ["delta(phi)"] or term["horizontal"] != legs:
            return f"E(L) term is not a source form: {term}"
        num, den = term["coeff"].split("/")
        value = sp.Rational(int(num), int(den))
        for f in term["factors"]:
            name, _, digits = f.partition("_,")
            if name != "phi":
                return f"unexpected factor {f!r} in E(L)"
            m = [0] * g.dim
            for ch in digits:
                m[int(ch)] += 1
            value *= jet(m)
        got += value
    if sp.expand(got - want) != 0:
        return f"E(L) differs from sympy euler_equations by {sp.expand(got - want)}"
    return None
