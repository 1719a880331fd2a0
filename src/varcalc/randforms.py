"""Seeded random local forms for the randomized identity suites."""

from __future__ import annotations

import random
from fractions import Fraction

from .chart import Chart, DYNAMIC
from .algebra import LocalForm, iter_midx


def suite_chart(dim=2, nfields=2, ghost_field=False):
    ch = Chart(dim, jet_cutoff=12)
    ch.add_coordinates()
    for i in range(nfields):
        ch.add_component(f"u{i}")
    if ghost_field:
        ch.add_component("c", ghost=1)
    return ch


class FormGenerator:
    """Deterministic generator of random polynomial local forms."""

    def __init__(self, chart, seed=0, max_order=2, max_degree=3):
        self.chart = chart
        self.rng = random.Random(seed)
        self.jets = []
        for comp in chart.components:
            if comp.kind != DYNAMIC:
                continue
            for order in range(max_order + 1):
                for m in iter_midx(chart.dim, order):
                    self.jets.append((comp.fid, m))
        self.max_degree = max_degree

    def coefficient_word(self):
        deg = self.rng.randint(0, self.max_degree)
        return [('j',) + self.rng.choice(self.jets) for _ in range(deg)]

    def rational(self):
        num = self.rng.randint(-6, 6) or 1
        den = self.rng.randint(1, 4)
        return Fraction(num, den)

    def form(self, p, q, nterms=3):
        ch = self.chart
        out = LocalForm(ch)
        for _ in range(nterms):
            word = self.coefficient_word()
            for _ in range(p):
                word.append(('v',) + self.rng.choice(self.jets))
            hs = self.rng.sample(range(ch.dim), q)
            word += [('h', mu) for mu in hs]
            out.add_word(word, self.rational())
        return out
