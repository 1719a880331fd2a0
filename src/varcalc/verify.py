"""The randomized homotopy identity suites behind ``varcalc verify
--suites``."""

from __future__ import annotations

from .algebra import LocalForm, d_h, d_v, zero_star
from .euler import interior_euler
from .homotopy import get_suite
from .randforms import FormGenerator, suite_chart


def run_suites(seed, cases):
    """Randomized identity suites: every HomotopySuite identity on >= the
    requested number of nonzero random forms (mixed chart dimensions 2-3,
    jet order <= 2, polynomial degree <= 3)."""
    charts = [suite_chart(dim=2, nfields=2, ghost_field=True),
              suite_chart(dim=3, nfields=2, ghost_field=True)]
    suites = [get_suite(ch) for ch in charts]
    gens = [FormGenerator(ch, seed=seed + i, max_order=2, max_degree=3)
            for i, ch in enumerate(charts)]
    mix = [2] * (3 * cases // 4) + [3] * (cases - 3 * cases // 4)

    rows = [{"seed": seed, "cases": cases}]
    ok = True

    def loop(name, run):
        nonlocal ok
        done = 0
        failed = 0
        idx = 0
        guard = 0
        while done < cases and guard < 20 * cases:
            guard += 1
            which = 0 if mix[idx % len(mix)] == 2 else 1
            idx += 1
            res = run(charts[which], suites[which], gens[which])
            if res is None:
                continue
            done += 1
            if not res:
                failed += 1
        rows.append({"identity": name, "checked": done, "failed": failed})
        ok = ok and failed == 0 and done >= cases

    def _nz(gen, p, q):
        w = gen.form(p, q, nterms=2)
        return None if w.is_zero() else w

    def run_retract(ch, st, gen):
        w = _nz(gen, gen.rng.randint(1, 2), ch.dim)
        if w is None:
            return None
        I = interior_euler(w)
        if I.is_zero():
            return True
        return (interior_euler(I) - I).is_zero()
    loop("I o i = id on source forms (I idempotent)", run_retract)

    def run_hor_top(ch, st, gen):
        w = _nz(gen, gen.rng.randint(1, 2), ch.dim)
        if w is None:
            return None
        return (w - d_h(st.h_horizontal(w)) - interior_euler(w)).is_zero()
    loop("id = h> d + d h> + i I (q = top)", run_hor_top)

    def run_hor_mid(ch, st, gen):
        w = _nz(gen, gen.rng.randint(1, 2), gen.rng.randint(0, ch.dim - 1))
        if w is None:
            return None
        h = st.h_horizontal(w)
        return (w - st.h_horizontal(d_h(w)) - d_h(h)).is_zero()
    loop("id = h> d + d h> (q < top)", run_hor_mid)

    def run_side(ch, st, gen):
        w = _nz(gen, gen.rng.randint(1, 2), ch.dim - 1)
        if w is None:
            return None
        dw = d_h(w)
        if dw.is_zero():
            return True
        return interior_euler(dw).is_zero()
    loop("I o h> = 0 (I annihilates Im d)", run_side)

    def run_vert(ch, st, gen):
        w = _nz(gen, gen.rng.randint(0, 2), gen.rng.randint(0, ch.dim))
        if w is None:
            return None
        hv = st.h_vertical(w)
        return (w - st.h_vertical(d_v(w)) - d_v(hv) - zero_star(w)).is_zero()
    loop("id = hv dv + dv hv + p*0*", run_vert)

    def run_vert_anti(ch, st, gen):
        w = _nz(gen, gen.rng.randint(0, 2), gen.rng.randint(0, ch.dim))
        if w is None:
            return None
        hv = st.h_vertical(w)
        return (st.h_vertical(d_h(w)) + d_h(hv)).is_zero()
    loop("hv d + d hv = 0", run_vert_anti)

    def run_vert_sq(ch, st, gen):
        w = _nz(gen, gen.rng.randint(0, 2), gen.rng.randint(0, ch.dim))
        if w is None:
            return None
        hv = st.h_vertical(w)
        return st.h_vertical(hv).is_zero() and zero_star(hv).is_zero()
    loop("hv hv = 0 and 0* hv = 0", run_vert_sq)

    def run_h0(ch, st, gen):
        w = _nz(gen, 0, gen.rng.randint(0, ch.dim))
        if w is None:
            return None
        h0w = st.h_zero(w)
        h0dw = st.h_zero(d_h(w))
        q = w.grading()[1]
        P = st.euler_projector(w) if q == ch.dim else LocalForm.zero(ch)
        okk = (w - d_h(h0w) - h0dw - P - zero_star(w)).is_zero()
        if okk and not P.is_zero():
            okk = (st.euler_projector(P) - P).is_zero()
        return okk
    loop("id = d h0 + h0 d + P + p*0*; P P = P", run_h0)

    return ok, rows
