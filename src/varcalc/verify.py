"""The randomized homotopy identity suites behind ``varcalc verify
--suites``."""

from __future__ import annotations

from .algebra import LocalForm, d_h, d_v, zero_star
from .euler import interior_euler
from .homotopy import get_suite
from .randforms import FormGenerator, suite_chart


def _retract(ch, st, w):
    i_w = interior_euler(w)
    return (interior_euler(i_w) - i_w).is_zero()


def _vert_sq(ch, st, w):
    hv = st.h_vertical(w)
    return st.h_vertical(hv).is_zero() and zero_star(hv).is_zero()


def _h0(ch, st, w):
    h0w = st.h_zero(w)
    h0dw = st.h_zero(d_h(w))
    q = w.grading()[1]
    P = st.euler_projector(w) if q == ch.dim else LocalForm.zero(ch)
    okk = (w - d_h(h0w) - h0dw - P - zero_star(w)).is_zero()
    if okk and not P.is_zero():
        okk = (st.euler_projector(P) - P).is_zero()
    return okk


# (name, p rule, q rule, check), the rows of bench/workloads.SUITE_IDENTITIES;
# each rule maps (rng, dim) to a degree, the p rule drawn first.
IDENTITIES = (
    ("I o i = id on source forms (I idempotent)",
     lambda r, n: r.randint(1, 2), lambda r, n: n, _retract),
    ("id = h> d + d h> + i I (q = top)",
     lambda r, n: r.randint(1, 2), lambda r, n: n,
     lambda ch, st, w: (w - d_h(st.h_horizontal(w))
                        - interior_euler(w)).is_zero()),
    ("id = h> d + d h> (q < top)",
     lambda r, n: r.randint(1, 2), lambda r, n: r.randint(0, n - 1),
     lambda ch, st, w: (w - st.h_horizontal(d_h(w))
                        - d_h(st.h_horizontal(w))).is_zero()),
    ("I o h> = 0 (I annihilates Im d)",
     lambda r, n: r.randint(1, 2), lambda r, n: n - 1,
     lambda ch, st, w: interior_euler(d_h(w)).is_zero()),
    ("id = hv dv + dv hv + p*0*",
     lambda r, n: r.randint(0, 2), lambda r, n: r.randint(0, n),
     lambda ch, st, w: (w - st.h_vertical(d_v(w)) - d_v(st.h_vertical(w))
                        - zero_star(w)).is_zero()),
    ("hv d + d hv = 0",
     lambda r, n: r.randint(0, 2), lambda r, n: r.randint(0, n),
     lambda ch, st, w: (st.h_vertical(d_h(w))
                        + d_h(st.h_vertical(w))).is_zero()),
    ("hv hv = 0 and 0* hv = 0",
     lambda r, n: r.randint(0, 2), lambda r, n: r.randint(0, n), _vert_sq),
    ("id = d h0 + h0 d + P + p*0*; P P = P",
     lambda r, n: 0, lambda r, n: r.randint(0, n), _h0),
)


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
    for name, prule, qrule, check in IDENTITIES:
        done = 0
        failed = 0
        idx = 0
        guard = 0
        while done < cases and guard < 20 * cases:
            guard += 1
            which = 0 if mix[idx % len(mix)] == 2 else 1
            idx += 1
            ch, gen = charts[which], gens[which]
            p = prule(gen.rng, ch.dim)
            w = gen.form(p, qrule(gen.rng, ch.dim), nterms=2)
            if w.is_zero():
                continue
            done += 1
            if not check(ch, suites[which], w):
                failed += 1
        rows.append({"identity": name, "checked": done, "failed": failed})
        ok = ok and failed == 0 and done >= cases
    return ok, rows
