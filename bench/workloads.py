"""The benchmark's three workloads: suites, ym and corpus.

A workload is built once from its seed (its constructor is the timed
set-up), then yields ``passes`` passes.  A pass is a fixed list of ops for
the seed; an op is one closed-loop call
that returns a raw result, and each op's check runs after the pass, outside
the timed region.  A check returns None when the result is right and a
one-line reason when it is not.  Verdicts and closed forms judged here are
the ones the repository states: acceptance criteria 1-10 and the README's
"every command accepts --json".
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from varcalc import algebra, euler, homotopy, noether, slicing, bv, cli
from varcalc.chart import DoesNotDescend
from varcalc.dsl import ElabContext, elaborate_form
from varcalc.randforms import FormGenerator, suite_chart
from varcalc.render import SCHEMA, render_text
from varcalc.theory import theory_from_text

import gentheories


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    unjudged: bool = False     # verdict recorded, not judged


# ---------------------------------------------------------------- suites

SUITE_CASES = 24          # forms per identity per pass
SUITE_DIMS = (2, 2, 2, 3)  # charts of dimension 2 and 3 in a 3:1 ratio


def _zero(ch):
    return algebra.LocalForm.zero(ch)


def _retract(ch, st, w):
    i_w = euler.interior_euler(w)
    return i_w.is_zero() or (euler.interior_euler(i_w) - i_w).is_zero()


def _hor_top(ch, st, w):
    h = st.h_horizontal(w)
    dhw = algebra.d_h(h) if not h.is_zero() else _zero(ch)
    return (w - dhw - euler.interior_euler(w)).is_zero()


def _hor_mid(ch, st, w):
    h = st.h_horizontal(w)
    dw = algebra.d_h(w)
    hdw = st.h_horizontal(dw) if not dw.is_zero() else _zero(ch)
    dhw = algebra.d_h(h) if not h.is_zero() else _zero(ch)
    return (w - hdw - dhw).is_zero()


def _side(ch, st, w):
    dw = algebra.d_h(w)
    return dw.is_zero() or euler.interior_euler(dw).is_zero()


def _vert(ch, st, w):
    hv = st.h_vertical(w)
    return (w - st.h_vertical(algebra.d_v(w)) - algebra.d_v(hv)
            - algebra.zero_star(w)).is_zero()


def _vert_anti(ch, st, w):
    hv = st.h_vertical(w)
    return (st.h_vertical(algebra.d_h(w)) + algebra.d_h(hv)).is_zero()


def _vert_sq(ch, st, w):
    hv = st.h_vertical(w)
    return st.h_vertical(hv).is_zero() and algebra.zero_star(hv).is_zero()


def _h0(ch, st, w):
    h0w = st.h_zero(w)
    dw = algebra.d_h(w)
    h0dw = st.h_zero(dw) if not dw.is_zero() else _zero(ch)
    p = st.euler_projector(w) if w.grading()[1] == ch.dim else _zero(ch)
    ok = (w - algebra.d_h(h0w) - h0dw - p - algebra.zero_star(w)).is_zero()
    if ok and not p.is_zero():
        ok = (st.euler_projector(p) - p).is_zero()
    return ok


# (name, vertical degrees, horizontal degree rule, check); the rule maps
# (rng, dim) to q, as in the criterion-5 suites.
SUITE_IDENTITIES = (
    ("I_idempotent", (1, 2), lambda r, n: n, _retract),
    ("hor_top", (1, 2), lambda r, n: n, _hor_top),
    ("hor_mid", (1, 2), lambda r, n: r.randint(0, n - 1), _hor_mid),
    ("I_kills_im_d", (1, 2), lambda r, n: n - 1, _side),
    ("vert", (0, 2), lambda r, n: r.randint(0, n), _vert),
    ("vert_anti", (0, 2), lambda r, n: r.randint(0, n), _vert_anti),
    ("vert_sq", (0, 2), lambda r, n: r.randint(0, n), _vert_sq),
    ("h0", (0, 0), lambda r, n: r.randint(0, n), _h0),
)


def _is_true(res):
    return None if res is True else "identity residual is not zero"


class Suites:
    """Randomized homotopy identities (acceptance criterion 5) on two
    charts whose strata are built during the run and then reused.

    The forms of pass k are the same for every seed and the seed permutes
    the order of the ops in each pass.  About ten of the 1152 forms
    (h>= on (2, q < 3) forms of degree 3 on the 3-chart) take 70% of the
    time, so drawing the forms from the seed moved wall_s by +-30% between
    seeds; a fixed form set keeps the work equal across seeds."""

    tail_pct = 99
    passes = 6

    def __init__(self, seed, workdir):
        self.seed = seed
        self.charts = {d: suite_chart(dim=d, nfields=2, ghost_field=True)
                       for d in sorted(set(SUITE_DIMS))}
        self.suites = {d: homotopy.get_suite(ch) for d, ch in self.charts.items()}
        self._first = self._inputs(0)

    def _inputs(self, k):
        gens = {d: FormGenerator(ch, seed=f"suites:{k}:{d}",
                                 max_order=2, max_degree=3)
                for d, ch in self.charts.items()}
        out = []
        for name, (pmin, pmax), qrule, check in SUITE_IDENTITIES:
            for case in range(SUITE_CASES):
                d = SUITE_DIMS[case % len(SUITE_DIMS)]
                gen = gens[d]
                w = _zero(self.charts[d])
                while w.is_zero():
                    p = gen.rng.randint(pmin, pmax)
                    w = gen.form(p, qrule(gen.rng, d), nterms=2)
                out.append((name, d, w, check))
        random.Random(f"{self.seed}:{k}").shuffle(out)
        return out

    def ops(self, k):
        inputs = self._first if k == 0 else self._inputs(k)
        self._first = None
        out = []
        for name, d, w, check in inputs:
            ch, st = self.charts[d], self.suites[d]
            out.append(Op(f"{name}/dim{d}",
                          lambda ch=ch, st=st, w=w, check=check: check(ch, st, w),
                          _is_true))
        return out


# -------------------------------------------------------------------- ym

def bundled_text(name):
    from importlib import resources
    return resources.files("varcalc.theories").joinpath(
        name + ".thy").read_text(encoding="utf-8")


def _nonzero_form(res):
    return "form is zero" if res.is_zero() else None


def _passed(res):
    return None if res else "verdict is FAIL, the repository states PASS"


class YangMills:
    """yang_mills_su2 built once in setup; every README command's library
    call then runs on it with warm caches, in a seed-permuted order."""

    tail_pct = 50
    passes = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.T = theory_from_text(bundled_text("yang_mills_su2"))
        self.sym = self.T.symmetry("gauge")

    def ops(self, k):
        T, sym = self.T, self.sym
        t0 = slicing.SliceSpec(transverse=0)
        ops = [
            Op("el", lambda: T.EL, _nonzero_form),
            Op("theta", lambda: T.theta, _nonzero_form),
            Op("omega", lambda: T.omega, _nonzero_form),
            Op("project", lambda: T.Lh, _nonzero_form),
            Op("equiv", lambda: T.lagrangians_equivalent(T)[0], _passed),
            Op("noether", lambda: (noether.noether_cone(T, sym),
                                   noether.verify_noether1(T, sym).passed),
               lambda r: _passed(r[1])),
            Op("noether2", lambda: noether.noether2(T, sym), _ym_noether2),
            Op("canonical", lambda: _ym_canonical(T, sym, t0), lambda r: None),
            Op("corner", lambda: slicing.verify_corner_master(slicing.corner_data(
                slicing.restrict_to_slice(T, slicing.SliceSpec(transverse=0, corner=1)),
                sym)).passed, _passed),
            Op("bv", lambda: bv.check_q_nilpotent(bv.bv_extend(T, sym)).passed,
               _passed),
            Op("cme", lambda: bv.verify_cme(bv.bv_extend(T, sym))[0].passed,
               _passed),
            Op("bvbfv", lambda: [r.passed for r in bv.verify_bvbfv(
                bv.bv_extend(T, sym),
                bv.bfv_extend(slicing.restrict_to_slice(T, t0), sym), t0)],
               lambda r: None, unjudged=True),
        ]
        for ident in noether.IDENTITY_NAMES:
            ops.append(Op(f"verify:{ident}",
                          lambda ident=ident: noether.verify_identity(
                              T, "gauge", ident).passed, _passed))
        random.Random(f"{self.seed}:{k}").shuffle(ops)
        return ops


def _ym_noether2(data):
    if not data.j.is_zero():                        # criterion 4
        return "external current j is not zero"
    if not (data.J - data.C - algebra.d_h(data.K)).is_zero():
        return "J != C + dK"
    return None


def _ym_canonical(T, sym, spec):
    sig = slicing.restrict_to_slice(T, spec)
    try:
        h = slicing.sigma_noether(sig, sym)
        slicing.split_constraint_flux(sig, sym, h)
        slicing.compute_ce_cocycle(sig, sym)
        return "descends"
    except DoesNotDescend:
        return "does not descend"


# ---------------------------------------------------------------- corpus

GAUGE = {"maxwell": ["gauge"], "maxwell_sourced": ["gauge"],
         "maxwell_first_order": ["gauge"], "chern_simons_su2": ["gauge"],
         "bf_abelian_4d": ["gaugeA", "gaugeB"]}
BUNDLED = ("point_particle", "scalar_field", "scalar_field_null", "maxwell",
           "maxwell_sourced", "maxwell_first_order", "chern_simons_su2",
           "bf_abelian_4d")
# Verdicts the repository states (criteria 7-9); other verdicts of these
# commands are recorded but not judged.
VERDICT_COMMANDS = ("corner", "bv", "cme", "bvbfv")
STATED_PASS = {("bv", "maxwell", "gauge"), ("cme", "maxwell", "gauge"),
               ("bv", "bf_abelian_4d", "gaugeA"), ("cme", "bf_abelian_4d", "gaugeA"),
               ("bvbfv", "maxwell", "gauge"), ("bvbfv", "bf_abelian_4d", "gaugeA")}
# Commands whose --json output is not a report at this commit; the timed op
# runs them in text mode and the conformance probe runs them with --json.
TEXT_MODE = ("corner", "mech flow")
# The report's "command" field where it differs from the subcommand.
REPORT_COMMAND = {"el": "E(L)", "project": "P(L)"}
KEPLER = ["--system", "kepler", "--t", "10", "--dt", "1e-3"]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _report(out, command):
    """The parsed varcalc.report.v1 document, or a reason it is not one."""
    try:
        doc = json.loads(out)
    except ValueError:
        return None, "--json output is not JSON"
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        return None, f"--json output is not a {SCHEMA} document"
    if doc.get("command") != command or not isinstance(doc.get("results"), list):
        return None, f"{SCHEMA} document lacks command {command!r} or results"
    return doc, None


class Corpus:
    """Every README command through ``varcalc.cli.main`` on the bundled
    theories (yang_mills_su2 aside), the mech commands and a seeded family
    of higher-derivative scalar theories; each op loads its theory afresh."""

    tail_pct = 90
    passes = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.generated = gentheories.generate(seed)
        self.paths = {}
        for g in self.generated:
            path = os.path.join(workdir, g.name + ".thy")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(g.text())
            self.paths[g.name] = path
        self.expected = None          # closed forms, built after the pass
        self.oracle = {}              # el text -> mismatch reason or None
        self._pending = []            # generated el rows awaiting the oracle

    def _specs(self):
        """(command, theory, extra argv, symmetry) for every op."""
        specs = []
        for t in BUNDLED:
            for c in ("el", "theta", "omega", "project"):
                specs.append((c, t, [], None))
            specs.append(("equiv", t, [t], None))
            syms = GAUGE.get(t, ["transl"] if t == "scalar_field" else [])
            for s in syms:
                specs.append(("noether", t, [], s))
                specs.append(("verify", t, ["--all"], s))
            for s in GAUGE.get(t, []):
                specs.append(("noether2", t, [], s))
                specs.append(("bv", t, [], s))
                specs.append(("cme", t, [], s))
                if s != "gaugeB":     # bfv_extend needs bracket data
                    specs.append(("bvbfv", t, ["--slice", "t=0"], s))
            if t in GAUGE:
                specs.append(("corner", t, ["--slice", "t=0", "--corner", "x=0"],
                              GAUGE[t][0]))
            if t != "scalar_field_null":
                sym = GAUGE[t][0] if t == "bf_abelian_4d" else None
                specs.append(("canonical", t, ["--slice", "t=0"], sym))
        specs.append(("canonical", "scalar_field_null", ["--slice", "v=0"], None))
        for g in self.generated:
            p = self.paths[g.name]
            for c in ("el", "theta", "omega", "project"):
                specs.append((c, p, [], None))
            specs.append(("equiv", p, [p], None))
            specs.append(("noether", p, [], None))
            specs.append(("verify", p, ["--all"], None))
        return specs

    def ops(self, k):
        ops = []
        for cmd, theory, extra, sym in self._specs():
            argv = [cmd, theory] + extra + (["--symmetry", sym] if sym else [])
            text = cmd in TEXT_MODE
            full = argv if text else ["--json"] + argv
            label = " ".join(os.path.basename(a) for a in argv)
            key = (cmd, theory, sym or "")
            judged = cmd not in VERDICT_COMMANDS or key in STATED_PASS
            ops.append(Op(label, lambda full=full: run_cli(full),
                          lambda r, key=key, text=text, judged=judged:
                          self._check(key, text, judged, r),
                          unjudged=not judged))
        mech = [(["mech", "flow"] + KEPLER, "mech flow"),
                (["mech", "reduce", "--q", "1,0,0", "--p", "0,1,0"], "mech reduce"),
                (["mech", "conserve"] + KEPLER, "mech conserve")]
        for argv, cmd in mech:
            text = cmd in TEXT_MODE
            full = argv if text else ["--json"] + argv
            ops.append(Op(" ".join(argv), lambda full=full: run_cli(full),
                          lambda r, cmd=cmd, text=text: self._check_mech(cmd, text, r)))
        random.Random(f"{self.seed}:{k}").shuffle(ops)
        return ops

    # -- checks ----------------------------------------------------------
    def _check(self, key, text, judged, res):
        cmd, theory, sym = key
        code, out, err = res
        if code not in (0, 1) or (judged and code != 0):
            return f"exit code {code}: {err.strip()[:120]}"
        if text:
            return None if ("PASS" in out or "FAIL" in out) else "no verdict line"
        doc, why = _report(out, REPORT_COMMAND.get(cmd, cmd))
        if why:
            return why
        rows = doc["results"]
        if cmd == "verify" and not all(r.get("passed") for r in rows):
            return "identity catalog has a FAIL row"
        if cmd == "noether" and rows[0].get("noether1") is not True:
            return "Noether I fails"
        if cmd == "equiv" and rows[0].get("equivalent") is not True:
            return "theory is not equivalent to itself"
        if judged and cmd in ("bv", "cme", "bvbfv"):
            flag = {"bv": "Q2", "cme": "passed", "bvbfv": "passed"}[cmd]
            if not all(r.get(flag) for r in rows):
                return "verdict is FAIL, the repository states PASS"
        if cmd == "el" and theory in self.paths.values():
            self._pending.append((theory, rows[0]))     # judged by finish()
            return None
        return self._closed_form(key, rows)

    def _check_mech(self, cmd, text, res):
        code, out, err = res
        if code != 0:
            return f"exit code {code}: {err.strip()[:120]}"
        if text:      # mech flow: CSV with t = 0, dt, ..., 10
            lines = out.splitlines()
            if lines[0] != "t,q0,q1,q2,p0,p1,p2" or len(lines) != 10002:
                return "trajectory CSV has the wrong shape"
            return None
        doc, why = _report(out, cmd)
        if why:
            return why
        if cmd == "mech conserve" and doc["results"][0].get("passed") is not True:
            return "conservation check fails"
        return None

    def _closed_form(self, key, rows):
        if self.expected is None:
            self.expected = _stated_closed_forms()
        want = self.expected.get(key)
        if want is None:
            return None
        row = rows[0] if key[0] != "canonical" else rows[1]
        for field, text in want.items():
            got = row.get(field)
            got = got.get("text") if isinstance(got, dict) else got
            if got != text:
                return f"{field} = {got!r}, the repository states {text!r}"
        return None

    def finish(self):
        """Judge the generated theories' E(L) against the sympy oracle; this
        imports sympy, so it runs after the peak RSS reading.  Returns one
        failure line per mismatching el op."""
        failures = []
        for path, row in self._pending:
            txt = row["text"]
            if txt not in self.oracle:
                g = next(g for g in self.generated if self.paths[g.name] == path)
                self.oracle[txt] = gentheories.oracle_mismatch(g, row)
            if self.oracle[txt]:
                failures.append(f"el {os.path.basename(path)}: {self.oracle[txt]}")
        self._pending = []
        return failures

    def known_failures(self):
        """Run the TEXT_MODE commands with --json: README says every command
        accepts --json.  Returns [(argv, reason or None)]."""
        out = []
        for cmd, theory, extra, sym in self._specs():
            if cmd != "corner":
                continue
            argv = ["--json", cmd, theory] + extra + ["--symmetry", sym]
            out.append((argv, _probe(argv, cmd)))
        argv = ["--json", "mech", "flow"] + KEPLER
        out.append((argv, _probe(argv, "mech flow")))
        return out


def _probe(argv, cmd):
    try:
        code, out, err = run_cli(argv)
    except Exception as e:       # the failure being recorded
        return f"{type(e).__name__}: {str(e)[:70]}"
    if code != 0:
        return f"exit code {code}"
    return _report(out, cmd)[1]


def _stated_closed_forms():
    """Closed forms pinned by acceptance criteria 1, 2, 3 and 6, rendered
    through the theory's own elaboration context."""
    def load(name):
        return theory_from_text(bundled_text(name))

    def r(T, text):
        return render_text(elaborate_form(T.ctx, text))

    ms = load("maxwell_sourced")
    pp = load("point_particle")
    m1 = load("maxwell_first_order")
    cs = load("chern_simons_su2")
    out = {
        ("el", "maxwell_sourced", ""): {
            "text": r(ms, "(d(star(d(A))) - jext) ∧ delta(A)")},
        ("noether", "maxwell_sourced", "gauge"): {
            "J": r(ms, "star(d(A)) ∧ d(xi)"), "S": r(ms, "d(xi) ∧ jext")},
        ("noether2", "maxwell_sourced", "gauge"): {
            "K": r(ms, "star(d(A)) * xi"), "j": r(ms, "xi * jext"),
            "C": r(ms, "-d(star(d(A))) * xi")},
        ("project", "point_particle", ""): {"text": r(
            pp, "(-1/2*m*(q0_,00*q0 + q1_,00*q1 + q2_,00*q2)"
                " - V(q0,q1,q2) + V(0,0,0)) * dx0")},
        ("project", "maxwell_first_order", ""): {"text": r(
            m1, "1/2*(B ∧ d(A) - d(B) ∧ A) - 1/2 * B ∧ star(B)")},
        ("project", "chern_simons_su2", ""): {"text": render_text(cs.L)},
    }
    for name, spec, text in (
            ("scalar_field", slicing.SliceSpec(transverse=0),
             "delta(Pi_phi) ∧ delta(phi) ∧ dx0"),
            ("scalar_field_null", slicing.SliceSpec(transverse=0),
             "delta(phi_,0) ∧ delta(phi) ∧ dx0 ∧ dx1")):
        sig = slicing.restrict_to_slice(load(name), spec)
        out[("canonical", name, "")] = {"omega_sigma": render_text(
            elaborate_form(ElabContext(sig.schart), text))}
    return out


WORKLOADS = {"suites": Suites, "ym": YangMills, "corpus": Corpus}
