"""Batch command-line front end.

Exit codes: 0 = all requested assertions pass, 1 = assertion failure,
2 = usage or parse error.  Each ``cmd_*`` returns ``(label, rows, text,
ok)`` and writes nothing; ``main`` alone writes the report, the
varcalc.report.v1 document of ``rows`` under --json and ``text``
otherwise, and maps ``ok`` to the exit code.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction
from importlib import resources

from .chart import DoesNotDescend, NotLocal, VarcalcError
from .render import form_json, render_text, report_json
from .verify import run_suites
from . import mech as mechmod


class UsageError(VarcalcError):
    pass


def _load_theory(path):
    from .theory import theory_from_text
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    else:
        name = path[:-4] if path.endswith(".thy") else path
        try:
            text = resources.files("varcalc.theories").joinpath(
                name + ".thy").read_text(encoding="utf-8")
        except FileNotFoundError:
            raise UsageError(f"theory file not found: {path}")
    env = os.environ.get("VARCALC_JET_CUTOFF")
    if env and not (env.isascii() and env.isdigit()):
        raise UsageError(f"VARCALC_JET_CUTOFF must be a non-negative integer, got {env!r}")
    try:
        return theory_from_text(text, jet_cutoff=int(env) if env else None)
    except VarcalcError as e:
        if e.line is None:
            raise
        raise UsageError(f"{path}:{e}") from e


def _parse_slice(theory, slice_arg, corner_arg=None, with_corner=False):
    """The SliceSpec of --slice and --corner (``with_corner``: by default the
    first coordinate other than the slice direction).  A coordinate the
    theory does not name, or a corner in the slice direction, is a usage
    error; a nonzero coordinate value is a typed refusal."""
    from .slicing import SliceSpec
    names = list(theory.chart.coord_names)

    def coordinate(arg, flag, what):
        nm, _, val = arg.partition("=")
        if nm not in names:
            raise UsageError(f"unknown coordinate {nm!r} in {flag}; "
                             f"coordinates: {', '.join(names)}")
        try:
            value = Fraction(val or 0)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"{flag} expects NAME=0, got {arg!r}") from None
        if value:
            raise VarcalcError(f"{what} sit at coordinate value 0")
        return names.index(nm)

    trans = coordinate(slice_arg, "--slice", "slices") if slice_arg else 0
    corner = coordinate(corner_arg, "--corner", "corners") if corner_arg else None
    if corner == trans:
        raise UsageError("--corner must name a direction other than the --slice one")
    if with_corner and corner is None:
        corner = next((mu for mu in range(len(names)) if mu != trans), None)
        if corner is None:
            raise VarcalcError("corner needs a chart of dimension >= 2")
    return SliceSpec(transverse=trans, corner=corner)


def _pick_symmetry(theory, name):
    if name:
        if name not in theory.symmetries:
            raise UsageError(f"unknown symmetry {name!r}; declared: "
                             f"{', '.join(theory.symmetries) or 'none'}")
        return theory.symmetries[name]
    if not theory.symmetries:
        raise VarcalcError("theory declares no symmetry")
    if len(theory.symmetries) == 1:
        return next(iter(theory.symmetries.values()))
    local = [s for s in theory.symmetries.values() if s.is_local]
    if len(local) == 1:
        return local[0]
    raise VarcalcError(
        "theory has several symmetries; pick one with --symmetry "
        f"({', '.join(theory.symmetries)})")


def _text(*lines):
    """A text report: one line per argument."""
    return "".join(f"{line}\n" for line in lines)


# the single-form commands: name -> (label, Theory attribute)
FORMS = {"el": ("E(L)", "EL"), "theta": ("theta", "theta"),
         "omega": ("omega", "omega"), "project": ("P(L)", "Lh")}


def cmd_form(args):
    label, attr = FORMS[args.cmd]
    form = form_json(getattr(_load_theory(args.theory), attr))
    return label, [form], _text(f"{label}: {form['text']}"), True


def cmd_equiv(args):
    T = _load_theory(args.theory)
    T2 = _load_theory(args.other)
    same, witness = T.lagrangians_equivalent(T2)
    rows = [{"equivalent": same}]
    lines = [f"equivalent: {same}"]
    if same:
        const, prim = map(render_text, witness)
        rows.append({"constant_part": const, "d_primitive": prim})
        lines.append(f"difference = {const} + d({prim})")
    return "equiv", rows, _text(*lines), True


def cmd_noether(args):
    from .noether import noether_cone, verify_noether1
    T = _load_theory(args.theory)
    sym = _pick_symmetry(T, args.symmetry)
    S, J = map(form_json, noether_cone(T, sym))
    rep = verify_noether1(T, sym)
    text = _text(f"S = {S['text']}", f"J = {J['text']}", rep.line())
    return "noether", [{"S": S, "J": J, "noether1": rep.passed}], text, rep.passed


def cmd_noether2(args):
    from .noether import noether2
    T = _load_theory(args.theory)
    sym = _pick_symmetry(T, args.symmetry)
    data = noether2(T, sym)
    row = {nm: form_json(getattr(data, nm)) for nm in ("C", "K", "j", "S")}
    text = _text(f"J = {render_text(data.J)}",
                 *(f"{nm} = {row[nm]['text']}" for nm in ("C", "K", "j")),
                 "PASS  J = C + dK and C + j vanishes on shell")
    return "noether2", [row], text, True


def cmd_verify(args):
    from .noether import IDENTITY_NAMES, verify_identity
    suites = args.suites or not args.theory
    if args.cases is not None and args.cases < 1:
        raise UsageError(f"--cases must be at least 1, got {args.cases}")
    if not suites and (args.seed is not None or args.cases is not None):
        raise UsageError("--seed and --cases need --suites when a theory is given")
    if not args.theory and (args.identity or args.all or args.symmetry):
        raise UsageError("--identity, --all and --symmetry need a theory")
    if args.identity is not None and args.identity not in IDENTITY_NAMES:
        raise UsageError(f"unknown identity {args.identity!r}; "
                         f"known: {', '.join(IDENTITY_NAMES)}")
    if args.theory:
        T = _load_theory(args.theory)
        if args.symmetry:
            _pick_symmetry(T, args.symmetry)
        elif not T.symmetries and args.identity not in (None, "thm:dbom"):
            raise VarcalcError("theory declares no symmetry")
    rows, lines = [], []
    ok = True
    if suites:
        seed, cases = args.seed or 0, args.cases or 200
        ok, rows = run_suites(seed, cases)
        lines.append(f"seed={seed} cases={cases}")
        for r in rows[1:]:
            lines.append(f"{'FAIL' if r['failed'] else 'PASS'}  {r['identity']}  "
                         f"({r['checked']} cases, {r['failed']} failed)")
    if args.theory:
        idents = [args.identity] if args.identity else IDENTITY_NAMES
        syms = [args.symmetry] if args.symmetry else list(T.symmetries)
        if not syms:        # thm:dbom alone reads no symmetry
            syms, idents = [None], ["thm:dbom"]
        for sname in syms:
            for ident in idents:
                try:
                    rep = verify_identity(T, sname, ident)
                    passed, detail = rep.passed, rep.detail
                except NotLocal:
                    passed, detail = True, "skipped: needs a local symmetry"
                except VarcalcError as e:
                    passed, detail = False, str(e)
                ok = ok and passed
                rows.append({"identity": ident, "symmetry": sname,
                             "passed": passed, "detail": detail})
                lines.append(
                    f"{'PASS' if passed else 'FAIL'}  {sname or '-'}  {ident}  {detail}")
    return "verify", rows, _text(*lines), ok


def cmd_canonical(args):
    from .slicing import (restrict_to_slice, sigma_noether,
                          split_constraint_flux, compute_ce_cocycle)
    T = _load_theory(args.theory)
    sig = restrict_to_slice(T, _parse_slice(T, args.slice))
    omega = form_json(sig.omega_sigma)
    rows = [{"pairing": sig.pairing}, {"omega_sigma": omega}]
    lines = [f"field pairing: {sig.pairing}", f"omega_Sigma = {omega['text']}"]
    if args.symmetry or any(s.is_local for s in T.symmetries.values()):
        sym = _pick_symmetry(T, args.symmetry)
        try:
            H = sigma_noether(sig, sym)
            H0, hf = split_constraint_flux(sig, sym, H)
            kap = {str(k): render_text(v)
                   for k, v in compute_ce_cocycle(sig, sym).items()}
        except DoesNotDescend as e:
            rows.append({"symmetry": sym.name, "does_not_descend": str(e)})
            lines += [f"symmetry = {sym.name}", f"does_not_descend = {e}"]
        else:
            for name, form in (("H", H), ("constraint_form", H0), ("flux_form", hf)):
                rendered = form_json(form)
                rows.append({name: rendered})
                lines.append(f"{name} = {rendered['text']}")
            rows.append({"kappa": kap})
            lines.append(f"kappa = {kap}")
    return "canonical", rows, _text(*lines), True


def cmd_corner(args):
    from .slicing import restrict_to_slice, corner_data, verify_corner_master
    T = _load_theory(args.theory)
    spec = _parse_slice(T, args.slice, args.corner, with_corner=True)
    sig = restrict_to_slice(T, spec)
    sym = _pick_symmetry(T, args.symmetry)
    cd = corner_data(sig, sym)
    rep = verify_corner_master(cd)
    densities = {str(k): v for k, v in cd.h_densities.items()}
    rows = [{"corner_densities": densities, "alpha": "<h_d, c>",
             "S": "1/2 <h_d, [c,c]> + 1/2 k(c,c)", "master_equation": rep.passed,
             "detail": rep.detail}]
    text = _text(f"h_d densities: {cd.h_densities}", rep.line())
    return "corner", rows, text, rep.passed


def cmd_bv(args):
    from .bv import bv_extend, check_q_nilpotent
    T = _load_theory(args.theory)
    sym = _pick_symmetry(T, args.symmetry)
    bv = bv_extend(T, sym)
    rep = check_q_nilpotent(bv)
    L = form_json(bv.L)
    text = _text(f"L_BV = {L['text']}", rep.line())
    return "bv", [{"L_BV": L, "Q2": rep.passed}], text, rep.passed


def cmd_cme(args):
    from .bv import bv_extend, verify_cme
    T = _load_theory(args.theory)
    sym = _pick_symmetry(T, args.symmetry)
    bv = bv_extend(T, sym)
    rep, prim = verify_cme(bv)
    prim = form_json(prim)
    text = _text(rep.line(), f"primitive = {prim['text']}")
    return "cme", [{"passed": rep.passed, "primitive": prim}], text, rep.passed


def cmd_bvbfv(args):
    from .slicing import restrict_to_slice
    from .bv import bv_extend, bfv_extend, verify_bvbfv
    T = _load_theory(args.theory)
    sym = _pick_symmetry(T, args.symmetry)
    spec = _parse_slice(T, args.slice)
    sig = restrict_to_slice(T, spec)
    bfv = bfv_extend(sig, sym)
    bv = bv_extend(T, sym)
    reps = verify_bvbfv(bv, bfv, spec)
    rows = [{"condition": r.name, "passed": r.passed, "detail": r.detail}
            for r in reps]
    return ("bvbfv", rows, _text(*(r.line() for r in reps)),
            all(r.passed for r in reps))


_SYSTEMS = {"kepler": mechmod.kepler_system, "harmonic": mechmod.harmonic_system,
            "free": mechmod.free_system}


def _mech_state(args, dim):
    def vector(text, flag):
        try:
            v = [float(x) for x in text.split(",")]
        except ValueError:
            v = []
        if len(v) != dim:
            raise UsageError(f"{flag} expects {dim} comma-separated numbers, got {text!r}")
        if not all(map(math.isfinite, v)):
            raise UsageError(f"{flag} must be finite, got {text!r}")
        return v
    return mechmod.PhasePoint(vector(args.q, "--q"), vector(args.p, "--p"))


MAX_STEPS = 10 ** 6      # the longest flow the CLI integrates and stores


def cmd_mech(args):
    sys_f = _SYSTEMS[args.system]()
    if args.mech_cmd == "conserve" and not 0 <= (args.tol or 0) < math.inf:
        raise UsageError(f"--tol must be finite and non-negative, got {args.tol}")
    if args.mech_cmd in ("flow", "conserve"):
        for flag, value in (("--t", args.t), ("--dt", args.dt)):
            if not math.isfinite(value):
                raise UsageError(f"{flag} must be finite, got {value}")
        if not args.dt > 0:
            raise UsageError(f"--dt must be positive, got {args.dt}")
        steps = args.t / args.dt           # flow takes round(t / dt) steps
        if not steps > 0.5:
            raise UsageError(f"--t {args.t} with --dt {args.dt} gives fewer "
                             "than two samples")
        if steps > MAX_STEPS + 0.5:
            raise UsageError(f"--t {args.t} with --dt {args.dt} gives more "
                             f"than {MAX_STEPS} steps")
    st = _mech_state(args, sys_f.dim)
    if args.mech_cmd == "reduce":
        red = mechmod.reduce_so3(st)
        doc = {"r": red.r, "p_r": red.p_r, "l": red.ell}
        note = ["singular stratum (l = 0): reduced space is T*R/Z2"] \
            if red.ell == 0 else []
        return "mech reduce", [doc], _text(*note, doc), True
    traj = mechmod.flow(sys_f, st, args.t, args.dt, integrator=args.integrator)
    if args.mech_cmd == "conserve":
        rep = mechmod.check_conservation(sys_f, traj)
        tol = args.tol if args.tol is not None else mechmod.TOL["J_drift"]
        ok = rep["J_drift"] <= tol
        return ("mech conserve", [dict(rep, passed=ok, tol=tol)],
                _text(f"{rep} {'PASS' if ok else 'FAIL'}"), ok)
    csv = traj.to_csv() if args.json or not args.csv else None
    rows = []
    if args.json:     # a text run need not hold one dict per sample
        header, *lines = csv.splitlines()
        cols = header.split(",")
        rows = [dict(zip(cols, map(float, line.split(",")))) for line in lines]
    if args.csv:      # the file gets its rows as they are formatted
        with open(args.csv, "w") as fh:
            traj.write_csv(fh)
        return "mech flow", rows, _text(f"wrote {args.csv} ({len(traj.t)} samples)"), True
    return "mech flow", rows, csv, True


@functools.cache
def build_parser():
    """The varcalc parser, built once per process: parse_args keeps no state
    between calls, and argparse reads COLUMNS and sys.stderr when it
    formats a message, not when the parser is built."""
    ap = argparse.ArgumentParser(
        prog="varcalc",
        description="Symbolic variational calculus on coordinate charts")
    ap.add_argument("--json", action="store_true", help="emit varcalc.report.v1 JSON")
    sub = ap.add_subparsers(dest="cmd", required=True)

    metavars = {"--slice": "t=0", "--corner": "x1=0"}

    def add(name, fn, *flags, nargs=None):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("theory", nargs=nargs, help="theory file (.thy) or bundled name")
        for flag in flags:
            p.add_argument(flag, default=None, metavar=metavars.get(flag))
        return p

    for name in FORMS:
        add(name, cmd_form)
    pe = add("equiv", cmd_equiv)
    pe.add_argument("other", help="second theory file")
    add("noether", cmd_noether, "--symmetry")
    add("noether2", cmd_noether2, "--symmetry")
    # verify may run suites without a theory
    pv = add("verify", cmd_verify, "--symmetry", nargs="?")
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--cases", type=int, default=None)
    which = pv.add_mutually_exclusive_group()
    which.add_argument("--identity", default=None)
    which.add_argument("--all", action="store_true",
                       help="every identity (the default)")
    pv.add_argument("--suites", action="store_true",
                    help="run the randomized homotopy identity suites")
    add("canonical", cmd_canonical, "--symmetry", "--slice")
    add("corner", cmd_corner, "--symmetry", "--slice", "--corner")
    add("bv", cmd_bv, "--symmetry")
    add("cme", cmd_cme, "--symmetry")
    add("bvbfv", cmd_bvbfv, "--symmetry", "--slice")

    # each mech subcommand accepts only the flags it reads
    msub = sub.add_parser("mech").add_subparsers(dest="mech_cmd", required=True)
    for name in ("reduce", "flow", "conserve"):
        p = msub.add_parser(name)
        p.set_defaults(fn=cmd_mech)
        p.add_argument("--system", choices=sorted(_SYSTEMS), default="kepler")
        p.add_argument("--q", default="1,0,0")
        p.add_argument("--p", default="0,1,0")
        if name != "reduce":
            p.add_argument("--t", type=float, default=10.0)
            p.add_argument("--dt", type=float, default=1e-3)
            p.add_argument("--integrator", choices=["rk4", "leapfrog"], default="rk4")
        if name == "flow":
            p.add_argument("--csv", default=None)
        if name == "conserve":
            p.add_argument("--tol", type=float, default=None)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        label, rows, text, ok = args.fn(args)
        if args.json:
            print(report_json(label, rows))
        else:
            sys.stdout.write(text)
        return 0 if ok else 1
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except VarcalcError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
