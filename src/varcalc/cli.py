"""Batch command-line front end.

Exit codes: 0 = all requested assertions pass, 1 = assertion failure,
2 = usage or parse error.  With --json a varcalc.report.v1 document is
written to stdout.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from importlib import resources

import numpy as np

from .chart import VarcalcError
from .render import form_json, render_text, report_json
from .verify import run_suites
from . import mech as mechmod


class UsageError(VarcalcError):
    pass


def _load_theory(path):
    from .theory import theory_from_text
    if os.path.exists(path):
        text = open(path, encoding="utf-8").read()
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


def _parse_slice(theory, slice_arg, corner_arg=None):
    from .slicing import SliceSpec
    names = list(theory.chart.coord_names)

    def coordinate(arg, flag, what):
        nm, _, val = arg.partition("=")
        if nm not in names:
            raise VarcalcError(f"unknown coordinate {nm!r} in {flag}")
        if val not in ("", "0"):
            raise VarcalcError(f"{what} sit at coordinate value 0")
        return names.index(nm)

    trans = coordinate(slice_arg, "--slice", "slices") if slice_arg else 0
    corner = coordinate(corner_arg, "--corner", "corners") if corner_arg else None
    return SliceSpec(transverse=trans, corner=corner)


def _pick_symmetry(theory, name):
    if name:
        return theory.symmetry(name)
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


# the single-form commands: name -> (label, Theory attribute)
FORMS = {"el": ("E(L)", "EL"), "theta": ("theta", "theta"),
         "omega": ("omega", "omega"), "project": ("P(L)", "Lh")}


def cmd_form(args):
    label, attr = FORMS[args.cmd]
    form = getattr(_load_theory(args.theory), attr)
    if args.json:
        print(report_json(label, [form_json(form)]))
    else:
        print(f"{label}: {render_text(form)}")
    return 0


def cmd_equiv(args):
    T = _load_theory(args.theory)
    T2 = _load_theory(args.other)
    same, witness = T.lagrangians_equivalent(T2)
    results = [{"equivalent": same}]
    if same:
        const, prim = witness
        results.append({"constant_part": render_text(const),
                        "d_primitive": render_text(prim)})
    if args.json:
        print(report_json("equiv", results))
    else:
        print(f"equivalent: {same}")
        if same:
            print(f"difference = {render_text(witness[0])} + d({render_text(witness[1])})")
    return 0


def cmd_noether(args):
    from .noether import noether_cone, verify_noether1
    T = _load_theory(args.theory)
    sym = _pick_symmetry(T, args.symmetry)
    S, J = noether_cone(T, sym)
    rep = verify_noether1(T, sym)
    if args.json:
        print(report_json("noether", [
            {"S": form_json(S), "J": form_json(J),
             "noether1": rep.passed}]))
    else:
        print(f"S = {render_text(S)}")
        print(f"J = {render_text(J)}")
        print(rep.line())
    return 0 if rep.passed else 1


def cmd_noether2(args):
    from .noether import noether2
    T = _load_theory(args.theory)
    sym = _pick_symmetry(T, args.symmetry)
    data = noether2(T, sym)
    if args.json:
        print(report_json("noether2", [{
            "C": form_json(data.C), "K": form_json(data.K),
            "j": form_json(data.j), "S": form_json(data.S)}]))
    else:
        for nm in ("J", "C", "K", "j"):
            print(f"{nm} = {render_text(getattr(data, nm))}")
        print("PASS  J = C + dK and C + j vanishes on shell")
    return 0


def cmd_verify(args):
    from .noether import IDENTITY_NAMES, verify_identity
    from .chart import NotLocal
    rows = []
    ok = True
    if args.cases < 1:
        raise UsageError(f"--cases must be at least 1, got {args.cases}")
    if args.suites or not args.theory:
        sok, rows2 = run_suites(args.seed, args.cases)
        ok = ok and sok
        rows.extend(rows2)
    if args.theory:
        T = _load_theory(args.theory)
        idents = IDENTITY_NAMES if (args.all or not args.identity) \
            else [args.identity]
        syms = ([args.symmetry] if args.symmetry else list(T.symmetries))
        for sname in syms:
            for ident in idents:
                try:
                    rep = verify_identity(T, sname, ident)
                    rows.append({"identity": ident, "symmetry": sname,
                                 "passed": rep.passed, "detail": rep.detail})
                    ok = ok and rep.passed
                except NotLocal:
                    rows.append({"identity": ident, "symmetry": sname,
                                 "passed": True, "detail": "skipped: needs a local symmetry"})
                except VarcalcError as e:
                    rows.append({"identity": ident, "symmetry": sname,
                                 "passed": False, "detail": str(e)})
                    ok = False
    if args.json:
        print(report_json("verify", rows))
    else:
        for r in rows:
            if "identity" in r and "passed" in r:
                print(f"{'PASS' if r['passed'] else 'FAIL'}  "
                      f"{r.get('symmetry','')}  {r['identity']}  {r.get('detail','')}")
            elif "identity" in r:
                status = "PASS" if not r["failed"] else "FAIL"
                print(f"{status}  {r['identity']}  ({r['checked']} cases, "
                      f"{r['failed']} failed)")
            else:
                print(f"seed={r.get('seed')} cases={r.get('cases')}")
    return 0 if ok else 1


def cmd_canonical(args):
    from .slicing import (restrict_to_slice, sigma_noether,
                          split_constraint_flux, compute_ce_cocycle)
    T = _load_theory(args.theory)
    sig = restrict_to_slice(T, _parse_slice(T, args.slice))
    from .chart import DoesNotDescend
    rows = [{"pairing": sig.pairing},
            {"omega_sigma": form_json(sig.omega_sigma)}]
    if args.symmetry or any(s.is_local for s in T.symmetries.values()):
        sym = _pick_symmetry(T, args.symmetry)
        try:
            H = sigma_noether(sig, sym)
            H0, hf = split_constraint_flux(sig, sym, H)
            kap = compute_ce_cocycle(sig, sym)
            rows += [{"H": form_json(H)}, {"constraint_form": form_json(H0)},
                     {"flux_form": form_json(hf)},
                     {"kappa": {str(k): render_text(v) for k, v in kap.items()}}]
        except DoesNotDescend as e:
            rows.append({"symmetry": sym.name, "does_not_descend": str(e)})
    if args.json:
        print(report_json("canonical", rows))
    else:
        print("field pairing:", rows[0]["pairing"])
        print("omega_Sigma =", rows[1]["omega_sigma"]["text"])
        for r in rows[2:]:
            for k, v in r.items():
                print(f"{k} = {v['text'] if isinstance(v, dict) and 'text' in v else v}")
    return 0


def cmd_corner(args):
    from .slicing import restrict_to_slice, corner_data, verify_corner_master
    T = _load_theory(args.theory)
    if not args.corner and T.chart.dim < 2:
        raise VarcalcError("corner needs a chart of dimension >= 2")
    spec = _parse_slice(T, args.slice, args.corner or
                        f"{T.chart.coord_names[1]}=0")
    sig = restrict_to_slice(T, spec)
    sym = _pick_symmetry(T, args.symmetry)
    cd = corner_data(sig, sym)
    rep = verify_corner_master(cd)
    densities = {str(k): v for k, v in cd.h_densities.items()}
    rows = [{"corner_densities": densities, "alpha": cd.alpha_text,
             "S": cd.s_text, "master_equation": rep.passed,
             "detail": rep.detail}]
    if args.json:
        print(report_json("corner", rows))
    else:
        print("h_d densities:", cd.h_densities)
        print(rep.line())
    return 0 if rep.passed else 1


def cmd_bv(args):
    from .bv import bv_extend, check_q_nilpotent
    T = _load_theory(args.theory)
    sym = _pick_symmetry(T, args.symmetry)
    bv = bv_extend(T, sym)
    rep = check_q_nilpotent(bv)
    rows = [{"L_BV": form_json(bv.L), "Q2": rep.passed}]
    if args.json:
        print(report_json("bv", rows))
    else:
        print("L_BV =", render_text(bv.L))
        print(rep.line())
    return 0 if rep.passed else 1


def cmd_cme(args):
    from .bv import bv_extend, verify_cme
    T = _load_theory(args.theory)
    sym = _pick_symmetry(T, args.symmetry)
    bv = bv_extend(T, sym)
    rep, prim = verify_cme(bv)
    if args.json:
        print(report_json("cme", [{"passed": rep.passed,
                                   "primitive": form_json(prim)}]))
    else:
        print(rep.line())
        print("primitive =", render_text(prim))
    return 0 if rep.passed else 1


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
    ok = all(r.passed for r in reps)
    if args.json:
        print(report_json("bvbfv", [
            {"condition": r.name, "passed": r.passed, "detail": r.detail}
            for r in reps]))
    else:
        for r in reps:
            print(r.line())
    return 0 if ok else 1


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
        return np.array(v)
    return mechmod.PhasePoint(vector(args.q, "--q"), vector(args.p, "--p"))


MAX_STEPS = 10 ** 6      # the longest flow the CLI integrates and stores


def cmd_mech(args):
    sys_f = _SYSTEMS[args.system]()
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
    if args.mech_cmd == "flow":
        st = _mech_state(args, sys_f.dim)
        traj = mechmod.flow(sys_f, st, args.t, args.dt, integrator=args.integrator)
        csv = traj.to_csv()
        if args.csv:
            open(args.csv, "w").write(csv)
        if args.json:
            header, *lines = csv.splitlines()
            cols = header.split(",")
            print(report_json("mech flow", [
                dict(zip(cols, map(float, line.split(",")))) for line in lines]))
        elif args.csv:
            print(f"wrote {args.csv} ({len(traj.t)} samples)")
        else:
            sys.stdout.write(csv)
        return 0
    if args.mech_cmd == "reduce":
        st = _mech_state(args, sys_f.dim)
        red = mechmod.reduce_so3(st)
        if red.ell == 0:
            print("singular stratum (l = 0): reduced space is T*R/Z2")
        doc = {"r": red.r, "p_r": red.p_r, "l": red.ell}
        print(report_json("mech reduce", [doc]) if args.json else doc)
        return 0
    if args.mech_cmd == "conserve":
        st = _mech_state(args, sys_f.dim)
        traj = mechmod.flow(sys_f, st, args.t, args.dt, integrator=args.integrator)
        rep = mechmod.check_conservation(sys_f, traj)
        tol = args.tol if args.tol is not None else mechmod.TOL["J_drift"]
        ok = rep["J_drift"] <= tol
        if args.json:
            print(report_json("mech conserve", [dict(rep, passed=ok, tol=tol)]))
        else:
            print(rep, "PASS" if ok else "FAIL")
        return 0 if ok else 1
    return 2


def build_parser():
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
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--cases", type=int, default=200)
    pv.add_argument("--identity", default=None)
    pv.add_argument("--all", action="store_true")
    pv.add_argument("--suites", action="store_true",
                    help="run the randomized homotopy identity suites")
    add("canonical", cmd_canonical, "--symmetry", "--slice")
    add("corner", cmd_corner, "--symmetry", "--slice", "--corner")
    add("bv", cmd_bv, "--symmetry")
    add("cme", cmd_cme, "--symmetry")
    add("bvbfv", cmd_bvbfv, "--symmetry", "--slice")

    pm = sub.add_parser("mech")
    pm.set_defaults(fn=cmd_mech)
    pm.add_argument("mech_cmd", choices=["flow", "reduce", "conserve"])
    pm.add_argument("--system", choices=sorted(_SYSTEMS), default="kepler")
    pm.add_argument("--q", default="1,0,0")
    pm.add_argument("--p", default="0,1,0")
    pm.add_argument("--t", type=float, default=10.0)
    pm.add_argument("--dt", type=float, default=1e-3)
    pm.add_argument("--integrator", choices=["rk4", "leapfrog"], default="rk4")
    pm.add_argument("--csv", default=None)
    pm.add_argument("--tol", type=float, default=None)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
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
