"""One benchmark process: set up a workload, run its passes, report.

Started by run.py in a fresh interpreter, always single threaded, with one
closed-loop client: each op starts when the previous one has returned.
Protocol on stdout: the line "ready" as soon as set-up is done (run.py
times set-up from process start to that line), then, unless --setup-only,
one JSON line with the measurements.  Ops capture their own stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_varcalc():
    """Import varcalc from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import varcalc
    where = os.path.dirname(os.path.abspath(varcalc.__file__))
    if where != os.path.join(SRC, "varcalc"):
        raise SystemExit(f"varcalc imported from {where}, not from {SRC}")
    return varcalc


REF_NOMINAL_S = 0.010      # reference-kernel time that defines one "second"
REF_PERIOD_S = 0.2         # the host's speed is sampled this often
REF_WINDOW_S = 0.5         # an op is scaled by the samples this close to it


def reference_kernel():
    """Seconds taken by a fixed piece of pure-Python work with varcalc's mix
    of exact rationals, tuple keys, dict updates and small sorts."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 2200):
        acc += Fraction(i % 13 - 6, i % 97 + 1)
        key = (("j", i % 5, (i % 3, 1)), ("v", i % 7, (0, i % 2)))
        table[key] = table.get(key, 0) + 1
        sorted(key)
    return time.perf_counter() - t0


class Speedometer:
    """Samples the host's speed every REF_PERIOD_S, also in the middle of an
    op, from a SIGALRM handler that runs the reference kernel.

    The host is shared and its speed swings by up to 1.7x within seconds,
    which moved identical runs by 15-30%.  An op's time is scaled by
    REF_NOMINAL_S / (mean kernel time of the samples within REF_WINDOW_S
    of the op), and the time the handler took is not counted in the op."""

    def __init__(self):
        self.samples = []          # (time, kernel seconds)
        self.stolen = 0.0          # seconds spent in the handler
        self._busy = False

    def sample(self, *_signal):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append((t0, reference_kernel()))
        self.stolen += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scale(self, t0, t1):
        near = [r for t, r in self.samples
                if t0 - REF_WINDOW_S <= t <= t1 + REF_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - t0))[1]]
        return REF_NOMINAL_S * len(near) / sum(near)


def run_pass(ops, tracer=None):
    """Run ops back to back.  Untraced passes are calibrated by a
    Speedometer; traced passes report raw times, because the sampler would
    run inside the spans.  Returns (raw wall_s, calibrated wall_s,
    [(op, result, error, raw secs, calibrated secs)]), where the walls are
    sums over the ops."""
    clock = time.perf_counter
    meter = Speedometer()
    timed_ops = []            # (op, res, err, start, end, raw secs)
    with meter if tracer is None else contextlib.nullcontext():
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
                tracer.active = True
            stolen, t0 = meter.stolen, clock()
            try:
                res, err = op.run(), None
            except Exception as e:    # any raise is a failed op, recorded below
                res, err = None, f"{type(e).__name__}: {str(e)[:120]}"
            t1 = clock()
            if tracer is not None:
                tracer.active = False
            timed_ops.append((op, res, err, t0, t1, t1 - t0 - (meter.stolen - stolen)))
    records = [(op, res, err, dt, dt * (meter.scale(t0, t1) if tracer is None else 1.0))
               for op, res, err, t0, t1, dt in timed_ops]
    return sum(r[3] for r in records), sum(r[4] for r in records), records


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_varcalc()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace_out:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install(extra_namespaces=[workloads])

    walls, raw_walls, lat, raw_lat, failures, unjudged = [], [], [], [], [], []
    attempted = 0
    for k in range(wl.passes):
        ops = wl.ops(k)
        raw_wall, wall, records = run_pass(ops, tracer)
        walls.append(wall)
        raw_walls.append(raw_wall)
        for op, res, err, raw_dt, dt in records:
            attempted += 1
            lat.append(dt)
            raw_lat.append(raw_dt)
            why = err or op.check(res)
            if why:
                failures.append(f"{op.label}: {why}")
            elif op.unjudged and k == 0:
                unjudged.append(f"{op.label}: {_verdict(res)}")
        del ops, records
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        layers["inclusive_s"] = dict(tracer.incl)
        tracer.dump(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                     "passes": wl.passes})
    if hasattr(wl, "finish"):
        failures += wl.finish()
    known = []
    if hasattr(wl, "known_failures"):
        known = [[" ".join(os.path.basename(a) for a in argv), why]
                 for argv, why in wl.known_failures()]

    lat_sorted = sorted(lat)
    tail = _nearest_rank(lat_sorted, wl.tail_pct)
    out = {
        "passes": wl.passes, "attempted": attempted, "failures": failures,
        "unjudged": unjudged, "known_failures": known,
        "wall_s": sum(walls), "raw_wall_s": sum(raw_walls),
        "raw_op_p50_ms": statistics.median(raw_lat) * 1e3,
        "op_p50_ms": statistics.median(lat_sorted) * 1e3,
        "op_tail_ms": tail * 1e3, "tail_pct": wl.tail_pct,
        "tail_beyond": sum(1 for x in lat_sorted if x > tail),
        "peak_rss_mb": peak_rss_mb, "layers": layers,
    }
    print(json.dumps(out), flush=True)
    return 0


def _nearest_rank(sorted_vals, pct):
    idx = max(0, -(-len(sorted_vals) * pct // 100) - 1)
    return sorted_vals[idx]


def _verdict(res):
    if isinstance(res, tuple):           # (exit code, stdout, stderr)
        return {0: "PASS", 1: "FAIL"}.get(res[0], f"exit {res[0]}")
    if isinstance(res, list):
        return " ".join("PASS" if r else "FAIL" for r in res)
    return str(res)


if __name__ == "__main__":
    sys.exit(main())
