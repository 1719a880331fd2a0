"""varcalc benchmark: time to an exact verdict, end to end and per layer.

    python3 bench/run.py --workload suites --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --report --seed 0

With --trace 0 the end-to-end metrics are measured with tracing off:
fresh interpreters each do the workload's fixed work for the seed (a
block) until --seconds have passed, and each metric is the median over
blocks; set-up is timed in at least SETUPS interpreters.  With --trace 1
one untraced and one traced block run, the per-layer metrics come from
the traced one, and the difference of their raw wall times is the
tracing overhead.  --report runs every workload both ways, traces each
twice to check that the per-layer counts repeat, and prints every metric
with its unit and sample count.  The last stdout line is always one JSON
object {correct, attempted, failed, metrics}.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from tracer import DETERMINISTIC, METRICS  # noqa: E402

SCHEMA = "varcalc-bench.v1"
WORKLOADS = ("suites", "ym", "corpus")
SETUPS = 3                 # set-ups per timed run; setup_s is their median
CHILD_TIMEOUT = 170.0
TAIL_NAME = {"suites": "op_p99_ms", "ym": "op_p50_ms (rank)", "corpus": "op_p90_ms"}


def child_env():
    env = dict(os.environ)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, workdir):
    """Run one worker; returns (set-up seconds, result dict or None).
    Set-up is timed from process start to the worker's "ready" line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workdir", workdir] + args
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit("benchmark worker timed out")
    if proc.returncode != 0 or first.strip() != "ready":
        raise SystemExit(f"benchmark worker failed (exit {proc.returncode})")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def metadata():
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"schema": SCHEMA, "git_sha": sha,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu}


def timed(workload, seed, seconds, workdir):
    """End-to-end metrics, tracing off.  A block is one fresh worker doing
    the workload's fixed work for the seed; blocks repeat until --seconds
    have passed, and each metric is the median over blocks."""
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [spawn(base + ["--setup-only"], workdir)[0] for _ in range(SETUPS - 1)]
    blocks = []
    start = time.perf_counter()
    while not blocks or time.perf_counter() - start < seconds:
        setup, res = spawn(base, workdir)
        setups.append(setup)
        blocks.append(res)
    out = {k: statistics.median(b[k] for b in blocks) for k in
           ("wall_s", "raw_wall_s", "op_p50_ms", "raw_op_p50_ms", "op_tail_ms",
            "peak_rss_mb")}
    out.update(setup_s=statistics.median(setups), setups=len(setups),
               blocks=len(blocks), passes=blocks[0]["passes"],
               tail_pct=blocks[0]["tail_pct"],
               tail_beyond=blocks[0]["tail_beyond"],
               ops_per_block=blocks[0]["attempted"],
               attempted=sum(b["attempted"] for b in blocks),
               failures=[f for b in blocks for f in b["failures"]],
               unjudged=blocks[0]["unjudged"],
               known_failures=blocks[0]["known_failures"])
    return out


def traced(workload, seed, workdir):
    """Per-layer metrics from a traced block, and the tracing overhead
    against an untraced block of the same work."""
    base = ["--workload", workload, "--seed", str(seed)]
    _, plain = spawn(base, workdir)
    out = os.path.join(workdir, "..", f"spans-{workload}-s{seed}.json")
    _, res = spawn(base + ["--trace-out", os.path.abspath(out)], workdir)
    res["untraced_wall_s"] = plain["raw_wall_s"]
    res["overhead_s"] = res["raw_wall_s"] - plain["raw_wall_s"]
    res["failures"] += plain["failures"]
    res["spans_file"] = os.path.relpath(os.path.abspath(out), ROOT)
    return res


END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))


def end_to_end(res):
    return {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(res):
    out = {}
    for name in METRICS:
        unit = "s" if name.endswith("_s") else (
            "count" if name.endswith((".calls", ".terms_out")) else "ratio")
        out[name] = {"value": res["layers"][name], "unit": unit}
    out["trace.wall_s"] = {"value": res["raw_wall_s"], "unit": "s"}
    out["trace.untraced_wall_s"] = {"value": res["untraced_wall_s"], "unit": "s"}
    out["trace.overhead_s"] = {"value": res["overhead_s"], "unit": "s"}
    return out


def print_timed(w, res):
    n, b = res["ops_per_block"], res["blocks"]
    per = f"median of n={b} blocks" if b > 1 else "n=1 block"
    print(f"{w} setup_s {res['setup_s']:.4f} s (median of n={res['setups']} set-ups)")
    print(f"{w} wall_s {res['wall_s']:.4f} s ({per} of {res['passes']} passes;"
          f" raw {res['raw_wall_s']:.4f} s)")
    print(f"{w} op_p50_ms {res['op_p50_ms']:.3f} ms ({per} of n={n} ops;"
          f" raw {res['raw_op_p50_ms']:.3f} ms)")
    print(f"{w} op_tail_ms {res['op_tail_ms']:.3f} ms = {TAIL_NAME[w]}: "
          f"p{res['tail_pct']} ({per} of n={n} ops, {res['tail_beyond']} beyond)")
    print(f"{w} fail_ratio {len(res['failures'])}/{res['attempted']} = "
          f"{len(res['failures']) / res['attempted']:.4f} (failed/attempted ops)")
    print(f"{w} peak_rss_mb {res['peak_rss_mb']:.1f} MB ({per}, one process each)")
    print_notes(w, res)


def print_notes(w, res):
    for line in res["failures"]:
        print(f"{w} FAILED {line}")
    for line in res["unjudged"]:
        print(f"{w} unjudged verdict (no stated verdict) {line}")
    known = res["known_failures"]
    if known:
        bad = [k for k in known if k[1]]
        print(f"{w} json_conformance {len(bad)}/{len(known)} --json ops fail "
              f"(untimed probe; README: every command accepts --json)")
        for argv, why in known:
            print(f"{w}   {'FAIL' if why else 'ok  '} {argv}{': ' + why if why else ''}")


def print_traced(w, res):
    print(f"{w} trace.wall_s {res['raw_wall_s']:.4f} s, untraced "
          f"{res['untraced_wall_s']:.4f} s, overhead {res['overhead_s']:.4f} s "
          f"(n=1 block each, {res['attempted']} ops); spans in {res['spans_file']}")
    layers, wall = res["layers"], res["raw_wall_s"]
    for name in METRICS:
        v = layers[name]
        if name.endswith("self_s"):
            incl = layers["inclusive_s"].get(name[:-len(".self_s")], 0.0)
            print(f"{w} {name} {v:.4f} s = {100 * v / wall:.1f}% of the raw traced "
                  f"wall; inclusive {incl:.4f} s = {100 * incl / wall:.1f}%")
        elif isinstance(v, int):
            print(f"{w} {name} {v}")
        else:
            print(f"{w} {name} {v:.4f}")


def result_line(res, metrics):
    print(json.dumps({"correct": not res["failures"], "attempted": res["attempted"],
                      "failed": len(res["failures"]), "metrics": metrics}))


def report(seed, seconds, workdir):
    """Every workload: timed run, then two traced runs whose counts must match."""
    print("meta " + json.dumps(metadata()))
    ok = True
    total = {"attempted": 0, "failures": []}
    for w in WORKLOADS:
        res = timed(w, seed, seconds, workdir)
        print_timed(w, res)
        a = traced(w, seed, workdir)
        print_traced(w, a)
        b = traced(w, seed, workdir)
        diff = [m for m in DETERMINISTIC if a["layers"][m] != b["layers"][m]]
        print(f"{w} determinism {'identical' if not diff else 'DIFFERS: ' + ', '.join(diff)}"
              f" ({len(DETERMINISTIC)} counts, two traced runs at seed {seed}); "
              f"second overhead {b['overhead_s']:.4f} s")
        ok = ok and not diff
        total["attempted"] += res["attempted"]
        total["failures"] += res["failures"]
    if not ok:
        total["failures"].append("per-layer counts differ between traced runs")
    result_line(total, {})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true",
                    help="run every workload, timed and traced, and print all metrics")
    args = ap.parse_args(argv)
    if not args.report and not args.workload:
        ap.error("give --workload or --report")
    if not os.path.isfile(os.path.join(ROOT, "src", "varcalc", "__init__.py")):
        print(f"error: no varcalc source under {ROOT}/src", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.report:
            report(args.seed, args.seconds, workdir)
            return 0
        print("meta " + json.dumps(metadata()))
        if args.trace:
            res = traced(args.workload, args.seed, workdir)
            print_traced(args.workload, res)
            print_notes(args.workload, res)
            result_line(res, per_layer(res))
        else:
            res = timed(args.workload, args.seed, args.seconds, workdir)
            print_timed(args.workload, res)
            result_line(res, end_to_end(res))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
