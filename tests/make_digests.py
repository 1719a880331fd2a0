"""The pinned command-line outputs: one digest per argv of a fixed sweep.

``cli_digests.json`` maps each argv of ``RUNS`` (joined by spaces) to the
sha256 of its stdout, stderr and exit code, as ``cli.main`` produces them
in process, and to the first line of its stdout cut at 120 characters.
The sweep covers every command in text and ``--json`` on the bundled
theories, every symmetry, every coordinate slice and corner pair,
``equiv`` pairs, malformed files, usage errors and short ``mech`` runs.
``tests/test_cli_digests.py`` recomputes every entry.  A change that
moves an output on purpose regenerates the file and names each entry that
moved:

    PYTHONPATH=src python tests/make_digests.py

Every run sees a working directory that holds the files of ``FILES`` and
``SLICED`` and nothing else, so that the paths in error messages are the
same on every host.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "cli_digests.json")

# bundled theory -> (coordinate names, symmetry names)
THEORIES = {
    "bf_abelian_4d": ("txyz", ("gaugeA", "gaugeB")),
    "chern_simons_su2": ("txy", ("gauge",)),
    "maxwell": ("txyz", ("gauge",)),
    "maxwell_first_order": ("txyz", ("gauge",)),
    "maxwell_sourced": ("txyz", ("gauge",)),
    "point_particle": ("t", ()),
    "scalar_field": ("tx", ("transl",)),
    "scalar_field_null": ("vuy", ()),
    "yang_mills_su2": ("txyz", ("gauge",)),
}

# theory files with faults (and two valid ones) for the parse and
# elaboration paths
FILES = {
    "malformed.thy": "theory t\ndimension 2\nmetric 1 0 / 0\n",
    "undeclared.thy": "theory t\ndimension 2\nsignature + +\n"
                      "lagrangian nosuch * star(1)\n",
    "open_source.thy": "theory t\ndimension 2\ncoordinates x y\nsignature + +\n"
                       "field q scalar\nsource j scalar = y * dx0\n"
                       "lagrangian q * q * vol\n",
    "duplicate.thy": "theory t\ndimension 2\nsignature + +\nfield q scalar\n"
                     "field q scalar\nlagrangian q * q * vol\n",
    "bidegree.thy": "theory t\ndimension 2\nsignature + +\nfield q scalar\n"
                    "lagrangian q * dx0\n",
    "duplicate_constant.thy": "theory t\ndimension 2\nsignature + +\nconstant m\n"
                              "constant m\nfield q scalar\n"
                              "lagrangian m * q * q * vol\n",
    "duplicate_function.thy": "theory t\ndimension 2\nsignature + +\nfunction V\n"
                              "function V\nfield q scalar\nlagrangian V(q) * vol\n",
    "metric_fraction.thy": "theory t\ndimension 2\nmetric 1/2 0 / 0 2\n"
                           "field q scalar\n"
                           "lagrangian 1/2 * d(q) * star(d(q))\n",
    "lightcone.thy": "theory t\ndimension 2\nmetric 0 1 / 1 0\norientation -1\n"
                     "field q scalar\nlagrangian 1/2 * d(q) * star(d(q))\n",
    "minkowski.thy": "theory t\ndimension 2\nsignature - +\nfield q scalar\n"
                     "lagrangian 1/2 * d(q) * star(d(q))\n",
}

# valid theories whose Lagrangian holds the slice coordinate t, for the
# slice path; a slice evaluates t at 0
SLICED = {
    "tdep.thy": "theory tdep\ndimension 2\ncoordinates t x\nsignature - +\n"
                "field phi scalar\n"
                "lagrangian 1/2 * (1 + t) * d(phi) * star(d(phi))\n",
    "tmax.thy": "theory tmax\ndimension 4\ncoordinates t x y z\n"
                "signature - + + +\nfield A form 1\n"
                "lagrangian 1/2 * (1 + t) * d(A) ∧ star(d(A))\n"
                "symmetry gauge param xi scalar\n  A = d(xi)\n",
}


def _both(argv):
    return [list(argv), ["--json", *argv]]


def _runs():
    runs = []
    for T, (coords, syms) in THEORIES.items():
        for cmd in ("el", "theta", "omega", "project"):
            runs += _both([cmd, T])
        runs += _both(["equiv", T, T])
        runs += _both(["verify", "--all", T])
        for s in syms:
            for cmd in ("noether", "noether2", "bv", "cme"):
                runs += _both([cmd, T, "--symmetry", s])
        # canonical picks the one local symmetry by itself; name the others
        named = syms if len(syms) > 1 or T == "scalar_field" else ()
        for x in coords:
            runs += _both(["canonical", T, "--slice", f"{x}=0"])
            for s in named:
                runs += _both(["canonical", T, "--slice", f"{x}=0", "--symmetry", s])
        # bvbfv and corner report verdict lines and rendered text only, so
        # --json is run on the first slice or pair alone
        for s in syms:
            for i, x in enumerate(coords):
                argv = ["bvbfv", T, "--slice", f"{x}=0", "--symmetry", s]
                runs += _both(argv) if i == 0 else [argv]
            pairs = [(x, y) for x in coords for y in coords if x != y]
            for i, (x, y) in enumerate(pairs):
                argv = ["corner", T, "--slice", f"{x}=0", "--corner", f"{y}=0",
                        "--symmetry", s]
                runs += _both(argv) if i == 0 else [argv]
    four = [T for T, (coords, _s) in THEORIES.items() if len(coords) == 4]
    for i, a in enumerate(four):
        for b in four[i + 1:]:
            runs.append(["equiv", a, b])
    runs += [["equiv", "chern_simons_su2", "scalar_field_null"],
             ["equiv", "scalar_field", "point_particle"],
             ["equiv", "lightcone.thy", "minkowski.thy"],
             ["equiv", "minkowski.thy", "minkowski.thy"]]
    runs += _both(["verify", "maxwell", "--identity", "thm:N1"])
    runs += _both(["verify", "--suites", "--cases", "2", "--seed", "1"])
    runs += [["verify", "maxwell", "--symmetry", "gauge", "--identity", "thm:jext=0"],
             ["verify", "maxwell", "--identity", "nosuch"],
             ["verify", "maxwell", "--symmetry", "nosuch"],
             ["verify", "--suites", "--cases", "0"]]
    for name in FILES:
        runs += _both(["el", name])
    # usage errors and typed refusals; argparse's own messages are left
    # out, since their wording and wrapping vary with the Python version
    # and the terminal
    runs += [["el", "nosuch"], ["el", "nosuch.thy"],
             ["noether", "point_particle"], ["noether", "bf_abelian_4d"],
             ["noether", "maxwell", "--symmetry", "nosuch"],
             ["noether2", "scalar_field"], ["bv", "scalar_field_null"],
             ["canonical", "maxwell", "--slice", "q=0"],
             ["canonical", "maxwell", "--slice", "t=1"],
             ["corner", "maxwell", "--slice", "t=0", "--corner", "t=0"],
             ["corner", "maxwell", "--slice", "t=0", "--corner", "x=5"],
             ["corner", "point_particle"],
             ["corner", "maxwell", "--slice", "t=0"]]
    short = ["--t", "0.05", "--dt", "0.01"]
    for system in ("kepler", "harmonic", "free"):
        for integrator in ("rk4", "leapfrog"):
            runs.append(["mech", "flow", "--system", system,
                         "--integrator", integrator, *short])
        runs += _both(["mech", "conserve", "--system", system, "--t", "1"])
    runs += _both(["mech", "flow", *short])
    runs += _both(["mech", "reduce"])
    runs += _both(["mech", "reduce", "--q", "1,0,0", "--p", "2,0,0"])
    runs += [["mech", "flow", "--q", "1,2,3", "--p", "0,0.5,0.25", *short],
             ["mech", "flow", "--csv", "orbit.csv", *short],
             ["mech", "conserve", "--t", "1", "--tol", "1e-30"],
             ["mech", "flow", "--q", "a,0,0"], ["mech", "flow", "--p", "0,1"],
             ["mech", "flow", "--dt", "0"], ["mech", "flow", "--t", "inf"],
             ["mech", "flow", "--t", "1e9"], ["mech", "flow", "--t", "0.0001"],
             ["mech", "flow", "--q", "0,0,0", *short],
             ["mech", "flow", "--q", "nan,0,0", *short]]
    for name in SLICED:
        runs += _both(["canonical", name, "--slice", "t=0"])
    return runs


RUNS = _runs()


def key(argv):
    assert all(" " not in a for a in argv), argv
    return " ".join(argv)


def digest(argv):
    """(sha256 of stdout, stderr and exit code, first line of stdout cut at
    120 characters) of one in-process run of ``cli.main``."""
    from varcalc.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    blob = json.dumps([out.getvalue(), err.getvalue(), code])
    first = out.getvalue().split("\n", 1)[0][:120]
    return hashlib.sha256(blob.encode("utf-8")).hexdigest(), first


def write_files(directory):
    for name, text in {**FILES, **SLICED}.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def load():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def generate():
    """Every entry of the sweep, in the order of ``RUNS``."""
    cwd = os.getcwd()
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        write_files(tmp)
        os.chdir(tmp)
        try:
            for argv in RUNS:
                sha, first = digest(argv)
                entries[key(argv)] = {"sha256": sha, "first_line": first}
        finally:
            os.chdir(cwd)
    return entries


def main():
    old = load() if os.path.exists(DIGESTS) else {}
    new = generate()
    for k in sorted(set(old) | set(new)):
        if old.get(k) != new.get(k):
            state = "added" if k not in old else "removed" if k not in new else "moved"
            print(f"{state}: {k}")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(new, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"{len(new)} entries written to {DIGESTS}")


if __name__ == "__main__":
    sys.exit(main())
