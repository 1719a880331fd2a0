"""Every command, mech included, runs without numpy, and the CLI releases
what it opens.

Each check runs a fresh interpreter, because numpy, once imported by any
test in this process, stays in ``sys.modules``.  A ``None`` entry in
``sys.modules`` makes every ``import numpy`` raise ImportError, so a module
that imports numpy fails loudly (notes/decisions.md §21).
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# argv[1] is "block" or "allow"; the rest is handed to cli.main.  The last
# stderr line says whether numpy was loaded by the time main returned.
RUNNER = """
import sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
import varcalc, varcalc.cli, varcalc.mech
code = varcalc.cli.main(sys.argv[2:])
sys.stdout.flush()
sys.stderr.write(f"numpy loaded: {sys.modules.get('numpy') is not None}\\n")
sys.exit(code)
"""

EXACT_COMMANDS = [
    ["el", "maxwell"],
    ["--json", "canonical", "maxwell", "--slice", "t=0"],
    ["cme", "maxwell", "--symmetry", "gauge"],
    ["verify", "--suites", "--cases", "5"],
]


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300)


def _cli(mode, argv):
    return _python("-c", RUNNER, mode, *argv)


MECH_COMMANDS = [
    ["mech", "flow"],
    ["mech", "reduce", "--q", "1,0,0", "--p", "0,1,0"],
    ["mech", "conserve"],
]


def _assert_numpy_free(argv):
    blocked = _cli("block", argv)
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stderr.endswith("numpy loaded: False\n")
    normal = _cli("allow", argv)
    assert normal.returncode == 0, normal.stderr
    assert normal.stderr.endswith("numpy loaded: False\n")
    assert blocked.stdout == normal.stdout
    assert blocked.stdout
    return blocked.stdout


@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=" ".join)
def test_exact_command_runs_without_numpy(argv):
    _assert_numpy_free(argv)


@pytest.mark.parametrize("argv", MECH_COMMANDS, ids=" ".join)
def test_mech_runs_without_numpy(argv):
    _assert_numpy_free(argv)


# The Kepler circle's first five RK4 steps.  Dot products sum left to
# right in plain floats, so no BLAS kernel can move these digits.
KEPLER_CSV = """\
t,q0,q1,q2,p0,p1,p2
0,1,0,0,0,1,0
0.01,0.999950000416659,0.00999983333333322,0,-0.00999983333489581,0.999950000416659,0
0.02,0.999800006666566,0.0199986666916661,0,-0.0199986666947919,0.999800006666566,0
0.03,0.999550033748971,0.0299955001999953,0,-0.0299955002046849,0.999550033748971,0
0.04,0.999200106660958,0.0399893341833005,0,-0.0399893341895552,0.999200106660958,0
0.05,0.998750260394944,0.0499791692665116,0,-0.0499791692743329,0.998750260394944,0
"""


def test_mech_flow_output_is_pinned():
    assert _assert_numpy_free(["mech", "flow", "--t", "0.05", "--dt", "0.01"]) \
        == KEPLER_CSV


def test_theory_file_is_closed(tmp_path):
    path = tmp_path / "scalar.thy"
    path.write_text("theory t\ndimension 2\nsignature + +\nfield q scalar\n"
                    "lagrangian q * q * vol\n", encoding="utf-8")
    res = _python("-X", "dev", "-W", "error::ResourceWarning",
                  "-m", "varcalc.cli", "el", str(path))
    assert res.returncode == 0, res.stderr
    assert "ResourceWarning" not in res.stderr
    assert res.stdout == "E(L): 2 * q ∧ delta(q) ∧ dx0 ∧ dx1\n"
