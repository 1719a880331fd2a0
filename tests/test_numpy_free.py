"""The exact commands run without numpy, and the CLI releases what it opens.

Each check runs a fresh interpreter, because numpy, once imported by any
test in this process, stays in ``sys.modules``.  A ``None`` entry in
``sys.modules`` makes every ``import numpy`` raise ImportError, so a module
that imports numpy where it should not fails loudly (notes/decisions.md §21).
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


@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=" ".join)
def test_exact_command_runs_without_numpy(argv):
    blocked = _cli("block", argv)
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stderr.endswith("numpy loaded: False\n")
    normal = _cli("allow", argv)
    assert normal.returncode == 0, normal.stderr
    assert normal.stderr.endswith("numpy loaded: False\n")
    assert blocked.stdout == normal.stdout
    assert blocked.stdout


def test_mech_imports_numpy_when_it_computes():
    res = _cli("allow", ["mech", "reduce", "--q", "1,0,0", "--p", "0,1,0"])
    assert res.returncode == 0, res.stderr
    assert res.stderr.endswith("numpy loaded: True\n")


def test_theory_file_is_closed(tmp_path):
    path = tmp_path / "scalar.thy"
    path.write_text("theory t\ndimension 2\nsignature + +\nfield q scalar\n"
                    "lagrangian q * q * vol\n", encoding="utf-8")
    res = _python("-X", "dev", "-W", "error::ResourceWarning",
                  "-m", "varcalc.cli", "el", str(path))
    assert res.returncode == 0, res.stderr
    assert "ResourceWarning" not in res.stderr
    assert res.stdout == "E(L): 2 * q ∧ delta(q) ∧ dx0 ∧ dx1\n"
