"""CLI: subcommands, exit codes, JSON schema, determinism."""

import json
import io
import contextlib
import os

import pytest

from varcalc import cli
from varcalc.chart import VarcalcError
from varcalc.cli import build_parser, main


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_el_subcommand():
    code, out = run_cli("el", "maxwell_sourced")
    assert code == 0
    assert "delta(A" in out and "jext" not in out  # source expanded to its value


def test_project_point_particle():
    code, out = run_cli("project", "point_particle")
    assert code == 0
    assert "V(0, 0, 0)" in out and "q0_,00" in out


def test_unknown_flag_rejected():
    code, _ = run_cli("el", "maxwell", "--bogus")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("el", "maxwell", "--symmetry", "nope"),
    ("theta", "maxwell", "--slice", "t=0"),
    ("equiv", "maxwell", "maxwell", "--corner", "x=0"),
    ("noether", "maxwell", "--slice", "t=0"),
    ("noether2", "maxwell", "--seed", "1"),
    ("bv", "maxwell", "--cases", "5"),
    ("canonical", "maxwell", "--seed", "1"),
    ("verify", "maxwell", "--slice", "t=0"),
    ("canonical", "maxwell", "--slice", "t=0", "--corner", "x=0"),
    ("bvbfv", "maxwell", "--slice", "t=0", "--symmetry", "gauge", "--corner", "x=0"),
    # each mech subcommand takes only the flags it reads
    ("mech", "reduce", "--t", "5"),
    ("mech", "reduce", "--dt", "0.1"),
    ("mech", "reduce", "--integrator", "leapfrog"),
    ("mech", "reduce", "--tol", "-1"),
    ("mech", "flow", "--tol", "1"),
    ("mech", "conserve", "--csv", "x.csv"),
    ("mech", "--system", "harmonic", "flow"),
    # verify: one identity or all, suite flags with a suite run, catalog
    # flags with a theory
    ("verify", "maxwell", "--identity", "thm:N1", "--all"),
    ("verify", "maxwell", "--seed", "5", "--cases", "3"),
    ("verify", "maxwell", "--cases", "3"),
    ("verify", "--identity", "thm:N1"),
    ("verify", "--all"),
    ("verify", "--symmetry", "gauge"),
])
def test_flag_the_command_ignores_is_rejected(argv):
    code, _ = run_cli(*argv)
    assert code == 2


def test_mech_reduce_writes_no_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli("mech", "reduce", "--csv", "f")
    assert code == 2 and not (tmp_path / "f").exists()


@pytest.mark.parametrize("argv", [
    # README "Command line"
    ("verify", "--all", "maxwell"),
    ("verify", "--suites", "--cases", "200"),
    ("canonical", "maxwell", "--slice", "t=0"),
    ("corner", "yang_mills_su2", "--slice", "t=0", "--corner", "x=0"),
    ("bvbfv", "bf_abelian_4d", "--symmetry", "gaugeA", "--slice", "t=0"),
    ("mech", "flow", "--system", "kepler", "--t", "10", "--dt", "1e-3",
     "--csv", "orbit.csv"),
    ("mech", "reduce", "--q", "1,0,0", "--p", "0,1,0"),
    # the benchmark's corpus workload
    ("verify", "maxwell", "--all", "--symmetry", "gauge"),
    ("noether", "maxwell", "--symmetry", "gauge"),
    ("noether2", "maxwell", "--symmetry", "gauge"),
    ("bv", "maxwell", "--symmetry", "gauge"),
    ("cme", "maxwell", "--symmetry", "gauge"),
    ("bvbfv", "maxwell", "--slice", "t=0", "--symmetry", "gauge"),
    ("corner", "maxwell", "--slice", "t=0", "--corner", "x=0", "--symmetry", "gauge"),
    ("canonical", "bf_abelian_4d", "--slice", "t=0", "--symmetry", "gaugeA"),
    ("equiv", "maxwell", "maxwell"),
])
def test_documented_flags_parse(argv):
    build_parser().parse_args(["--json", *argv])


def test_missing_theory_file():
    code, _ = run_cli("el", "no_such_theory")
    assert code == 2


def test_malformed_theory_exit_code(tmp_path=None):
    import tempfile, os
    fd, path = tempfile.mkstemp(suffix=".thy")
    os.write(fd, b"")
    os.close(fd)
    code, _ = run_cli("el", path)
    os.unlink(path)
    assert code == 2


@pytest.mark.parametrize("decl, lagrangian, where", [
    ("field q scalar", "1/0 * q * q * vol", "5:14: division by zero"),
    ("field A form -1", "1/2 * d(A) * star(d(A))", "4:1: form degree must be >= 0"),
    ("field q scalar components 0", "q * q * vol", "4:1: components must be >= 1"),
])
def test_malformed_number_or_declaration_exits_2(tmp_path, capsys, decl, lagrangian,
                                                 where):
    """A zero denominator and a degree or count out of range are positioned
    syntax errors: exit 2 with one line on stderr and no traceback."""
    path = tmp_path / "bad.thy"
    path.write_text(f"theory t\ndimension 2\nsignature + +\n{decl}\nlagrangian {lagrangian}\n",
                    encoding="utf-8")
    assert main(["el", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}:{where}\n")


def test_verify_all_maxwell():
    code, out = run_cli("verify", "--all", "maxwell")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_all_names_only_the_declared_symmetry(tmp_path):
    # a field-valued shift is not a symmetry of the free scalar: every row
    # that says so names the declared symmetry, not an internal copy of it
    path = tmp_path / "notsym.thy"
    path.write_text("theory t\ndimension 2\nsignature - +\nfield phi scalar\n"
                    "lagrangian -1/2*d(phi)∧star(d(phi))\n"
                    "symmetry shift param xi scalar\n  phi = xi\nsolve phi_,00\n",
                    encoding="utf-8")
    code, out = run_cli("verify", "--all", str(path))
    assert code == 1
    assert out.count("shift is not a symmetry of t") == 6
    assert "__b" not in out


@pytest.mark.parametrize("name", ["point_particle", "scalar_field_null"])
def test_verify_without_a_symmetry_checks_thm_dbom_once(name):
    # thm:dbom reads no symmetry; every other identity needs one
    code, out = run_cli("verify", "--all", name)
    assert (code, out) == (0, "PASS  -  thm:dbom  \n")
    code, out = run_cli("--json", "verify", "--all", name)
    assert code == 0
    assert json.loads(out)["results"] == [
        {"identity": "thm:dbom", "symmetry": None, "passed": True, "detail": ""}]
    assert run_cli("verify", name, "--identity", "thm:dbom") == (0, "PASS  -  thm:dbom  \n")


@pytest.mark.parametrize("ident", ["thm:N1", "lem:inv-C", "thm:jext=0"])
def test_verify_an_identity_that_needs_a_symmetry_without_one(ident, capsys):
    assert main(["verify", "point_particle", "--identity", ident]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: theory declares no symmetry\n"


def test_verify_suites_json_deterministic():
    code1, out1 = run_cli("--json", "verify", "--suites", "--cases", "5")
    code2, out2 = run_cli("--json", "verify", "--suites", "--cases", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == "varcalc.report.v1"
    assert doc["results"][0]["seed"] == 0


def test_noether_json():
    code, out = run_cli("--json", "noether", "maxwell_sourced")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "varcalc.report.v1"
    assert doc["results"][0]["noether1"] is True


def test_canonical_and_corner():
    code, out = run_cli("canonical", "scalar_field", "--slice", "t=0")
    assert code == 0 and "Pi_phi" in out
    code2, out2 = run_cli("corner", "yang_mills_su2", "--slice", "t=0",
                          "--corner", "x=0")
    assert code2 == 0 and "PASS" in out2


def test_cme_and_bvbfv():
    code, out = run_cli("cme", "maxwell")
    assert code == 0 and "PASS" in out
    code2, out2 = run_cli("bvbfv", "bf_abelian_4d", "--symmetry", "gaugeA",
                          "--slice", "t=0")
    assert code2 == 0 and out2.count("PASS") == 3


def test_mech_flow_csv(tmp_path):
    dest = tmp_path / "traj.csv"
    code, out = run_cli("mech", "flow", "--system", "kepler",
                        "--t", "0.1", "--dt", "0.01", "--csv", str(dest))
    assert code == 0
    lines = dest.read_text().splitlines()
    assert lines[0].startswith("t,q0")
    assert len(lines) == 12
    # the rows streamed to the file are the bytes of to_csv
    traj = cli.mechmod.flow(cli.mechmod.kepler_system(),
                            cli.mechmod.PhasePoint((1, 0, 0), (0, 1, 0)), 0.1, 0.01)
    assert dest.read_bytes() == traj.to_csv().encode()


def test_unknown_identity_is_a_usage_error(capsys):
    assert main(["verify", "maxwell", "--identity", "nosuch"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown identity 'nosuch'; known: thm:dbom, ")


@pytest.mark.parametrize("argv, message", [
    (("verify", "maxwell", "--symmetry", "nosuch"),
     "unknown symmetry 'nosuch'; declared: gauge"),
    (("noether", "maxwell", "--symmetry", "nosuch"),
     "unknown symmetry 'nosuch'; declared: gauge"),
    (("noether", "point_particle", "--symmetry", "gauge"),
     "unknown symmetry 'gauge'; declared: none"),
    (("canonical", "maxwell", "--slice", "q=0"),
     "unknown coordinate 'q' in --slice; coordinates: t, x, y, z"),
    (("corner", "maxwell", "--slice", "t=0", "--corner", "t=0"),
     "--corner must name a direction other than the --slice one"),
    (("canonical", "maxwell", "--slice", "t=abc"), "--slice expects NAME=0, got 't=abc'"),
    (("canonical", "maxwell", "--slice", "t=nan"), "--slice expects NAME=0, got 't=nan'"),
    (("canonical", "maxwell", "--slice", "t=inf"), "--slice expects NAME=0, got 't=inf'"),
    (("canonical", "maxwell", "--slice", "t=1/0"), "--slice expects NAME=0, got 't=1/0'"),
    (("corner", "maxwell", "--corner", "x=abc"), "--corner expects NAME=0, got 'x=abc'"),
    (("corner", "maxwell", "--corner", "x=nan"), "--corner expects NAME=0, got 'x=nan'"),
    (("corner", "maxwell", "--corner", "x=-inf"), "--corner expects NAME=0, got 'x=-inf'"),
])
def test_unknown_name_in_a_flag_is_a_usage_error(argv, message, capsys):
    """Exit 2 before any identity runs: no FAIL row is printed."""
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_mech_flow_json():
    code, out = run_cli("--json", "mech", "flow", "--system", "kepler",
                        "--t", "0.1", "--dt", "0.01")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "varcalc.report.v1"
    assert doc["command"] == "mech flow"
    rows = doc["results"]
    assert len(rows) == 11
    assert sorted(rows[0]) == ["p0", "p1", "p2", "q0", "q1", "q2", "t"]
    assert rows[0]["q0"] == 1.0 and rows[0]["p1"] == 1.0
    assert rows[-1]["t"] == pytest.approx(0.1)


def test_corner_json():
    code, out = run_cli("--json", "corner", "yang_mills_su2", "--slice", "t=0",
                        "--corner", "x=0")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "varcalc.report.v1"
    assert doc["command"] == "corner"
    row = doc["results"][0]
    assert row["master_equation"] is True
    assert row["corner_densities"] and all(
        isinstance(k, str) for k in row["corner_densities"])


@pytest.mark.parametrize("slice_arg, default", [("x=0", "t=0"), ("t=0", "x=0")])
def test_corner_defaults_to_the_first_coordinate_off_the_slice(slice_arg, default):
    code, out = run_cli("corner", "maxwell", "--slice", slice_arg)
    assert code == 0
    assert (code, out) == run_cli("corner", "maxwell", "--slice", slice_arg,
                                  "--corner", default)


def test_corner_on_one_dimensional_theory_is_an_error():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli("corner", "point_particle")
    assert code == 1 and out == ""
    assert err.getvalue().startswith("error: corner needs a chart of dimension >= 2")


@pytest.mark.parametrize("argv", [("noether", "point_particle"),
                                  ("cme", "scalar_field_null")])
def test_theory_without_symmetry_is_an_error(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(*argv)
    assert code == 1 and out == ""
    assert err.getvalue() == "error: theory declares no symmetry\n"


@pytest.mark.parametrize("argv, message", [
    (("--slice", "t=5"), "slices sit at coordinate value 0"),
    (("--slice", "t=1"), "slices sit at coordinate value 0"),
    (("--slice", "t=0", "--corner", "x=5"), "corners sit at coordinate value 0"),
    (("--slice", "t=0", "--corner", "x=1"), "corners sit at coordinate value 0"),
])
def test_slice_and_corner_sit_at_zero(argv, message):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli("corner", "maxwell", *argv)
    assert code == 1 and out == ""
    assert err.getvalue() == f"error: {message}\n"


@pytest.mark.parametrize("value", ["0.0", "-0", ""])
@pytest.mark.parametrize("flag", ["--slice", "--corner"])
def test_any_spelling_of_zero_is_the_coordinate_value_0(flag, value):
    base = ["corner", "maxwell", "--slice", "t=0", "--corner", "x=0"]
    argv = list(base)
    i = argv.index(flag) + 1
    argv[i] = argv[i][:2] + value
    code, out = run_cli(*argv)
    assert code == 0 and (code, out) == run_cli(*base)


@pytest.mark.parametrize("argv, message", [
    (("flow", "--q", "a,0,0"), "--q expects 3 comma-separated numbers, got 'a,0,0'"),
    (("flow", "--q", "1,0", "--p", "0,1"),
     "--q expects 3 comma-separated numbers, got '1,0'"),
    (("reduce", "--p", "0,1,0,0"), "--p expects 3 comma-separated numbers, got '0,1,0,0'"),
])
def test_mech_state_is_a_usage_error(argv, message):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli("mech", *argv)
    assert code == 2 and out == ""
    assert err.getvalue() == f"error: {message}\n"


class _Integrated(VarcalcError):
    pass


def _no_integration(*args, **kwargs):
    raise _Integrated("integration started")


@pytest.mark.parametrize("cmd", ["flow", "reduce", "conserve"])
@pytest.mark.parametrize("flag", ["--q", "--p"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_mech_non_finite_state_is_a_usage_error(monkeypatch, cmd, flag, value):
    # refused before a phase point is built or anything is integrated
    monkeypatch.setattr(cli.mechmod, "flow", _no_integration)
    monkeypatch.setattr(cli.mechmod, "reduce_so3", _no_integration)
    text = f"{value},0,0"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli("mech", cmd, f"{flag}={text}")
    assert code == 2 and out == ""
    assert err.getvalue() == f"error: {flag} must be finite, got {text!r}\n"


@pytest.mark.parametrize("argv, message", [
    (("flow", "--dt", "0"), "--dt must be positive, got 0.0"),
    (("conserve", "--dt", "-0.01"), "--dt must be positive, got -0.01"),
    (("flow", "--t", "-1"), "--t -1.0 with --dt 0.001 gives fewer than two samples"),
    (("conserve", "--t", "0"), "--t 0.0 with --dt 0.001 gives fewer than two samples"),
    (("flow", "--t", "0.0005"),
     "--t 0.0005 with --dt 0.001 gives fewer than two samples"),
    (("flow", "--t", "inf"), "--t must be finite, got inf"),
    (("conserve", "--t=-inf"), "--t must be finite, got -inf"),
    (("flow", "--dt", "nan"), "--dt must be finite, got nan"),
    (("conserve", "--dt", "inf"), "--dt must be finite, got inf"),
    (("flow", "--t", "1e9"), "--t 1000000000.0 with --dt 0.001 gives more than "
     "1000000 steps"),
    (("conserve", "--t", "1000.001"), "--t 1000.001 with --dt 0.001 gives more "
     "than 1000000 steps"),
    (("flow", "--t", "1e308", "--dt", "1e-10"), "--t 1e+308 with --dt 1e-10 "
     "gives more than 1000000 steps"),
    (("conserve", "--tol", "nan"), "--tol must be finite and non-negative, got nan"),
    (("conserve", "--tol", "-1"), "--tol must be finite and non-negative, got -1.0"),
    (("conserve", "--tol", "inf"), "--tol must be finite and non-negative, got inf"),
])
def test_mech_steps_are_a_usage_error(monkeypatch, argv, message):
    # refused before the integrator is called
    monkeypatch.setattr(cli.mechmod, "flow", _no_integration)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli("mech", *argv)
    assert code == 2 and out == ""
    assert err.getvalue() == f"error: {message}\n"


@pytest.mark.parametrize("t", ["1000", "1000.0005"])
def test_mech_million_steps_reach_the_integrator(monkeypatch, t):
    # round(t / dt) is 10^6 for both, the bound itself
    monkeypatch.setattr(cli.mechmod, "flow", _no_integration)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli("mech", "flow", "--t", t)
    assert code == 1 and err.getvalue() == "error: integration started\n"


def test_mech_conserve_tol_zero_reaches_the_integrator(monkeypatch):
    monkeypatch.setattr(cli.mechmod, "flow", _no_integration)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli("mech", "conserve", "--tol", "0")
    assert code == 1 and err.getvalue() == "error: integration started\n"


def test_mech_flow_takes_one_step_above_half_a_step():
    code, out = run_cli("mech", "flow", "--t", "0.0006")
    assert code == 0 and len(out.splitlines()) == 3


@pytest.mark.parametrize("cases", ["0", "-1"])
def test_verify_cases_below_one_is_a_usage_error(cases):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli("verify", "--suites", "--cases", cases)
    assert code == 2 and out == ""
    assert err.getvalue() == f"error: --cases must be at least 1, got {cases}\n"


def test_mech_conserve_json():
    code, out = run_cli("--json", "mech", "conserve", "--system", "kepler",
                        "--t", "1.0", "--dt", "0.001")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["passed"] is True


def test_mech_reduce():
    code, out = run_cli("mech", "reduce", "--q", "1,0,0", "--p", "0,1,0")
    assert code == 0 and "'r': 1.0" in out


def test_jet_cutoff_env(monkeypatch):
    monkeypatch.setenv("VARCALC_JET_CUTOFF", "3")
    from varcalc.cli import _load_theory
    T = _load_theory("scalar_field")
    assert T.chart.jet_cutoff == 3


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_malformed_jet_cutoff_env_is_a_usage_error(monkeypatch, capsys, value):
    monkeypatch.setenv("VARCALC_JET_CUTOFF", value)
    assert main(["el", "maxwell"]) == 2
    assert capsys.readouterr().err == (
        f"error: VARCALC_JET_CUTOFF must be a non-negative integer, got {value!r}\n")


def test_jet_cutoff_env_zero_is_honoured(monkeypatch, capsys):
    monkeypatch.setenv("VARCALC_JET_CUTOFF", "0")
    assert main(["el", "maxwell"]) == 2
    assert capsys.readouterr().err == "error: maxwell:7:12: jet order 1 exceeds cutoff 0\n"


# one run of every subcommand: (argv, the report's "command" field)
ONE_RUN_EACH = [
    (("el", "maxwell"), "E(L)"),
    (("theta", "point_particle"), "theta"),
    (("omega", "scalar_field"), "omega"),
    (("project", "point_particle"), "P(L)"),
    (("equiv", "maxwell", "maxwell"), "equiv"),
    (("noether", "maxwell", "--symmetry", "gauge"), "noether"),
    (("noether2", "maxwell", "--symmetry", "gauge"), "noether2"),
    (("verify", "--suites", "--cases", "2", "maxwell", "--symmetry", "gauge"), "verify"),
    (("canonical", "scalar_field", "--slice", "t=0"), "canonical"),
    (("corner", "maxwell", "--slice", "t=0", "--corner", "x=0"), "corner"),
    (("bv", "maxwell"), "bv"),
    (("cme", "maxwell"), "cme"),
    (("bvbfv", "maxwell", "--slice", "t=0", "--symmetry", "gauge"), "bvbfv"),
    (("mech", "flow", "--t", "0.05", "--dt", "0.01", "--csv", "{csv}"), "mech flow"),
    (("mech", "flow", "--t", "0.05", "--dt", "0.01"), "mech flow"),
    (("mech", "reduce", "--q", "1,0,0", "--p", "2,0,0"), "mech reduce"),
    (("mech", "conserve", "--t", "1"), "mech conserve"),
    (("mech", "conserve", "--t", "1", "--tol", "1e-30"), "mech conserve"),
]


@pytest.mark.parametrize("argv, command", ONE_RUN_EACH,
                         ids=[" ".join(a) for a, _ in ONE_RUN_EACH])
def test_json_run_is_one_report_with_the_text_run_exit_code(tmp_path, argv, command):
    argv = [a.replace("{csv}", str(tmp_path / "orbit.csv")) for a in argv]
    code, text = run_cli(*argv)
    json_code, out = run_cli("--json", *argv)
    assert text and json_code == code
    doc = json.loads(out)          # the whole of stdout, nothing before or after
    assert doc["schema"] == "varcalc.report.v1" and doc["command"] == command
    assert isinstance(doc["results"], list) and doc["results"]


def test_singular_stratum_note_is_text_only():
    code, out = run_cli("mech", "reduce", "--q", "1,0,0", "--p", "2,0,0")
    assert code == 0
    assert out.splitlines() == ["singular stratum (l = 0): reduced space is T*R/Z2",
                                "{'r': 1.0, 'p_r': 2.0, 'l': 0.0}"]


def test_one_parser_serves_every_call_of_a_process():
    """main reuses the one parser of the process, and a call sees nothing
    of the calls before it: neither --json, nor a usage error, nor --seed."""
    assert build_parser() is build_parser()
    code, out = run_cli("--json", "el", "maxwell")
    assert code == 0 and json.loads(out)["command"] == "E(L)"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli("el")
    assert code == 2 and out == ""
    assert err.getvalue().startswith("usage: varcalc el")
    code, out = run_cli("el", "maxwell")
    build_parser.cache_clear()
    fresh = run_cli("el", "maxwell")
    assert build_parser() is build_parser()
    assert (code, out) == fresh and out.startswith("E(L): ")
    assert run_cli("verify", "--suites", "--cases", "3", "--seed", "3")[0] == 0
    code, out = run_cli("verify", "--suites", "--cases", "3")
    assert code == 0 and out.splitlines()[0] == "seed=0 cases=3"
