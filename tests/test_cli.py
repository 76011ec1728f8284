import errno
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from test_npakit import SDPA_SHA256

import znlcs
import znlcs.cli
from znlcs.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_game_classical(capsys):
    code, report = run(capsys, "game", "classical", "--n", "3")
    assert code == 0
    assert report["pass"] is True
    by_name = {r["name"]: r for r in report["results"]}
    assert by_name["classical_value"]["value"] == pytest.approx(0.75)
    assert "wallTimeSeconds" in report


def test_strategy_value_both_paths(capsys):
    for via in ("direct", "bias"):
        code, report = run(capsys, "strategy", "value", "--n", "3",
                           "--via", via)
        assert code == 0
        value = report["results"][0]
        assert value["value"] == pytest.approx(0.833333, abs=1e-6)
        assert value["tolerance"] == 1e-9


def test_results_carry_tolerances(capsys):
    code, report = run(capsys, "bias", "spectrum", "--n", "2")
    assert code == 0
    checked = [r for r in report["results"] if "pass" in r]
    assert checked
    assert all("tolerance" in r for r in checked)


def test_bcs_glued_witness(capsys):
    code, report = run(capsys, "bcs", "glued", "--witness")
    assert code == 0
    by_name = {r["name"]: r["value"] for r in report["results"]}
    assert by_name["inner_product"] == pytest.approx(0.5)
    assert by_name["trace"] == pytest.approx(4.0)


def test_npa_export_writes_file(capsys, tmp_path):
    out = tmp_path / "g2.dat-s"
    code, report = run(capsys, "npa", "export", "--n", "2", "--level", "1",
                       "--out", str(out))
    assert code == 0
    assert out.exists()


def test_npa_export_fails_when_the_file_loses_entries(capsys, tmp_path,
                                                    monkeypatch):
    # A writer that drops every -1 entry writes a file whose own render
    # round-trips; the command must compare the parse with the problem.
    from znlcs import npakit
    render = npakit.SDPAProblem.render

    def lossy(self):
        return "".join(ln for ln in render(self).splitlines(keepends=True)
                       if not ln.endswith(" -1\n"))

    monkeypatch.setattr(npakit.SDPAProblem, "render", lossy)
    out = tmp_path / "g2.dat-s"
    code, report = run(capsys, "npa", "export", "--n", "2", "--out",
                       str(out))
    assert " -1\n" not in out.read_text()
    by_name = {r["name"]: r for r in report["results"]}
    assert by_name["round_trip_exact"]["value"] == 0
    assert report["pass"] is False
    assert code == 1


def test_npa_export_fails_when_the_file_repeats_an_entry(capsys, tmp_path,
                                                         monkeypatch):
    # A file the parser refuses (one entry line written twice) fails the
    # round trip in the report, not with a traceback.
    from znlcs import npakit
    render = npakit.SDPAProblem.render

    def doubled(self):
        text = render(self)
        return text + text.splitlines(keepends=True)[-1]

    monkeypatch.setattr(npakit.SDPAProblem, "render", doubled)
    out = tmp_path / "g2.dat-s"
    code, report = run(capsys, "npa", "export", "--n", "2", "--out",
                       str(out))
    by_name = {r["name"]: r for r in report["results"]}
    assert by_name["round_trip_exact"]["value"] == 0
    assert report["pass"] is False
    assert code == 1


def test_bcs_fails_on_an_unverified_solution(capsys, monkeypatch):
    # A solution that fails verification gives a failing report, with no
    # strategy built from it, not a traceback.
    from znlcs import bcskit
    square = bcskit.magic_square

    def one_observable_negated():
        lcs, sol = square()
        obs = list(sol.observables)
        obs[0] = -obs[0]
        return lcs, bcskit.OperatorSolution(dim=sol.dim,
                                            observables=tuple(obs))

    monkeypatch.setattr(bcskit, "magic_square", one_observable_negated)
    code, report = run(capsys, "bcs", "magic-square", "--check")
    assert [(r["name"], r["value"]) for r in report["results"]] == [
        ("solution_verified", 0)]
    assert report["pass"] is False
    assert code == 1


def test_entropy_fails_on_a_schmidt_rank_below_n(capsys, monkeypatch):
    # A canonical state of rank n - 1 at one n: that n's entry, and only
    # it, fails the report.
    from znlcs import strategykit
    schmidt = strategykit.canonical_schmidt

    def rank_short_at_4(n):
        sd = schmidt(n)
        if n != 4:
            return sd
        return strategykit.SchmidtData(sd.coefficients, n - 1, sd.entropy)

    monkeypatch.setattr(strategykit, "canonical_schmidt", rank_short_at_4)
    code, report = run(capsys, "strategy", "entropy", "--n-max", "5")
    ranks = [r for r in report["results"]
             if r["name"].startswith("schmidt_rank")]
    assert ranks == [{"name": "schmidt_rank_n4", "value": 3,
                      "tolerance": 0.0, "target": 4, "pass": False}]
    assert report["pass"] is False
    assert code == 1


def test_entropy_csv_schema(capsys, tmp_path):
    out = tmp_path / "entropy.csv"
    code, _ = run(capsys, "strategy", "entropy", "--n-max", "5",
                  "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,value,entropy_ratio"
    assert len(lines) == 5  # header + n = 2..5


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice" in captured.err
    assert "Traceback" not in captured.err


BAD_INPUT = [
    ("game classical --n 1", "--n"),
    ("game classical --n 3 --m1 3", "--m1"),
    ("game classical --n 3 --m2 -1", "--m2"),
    ("strategy value --n 1", "--n"),
    ("strategy entropy --n-max 1", "--n-max"),
    ("bias spectrum --n 0", "--n"),
    ("group enumerate --n 0", "--n"),
    ("npa export --n 1 --out unused.dat-s", "--n"),
    ("group enumerate --n 14", "--n"),
    ("group normal-form --n 14", "--n"),
    ("group normal-form --n 1000000000000", "--n"),
    ("sos verify --cert chsh --trials 0", "--trials"),
    ("relations check --n 4", "--n"),
    ("bcs magic-square --witness", "--witness"),
    ("game classical --n 300", "--n"),
    ("bias spectrum --n 200", "--n"),
    ("strategy value --n 1449 --via bias", "--n"),
    ("npa export --n 2 --out /dev/null", "--out"),
    ("npa export --n 2 --out .", "--out"),
    ("strategy entropy --n-max 2 --out .", "--out"),
    ("strategy entropy --n-max 2 --out no-such-dir/t.csv", "--out"),
    ("npa export --n 2 --out no-such-dir/x.dat-s", "--out"),
    ("strategy value --n 200 --via direct", "--n"),
    ("sos verify --cert chsh --trials 200000", "--trials"),
    ("sos verify --cert chsh --seed -1", "--seed"),
    ("sos verify --cert chsh --seed abc", "--seed"),
    ("strategy entropy --n-max 2001", "--n-max"),
    (f"npa export --n 2 --out {'x' * 300}.dat-s", "--out"),
    (f"strategy entropy --n-max 3 --out {'x' * 300}.csv", "--out"),
    ("npa export --n 9 --level 2 --out unused.dat-s", "--n"),
    ("npa export --n 107 --level 1 --out unused.dat-s", "--n"),
    (f"bias spectrum --n {10**120}", "--n"),
    (f"strategy value --n {10**120} --via bias", "--n"),
    (f"strategy value --n {10**120} --via direct", "--n"),
    (f"game classical --n {10**120}", "--n"),
]


@pytest.mark.parametrize("argv,flag", BAD_INPUT)
def test_bad_input_exits_2_without_traceback(capsys, argv, flag):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}:" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["npa", "export", "--n", "2", "--out", ""],
    ["strategy", "entropy", "--n-max", "3", "--out", ""],
])
def test_empty_out_is_a_usage_error(capsys, argv):
    # An empty path names no file: refused before any work, not a
    # FileNotFoundError traceback nor a silently skipped CSV.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --out:" in captured.err
    assert "Traceback" not in captured.err


def test_refused_export_writes_no_file(capsys, tmp_path):
    # The level's --n bound is checked before --out is probed, which
    # creates it.
    out = tmp_path / "x.dat-s"
    assert main(["npa", "export", "--n", "9", "--level", "2",
                 "--out", str(out)]) == 2
    assert "error: argument --n:" in capsys.readouterr().err
    assert not out.exists()


def test_out_is_probed_only_after_the_other_checks(capsys, tmp_path):
    # The --out probe creates the file it opens: a command refused on
    # another flag must not leave one behind.
    out = tmp_path / "f.csv"
    assert main(["strategy", "entropy", "--n-max", "2001",
                 "--out", str(out)]) == 2
    assert "error: argument --n-max:" in capsys.readouterr().err
    assert not out.exists()


# Each bounded flag at its bound, the largest value it admits: in an
# argparse type (bias spectrum, strategy entropy, sos verify, the group
# commands, game classical) or in a table of the second flag's values
# (strategy value, npa export).
BOUNDS = [
    ("bias spectrum --n 161", "--n"),
    ("strategy value --n 1448 --via bias", "--n"),
    ("strategy value --n 101 --via direct", "--n"),
    ("strategy entropy --n-max 2000", "--n-max"),
    ("sos verify --cert chsh --trials 100000", "--trials"),
    ("npa export --n 8 --level 2 --out t.dat-s", "--n"),
    ("npa export --n 106 --level 1 --out t.dat-s", "--n"),
    ("group enumerate --n 13", "--n"),
    ("group normal-form --n 13", "--n"),
    ("game classical --n 292", "--n"),
]


@pytest.mark.parametrize("argv,flag", BOUNDS)
def test_each_bound_admits_itself_and_refuses_one_more(
        capsys, tmp_path, monkeypatch, argv, flag):
    # Through main, with the handler stubbed: a run at most bounds takes
    # seconds to a minute. The strategy value runs there for real below.
    monkeypatch.chdir(tmp_path)  # for the --out files
    argv = argv.split()
    command = tuple(argv[:2])
    _, preflight, arguments = znlcs.cli.COMMANDS[command]
    ran = []
    monkeypatch.setitem(znlcs.cli.COMMANDS, command, (
        lambda: lambda args, rep: ran.append(args), preflight, arguments))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    at = argv.index(flag) + 1
    argv[at] = str(int(argv[at]) + 1)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}:" in captured.err
    assert len(ran) == 1


def test_strategy_value_passes_at_each_bound(capsys):
    # About 0.5 s at each path's bound (n = 101 direct, n = 1448 via bias).
    for n, via in ((101, "direct"), (1448, "bias")):
        code, report = run(capsys, "strategy", "value", "--n", str(n),
                           "--via", via)
        assert code == 0
        value = next(r["value"] for r in report["results"]
                     if r["name"] == "value")
        assert abs(value - znlcs.strategykit.canonical_value_formula(n)
                   ) < 1e-9, via


# One valid argv per command; then argvs the named-command tree must not
# serve (no arguments, an unknown group or command, help, the version) and
# argvs whose error argparse reports with the root's usage.
EVERY_COMMAND = [
    "game classical --n 3 --m1 1", "strategy value --n 2 --via bias",
    "strategy entropy --n-max 3 --out t.csv", "bias spectrum --n 2",
    "group enumerate --n 2", "group normal-form --n 2",
    "sos verify --cert chsh --trials 2 --seed 5", "relations check",
    "bcs magic-square --check", "bcs glued --check --witness",
    "npa export --n 2 --level 2 --out t.dat-s", "psirep check --n 2",
]
EDGE_CASES = [
    "", "frobnicate", "game frobnicate", "bcs", "-h", "--help", "game -h",
    "bcs -h", "game classical -h", "npa export --help", "--version",
    "game classical --n 3 --version", "game classical --n 3 --bogus",
]


# The parameters of each EVERY_COMMAND report: every declared flag but
# --seed, in declaration order, by its camelCase name, defaults included.
PARAMETERS = {
    "game classical": {"n": 3, "m1": 1, "m2": 1},
    "strategy value": {"n": 2, "via": "bias"},
    "strategy entropy": {"nMax": 3, "out": "t.csv"},
    "bias spectrum": {"n": 2},
    "group enumerate": {"n": 2},
    "group normal-form": {"n": 2},
    "sos verify": {"cert": "chsh", "trials": 2},
    "relations check": {"n": 3},
    "bcs magic-square": {"check": True, "witness": False},
    "bcs glued": {"check": True, "witness": True},
    "npa export": {"n": 2, "level": 2, "out": "t.dat-s"},
    "psirep check": {"n": 2},
}


@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_report_envelope_mirrors_the_command(capsys, tmp_path, monkeypatch,
                                             argv):
    monkeypatch.chdir(tmp_path)  # for the --out files
    monkeypatch.setenv("ZNLCS_SEED", "77")
    command = " ".join(argv.split()[:2])
    code, report = run(capsys, *argv.split())
    assert code == 0
    assert report["command"] == command
    assert list(report["parameters"].items()) == \
        list(PARAMETERS[command].items())
    if command != "sos verify":
        assert report["seed"] is None
        return
    assert report["seed"] == 5
    # Without --seed the command takes ZNLCS_SEED, and draws its trials
    # from it.
    code, unseeded = run(capsys, *argv.replace(" --seed 5", "").split())
    code77, seeded = run(capsys, *argv.replace("--seed 5", "--seed 77")
                         .split())
    assert code == code77 == 0
    assert unseeded["seed"] == seeded["seed"] == 77
    assert unseeded["parameters"] == PARAMETERS[command]
    assert unseeded["results"] == seeded["results"]
    # Seeds 5 and 77 draw different trials, whose float residuals differ.
    assert unseeded["results"] != report["results"]


def test_every_command_is_in_the_corpus():
    named = {tuple(argv.split()[:2]) for argv in EVERY_COMMAND}
    assert named == set(znlcs.cli.COMMANDS) == set(SIZES)
    assert named == {tuple(argv.split()[:2]) for argv in README_LOADS}


@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_every_command_passes(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # for the --out files
    code, report = run(capsys, *argv.split())
    assert code == 0
    assert report["pass"] is True


def parse_outcome(capsys, parser, argv):
    """Exit code, stdout, stderr and namespace of parser.parse_args(argv);
    the command's own parser is compared by its prog and help."""
    try:
        namespace, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    captured = capsys.readouterr()
    if namespace is not None:
        leaf = namespace.pop("subparser")
        namespace["subparser"] = (leaf.prog, leaf.format_help())
    return code, captured.out, captured.err, namespace


@pytest.mark.parametrize("argv", EVERY_COMMAND + EDGE_CASES
                         + [argv for argv, _ in BAD_INPUT])
def test_named_command_tree_parses_as_the_full_tree(capsys, argv):
    argv = argv.split()
    lean = parse_outcome(capsys, build_parser(argv), argv)
    assert lean == parse_outcome(capsys, build_parser(), argv)


def test_named_command_tree_holds_that_command_only(capsys):
    parser = build_parser(["npa", "export", "--n", "2", "--out", "t"])
    with pytest.raises(SystemExit):
        parser.parse_args(["game", "classical", "--n", "3"])
    assert "invalid choice: 'game'" in capsys.readouterr().err


def test_report_clock_covers_the_check(capsys, monkeypatch):
    # The report's wall time must count the pre-flight check, as it counts
    # the command's work: here a check slowed by 0.05 s.
    command = ("game", "classical")
    handler, preflight, arguments = znlcs.cli.COMMANDS[command]
    calls = []

    def slow_check(args):
        time.sleep(0.05)
        calls.append(args)
        return preflight(args)

    monkeypatch.setitem(znlcs.cli.COMMANDS, command,
                        (handler, slow_check, arguments))
    code, report = run(capsys, "game", "classical", "--n", "2")
    assert code == 0
    assert len(calls) == 1
    assert report["wallTimeSeconds"] >= 0.05


def test_seed_env_default(monkeypatch):
    monkeypatch.setenv("ZNLCS_SEED", "12345")
    from znlcs.cli import _seed_default
    assert _seed_default() == 12345


@pytest.mark.parametrize("value", ["abc", "-3"])
def test_bad_seed_variable_exits_2_without_traceback(capsys, monkeypatch,
                                                     value):
    monkeypatch.setenv("ZNLCS_SEED", value)
    assert main(["sos", "verify", "--cert", "chsh", "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: environment variable ZNLCS_SEED:" in captured.err
    assert repr(value) in captured.err
    assert "Traceback" not in captured.err
    # --seed wins, and a command without --seed never reads the variable.
    code, report = run(capsys, "sos", "verify", "--cert", "chsh",
                       "--trials", "2", "--seed", "4")
    assert code == 0 and report["seed"] == 4
    code, _ = run(capsys, "game", "classical", "--n", "3")
    assert code == 0


def test_deterministic_reports(capsys):
    code1, r1 = run(capsys, "sos", "verify", "--cert", "chsh",
                    "--trials", "5", "--seed", "3")
    code2, r2 = run(capsys, "sos", "verify", "--cert", "chsh",
                    "--trials", "5", "--seed", "3")
    assert code1 == code2 == 0
    r1.pop("wallTimeSeconds")
    r2.pop("wallTimeSeconds")
    assert r1 == r2


# Runs ``python -m znlcs.cli ARGV...`` through runpy, as ``-m`` does, then
# prints the names of the modules whose code ran (a lazy module not yet
# loaded is not a plain ModuleType) as the last line of stderr. run() ends
# the process with os._exit after the atexit handlers, so the names are
# printed from one.
LOADED_MODULES = """
import atexit, json, runpy, sys, types
atexit.register(lambda: print(
    json.dumps(sorted(name for name, m in sys.modules.items()
                      if type(m) is types.ModuleType)), file=sys.stderr))
runpy.run_module("znlcs.cli", run_name="__main__", alter_sys=True)
"""


def subprocess_env():
    """This process's environment with the tested ``znlcs`` importable,
    and without ``PYTHONUNBUFFERED``: a process's stdout is then
    block-buffered when it is not a terminal, as it is for most callers,
    so a missing flush loses output."""
    src = str(pathlib.Path(znlcs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def modules_loaded_by(*argv):
    # -W error: runpy warns if znlcs.cli is in sys.modules before it runs.
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c",
         LOADED_MODULES, *argv],
        env=subprocess_env(), capture_output=True, text=True, timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode, set(json.loads(proc.stderr.splitlines()[-1]))


# README's load table: the modules each command loads besides ``cli`` and
# ``records``, for every command of EVERY_COMMAND and both --via paths.
README_LOADS = {
    "game classical --n 3 --m1 1": "gamekit",
    "strategy value --n 2 --via direct":
        "strategykit monomial gamekit numerics",
    "strategy value --n 2 --via bias":
        "strategykit monomial gamekit biaskit ncpoly",
    "strategy entropy --n-max 3 --out t.csv": "strategykit",
    "bias spectrum --n 2":
        "biaskit strategykit monomial ncpoly numerics gamekit",
    "group enumerate --n 2": "groupkit monomial",
    "group normal-form --n 2": "groupkit monomial",
    "sos verify --cert chsh --trials 2 --seed 5":
        "soskit biaskit strategykit monomial ncpoly numerics gamekit",
    "relations check": "soskit strategykit monomial ncpoly numerics",
    "bcs magic-square --check": "bcskit numerics",
    "bcs glued --check --witness": "bcskit numerics",
    "npa export --n 2 --level 2 --out t.dat-s":
        "npakit biaskit ncpoly gamekit",
    "psirep check --n 2": "strategykit groupkit monomial numerics",
}


@pytest.mark.parametrize("argv", README_LOADS)
def test_each_command_loads_its_readme_row(tmp_path, monkeypatch, argv):
    # Exactly the row: a module more is code the command compiles and does
    # not need, such as a handler kept in a kit outside its command's row.
    monkeypatch.chdir(tmp_path)  # for the --out files
    code, loaded = modules_loaded_by(*argv.split())
    assert code == 0
    # runpy runs the CLI as __main__, so znlcs.cli is not among them.
    assert {m for m in loaded if m.startswith("znlcs.")} == {
        f"znlcs.{m}" for m in README_LOADS[argv].split() + ["records"]}


# As LOADED_MODULES, but prints the modules in the order their code ran:
# each source module's loader runs its code once, a lazy module's at its
# first attribute read.
EXEC_ORDER = """
import atexit, importlib.machinery as machinery, json, runpy, sys
order, run = [], machinery.SourceFileLoader.exec_module
def exec_module(self, module):
    order.append(module.__name__)
    run(self, module)
machinery.SourceFileLoader.exec_module = exec_module
atexit.register(lambda: print(json.dumps(order), file=sys.stderr))
runpy.run_module("znlcs.cli", run_name="__main__", alter_sys=True)
"""


def exec_order(argv):
    """The modules whose code ``python -m znlcs.cli ARGV...`` ran, in the
    order it ran; the command must pass."""
    proc = subprocess.run(
        [sys.executable, "-c", EXEC_ORDER, *argv.split()],
        env=subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    "strategy value --n 2 --via direct", "strategy value --n 2 --via bias",
    "bias spectrum --n 2", "sos verify --cert chsh --trials 2",
    "sos verify --cert g3 --trials 2", "relations check",
    "psirep check --n 2"])
def test_strategykit_runs_before_numpy(argv):
    # The compile-order rule of znlcs/__init__.py: compiled after numpy,
    # strategykit raised the peak RSS of sos verify and bias spectrum by
    # 0.2-0.3 MB.
    order = exec_order(argv)
    assert order.index("znlcs.strategykit") < order.index("numpy")


@pytest.mark.parametrize("argv", ["group enumerate --n 2",
                                  "group normal-form --n 2",
                                  "psirep check --n 2", "psirep check --n 3"])
def test_monomial_runs_before_numpy(argv):
    # The compile-order rule again: groupkit names monomial's kernels above
    # its numpy import, and psirep check reads the group order before its
    # first array. Compiled after numpy, monomial raised the peak RSS of
    # group enumerate --n 10 by 0.3 MB, and groupkit that of psirep check
    # --n 2 by 0.4 MB.
    order = exec_order(argv)
    assert order.index("znlcs.groupkit") < order.index("numpy")
    assert order.index("znlcs.monomial") < order.index("numpy")


# numpy.random and what it alone pulls in; the seeded stream of
# znlcs.numerics runs on the standard library's random module instead.
NUMPY_RANDOM = {"numpy.random", "hashlib", "_hashlib"}


def test_commands_load_only_the_modules_they_use(tmp_path):
    code, loaded = modules_loaded_by("group", "enumerate", "--n", "2")
    assert code == 0
    assert "znlcs.groupkit" in loaded
    assert not loaded & {"znlcs.npakit", "znlcs.soskit", "znlcs.bcskit"}
    assert "dataclasses" not in loaded

    code, loaded = modules_loaded_by("game", "classical", "--n", "1")
    assert code == 2
    assert "numpy" not in loaded
    # runpy runs the CLI as __main__, so no znlcs submodule ran at all.
    assert not any(m.startswith("znlcs.") for m in loaded)
    assert not loaded & {"inspect", "dataclasses"}

    code, loaded = modules_loaded_by("strategy", "value", "--n", "2")
    assert code == 0
    assert not loaded & {"znlcs.groupkit", "znlcs.ncpoly"}
    assert not loaded & NUMPY_RANDOM

    code, loaded = modules_loaded_by("npa", "export", "--n", "2", "--level",
                                     "1", "--out", str(tmp_path / "2.dat-s"))
    assert code == 0
    assert not loaded & {"znlcs.strategykit", "znlcs.numerics"}

    code, loaded = modules_loaded_by("bcs", "magic-square", "--check")
    assert code == 0
    assert "znlcs.gamekit" not in loaded

    code, loaded = modules_loaded_by("sos", "verify", "--cert", "chsh")
    assert code == 0
    assert "znlcs.groupkit" not in loaded
    assert not loaded & NUMPY_RANDOM

    for argv in (["sos", "verify", "--cert", "g3"],
                 ["bias", "spectrum", "--n", "2"]):
        code, loaded = modules_loaded_by(*argv)
        assert code == 0
        assert not loaded & NUMPY_RANDOM, argv

    # The bias path's generator powers are monomial's power rows.
    for argv in (["bias", "spectrum", "--n", "2"],
                 ["strategy", "value", "--n", "2", "--via", "bias"]):
        code, loaded = modules_loaded_by(*argv)
        assert code == 0
        assert "znlcs.monomial" in loaded, argv
        assert "znlcs.groupkit" not in loaded, argv

    code, loaded = modules_loaded_by("group", "enumerate", "--n", "2")
    assert code == 0
    assert "csv" not in loaded
    # Group keys are sorted and deduped without np.unique, whose first call
    # imports numpy.ma.
    assert "numpy.ma" not in loaded
    for argv in (["group", "normal-form", "--n", "2"],
                 ["psirep", "check", "--n", "2"]):
        code, loaded = modules_loaded_by(*argv)
        assert code == 0
        assert "numpy.ma" not in loaded, argv

    # The export is word rewriting and text: its modules import numpy only
    # inside the functions that build arrays, and it calls none of them.
    for level in ("1", "2"):
        code, loaded = modules_loaded_by(
            "npa", "export", "--n", "2", "--level", level,
            "--out", str(tmp_path / f"2-{level}.dat-s"))
        assert code == 0
        assert "numpy" not in loaded, level

    # The canonical state's Schmidt data are its amplitudes' moduli: plain
    # Python, with no SVD and no array.
    for out in ([], ["--out", str(tmp_path / "entropy.csv")]):
        code, loaded = modules_loaded_by("strategy", "entropy", *out)
        assert code == 0
        assert "numpy" not in loaded, out


@pytest.mark.parametrize("argv", [argv for argv, _ in BAD_INPUT])
def test_refused_argv_loads_no_kit_and_no_numpy(tmp_path, monkeypatch, argv):
    # Every bound and pre-flight check is the command line's own: a refused
    # command runs no kit and imports no numpy.
    monkeypatch.chdir(tmp_path)  # for the --out files
    code, loaded = modules_loaded_by(*argv.split())
    assert code == 2
    assert {m for m in loaded if m.startswith("znlcs.")} <= {"znlcs.records"}
    assert "numpy" not in loaded


def test_no_module_names_numpy_random():
    package = pathlib.Path(znlcs.__file__).parent
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        assert "np.random" not in text and "numpy.random" not in text, path


def run_process(*args):
    """``python ARGS...`` with the tested ``znlcs`` importable."""
    return subprocess.run([sys.executable, *args], env=subprocess_env(),
                          capture_output=True, text=True, timeout=120)


def test_process_exit_keeps_every_output(tmp_path):
    # python -m znlcs.cli exits through run(): outputs must be complete.
    sdpa = tmp_path / "g3.dat-s"
    proc = run_process("-m", "znlcs.cli", "npa", "export", "--n", "3",
                       "--level", "2", "--out", str(sdpa))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True
    assert hashlib.sha256(sdpa.read_bytes()).hexdigest() == \
        SDPA_SHA256[3, 2]

    table = tmp_path / "entropy.csv"
    proc = run_process("-m", "znlcs.cli", "strategy", "entropy",
                       "--n-max", "5", "--out", str(table))
    assert proc.returncode == 0, proc.stderr
    assert len(table.read_text().splitlines()) == 5  # header + n = 2..5


# Calls run() as the ``znlcs`` script does on the argv that follows the
# script; an atexit handler, which must still run, prints whether the
# collector is on. The sentinel in __main__ writes FINALIZED when the
# interpreter's finalization frees it, which run()'s os._exit skips. Its
# __del__ is a partial, not a function of __main__, so no cycle holds
# __main__'s globals: module teardown frees it by reference counting,
# with or without a final collection.
FINALIZED = "finalized"
EXIT_STATE = f"""
import atexit, functools, gc, os, sys
import znlcs.cli
class Sentinel:
    __del__ = functools.partial(os.write, 2, b"{FINALIZED}\\n")
sentinel = Sentinel()
atexit.register(lambda: print(gc.isenabled(), file=sys.stderr))
znlcs.cli.run()
"""


def run_command_process(*argv):
    """``run()`` on argv in a fresh process, and whether the collector was
    on, as its atexit handler printed it; finalization must not have freed
    the sentinel."""
    proc = run_process("-c", EXIT_STATE, *argv)
    assert FINALIZED not in proc.stderr
    return proc, proc.stderr.splitlines()[-1]


def test_run_skips_finalization_and_exits_with_main_code():
    proc, enabled = run_command_process("game", "classical", "--n", "2")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True
    assert enabled == "False"


def test_process_bad_input_exits_2_without_traceback():
    proc, enabled = run_command_process("bias", "spectrum", "--n", "200")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error: argument --n:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert enabled == "False"


def _closed_pipe(cmd, env):
    """Run cmd with stdout a pipe whose read end is already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(cmd, stdout=write_end, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=120)
    finally:
        os.close(write_end)


NO_SPACE = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
HAS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                  reason="no /dev/full")


@pytest.mark.parametrize("stdout,why", [
    ("unbuffered", "[Errno 32] Broken pipe"),
    ("block-buffered", "[Errno 32] Broken pipe"),
    ("closed", "stdout is closed"),
    pytest.param("full-unbuffered", NO_SPACE, marks=HAS_DEV_FULL),
    pytest.param("full-block-buffered", NO_SPACE, marks=HAS_DEV_FULL)])
def test_a_report_that_cannot_be_written_exits_120(stdout, why):
    # Neither a pass (0) nor a failed check (1): one line on stderr, no
    # traceback, and CPython's own exit code for a failed flush of stdout.
    # Unbuffered, print itself raises; block-buffered, the flush at exit.
    cmd = [sys.executable, "-m", "znlcs.cli", "game", "classical", "--n",
           "3"]
    env = subprocess_env()
    if "unbuffered" in stdout:
        env["PYTHONUNBUFFERED"] = "1"
    if stdout == "closed":  # the interpreter sets sys.stdout None
        proc = subprocess.run(cmd, preexec_fn=lambda: os.close(1),
                              stderr=subprocess.PIPE, env=env, text=True,
                              timeout=120)
    elif stdout.startswith("full"):  # every write fails with ENOSPC
        with open("/dev/full", "w") as full:
            proc = subprocess.run(cmd, stdout=full, stderr=subprocess.PIPE,
                                  env=env, text=True, timeout=120)
    else:  # a pipe whose reader is gone
        proc = _closed_pipe(cmd, env)
    assert proc.returncode == 120
    assert proc.stderr == \
        f"znlcs: error: cannot write the report to stdout: {why}\n"


@HAS_DEV_FULL
@pytest.mark.parametrize("buffered", [False, True],
                         ids=["unbuffered", "block-buffered"])
@pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                  ["bias", "--help"]],
                         ids=["help", "version", "group-help"])
def test_help_that_cannot_be_written_exits_120(argv, buffered):
    # argparse drops the OSError of its own write and exits 0: unbuffered,
    # nothing would then say that the text was lost.
    env = subprocess_env()
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "znlcs.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, env=env,
                              text=True, timeout=120)
    assert proc.returncode == 120
    assert proc.stderr == \
        f"znlcs: error: cannot write the report to stdout: {NO_SPACE}\n"


def test_a_failed_out_write_is_not_an_unwritten_report(capsys, tmp_path,
                                                       monkeypatch):
    # Only the report's own write is a lost report; an --out file that
    # fails to be written raises its OSError, as any failing step does.
    from znlcs import npakit

    def full(problem, path):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    monkeypatch.setattr(npakit, "export_sdpa", full)
    with pytest.raises(OSError):
        main(["npa", "export", "--n", "2", "--out",
              str(tmp_path / "x.dat-s")])
    assert capsys.readouterr().out == ""


def _perfbench_workloads():
    """``perfbench/workloads.py``, loaded from its file."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
        "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass reads its module there
    spec.loader.exec_module(module)
    return module


def _sweep_argvs(out_dir):
    """Every cli-sweep argv, with the export of the SDPA pins' size, its
    --out files in out_dir; and the exit code each must give."""
    jobs = _perfbench_workloads().build("cli-sweep", 1, out_dir)
    out = str(out_dir / "npa-n3-l2.dat-s")
    return ([(job.argv, job.exit_code) for job in jobs]
            + [(["npa", "export", "--n", "3", "--level", "2", "--out", out],
                0)])


def test_a_process_prints_what_main_prints(capsys, tmp_path):
    # The process runs with stdout block-buffered to a regular file, so
    # everything it prints must be flushed before os._exit.
    inside, outside = tmp_path / "main", tmp_path / "process"
    inside.mkdir()
    outside.mkdir()
    stdout = tmp_path / "stdout"
    clock = re.compile(r'"wallTimeSeconds": [-+.e0-9]+')
    for (argv, code), (process_argv, _) in zip(_sweep_argvs(inside),
                                                _sweep_argvs(outside)):
        assert main(argv) == code, argv
        want = capsys.readouterr()
        with open(stdout, "wb") as fh:
            proc = subprocess.run(
                [sys.executable, "-m", "znlcs.cli", *process_argv],
                stdout=fh, stderr=subprocess.PIPE, env=subprocess_env(),
                text=True, timeout=120)
        got = stdout.read_text().replace(str(outside), str(inside))
        assert proc.returncode == code, argv
        assert clock.sub("", got) == clock.sub("", want.out), argv
        assert proc.stderr == want.err, argv
        if code == 0:
            assert json.loads(got)["pass"] is True, argv
        else:  # the usage line, then the error
            usage, error = proc.stderr.splitlines()
            assert usage.startswith(f"usage: znlcs {' '.join(argv[:2])} ")
            assert ": error: argument --" in error
    written = sorted(path.name for path in inside.iterdir())
    assert written == sorted(path.name for path in outside.iterdir())
    assert "npa-n3-l2.dat-s" in written
    for name in written:
        assert (inside / name).read_bytes() == (outside / name).read_bytes()


def test_main_leaves_the_collector_unfrozen(capsys):
    # ... and on or off, as its caller set it.
    was_enabled = gc.isenabled()
    before = gc.get_freeze_count()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            code, _ = run(capsys, "game", "classical", "--n", "3")
            assert code == 0
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == before
    finally:
        (gc.enable if was_enabled else gc.disable)()


# For every command, a small argv and a larger admitted one; the bcs
# systems and the relations catalogue have fixed sizes, so each runs twice.
SIZES = {
    ("game", "classical"): ("--n 2", "--n 40"),
    ("strategy", "value"): ("--n 3 --via bias", "--n 161 --via bias"),
    ("strategy", "entropy"): ("--n-max 2 --out t.csv",
                              "--n-max 500 --out t.csv"),
    ("bias", "spectrum"): ("--n 3", "--n 120"),
    ("group", "enumerate"): ("--n 3", "--n 11"),
    ("group", "normal-form"): ("--n 3", "--n 11"),
    ("sos", "verify"): ("--cert chsh --trials 10",
                        "--cert chsh --trials 1000"),
    ("relations", "check"): ("", ""),
    ("bcs", "magic-square"): ("--check", "--check"),
    ("bcs", "glued"): ("--check --witness", "--check --witness"),
    ("npa", "export"): ("--n 2 --level 1 --out t.dat-s",
                        "--n 5 --level 2 --out t.dat-s"),
    ("psirep", "check"): ("--n 2", "--n 3"),
}


@pytest.mark.parametrize("command", SIZES, ids=" ".join)
def test_no_command_leaves_cyclic_garbage_growing_with_size(
        tmp_path, monkeypatch, capsys, command):
    # run() turns the collector off for a whole command, so reference
    # counting alone must free the command's work: what a collection finds
    # after main() (argparse's parser tree) must not grow with the size.
    monkeypatch.chdir(tmp_path)  # for the --out files
    argvs = [[*command, *sizes.split()] for sizes in SIZES[command]]
    for argv in argvs:  # warm up: first loads and caches are not garbage
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True
    was_enabled = gc.isenabled()
    found = []
    try:
        gc.disable()
        for argv in argvs:
            gc.collect()
            assert main(argv) == 0
            found.append(gc.collect())
            assert json.loads(capsys.readouterr().out)["pass"] is True
    finally:
        if was_enabled:
            gc.enable()
    assert found[0] == found[1] < 1000, found


def test_script_entry_point_is_run():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["znlcs"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is znlcs.cli.run
