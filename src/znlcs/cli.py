"""Command-line surface: every subsystem behind one argparse tree.

Each invocation prints a JSON run report (command, parameters, results with
their tolerances, pass flags, seed, wall time) to stdout and exits 0 when
every asserted check passes, 1 when a check fails, 2 on usage errors, and,
as a process, 120 when the report cannot be written to stdout (stdout
closed, its reader gone, or a write or its flush failing), which is
neither a pass nor a failed check; help or the version that stdout
refuses exits 120 too.
CSV and SDPA outputs go to --out paths. The environment variable
``ZNLCS_SEED`` supplies the default seed; a value that is not an int >= 0
is a usage error. ``COMMANDS`` declares every command once: its handler,
its pre-flight check and its arguments. Each handler lives in the kit
that computes its results (``game classical`` in ``gamekit``, ``sos
verify`` in ``soskit``) and is read from there only when its command
runs, so a process compiles the one handler it runs, not all eleven. A
size bound on one flag is that flag's argparse type (``_int_in``); a
pre-flight check bounds sizes that depend on two flags. Bounds and checks
stay here: they are the command line's, not the kits', and no check loads
a kit.

``main`` owns each report's life. Right after parsing it builds the
``Report`` from the command's ``COMMANDS`` entry: the command name, each
declared flag but ``--seed`` as a camelCase parameter (``--n-max`` is
``nMax``), and the seed of a command with ``--seed`` (else ``None``). The
report's clock starts there, so its wall time covers the pre-flight check
(such as a size bound), the work, and loading the modules (and numpy) that
either uses, the handler's kit among them; the interpreter's start and
exit, and argparse, stay outside it. ``main`` then runs the pre-flight
check, reads the handler and calls ``handler(args, rep)``, which only
computes and adds results, and prints the report with ``rep.finish()``.

The other ``znlcs`` modules load on first use (see ``znlcs/__init__.py``),
so a command runs only the code it needs. README's command-line section
lists the modules each command loads and what a process pays besides its
command's work; ``build_parser(argv)`` builds the parsers of the command
argv names only.

``run()`` is the process entry point (the ``znlcs`` script and ``python
-m znlcs.cli``): it runs the whole command with the cyclic garbage
collector off, then runs the atexit handlers, flushes stdout and stderr
and ends the process with ``os._exit``, skipping the interpreter's
finalization. ``main(argv)`` is the in-process API; it leaves the
collector as it is and returns the exit code.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

# Modules, not names: each is a lazy module (see ``znlcs/__init__.py``),
# loaded when a command first reads one of its attributes.
from . import (__version__, bcskit, biaskit, gamekit, groupkit, npakit,
               soskit, strategykit)

DEFAULT_SEED = 20210
# The exit code of a process whose report cannot be written to stdout: the
# code CPython itself exits with when flushing stdout at exit fails.
REPORT_UNWRITTEN = 120


def _int_in(low: int, high: Optional[int] = None):
    """argparse type: an int >= low and, if high is given, <= high; else a
    usage error (exit 2)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _seed_default() -> int:
    """ZNLCS_SEED if set, else DEFAULT_SEED; a ValueError naming the
    variable unless it is an int >= 0."""
    env = os.environ.get("ZNLCS_SEED", "").strip()
    if not env:
        return DEFAULT_SEED
    if env.isascii() and env.isdigit():
        return int(env)
    raise ValueError("environment variable ZNLCS_SEED: must be an int >= 0, "
                     f"got {env!r}")


class ReportUnwritten(Exception):
    """Writing the report to stdout failed; the one argument is the
    OSError."""


class Report:
    """The JSON run report of one command; its wall time counts from its
    construction."""

    def __init__(self, command: str, parameters: Dict[str, Any],
                 seed: Optional[int]):
        self.data: Dict[str, Any] = {
            "command": command,
            "parameters": parameters,
            "seed": seed,
            "results": [],
        }
        self.t0 = time.perf_counter()

    def result(self, name: str, value: Any, tolerance: Optional[float] = None,
               target: Any = None) -> None:
        """Add a result; one with a tolerance and a target passes when
        |value - target| <= tolerance."""
        entry: Dict[str, Any] = {"name": name, "value": value}
        if tolerance is not None:
            entry["tolerance"] = tolerance
        if target is not None:
            entry["target"] = target
        if tolerance is not None and target is not None:
            entry["pass"] = bool(abs(value - target) <= tolerance)
        self.data["results"].append(entry)

    def finish(self) -> int:
        self.data["wallTimeSeconds"] = round(
            time.perf_counter() - self.t0, 6)
        self.data["pass"] = all(r.get("pass", True)
                                for r in self.data["results"])
        try:
            print(json.dumps(self.data, indent=2))
        except OSError as exc:  # stdout's reader gone, or its device full
            raise ReportUnwritten(exc) from exc
        return 0 if self.data["pass"] else 1


def _classical_check(args) -> Optional[str]:
    for flag in ("m1", "m2"):
        value = getattr(args, flag)
        if not 0 <= value < args.n:
            return (f"argument --{flag}: must lie in [0, {args.n}), "
                    f"got {value}")
    return None


# The largest --n of strategy value by --via (one BLAS thread on a 2-core
# Xeon):
# - bias builds block 0 of the canonical bias operator alone, n x n
#   complex128 (16 n^2 bytes, within 32 MiB up to n = 1448): 0.26-0.42 s
#   in-process and 83 MB peak RSS at n = 1448 (seven runs);
# - direct builds four (n, n, n) complex128 projector stacks (64 n^3
#   bytes, within 64 MiB up to n = 101): 0.50-0.52 s and 110 MB peak RSS
#   at n = 101 (medians of 5 in two rounds).
VALUE_N_MAX = {"bias": 1448, "direct": 101}
# The largest --n of npa export by --level: the moment matrix indexes at
# most N = 421 words (1 + 4(n - 1), plus 8(n - 1)^2 at level 2), and each
# export at N = 421 takes about 2.4 s and 229-238 MB (2-core Xeon, one run
# each).
EXPORT_N_MAX = {1: 106, 2: 8}


def _strategy_value_check(args) -> Optional[str]:
    high = VALUE_N_MAX[args.via]
    if args.n > high:
        return (f"argument --n: must be <= {high} with --via {args.via}, "
                f"got {args.n}")
    return None


def _npa_export_check(args) -> Optional[str]:
    """--n under its level's bound, and then --out, whose probe creates
    the file."""
    high = EXPORT_N_MAX[args.level]
    if args.n > high:
        return (f"argument --n: must be <= {high} at --level {args.level}, "
                f"got {args.n}")
    return _out_file_check(args)


def _witness_check(args) -> Optional[str]:
    if args.witness:
        return "argument --witness: applies to the glued system only"
    return None


def _out_file_check(args) -> Optional[str]:
    """--out, when given, must name a regular file or nothing yet, in a
    directory that exists (a bare name is in the current one), that the OS
    opens for appending (which truncates nothing)."""
    if args.out is None:
        return None
    if not args.out:
        return "argument --out: empty path"
    if os.path.exists(args.out) and not os.path.isfile(args.out):
        return f"argument --out: not a regular file, got {args.out}"
    parent = os.path.dirname(args.out)
    if parent and not os.path.isdir(parent):
        return f"argument --out: no directory {parent}, got {args.out}"
    try:
        open(args.out, "a").close()
    except OSError as err:
        return f"argument --out: {err.strerror}, got {args.out}"
    return None


_BCS_FLAGS = [("--check", {"action": "store_true"}),
              ("--witness", {"action": "store_true"})]

# Every command, in the order of the help text: (group, command) ->
# (handler, preflight, arguments). The handler is read from its kit when
# the command runs (``lambda: gamekit.classical_command``): reading it here
# would load every kit. It adds its results to the report that ``main``
# built. The pre-flight check, if any, runs after parsing and before any
# work, and returns a usage error ("argument --FLAG: ...") or None. Each
# argument is (flag, add_argument keywords).
COMMANDS = {
    ("game", "classical"): (lambda: gamekit.classical_command,
                             _classical_check, [
        # 4n^3 payoff evaluations, within 10^8 up to n = 292: 0.72-0.78 s
        # in-process and 111 MB peak RSS at n = 292 (2-core Xeon, one BLAS
        # thread, three runs).
        ("--n", {"type": _int_in(2, 292), "required": True}),
        ("--m1", {"type": int, "default": 0}),
        ("--m2", {"type": int, "default": 1})]),
    ("strategy", "value"): (lambda: strategykit.value_command,
                             _strategy_value_check, [
        ("--n", {"type": _int_in(2), "required": True}),
        ("--via", {"choices": ["bias", "direct"], "default": "direct"})]),
    ("strategy", "entropy"): (lambda: strategykit.entropy_command,
                               _out_file_check, [
        # The n amplitudes of each n up to --n-max in pure Python,
        # O(n-max^2) work: 1.0-1.4 s and 16 MB peak RSS at 2000 (2-core
        # Xeon).
        ("--n-max", {"type": _int_in(2, 2000), "default": 40}),
        ("--out", {"default": None})]),
    ("bias", "spectrum"): (lambda: biaskit.spectrum_command, None, [
        # n blocks of n x n complex128 (16 n^3 bytes, within 64 MiB up to
        # n = 161): 0.8-1.0 s and 96 MB peak RSS at n = 161, of which the n
        # values-only eigensolves take 0.66-0.68 s and bias_blocks
        # 0.28-0.30 s (2-core Xeon in a slow phase, one BLAS thread, best
        # of 3 in each of three runs).
        ("--n", {"type": _int_in(2, 161), "required": True})]),
    ("group", "enumerate"): (lambda: groupkit.enumerate_command, None, [
        # A group of order n^2 2^(n-1), within 10^6 up to n = 13 (692,224
        # elements): 0.76-0.88 s and 76 MB peak RSS at n = 13 (five runs).
        ("--n", {"type": _int_in(1, 13), "required": True})]),
    ("group", "normal-form"): (lambda: groupkit.normal_form_command, None, [
        # As many normal forms as elements: 0.22-0.24 s and 67 MB peak RSS
        # at n = 13 (three runs).
        ("--n", {"type": _int_in(1, 13), "required": True})]),
    ("sos", "verify"): (lambda: soskit.verify_command, None, [
        ("--cert", {"choices": ["chsh", "g3"], "required": True}),
        # chsh at 10^5 trials: 15 s and 31 MB peak RSS, as at 100 trials;
        # g3 at 10^4: 3.9 s and 31 MB (one BLAS thread on a 2-core Xeon),
        # so about 40 s at 10^5.
        ("--trials", {"type": _int_in(1, 10**5), "default": 100}),
        # None: ZNLCS_SEED, read when the command runs.
        ("--seed", {"type": _int_in(0), "default": None})]),
    ("relations", "check"): (lambda: soskit.relations_command, None, [
        ("--n", {"type": int, "choices": [3], "default": 3})]),
    ("bcs", "magic-square"): (lambda: bcskit.bcs_command, _witness_check,
                               _BCS_FLAGS),
    ("bcs", "glued"): (lambda: bcskit.bcs_command, None, _BCS_FLAGS),
    ("npa", "export"): (lambda: npakit.export_command, _npa_export_check, [
        ("--n", {"type": _int_in(2), "required": True}),
        ("--level", {"type": int, "choices": [1, 2], "default": 1}),
        ("--out", {"required": True})]),
    ("psirep", "check"): (lambda: strategykit.psirep_command, None, [
        ("--n", {"type": int, "choices": [2, 3], "required": True})]),
}
GROUPS = list(dict.fromkeys(group for group, _ in COMMANDS))
# The namespace attribute naming a group's command; "sub" unless listed.
COMMAND_DEST = {"bcs": "system"}


class _Parser(argparse.ArgumentParser):
    """argparse's parser, save that help or the version that stdout refuses
    raises ReportUnwritten, as a report would, where argparse drops the
    OSError and exits 0. Subparsers take the class of their parent."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            try:
                file.write(message)
            except OSError as exc:
                raise ReportUnwritten(exc) from exc
        else:
            super()._print_message(message, file)


def _named_command(argv: Optional[Sequence[str]]):
    """The (group, command) that argv names, or None when it names none or
    asks for help or the version."""
    if argv is None or len(argv) < 2 or tuple(argv[:2]) not in COMMANDS:
        return None
    if any(arg in ("-h", "--help", "--version") for arg in argv):
        return None
    return argv[0], argv[1]


def build_parser(argv: Optional[Sequence[str]] = None
                 ) -> argparse.ArgumentParser:
    """The argparse tree for argv: the group and command argv names, and no
    other, or every command (the full tree) when argv names none, asks for
    help or the version, or is None. Argparse builds each parser at a
    cost, so one command's tree starts faster; it parses, and errs, as the
    full tree does."""
    named = _named_command(argv)
    parser = _Parser(
        prog="znlcs",
        description="Mod-n nonlocal games: values, groups, certificates.")
    parser.add_argument("--version", action="version", version=__version__)
    # With one group registered, the usage still names every group, as
    # argparse's own usage of the full tree does.
    groups = parser.add_subparsers(
        dest="group", required=True,
        metavar=None if named is None else "{%s}" % ",".join(GROUPS))
    commands = {}
    for (group, sub), (_, _, arguments) in COMMANDS.items():
        if named not in (None, (group, sub)):
            continue
        if group not in commands:
            commands[group] = groups.add_parser(group).add_subparsers(
                dest=COMMAND_DEST.get(group, "sub"), required=True)
        leaf = commands[group].add_parser(sub)
        for flag, options in arguments:
            leaf.add_argument(flag, **options)
        leaf.set_defaults(command=(group, sub), subparser=leaf)
    return parser


def _envelope(args, arguments) -> Tuple[Dict[str, Any], Optional[int]]:
    """The report's parameters, each declared flag but --seed by its
    camelCase name (--n-max: nMax), and its seed: --seed, else ZNLCS_SEED,
    for a command with that flag, else None. A bad ZNLCS_SEED raises
    ValueError."""
    words = [flag[2:].split("-") for flag, _ in arguments]
    parameters = {head + "".join(map(str.title, rest)):
                  getattr(args, "_".join([head, *rest]))
                  for head, *rest in words if head != "seed"}
    if ["seed"] not in words:
        return parameters, None
    return parameters, _seed_default() if args.seed is None else args.seed


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv).parse_args(argv)
        handler, preflight, arguments = COMMANDS[args.command]
        try:
            envelope = _envelope(args, arguments)
        except ValueError as exc:  # a bad ZNLCS_SEED
            args.subparser.error(str(exc))
        # The report's clock starts here, so its wall time covers the
        # check.
        rep = Report(" ".join(args.command), *envelope)
        problem = preflight(args) if preflight else None
        if problem:
            args.subparser.error(problem)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version.
        return int(exc.code or 0)
    # Reading the handler loads its kit, inside the report's clock.
    handler()(args, rep)
    return rep.finish()


def run() -> None:
    """Process entry point: main() with the cyclic collector off, then the
    atexit handlers, the flush of stdout and stderr, and ``os._exit``.

    A command's work leaves no cyclic garbage that grows with its size
    (``tests/test_cli.py``
    ``test_no_command_leaves_cyclic_garbage_growing_with_size``), so
    reference counting frees its memory, and the collections that loading
    numpy and these modules would trigger are skipped. ``os._exit`` skips
    the interpreter's finalization, the teardown of every module and of
    every object numpy and these modules hold; the OS reclaims the memory.
    What that finalization would still do for the output, this does first:
    it runs the atexit handlers, as CPython does at exit, and flushes the
    std streams. Every ``--out`` file is closed before ``main`` returns.

    A report that cannot be written (stdout closed at start, its reader
    gone, or a write or the flush failing) is neither a pass nor a failed
    check: one line on stderr and exit ``REPORT_UNWRITTEN``."""
    gc.disable()
    lost = None
    if sys.stdout is None:  # fd 1 was closed when the interpreter started
        lost = "stdout is closed"
    else:
        try:
            code = main()
        except ReportUnwritten as exc:  # stdout refused the report
            lost = exc
    atexit._run_exitfuncs()
    if lost is None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            lost = exc
    try:
        if lost is not None:
            code = REPORT_UNWRITTEN
            sys.stderr.write(f"znlcs: error: cannot write the report to "
                             f"stdout: {lost}\n")
        sys.stderr.flush()
    except (AttributeError, OSError):  # no stderr, or a broken one
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
