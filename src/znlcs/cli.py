"""Command-line surface: every subsystem behind one argparse tree.

Each invocation prints a JSON run report (command, parameters, results with
their tolerances, pass flags, seed, wall time) to stdout and exits 0 when
every asserted check passes, 1 when a check fails, 2 on usage errors.
CSV and SDPA outputs go to --out paths. The environment variable
``ZNLCS_SEED`` supplies the default seed; a value that is not an int >= 0
is a usage error. ``COMMANDS`` declares every command once: its handler,
its pre-flight check and its arguments.

``main`` owns each report's life. Right after parsing it builds the
``Report`` from the command's ``COMMANDS`` entry: the command name, each
declared flag but ``--seed`` as a camelCase parameter (``--n-max`` is
``nMax``), and the seed of a command with ``--seed`` (else ``None``). The
report's clock starts there, so its wall time covers the pre-flight check
(such as a size bound), the work, and loading the modules (and numpy) that
either uses; the interpreter's start and exit, and argparse, stay outside
it. ``main`` then runs the pre-flight check, calls ``handler(args, rep)``,
which only computes and adds results, and prints the report with
``rep.finish()``.

The other ``znlcs`` modules load on first use (see ``znlcs/__init__.py``),
so a command runs only the code it needs. README's command-line section
lists the modules each command loads and what a process pays besides its
command's work; ``build_parser(argv)`` builds the parsers of the command
argv names only.

``run()`` is the process entry point (the ``znlcs`` script and ``python
-m znlcs.cli``) and skips the interpreter's teardown collection;
``main(argv)`` is the in-process API and leaves the collector as it is.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

# Modules, not names: each is a lazy module (see ``znlcs/__init__.py``),
# loaded when a command first reads one of its attributes.
from . import (__version__, bcskit, biaskit, gamekit, groupkit, npakit,
               soskit, strategykit)

DEFAULT_SEED = 20210


def _int_at_least(low: int):
    """argparse type: an int >= low, else a usage error (exit 2)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
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


class Report:
    """The JSON run report of one command; its wall time counts from its
    construction."""

    def __init__(self, command: str, parameters: Dict[str, Any],
                 seed: Optional[int] = None):
        self.data: Dict[str, Any] = {
            "command": command,
            "parameters": parameters,
            "seed": seed,
            "results": [],
        }
        self.t0 = time.perf_counter()

    def result(self, name: str, value: Any, tolerance: Optional[float] = None,
               target: Any = None, ok: Optional[bool] = None) -> None:
        entry: Dict[str, Any] = {"name": name, "value": value}
        if tolerance is not None:
            entry["tolerance"] = tolerance
        if target is not None:
            entry["target"] = target
        if ok is None and tolerance is not None and target is not None:
            ok = abs(value - target) <= tolerance
        if ok is not None:
            entry["pass"] = bool(ok)
        self.data["results"].append(entry)

    def finish(self) -> int:
        self.data["wallTimeSeconds"] = round(
            time.perf_counter() - self.t0, 6)
        self.data["pass"] = all(r.get("pass", True)
                                for r in self.data["results"])
        print(json.dumps(self.data, indent=2))
        return 0 if self.data["pass"] else 1


def cmd_game_classical(args, rep: Report) -> None:
    game = gamekit.make_mod_n_game(
        gamekit.ModNGameParams(args.n, args.m1, args.m2))
    value, pairs = gamekit.classical_value(game)
    rep.result("classical_value", value)
    rep.result("optimal_pair_count", pairs)


def cmd_strategy_value(args, rep: Report) -> None:
    s = strategykit.canonical_strategy(args.n)
    p = gamekit.ModNGameParams(args.n, 0, 1)
    if args.via == "bias":
        value = biaskit.bias_value(p, s)
    else:
        value = strategykit.strategy_value_direct(
            gamekit.make_mod_n_game(p), s)
    formula = strategykit.canonical_value_formula(args.n)
    rep.result("value", value, tolerance=1e-9, target=formula)
    rep.result("formula_value", formula)


def cmd_strategy_entropy(args, rep: Report) -> None:
    rows = []
    for n in range(2, args.n_max + 1):
        sd = strategykit.schmidt(strategykit.canonical_state(n), n, n)
        ratio = sd.entropy / math.log2(n)
        rows.append((n, strategykit.canonical_value_formula(n), ratio))
        if sd.rank != n:
            rep.result(f"schmidt_rank_n{n}", sd.rank, target=n,
                       tolerance=0.0, ok=False)
    if args.out:
        import csv

        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "value", "entropy_ratio"])
            for n, value, ratio in rows:
                writer.writerow([n, f"{value:.6f}", f"{ratio:.6f}"])
    rep.result("rows", len(rows))
    rep.result("final_entropy_ratio", rows[-1][2])


def cmd_bias_spectrum(args, rep: Report) -> None:
    p = gamekit.ModNGameParams(args.n, 0, 1)
    report = biaskit.bias_spectrum(p, strategykit.canonical_strategy(args.n))
    formula = biaskit.bias_eigenvalue_formula(args.n)
    rep.result("top_eigenvalue", report.top_eigenvalue, tolerance=1e-9,
               target=formula)
    rep.result("multiplicity", report.multiplicity)
    rep.result("predicted_value", report.predicted_value, tolerance=1e-9,
               target=strategykit.canonical_value_formula(args.n))
    rep.result("eigenrelation_residual",
               biaskit.eigenrelation_residual(args.n), tolerance=1e-9,
               target=0.0)


def cmd_group_enumerate(args, rep: Report) -> None:
    rows = groupkit.enumerate_group(list(groupkit.alice_generators(args.n)))
    rep.result("group_order", len(rows), tolerance=0.0,
               target=groupkit.group_order(args.n))
    failures = groupkit.verify_presentation(args.n)
    rep.result("failed_relators", len(failures), tolerance=0.0, target=0)


def cmd_group_normal_form(args, rep: Report) -> None:
    rows = groupkit.normal_form_enumerate(args.n)
    rep.result("distinct_normal_forms", len(rows), tolerance=0.0,
               target=groupkit.group_order(args.n))


def cmd_sos_verify(args, rep: Report) -> None:
    if args.cert == "chsh":
        cert = soskit.certificate_chsh()
        tol = 1e-9
    else:
        cert = soskit.certificate_g3()
        tol = 1e-8
    bias = biaskit.bias_polynomial(gamekit.ModNGameParams(cert.order, 0, 1))
    residual = soskit.verify_sos_identity(cert, bias, args.trials,
                                          rep.data["seed"])
    rep.result("identity_residual", residual, tolerance=tol, target=0.0)
    s = strategykit.canonical_strategy(cert.order)
    worst = max(r for _, r in soskit.annihilation_residuals(cert, s))
    rep.result("annihilation_residual", worst, tolerance=1e-9, target=0.0)


def cmd_relations_check(args, rep: Report) -> None:
    s = strategykit.canonical_strategy(3)
    worst = 0.0
    for name, poly in soskit.derived_relations_g3():
        r = strategykit.check_state_relation(s, poly)
        rep.result(f"relation_{name}", r, tolerance=1e-9, target=0.0)
        worst = max(worst, r)
    rep.result("worst_residual", worst, tolerance=1e-9, target=0.0)


def cmd_bcs(args, rep: Report) -> None:
    if args.system == "magic-square":
        lcs, sol = bcskit.magic_square()
        solutions = [("solution", sol)]
    else:
        lcs, E, F = bcskit.glued_magic_square()
        solutions = [("E", E), ("F", F)]
    if args.check or not args.witness:
        for name, sol in solutions:
            report = bcskit.verify_operator_solution(lcs, sol)
            rep.result(f"{name}_verified", int(report.clean),
                       tolerance=0.0, target=1)
            _, value = bcskit.solution_to_strategy(lcs, sol)
            rep.result(f"{name}_strategy_value", value, tolerance=1e-9,
                       target=1.0)
    if args.witness:
        inner, trace, anticomm = bcskit.nonrigidity_witness()
        rep.result("inner_product", inner, tolerance=1e-9, target=0.5)
        rep.result("trace", trace, tolerance=1e-9, target=4.0)
        rep.result("anticommutator_norm", anticomm, tolerance=1e-9,
                   target=0.0)


def cmd_npa_export(args, rep: Report) -> None:
    mp = npakit.build_moment_problem(gamekit.ModNGameParams(args.n, 0, 1),
                                     args.level)
    prob = npakit.export_sdpa(mp, args.out)
    with open(args.out) as fh:
        written = fh.read()
    rep.result("moment_matrix_size", mp.size)
    rep.result("sdpa_block_size", prob.block_sizes[0])
    rep.result("round_trip_exact", int(npakit.parse_sdpa(written) == prob),
               tolerance=0.0, target=1)


def cmd_psirep_check(args, rep: Report) -> None:
    res_a, res_b = strategykit.psi_representation_residuals(
        strategykit.canonical_strategy(args.n))
    rep.result("alice_residual", res_a, tolerance=1e-9, target=0.0)
    rep.result("bob_residual", res_b, tolerance=1e-9, target=0.0)


def _classical_check(args) -> Optional[str]:
    for flag in ("m1", "m2"):
        value = getattr(args, flag)
        if not 0 <= value < args.n:
            return (f"argument --{flag}: must lie in [0, {args.n}), "
                    f"got {value}")
    # The mod-n game: two questions a player, n answers each.
    work = gamekit.classical_work(2, 2, args.n, args.n)
    if work > gamekit.CLASSICAL_BUDGET:
        return (f"argument --n: the classical search needs ~{work:.2e} "
                f"payoff evaluations, over the budget of "
                f"{gamekit.CLASSICAL_BUDGET:.0e}, got {args.n}")
    return None


def _group_order_check(args) -> Optional[str]:
    if groupkit.group_order_exceeds_cap(args.n):
        return (f"argument --n: the group of order n^2 2^(n-1) exceeds "
                f"the enumeration cap {groupkit.ENUMERATION_CAP} "
                f"elements, got {args.n}")
    return None


def _bytes_check(args, what: str, size: int, cap: int) -> Optional[str]:
    """A usage error naming --n when ``what`` needs more than cap bytes."""
    if size > cap:
        return (f"argument --n: {what} needs {size:.2e} bytes, over the "
                f"cap of {cap:.2e}, got {args.n}")
    return None


def _operator_size_check(args) -> Optional[str]:
    """The dense n^2 x n^2 bias operator must fit the byte cap."""
    return _bytes_check(args, "the dense bias operator",
                        biaskit.operator_bytes(args.n),
                        biaskit.SPECTRUM_BYTES_CAP)


def _strategy_value_check(args) -> Optional[str]:
    """The bias path builds the dense bias operator, the direct path the
    projectors of all four observables."""
    if args.via == "bias":
        return _operator_size_check(args)
    return _bytes_check(args, "the direct sum's projector stack",
                        strategykit.projector_bytes(args.n),
                        strategykit.PROJECTOR_BYTES_CAP)


def _entropy_check(args) -> Optional[str]:
    """--n-max (one SVD for each n up to it) under its cap, and --out."""
    if args.n_max > strategykit.ENTROPY_N_MAX:
        return (f"argument --n-max: over the cap of "
                f"{strategykit.ENTROPY_N_MAX}, got {args.n_max}")
    return _out_file_check(args)


def _trials_check(args) -> Optional[str]:
    if args.trials > soskit.TRIALS_CAP:
        return (f"argument --trials: over the cap of "
                f"{soskit.TRIALS_CAP:.0e}, got {args.trials}")
    return None


def _witness_check(args) -> Optional[str]:
    if args.witness:
        return "argument --witness: applies to the glued system only"
    return None


def _out_file_check(args) -> Optional[str]:
    """--out, when given, must name a regular file or nothing yet, in a
    directory that exists (a bare name is in the current one)."""
    if args.out is None:
        return None
    if os.path.exists(args.out) and not os.path.isfile(args.out):
        return f"argument --out: not a regular file, got {args.out}"
    parent = os.path.dirname(args.out)
    if parent and not os.path.isdir(parent):
        return f"argument --out: no directory {parent}, got {args.out}"
    return None


_BCS_FLAGS = [("--check", {"action": "store_true"}),
              ("--witness", {"action": "store_true"})]

# Every command, in the order of the help text: (group, command) ->
# (handler, preflight, arguments). The pre-flight check, if any, runs after
# parsing and before any work, and returns a usage error
# ("argument --FLAG: ...") or None. The handler adds its results to the
# report that ``main`` built. Each argument is (flag, add_argument
# keywords).
COMMANDS = {
    ("game", "classical"): (cmd_game_classical, _classical_check, [
        ("--n", {"type": _int_at_least(2), "required": True}),
        ("--m1", {"type": int, "default": 0}),
        ("--m2", {"type": int, "default": 1})]),
    ("strategy", "value"): (cmd_strategy_value, _strategy_value_check, [
        ("--n", {"type": _int_at_least(2), "required": True}),
        ("--via", {"choices": ["bias", "direct"], "default": "direct"})]),
    ("strategy", "entropy"): (cmd_strategy_entropy, _entropy_check, [
        ("--n-max", {"type": _int_at_least(2), "default": 40}),
        ("--out", {"default": None})]),
    ("bias", "spectrum"): (cmd_bias_spectrum, _operator_size_check, [
        ("--n", {"type": _int_at_least(2), "required": True})]),
    ("group", "enumerate"): (cmd_group_enumerate, _group_order_check, [
        ("--n", {"type": _int_at_least(1), "required": True})]),
    ("group", "normal-form"): (cmd_group_normal_form, _group_order_check, [
        ("--n", {"type": _int_at_least(1), "required": True})]),
    ("sos", "verify"): (cmd_sos_verify, _trials_check, [
        ("--cert", {"choices": ["chsh", "g3"], "required": True}),
        ("--trials", {"type": _int_at_least(1), "default": 100}),
        # None: ZNLCS_SEED, read when the command runs.
        ("--seed", {"type": _int_at_least(0), "default": None})]),
    ("relations", "check"): (cmd_relations_check, None, [
        ("--n", {"type": int, "choices": [3], "default": 3})]),
    ("bcs", "magic-square"): (cmd_bcs, _witness_check, _BCS_FLAGS),
    ("bcs", "glued"): (cmd_bcs, None, _BCS_FLAGS),
    ("npa", "export"): (cmd_npa_export, _out_file_check, [
        ("--n", {"type": _int_at_least(2), "required": True}),
        ("--level", {"type": int, "choices": [1, 2], "default": 1}),
        ("--out", {"required": True})]),
    ("psirep", "check"): (cmd_psirep_check, None, [
        ("--n", {"type": int, "choices": [2, 3], "required": True})]),
}
GROUPS = list(dict.fromkeys(group for group, _ in COMMANDS))
# The namespace attribute naming a group's command; "sub" unless listed.
COMMAND_DEST = {"bcs": "system"}


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
    parser = argparse.ArgumentParser(
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
        # check and the modules the check loads.
        rep = Report(" ".join(args.command), *envelope)
        problem = preflight(args) if preflight else None
        if problem:
            args.subparser.error(problem)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version.
        return int(exc.code or 0)
    handler(args, rep)
    return rep.finish()


def run() -> None:
    """Process entry point: main(), then exit without the teardown
    collection. gc.freeze moves every surviving object (numpy's and these
    modules') into the permanent generation, which the interpreter's final
    collections skip, and the OS reclaims the memory. ``finally`` blocks,
    atexit handlers and the std-stream flush still run."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
