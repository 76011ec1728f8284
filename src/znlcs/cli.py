"""Command-line surface: every subsystem behind one argparse tree.

Each invocation prints a JSON run report (command, parameters, results with
their tolerances, pass flags, seed, wall time) to stdout and exits 0 when
every asserted check passes, 1 when a check fails, 2 on usage errors.
CSV and SDPA outputs go to --out paths. The environment variable
``ZNLCS_SEED`` supplies the default seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from typing import Any, Dict, List, Optional

from . import __version__, bcskit, biaskit, groupkit, npakit, soskit
from .gamekit import ModNGameParams, classical_value, make_mod_n_game
from .strategykit import (canonical_state, canonical_strategy,
                          canonical_value_formula,
                          psi_representation_residuals, schmidt,
                          strategy_value_direct)

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
    env = os.environ.get("ZNLCS_SEED", "").strip()
    return int(env) if env else DEFAULT_SEED


class Report:
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


def cmd_game_classical(args) -> int:
    rep = Report("game classical",
                 {"n": args.n, "m1": args.m1, "m2": args.m2})
    game = make_mod_n_game(ModNGameParams(args.n, args.m1, args.m2))
    value, pairs = classical_value(game)
    rep.result("classical_value", value)
    rep.result("optimal_pair_count", pairs)
    return rep.finish()


def cmd_strategy_value(args) -> int:
    rep = Report("strategy value", {"n": args.n, "via": args.via})
    s = canonical_strategy(args.n)
    p = ModNGameParams(args.n, 0, 1)
    if args.via == "bias":
        value = biaskit.bias_value(p, s)
    else:
        value = strategy_value_direct(make_mod_n_game(p), s)
    formula = canonical_value_formula(args.n)
    rep.result("value", value, tolerance=1e-9, target=formula)
    rep.result("formula_value", formula)
    return rep.finish()


def cmd_strategy_entropy(args) -> int:
    rep = Report("strategy entropy",
                 {"nMax": args.n_max, "out": args.out})
    rows = []
    for n in range(2, args.n_max + 1):
        sd = schmidt(canonical_state(n), n, n)
        ratio = sd.entropy / math.log2(n)
        rows.append((n, canonical_value_formula(n), ratio))
        if sd.rank != n:
            rep.result(f"schmidt_rank_n{n}", sd.rank, target=n,
                       tolerance=0.0, ok=False)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "value", "entropy_ratio"])
            for n, value, ratio in rows:
                writer.writerow([n, f"{value:.6f}", f"{ratio:.6f}"])
    rep.result("rows", len(rows))
    rep.result("final_entropy_ratio", rows[-1][2])
    return rep.finish()


def cmd_bias_spectrum(args) -> int:
    rep = Report("bias spectrum", {"n": args.n})
    p = ModNGameParams(args.n, 0, 1)
    report = biaskit.bias_spectrum(p, canonical_strategy(args.n))
    formula = biaskit.bias_eigenvalue_formula(args.n)
    rep.result("top_eigenvalue", report.top_eigenvalue, tolerance=1e-9,
               target=formula)
    rep.result("multiplicity", report.multiplicity)
    rep.result("predicted_value", report.predicted_value, tolerance=1e-9,
               target=canonical_value_formula(args.n))
    rep.result("eigenrelation_residual",
               biaskit.eigenrelation_residual(args.n), tolerance=1e-9,
               target=0.0)
    return rep.finish()


def cmd_group_enumerate(args) -> int:
    rep = Report("group enumerate", {"n": args.n})
    a0, a1 = groupkit.alice_generators(args.n)
    cat = groupkit.enumerate_group([a0, a1])
    rep.result("group_order", len(cat), tolerance=0.0,
               target=groupkit.group_order(args.n))
    failures = groupkit.verify_presentation(args.n, "A")
    rep.result("failed_relators", len(failures), tolerance=0.0, target=0)
    return rep.finish()


def cmd_group_normal_form(args) -> int:
    rep = Report("group normal-form", {"n": args.n})
    pairs = groupkit.normal_form_enumerate(args.n)
    rep.result("distinct_normal_forms", len(pairs), tolerance=0.0,
               target=groupkit.group_order(args.n))
    return rep.finish()


def cmd_sos_verify(args) -> int:
    rep = Report("sos verify",
                 {"cert": args.cert, "trials": args.trials},
                 seed=args.seed)
    if args.cert == "chsh":
        cert = soskit.certificate_chsh()
        tol = 1e-9
    else:
        cert = soskit.certificate_g3()
        tol = 1e-8
    bias = biaskit.bias_polynomial(ModNGameParams(cert.order, 0, 1))
    residual = soskit.verify_sos_identity(cert, bias, args.trials, args.seed)
    rep.result("identity_residual", residual, tolerance=tol, target=0.0)
    s = canonical_strategy(cert.order)
    worst = max(r for _, r in soskit.annihilation_residuals(cert, s))
    rep.result("annihilation_residual", worst, tolerance=1e-9, target=0.0)
    return rep.finish()


def cmd_relations_check(args) -> int:
    rep = Report("relations check", {"n": args.n})
    s = canonical_strategy(3)
    from .strategykit import check_state_relation
    worst = 0.0
    for name, poly in soskit.derived_relations_g3():
        r = check_state_relation(s, poly)
        rep.result(f"relation_{name}", r, tolerance=1e-9, target=0.0)
        worst = max(worst, r)
    rep.result("worst_residual", worst, tolerance=1e-9, target=0.0)
    return rep.finish()


def cmd_bcs(args) -> int:
    rep = Report(f"bcs {args.system}",
                 {"check": args.check, "witness": args.witness})
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
    return rep.finish()


def cmd_npa_export(args) -> int:
    rep = Report("npa export",
                 {"n": args.n, "level": args.level, "out": args.out})
    mp = npakit.build_moment_problem(ModNGameParams(args.n, 0, 1),
                                     args.level)
    prob = npakit.export_sdpa(mp, args.out)
    reparsed = npakit.parse_sdpa(args.out)
    rep.result("moment_matrix_size", mp.size)
    rep.result("sdpa_block_size", prob.block_sizes[0])
    rep.result("round_trip_exact",
               int(reparsed.render() == prob.render()),
               tolerance=0.0, target=1)
    return rep.finish()


def cmd_psirep_check(args) -> int:
    rep = Report("psirep check", {"n": args.n})
    res_a, res_b = psi_representation_residuals(canonical_strategy(args.n))
    rep.result("alice_residual", res_a, tolerance=1e-9, target=0.0)
    rep.result("bob_residual", res_b, tolerance=1e-9, target=0.0)
    return rep.finish()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="znlcs",
        description="Mod-n nonlocal games: values, groups, certificates.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="group", required=True)

    game = sub.add_parser("game").add_subparsers(dest="sub", required=True)
    g = game.add_parser("classical")
    g.add_argument("--n", type=_int_at_least(2), required=True)
    g.add_argument("--m1", type=int, default=0)
    g.add_argument("--m2", type=int, default=1)
    g.set_defaults(func=cmd_game_classical, subparser=g)

    strat = sub.add_parser("strategy").add_subparsers(dest="sub",
                                                      required=True)
    sv = strat.add_parser("value")
    sv.add_argument("--n", type=_int_at_least(2), required=True)
    sv.add_argument("--via", choices=["bias", "direct"], default="direct")
    sv.set_defaults(func=cmd_strategy_value)
    se = strat.add_parser("entropy")
    se.add_argument("--n-max", type=_int_at_least(2), default=40)
    se.add_argument("--out", default=None)
    se.set_defaults(func=cmd_strategy_entropy)

    bias = sub.add_parser("bias").add_subparsers(dest="sub", required=True)
    bs = bias.add_parser("spectrum")
    bs.add_argument("--n", type=_int_at_least(2), required=True)
    bs.set_defaults(func=cmd_bias_spectrum)

    group = sub.add_parser("group").add_subparsers(dest="sub", required=True)
    ge = group.add_parser("enumerate")
    ge.add_argument("--n", type=_int_at_least(1), required=True)
    ge.set_defaults(func=cmd_group_enumerate, subparser=ge)
    gn = group.add_parser("normal-form")
    gn.add_argument("--n", type=_int_at_least(1), required=True)
    gn.set_defaults(func=cmd_group_normal_form, subparser=gn)

    sos = sub.add_parser("sos").add_subparsers(dest="sub", required=True)
    so = sos.add_parser("verify")
    so.add_argument("--cert", choices=["chsh", "g3"], required=True)
    so.add_argument("--trials", type=_int_at_least(1), default=100)
    so.add_argument("--seed", type=int, default=_seed_default())
    so.set_defaults(func=cmd_sos_verify)

    rel = sub.add_parser("relations").add_subparsers(dest="sub",
                                                     required=True)
    rc = rel.add_parser("check")
    rc.add_argument("--n", type=int, choices=[3], default=3)
    rc.set_defaults(func=cmd_relations_check)

    bcs = sub.add_parser("bcs").add_subparsers(dest="system", required=True)
    for name in ("magic-square", "glued"):
        b = bcs.add_parser(name)
        b.add_argument("--check", action="store_true")
        b.add_argument("--witness", action="store_true")
        b.set_defaults(func=cmd_bcs, system=name, subparser=b)

    npa = sub.add_parser("npa").add_subparsers(dest="sub", required=True)
    ne = npa.add_parser("export")
    ne.add_argument("--n", type=_int_at_least(2), required=True)
    ne.add_argument("--level", type=int, choices=[1, 2], default=1)
    ne.add_argument("--out", required=True)
    ne.set_defaults(func=cmd_npa_export)

    psi = sub.add_parser("psirep").add_subparsers(dest="sub", required=True)
    pc = psi.add_parser("check")
    pc.add_argument("--n", type=int, choices=[2, 3], required=True)
    pc.set_defaults(func=cmd_psirep_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.func is cmd_game_classical:
            for flag in ("m1", "m2"):
                value = getattr(args, flag)
                if not 0 <= value < args.n:
                    args.subparser.error(
                        f"argument --{flag}: must lie in [0, {args.n}), "
                        f"got {value}")
        if (args.func in (cmd_group_enumerate, cmd_group_normal_form)
                and groupkit.group_order_exceeds_cap(args.n)):
            args.subparser.error(
                f"argument --n: the group of order n^2 2^(n-1) exceeds "
                f"the enumeration cap {groupkit.ENUMERATION_CAP_DEFAULT} "
                f"elements, got {args.n}")
        if args.func is cmd_bcs and args.witness and args.system != "glued":
            args.subparser.error(
                "argument --witness: applies to the glued system only")
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version.
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
