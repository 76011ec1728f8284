"""Job lists of the workloads and the checks applied to each job.

A job is one ``znlcs`` argv list plus the outcome it must produce. Every
job expected to succeed must exit 0 with ``"pass": true``; on top of that
the benchmark recomputes the headline values itself (group orders, the
classical value, the bias top eigenvalue, the canonical strategy value,
the SDPA export shape and a digest of its constraint lines), so a program
that reports ``pass`` for a wrong number is still caught. The two
bad-input jobs in ``cli-sweep`` must exit 2 without a traceback.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

# Seed-commit shape and SHA-256 of the constraint lines (everything after
# the objective line) of each SDPA export the workloads make, keyed
# (n, level) -> (moment_matrix_size, sdpa_block_size, digest).
SDPA_EXPECTED: Dict[Tuple[int, int], Tuple[int, int, str]] = {
    (2, 1): (
        5, 10,
        "25610688d22decf0d67869ef739b857b26e55c29003291984243d27679626d4f"),
    (3, 2): (
        41, 82,
        "c43c39f353f5c3a098150e6cea72e2417096b88e4b46fd9a0cc9f395e2c2f909"),
    (4, 1): (
        13, 26,
        "e4a4b4ad55fcac14e66a4e98b334f7ea4fdaff38170f158d86dc1ab99a7a2875"),
    (5, 1): (
        17, 34,
        "e6e7355d54e1824e7621d42d50ae97e3e0b7d065d6cb72763f033445268a40a7"),
}

VALUE_TOL = 1e-9


@dataclass
class Job:
    """One ``znlcs`` invocation and the outcome it must produce."""

    argv: List[str]
    exit_code: int = 0
    # Extra check on the parsed report; returns a failure message or None.
    check: Optional[Callable[[dict], Optional[str]]] = field(
        default=None, repr=False)
    # The SDPA file the job writes, checked after it exits.
    sdpa: Optional[Tuple[int, int, Path]] = None


def _results(report: dict) -> Dict[str, object]:
    return {r["name"]: r["value"] for r in report.get("results", [])}


def _expect_equal(name: str, target) -> Callable[[dict], Optional[str]]:
    def check(report: dict) -> Optional[str]:
        value = _results(report).get(name)
        if value == target:
            return None
        return f"{name}={value!r}, want {target!r}"
    return check


def _expect_close(name: str, target: float) -> Callable[[dict], Optional[str]]:
    def check(report: dict) -> Optional[str]:
        value = _results(report).get(name)
        if isinstance(value, (int, float)) and \
                abs(value - target) <= VALUE_TOL:
            return None
        return f"{name}={value!r}, want {target!r} within {VALUE_TOL}"
    return check


def group_order(n: int) -> int:
    return n * n * 2 ** (n - 1)


def bias_top(n: int) -> float:
    return 2 * n - 4 + 2 / math.sin(math.pi / (2 * n))


def strategy_value(n: int) -> float:
    return 0.5 + 1 / (2 * n * math.sin(math.pi / (2 * n)))


def group_enumerate(n: int) -> Job:
    return Job(["group", "enumerate", "--n", str(n)],
               check=_expect_equal("group_order", group_order(n)))


def group_normal_form(n: int) -> Job:
    return Job(["group", "normal-form", "--n", str(n)],
               check=_expect_equal("distinct_normal_forms", group_order(n)))


def bias_spectrum(n: int) -> Job:
    return Job(["bias", "spectrum", "--n", str(n)],
               check=_expect_close("top_eigenvalue", bias_top(n)))


def strategy_value_job(n: int, via: str) -> Job:
    return Job(["strategy", "value", "--n", str(n), "--via", via],
               check=_expect_close("value", strategy_value(n)))


def strategy_entropy(n_max: int) -> Job:
    return Job(["strategy", "entropy", "--n-max", str(n_max)],
               check=_expect_equal("rows", n_max - 1))


def game_classical(n: int, m1: int, m2: int) -> Job:
    return Job(["game", "classical", "--n", str(n), "--m1", str(m1),
                "--m2", str(m2)],
               check=_expect_close("classical_value", 0.75))


def npa_export(n: int, level: int, out_dir: Path) -> Job:
    path = out_dir / f"npa-n{n}-l{level}.dat-s"
    size, block, _ = SDPA_EXPECTED[(n, level)]

    def check(report: dict) -> Optional[str]:
        got = _results(report)
        want = {"moment_matrix_size": size, "sdpa_block_size": block,
                "round_trip_exact": 1}
        bad = {k: got.get(k) for k, v in want.items() if got.get(k) != v}
        return f"{bad} differ from {want}" if bad else None

    return Job(["npa", "export", "--n", str(n), "--level", str(level),
                "--out", str(path)], check=check, sdpa=(n, level, path))


def sos_verify(cert: str, seed: int) -> Job:
    return Job(["sos", "verify", "--cert", cert, "--seed", str(seed)])


def build(workload: str, seed: int, out_dir: Path) -> List[Job]:
    """The workload's job list; ``seed`` feeds ``sos verify --seed``."""
    if workload == "hot-spots":
        return [
            # SDPA export: one large export (n=3 level 2), whose
            # O(nvars * N^2) embedding scan dominates, beside two small ones
            # with fixed per-call costs.
            npa_export(3, 2, out_dir),
            npa_export(4, 1, out_dir),
            npa_export(5, 1, out_dir),
            # Exact group arithmetic: BFS closure (51,200 elements at n=10),
            # word evaluation through power(), and the scalar
            # MonomialUnitary product path of psirep.
            group_enumerate(9),
            group_enumerate(10),
            group_normal_form(7),
            Job(["psirep", "check", "--n", "3"]),
            # Eigensolves: a few large dense ones (bias) beside 39 small,
            # near-diagonal ones (entropy), plus eval_nc-heavy SOS and
            # direct strategy values.
            bias_spectrum(8),
            bias_spectrum(10),
            strategy_entropy(40),
            sos_verify("g3", seed),
            strategy_value_job(8, "direct"),
        ]
    if workload == "cli-sweep":
        # Every subcommand once at its smallest size, so process start and
        # imports dominate; the only workload that runs gamekit and bcskit.
        return [
            game_classical(6, 2, 5),
            strategy_value_job(2, "direct"),
            strategy_entropy(2),
            bias_spectrum(2),
            group_enumerate(2),
            group_normal_form(2),
            sos_verify("chsh", seed),
            Job(["relations", "check", "--n", "3"]),
            Job(["bcs", "magic-square", "--check"]),
            Job(["bcs", "glued", "--check", "--witness"]),
            npa_export(2, 1, out_dir),
            Job(["psirep", "check", "--n", "2"]),
            # Bad input: the CLI contract is exit 2 with no traceback.
            Job(["game", "classical", "--n", "1"], exit_code=2),
            Job(["strategy", "entropy", "--n-max", "1"], exit_code=2),
        ]
    raise KeyError(workload)


# Two workloads, so that each run can last 60 s within the benchmark's total
# time. This machine's speed steps by 20-40% for tens of seconds at a time;
# with four workloads (30 s runs) wall_s spread up to 27% across seeds.
WORKLOADS = ("hot-spots", "cli-sweep")


def constraint_digest(text: str) -> str:
    """SHA-256 of the lines after the objective line of an SDPA file.

    The header comments and the objective are left out, so a change of
    objective sense does not alter the digest."""
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("*")]
    return hashlib.sha256("\n".join(body[4:]).encode()).hexdigest()


def judge(job: Job, exit_code: int, report: Optional[dict], stderr: bytes
          ) -> Optional[str]:
    """Why the job missed its expectation, or None when it met it."""
    if exit_code != job.exit_code:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit {exit_code}, want {job.exit_code}: {' '.join(tail)}"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    if job.exit_code != 0:
        return None
    if report is None:
        return "stdout is not a JSON report"
    if report.get("pass") is not True:
        return "report does not pass"
    if job.check is not None:
        msg = job.check(report)
        if msg:
            return msg
    if job.sdpa is not None:
        n, level, path = job.sdpa
        digest = constraint_digest(path.read_text())
        if digest != SDPA_EXPECTED[(n, level)][2]:
            return f"SDPA constraint digest {digest} differs from the seed's"
    return None
