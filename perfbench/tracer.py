"""Run one ``znlcs`` job in-process with spans around each layer's calls.

Usage, from the root of a checkout with ``src`` on ``PYTHONPATH``::

    python3 perfbench/tracer.py SPANS_JSON ARGV...

It imports ``znlcs.cli`` (timing the import), wraps the public functions in
``TRACED`` in every ``znlcs`` module namespace that holds them, runs
``znlcs.cli.main(ARGV)`` and exits with its code, as
``python -m znlcs.cli ARGV...`` would. Spans are aggregated per
(function, parent) while the job runs, so hundreds of thousands of calls
stay bounded in memory, and written to SPANS_JSON once at the end.
"""

from __future__ import annotations

import functools
import os
import sys
import time

perf = time.perf_counter

# (module, qualified name, kind). A "span" times every call and its self
# time; a "count" only counts calls, for methods called ~10^5 times a run.
# The comments name the end-to-end metric and workload each layer moves.
TRACED = [
    # wall_s everywhere; cli.import_s (timed in main) moves setup_s on
    # cli-sweep.
    ("cli", "Report.finish", "span"),
    # wall_s and peak_rss_mb on hot-spots.
    ("npakit", "build_moment_problem", "span"),
    ("npakit", "sdpa_from_moment_problem", "span"),
    ("npakit", "SDPAProblem.render", "span"),
    ("npakit", "export_sdpa", "span"),
    ("npakit", "parse_sdpa", "span"),
    # wall_s on hot-spots; apply_nc on cli-sweep.
    ("ncpoly", "canonical_word", "span"),
    ("ncpoly", "eval_nc", "span"),
    ("ncpoly", "apply_nc", "span"),
    # wall_s and peak_rss_mb on hot-spots.
    ("groupkit", "enumerate_group", "span"),
    ("groupkit", "normal_form_enumerate", "span"),
    ("groupkit", "verify_presentation", "span"),
    ("groupkit", "MonomialUnitary.__matmul__", "count"),
    ("groupkit", "MonomialUnitary.power", "count"),
    # wall_s and cpu_s on hot-spots.
    ("numerics", "hermitian_eig", "span"),
    # wall_s on hot-spots.
    ("strategykit", "schmidt", "span"),
    ("strategykit", "strategy_value_direct", "span"),
    ("strategykit", "canonical_strategy", "span"),
    ("strategykit", "psi_representation_residuals", "span"),
    # wall_s on hot-spots.
    ("biaskit", "bias_operator", "span"),
    ("biaskit", "bias_spectrum", "span"),
    ("soskit", "verify_sos_identity", "span"),
    ("soskit", "annihilation_residuals", "span"),
    # wall_s on cli-sweep.
    ("gamekit", "classical_value", "span"),
    ("bcskit", "verify_operator_solution", "span"),
    ("bcskit", "solution_to_strategy", "span"),
    ("bcskit", "nonrigidity_witness", "span"),
]


def label(module: str, qualname: str) -> str:
    """Metric prefix: ``MonomialUnitary.__matmul__`` -> ``...matmul``."""
    return f"{module}.{qualname.replace('__', '')}"


def _classical_work(game) -> int:
    """classical_value's own work estimate for the game's shape."""
    count_a, count_b = game.mA ** game.nA, game.mB ** game.nB
    if count_b <= count_a:
        return count_b * game.nA * game.nB * game.mA
    return count_a * game.nA * game.nB * game.mB


# Size counters read off a traced call: label -> f(args, result) -> {name: n}.
# Every counter is summed over calls except those named in MAX_COUNTERS.
SIZES = {
    "npakit.build_moment_problem": lambda a, out: {
        "npakit.words": len(out.words),
        "npakit.moment_classes": len(out.class_keys)},
    "npakit.sdpa_from_moment_problem": lambda a, out: {
        "npakit.sdpa_vars": out.nvars,
        "npakit.sdpa_nnz": len(out.entries)},
    "npakit.export_sdpa": lambda a, out: {
        "npakit.sdpa_bytes": os.path.getsize(a[1])},
    "ncpoly.eval_nc": lambda a, out: {
        "ncpoly.eval_nc.terms": len(a[0].terms)},
    "groupkit.enumerate_group": lambda a, out: {
        "groupkit.elements": len(out)},
    "groupkit.normal_form_enumerate": lambda a, out: {
        "groupkit.normal_forms": len(out)},
    "numerics.hermitian_eig": lambda a, out: {
        "numerics.hermitian_eig.max_dim": a[0].shape[0],
        "numerics.hermitian_eig.dim3_sum": a[0].shape[0] ** 3},
    "gamekit.classical_value": lambda a, out: {
        "gamekit.classical_value.evaluations": _classical_work(a[0])},
}
SIZE_NAMES = [
    "npakit.words", "npakit.moment_classes", "npakit.sdpa_vars",
    "npakit.sdpa_nnz", "npakit.sdpa_bytes", "ncpoly.eval_nc.terms",
    "groupkit.elements", "groupkit.normal_forms",
    "numerics.hermitian_eig.max_dim", "numerics.hermitian_eig.dim3_sum",
    "gamekit.classical_value.evaluations",
]
MAX_COUNTERS = {"numerics.hermitian_eig.max_dim"}


def add_sizes(total: dict, values: dict) -> None:
    """Fold size counters into ``total``: summed, or maxed if in
    MAX_COUNTERS."""
    for key, n in values.items():
        if key in MAX_COUNTERS:
            total[key] = max(total.get(key, 0), n)
        else:
            total[key] = total.get(key, 0) + n


class Tracer:
    """Per-(function, parent) span totals and size counters of one job."""

    ROOT = "<job>"

    def __init__(self):
        # Open spans as [label, time covered by child spans].
        self.stack = [[self.ROOT, 0.0]]
        # (label, parent label) -> [calls, seconds, self seconds]
        self.spans = {}
        self.sizes = {}

    def span(self, name, fn):
        sizes = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1]
            frame = [name, 0.0]
            self.stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                self.stack.pop()
                parent[1] += dur
                agg = self.spans.get((name, parent[0]))
                if agg is None:
                    agg = self.spans[(name, parent[0])] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
            if sizes is not None:
                add_sizes(self.sizes, sizes(args, out))
            return out
        return wrapper

    def count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, self.stack[-1][0])
            agg = self.spans.get(key)
            if agg is None:
                agg = self.spans[key] = [0, 0.0, 0.0]
            agg[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap each TRACED function wherever a znlcs module holds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "znlcs" or name.startswith("znlcs.")]
        for module, qualname, kind in TRACED:
            name = label(module, qualname)
            owner = sys.modules[f"znlcs.{module}"]
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = (self.span if kind == "span" else self.count)(
                name, original)
            if cls_path:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def write(self, path, import_s):
        import json
        record = {
            "import_s": import_s,
            "spans": [{"name": n, "parent": p, "calls": c, "s": s,
                       "self_s": self_s}
                      for (n, p), (c, s, self_s) in self.spans.items()],
            "sizes": self.sizes,
        }
        with open(path, "w") as fh:
            json.dump(record, fh)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf()
    import znlcs.cli
    import_s = perf() - t0
    tracer = Tracer()
    tracer.install()
    try:
        return znlcs.cli.main(argv)
    finally:
        tracer.write(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(main())
