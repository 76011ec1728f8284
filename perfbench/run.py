"""Benchmark of the ``znlcs`` command, driven from outside.

Usage, from the root of a checkout (the directory holding ``src/znlcs``)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a fixed list of ``znlcs`` jobs (see ``workloads.py``). One
client runs them as a closed loop: jobs in sequence, each a fresh
``python -m znlcs.cli`` subprocess, so at most one job runs at a time, on
one BLAS thread, and the load stays within the 2 cores. A pass
runs the list once; passes repeat while another one is expected to end
within ``--seconds``, and every metric is the median over passes. Each
job's outcome is checked (``workloads.judge``).

On a shared host (an Intel Xeon VM with 2 vCPUs) the machine's speed steps
by up to 1.9x for seconds to minutes at a time, more than any metric's
bound, and no estimator over one run removes a step that outlasts the run.
So a fixed reference process (``REFERENCE``: interpreter start, the imports
every job makes, a short pure-Python loop; no ``znlcs`` code) is timed
before the first job and after every job, and each job's times are scaled
by ``REFERENCE_S`` / the mean of the two reference times around it: they
read as seconds at the speed at which the reference takes ``REFERENCE_S``.
On that host scaling cut the spread of pass wall times from 0.15 to 0.04
of their median over 17 passes. The unscaled figures are kept in each pass
record. Jobs run with one BLAS thread: with two, ``strategy entropy``
spread more than twice as much and every job spent 0.13 s more CPU.

With ``--trace 0`` it reports the end-to-end metrics, all times scaled:

- ``wall_s``: summed wall time of the pass's jobs, the user's time to
  verified results;
- ``cpu_s``: user + system CPU time of those job processes;
- ``setup_s``: median over jobs of (subprocess wall time - the report's
  ``wallTimeSeconds``): interpreter start, imports, argparse, JSON output;
- ``peak_rss_mb``: the largest resident set of any job, from ``os.wait4``;
- ``pass_frac``: jobs that met their expectation / jobs attempted, that is
  1 - ``failed`` / ``attempted`` of the result object.

With ``--trace 1`` it alternates untraced passes with traced ones, in which
each job runs under ``tracer.py``, and reports the per-layer metrics named
in ``BENCHMARK.json``: ``<module>.<function>.{calls,s,self_s}`` summed over
a pass's jobs (unscaled), size counters, and ``trace.overhead_frac``
(scaled traced ``wall_s`` / scaled untraced ``wall_s`` of the pass before
it - 1).

The last line of stdout is the result object; the line before it records
the environment (versions, BLAS threads, cores, commit, ``src/`` line
count, a calibration loop timed before and after the run, the median
reference time and the unscaled ``raw_wall_s`` and ``raw_cpu_s``) and why
any job failed. Job outputs, every pass and the last traced pass's spans go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

perf = time.perf_counter

ROOT = Path.cwd()
OUT = Path(".perfbench_out")
TRACER = Path(__file__).resolve().parent / "tracer.py"

# Printed by a subprocess with the jobs' environment, so the versions and
# the BLAS thread count are those the jobs see. Importing znlcs.cli here
# also compiles the package's bytecode before anything is timed.
PROBE = r"""
import ctypes, glob, json, os, platform
import numpy as np
import znlcs.cli
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libdir, "*openblas*")):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
print(json.dumps({"python": platform.python_version(),
                  "numpy": np.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "blas_threads": threads}))
"""


# Timed around every job to gauge the machine's speed at that moment. It
# starts an interpreter and makes the imports every job makes (numpy's
# above all), as each job does before its own work, then runs a fixed loop.
REFERENCE = r"""
import argparse, json
import numpy
acc = 0
for i in range(200_000):
    acc = (acc * 31 + i) & 0xFFFFFFFF
"""
# The reference's time at the speed times are scaled to: about its median
# on an Intel Xeon with 2 vCPUs, where this benchmark was defined.
REFERENCE_S = 0.25


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a gauge of machine speed."""
    t0 = perf()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return perf() - t0


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True, cwd=ROOT)
    return proc.stdout.strip() or None


def job_env(seed: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    env["ZNLCS_SEED"] = str(seed)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env


def run_job(cmd, env, stem="job"):
    """Run one job; returns (exit code, wall s, rusage, stdout, stderr)."""
    with open(OUT / f"{stem}.stdout", "w+b") as out, \
            open(OUT / f"{stem}.stderr", "w+b") as err:
        t0 = perf()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would keep a
        # running maximum of RSS over every child so far.
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, wall, usage, out.read(), err.read()


def time_reference(env) -> float:
    """Wall seconds of one run of ``REFERENCE``."""
    code, wall, _, _, stderr = run_job([sys.executable, "-c", REFERENCE], env,
                                     stem="reference")
    if code != 0:
        raise RuntimeError(f"reference process exited {code}: "
                           f"{stderr.decode(errors='replace')}")
    return wall


def run_pass(jobs, env, traced: bool) -> dict:
    """Run the job list once, checking every job's outcome.

    Times are scaled to ``REFERENCE_S`` by the reference runs around each
    job; the ``raw_`` entries are the measured ones."""
    rec = {"traced": traced, "wall_s": 0.0, "cpu_s": 0.0, "raw_wall_s": 0.0,
           "raw_cpu_s": 0.0, "peak_rss_mb": 0.0, "setup_s": [],
           "reference_s": [], "failures": [], "stdout_bytes": 0,
           "import_s": 0.0, "spans": {}, "sizes": {}}
    spans_path = OUT / "job.spans.json"
    ref_before = time_reference(env)
    rec["reference_s"].append(ref_before)
    for job in jobs:
        if traced:
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(TRACER), str(spans_path), *job.argv]
        else:
            cmd = [sys.executable, "-m", "znlcs.cli", *job.argv]
        code, wall, usage, stdout, stderr = run_job(cmd, env)
        ref_after = time_reference(env)
        rec["reference_s"].append(ref_after)
        scale = REFERENCE_S / ((ref_before + ref_after) / 2)
        ref_before = ref_after
        cpu = usage.ru_utime + usage.ru_stime
        rec["raw_wall_s"] += wall
        rec["raw_cpu_s"] += cpu
        rec["wall_s"] += wall * scale
        rec["cpu_s"] += cpu * scale
        rec["peak_rss_mb"] = max(rec["peak_rss_mb"], usage.ru_maxrss / 1024)
        rec["stdout_bytes"] += len(stdout)
        try:
            report = json.loads(stdout)
        except ValueError:
            report = None
        if not isinstance(report, dict):
            report = None
        elif "wallTimeSeconds" in report:
            rec["setup_s"].append(
                (wall - report["wallTimeSeconds"]) * scale)
        why = workloads.judge(job, code, report, stderr)
        if why:
            rec["failures"].append({"job": " ".join(job.argv),
                                    "expected_exit": job.exit_code,
                                    "why": why})
        if traced and spans_path.exists():
            merge_spans(rec, json.loads(spans_path.read_text()))
    return rec


def merge_spans(rec: dict, job_spans: dict) -> None:
    rec["import_s"] += job_spans["import_s"]
    for s in job_spans["spans"]:
        agg = rec["spans"].setdefault((s["name"], s["parent"]), [0, 0.0, 0.0])
        agg[0] += s["calls"]
        agg[1] += s["s"]
        agg[2] += s["self_s"]
    tracer.add_sizes(rec["sizes"], job_spans["sizes"])


def layer_metrics(rec: dict, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced pass, summed over parents."""
    out = {"cli.import_s": rec["import_s"],
           "cli.stdout_bytes": rec["stdout_bytes"],
           "trace.overhead_frac": rec["wall_s"] / untraced_wall - 1}
    for module, qualname, kind in tracer.TRACED:
        name = tracer.label(module, qualname)
        calls = secs = self_s = 0
        for (span, _), (c, s, own) in rec["spans"].items():
            if span == name:
                calls, secs, self_s = calls + c, secs + s, self_s + own
        if name == "cli.Report.finish":
            out["cli.report_s"] = secs
            continue
        out[f"{name}.calls"] = calls
        if kind == "span":
            out[f"{name}.s"] = secs
            out[f"{name}.self_s"] = self_s
    for key in tracer.SIZE_NAMES:
        out[key] = rec["sizes"].get(key, 0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so a running job is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "znlcs" / "cli.py").is_file():
        print(f"no znlcs sources under {ROOT / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    env = job_env(args.seed)
    probe = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                           capture_output=True, text=True, check=True)
    environment = json.loads(probe.stdout)
    environment.update(nproc=len(os.sched_getaffinity(0)),
                       git_commit=git_commit(), src_lines=src_lines(),
                       calibration_before_s=calibrate())

    jobs = workloads.build(args.workload, args.seed, OUT)
    passes = []
    deadline = perf() + args.seconds
    while True:
        t0 = perf()
        passes.append(run_pass(jobs, env, traced=False))
        if args.trace:
            passes.append(run_pass(jobs, env, traced=True))
        # Start another round only if it should end by the deadline.
        if 2 * perf() - t0 > deadline:
            break
    environment["calibration_after_s"] = calibrate()
    environment["reference_s"] = statistics.median(
        r for p in passes for r in p["reference_s"])

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(len(jobs) for _ in passes)
    failed = sum(len(p["failures"]) for p in passes)
    # A failure of a job expected to succeed is a wrong result; a bad-input
    # job that exits otherwise than 2 breaks the CLI contract and counts as
    # failed without making the outputs wrong.
    correct = not any(f["expected_exit"] == 0
                      for p in passes for f in p["failures"])

    if args.trace:
        # Each traced pass is compared with the untraced pass just before it.
        per_pass = [layer_metrics(t, u["wall_s"])
                    for u, t in zip(plain, traced)]
        values = {k: statistics.median(m[k] for m in per_pass)
                  for k in per_pass[0]}
    else:
        values = {k: statistics.median(p[k] for p in plain)
                  for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(
            s for p in plain for s in p["setup_s"])
        values["pass_frac"] = 1 - failed / attempted
        for k in ("raw_wall_s", "raw_cpu_s"):
            environment[k] = statistics.median(p[k] for p in plain)
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(names) ^ set(values))}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    record = {"environment": environment,
              "passes": [{k: v for k, v in p.items() if k != "spans"}
                         for p in passes]}
    if traced:
        record["spans"] = [
            {"name": n, "parent": p, "calls": c, "s": secs, "self_s": own}
            for (n, p), (c, secs, own) in traced[-1]["spans"].items()]
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"environment": environment,
                      "failures": {f["job"]: f["why"]
                                   for p in passes for f in p["failures"]}}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
