"""The benchmark tracer wraps named znlcs functions and reads sizes off
their results; a rename or deletion of one of them, or a change of a
result type that a size counter reads, should fail here rather than in a
traced benchmark run."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest
from test_cli import subprocess_env

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module,qualname,kind", _traced(),
                         ids=str)
def test_traced_name_resolves(module, qualname, kind):
    # The tracer finds each module in sys.modules after importing the CLI.
    import znlcs.cli  # noqa: F401
    owner = sys.modules[f"znlcs.{module}"]
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
    assert kind in ("span", "count")


@pytest.mark.parametrize("argv", [
    "group normal-form --n 2", "group enumerate --n 2",
    "bcs glued --check --witness", "game classical --n 3"])
def test_traced_job_runs_and_writes_its_spans(argv, tmp_path):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), *argv.split()],
        env=subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans.read_text())
    assert record["spans"]
    if argv.startswith("group normal-form"):
        assert record["sizes"]["groupkit.normal_forms"] == 8
