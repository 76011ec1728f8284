"""The benchmark tracer wraps named znlcs functions; a rename or deletion
of one of them should fail here rather than in a traced benchmark run."""

import importlib.util
import pathlib
import sys

import pytest

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
