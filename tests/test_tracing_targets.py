"""The benchmark tracer's targets exist in the package.

``bench/tracing.py`` wraps each function its ``TARGETS`` names by looking
it up with ``vars``; a renamed or deleted function would break every
traced benchmark run, so each name is resolved here the same way.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, path) for module_name, path, *_ in module.TARGETS]


@pytest.mark.parametrize("module_name,path", _targets())
def test_tracer_target_resolves(module_name, path):
    owner = importlib.import_module(f"lemnisub.{module_name}")
    head, _, attr = path.rpartition(".")
    if head:
        owner = getattr(owner, head)
    assert callable(vars(owner).get(attr)), f"lemnisub.{module_name}.{path}"
