"""Every function the benchmark's tracer wraps exists in the package.

``polarbench/tracing.py`` names its targets as strings and imports no
``polaris`` code, so deleting or renaming a traced function would otherwise
surface only when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "polarbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("polarbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for module, names in tracing.TARGETS.items()
            for name in names]


@pytest.mark.parametrize("module, name", _targets())
def test_traced_name_resolves(module, name):
    obj = importlib.import_module(f"polaris.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
