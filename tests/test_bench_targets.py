"""Every name the benchmark takes from the package exists in it.

``polarbench/tracing.py`` names its targets as strings and imports no
``polaris`` code, and ``polarbench/workloads.py`` reaches the package
through module attributes (``linalg.complement``, ``weyl.ReductionSampler``)
resolved only when an op runs, so deleting or renaming either would
otherwise surface only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "polarbench"
TRACING = BENCH / "tracing.py"
WORKLOADS = BENCH / "workloads.py"


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


def _workload_attributes():
    """(module, attribute) for every ``module.attribute`` in workloads.py
    whose module was imported with ``from polaris import ...``."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "polaris"
               for alias in node.names}
    return sorted({(modules[node.value.id], node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules})


def test_workload_scan_sees_the_package_calls():
    found = set(_workload_attributes())
    assert {("linalg", "complement"), ("transversal", "oneill_check"),
            ("weyl", "ReductionSampler"), ("cli", "analyze")} <= found


@pytest.mark.parametrize("module, name", _workload_attributes())
def test_workload_name_resolves(module, name):
    assert hasattr(importlib.import_module(f"polaris.{module}"), name)
