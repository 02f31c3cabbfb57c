"""Every name the benchmark takes from the package exists in it.

``polarbench/tracing.py`` names its targets as strings and
``polarbench/workloads.py`` reaches the package through module attributes
resolved only when an op runs (both read by ``bench_names``), so deleting
or renaming either would otherwise surface only when the benchmark runs.
"""

import importlib

import pytest

from bench_names import traced_names, workload_attributes


@pytest.mark.parametrize("module, name", traced_names())
def test_traced_name_resolves(module, name):
    obj = importlib.import_module(f"polaris.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_workload_scan_sees_the_package_calls():
    found = set(workload_attributes())
    assert {("linalg", "complement"), ("transversal", "oneill_check"),
            ("weyl", "ReductionSampler"), ("cli", "analyze")} <= found


@pytest.mark.parametrize("module, name", workload_attributes())
def test_workload_name_resolves(module, name):
    assert hasattr(importlib.import_module(f"polaris.{module}"), name)
