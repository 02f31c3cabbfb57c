"""The names the benchmark takes from the package, read without running it.

``polarbench/tracing.py`` names its targets as strings in ``TARGETS`` and
imports no ``polaris`` code, and ``polarbench/workloads.py`` reaches the
package through module attributes (``linalg.complement``,
``weyl.ReductionSampler``) resolved only when an op runs.  Both are read
here, so ``test_bench_targets.py`` (every name resolves) and
``test_census.py`` (every name counts as reached) see the same names.
"""

import ast
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "polarbench"
TRACING = BENCH / "tracing.py"
WORKLOADS = BENCH / "workloads.py"


def traced_names():
    """(module, name) for every name in ``tracing.TARGETS``; a method is
    ``Class.method``."""
    spec = importlib.util.spec_from_file_location("polarbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for module, names in tracing.TARGETS.items()
            for name in names]


def workload_attributes():
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
