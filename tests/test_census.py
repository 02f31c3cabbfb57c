"""Every function and method of the package is reached, or says why not.

The census profiles the command line over the catalog at seed 0, one
``--text`` run and one representation, symmetric-pair and lie-algebra
document, and collects every function or method whose code is in
``src/polaris`` (dunders aside) that no call reached.  Each one must be a
name the benchmark traces or calls (read by ``bench_names``) or stand in
``KEPT`` with the reason it stays.  A ``KEPT`` entry that is reached, or no
longer defined, fails too, so nothing is added unreached and nothing dead
lingers.  The same runs pin where metric roots come from: no Cholesky
factor in the package, and one ``linalg.metric_root`` per ``LieAlgebra``.
"""

import contextlib
import functools
import importlib
import inspect
import io
import json
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

import polaris
from polaris import cli, linalg
from polaris.liealg import LieAlgebra

from bench_names import traced_names, workload_attributes

SRC = Path(polaris.__file__).resolve().parent

KEPT = {
    "liealg.LieAlgebra.dot": "criterion 02, through sectional_curvature",
    "symspace.curvature_operator": "criterion 02, through sectional_curvature",
    "symspace.sectional_curvature": "criterion 02",
    "transversal.transversal_equation_residual": "criterion 06; ROADMAP item 9 records it",
    "transversal.symplectic_form": "criterion 07; ROADMAP item 9 records it",
    # the manifold branch of cartan_hermann_probe, which analyze does not take
    "symspace.ModelManifold.transport": "appendix probe on manifolds, ROADMAP items 12-13",
    "symspace._sphere_transport": "appendix probe on manifolds, ROADMAP items 12-13",
    "symspace._draw_unit": "appendix probe on manifolds, ROADMAP items 12-13",
    "liealg.LieAlgebra.killing": "test oracle of the Killing form",
    "liealg.LieAlgebra.full_space": "test oracle of centralizer_in",
    "symspace.ModelManifold.distance": "test oracle of the model geodesics",
    "polarity.find_regular_point": "test oracle of the regular-point search",
}


def _function(member):
    """The package function behind a module or class attribute, or None."""
    if isinstance(member, functools.cached_property):
        member = member.func
    elif isinstance(member, property):
        member = member.fget
    member = inspect.unwrap(member)       # functools.cache wrappers
    return member if inspect.isfunction(member) else None


MODULES = {info.name: importlib.import_module(f"polaris.{info.name}")
           for info in pkgutil.iter_modules(polaris.__path__)}


def own_members(module):
    """The module's attributes defined in it, not imported from elsewhere."""
    return [obj for obj in vars(module).values()
            if getattr(obj, "__module__", None) == module.__name__]


def defined_functions() -> dict:
    """``module.qualname`` of every package function and method, by code object."""
    out = {}
    for short, module in MODULES.items():
        members = own_members(module)
        members += [value for cls in members if inspect.isclass(cls)
                    for key, value in vars(cls).items()
                    if not (key.startswith("__") and key.endswith("__"))]
        for fn in filter(None, map(_function, members)):
            if Path(fn.__code__.co_filename).resolve().parent == SRC \
                    and not (fn.__name__.startswith("__") and fn.__name__.endswith("__")):
                out[fn.__code__] = f"{short}.{fn.__qualname__}"
    return out


DOCUMENTS = {
    "lie-algebra": {"schema": 1, "kind": "lie-algebra", "dim": 3,
                    "structure": [[1, 2, 3, 1.0], [2, 3, 1, 1.0], [1, 3, 2, -1.0]]},
    "symmetric-pair": {"schema": 1, "kind": "symmetric-pair", "dim": 3,
                       "structure": [[1, 2, 3, 1.0], [2, 3, 1, 1.0], [1, 3, 2, -1.0]],
                       "involution": [[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]],
                       "subalgebra": [[1.0, 0, 0]]},
    "representation": {"schema": 1, "kind": "representation", "dim": 1, "structure": [],
                       "generators": [[0.0, -1.0, 1.0, 0.0]],
                       "manifold": {"kind": "euclidean"}},
}


def reached_code(tmp_path) -> set:
    """Code objects of every Python call made by the census's command lines."""
    runs = [["list"], ["analyze", "--entry", "all", "--seed", "0"],
            ["analyze", "--entry", "su2_adjoint", "--text"]]
    for kind, doc in DOCUMENTS.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        runs.append(["analyze", "--model", str(path)])
    # a cached builder that an earlier test called would not be called again
    for obj in (obj for module in MODULES.values() for obj in own_members(module)):
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    codes = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(run) for run in runs]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(runs)
    return reached


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    """The census's reached code objects, the caller of every
    ``linalg.metric_root`` call (the ``LieAlgebra`` whose cached root it
    computes, or the calling function's name), and the matrices the package
    passed to ``np.linalg.cholesky``."""
    roots, factored = [], []
    metric_root, cholesky = linalg.metric_root, np.linalg.cholesky

    def counted_root(gram):
        caller = sys._getframe(1)
        roots.append(caller.f_locals.get("self", caller.f_code.co_name))
        return metric_root(gram)

    def counted_cholesky(a, *args, **kwargs):
        if Path(sys._getframe(1).f_code.co_filename).resolve().parent == SRC:
            factored.append(a)
        return cholesky(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "metric_root", counted_root)
        patch.setattr(np.linalg, "cholesky", counted_cholesky)
        reached = reached_code(tmp_path_factory.mktemp("census"))
    return reached, roots, factored


def test_every_unreached_function_is_benchmarked_or_kept(census):
    reached = census[0]
    unreached = {name for code, name in defined_functions().items() if code not in reached}
    bench = {f"{module}.{name}" for module, name in traced_names() + workload_attributes()}
    assert all(KEPT.values())
    # unreached and unexplained, then kept but reached or no longer defined
    assert (sorted(unreached - bench - KEPT.keys()),
            sorted(KEPT.keys() - (unreached - bench))) == ([], [])


def test_one_metric_root_per_algebra_and_no_cholesky(census):
    _, roots, factored = census
    algebras = [root for root in roots if isinstance(root, LieAlgebra)]
    assert algebras and len({id(alg) for alg in algebras}) == len(algebras)
    assert {root for root in roots if not isinstance(root, LieAlgebra)} <= {"build_classical"}
    assert factored == []
