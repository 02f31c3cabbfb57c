"""Every function and method of the package is reached, or says why not.

The census profiles the command line over the catalog at seed 0, one
``--text`` run and one representation, symmetric-pair and lie-algebra
document, and collects every function or method whose code is in
``src/polaris`` (dunders aside) that no call reached.  Each one must be
public, a function that ``polaris.__all__`` exports, or a name the
benchmark traces or calls (read by ``bench_names``), or stand in ``KEPT``
with the reason it stays: the public function that calls it, the README
row that names it, or the open ROADMAP item that will call it.  Code that
only tests read lives in ``tests/`` (``oracles``, ``grid_oracle``).  A
``KEPT`` entry that is reached, public, or not a package function fails
too, so nothing is added unreached and nothing dead lingers.  The same
runs pin where metric roots come from: no Cholesky factor in the package,
and one ``linalg.metric_root`` per ``LieAlgebra``.

A second census pins the package's settable values, read from the source:
every defaulted parameter of a function or method, and every defaulted
dataclass field that is not ``init=False``.  A value stays settable only
when callers outside ``tests/`` set it to different values, when it is the
seed or tolerance of a public decision function, or when the benchmark
passes it (``oneill_check``'s ``step``, until ROADMAP item 11 drops it).
Any other value is a module constant.  ``SETTABLE`` lists the survivors,
so a new option, or one deleted, fails until it is listed or struck.
"""

import ast
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
    "liealg.LieAlgebra.dot": "called by the public sectional_curvature",
    "liealg.LieAlgebra.killing": "named by the README's polaris.liealg row",
    "transversal.transversal_equation_residual": "ROADMAP item 9 records it",
}


SETTABLE = {
    "catalog": "CatalogEntry.default_checks CatalogEntry.expected",
    "cli": "_array(dtype) _array(shape) _squares(dtype) analyze(checks) analyze(seed) "
           "analyze(step) analyze(tol) emit_report(fmt) main(argv)",
    "liealg": "CheckResult.witness LieAlgebra.realization Subspace.validate(gram) "
              "build_classical(metric_scale) build_classical(name) direct_sum(name) "
              "is_abelian_subspace(tol) is_lie_triple_system(tol)",
    "linalg": "_rank_mask(rtol) gram_norm(gram) kernel(rtol) orthonormalize(root) "
              "orthonormalize(rtol) principal_angles(root) project_span(gram) "
              "robust_failure(tol) robust_failure(what) row_space_stack(rtol) "
              "span_residual(gram) svd_bases(rtol)",
    "polarity": "OrthogonalRep.name OrthogonalRep.restrict_to_sphere cohomogeneity(seed) "
                "find_regular_point(seed) is_hyperpolar_homogeneous(seed) "
                "is_hyperpolar_homogeneous(tol) is_polar_homogeneous(seed) "
                "is_polar_homogeneous(tol) is_polar_rep(seed) is_polar_rep(tol) "
                "orbifold_point_test(seed) orbifold_point_test(tol) regularize_basepoint(seed)",
    "symspace": "ModelManifold.radii ModelManifold.split cartan_hermann_probe(tol) "
                "maximal_abelian(seed)",
    "transversal": "OrbitGeodesic.__init__(span) OrbitGeodesic.__init__(step) "
                   "_closed_form(derivative) _field_on_grid(derivative) "
                   "discala_olmos_probe(seed) jacobi_integrate(method) oneill_check(qconfig) "
                   "oneill_check(step) rescale_probe(lambdas) rescale_probe(seed) "
                   "variational_completeness_probe(angle_tol)",
    "weyl": "QuotientOptimizerConfig.evals QuotientOptimizerConfig.probes "
            "QuotientOptimizerConfig.restarts QuotientOptimizerConfig.seed "
            "ReductionSampler.pairs ReductionSampler.seed quotient_distance(config) "
            "quotient_distance(polar) reduction_isometry_check(config) "
            "reduction_isometry_check(sampler) restricted_roots(seed)",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def _init_false(value) -> bool:
    return isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field" \
        and any(k.arg == "init" and getattr(k.value, "value", True) is False
                for k in value.keywords)


def settable_values(node, prefix: str = "") -> list:
    """``qualname(param)`` of each defaulted parameter and ``Class.field`` of
    each defaulted dataclass field under ``node``, nested scopes included."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            args = child.args
            positional = args.posonlyargs + args.args
            names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
            names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            out += [f"{prefix}{child.name}({name})" for name in names]
            out += settable_values(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            if _is_dataclass(child):
                out += [f"{prefix}{child.name}.{st.target.id}" for st in child.body
                        if isinstance(st, ast.AnnAssign) and st.value is not None
                        and not _init_false(st.value)]
            out += settable_values(child, f"{prefix}{child.name}.")
    return out


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


def public_functions() -> set:
    """``module.qualname`` of every package function that ``polaris.__all__``
    exports."""
    exported = filter(None, (_function(getattr(polaris, name)) for name in polaris.__all__))
    return {f"{fn.__module__.removeprefix('polaris.')}.{fn.__qualname__}" for fn in exported}


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
    public = public_functions()
    # unreached and unexplained, then kept but reached, public or benchmarked
    assert (sorted(unreached - public - bench - KEPT.keys()),
            sorted(KEPT.keys() - (unreached - public - bench))) == ([], [])


def test_kept_entries_are_package_functions_with_reasons():
    assert all(reason.strip() for reason in KEPT.values())
    assert KEPT.keys() <= set(defined_functions().values())
    assert not KEPT.keys() & public_functions()


def test_one_metric_root_per_algebra_and_no_cholesky(census):
    _, roots, factored = census
    algebras = [root for root in roots if isinstance(root, LieAlgebra)]
    assert algebras and len({id(alg) for alg in algebras}) == len(algebras)
    assert {root for root in roots if not isinstance(root, LieAlgebra)} <= {"build_classical"}
    assert factored == []


def test_settable_values_are_the_census_survivors():
    found = {path.stem: sorted(settable_values(ast.parse(path.read_text())))
             for path in sorted(SRC.glob("*.py"))}
    assert {module: names for module, names in found.items() if names} \
        == {module: sorted(names.split()) for module, names in SETTABLE.items()}
