"""Per-layer spans measured from outside the package.

Every public function named in ``TARGETS`` is replaced by a wrapper that
counts calls and accumulates self time: the span's duration minus the part
covered by the spans it opened.  ``install`` rebinds each function under
every name a ``polaris`` module holds for it (``transversal`` imports
``quotient_distance`` by name, ``cli`` imports the check functions by
name, the package re-exports most of them), then refuses to continue if
any binding still reaches an unwrapped original.
"""

from __future__ import annotations

import functools
import sys
import time

TARGETS = {
    "weyl": ("quotient_distance", "reduction_isometry_check",
             "restricted_roots", "weyl_group_closure"),
    "transversal": ("OrbitGeodesic.__init__", "focal_points",
                    "variational_completeness_probe", "discala_olmos_probe",
                    "transversal_system", "horizontal_frame", "conjugate_scan",
                    "claim_residuals", "jacobi_integrate", "oneill_check",
                    "rescale_probe"),
    "linalg": ("orthonormalize", "complement", "svd_rank", "kernel",
               "span_residual", "principal_angles"),
    "polarity": ("is_polar_rep", "slice_rep", "orbifold_point_test",
                 "cohomogeneity", "is_polar_homogeneous",
                 "is_hyperpolar_homogeneous"),
    "symspace": ("cartan_hermann_probe", "maximal_abelian", "cartan_decompose",
                 "ModelManifold.parallel_frames"),
    "liealg": ("LieAlgebra.validate", "is_lie_triple_system",
               "is_abelian_subspace"),
    "cli": ("load_model", "analyze"),
    "catalog": ("CatalogEntry.build",),
}

SPAN_NAMES = tuple(f"{module}.{name}" for module, names in TARGETS.items()
                   for name in names)


class BindingError(RuntimeError):
    """A binding of a traced function was left unwrapped."""


class Tracer:
    """Call counts and self time per wrapped function, plus grid points."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.grid_points = 0
        self._open = []            # child time covered inside each open span

    def wrap(self, name, fn):
        tracer = self
        grid = name == "transversal.OrbitGeodesic.__init__"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            tracer._open.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = tracer._open.pop()
                if tracer._open:
                    tracer._open[-1] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - children
                if grid and hasattr(args[0], "times"):
                    tracer.grid_points += len(args[0].times)

        return span


def _package_modules():
    return [m for key, m in sys.modules.items()
            if m is not None and (key == "polaris" or key.startswith("polaris."))]


def _holders(module):
    """The module namespace and the containers stored in it one level down."""
    yield vars(module)
    for value in list(vars(module).values()):
        if isinstance(value, dict):
            yield value


def install(tracer: Tracer):
    """Wrap every binding of every target function in the loaded package.

    Returns a function that puts the original bindings back.
    """
    modules = _package_modules()
    originals = {}
    restore = []
    for module_name, names in TARGETS.items():
        module = sys.modules[f"polaris.{module_name}"]
        for name in names:
            key = f"{module_name}.{name}"
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[attr]
                setattr(cls, attr, tracer.wrap(key, original))
                restore.append((cls, attr, original))
            else:
                original = getattr(module, name)
                wrapper = tracer.wrap(key, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            restore.append((m, attr, original))
            originals[id(original)] = key
    for m in modules:
        for holder in _holders(m):
            for attr, value in holder.items():
                if id(value) in originals:
                    raise BindingError(
                        f"{m.__name__}: {attr!r} still holds the unwrapped "
                        f"{originals[id(value)]}")
        for value in vars(m).values():
            if isinstance(value, type) and value.__module__ == m.__name__:
                for attr, member in vars(value).items():
                    if id(member) in originals:
                        raise BindingError(
                            f"{m.__name__}.{value.__name__}.{attr} still holds "
                            f"the unwrapped {originals[id(member)]}")

    def uninstall() -> None:
        for holder, attr, original in reversed(restore):
            setattr(holder, attr, original)

    return uninstall
