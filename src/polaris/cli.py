"""Model ingestion, analysis orchestration and machine-readable reporting.

``analyze`` dispatches the requested checks over a catalog entry or a model
document, producing one record per check with its verdict, residual,
tolerance, seed and runtime.  When the entry carries an expected value for a
check, pass/fail compares against it (that is how the negative fixtures stay
green in the full-suite run); otherwise a negative verdict fails the run.
A residual between the pass tolerance and the witness floor makes an
``indeterminate`` record carrying the reason, never a traceback, and a
library error raised by a check (an ambiguous root clustering, a failed
LAPACK call) makes an ``error`` record carrying its message.  The checks of
one call build what they share once: the geodesic per step, the regular
pairing, the Weyl data and one slice pass.  A build that raises is not kept,
so each check that needs it still ends in its own record.
Timing fields are excluded from the determinism contract.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import linalg
from .catalog import CatalogEntry, catalog_entry, catalog_list
from .liealg import LieAlgebra, LieAlgebraError, Subspace
from .polarity import PAIRING_TOL, OrthogonalRep, PolarityError, _check_ad_invariant, \
    _check_subalgebra, _orbifold_results, _regular_pairing, _slice_pairings, \
    _slice_verdicts, _verdict, is_hyperpolar_homogeneous, is_polar_homogeneous
from .symspace import ModelManifold, SymmetricSpaceError, cartan_decompose, \
    cartan_hermann_probe, maximal_abelian
from .transversal import DEFAULT_STEP, MAX_STEP, OrbitGeodesic, TransversalError, \
    _field_on_grid, claim_residuals, conjugate_scan, discala_olmos_probe, focal_points, \
    focal_scan_counters, jacobi_integrate, n_jacobi_space, \
    oneill_check, rescale_probe, transversal_system, variational_completeness_probe
from .weyl import QuotientOptimizerConfig, ReductionSampler, WeylError, \
    reduction_isometry_check, restricted_roots, weyl_group_closure

SCHEMA_VERSION = 1

SLICE_SCAN_POINTS = 12      # seeded points whose slice representation is tested
ORBIFOLD_POINTS = 8         # the orbifold-point scan's seeded points: the first of those
REDUCTION_PAIRS = 200       # seeded section pairs of the reduction-isometry check
# What a check may raise on a model it cannot decide; each becomes an error record.
LIBRARY_ERRORS = (WeylError, PolarityError, SymmetricSpaceError, TransversalError,
                  LieAlgebraError, np.linalg.LinAlgError)


class ModelError(ValueError):
    pass


class Inapplicable(Exception):
    """Raised by a check runner when the model kind does not support it."""


@dataclasses.dataclass
class CheckRecord:
    check: str
    status: str                  # pass | fail | indeterminate | error | skipped
    verdict: object
    value: object
    residual: float | None
    tolerance: float | None
    seed: int
    runtime: float

    def to_doc(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "verdict": _jsonable(self.verdict),
            "value": _jsonable(self.value),
            "residual": _jsonable(self.residual),
            "tolerance": _jsonable(self.tolerance),
            "seed": self.seed,
            "runtime": self.runtime,
        }


@dataclasses.dataclass
class AnalysisReport:
    entry: str
    records: list
    status: str

    def to_doc(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "entry": self.entry,
            "records": [r.to_doc() for r in self.records],
            "status": self.status,
        }


def _jsonable(x):
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


# ---------------------------------------------------------------------------
# model loading
# ---------------------------------------------------------------------------

MAX_MODEL_DIM = 64          # the load-time Jacobi check holds a few dim^3 arrays


def _array(value, field: str, dtype=float, shape=None) -> np.ndarray:
    """A finite numeric array from a document field, reshaped to ``shape``."""
    try:
        arr = np.asarray(value, dtype)
        arr = arr if shape is None else arr.reshape(shape)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"{field}: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{field}: entries must be finite numbers")
    return arr


def _list(doc: dict, key: str) -> list:
    value = doc.get(key)
    if value is not None and not isinstance(value, list):
        raise ModelError(f"{key}: expected a list, got {type(value).__name__}")
    return value or []


def _squares(doc: dict, key: str, dtype=float) -> list:
    """The flattened square matrices listed under ``key``, reshaped."""
    out = []
    for pos, flat in enumerate(_list(doc, key)):
        flat = _array(flat, f"{key}[{pos}]", dtype)
        side = int(round(np.sqrt(flat.size)))
        if side * side != flat.size:
            raise ModelError(f"{key}[{pos}]: not a flattened square matrix")
        out.append(flat.reshape(side, side))
    return out


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def load_model(source) -> dict:
    """Validate a model document and build its objects.

    ``source`` is a path, a JSON string, or an already-parsed dict.  Returns
    a bundle with the built model under its natural keys ("algebra",
    "pair", "rep", ...), after running every load-time invariant.  Every
    rejected document raises ``ModelError`` naming the offending field.
    """
    if isinstance(source, dict):
        doc = source
    else:
        try:
            text = source
            if os.path.exists(str(source)):
                with open(source) as fh:
                    text = fh.read()
            doc = json.loads(text)
        except (OSError, TypeError, ValueError) as exc:
            raise ModelError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError(f"document: expected a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ModelError(f"schema: expected {SCHEMA_VERSION}, got {doc.get('schema')!r}")
    kind = doc.get("kind")
    if kind not in ("lie-algebra", "symmetric-pair", "representation"):
        raise ModelError(f"kind: unknown model kind {kind!r}")
    dim = doc.get("dim")
    if not (_is_int(dim) and 0 <= dim <= MAX_MODEL_DIM):
        raise ModelError(f"dim: must be an integer in 0..{MAX_MODEL_DIM}, got {dim!r}")
    structure = np.zeros((dim, dim, dim))
    seen = set()
    for pos, item in enumerate(_list(doc, "structure")):
        if not (isinstance(item, list) and len(item) == 4):
            raise ModelError(f"structure[{pos}]: expected [i, j, k, c]")
        i, j, k, c = item
        if not all(_is_int(x) and 1 <= x <= dim for x in (i, j, k)):
            raise ModelError(f"structure[{pos}]: indices ({i},{j},{k}) must be integers in 1..{dim}")
        if i >= j:
            raise ModelError(
                f"structure[{pos}]: expected i < j (antisymmetry is implied); "
                f"offending entry ({i},{j},{k})")
        if (i, j, k) in seen:
            raise ModelError(f"structure[{pos}]: duplicate entry ({i},{j},{k})")
        seen.add((i, j, k))
        c = float(_array(c, f"structure[{pos}]", shape=()))
        structure[i - 1, j - 1, k - 1] = c
        structure[j - 1, i - 1, k - 1] = -c
    inner = np.eye(dim)
    if doc.get("inner") is not None:
        inner = _array(doc["inner"], "inner", shape=(dim, dim))
    realization = None
    if doc.get("realization") is not None:
        realization = tuple(_squares(doc, "realization", complex))
        if len(realization) != dim:
            raise ModelError(f"realization: expected {dim} matrices, got {len(realization)}")
    name = doc.get("name", f"model({kind})")
    algebra = LieAlgebra(name, structure, inner, realization)
    try:
        algebra.validate()
    except Exception as exc:
        raise ModelError(f"algebra invariants: {exc}") from exc
    bundle = {"kind": kind, "algebra": algebra}
    if doc.get("subalgebra") is not None:
        rows = np.atleast_2d(_array(doc["subalgebra"], "subalgebra"))
        if rows.ndim != 2 or rows.shape[1] != dim:
            raise ModelError(f"subalgebra: expected rows of {dim} coordinates")
        bundle["subalgebra"] = Subspace(
            name, linalg.orthonormalize(rows, algebra.metric_root))
        try:
            _check_subalgebra(algebra, bundle["subalgebra"])
        except PolarityError as exc:
            raise ModelError(f"subalgebra: {exc}") from exc
    if kind == "symmetric-pair":
        try:
            _check_ad_invariant(algebra)
        except PolarityError as exc:
            raise ModelError(f"inner: {exc}; symmetric-pair models need one") from exc
        if doc.get("involution") is None:
            raise ModelError("involution: required for symmetric-pair models")
        theta = _array(doc["involution"], "involution", shape=(dim, dim))
        try:
            bundle["pair"] = cartan_decompose(algebra, theta)
        except Exception as exc:
            raise ModelError(f"involution: {exc}") from exc
    if kind == "representation":
        if doc.get("generators") is None:
            raise ModelError("generators: required for representation models")
        gens = _squares(doc, "generators")
        if len({g.shape for g in gens}) > 1:
            raise ModelError("generators: inconsistent dimensions")
        space_dim = gens[0].shape[0] if gens else 0
        bundle["manifold"] = _manifold(doc.get("manifold"), space_dim)
        rep = OrthogonalRep(algebra, np.array(gens).reshape(len(gens), space_dim, space_dim),
                            space_dim, restrict_to_sphere=bundle["manifold"].kind == "sphere",
                            name=name)
        try:
            rep.validate()
        except Exception as exc:
            raise ModelError(f"generators: {exc}") from exc
        bundle["rep"] = rep
    return bundle


def _manifold(man, space_dim: int) -> ModelManifold:
    """The model manifold of a representation document (Euclidean if absent)."""
    man = {"kind": "euclidean"} if man is None else man
    kind = man.get("kind", "euclidean") if isinstance(man, dict) else None
    if kind not in ("euclidean", "sphere", "product-spheres"):
        raise ModelError(f"manifold: expected an object whose kind is euclidean, "
                         f"sphere or product-spheres, got {man!r}")
    if kind == "product-spheres":
        radii = _array(man.get("radii", (1.0, 1.0)), "manifold.radii", shape=(2,))
        split = man.get("split", [space_dim // 2, space_dim - space_dim // 2])
        if not (isinstance(split, list) and len(split) == 2
                and all(_is_int(d) and d > 0 for d in split)):
            raise ModelError(f"manifold.split: expected two positive integers, got {split!r}")
        args = {"radii": tuple(radii.tolist()), "split": tuple(split)}
    else:
        args = {}
    try:
        return ModelManifold(kind, space_dim, **args)
    except SymmetricSpaceError as exc:
        raise ModelError(f"manifold: {exc}") from exc


# ---------------------------------------------------------------------------
# check runners
# ---------------------------------------------------------------------------
# Each runner takes (work, tol, step) and returns (verdict, value, residual,
# tolerance).  work, a _Work, holds what the checks of one analyze call share,
# each built on first use and kept unless its build raises.

def _need(bundle, key, check):
    if bundle.get(key) is None:
        raise Inapplicable(f"{check} needs {key}")
    return bundle[key]


def _linear_rep(bundle, check):
    """The representation, for a check of its linear action on the ambient
    space, which on a product of spheres is not the action the model means."""
    rep = _need(bundle, "rep", check)
    manifold = bundle.get("manifold")
    if manifold is not None and manifold.kind == "product-spheres":
        raise Inapplicable(f"{check} decides the linear action on R^{rep.space_dim}, "
                           f"not the action on the product-spheres manifold")
    return rep


def _geodesic(bundle, step):
    rep = _need(bundle, "rep", "geodesic checks")
    manifold = _need(bundle, "manifold", "geodesic checks")
    point = bundle.get("basepoint")
    if point is None:
        raise Inapplicable("geodesic checks need a basepoint")
    return OrbitGeodesic(rep, manifold, point, bundle.get("direction"),
                         span=bundle.get("span", (0.0, float(np.pi))), step=step)


class _Work:
    """The shared intermediates of one ``analyze`` call over ``bundle``."""

    def __init__(self, bundle, seed):
        self.bundle, self.seed = bundle, seed
        self.geodesic = functools.cache(functools.partial(_geodesic, bundle))

    @functools.cached_property
    def pairing(self):
        """The tolerance-free regular-point pairing of the representation."""
        return _regular_pairing(self.bundle["rep"], self.seed)

    @functools.cached_property
    def designated(self):
        """The designated orbifold points that are points of the model space,
        by name, and the reason each other one is not."""
        rep = self.bundle["rep"]
        points, problems = {}, {}
        for name, point in (self.bundle.get("orbifold_points") or {}).items():
            try:
                point = np.asarray(point, float)
            except (TypeError, ValueError) as exc:
                problems[name] = str(exc)
                continue
            if point.shape != (rep.space_dim,):
                problems[name] = f"expected {rep.space_dim} coordinates, got {point.shape}"
            elif not np.all(np.isfinite(point)):
                problems[name] = "coordinates must be finite"
            elif rep.restrict_to_sphere and abs(np.linalg.norm(point) - 1.0) > 1e-9:
                problems[name] = "not on the unit sphere"
            else:
                points[name] = point
        return points, problems

    @functools.cached_property
    def slices(self):
        """The slice pass over slice-scan's points, then the valid designated
        orbifold points."""
        rep = self.bundle["rep"]
        points = _sample_points(rep, self.seed, SLICE_SCAN_POINTS)
        return _slice_pairings(rep, np.vstack([points, *self.designated[0].values()]),
                               self.seed)

    @functools.cached_property
    def weyl(self):
        """Polarity verdict, restricted roots and Weyl group of an s-representation."""
        rep = _need(self.bundle, "rep", "weyl")
        srep = self.bundle.get("srep")
        if srep is None:
            raise Inapplicable("weyl needs an associated symmetric pair")
        pair, p_map = srep
        v = _verdict(self.pairing, PAIRING_TOL, rep.restrict_to_sphere, rep.name)
        if not v.polar:
            raise Inapplicable("weyl machinery is restricted to polar s-representations")
        a = Subspace(pair.algebra.name, v.section.basis @ p_map)
        roots = restricted_roots(pair, a, self.seed)
        return v, roots, weyl_group_closure(roots)


def _check_polarity(work, tol, step):
    tol = tol or 1e-8
    if work.bundle.get("rep") is not None:
        rep = _linear_rep(work.bundle, "polarity")
        v = _verdict(work.pairing, tol, rep.restrict_to_sphere, rep.name)
        value = {"cohomogeneity": v.cohomogeneity}
        if v.witness is not None:
            value["witness"] = {"generator": v.witness[0], "pairing": v.witness[3]}
        return v.polar, value, v.residual, tol
    pair = _need(work.bundle, "pair", "polarity")
    h = _need(work.bundle, "subalgebra", "polarity")
    v = is_polar_homogeneous(pair, h, work.seed, tol)
    value = {"cohomogeneity": v.cohomogeneity}
    if v.witness is not None:
        value["witness"] = list(v.witness[:1]) + [float(v.witness[-1])]
    return v.polar, value, v.residual, tol


def _check_hyperpolarity(work, tol, step):
    tol = tol or 1e-8
    pair = _need(work.bundle, "pair", "hyperpolarity")
    h = _need(work.bundle, "subalgebra", "hyperpolarity")
    res = is_hyperpolar_homogeneous(pair, h, work.seed, tol)
    return res.ok, {}, res.residual, tol


def _check_cohomogeneity(work, tol, step):
    _linear_rep(work.bundle, "cohomogeneity")
    return work.pairing[0], {}, 0.0, None


def _sample_points(rep, seed, points):
    """A (points, D) stack of seeded points of the model space (unit vectors
    for sphere actions)."""
    p = np.random.default_rng(seed).standard_normal((points, rep.space_dim))
    return p / np.linalg.norm(p, axis=-1, keepdims=True) if rep.restrict_to_sphere else p


def _check_slice_scan(work, tol, step):
    tol = tol or 1e-8
    rep = _linear_rep(work.bundle, "slice-scan")
    verdicts = _slice_verdicts(rep, work.slices[:SLICE_SCAN_POINTS], tol)
    worst = max([0.0, *(v.residual for v in verdicts)])
    return all(v.polar for v in verdicts), {"points": SLICE_SCAN_POINTS}, worst, tol


def _check_orbifold_points(work, tol, step):
    tol = tol or 1e-8
    rep = _linear_rep(work.bundle, "orbifold-points")
    named, problems = work.designated
    if problems:
        raise PolarityError("; ".join(f"designated orbifold point {name!r}: {problem}"
                                      for name, problem in problems.items()))
    found = work.slices
    results = _orbifold_results(rep, found[:ORBIFOLD_POINTS] + found[SLICE_SCAN_POINTS:], tol)
    worst = max([0.0, *(r.residual for r in results)])
    sampled_ok = all(r.ok for r in results[:ORBIFOLD_POINTS])
    designated = {name: r.ok for name, r in zip(named, results[ORBIFOLD_POINTS:])}
    verdict = sampled_ok if not designated else \
        {"sampled": sampled_ok, "designated": designated}
    return verdict, {"points": ORBIFOLD_POINTS}, worst, tol


def _check_weyl(work, tol, step):
    _, roots, group = work.weyl
    verdict = {"roots": len(roots.roots), "order": group.order}
    mults = sorted(int(m) for _, m in roots.roots)
    return verdict, {"multiplicities": mults, "g0_dim": roots.g0_dim}, 0.0, None


def _check_reduction(work, tol, step):
    tol = tol or 1e-3
    v, roots, group = work.weyl
    budget = QuotientOptimizerConfig(restarts=4, evals=2500, probes=300, seed=work.seed)
    report = reduction_isometry_check(work.bundle["rep"], v.section, group,
                                      ReductionSampler(pairs=REDUCTION_PAIRS, seed=work.seed),
                                      budget)
    ok = report.max_relative_error < tol and report.max_one_sided_excess < 1e-6
    value = {"pairs": report.n_pairs,
             "one_sided_excess": report.max_one_sided_excess,
             "quotient_search": {"starts": report.n_pairs * budget.restarts,
                                 "iterations": report.iterations,
                                 "evaluations": report.evaluations,
                                 "certified": report.certified}}
    return ok, value, report.max_relative_error, tol


def _check_jacobi_scan(work, tol, step):
    tol = tol or 1e-8
    geod = work.geodesic(step or DEFAULT_STEP)
    focal = focal_points(geod)
    j0, dj0 = n_jacobi_space(geod)
    rk = jacobi_integrate(geod, j0[0], dj0[0], method="rk4")
    resid = float(np.max(np.abs(_field_on_grid(geod, j0[0], dj0[0]) - rk[0])))
    verdict = {"focal": [[round(t, 6), m] for t, m in focal]}
    ok = resid < tol
    value = {"integrator_residual": resid, "focal_scan": focal_scan_counters(geod)}
    return verdict if ok else False, value, resid, tol


def _check_vc(work, tol, step):
    tol = tol or 1e-6
    geod = work.geodesic(step or DEFAULT_STEP)
    probe = variational_completeness_probe(geod, angle_tol=tol)
    tangency = None
    rep = work.bundle["rep"]
    if not rep.restrict_to_sphere and work.bundle["manifold"].kind == "euclidean":
        do = discala_olmos_probe(rep, work.bundle["basepoint"], work.seed)
        tangency = bool(do.worst_tangency < 1e-3)
    verdict = {"probe": probe.ok, "eigenfield_tangency": tangency}
    return verdict, {"worst_angle": probe.worst_angle}, probe.worst_angle, tol


def _search_counters(report) -> dict:
    return {"starts": report.starts, "iterations": report.iterations,
            "evaluations": report.evaluations}


def _check_oneill(work, tol, step):
    tol = tol or 1e-2
    rep = _need(work.bundle, "rep", "oneill")
    pair_xy = work.bundle.get("horizontal_pair")
    if pair_xy is None:
        raise Inapplicable("oneill needs a designated horizontal 2-plane")
    report = oneill_check(rep, work.bundle["manifold"], work.bundle["basepoint"],
                          pair_xy[0], pair_xy[1])
    ok = report.residual < tol
    value = {"k_sigma": report.k_sigma, "a_norm_sq": report.a_norm_sq,
             "k_star_formula": report.k_star_formula,
             "quotient_search": _search_counters(report)}
    return (report.k_star_estimate if ok else False), value, report.residual, tol


def _check_transversal(work, tol, step):
    tol = tol or 1e-5
    geod = work.geodesic(min(step or DEFAULT_STEP, DEFAULT_STEP))
    system = transversal_system(geod)
    scan = conjugate_scan(system)
    claims = claim_residuals(system)
    worst = max(claims.values()) if claims else 0.0
    first = scan.conjugate_points[0][0] if scan.conjugate_points else None
    verdict = {"first_conjugate": first, "index": scan.index,
               "sturm": scan.sturm_consistent}
    ok = scan.sturm_consistent and worst < tol
    return verdict if ok else False, {"claims": claims}, worst, tol


def _check_cartan_probe(work, tol, step):
    tol = tol or 1e-8
    srep = work.bundle.get("srep")
    pair = srep[0] if srep is not None else _need(work.bundle, "pair", "cartan-probe")
    a = maximal_abelian(pair, work.seed)
    res = cartan_hermann_probe(pair, a, tol)
    return res.ok, {}, res.residual, tol


def _check_rescale(work, tol, step):
    tol = tol or 1e-2
    rep = _need(work.bundle, "rep", "rescale-probe")
    sing = work.bundle.get("sphere_singular")
    if sing is None:
        raise Inapplicable("rescale-probe needs a designated singular sphere point")
    sphere_rep = dataclasses.replace(rep, restrict_to_sphere=True)
    report = rescale_probe(sphere_rep, sing["point"], sing["regular_q"], seed=work.seed)
    ok = report.consistent and abs(report.values[-1]) < tol
    value = {"lambdas": list(report.lambdas), "values": list(report.values),
             "flat_prediction": report.flat_prediction,
             "quotient_search": _search_counters(report)}
    return ok, value, abs(report.values[-1]), tol


_RUNNERS = {
    "polarity": _check_polarity,
    "hyperpolarity": _check_hyperpolarity,
    "cohomogeneity": _check_cohomogeneity,
    "slice-scan": _check_slice_scan,
    "orbifold-points": _check_orbifold_points,
    "weyl": _check_weyl,
    "reduction-isometry": _check_reduction,
    "jacobi-scan": _check_jacobi_scan,
    "variational-completeness": _check_vc,
    "oneill": _check_oneill,
    "transversal": _check_transversal,
    "cartan-probe": _check_cartan_probe,
    "rescale-probe": _check_rescale,
}
ALL_CHECKS = tuple(_RUNNERS)


def _values_match(want, got, atol) -> bool:
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return False
        return all(_values_match(v, got.get(k), atol) for k, v in want.items())
    if isinstance(want, bool) or want is None:
        return want == got
    if isinstance(want, (int, float)):
        if not isinstance(got, (int, float)):
            return False
        return abs(float(want) - float(got)) <= max(atol, 1e-12)
    return want == got


def analyze(entry, checks=None, seed: int = 0, tol: float | None = None,
            step: float | None = None) -> AnalysisReport:
    """Run the requested checks over a catalog entry or a loaded model bundle.

    Deterministic given (entry, checks, seed, tolerances); inapplicable
    checks are reported as skipped records, not failures, and a check whose
    residual is neither a pass nor a robust witness as an indeterminate
    record, and one that raises a library error as an error record.  The
    report fails if any record fails, and is otherwise error if any record
    is, and otherwise indeterminate if any record is.  The checks of a call
    share one ``_Work``: the geodesic checks one ``OrbitGeodesic`` per
    effective step, with its grid fields and focal scan; ``polarity``,
    ``cohomogeneity``, ``weyl`` and ``reduction-isometry`` one regular-point
    pairing, the last two one Weyl group; ``slice-scan`` and
    ``orbifold-points`` one slice pass.  Each check applies its own
    tolerance, and a build that raises is not kept.  The geodesic checks
    default to the grid step 1e-3, and ``transversal`` caps a given step at
    1e-3; ``oneill`` takes no step.  ``seed`` must be a
    non-negative integer, or ``ModelError`` is raised.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ModelError(f"seed must be a non-negative integer, got {seed!r}")
    if isinstance(entry, str):
        entry = catalog_entry(entry)
    if isinstance(entry, CatalogEntry):
        bundle = entry.build()
        name = entry.name
        expected = entry.expected
        checks = list(checks) if checks is not None else list(entry.default_checks)
    else:
        bundle = entry
        name = bundle.get("name", bundle.get("algebra").name if bundle.get("algebra")
                          else "model")
        expected = {}
        checks = list(checks) if checks is not None else list(ALL_CHECKS)
    work = _Work(bundle, seed)
    records = []
    for check in checks:
        if check not in _RUNNERS:
            raise ModelError(f"unknown check {check!r}; known: {', '.join(ALL_CHECKS)}")
        t0 = time.perf_counter()
        try:
            verdict, value, residual, tolerance = _RUNNERS[check](work, tol, step)
            if check in expected:
                want = expected[check]
                ok = _values_match(want.get("value"), verdict, want.get("atol", 0.0))
            elif isinstance(verdict, bool):
                ok = verdict
            elif isinstance(verdict, dict) and "probe" in verdict:
                ok = bool(verdict["probe"])
            else:
                ok = verdict is not False
            status = "pass" if ok else "fail"
        except (Inapplicable, linalg.IndeterminateVerdict, *LIBRARY_ERRORS) as exc:
            verdict, value, residual, tolerance = None, {"reason": str(exc)}, None, None
            status = "skipped" if isinstance(exc, Inapplicable) else \
                "indeterminate" if isinstance(exc, linalg.IndeterminateVerdict) else "error"
        records.append(CheckRecord(check, status, verdict, value, residual,
                                   tolerance, seed, time.perf_counter() - t0))
    return AnalysisReport(name, records, _overall([r.status for r in records]))


def _overall(statuses) -> str:
    """fail if any status fails, else error, else indeterminate, else pass."""
    return next((s for s in ("fail", "error", "indeterminate") if s in statuses), "pass")


def emit_report(report: AnalysisReport, fmt: str = "json") -> str:
    """Serialise a report; json is schema-stable, text is a human summary."""
    if fmt == "json":
        return json.dumps(report.to_doc(), sort_keys=True, separators=(",", ":"))
    if fmt != "text":
        raise ModelError(f"unknown format {fmt!r}; expected json or text")
    lines = [f"entry: {report.entry}  [{report.status}]"]
    for r in report.records:
        detail = "" if r.residual is None else \
            f"  residual={r.residual:.3e} tol={r.tolerance:.1e}" \
            if r.tolerance else f"  residual={r.residual:.3e}"
        lines.append(f"  {r.check:26s} {r.status:7s} verdict={r.verdict!r}"
                     f"{detail}  ({r.runtime:.2f}s)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polaris",
        description="polarity / hyperpolarity / variational-completeness checks")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the built-in catalog entries")
    an = sub.add_parser("analyze", help="run checks on an entry or model file")
    group = an.add_mutually_exclusive_group(required=True)
    group.add_argument("--entry", help="catalog entry name, or 'all'")
    group.add_argument("--model", help="path to a model JSON document")
    an.add_argument("--checks", help="comma-separated check list")
    an.add_argument("--seed", type=int, default=None)
    an.add_argument("--tol", type=float, default=None)
    an.add_argument("--step", type=float, default=None)
    fmt = an.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit JSON (default)")
    fmt.add_argument("--text", action="store_true", help="emit a text summary")
    an.add_argument("--out", help="write the report to a file")
    return parser


def _option_error(args) -> str | None:
    """Why ``--step`` or ``--tol`` is unusable, or None when both are."""
    if args.step is not None and not 0.0 < args.step <= MAX_STEP:
        return f"--step must be a number in (0, {MAX_STEP:g}], got {args.step!r}"
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0.0):
        return f"--tol must be a positive finite number, got {args.tol!r}"
    return None


def _seed(args) -> int:
    """``--seed``, else ``POLARIS_SEED``, else 0 (``analyze`` rejects a
    negative seed)."""
    if args.seed is not None:
        return args.seed
    text = os.environ.get("POLARIS_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ModelError(f"POLARIS_SEED must be a non-negative integer, "
                         f"got {text!r}") from None


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        for entry in catalog_list():
            print(f"{entry.name:20s} {entry.kind:24s} {entry.description}")
        return 0
    problem = _option_error(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    checks = args.checks.split(",") if args.checks else None
    fmt = "text" if args.text else "json"
    try:
        seed = _seed(args)
        if args.model:
            targets = [load_model(args.model)]
        elif args.entry == "all":
            targets = [e.name for e in catalog_list()]
        else:
            targets = [catalog_entry(args.entry).name]
    except (ModelError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = []
    try:
        for target in targets:
            reports.append(analyze(target, checks, seed=seed, tol=args.tol,
                                   step=args.step))
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if fmt == "json" and len(reports) > 1:
        out = json.dumps({"schema": SCHEMA_VERSION,
                          "reports": [r.to_doc() for r in reports]},
                         sort_keys=True, separators=(",", ":"))
    else:
        out = "\n".join(emit_report(r, fmt) for r in reports)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return {"pass": 0, "fail": 1, "indeterminate": 3, "error": 4}[
        _overall([r.status for r in reports])]


if __name__ == "__main__":
    sys.exit(main())
