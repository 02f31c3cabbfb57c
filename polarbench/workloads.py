"""The four benchmark workloads: seeded inputs, one op each, and its judge.

Each workload builds its fixtures and generates every input during set-up,
from the workload seed alone; the library then receives only those inputs.
An op is one call into the package's public API (two for ``reduction``).
Its judge compares the result with the catalog's expected value or the
acceptance-criterion gate and returns a canonical verdict (outcomes, with
values rounded to 3 decimals, so that it can be digested and compared
across commits) plus quality readings.

Every call goes through a module attribute (``weyl.reduction_isometry_check``,
``cli.analyze``), so the traced run sees the wrapped function.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import zlib
from typing import Callable

import numpy as np
from scipy.linalg import expm

from polaris import catalog, cli, linalg, liealg, polarity, transversal, weyl

# Failures a check may raise on legitimate input; each one fails its op and
# the run goes on.
LIBRARY_ERRORS = (linalg.IndeterminateVerdict, transversal.TransversalError,
                  weyl.WeylError, cli.ModelError)

# Criterion 04: reduction isometry gates.
REDUCTION_REL_GATE = 1e-3
REDUCTION_EXCESS_GATE = 1e-6
# Criterion 05: the A-tensor path must give K(sigma*) = 4 to this accuracy.
ONEILL_FORMULA_GATE = 1e-6
# Criterion 11: the rescaled curvature must fall below this by lambda = 1/64.
RESCALE_GATE = 1e-2
# The seed `polaris analyze` uses when neither --seed nor POLARIS_SEED is set.
CLI_SEED = 0
# The analyze() budget for reduction-isometry, criterion 04's larger one.
REDUCTION_BUDGET = dict(restarts=4, evals=2500, probes=300)
# oneill_check's own default budget.
ONEILL_BUDGET = dict(restarts=4, evals=1500, probes=100)

# Focal times (rounded as jacobi-scan reports them) and multiplicities of
# the unmoved catalog geodesics; moving a geodesic by a group element must
# not change them.
FOCAL_TOL = 1e-4
FOCAL_REFERENCE = {
    "su2_adjoint": ((1.0, 2),),
    "so3_sym_traceless": ((0.123139, 1), (1.330107, 1)),
    "hopf_s1_s3": ((1.570796, 1),),
    "so2_s2": ((1.570796, 1),),
    "so3_s2xs2": ((1.202235, 1),),
}


@dataclasses.dataclass(frozen=True)
class Outcome:
    ok: bool
    reason: str
    canonical: object
    quality: dict


@dataclasses.dataclass(frozen=True)
class Op:
    label: str                       # what the op runs; the same at every seed
    run: Callable[[], object]
    judge: Callable[[object], Outcome]


def values_match(want, got, atol: float = 0.0) -> bool:
    """The catalog's comparison: dict subsets, exact flags, numbers within atol.

    It repeats what cli does privately, so that the judge shares no code
    with the program it judges.
    """
    if isinstance(want, dict):
        return isinstance(got, dict) and all(
            values_match(v, got.get(k), atol) for k, v in want.items())
    if isinstance(want, bool) or want is None:
        return want == got
    if isinstance(want, (int, float)):
        return isinstance(got, (int, float)) and not isinstance(got, bool) \
            and abs(float(want) - float(got)) <= max(atol, 1e-12)
    return want == got


def canonical(x):
    """JSON-able form with floats rounded to 3 decimals."""
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return round(float(x), 3)
    if isinstance(x, dict):
        return {str(k): canonical(v) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    return x


def _outcome(ok: bool, reason: str, canon, quality=None) -> Outcome:
    return Outcome(bool(ok), "" if ok else reason, canon, quality or {})


def _draw(rng) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


def _record_problem(rec, expected: dict | None) -> str:
    """Why one analyze() record is wrong, or "" when it matches.

    A record is judged by the catalog's expected value when there is one,
    otherwise by its own pass/fail status.
    """
    if rec.status == "skipped":
        return f"{rec.check} skipped"
    if expected is not None:
        ok = values_match(expected["value"], rec.verdict, expected.get("atol", 0.0))
    else:
        ok = rec.status == "pass"
    return "" if ok else f"{rec.check}={rec.verdict!r}"


class Workload:
    """Seeded inputs split into equal chunks of ops."""

    name = ""
    nominal_chunk_s = 2.0        # chunk time at the seed commit, 2-core x86

    def __init__(self, seed: int, chunks: int):
        rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        self._inputs = hashlib.sha256()
        self.setup()
        self.chunks = [self.make_chunk(rng) for _ in range(chunks)]

    def note(self, *items) -> None:
        """Add generated inputs to the input digest."""
        for item in items:
            if isinstance(item, str):
                self._inputs.update(item.encode())
            else:
                self._inputs.update(np.ascontiguousarray(item, float).tobytes())

    def inputs_digest(self) -> str:
        return self._inputs.hexdigest()[:16]

    def setup(self) -> None:
        """Build the fixtures; runs once, before any input is drawn."""
        raise NotImplementedError

    def make_chunk(self, rng) -> list:
        raise NotImplementedError


class Reduction(Workload):
    """Orbit-space versus section/Weyl distance on seeded section pairs.

    One op checks ``pairs_per_op`` pairs on each fixture, one fixture after
    the other.  Single pairs differ in cost by up to 4x: with one pair per
    op the tail latency spread by 19% over ten seeds, with two pairs per
    fixture by 5%.
    """

    name = "reduction"
    nominal_chunk_s = 2.2
    fixtures = ("su2_adjoint", "so3_sym_traceless")
    pairs_per_op = 2
    ops_per_chunk = 4

    def setup(self):
        # the section and Weyl group as `polaris analyze` finds them at its
        # default seed; only the pairs and optimizer seeds vary
        self.models = {}
        for fixture in self.fixtures:
            bundle = catalog.catalog_entry(fixture).build()
            rep = bundle["rep"]
            pair, p_map = bundle["srep"]
            verdict = polarity.is_polar_rep(rep, seed=CLI_SEED)
            a = liealg.Subspace(pair.algebra.name, verdict.section.basis @ p_map)
            group = weyl.weyl_group_closure(weyl.restricted_roots(pair, a, CLI_SEED))
            self.models[fixture] = (rep, verdict.section, group)

    def make_chunk(self, rng):
        ops = []
        for _ in range(self.ops_per_chunk):
            calls = []
            for fixture in self.fixtures:
                rep, section, group = self.models[fixture]
                sampler = weyl.ReductionSampler(pairs=self.pairs_per_op, seed=_draw(rng))
                config = weyl.QuotientOptimizerConfig(seed=_draw(rng), **REDUCTION_BUDGET)
                self.note(np.array([sampler.seed, config.seed]))
                calls.append((rep, section, group, sampler, config))
            ops.append(Op("+".join(self.fixtures), self._runner(calls), self._judge))
        return ops

    @staticmethod
    def _runner(calls):
        return lambda: [weyl.reduction_isometry_check(*args) for args in calls]

    @staticmethod
    def _judge(reports) -> Outcome:
        rel = max(r.max_relative_error for r in reports)
        excess = max(r.max_one_sided_excess for r in reports)
        ok = rel < REDUCTION_REL_GATE and excess < REDUCTION_EXCESS_GATE
        return _outcome(ok, f"relative error {rel:.3e}, excess {excess:.3e}",
                        {"ok": ok},
                        {"weyl.reduction.max_rel_error": rel,
                         "weyl.reduction.max_excess": excess})


class Curvature(Workload):
    """Quotient curvature read from sqrt(2) s - d at tiny separations."""

    name = "curvature"
    nominal_chunk_s = 1.6
    groups_per_chunk = 2
    oneill_per_group = 5

    def setup(self):
        hopf = catalog.catalog_entry("hopf_s1_s3")
        self.hopf = hopf.build()
        self.hopf_expected = hopf.expected["oneill"]
        double = catalog.catalog_entry("su2_diag_double")
        bundle = double.build()
        self.sphere_rep = dataclasses.replace(bundle["rep"], restrict_to_sphere=True)
        self.singular = bundle["sphere_singular"]

    def make_chunk(self, rng):
        ops = []
        for _ in range(self.groups_per_chunk):
            seed = _draw(rng)
            self.note(np.array([seed]))
            ops.append(Op("su2_diag_double/rescale", self._rescale(seed),
                          self._judge_rescale))
            for _ in range(self.oneill_per_group):
                angle = rng.uniform(0.0, 2 * np.pi)
                seed = _draw(rng)
                self.note(np.array([angle, seed]))
                ops.append(Op("hopf_s1_s3/oneill", self._oneill(angle, seed),
                              self._judge_oneill))
        return ops

    def _oneill(self, angle, seed):
        b = self.hopf
        x, y = b["horizontal_pair"]
        c, s = np.cos(angle), np.sin(angle)
        xr, yr = c * x + s * y, -s * x + c * y
        config = weyl.QuotientOptimizerConfig(seed=seed, **ONEILL_BUDGET)
        return lambda: transversal.oneill_check(b["rep"], b["manifold"], b["basepoint"],
                                                xr, yr, step=2.5e-4, qconfig=config)

    def _judge_oneill(self, report) -> Outcome:
        want = self.hopf_expected
        ok = values_match(want["value"], report.k_star_estimate, want["atol"]) \
            and abs(report.k_star_formula - want["value"]) < ONEILL_FORMULA_GATE
        return _outcome(ok, f"K estimate {report.k_star_estimate:.6f}, "
                            f"formula {report.k_star_formula:.9f}",
                        {"ok": ok, "k": round(report.k_star_estimate, 2)},
                        {"transversal.oneill.residual": report.residual})

    def _rescale(self, seed):
        return lambda: transversal.rescale_probe(
            self.sphere_rep, self.singular["point"], self.singular["regular_q"], seed=seed)

    @staticmethod
    def _judge_rescale(report) -> Outcome:
        values = np.abs(np.array(report.values))
        ok = report.flat_prediction and report.consistent \
            and values[-1] < RESCALE_GATE and bool(np.all(np.diff(values) < 0))
        return _outcome(ok, f"rescaled values {list(report.values)}",
                        {"ok": ok, "flat": bool(report.flat_prediction)},
                        {"transversal.rescale.value": float(values[-1])})


class Geodesic(Workload):
    """Each fixture's geodesic checks on a geodesic moved by a group element.

    Every fixture gets one analyze() call with its default geodesic checks.
    An op is one such call for ``hopf_s1_s3`` or ``so3_s2xs2`` (about 3.3 s
    and 4.5 s, mostly their ``transversal`` check) or the calls for the four
    fixtures without one (about 2.3 s together).  With one op per check or
    per fixture, many ops had nearly equal costs, the median and tail fell
    between two of them and spread by up to 31% over ten seeds.
    """

    name = "geodesic"
    nominal_chunk_s = 9.0
    checks = {
        "su2_adjoint": ("jacobi-scan", "variational-completeness"),
        "so3_sym_traceless": ("jacobi-scan", "variational-completeness"),
        "su2_diag_double": ("variational-completeness",),
        "so2_s2": ("jacobi-scan", "variational-completeness"),
        "hopf_s1_s3": ("jacobi-scan", "transversal", "variational-completeness"),
        "so3_s2xs2": ("jacobi-scan", "variational-completeness", "transversal"),
    }
    groups = (("su2_adjoint", "so3_sym_traceless", "su2_diag_double", "so2_s2"),
              ("hopf_s1_s3",), ("so3_s2xs2",))

    def setup(self):
        self.bundles = {}
        self.expected = {}
        for fixture in self.checks:
            entry = catalog.catalog_entry(fixture)
            bundle = entry.build()
            if bundle["direction"] is None:
                # resolve the basis-dependent normal before any move
                rows = bundle["rep"].tangent_rows(bundle["basepoint"])
                bundle["direction"] = linalg.complement(rows, bundle["rep"].space_dim)[0]
            self.bundles[fixture] = bundle
            self.expected[fixture] = entry.expected

    def make_chunk(self, rng):
        ops = []
        for group in self.groups:
            calls = []
            for fixture in group:
                base = self.bundles[fixture]
                gens = base["rep"].generators
                t = rng.uniform(-np.pi, np.pi, gens.shape[0])
                g = expm(np.einsum("i,iab->ab", t, gens))
                moved = dict(base, name=fixture, basepoint=g @ base["basepoint"],
                             direction=g @ base["direction"])
                if "horizontal_pair" in base:
                    moved["horizontal_pair"] = tuple(g @ v for v in base["horizontal_pair"])
                seed = _draw(rng)
                self.note(g, np.array([seed]))
                calls.append((moved, list(self.checks[fixture]), seed))
            ops.append(Op("+".join(group), self._runner(calls), self._judge))
        return ops

    @staticmethod
    def _runner(calls):
        return lambda: [cli.analyze(bundle, checks, seed=seed) for bundle, checks, seed in calls]

    def _judge(self, reports) -> Outcome:
        problems = []
        quality = {}
        canon = []
        for report in reports:
            fixture = report.entry
            for rec in report.records:
                problem = _record_problem(rec, self.expected[fixture].get(rec.check))
                if not problem and rec.check == "jacobi-scan" and not _focal_match(
                        rec.verdict["focal"], FOCAL_REFERENCE[fixture]):
                    problem = f"focal {rec.verdict['focal']}"
                if problem:
                    problems.append(f"{fixture}: {problem}")
                if rec.check == "transversal" and isinstance(rec.value, dict):
                    claims = rec.value.get("claims") or {}
                    quality["transversal.claims.max_residual"] = max(
                        [quality.get("transversal.claims.max_residual", 0.0), *claims.values()])
                canon.append([fixture, rec.check, rec.status, canonical(rec.verdict)])
        return _outcome(not problems, "; ".join(problems), canon, quality)


def _focal_match(got, want) -> bool:
    return len(got) == len(want) and all(
        m == wm and abs(t - wt) < FOCAL_TOL for (t, m), (wt, wm) in zip(got, want))


class Algebraic(Workload):
    """Model documents through load_model and analyze, plus catalog pair checks."""

    name = "algebraic"
    fixtures = ("su2_adjoint", "so3_sym_traceless", "su2_diag_double",
                "hopf_s1_s3", "so2_s2")
    doc_checks = ("polarity", "cohomogeneity", "slice-scan", "orbifold-points")
    pair_ops = (("t2_cp2", "hyperpolarity"), ("hermann_su3", "hyperpolarity"),
                ("su2_adjoint", "weyl"), ("so3_sym_traceless", "weyl"),
                ("so3_sym_traceless", "cartan-probe"))
    nominal_chunk_s = 1.5
    rounds_per_chunk = 5

    def setup(self):
        self.reps = {}
        self.doc_reference = {}
        for fixture in self.fixtures:
            entry = catalog.catalog_entry(fixture)
            self.reps[fixture] = entry.build()["rep"]
            self.doc_reference[fixture] = _document_reference(entry.expected)
        self.pair_expected = {
            (fixture, check): catalog.catalog_entry(fixture).expected[check]
            for fixture, check in self.pair_ops}

    def make_chunk(self, rng):
        ops = []
        for _ in range(self.rounds_per_chunk):
            for fixture in self.fixtures:
                text = _document(self.reps[fixture], rng)
                seed = _draw(rng)
                self.note(text, np.array([seed]))
                ops.append(Op(f"document/{fixture}", self._doc_runner(text, seed),
                              self._doc_judge(fixture)))
            for fixture, check in self.pair_ops:
                ops.append(Op(f"{fixture}/{check}", self._pair_runner(fixture, check),
                              self._pair_judge(fixture, check)))
        return ops

    def _doc_runner(self, text, seed):
        checks = list(self.doc_checks)
        return lambda: cli.analyze(cli.load_model(text), checks, seed=seed)

    def _doc_judge(self, fixture):
        reference = self.doc_reference[fixture]

        def judge(report) -> Outcome:
            canon = [[r.check, canonical(r.verdict)] for r in report.records]
            bad = [f"{r.check}={r.verdict!r}" for r in report.records
                   if r.status == "skipped" or not values_match(reference[r.check], r.verdict)]
            return _outcome(not bad, f"document/{fixture}: {', '.join(bad)}", canon)

        return judge

    @staticmethod
    def _pair_runner(fixture, check):
        # At the default seed, as `polaris analyze --entry` runs them.  Other
        # seeds make restricted_roots raise WeylError now and then (an
        # ambiguous eigenvalue clustering for so3_sym_traceless/weyl).
        return lambda: cli.analyze(fixture, [check], seed=CLI_SEED)

    def _pair_judge(self, fixture, check):
        expected = self.pair_expected[(fixture, check)]

        def judge(report) -> Outcome:
            rec = report.records[0]
            problem = _record_problem(rec, expected)
            return _outcome(not problem, f"{fixture}: {problem}",
                            [rec.check, rec.status, canonical(rec.verdict)])

        return judge


def _document_reference(expected: dict) -> dict:
    """Verdicts a conjugated model document must reproduce.

    Polarity and cohomogeneity come from the catalog.  A document carries no
    designated orbifold points, so only the sampled verdict applies.  Random
    points are regular, where every slice representation is trivial, hence
    polar, and the point is an orbifold point.
    """
    orbifold = expected.get("orbifold-points", {}).get("value", True)
    if isinstance(orbifold, dict):
        orbifold = orbifold["sampled"]
    return {"polarity": expected["polarity"]["value"],
            "cohomogeneity": expected["cohomogeneity"]["value"],
            "slice-scan": True,
            "orbifold-points": orbifold}


def _document(rep, rng) -> str:
    """The representation as a model document in a random orthonormal basis."""
    alg = rep.algebra
    n = alg.dim
    c = alg.structure
    structure = [[i + 1, j + 1, k + 1, float(c[i, j, k])]
                 for i in range(n) for j in range(i + 1, n) for k in range(n)
                 if c[i, j, k] != 0.0]
    q, r = np.linalg.qr(rng.standard_normal((rep.space_dim, rep.space_dim)))
    q = q * np.sign(np.diag(r))
    gens = [(q @ g @ q.T).ravel().tolist() for g in rep.generators]
    return json.dumps({
        "schema": 1, "kind": "representation", "name": rep.name, "dim": n,
        "structure": structure, "inner": alg.inner.ravel().tolist(),
        "generators": gens,
        "manifold": {"kind": "sphere" if rep.restrict_to_sphere else "euclidean"},
    })


WORKLOADS = {w.name: w for w in (Reduction, Curvature, Geodesic, Algebraic)}
