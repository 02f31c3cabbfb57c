"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS line on success (pytest -s shows them); a
failure surfaces as an ordinary assertion error with the offending numbers.
"""

import dataclasses
import json
import time

import numpy as np

import polaris as pl
from polaris import linalg
from polaris.catalog import catalog_entry, catalog_list, footnote_curve
from polaris.cli import analyze
from polaris.liealg import Subspace
from polaris.symspace import cartan_hermann_probe
from polaris.transversal import OrbitGeodesic, claim_residuals, \
    conjugate_scan, discala_olmos_probe, horizontal_frame, \
    oneill_check, rescale_probe, symplectic_form, \
    transversal_equation_residual, transversal_system, \
    variational_completeness_probe
from polaris.weyl import QuotientOptimizerConfig, ReductionSampler, \
    reduction_isometry_check, restricted_roots, weyl_group_closure

from grid_oracle import basis_on_grid

PI = float(np.pi)


def report(n, label):
    print(f"ACCEPTANCE {n:02d} {label}: PASS")


def section_weyl(bundles, name, seed=3):
    b = bundles[name]
    v = pl.is_polar_rep(b["rep"], seed=1)
    pair, pmap = b["srep"]
    a = Subspace(pair.algebra.name, v.section.basis @ pmap)
    roots = restricted_roots(pair, a, seed=seed)
    return b["rep"], v.section, weyl_group_closure(roots)


def test_criterion_01_polarity_verdicts(bundles):
    t0 = time.perf_counter()
    v = pl.is_polar_rep(bundles["su2_adjoint"]["rep"], seed=1)
    assert v.polar and v.cohomogeneity == 1
    assert time.perf_counter() - t0 < 1.0

    t0 = time.perf_counter()
    v = pl.is_polar_rep(bundles["so3_sym_traceless"]["rep"], seed=1)
    assert v.polar and v.cohomogeneity == 2
    assert time.perf_counter() - t0 < 1.0

    t0 = time.perf_counter()
    rep = bundles["su2_diag_double"]["rep"]
    for seed in range(20):
        v = pl.is_polar_rep(rep, seed=seed)
        assert not v.polar
        assert abs(v.witness[3]) > 1e-6
    assert time.perf_counter() - t0 < 1.0
    report(1, "polarity verdicts")


def test_criterion_02_subgroup_criterion(bundles):
    t0 = time.perf_counter()
    b = bundles["hermann_su3"]
    hyper = pl.is_hyperpolar_homogeneous(b["pair"], b["subalgebra"], seed=11)
    assert hyper.ok and hyper.residual < 1e-12

    b = bundles["t2_cp2"]
    v = pl.is_polar_homogeneous(b["pair"], b["subalgebra"], seed=11)
    assert v.polar
    assert not pl.is_hyperpolar_homogeneous(b["pair"], b["subalgebra"], seed=11).ok
    k = pl.sectional_curvature(b["pair"], v.section.basis[0], v.section.basis[1])
    assert k > 1e-6
    assert time.perf_counter() - t0 < 1.0
    report(2, "Lie-triple-system criterion")


def test_criterion_03_weyl(bundles, su3_conj_pair, swap_pair):
    t0 = time.perf_counter()
    a = pl.maximal_abelian(su3_conj_pair, seed=5)
    roots = restricted_roots(su3_conj_pair, a, seed=7)
    assert len(roots.roots) == 6
    assert all(m == 1 for _, m in roots.roots)
    assert weyl_group_closure(roots).order == 6
    a1 = pl.maximal_abelian(swap_pair, seed=2)
    roots1 = restricted_roots(swap_pair, a1, seed=2)
    assert weyl_group_closure(roots1).order == 2
    assert time.perf_counter() - t0 < 1.0
    report(3, "restricted roots and Weyl order")


def test_criterion_04_reduction_isometry(bundles):
    t0 = time.perf_counter()
    for name, cfg in (("su2_adjoint",
                       QuotientOptimizerConfig(restarts=4, evals=2000,
                                               probes=200, seed=17)),
                      ("so3_sym_traceless",
                       QuotientOptimizerConfig(restarts=4, evals=2500,
                                               probes=300, seed=17))):
        rep, section, group = section_weyl(bundles, name)
        rr = reduction_isometry_check(rep, section, group,
                                      ReductionSampler(pairs=200, seed=5), cfg)
        assert rr.max_relative_error < 1e-3, name
        assert rr.max_one_sided_excess < 1e-6, name
        assert time.perf_counter() - t0 < 30.0, name
        t0 = time.perf_counter()
    report(4, "reduction isometry over 200 pairs")


def test_criterion_05_oneill(bundles):
    t0 = time.perf_counter()
    b = bundles["hopf_s1_s3"]
    x, y = b["horizontal_pair"]
    rr = oneill_check(b["rep"], b["manifold"], b["basepoint"], x, y, step=2.5e-4)
    assert abs(rr.k_star_estimate - 4.0) < 1e-2
    assert abs(rr.k_star_formula - 4.0) < 1e-6
    for name in ("su2_adjoint", "so3_sym_traceless", "so2_s2", "so3_s2xs2"):
        bb = bundles[name]
        geod = OrbitGeodesic(bb["rep"], bb["manifold"], bb["basepoint"],
                             bb["direction"], span=bb["span"], step=1e-3)
        system = transversal_system(geod)
        ranks = system.orbit_rank
        regular = ranks == ranks.max()
        regular[:2] = regular[-2:] = False
        worst = float(np.max(np.linalg.norm(system.a[regular], axis=(1, 2))))
        assert worst < 2e-6, name
    assert time.perf_counter() - t0 < 30.0
    report(5, "O'Neill curvature relation")


def test_criterion_06_transversal_jacobi(bundles):
    b = bundles["hopf_s1_s3"]
    geod = OrbitGeodesic(b["rep"], b["manifold"], b["basepoint"], b["direction"],
                         span=(0.0, PI), step=2.5e-4)
    system = transversal_system(geod)
    scan = conjugate_scan(system)
    assert abs(scan.conjugate_points[0][0] - PI / 2) < 1e-4
    proj = system.p_h @ basis_on_grid(geod)
    assert transversal_equation_residual(system, proj) < 1e-6
    claims = claim_residuals(system)
    assert claims["vertical-derivative"] < 1e-6
    assert claims["frame-derivative"] < 1e-6
    report(6, "transversal Jacobi equation")


def test_criterion_06_holds_for_the_default_step_record():
    # the record users see runs on analyze's shared default grid, not on
    # the finer grid of the criterion above
    (rec,) = analyze("hopf_s1_s3", ["transversal"]).records
    assert rec.status == "pass"
    assert abs(rec.verdict["first_conjugate"] - PI / 2) < 1e-4
    assert rec.value["claims"]["vertical-derivative"] < 1e-6
    assert rec.value["claims"]["frame-derivative"] < 1e-6


def test_criterion_07_symplectic(bundles):
    geodesic_entries = ("su2_adjoint", "so3_sym_traceless", "su2_diag_double",
                        "hopf_s1_s3", "so2_s2", "so3_s2xs2")
    for name in geodesic_entries:
        b = bundles[name]
        d = b["direction"]
        if d is None:
            rows = b["rep"].tangent_rows(b["basepoint"])
            d = linalg.complement(rows, b["rep"].space_dim)[0]
        geod = OrbitGeodesic(b["rep"], b["manifold"], b["basepoint"], d,
                             span=(0.0, PI), step=1e-3)
        system = transversal_system(geod)
        y, dy = basis_on_grid(geod), basis_on_grid(geod, derivative=True)
        w = symplectic_form(y, dy)                  # every pair of fields
        assert np.max(np.ptp(w, axis=0)) < 1e-8, name
        assert np.max(np.abs(w)) < 1e-10, name      # Lagrangian
        ups = system.upsilon_coeffs
        w = symplectic_form(y @ ups.T, dy @ ups.T)
        assert np.max(np.abs(w), initial=0.0) < 1e-10, name   # isotropic
    report(7, "symplectic form on Jacobi fields")


def test_criterion_08_variational_completeness(bundles):
    for name in ("so2_s2", "su2_adjoint", "so3_sym_traceless"):
        b = bundles[name]
        geod = OrbitGeodesic(b["rep"], b["manifold"], b["basepoint"],
                             b["direction"], span=(0.0, PI), step=1e-3)
        probe = variational_completeness_probe(geod, angle_tol=1e-6)
        assert probe.ok, name
        assert probe.worst_angle < 1e-6, name
    b = bundles["su2_diag_double"]
    do = discala_olmos_probe(b["rep"], b["basepoint"], seed=4)
    assert do.worst_tangency > 1e-3
    report(8, "variational completeness probes")


def test_criterion_09_cartan_hermann_probe(su3_conj_pair):
    a = pl.maximal_abelian(su3_conj_pair, seed=7)
    res = cartan_hermann_probe(su3_conj_pair, a)
    assert res.ok and res.residual < 1e-8
    rng = np.random.default_rng(31)
    alg = su3_conj_pair.algebra
    passes = []
    for i in range(50):
        rows = linalg.orthonormalize(
            rng.standard_normal((2, su3_conj_pair.p.dim)) @ su3_conj_pair.p.basis,
            alg.metric_root)
        sub = Subspace(alg.name, rows)
        lts = pl.is_lie_triple_system(alg, sub)
        probe = cartan_hermann_probe(su3_conj_pair, sub)
        assert not probe.ok and probe.residual > 1e-3
        assert lts.ok == probe.ok
        passes.append(probe.ok)
    # 50 passing cases: rotate bases of the flat section (all LTS)
    for i in range(50):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        sub = Subspace(alg.name, q @ a.basis)
        lts = pl.is_lie_triple_system(alg, sub)
        probe = cartan_hermann_probe(su3_conj_pair, sub)
        assert probe.ok and lts.ok
    report(9, "Cartan/Hermann probe vs Lie triple systems")


def test_criterion_10_footnote_geodesic(bundles):
    times = np.arange(0.0, 20.0 + 1e-12, 1e-3)
    gam, dgam = footnote_curve(times)
    speeds = np.linalg.norm(dgam, axis=1)
    assert np.max(np.abs(speeds - 1.0)) < 1e-12            # unit speed
    man = bundles["so3_s2xs2"]["manifold"]
    model, _ = man.geodesic(gam[0], dgam[0], times)
    assert np.max(np.abs(gam - model)) < 1e-9              # a geodesic
    gens = bundles["so3_s2xs2"]["rep"].generators
    pairing = np.abs(np.einsum("td,idc,tc->ti", dgam, gens, gam))
    assert np.max(pairing) < 1e-9                          # normal to orbits
    report(10, "product-of-spheres normal geodesic")


def test_criterion_11_rescaled_curvature(bundles):
    b = bundles["su2_diag_double"]
    rep = dataclasses.replace(b["rep"], restrict_to_sphere=True)
    sing = b["sphere_singular"]
    rr = rescale_probe(rep, sing["point"], sing["regular_q"],
                       lambdas=(0.125, 0.0625, 0.03125, 0.015625), seed=3)
    assert rr.flat_prediction
    values = np.abs(np.array(rr.values))
    assert values[-1] < 1e-2
    assert np.all(np.diff(values) < 0)                     # decreasing
    report(11, "orbifold rescaling limit")


def test_criterion_12_determinism_and_runtime():
    def run_suite():
        docs = []
        for entry in catalog_list():
            rep = analyze(entry.name, seed=0)
            doc = rep.to_doc()
            for rec in doc["records"]:
                rec.pop("runtime")
            docs.append(doc)
        return json.dumps(docs, sort_keys=True), [d["status"] for d in docs]

    t0 = time.perf_counter()
    first, statuses = run_suite()
    elapsed_once = time.perf_counter() - t0
    second, _ = run_suite()
    assert first == second                                 # byte-identical
    assert all(s == "pass" for s in statuses)              # exit code 0
    assert elapsed_once < 300.0
    report(12, f"determinism and runtime ({elapsed_once:.0f}s per suite)")
