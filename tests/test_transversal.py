import tracemalloc

import numpy as np
import pytest

import polaris as pl
from polaris import linalg, transversal
from polaris.cli import analyze
from polaris.symspace import ModelManifold
from polaris.transversal import GridField, OrbitGeodesic, TransversalError, \
    claim_residuals, conjugate_scan, discala_olmos_probe, focal_points, \
    horizontal_frame, index_form_quadrature, jacobi_integrate, \
    killing_restrictions, lambda_fields, n_jacobi_space, oneill_check, \
    rescale_probe, shape_operator, symplectic_form, \
    transversal_equation_residual, transversal_integrate, transversal_system, \
    variational_completeness_probe
from polaris.transversal import _basis_modes, _golden_min, _matrix_solution, _rk4_steps

PI = float(np.pi)


def geod_for(bundles, name, span=(0.0, PI), step=1e-3, direction=None):
    b = bundles[name]
    d = direction if direction is not None else b["direction"]
    if d is None:
        rows = b["rep"].tangent_rows(b["basepoint"])
        d = linalg.complement(rows, b["rep"].space_dim)[0]
    return OrbitGeodesic(b["rep"], b["manifold"], b["basepoint"], d,
                         span=span, step=step)


def rotation_rep_r2():
    alg = pl.build_classical("torus", 1)
    gen = np.array([[[0.0, -1.0], [1.0, 0.0]]])
    rep = pl.OrthogonalRep(alg, gen, 2, name="rotation_r2")
    rep.validate()
    return rep


# -- geodesic construction -----------------------------------------------------

def test_direction_must_be_unit_normal(bundles):
    b = bundles["su2_adjoint"]
    with pytest.raises(TransversalError):
        OrbitGeodesic(b["rep"], b["manifold"], b["basepoint"],
                      2.0 * b["basepoint"])
    tangent = b["rep"].tangent_rows(b["basepoint"])[0]
    with pytest.raises(TransversalError):
        OrbitGeodesic(b["rep"], b["manifold"], b["basepoint"],
                      tangent / np.linalg.norm(tangent))


def test_step_cap(bundles):
    # above MAX_STEP, and not a positive finite number
    b = bundles["su2_adjoint"]
    for step in (0.05, 0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(TransversalError):
            OrbitGeodesic(b["rep"], b["manifold"], b["basepoint"], -b["basepoint"],
                          step=step)


def test_shape_operator_position_normal(bundles):
    # Euclidean orbit with the outward position normal: S = -(1/|p|) id
    b = bundles["su2_adjoint"]
    p = b["basepoint"]
    s, asym = shape_operator(b["rep"], p, p / np.linalg.norm(p))
    assert asym < 1e-12
    assert np.allclose(s, -np.eye(2) / np.linalg.norm(p), atol=1e-10)


# -- Jacobi integration -----------------------------------------------------------

def test_flat_fields_are_linear(bundles):
    geod = geod_for(bundles, "su2_adjoint")
    j0 = np.array([0.3, -0.1, 0.44])
    dj0 = np.array([-0.2, 0.9, 0.1])
    f = jacobi_integrate(geod, j0, dj0)
    amb = f.ambient()
    expect = j0[None, :] + geod.times[:, None] * dj0[None, :]
    assert np.max(np.abs(amb - expect)) < 1e-10


def test_sphere_field_sin_times_parallel(bundles):
    geod = geod_for(bundles, "hopf_s1_s3")
    w = np.array([0.0, 1.0, 0.0, 0.0])          # unit, perp to gamma'(0) and p
    f = jacobi_integrate(geod, np.zeros(4), w)
    amb = f.ambient()
    expect = np.sin(geod.times)[:, None] * w[None, :]
    assert np.max(np.abs(amb - expect)) < 1e-10


def test_closed_form_vs_rk4(bundles):
    for name in ("hopf_s1_s3", "so3_s2xs2"):
        geod = geod_for(bundles, name, span=(0.0, 1.5), step=1e-3)
        j0, dj0 = n_jacobi_space(geod)
        a = jacobi_integrate(geod, j0[0], dj0[0])
        b = jacobi_integrate(geod, j0[0], dj0[0], method="rk4")
        assert np.max(np.abs(a.y - b.y)) < 1e-8


def test_rk4_steps_match_stagewise_rk4():
    # a time-varying linear system integrated stage by stage, as the
    # propagator form replaces it
    def m_of(t):
        return np.array([[0.1 * t, 1.0 + 0.3 * np.sin(t), 0.0],
                         [-2.0 - np.cos(t), 0.0, 0.5 * t],
                         [0.2, -0.4 * np.cos(2 * t), -0.1]])

    h = 1e-2
    ts = h * np.arange(201)
    y = np.array([1.0, -0.5, 0.25])
    ref = [y]
    for t in ts[:-1]:
        k1 = m_of(t) @ y
        k2 = m_of(t + h / 2) @ (y + h / 2 * k1)
        k3 = m_of(t + h / 2) @ (y + h / 2 * k2)
        k4 = m_of(t + h) @ (y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        ref.append(y)
    steps = _rk4_steps(np.array([m_of(t) for t in ts[:-1]]),
                       np.array([m_of(t + h / 2) for t in ts[:-1]]),
                       np.array([m_of(t) for t in ts[1:]]), h)
    y = ref[0]
    for p, want in zip(steps, ref[1:]):
        y = p @ y
        assert np.max(np.abs(y - want)) < 1e-12


def test_grid_evaluator_matches_jacobi_integrate(bundles):
    for name in ("su2_adjoint", "hopf_s1_s3", "so3_s2xs2"):
        geod = geod_for(bundles, name)
        grid = _matrix_solution(geod, geod.times)
        for j, (j0, dj0) in enumerate(zip(*n_jacobi_space(geod))):
            field = jacobi_integrate(geod, j0, dj0)
            assert np.max(np.abs(grid[:, :, j] - field.y)) < 1e-12, name


def test_product_fields_solve_blockwise(bundles):
    geod = geod_for(bundles, "so3_s2xs2", span=(0.0, 2.0))
    # an initial value supported on the second factor stays there
    w = np.zeros(6)
    w[5] = 1.0
    f = jacobi_integrate(geod, w, np.zeros(6))
    amb = f.ambient()
    assert np.max(np.abs(amb[:, :3])) < 1e-10


def test_n_jacobi_space_dimension(bundles):
    for name, dim in (("su2_adjoint", 3), ("hopf_s1_s3", 3),
                      ("so3_sym_traceless", 5), ("so3_s2xs2", 4)):
        geod = geod_for(bundles, name)
        j0, dj0 = n_jacobi_space(geod)
        assert j0.shape == dj0.shape == (dim, geod.rep.space_dim)


# -- focal points --------------------------------------------------------------------

def test_trivial_action_no_focal_points():
    rep = pl.OrthogonalRep(pl.build_classical("torus", 1),
                           np.zeros((1, 3, 3)), 3, name="trivial")
    rep.validate()
    geod = OrbitGeodesic(rep, ModelManifold("euclidean", 3),
                         np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0]))
    assert focal_points(geod) == []


def test_orbit_sphere_inward_focal_time(bundles):
    # focal distance |p| toward the centre, multiplicity = orbit dimension
    geod = geod_for(bundles, "su2_adjoint")
    focal = focal_points(geod)
    assert len(focal) == 1
    t, mult = focal[0]
    assert abs(t - 1.0) < 1e-8
    assert mult == 2


def test_focal_points_match_per_point_scan(bundles):
    # the per-grid-point scan the stacked scan replaced
    geod = geod_for(bundles, "so3_sym_traceless")
    a, b = _basis_modes(geod)
    evals, q = geod._modes

    def matrix_at(t):
        rows = np.empty_like(a)
        for i, w in enumerate(evals):
            if w > 1e-12:
                r = np.sqrt(w)
                rows[i] = a[i] * np.cos(r * t) + b[i] * np.sin(r * t) / r
            else:
                rows[i] = a[i] + t * b[i]
        return q @ rows

    def smin_at(t):
        return np.linalg.svd(matrix_at(t), compute_uv=False)[-1]

    times = geod.times
    smin = np.array([smin_at(t) for t in times])
    ref = []
    for k in range(1, times.shape[0] - 1):
        if smin[k] <= smin[k - 1] and smin[k] <= smin[k + 1]:
            t_star = _golden_min(smin_at, times[k - 1], times[k + 1])
            if smin_at(t_star) < 1e-7:
                mult = int(np.sum(np.linalg.svd(matrix_at(t_star), compute_uv=False) < 1e-7))
                if not ref or abs(ref[-1][0] - t_star) > 10 * geod.step:
                    ref.append((t_star, mult))
    got = focal_points(geod)
    assert len(ref) == 2
    assert [m for _, m in got] == [m for _, m in ref]
    assert np.max(np.abs(np.array([t for t, _ in got]) - [t for t, _ in ref])) < 1e-9


def test_hopf_focal_pattern(bundles):
    geod = geod_for(bundles, "hopf_s1_s3", span=(0.0, 3.3))
    focal = focal_points(geod)
    assert len(focal) == 2
    assert abs(focal[0][0] - PI / 2) < 1e-8
    assert abs(focal[1][0] - PI) < 1e-8


# -- Killing restrictions ---------------------------------------------------------------

def test_trivial_action_zero_killing_space():
    rep = pl.OrthogonalRep(pl.build_classical("torus", 1),
                           np.zeros((1, 2, 2)), 2, name="trivial")
    geod = OrbitGeodesic(rep, ModelManifold("euclidean", 2),
                         np.array([1.0, 0]), np.array([0.0, 1.0]))
    k = killing_restrictions(geod)
    assert k.basis.shape[0] == 0


def test_rotation_killing_field_grows_linearly():
    rep = rotation_rep_r2()
    geod = OrbitGeodesic(rep, ModelManifold("euclidean", 2),
                         np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                         span=(0.0, 2.0))
    k = killing_restrictions(geod)
    assert k.basis.shape[0] == 1
    norms = np.linalg.norm(k.raw[0], axis=1)
    assert np.allclose(norms, 1.0 + geod.times, atol=1e-10)


def test_hopf_killing_space_one_dimensional(bundles):
    geod = geod_for(bundles, "hopf_s1_s3")
    assert killing_restrictions(geod).basis.shape[0] == 1


# -- variational completeness -------------------------------------------------------------

def test_vc_rotation_r2_hyperpolar():
    rep = rotation_rep_r2()
    geod = OrbitGeodesic(rep, ModelManifold("euclidean", 2),
                         np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                         span=(0.0, PI))
    report = variational_completeness_probe(geod)
    assert report.ok
    assert any(abs(r.time - 1.0) < 1e-8 for r in report.records)


def test_vc_adjoint_kernel_is_killing(bundles):
    report = variational_completeness_probe(geod_for(bundles, "su2_adjoint"))
    assert report.ok and report.worst_angle < 1e-6
    assert report.records[0].multiplicity == 2


def test_vc_srep_along_flat_direction(bundles):
    report = variational_completeness_probe(geod_for(bundles, "so3_sym_traceless"))
    assert report.ok and report.worst_angle < 1e-6
    assert len(report.records) >= 1


def test_vc_hopf_fails(bundles):
    report = variational_completeness_probe(geod_for(bundles, "hopf_s1_s3"))
    assert not report.ok


# -- Di Scala-Olmos probe ---------------------------------------------------------------

def test_do_adjoint_su2_eigenvalue_is_inverse_radius(bundles):
    b = bundles["su2_adjoint"]
    report = discala_olmos_probe(b["rep"], b["basepoint"], seed=4)
    radius = np.linalg.norm(b["basepoint"])
    for rec in report.records:
        assert abs(abs(rec.eigenvalue) - 1.0 / radius) < 1e-10
    assert report.worst_tangency < 1e-8


def test_do_polar_srep_subspace_agreement(bundles):
    b = bundles["so3_sym_traceless"]
    report = discala_olmos_probe(b["rep"], b["basepoint"], seed=4)
    assert report.worst_tangency < 1e-8
    assert report.subspace_angle < 1e-8


def test_do_diag_double_tangency_violated(bundles):
    b = bundles["su2_diag_double"]
    report = discala_olmos_probe(b["rep"], b["basepoint"], seed=4)
    assert report.worst_tangency > 1e-3


def test_do_scan_blocks_agree(bundles, monkeypatch):
    # the eigenfield scan in many small blocks gives the one-block verdict
    b = bundles["su2_diag_double"]
    whole = discala_olmos_probe(b["rep"], b["basepoint"], seed=4)
    monkeypatch.setattr(transversal, "_PROBE_BLOCK", 7)
    blocked = discala_olmos_probe(b["rep"], b["basepoint"], seed=4)
    assert blocked.worst_tangency == whole.worst_tangency
    assert [r.tangency_residual for r in blocked.records] == \
        [r.tangency_residual for r in whole.records]


def test_do_scan_memory_bounded(bundles):
    # a small step stands in for a small shape spectrum: four times the
    # scanned times must not need a larger peak allocation
    b = bundles["so3_sym_traceless"]
    peaks = []
    for step in (1e-4, 2.5e-5):
        tracemalloc.start()
        discala_olmos_probe(b["rep"], b["basepoint"], seed=4, step=step)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0]


def test_do_rejects_point_orbit():
    rep = pl.OrthogonalRep(pl.build_classical("torus", 1),
                           np.zeros((1, 3, 3)), 3, name="trivial")
    with pytest.raises(TransversalError):
        discala_olmos_probe(rep, np.array([1.0, 0, 0]), seed=0)


# -- bundles and the extended tensor ---------------------------------------------------

def test_vertical_rank_constant(bundles):
    for name, rank in (("hopf_s1_s3", 1), ("su2_adjoint", 2),
                       ("so3_sym_traceless", 3), ("so3_s2xs2", 3)):
        system = transversal_system(geod_for(bundles, name))
        assert system.rank == rank
        assert np.max(np.abs(np.trace(system.p_v, axis1=1, axis2=2) - rank)) < 1e-12


def test_vertical_rank_through_origin_rotation():
    # the orbit collapses at the origin; the division construction keeps rank 1
    rep = rotation_rep_r2()
    geod = OrbitGeodesic(rep, ModelManifold("euclidean", 2),
                         np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                         span=(0.0, 2.0))
    system = transversal_system(geod)
    assert system.rank == 1
    k = system.index_at(1.0)                    # gamma(1) = origin
    assert np.linalg.norm(geod.gamma[k]) < 1e-12
    # rank 1 at every grid time, the origin crossing included
    assert np.max(np.abs(np.trace(system.p_v, axis1=1, axis2=2) - 1.0)) < 1e-12


def test_trivial_action_rank_zero():
    rep = pl.OrthogonalRep(pl.build_classical("torus", 1),
                           np.zeros((1, 2, 2)), 2, name="trivial")
    geod = OrbitGeodesic(rep, ModelManifold("euclidean", 2),
                         np.array([1.0, 0]), np.array([0.0, 1.0]))
    assert transversal_system(geod).rank == 0


def test_a_tensor_properties(bundles):
    system = transversal_system(geod_for(bundles, "hopf_s1_s3"))
    assert system.a_asymmetry < 1e-8
    # block-offdiagonal: A maps H to V and V to H
    for k in (10, 1000, 2500):
        a = system.a[k]
        assert np.max(np.abs(system.p_h[k] @ a @ system.p_h[k])) < 1e-8
        assert np.max(np.abs(system.p_v[k] @ a @ system.p_v[k])) < 1e-8
        for e in np.eye(system.geod.dim):
            assert abs((a @ e) @ e) < 1e-12      # antisymmetry pointwise


def test_a_vanishes_for_polar_entries(bundles):
    for name in ("su2_adjoint", "so3_sym_traceless", "so3_s2xs2", "so2_s2"):
        geod = geod_for(bundles, name)
        system = transversal_system(geod)
        ranks = geod.orbit_rank_profile()
        regular = ranks == ranks.max()
        regular[:2] = regular[-2:] = False       # one-sided stencils
        worst = float(np.max(np.linalg.norm(system.a[regular], axis=(1, 2))))
        assert worst < 2e-6, name


def test_hopf_a_norm_one(bundles):
    system = transversal_system(geod_for(bundles, "hopf_s1_s3"))
    geod = system.geod
    y = geod.to_frame(0, np.array([0.0, 0, 0, 1.0]))
    assert abs(np.linalg.norm(system.a[0] @ y) - 1.0) < 5e-6


def test_r_script_positive_semidefinite(bundles):
    for name in ("hopf_s1_s3", "so3_s2xs2", "su2_adjoint"):
        system = transversal_system(geod_for(bundles, name))
        for k in (5, 500, 1500):
            h = np.linalg.eigh(system.p_h[k])[1][:, system.rank:].T
            block = h @ system.r_script[k] @ h.T
            assert np.min(np.linalg.eigvalsh((block + block.T) / 2)) > -1e-9


def test_flat_sections_of_polar_entries(bundles):
    # horizontal planes inside the section are flat for hyperpolar entries
    geod = geod_for(bundles, "su2_adjoint")
    system = transversal_system(geod)
    # cohomogeneity one: horizontal = gamma' only, so R_script restricted
    # to the transverse part of the section is empty; check R on gamma'
    for k in (10, 1000):
        gp = system.p_h[k] @ system.gamma_coords(k)
        assert np.linalg.norm(system.r_script[k] @ gp) < 1e-8


# -- claims and the transversal equation ------------------------------------------------

def test_horizontal_frame_matches_stepwise_orthonormalisation(bundles):
    # RK4 step, projection into H_t and Gram-Schmidt at every step
    system = transversal_system(geod_for(bundles, "hopf_s1_s3"))
    h = system.geod.step
    e = np.linalg.eigh(system.p_h[0])[1][:, system.rank:]
    frame = horizontal_frame(system)
    worst = 0.0
    for k in range(system.a.shape[0] - 1):
        a0, a1 = system.a[k], system.a[k + 1]
        am = (a0 + a1) / 2
        k1 = a0 @ e
        k2 = am @ (e + 0.5 * h * k1)
        k3 = am @ (e + 0.5 * h * k2)
        k4 = a1 @ (e + h * k3)
        e = system.p_h[k + 1] @ (e + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4))
        e = linalg.orthonormalize(e.T).T
        worst = max(worst, float(np.max(np.abs(frame[k + 1] - e))))
    assert worst < 1e-12


GEODESIC_FIXTURES = ("su2_adjoint", "so3_sym_traceless", "su2_diag_double",
                     "hopf_s1_s3", "so2_s2", "so3_s2xs2")


@pytest.fixture(scope="module")
def fixture_systems(bundles):
    return {name: transversal_system(geod_for(bundles, name)) for name in GEODESIC_FIXTURES}


def qr_vertical_projector(system):
    """p_v from a rank SVD, QR rows of the vertical fields and the division
    construction at the times where their rank drops, one time at a time."""
    vals, dvals = system.lambda_values, system.lambda_derivs
    ups = system.upsilon_coeffs
    w = np.einsum("rf,ftm->trm", ups, vals)
    s = np.linalg.svd(w, compute_uv=False)
    full = np.all(s > np.maximum(transversal.VERTICAL_RANK_RTOL * s[:, :1], 1e-12), axis=-1)
    vertical = np.zeros(w.shape)
    vertical[full] = linalg.orthonormalize_stack(w[full])
    for k in np.flatnonzero(~full):
        vanish = linalg.kernel(w[k].T, 1e-6)
        vertical[k] = linalg.orthonormalize(np.vstack([w[k], vanish @ (ups @ dvals[:, k])]))
    return np.einsum("trm,trn->tmn", vertical, vertical)


def lstsq_vertical_claim(system):
    """The vertical-derivative claim with one least-squares solve per
    strided time and field, skipping times where the vertical fields lose
    rank."""
    vals, dvals = system.lambda_values, system.lambda_derivs
    ups = system.upsilon_coeffs
    worst = 0.0
    for k in range(transversal.CLAIM_STRIDE, vals.shape[1] - transversal.CLAIM_STRIDE,
                   transversal.CLAIM_STRIDE):
        wk = ups @ vals[:, k]
        dwk = ups @ dvals[:, k]
        s = np.linalg.svd(wk, compute_uv=False)
        if np.any(s <= np.maximum(transversal.VERTICAL_RANK_RTOL * s[:1], 1e-12)):
            continue
        for j in range(vals.shape[0]):
            v, dv = vals[j, k], dvals[j, k]
            vert = system.p_v[k] @ v
            if wk.shape[0]:
                alpha = np.linalg.lstsq(wk.T, vert, rcond=None)[0]
                if np.linalg.norm(wk.T @ alpha - vert) > 1e-8:
                    continue
                v = v - alpha @ wk
                dv = dv - alpha @ dwk
            worst = max(worst, float(np.linalg.norm(system.p_v[k] @ dv + system.a[k] @ v)))
    return worst


def test_vertical_projector_matches_qr_rows(fixture_systems):
    systems = dict(fixture_systems)
    # the orbit collapses at the origin: the division construction runs there
    geod = OrbitGeodesic(rotation_rep_r2(), ModelManifold("euclidean", 2),
                         np.array([1.0, 0.0]), np.array([-1.0, 0.0]), span=(0.0, 2.0))
    systems["rotation_r2"] = transversal_system(geod)
    for name, system in systems.items():
        assert np.max(np.abs(system.p_v - qr_vertical_projector(system))) < 1e-12, name


def test_stacked_claim_matches_lstsq_loop(fixture_systems):
    for name, system in fixture_systems.items():
        claim = claim_residuals(system)["vertical-derivative"]
        assert abs(claim - lstsq_vertical_claim(system)) < 1e-12, name


def test_claims_skip_the_origin_crossing(bundles):
    # the su2_adjoint geodesic crosses the origin at t = 1, where every
    # vertical Jacobi field vanishes and the claim is not defined
    system = transversal_system(geod_for(bundles, "su2_adjoint"))
    assert 1000 in system.vanishing
    assert claim_residuals(system)["vertical-derivative"] < 1e-10
    (rec,) = analyze("su2_adjoint", ["transversal"], seed=0).records
    assert rec.status == "pass" and rec.residual < 1e-10


def test_system_and_claims_make_no_qr_or_lstsq_call(bundles, monkeypatch):
    calls = []
    for fn in ("qr", "lstsq"):
        def counted(*args, _fn=getattr(np.linalg, fn), _name=fn, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, fn, counted)
    for name in GEODESIC_FIXTURES:
        system = transversal.TransversalSystem(geod_for(bundles, name))
        made = len(calls)
        horizontal_frame(system)        # its one stacked QR is not counted
        del calls[made:]
        claim_residuals(system)
        assert calls == [], name


def test_claims_hold_on_hopf(bundles):
    system = transversal_system(geod_for(bundles, "hopf_s1_s3", step=2.5e-4))
    claims = claim_residuals(system)
    assert claims["vertical-derivative"] < 1e-6
    assert claims["frame-derivative"] < 1e-6


def test_projected_fields_satisfy_transversal_equation(bundles):
    system = transversal_system(geod_for(bundles, "hopf_s1_s3", step=2.5e-4))
    worst = 0.0
    for y in lambda_fields(system.geod)[0]:
        proj = np.einsum("tmn,tn->tm", system.p_h, y)
        worst = max(worst, transversal_equation_residual(system, proj))
    assert worst < 1e-6


def test_transversal_reduces_to_jacobi_for_trivial_action():
    rep = pl.OrthogonalRep(pl.build_classical("torus", 1),
                           np.zeros((1, 3, 3)), 3, name="trivial")
    geod = OrbitGeodesic(rep, ModelManifold("euclidean", 3),
                         np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0]),
                         span=(0.0, 2.0))
    system = transversal_system(geod)
    y0 = np.array([0.0, 0, 1.0])
    f = transversal_integrate(system, np.zeros(3), geod.to_frame(0, y0))
    expect = f.times[:, None] * geod.to_frame(0, y0)[None, :]
    assert np.max(np.abs(f.y - expect)) < 1e-9


def test_hopf_base_conjugate_time(bundles):
    system = transversal_system(geod_for(bundles, "hopf_s1_s3", step=2.5e-4))
    geod = system.geod
    z0 = system.p_h[0] @ geod.to_frame(0, np.array([0.0, 0, 0, 1.0]))
    f = transversal_integrate(system, np.zeros(3), z0)
    # read the solution in the moving nabla^h-parallel frame, where it is a
    # scalar multiple of a fixed direction
    frame = horizontal_frame(system)
    coeff0 = z0 @ frame[0]
    coeff0 /= np.linalg.norm(coeff0)
    comp = np.einsum("tm,tmq,q->t", f.y, frame[f.indices], coeff0)
    ts = f.times
    idx = np.where((np.sign(comp[1:]) != np.sign(comp[:-1])) & (ts[1:] > 0.5))[0]
    t_zero = ts[idx[0]] - comp[idx[0]] * (ts[idx[0] + 1] - ts[idx[0]]) \
        / (comp[idx[0] + 1] - comp[idx[0]])
    assert abs(t_zero - PI / 2) < 1e-4


# -- symplectic structure ---------------------------------------------------------------

def test_symplectic_antisymmetry_and_drift(bundles):
    geod = geod_for(bundles, "hopf_s1_s3")
    y, dy = lambda_fields(geod)
    f0 = GridField(geod, y[0], dy[0])
    assert np.max(np.abs(symplectic_form(f0, f0))) < 1e-14
    j0, dj0 = (x[0] for x in n_jacobi_space(geod))
    other = jacobi_integrate(geod, dj0 if np.linalg.norm(dj0) else
                             geod.normal_basis[0], j0)
    w = symplectic_form(f0, other)
    assert np.max(w) - np.min(w) < 1e-8


def test_lambda_lagrangian_upsilon_isotropic(bundles):
    for name in ("su2_adjoint", "so3_sym_traceless", "su2_diag_double",
                 "hopf_s1_s3", "so2_s2", "so3_s2xs2"):
        geod = geod_for(bundles, name)
        fields = [GridField(geod, y, dy) for y, dy in zip(*lambda_fields(geod))]
        worst = 0.0
        for i, f1 in enumerate(fields):
            for f2 in fields[i:]:
                worst = max(worst, float(np.max(np.abs(symplectic_form(f1, f2)))))
        assert worst < 1e-10, name
        system = transversal_system(geod)
        ups = system.upsilon_coeffs
        for c1 in ups:
            for c2 in ups:
                y1 = np.einsum("f,ftm->tm", c1, system.lambda_values)
                dy1 = np.einsum("f,ftm->tm", c1, system.lambda_derivs)
                y2 = np.einsum("f,ftm->tm", c2, system.lambda_values)
                dy2 = np.einsum("f,ftm->tm", c2, system.lambda_derivs)
                w = np.einsum("tm,tm->t", dy1, y2) - np.einsum("tm,tm->t", y1, dy2)
                assert np.max(np.abs(w)) < 1e-10


# -- Morse-Sturm scan --------------------------------------------------------------------

def test_scan_flat_system_no_conjugate_points():
    rep = pl.OrthogonalRep(pl.build_classical("torus", 1),
                           np.zeros((1, 3, 3)), 3, name="trivial")
    geod = OrbitGeodesic(rep, ModelManifold("euclidean", 3),
                         np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0]),
                         span=(0.0, 3.0))
    report = conjugate_scan(transversal_system(geod))
    assert report.conjugate_points == []
    assert report.index == 0
    assert report.sturm_consistent


def test_scan_hopf_conjugate_and_index(bundles):
    system = transversal_system(geod_for(bundles, "hopf_s1_s3", step=2.5e-4))
    report = conjugate_scan(system)
    assert abs(report.conjugate_points[0][0] - PI / 2) < 1e-4
    assert report.index >= 1
    assert report.sturm_consistent


def test_bump_field_negative_index(bundles):
    geod = geod_for(bundles, "hopf_s1_s3", span=(0.0, 3.0))
    system = transversal_system(geod)
    frame = horizontal_frame(system)
    gp = system.p_h[0] @ system.gamma_coords(0)
    gp /= np.linalg.norm(gp)
    col = None
    for c in frame[0].T:
        c2 = c - (c @ gp) * gp
        if np.linalg.norm(c2) > 0.5:
            col = c2 / np.linalg.norm(c2)
            break
    coeff = col @ frame[0]
    z0 = np.einsum("tmq,q->tm", frame, coeff)
    t = geod.times
    phi = np.clip(np.minimum(t, 3.0 - t), 0.0, 1.0)
    val = index_form_quadrature(system, phi[:, None] * z0)
    assert val < 0.0


# -- O'Neill and rescaling ----------------------------------------------------------------

def test_oneill_hopf(bundles):
    b = bundles["hopf_s1_s3"]
    x, y = b["horizontal_pair"]
    report = oneill_check(b["rep"], b["manifold"], b["basepoint"], x, y)
    assert abs(report.k_star_estimate - 4.0) < 1e-2
    assert abs(report.k_star_formula - 4.0) < 1e-6
    assert abs(report.a_norm_sq - 1.0) < 1e-6


def test_oneill_polar_entry_no_correction(bundles):
    b = bundles["so2_s2"]
    # horizontal plane at a regular point of the rotation action
    p = np.array([np.cos(0.7), 0.0, np.sin(0.7)])
    x = np.array([-np.sin(0.7), 0.0, np.cos(0.7)])
    # cohomogeneity one: there is no horizontal 2-plane, so check A = 0 instead
    geod = OrbitGeodesic(b["rep"], b["manifold"], p, x, span=(-0.02, 0.02),
                         step=2.5e-4)
    system = transversal_system(geod)
    k = system.index_at(0.0)
    assert np.max(np.abs(system.a[k])) < 2e-6


def test_oneill_trivial_action_all_zero():
    alg = pl.build_classical("torus", 1)
    rep = pl.OrthogonalRep(alg, np.zeros((1, 4, 4)), 4,
                           restrict_to_sphere=True, name="trivial_s3")
    man = ModelManifold("sphere", 4)
    p = np.array([1.0, 0, 0, 0])
    x = np.array([0.0, 1.0, 0, 0])
    y = np.array([0.0, 0, 1.0, 0])
    report = oneill_check(rep, man, p, x, y)
    assert report.a_norm_sq < 1e-12
    assert abs(report.k_star_formula - 1.0) < 1e-12   # the sphere itself
    assert abs(report.k_star_estimate - 1.0) < 1e-2


def test_rescale_probe_flat_limit(bundles):
    import dataclasses
    b = bundles["su2_diag_double"]
    rep = dataclasses.replace(b["rep"], restrict_to_sphere=True)
    sing = b["sphere_singular"]
    report = rescale_probe(rep, sing["point"], sing["regular_q"], seed=3)
    assert report.flat_prediction
    assert report.consistent
    assert abs(report.values[-1]) < 1e-2
    assert abs(report.values[-1]) < abs(report.values[0])


def test_rescale_probe_regular_point_matches_quotient_curvature(bundles):
    b = bundles["hopf_s1_s3"]
    rep = b["rep"]
    p = b["basepoint"]
    q = b["manifold"].exp(p, 0.5 * b["direction"])
    report = rescale_probe(rep, p, q, lambdas=(0.25, 0.125), seed=5)
    # at a manifold point the blow-up limit is flat and the curvature
    # estimates converge to the actual base curvature 4
    for est in report.curvature_estimates:
        assert abs(est - 4.0) < 0.05
    assert abs(report.values[-1]) < 0.07


def test_rescale_probe_trivial_action():
    alg = pl.build_classical("torus", 1)
    rep = pl.OrthogonalRep(alg, np.zeros((1, 4, 4)), 4,
                           restrict_to_sphere=True, name="trivial_s3")
    p = np.array([1.0, 0, 0, 0])
    q = np.array([np.cos(0.4), np.sin(0.4), 0, 0])
    report = rescale_probe(rep, p, q, lambdas=(0.25, 0.0625), seed=0)
    # quotient = round sphere: curvature 1, so the report decays like lambda^2
    for lam, val in zip(report.lambdas, report.values):
        assert abs(val) < 1.2 * lam ** 2 + 1e-6
