import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import polaris as pl
from polaris import cli, linalg, transversal
from polaris.cli import analyze
from polaris.symspace import ModelManifold
from polaris.transversal import OrbitGeodesic, TransversalError, \
    claim_residuals, conjugate_scan, discala_olmos_probe, focal_points, \
    horizontal_frame, jacobi_integrate, killing_basis, n_jacobi_space, oneill_check, \
    rescale_probe, shape_operator, symplectic_form, transversal_equation_residual, \
    transversal_system, variational_completeness_probe
from polaris.transversal import _basis_modes, _index_form, \
    _pl_index, _propagate, _refine_minima, _rk4_steps, \
    _sigma_lipschitz, focal_scan_counters

from grid_oracle import basis_on_grid, matrix_solution, morse_sturm_roots

PI = float(np.pi)


def geod_for(bundles, name, span=(0.0, PI), step=1e-3, direction=None):
    b = bundles[name]
    d = direction if direction is not None else b["direction"]
    if d is None:
        rows = b["rep"].tangent_rows(b["basepoint"])
        d = linalg.complement(rows, b["rep"].space_dim)[0]
    return OrbitGeodesic(b["rep"], b["manifold"], b["basepoint"], d,
                         span=span, step=step)


def golden_min(f, a, b):
    """Golden-section search for a minimum of f on [a, b], down to a
    bracket of 1e-14: the focal refinement before lockstep Newton, kept as
    its oracle."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(90):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = f(x2)
        if b - a < 1e-14:
            break
    return (a + b) / 2


def min_singular(geod, t):
    return float(np.linalg.svd(matrix_solution(geod, t), compute_uv=False)[-1])


def grid_gamma(geod):
    """The geodesic's points at every grid time, (n_t, D), from the model."""
    return geod.manifold.geodesic(geod.point, geod.direction, geod.times)[0]


def grid_frames(geod):
    """The parallel frames at every grid time, (n_t, D, m), from the model."""
    return geod.manifold.parallel_frames(geod.point, geod.direction, geod.times)[0]


def ambient(geod, y):
    """Ambient vectors of a field's frame coordinates y, (n_t, m)."""
    return np.einsum("tdm,tm->td", grid_frames(geod), y)


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


@pytest.mark.parametrize("name", ["su2_adjoint", "hopf_s1_s3", "so3_sym_traceless"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_point_or_direction_rejected(bundles, name, bad):
    b = bundles[name]
    point = b["basepoint"].copy()
    point[0] = bad
    unit = np.zeros_like(point)
    unit[0] = bad
    for p, d in ((point, b["direction"]), (b["basepoint"], unit)):
        with pytest.raises(TransversalError, match="finite"):
            OrbitGeodesic(b["rep"], b["manifold"], p, d)


@pytest.mark.parametrize("span", [(0.0, float("inf")), (-float("inf"), 1.0),
                                  (0.0, float("nan")), (-1e308, 1e308)])
def test_unbounded_span_rejected(bundles, span):
    b = bundles["su2_adjoint"]
    with pytest.raises(TransversalError):
        OrbitGeodesic(b["rep"], b["manifold"], b["basepoint"], -b["basepoint"], span=span)


def test_grid_budget_checked_before_allocation(bundles):
    b = bundles["su2_adjoint"]
    tracemalloc.start()
    try:
        # 1e12 grid times, and about 3e9 from a tiny step over the default span
        for span, step in (((0.0, 1e9), 1e-3), ((0.0, PI), 1e-9)):
            with pytest.raises(TransversalError, match="MAX_GRID_ENTRIES"):
                OrbitGeodesic(b["rep"], b["manifold"], b["basepoint"], -b["basepoint"],
                              span=span, step=step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    # the largest grid of the catalog fits, 9x over
    assert 12567 * 6 ** 2 * 9 < transversal.MAX_GRID_ENTRIES


def test_transversal_budget_checked_before_its_stacks(bundles):
    # 1e6 grid times: the geodesic's n_t x D fits, the system's n_t x D^2 does not
    b = bundles["su2_adjoint"]
    geod = OrbitGeodesic(b["rep"], b["manifold"], b["basepoint"], -b["basepoint"],
                         span=(0.0, 1e3))
    n_t, d = geod.times.shape[0], geod.point.size
    assert n_t * d <= transversal.MAX_GRID_ENTRIES < n_t * d ** 2
    tracemalloc.start()
    try:
        with pytest.raises(TransversalError, match="MAX_GRID_ENTRIES"):
            transversal_system(geod)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_transversal_system_frees_its_stencil_stacks():
    # p_v, p_h and A are kept; the stencil dp_v and the raw tensor are freed
    # once read, so the constructor peaks near five (n_t, m, m) stacks
    alg = pl.build_classical("special-orthogonal", 5)
    rep = pl.OrthogonalRep(alg, alg.ad(np.eye(alg.dim)), alg.dim, name="ad_so5")
    point = pl.find_regular_point(rep, 0)
    point /= np.linalg.norm(point)
    direction = linalg.complement(rep.tangent_rows(point), rep.space_dim)[0]
    geod = OrbitGeodesic(rep, ModelManifold("euclidean", rep.space_dim), point, direction)
    geod.killing_data
    stack = geod.times.shape[0] * geod.dim ** 2 * 8
    tracemalloc.start()
    try:
        transversal.TransversalSystem(geod)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * stack


def test_shape_operator_position_normal(bundles):
    # Euclidean orbit with the outward position normal: S = -(1/|p|) id
    b = bundles["su2_adjoint"]
    rep, p = b["rep"], b["basepoint"]
    xi = p / np.linalg.norm(p)
    rows = rep.tangent_rows(p)
    basis = linalg.orthonormalize(rows)
    s = shape_operator(rep, p, xi, basis)
    assert np.allclose(s, -np.eye(2) / np.linalg.norm(p), atol=1e-10)
    # the unsymmetrised matrix <grad_{u_a} X_b^*, xi>, one entry at a time
    pinv = np.linalg.pinv(rows.T)
    raw = np.array([[(np.einsum("i,iab->ab", pinv @ u_b, rep.generators) @ u_a) @ xi
                     for u_b in basis] for u_a in basis])
    asym = np.max(np.abs(raw - raw.T))
    assert asym < 1e-12
    assert np.max(np.abs((raw + raw.T) / 2 - s)) < 1e-12


# -- Jacobi integration -----------------------------------------------------------

def test_flat_fields_are_linear(bundles):
    geod = geod_for(bundles, "su2_adjoint")
    j0 = np.array([0.3, -0.1, 0.44])
    dj0 = np.array([-0.2, 0.9, 0.1])
    amb = ambient(geod, jacobi_integrate(geod, j0, dj0)[0])
    expect = j0[None, :] + geod.times[:, None] * dj0[None, :]
    assert np.max(np.abs(amb - expect)) < 1e-10


def test_sphere_field_sin_times_parallel(bundles):
    geod = geod_for(bundles, "hopf_s1_s3")
    w = np.array([0.0, 1.0, 0.0, 0.0])          # unit, perp to gamma'(0) and p
    amb = ambient(geod, jacobi_integrate(geod, np.zeros(4), w)[0])
    expect = np.sin(geod.times)[:, None] * w[None, :]
    assert np.max(np.abs(amb - expect)) < 1e-10


def test_closed_form_vs_rk4(bundles):
    for name in ("hopf_s1_s3", "so3_s2xs2"):
        geod = geod_for(bundles, name, span=(0.0, 1.5), step=1e-3)
        j0, dj0 = n_jacobi_space(geod)
        a, _ = jacobi_integrate(geod, j0[0], dj0[0])
        b, _ = jacobi_integrate(geod, j0[0], dj0[0], method="rk4")
        assert np.max(np.abs(a - b)) < 1e-8


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


def propagate_loop(steps, start):
    # the per-step loop the blocked scan replaced
    out = np.empty((steps.shape[0] + 1,) + start.shape)
    out[0] = start
    for i, p in enumerate(steps):
        out[i + 1] = p @ out[i]
    return out


# step counts around the block size: squares and squares +- 1 up to 400
STEP_COUNTS = st.integers(0, 400) | st.builds(
    lambda r, off: max(0, r * r + off), st.integers(0, 20), st.sampled_from((-1, 0, 1)))


@settings(max_examples=100, deadline=None)
@given(n=STEP_COUNTS, d=st.integers(1, 10), cols=st.sampled_from((None, 0, 1, 3)),
       broadcast=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_propagate_matches_per_step_loop(n, d, cols, broadcast, seed):
    rng = np.random.default_rng(seed)
    # RK4-like propagators: near the identity, with growth over 400 steps
    steps = np.eye(d) + rng.uniform(0.0, 0.05) * rng.standard_normal((n, d, d)) / np.sqrt(d)
    if broadcast:
        steps = np.broadcast_to(steps[:1] if n else np.eye(d)[None], (n, d, d))
    start = rng.standard_normal((d,) if cols is None else (d, cols))
    got = _propagate(steps, start)
    want = propagate_loop(steps, start)
    assert got.shape == want.shape
    if n <= 1:
        assert np.array_equal(got, want)
    diff = np.abs(got - want).reshape(n + 1, -1)
    scale = np.abs(want).reshape(n + 1, -1)
    assert np.all(diff <= 1e-12 * np.max(scale, axis=1, keepdims=True, initial=0.0))


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from((1, 2, 15, 16, 17, 3142)), d=st.integers(1, 12),
       cols=st.sampled_from((None, 1, 2, 5)), seed=st.integers(0, 2 ** 32 - 1))
def test_propagate_on_one_broadcast_step_is_bitwise_the_stack(n, d, cols, seed):
    # the broadcast stack takes one block's local products; the materialised
    # one forms every block's, in the same order
    rng = np.random.default_rng(seed)
    step = np.eye(d) + 0.05 * rng.standard_normal((d, d)) / np.sqrt(d)
    start = rng.standard_normal((d,) if cols is None else (d, cols))
    got = _propagate(np.broadcast_to(step, (n, d, d)), start)
    assert np.array_equal(got, _propagate(np.repeat(step[None], n, axis=0), start))


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_jacobi_scan_residual_is_that_of_the_materialised_rk4_stack(seed, monkeypatch):
    built = []

    def recorded(*args, **kwargs):
        built.append(OrbitGeodesic(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "OrbitGeodesic", recorded)
    for name in GEODESIC_ENTRIES:
        built.clear()
        (rec,) = analyze(name, ["jacobi-scan"], seed=seed).records
        (geod,) = built
        m = geod.dim
        gen = transversal._pair_generator(-geod.curvature[None])
        steps = np.repeat(_rk4_steps(gen, gen, gen, geod.step), geod.times.shape[0] - 1, axis=0)
        j0, dj0 = (x[0] for x in n_jacobi_space(geod))
        rk = _propagate(steps, np.concatenate([geod.frame.T @ j0, geod.frame.T @ dj0]))[:, :m]
        want = float(np.max(np.abs(jacobi_integrate(geod, j0, dj0)[0] - rk)))
        assert rec.value["integrator_residual"] == want, name


def test_rk4_on_an_empty_span_keeps_the_start(bundles):
    geod = geod_for(bundles, "hopf_s1_s3", span=(0.0, 0.0))
    j0, dj0 = n_jacobi_space(geod)
    y, _ = jacobi_integrate(geod, j0[0], dj0[0], method="rk4")
    assert y.shape == (1, geod.dim)
    assert np.array_equal(y[0], geod.frame.T @ j0[0])


def test_grid_evaluator_matches_jacobi_integrate(bundles):
    for name in ("su2_adjoint", "hopf_s1_s3", "so3_s2xs2"):
        geod = geod_for(bundles, name)
        grid, dgrid = basis_on_grid(geod), basis_on_grid(geod, derivative=True)
        for j, (j0, dj0) in enumerate(zip(*n_jacobi_space(geod))):
            y, dy = jacobi_integrate(geod, j0, dj0)
            assert np.max(np.abs(grid[:, :, j] - y)) < 1e-12, name
            assert np.max(np.abs(dgrid[:, :, j] - dy)) < 1e-12, name


def test_closed_form_at_some_times_is_the_grid_evaluation_there(bundles):
    # the claims and the focal refinement evaluate a few times on their own
    geod = geod_for(bundles, "su2_diag_double")
    for derivative in (False, True):
        grid = basis_on_grid(geod, derivative)
        for count in (1, 2, 61):
            index = np.random.default_rng(count).choice(geod.times.shape[0], count,
                                                        replace=False)
            some = transversal._closed_form(geod, *_basis_modes(geod), geod.times[index],
                                            derivative)
            assert np.array_equal(some, grid[index])


def test_product_fields_solve_blockwise(bundles):
    geod = geod_for(bundles, "so3_s2xs2", span=(0.0, 2.0))
    # an initial value supported on the second factor stays there
    w = np.zeros(6)
    w[5] = 1.0
    amb = ambient(geod, jacobi_integrate(geod, w, np.zeros(6))[0])
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
    # the curvature matrix is diagonal in the parallel frame: one mode a column
    evals = np.diag(geod.curvature)

    def matrix_at(t):
        rows = np.empty_like(a)
        for i, w in enumerate(evals):
            if w > 1e-12:
                r = np.sqrt(w)
                rows[i] = a[i] * np.cos(r * t) + b[i] * np.sin(r * t) / r
            else:
                rows[i] = a[i] + t * b[i]
        return rows

    def smin_at(t):
        return np.linalg.svd(matrix_at(t), compute_uv=False)[-1]

    times = geod.times
    smin = np.array([smin_at(t) for t in times])
    ref = []
    for k in range(1, times.shape[0] - 1):
        if smin[k] <= smin[k - 1] and smin[k] <= smin[k + 1]:
            t_star = golden_min(smin_at, times[k - 1], times[k + 1])
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


# -- the pruned focal scan -----------------------------------------------------------

GEODESIC_ENTRIES = ("su2_adjoint", "so3_sym_traceless", "su2_diag_double",
                    "hopf_s1_s3", "so2_s2", "so3_s2xs2")


def grid_minima(geod):
    """The interior grid-local minima of sigma_min, from the SVD at every
    grid time, other than the basepoint."""
    smin = np.linalg.svd(basis_on_grid(geod), compute_uv=False)[:, -1]
    k = np.arange(1, smin.shape[0] - 1)
    k = k[k != geod.base_index]
    return k[(smin[k] <= smin[k - 1]) & (smin[k] <= smin[k + 1])]


def accepted(geod, refined, s_at):
    """The focal list of refined times and their singular values."""
    tol = transversal.FOCAL_SV_TOL
    out = []
    for t_star, s in zip(refined, s_at):
        if s[-1] < tol and (not out or abs(out[-1][0] - t_star) > 10 * geod.step):
            out.append((float(t_star), int(np.sum(s < tol))))
    return out


def full_grid_focal_points(geod):
    """The focal scan without pruning: the SVD at every grid time and the
    library's refinement of every grid-local minimum of sigma_min."""
    refined, s_at, _, _ = _refine_minima(geod, grid_minima(geod))
    return accepted(geod, refined, s_at)


def golden_focal_points(geod):
    """The full-grid scan with golden-section refinement, one minimum at a
    time."""
    times = geod.times
    refined = [golden_min(lambda t: min_singular(geod, t), times[k - 1], times[k + 1])
               for k in grid_minima(geod)]
    s_at = [np.linalg.svd(matrix_solution(geod, t), compute_uv=False) for t in refined]
    return accepted(geod, refined, s_at)


def moved_geodesic(bundles, name, seed, step, span):
    """A catalog geodesic moved by a random group element, along a random
    unit normal."""
    from scipy.linalg import expm
    b = bundles[name]
    rep, manifold = b["rep"], b["manifold"]
    rng = np.random.default_rng(seed)
    g = expm(np.einsum("i,iab->ab", rng.uniform(-PI, PI, rep.generators.shape[0]),
                       rep.generators))
    point = g @ b["basepoint"]
    tangent = linalg.orthonormalize(manifold.project_tangent(point, np.eye(point.size)))
    normal = linalg.kernel(rep.tangent_rows(point) @ tangent.T) @ tangent
    d = rng.standard_normal(normal.shape[0]) @ normal
    return OrbitGeodesic(rep, manifold, point, d / np.linalg.norm(d), span=span, step=step)


@settings(max_examples=24, deadline=None)
@given(name=st.sampled_from(GEODESIC_ENTRIES), seed=st.integers(0, 2 ** 32 - 1),
       step=st.sampled_from([2.5e-4, 1e-3, 5e-3]),
       span=st.sampled_from([(0.0, PI), (0.0, 3.3), (-0.5, 2.0)]))
def test_pruned_focal_scan_equals_the_full_grid_scan(bundles, name, seed, step, span):
    geod = moved_geodesic(bundles, name, seed, step, span)
    assert focal_points(geod) == full_grid_focal_points(geod)


@settings(max_examples=24, deadline=None)
@given(name=st.sampled_from(GEODESIC_ENTRIES), seed=st.integers(0, 2 ** 32 - 1),
       step=st.sampled_from([2.5e-4, 1e-3, 5e-3]),
       span=st.sampled_from([(0.0, PI), (0.0, 3.3), (-0.5, 2.0)]))
def test_newton_refinement_agrees_with_golden_section(bundles, name, seed, step, span):
    geod = moved_geodesic(bundles, name, seed, step, span)
    got, want = focal_points(geod), golden_focal_points(geod)
    assert [m for _, m in got] == [m for _, m in want]
    assert all(abs(t - u) <= 1e-12 for (t, _), (u, _) in zip(got, want))
    assert focal_scan_counters(geod)["refinement_rounds"] <= 4


@pytest.mark.parametrize("name", GEODESIC_ENTRIES)
def test_focal_refinement_takes_at_most_four_rounds(bundles, name):
    counters = focal_scan_counters(geod_for(bundles, name))
    assert 1 <= counters["refinement_rounds"] <= 4


@pytest.mark.parametrize("step, on_grid, on_coarse", [
    (1e-3, True, False),                # t = 1 is grid time 1000
    (2.0 ** -10, True, True),           # grid time 1024 = 64 * 16
    (1 / 1000.5, False, False),         # halfway between grid times 1000 and 1001
])
def test_pruned_focal_scan_finds_a_focal_time_wherever_it_falls(bundles, step, on_grid,
                                                                on_coarse):
    geod = geod_for(bundles, "su2_adjoint", step=step)
    k = int(np.argmin(np.abs(geod.times - 1.0)))
    assert (geod.times[k] == 1.0) == on_grid
    assert (on_grid and k % transversal.FOCAL_COARSE_STRIDE == 0) == on_coarse
    focal = focal_points(geod)
    assert focal == full_grid_focal_points(geod)
    assert len(focal) == 1 and abs(focal[0][0] - 1.0) < 1e-8 and focal[0][1] == 2


@pytest.mark.parametrize("name", GEODESIC_ENTRIES)
def test_two_sided_span_has_no_focal_time_at_the_basepoint(bundles, name):
    # every normal N-Jacobi field vanishes at t = 0, which is no focal time;
    # ahead of the basepoint the scan sees what the one-sided span sees
    geod = geod_for(bundles, name, span=(-1.5, 1.5))
    focal = focal_points(geod)
    assert all(abs(t) > 10 * geod.step for t, _ in focal)
    ahead = [(t, m) for t, m in focal if t > 0]
    want = [(t, m) for t, m in focal_points(geod_for(bundles, name)) if t <= 1.5]
    assert [m for _, m in ahead] == [m for _, m in want]
    assert all(abs(t - u) <= 1e-6 for (t, _), (u, _) in zip(ahead, want))
    if name == "su2_adjoint":       # polar, so variationally complete
        assert variational_completeness_probe(geod).ok


@pytest.mark.parametrize("name", GEODESIC_ENTRIES)
def test_sigma_min_is_lipschitz_with_the_scan_constant(bundles, name):
    geod = geod_for(bundles, name)
    lip = _sigma_lipschitz(geod)          # without the scan's safety factor
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, PI, 200)
    u = t + rng.choice([1e-4, 1e-2, 1.0], 200) * rng.uniform(-1.0, 1.0, 200)
    change = np.abs([min_singular(geod, a) - min_singular(geod, b) for a, b in zip(t, u)])
    # 1e-12 covers the rounding of the two computed values
    assert np.all(change <= lip * np.abs(t - u) + 1e-12)


@pytest.mark.parametrize("name", GEODESIC_ENTRIES)
def test_pruned_focal_scan_decomposes_at_most_a_quarter_of_the_grid(bundles, name):
    geod = geod_for(bundles, name)
    counters = focal_scan_counters(geod)
    assert counters["grid_points"] == geod.times.shape[0]
    assert counters["decomposed"] <= geod.times.shape[0] / 4
    assert counters["refinements"] >= len(focal_points(geod))


@pytest.mark.parametrize("name", GEODESIC_ENTRIES)
def test_focal_scan_in_one_time_blocks_equals_the_unsplit_scan(bundles, name, monkeypatch):
    whole, split = geod_for(bundles, name), geod_for(bundles, name)
    want = focal_points(whole), focal_scan_counters(whole)
    # a budget below one time's m^2 entries puts every time in its own block
    monkeypatch.setattr(transversal, "MAX_GRID_ENTRIES", 1)
    assert (focal_points(split), focal_scan_counters(split)) == want


# -- Killing restrictions ---------------------------------------------------------------

def test_trivial_action_zero_killing_space():
    rep = pl.OrthogonalRep(pl.build_classical("torus", 1),
                           np.zeros((1, 2, 2)), 2, name="trivial")
    geod = OrbitGeodesic(rep, ModelManifold("euclidean", 2),
                         np.array([1.0, 0]), np.array([0.0, 1.0]))
    assert killing_basis(geod).shape == (0, 4)


def test_rotation_killing_field_grows_linearly():
    rep = rotation_rep_r2()
    geod = OrbitGeodesic(rep, ModelManifold("euclidean", 2),
                         np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                         span=(0.0, 2.0))
    assert killing_basis(geod).shape == (1, 4)
    # the one vertical field is the Killing field's restriction, up to sign
    system = transversal_system(geod)
    vertical = basis_on_grid(geod) @ system.upsilon_coeffs.T
    assert np.allclose(np.linalg.norm(vertical[:, :, 0], axis=1), 1.0 + geod.times, atol=1e-10)


def test_hopf_killing_space_one_dimensional(bundles):
    geod = geod_for(bundles, "hopf_s1_s3")
    assert killing_basis(geod).shape == (1, 8)


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
    # the field vanishing at pi/2 has initial data (e2, 0); the one Killing
    # field has (e2, e4)
    report = variational_completeness_probe(geod_for(bundles, "hopf_s1_s3"))
    assert not report.ok
    assert abs(report.worst_angle - PI / 4) < 1e-12


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


def test_do_diag_double_tangency_violated(bundles):
    b = bundles["su2_diag_double"]
    report = discala_olmos_probe(b["rep"], b["basepoint"], seed=4)
    assert report.worst_tangency > 1e-3


@pytest.mark.parametrize("scale", [1e-3, 1e4])
def test_do_tangency_does_not_depend_on_the_basepoint_scale(bundles, scale):
    # x -> c x takes lambda to lambda / c and leaves u, xi and the tangency
    # residuals as they are: a representation that is not polar still fails
    b = bundles["su2_diag_double"]
    unit = discala_olmos_probe(b["rep"], b["basepoint"], seed=4)
    far = discala_olmos_probe(b["rep"], scale * b["basepoint"], seed=4)
    assert np.max(np.abs(far.xi - unit.xi)) < 1e-9
    assert far.worst_tangency > 1e-3
    for got, want in zip(far.records, unit.records, strict=True):
        assert abs(got.eigenvalue * scale - want.eigenvalue) < 1e-9 * abs(want.eigenvalue)
        assert abs(got.tangency_residual - want.tangency_residual) < 1e-9


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
    k = int(round(1.0 / geod.step))             # gamma(1) = origin
    assert np.linalg.norm(grid_gamma(geod)[k]) < 1e-12
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
    # the stencil (p_h - p_v) dp_v is skew already, since p_v is a projector:
    # the same centered and one-sided differences of p_v as the system's
    dp_v = np.gradient(system.p_v, system.geod.step, axis=0, edge_order=2)
    a_raw = (system.p_h - system.p_v) @ dp_v
    assert float(np.max(np.abs(a_raw + np.swapaxes(a_raw, 1, 2)))) / 2 < 1e-8
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
        ranks = system.orbit_rank
        regular = ranks == ranks.max()
        regular[:2] = regular[-2:] = False       # one-sided stencils
        worst = float(np.max(np.linalg.norm(system.a[regular], axis=(1, 2))))
        assert worst < 2e-6, name


@pytest.mark.parametrize("step", [1e-3, 2.5e-4])
def test_orbit_rank_matches_svd_rank(bundles, step):
    for name in GEODESIC_FIXTURES:
        geod = geod_for(bundles, name, step=step)
        want = linalg.svd_rank(geod.rep.tangent_rows(grid_gamma(geod)))
        assert np.array_equal(transversal_system(geod).orbit_rank, want), name


def test_hopf_a_norm_one(bundles):
    system = transversal_system(geod_for(bundles, "hopf_s1_s3"))
    geod = system.geod
    y = geod.frame.T @ np.array([0.0, 0, 0, 1.0])
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
        gp = system.p_h[k] @ system.gamma_coords
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
    y, dy = basis_on_grid(system.geod), basis_on_grid(system.geod, derivative=True)
    ups = system.upsilon_coeffs
    w = np.einsum("rf,tmf->trm", ups, y)
    s = np.linalg.svd(w, compute_uv=False)
    full = np.all(s > np.maximum(transversal.VERTICAL_RANK_RTOL * s[:, :1], 1e-12), axis=-1)
    vertical = np.zeros(w.shape)
    vertical[full] = linalg.orthonormalize_stack(w[full])
    for k in np.flatnonzero(~full):
        vanish = linalg.kernel(w[k].T, 1e-6)
        vertical[k] = linalg.orthonormalize(np.vstack([w[k], vanish @ (ups @ dy[k].T)]))
    return np.einsum("trm,trn->tmn", vertical, vertical)


def lstsq_vertical_claim(system):
    """The vertical-derivative claim with one least-squares solve per
    strided time and field, skipping times where the vertical fields lose
    rank."""
    y, dy = basis_on_grid(system.geod), basis_on_grid(system.geod, derivative=True)
    ups = system.upsilon_coeffs
    worst = 0.0
    for k in range(transversal.CLAIM_STRIDE, y.shape[0] - transversal.CLAIM_STRIDE,
                   transversal.CLAIM_STRIDE):
        wk = ups @ y[k].T
        dwk = ups @ dy[k].T
        s = np.linalg.svd(wk, compute_uv=False)
        if np.any(s <= np.maximum(transversal.VERTICAL_RANK_RTOL * s[:1], 1e-12)):
            continue
        for j in range(y.shape[2]):
            v, dv = y[k, :, j], dy[k, :, j]
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


def test_system_and_claims_evaluate_only_the_vertical_fields_over_the_grid(
        bundles, monkeypatch):
    # the basis is read at the claim and vanishing times only; over the whole
    # grid the closed form is asked for the r vertical fields alone
    real_closed_form = transversal._closed_form
    widths = []

    def counting_closed_form(geod, a, b, times, derivative=False):
        if len(times) == geod.times.shape[0]:
            widths.append(a.shape[1])
        return real_closed_form(geod, a, b, times, derivative)

    monkeypatch.setattr(transversal, "_closed_form", counting_closed_form)
    for name in GEODESIC_FIXTURES:
        widths.clear()
        system = transversal.TransversalSystem(geod_for(bundles, name))
        claim_residuals(system)
        assert widths == [system.rank], name


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
    proj = system.p_h @ basis_on_grid(system.geod)
    assert transversal_equation_residual(system, proj) < 1e-6


def test_transversal_residual_takes_the_worst_column(bundles):
    system = transversal_system(geod_for(bundles, "hopf_s1_s3", step=2.5e-4))
    proj = system.p_h @ basis_on_grid(system.geod)
    each = [transversal_equation_residual(system, proj[:, :, j:j + 1])
            for j in range(proj.shape[2])]
    assert abs(transversal_equation_residual(system, proj) - max(each)) <= 1e-12 * max(each)


# -- symplectic structure ---------------------------------------------------------------

def test_symplectic_antisymmetry_and_drift(bundles):
    geod = geod_for(bundles, "hopf_s1_s3")
    y, dy = basis_on_grid(geod), basis_on_grid(geod, derivative=True)
    j0, dj0 = (x[0] for x in n_jacobi_space(geod))
    other = jacobi_integrate(geod, dj0 if np.linalg.norm(dj0) else
                             geod.normal_basis[0], j0)
    w = symplectic_form(np.stack([y[:, :, 0], other[0]], axis=2),
                        np.stack([dy[:, :, 0], other[1]], axis=2))
    assert w.shape == (geod.times.shape[0], 2, 2)
    assert np.max(np.abs(w + np.swapaxes(w, 1, 2))) < 1e-14
    assert np.max(np.abs(w[:, 0, 0])) < 1e-14
    assert np.max(w[:, 0, 1]) - np.min(w[:, 0, 1]) < 1e-8


def test_lambda_lagrangian_upsilon_isotropic(bundles):
    for name in ("su2_adjoint", "so3_sym_traceless", "su2_diag_double",
                 "hopf_s1_s3", "so2_s2", "so3_s2xs2"):
        system = transversal_system(geod_for(bundles, name))
        y, dy = basis_on_grid(system.geod), basis_on_grid(system.geod, derivative=True)
        assert np.max(np.abs(symplectic_form(y, dy))) < 1e-10, name
        ups = system.upsilon_coeffs
        w = symplectic_form(y @ ups.T, dy @ ups.T)
        assert np.max(np.abs(w), initial=0.0) < 1e-10, name


def test_symplectic_form_matches_pairwise_products(bundles):
    geod = geod_for(bundles, "so3_s2xs2")
    y, dy = basis_on_grid(geod), basis_on_grid(geod, derivative=True)
    w = symplectic_form(y, dy)
    for i in range(y.shape[2]):
        for j in range(y.shape[2]):
            pair = np.einsum("tm,tm->t", dy[:, :, i], y[:, :, j]) \
                - np.einsum("tm,tm->t", y[:, :, i], dy[:, :, j])
            assert np.max(np.abs(w[:, i, j] - pair)) < 1e-14


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


@pytest.mark.parametrize("step", [1e-3, 2.5e-4])
def test_hopf_first_conjugate_is_pi_over_two(step):
    # the quotient S^2(1/2) of the Hopf action has its first conjugate
    # point at pi/2, which the focal data give to rounding at any step
    (rec,) = analyze("hopf_s1_s3", ["transversal"], step=step).records
    assert rec.status == "pass"
    assert abs(rec.verdict["first_conjugate"] - PI / 2) <= 1e-12


@pytest.mark.parametrize("lo", [-0.5, -2.0])
def test_conjugate_points_and_index_run_from_the_basepoint(bundles, lo):
    # times before the basepoint change neither count
    one_sided = conjugate_scan(transversal_system(geod_for(bundles, "hopf_s1_s3",
                                                           span=(0.0, 2.0))))
    report = conjugate_scan(transversal_system(geod_for(bundles, "hopf_s1_s3",
                                                        span=(lo, 2.0))))
    for r in (one_sided, report):
        [(t, mult)] = r.conjugate_points
        assert abs(t - PI / 2) <= 1e-12 and mult == 1
        assert r.index == 1 and r.sturm_consistent


@settings(max_examples=24, deadline=None)
@given(name=st.sampled_from(GEODESIC_ENTRIES), seed=st.integers(0, 2 ** 32 - 1),
       step=st.sampled_from([2.5e-4, 1e-3]), span=st.sampled_from([(0.0, PI), (0.0, 3.3)]))
def test_conjugate_points_agree_with_the_rk4_morse_sturm_oracle(bundles, name, seed, step,
                                                                 span):
    system = transversal_system(moved_geodesic(bundles, name, seed, step, span))
    got = conjugate_scan(system).conjugate_points
    want, times = morse_sturm_roots(system)
    # the oracle merges roots within 4 of its steps, and both scans leave
    # the last steps of the grid to the index's interior rule
    merge = 4 * (times[1] - times[0])
    assume(all(b - a > merge for (a, _), (b, _) in zip(got, got[1:])))
    got, want = ([(t, m) for t, m in roots if t < times[-1] - 2 * step]
                 for roots in (got, want))
    assert [m for _, m in got] == [m for _, m in want]
    assert all(abs(t - u) <= 1e-4 for (t, _), (u, _) in zip(got, want))


def loop_index_form(r_vals, times, q_dim):
    """The index form element by element, three trapezoid integrals each:
    the assembly before the vectorised one, kept as its oracle."""
    n = times.shape[0]
    node_idx = np.unique(np.linspace(0, n - 1, transversal.INDEX_ELEMENTS + 1).astype(int))
    n_nodes = node_idx.shape[0]
    dim = (n_nodes - 2) * q_dim
    mat = np.zeros((max(dim, 0), max(dim, 0)))
    for e in range(n_nodes - 1):
        k0, k1 = node_idx[e], node_idx[e + 1]
        ell = times[k1] - times[k0]
        ts = times[k0:k1 + 1]
        phi_l, phi_r = (times[k1] - ts) / ell, (ts - times[k0]) / ell
        r_blk = r_vals[k0:k1 + 1]
        m_ll, m_lr, m_rr = (np.trapezoid(hat[:, None, None] * r_blk, ts, axis=0)
                            for hat in (phi_l ** 2, phi_l * phi_r, phi_r ** 2))
        eye = np.eye(q_dim) / ell
        blocks = {(e, e): eye - m_ll, (e, e + 1): -eye - m_lr,
                  (e + 1, e): -eye - m_lr.T, (e + 1, e + 1): eye - m_rr}
        for (i, j), blk in blocks.items():
            if 1 <= i <= n_nodes - 2 and 1 <= j <= n_nodes - 2:
                mat[(i - 1) * q_dim:i * q_dim, (j - 1) * q_dim:j * q_dim] += blk
    return mat


def loop_index(mat):
    if not mat.size:
        return 0
    evals = np.linalg.eigvalsh((mat + mat.T) / 2)
    return int(np.sum(evals < -1e-9 * max(float(np.max(np.abs(evals))), 1.0)))


def assert_index_form_matches_the_loop(r_vals, times, q_dim):
    mat, want = _index_form(r_vals, times, q_dim), loop_index_form(r_vals, times, q_dim)
    assert mat.shape == want.shape
    assert np.max(np.abs(mat - want), initial=0.0) <= 1e-12
    assert _pl_index(r_vals, times, q_dim) == loop_index(want)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 400), q_dim=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([0.1, 10.0, 200.0]), span=st.floats(0.5, 4.0))
def test_vectorised_index_form_matches_the_element_loop(n, q_dim, seed, scale, span):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((n, q_dim, q_dim)) * scale
    assert_index_form_matches_the_loop(r + np.swapaxes(r, 1, 2), np.linspace(0.0, span, n),
                                       q_dim)


@pytest.mark.parametrize("name", GEODESIC_FIXTURES)
def test_catalog_index_forms_match_the_element_loop(bundles, name, monkeypatch):
    seen = []

    def recorded(r_vals, times, q_dim):
        seen.append((r_vals, times, q_dim))
        return _pl_index(r_vals, times, q_dim)

    monkeypatch.setattr(transversal, "_pl_index", recorded)
    conjugate_scan(transversal.TransversalSystem(geod_for(bundles, name)))
    for args in seen:
        assert_index_form_matches_the_loop(*args)


# -- O'Neill and rescaling ----------------------------------------------------------------

def test_oneill_hopf(bundles):
    b = bundles["hopf_s1_s3"]
    x, y = b["horizontal_pair"]
    report = oneill_check(b["rep"], b["manifold"], b["basepoint"], x, y)
    assert abs(report.k_star_estimate - 4.0) < 1e-2
    assert abs(report.k_star_formula - 4.0) < 1e-6
    assert abs(report.a_norm_sq - 1.0) < 1e-6


@pytest.mark.parametrize("step", [4e-8, 3e-8, 2.5e-4, 1e-3])
def test_oneill_formula_is_exact_at_any_step(bundles, step):
    # A comes from the Killing initial data, not from a grid of this step
    b = bundles["hopf_s1_s3"]
    x, y = b["horizontal_pair"]
    report = oneill_check(b["rep"], b["manifold"], b["basepoint"], x, y, step=step)
    assert abs(report.k_star_formula - 4.0) < 1e-12
    assert abs(report.a_norm_sq - 1.0) < 1e-12
    (rec,) = analyze("hopf_s1_s3", ["oneill"], step=step).records
    assert rec.status == "pass"


def grid_oneill_tensor(rep, manifold, point, x, step):
    """The grid tensor TransversalSystem.a at the centre of a +-40-step
    window, with the frame there: the O'Neill path before the closed form,
    kept as its oracle."""
    geod = OrbitGeodesic(rep, manifold, point, x, span=(-40 * step, 40 * step), step=step)
    return transversal.TransversalSystem(geod).a[geod.base_index], geod.frame


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_oneill_tensor_matches_the_grid_on_moved_hopf(bundles, seed):
    from scipy.linalg import expm
    b = bundles["hopf_s1_s3"]
    rep, manifold = b["rep"], b["manifold"]
    rng = np.random.default_rng(seed)
    g = expm(np.einsum("i,iab->ab", rng.uniform(-PI, PI, rep.generators.shape[0]),
                       rep.generators))
    angle = rng.uniform(0.0, 2 * PI)
    x, y = b["horizontal_pair"]
    x, y = g @ (np.cos(angle) * x + np.sin(angle) * y), g @ (np.cos(angle) * y - np.sin(angle) * x)
    point = g @ b["basepoint"]
    exact = transversal._oneill_tensor(rep, manifold, point, x)
    for step, tol in ((1e-3, 1e-6), (2.5e-4, 7e-8)):
        grid, frame = grid_oneill_tensor(rep, manifold, point, x, step)
        assert np.max(np.abs(frame.T @ exact @ frame - grid)) < tol
    assert abs(float(np.linalg.norm(exact @ y)) - 1.0) < 1e-12


@pytest.mark.parametrize("name", ["so2_s2", "so3_s2xs2"])
def test_oneill_tensor_vanishes_with_the_grid(bundles, name):
    b = bundles[name]
    exact = transversal._oneill_tensor(b["rep"], b["manifold"], b["basepoint"], b["direction"])
    grid, _ = grid_oneill_tensor(b["rep"], b["manifold"], b["basepoint"], b["direction"], 1e-3)
    assert np.max(np.abs(exact)) <= 1e-12
    assert np.max(np.abs(grid)) <= 1e-12


def test_oneill_check_builds_no_grid(bundles, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("oneill_check built a grid")

    monkeypatch.setattr(transversal, "OrbitGeodesic", refuse)
    monkeypatch.setattr(transversal, "TransversalSystem", refuse)
    b = bundles["hopf_s1_s3"]
    x, y = b["horizontal_pair"]
    report = oneill_check(b["rep"], b["manifold"], b["basepoint"], x, y)
    assert abs(report.k_star_formula - 4.0) < 1e-12


def test_oneill_rejects_a_direction_that_the_isotropy_moves(bundles):
    # the isotropy of e1 rotates the (e5, e6) plane of the second block, so
    # the geodesic along e5 leaves the orbit type of e1; along e4 it keeps it
    b = bundles["su2_diag_double"]
    rep = dataclasses.replace(b["rep"], restrict_to_sphere=True)
    manifold = ModelManifold("sphere", 6)
    point = b["sphere_singular"]["point"]
    moved, fixed = np.eye(6)[4], np.eye(6)[3]
    with pytest.raises(TransversalError, match="isotropy of the basepoint moves"):
        oneill_check(rep, manifold, point, moved, fixed)
    assert oneill_check(rep, manifold, point, fixed, moved).a_norm_sq == pytest.approx(1.0)
    doc = {"rep": rep, "manifold": manifold, "basepoint": point,
           "horizontal_pair": (moved, fixed)}
    (rec,) = analyze(doc, ["oneill"]).records
    assert rec.status == "error" and "orbit type" in rec.value["reason"]


def test_oneill_polar_entry_no_correction(bundles):
    b = bundles["so2_s2"]
    # horizontal plane at a regular point of the rotation action
    p = np.array([np.cos(0.7), 0.0, np.sin(0.7)])
    x = np.array([-np.sin(0.7), 0.0, np.cos(0.7)])
    # cohomogeneity one: there is no horizontal 2-plane, so check A = 0 instead
    geod = OrbitGeodesic(b["rep"], b["manifold"], p, x, span=(-0.02, 0.02),
                         step=2.5e-4)
    system = transversal_system(geod)
    assert np.max(np.abs(system.a[geod.base_index])) < 2e-6


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rescale_probe_estimates_agree_at_every_lambda(bundles, seed):
    # the slice at the singular point is polar and the quotient near it is a
    # cone over a round circle of curvature 4; arccos sphere distances lost
    # digits at the small separations and spread the estimates by 1.8e-3
    import dataclasses
    b = bundles["su2_diag_double"]
    rep = dataclasses.replace(b["rep"], restrict_to_sphere=True)
    sing = b["sphere_singular"]
    report = rescale_probe(rep, sing["point"], sing["regular_q"], seed=seed)
    estimates = np.array(report.curvature_estimates)
    assert np.ptp(estimates) <= 1e-5 * np.max(np.abs(estimates))


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


def trivial_s3_rep():
    alg = pl.build_classical("torus", 1)
    return pl.OrthogonalRep(alg, np.zeros((1, 4, 4)), 4, restrict_to_sphere=True,
                            name="trivial_s3")


def per_lambda_probe(rep, point, q, lambdas, seed):
    """The rescale probe as one quotient search per lambda and plane, with
    the probe's rng draws: (values, curvature estimates)."""
    man = ModelManifold("sphere", rep.space_dim)
    v = man.log(point, q)
    rho = np.linalg.norm(v)
    cfg = pl.weyl.QuotientOptimizerConfig(restarts=4, evals=2500, probes=200, seed=seed)
    rng = np.random.default_rng(seed)
    values, estimates = [], []
    for lam in lambdas:
        x = man.exp(point, lam * v)
        hor = linalg.kernel(np.vstack([rep.tangent_rows(x), x[None, :]]))
        planes = [hor] if hor.shape[0] == 2 else [
            linalg.orthonormalize(rng.standard_normal((2, hor.shape[0]))) @ hor
            for _ in range(3)]
        best = -np.inf
        for bx, by in planes:
            s = transversal.RESCALE_ETA * lam * rho
            seps = np.array([s, s / 2])
            d = pl.weyl.quotient_distance(rep, np.array([man.exp(x, t * bx) for t in seps]),
                                          np.array([man.exp(x, t * by) for t in seps]),
                                          cfg).value
            est = 12.0 * (np.sqrt(2.0) * seps - d) / (np.sqrt(2.0) * seps ** 3)
            best = max(best, (4 * est[1] - est[0]) / 3)
        estimates.append(float(best))
        values.append(float(lam ** 2 * best))
    return tuple(values), tuple(estimates)


def probe_inputs(bundles):
    import dataclasses
    b = bundles["su2_diag_double"]
    rep = dataclasses.replace(b["rep"], restrict_to_sphere=True)
    sing = b["sphere_singular"]
    lambdas = (0.125, 0.0625, 0.03125, 0.015625)
    cases = [(rep, sing["point"], sing["regular_q"], lambdas, seed) for seed in range(3)]
    h = bundles["hopf_s1_s3"]
    cases.append((h["rep"], h["basepoint"], h["manifold"].exp(h["basepoint"], 0.5 * h["direction"]),
                  (0.25, 0.125), 5))
    cases.append((trivial_s3_rep(), np.array([1.0, 0, 0, 0]),
                  np.array([np.cos(0.4), np.sin(0.4), 0, 0]), (0.25, 0.0625), 0))
    return cases


def test_rescale_probe_is_one_stacked_search(bundles, monkeypatch):
    # every lambda and plane goes to one quotient search; its pairs retire on
    # their own, so the values are bitwise those of one search per plane
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return pl.weyl.quotient_distance(*args, **kwargs)

    monkeypatch.setattr(transversal, "quotient_distance", counted)
    for rep, point, q, lambdas, seed in probe_inputs(bundles):
        calls.clear()
        report = rescale_probe(rep, point, q, lambdas=lambdas, seed=seed)
        assert len(calls) == 1
        values, estimates = per_lambda_probe(rep, point, q, lambdas, seed)
        assert report.values == values
        assert report.curvature_estimates == estimates


@pytest.mark.parametrize("bad, match", [
    ({"lambdas": ()}, "lambdas"),
    ({"lambdas": (0.125, 0.0)}, "lambdas"),
    ({"lambdas": (-0.1,)}, "lambdas"),
    ({"lambdas": (float("nan"),)}, "lambdas"),
    ({"lambdas": (2.0,)}, "lambdas"),
    ({"q": lambda p, q: -p}, "q must not be the antipode"),
    ({"q": lambda p, q: 2 * q}, "q must be a finite unit vector"),
    ({"q": lambda p, q: q[:-1]}, "q must be a finite unit vector"),
    ({"q": lambda p, q: np.r_[np.nan, q[1:]]}, "q must be a finite unit vector"),
    ({"point": lambda p, q: 2 * p}, "point must be a finite unit vector"),
], ids=["no-lambdas", "zero-lambda", "negative-lambda", "nan-lambda", "lambda-above-one",
        "antipodal-q", "q-off-sphere", "q-wrong-length", "nan-q", "point-off-sphere"])
def test_rescale_probe_rejects_unusable_input(bundles, bad, match):
    import dataclasses
    b = bundles["su2_diag_double"]
    rep = dataclasses.replace(b["rep"], restrict_to_sphere=True)
    point, q = b["sphere_singular"]["point"], b["sphere_singular"]["regular_q"]
    args = {"point": point, "q": q, "lambdas": (0.125, 0.0625)}
    for key, value in bad.items():
        args[key] = value(point, q) if callable(value) else value
    with pytest.raises(TransversalError, match=match):
        rescale_probe(rep, **args)


@pytest.mark.parametrize("which, match", [
    ("x", "y must be orthogonal to x"),
    ("doubled", "y must be a finite unit vector"),
    ("nan", "y must be a finite unit vector"),
    ("short", "y must be a finite unit vector"),
    ("radial", "y must be tangent to the model"),
    ("vertical", "y must be normal to the orbit"),
])
def test_oneill_rejects_a_bad_y(bundles, which, match):
    b = bundles["hopf_s1_s3"]
    p = b["basepoint"]
    x, y = b["horizontal_pair"]
    vertical = b["rep"].tangent_rows(p)[0]
    bad = {"x": x, "doubled": 2 * y, "nan": np.full_like(y, np.nan), "short": y[:-1],
           "radial": p, "vertical": vertical / np.linalg.norm(vertical)}[which]
    with pytest.raises(TransversalError, match=match):
        oneill_check(b["rep"], b["manifold"], p, x, bad)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_oneill_and_rescale_records_count_the_quotient_search(seed):
    # two pairs for O'Neill, 4 lambdas x 1 plane x 2 pairs for the probe,
    # 4 restarts each
    for entry, check, starts in (("hopf_s1_s3", "oneill", 8),
                                 ("su2_diag_double", "rescale-probe", 32)):
        record, = analyze(entry, [check], seed=seed).records
        search = record.value["quotient_search"]
        assert search["starts"] == starts
        assert 1 <= search["iterations"] <= 20
        assert search["starts"] <= search["evaluations"]
