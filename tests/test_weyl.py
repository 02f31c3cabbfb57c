import warnings

import numpy as np
import pytest
from scipy.linalg import expm

import polaris as pl
from polaris.catalog import catalog_list
from polaris.cli import _Work, analyze
from polaris.liealg import Subspace
from polaris.weyl import QuotientOptimizerConfig, ReductionSampler, \
    WeylError, _chart_derivatives, quotient_distance, reduction_isometry_check, \
    restricted_roots, weyl_group_closure


@pytest.fixture(scope="module")
def a2_system(su3_conj_pair):
    a = pl.maximal_abelian(su3_conj_pair, seed=5)
    return su3_conj_pair, a, restricted_roots(su3_conj_pair, a, seed=7)


def diagonal_eigenvalue_oracle(pair, a, seed):
    """Eigenvalues of (ad H)^2 for H realised as a diagonal matrix.

    For su(3) with the conjugation split, any maximal abelian subspace is
    conjugate to the purely imaginary diagonals, where ad(H)^2 has
    eigenvalues -(h_i - h_j)^2, each twice, plus two zeros.
    """
    alg = pair.algebra
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(a.dim)
    h = coeff @ a.basis
    h = h / alg.norm(h)
    return np.sort(np.linalg.eigvalsh(alg.ad(h) @ alg.ad(h)))


# -- restricted roots ------------------------------------------------------------

def test_torus_pair_has_no_roots():
    t2 = pl.build_classical("torus", 2)
    pair = pl.cartan_decompose(t2, -np.eye(2))
    a = pl.maximal_abelian(pair, seed=0)
    roots = restricted_roots(pair, a, seed=0)
    assert roots.roots == ()
    assert roots.g0_dim == 2


def test_su3_so3_roots_are_a2(a2_system):
    _, _, roots = a2_system
    assert len(roots.roots) == 6
    assert all(m == 1 for _, m in roots.roots)
    assert roots.g0_dim == 2
    # A2 geometry: all roots have the same length, angles multiples of 60 deg
    vecs = [np.asarray(v) for v, _ in roots.positive()]
    lens = [np.linalg.norm(v) for v in vecs]
    assert np.max(lens) - np.min(lens) < 1e-8
    cosangles = sorted(round(abs(float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))), 6)
                       for i, u in enumerate(vecs) for v in vecs[i + 1:])
    assert cosangles == [0.5, 0.5, 0.5]


def test_su3_so3_spectrum_matches_diagonal_oracle(a2_system):
    pair, a, roots = a2_system
    spec = diagonal_eigenvalue_oracle(pair, a, seed=7)
    # assemble the eigenvalues the root data predicts
    rng = np.random.default_rng(7)
    coeff = rng.standard_normal(a.dim)
    h = coeff @ a.basis
    h = h / pair.algebra.norm(h)
    h_coords = a.basis @ pair.algebra.inner @ h
    predicted = [0.0, 0.0]
    for v, m in roots.roots:
        predicted.extend([-(float(np.asarray(v) @ h_coords)) ** 2] * m)
    assert np.allclose(np.sort(predicted), spec, atol=1e-8)


def test_root_data_at_every_seed_of_the_s_representations():
    # each seed takes its own section and draws ROOT_DRAWS elements H of it;
    # keeping the draw with the widest cluster gaps leaves no seed in 0..999
    # ambiguous (one draw alone put H of so3_sym_traceless within 2.5e-6 of
    # a root wall at seed 125), and every seed finds the same root data
    for entry in catalog_list():
        bundle = entry.build()
        if bundle.get("srep") is None:
            continue
        shapes = set()
        for seed in range(1000):
            _, roots, group = _Work(bundle, seed).weyl
            shapes.add((len(roots.roots), roots.g0_dim, group.order,
                        tuple(sorted(m for _, m in roots.roots))))
        assert len(shapes) == 1, (entry.name, shapes)


def test_su2_so2_single_pair(su2):
    pair = pl.cartan_decompose(su2, np.diag([1.0, -1.0, -1.0]))
    a = pl.maximal_abelian(pair, seed=1)
    roots = restricted_roots(pair, a, seed=1)
    assert len(roots.roots) == 2
    assert roots.g0_dim == 1


def test_roots_reject_nonabelian_subspace(su3_conj_pair):
    with pytest.raises(WeylError):
        restricted_roots(su3_conj_pair, su3_conj_pair.p, seed=0)


# -- reflection group closure -------------------------------------------------------

def test_empty_roots_trivial_group():
    t2 = pl.build_classical("torus", 2)
    pair = pl.cartan_decompose(t2, -np.eye(2))
    a = pl.maximal_abelian(pair, seed=0)
    group = weyl_group_closure(restricted_roots(pair, a, seed=0))
    assert group.order == 1


def test_single_pair_order_two(su2):
    pair = pl.cartan_decompose(su2, np.diag([1.0, -1.0, -1.0]))
    a = pl.maximal_abelian(pair, seed=1)
    group = weyl_group_closure(restricted_roots(pair, a, seed=1))
    assert group.order == 2


def test_a2_closure_order_six(a2_system):
    _, _, roots = a2_system
    group = weyl_group_closure(roots)
    assert group.order == 6                      # |S_3| = 3!


def test_group_permutes_the_roots(a2_system):
    _, _, roots = a2_system
    group = weyl_group_closure(roots)
    vecs = np.array([v for v, _ in roots.roots])
    for w in group.elements:
        for v in vecs:
            moved = np.asarray(w) @ v
            assert np.min(np.linalg.norm(vecs - moved, axis=1)) < 1e-8


def test_orders_divide_coxeter_orders(su2, a2_system, swap_pair):
    _, _, roots = a2_system
    assert 6 % weyl_group_closure(roots).order == 0
    a = pl.maximal_abelian(swap_pair, seed=0)
    group = weyl_group_closure(restricted_roots(swap_pair, a, seed=0))
    assert 2 % group.order == 0


# -- section / orbit sampling ---------------------------------------------------------

def weyl_for_rep(bundles, name, seed=3):
    b = bundles[name]
    rep = b["rep"]
    v = pl.is_polar_rep(rep, seed=1)
    pair, pmap = b["srep"]
    a = Subspace(pair.algebra.name, v.section.basis @ pmap)
    roots = restricted_roots(pair, a, seed=seed)
    return rep, v.section, weyl_group_closure(roots)


def test_weyl_images_have_distance_zero(bundles):
    rep, section, group = weyl_for_rep(bundles, "su2_adjoint")
    p = 0.8 * section.basis[0]
    from polaris.weyl import _weyl_images
    for image in _weyl_images(section, group, p):
        assert quotient_distance(rep, image, p,
                                 QuotientOptimizerConfig(restarts=2, evals=400,
                                                         probes=40, seed=0)).value < 1e-6


# -- quotient distances ----------------------------------------------------------------

def test_same_orbit_distance_vanishes(bundles):
    rep = bundles["su2_adjoint"]["rep"]
    p = np.array([0.3, -0.7, 0.2])
    g = expm(np.einsum("i,iab->ab", np.array([0.4, 0.1, -0.9]), rep.generators))
    q = g @ p
    d = quotient_distance(rep, p, q,
                          QuotientOptimizerConfig(restarts=4, evals=600,
                                                  probes=60, seed=3))
    assert d.value < 1e-6


def test_concentric_spheres_distance(bundles):
    rep = bundles["su2_adjoint"]["rep"]
    rng = np.random.default_rng(4)
    for _ in range(5):
        p = rng.standard_normal(3)
        q = rng.standard_normal(3)
        expect = abs(np.linalg.norm(p) - np.linalg.norm(q))
        d = quotient_distance(rep, p, q,
                              QuotientOptimizerConfig(restarts=3, evals=500,
                                                      probes=60, seed=5))
        assert abs(d.value - expect) < 1e-6


def chart_value(rep, p, m, x):
    return -float(p @ expm(np.einsum("i,iab->ab", x, rep.generators)) @ m)


@pytest.mark.parametrize("name", ["su2_adjoint", "so3_sym_traceless", "hopf_s1_s3"])
def test_chart_gradient_and_hessian_match_central_differences(bundles, name):
    # the distance tests converge from many starts and would not notice a
    # wrong sign or index in the Newton model
    rep = bundles[name]["rep"]
    rng = np.random.default_rng(13)
    h = 1e-4
    eye = np.eye(rep.n_generators)
    for _ in range(5):
        p, m = rng.standard_normal((2, rep.space_dim))
        if rep.restrict_to_sphere:
            p, m = p / np.linalg.norm(p), m / np.linalg.norm(m)
        grad, hess = _chart_derivatives(rep.generators, p, m)
        central = np.array([(chart_value(rep, p, m, h * e) - chart_value(rep, p, m, -h * e))
                            / (2 * h) for e in eye])
        assert np.linalg.norm(grad - central) <= 1e-6 * np.linalg.norm(grad)
        second = np.array([[(chart_value(rep, p, m, h * (ei + ej))
                             - chart_value(rep, p, m, h * (ei - ej))
                             - chart_value(rep, p, m, h * (ej - ei))
                             + chart_value(rep, p, m, -h * (ei + ej))) / (4 * h * h)
                            for ej in eye] for ei in eye])
        assert np.linalg.norm(hess - second) <= 1e-5 * np.linalg.norm(hess)


def test_trivial_rep_distance_exact():
    alg = pl.build_classical("torus", 1)
    rep = pl.OrthogonalRep(alg, np.zeros((1, 3, 3)), 3, name="trivial")
    p, q = np.array([1.0, 2, 2]), np.array([0.0, -1, 1])
    d = quotient_distance(rep, p, q)
    assert abs(d.value - np.linalg.norm(p - q)) < 1e-14


def test_no_generators_stacked_distance_exact():
    rep = pl.OrthogonalRep(pl.build_classical("torus", 1), np.zeros((0, 3, 3)), 3,
                           name="no-generators")
    p, q = np.random.default_rng(2).standard_normal((2, 4, 3))
    d = quotient_distance(rep, p, q)
    assert np.array_equal(d.value, np.linalg.norm(p - q, axis=1))
    assert np.array_equal(d.point, q)
    assert (d.iterations, d.evaluations) == (0, 0)


def test_zero_point_distance_is_the_norm(bundles):
    # every start is stationary at p = 0, so none reaches the Newton model
    rep = bundles["so3_sym_traceless"]["rep"]
    q = np.arange(5.0)
    d = quotient_distance(rep, np.zeros(5), q)
    assert abs(d.value - np.linalg.norm(q)) < 1e-14
    assert d.iterations == 1


def test_small_sphere_distance_keeps_its_digits():
    # arccos<p, q> loses about eps/d relative at a small angle d
    rep = pl.OrthogonalRep(pl.build_classical("torus", 1), np.zeros((0, 3, 3)), 3,
                           restrict_to_sphere=True, name="no-generators")
    angle = 1e-6
    d = quotient_distance(rep, np.array([1.0, 0, 0]),
                          np.array([np.cos(angle), np.sin(angle), 0]))
    assert abs(d.value - angle) <= 1e-12 * angle


# -- stacked quotient distances ---------------------------------------------------------

STACK_CONFIG = QuotientOptimizerConfig(restarts=3, evals=500, probes=60, seed=21)


def random_pairs(rep, count, seed):
    p, q = np.random.default_rng(seed).standard_normal((2, count, rep.space_dim))
    if rep.restrict_to_sphere:
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        q /= np.linalg.norm(q, axis=1, keepdims=True)
    return p, q


@pytest.mark.parametrize("name", ["su2_adjoint", "so3_sym_traceless", "hopf_s1_s3"])
def test_stacked_distance_matches_per_row_calls(bundles, name):
    rep = bundles[name]["rep"]
    p, q = random_pairs(rep, 12, 17)
    stacked = quotient_distance(rep, p, q, STACK_CONFIG)
    assert stacked.value.shape == (12,)
    assert stacked.point.shape == (12, rep.space_dim)
    assert np.allclose(np.linalg.norm(stacked.point, axis=1), np.linalg.norm(q, axis=1),
                       rtol=0, atol=1e-13)
    for i in range(12):
        assert abs(quotient_distance(rep, p[i], q[i], STACK_CONFIG).value
                   - stacked.value[i]) <= 1e-9


@pytest.mark.parametrize("name", ["su2_adjoint", "so3_sym_traceless", "hopf_s1_s3",
                                  "su2_diag_double", "so2_s2"])
def test_stacked_rows_end_converged_or_at_rounding_level(bundles, name):
    # a row that stopped short of GTOL must have stalled at rounding level:
    # no steepest-descent step exp(-s X_grad) m from its orbit point lowers f
    # by more than that
    rep = bundles[name]["rep"]
    p, q = random_pairs(rep, 40, 23)
    found = quotient_distance(rep, p, q, STACK_CONFIG)
    for i in range(40):
        f = -float(p[i] @ found.point[i])
        grad, _ = _chart_derivatives(rep.generators, p[i], found.point[i])
        if np.max(np.abs(grad)) <= 1e-10:
            continue
        x_grad = np.einsum("i,iab->ab", grad / np.linalg.norm(grad), rep.generators)
        line = [-float(p[i] @ expm(-s * x_grad) @ found.point[i])
                for s in np.logspace(-12, -1, 45)]
        assert f - min(line) <= 1e-13 * np.linalg.norm(p[i]) * np.linalg.norm(q[i])


def test_single_pair_returns_float_and_orbit_point(bundles):
    rep = bundles["so3_sym_traceless"]["rep"]
    p, q = random_pairs(rep, 1, 5)
    d = quotient_distance(rep, p[0], q[0], STACK_CONFIG)
    assert isinstance(d.value, float)
    assert d.point.shape == (rep.space_dim,)
    assert abs(np.linalg.norm(d.point) - np.linalg.norm(q[0])) <= 1e-13
    assert abs(np.linalg.norm(p[0] - d.point) - d.value) <= 1e-13


@pytest.mark.parametrize("name", ["su2_adjoint", "so3_sym_traceless", "su2_diag_double"])
@pytest.mark.parametrize("k", [-700, -300, 300, 700])
def test_euclidean_distance_is_homogeneous_at_every_scale(bundles, name, k):
    rep = bundles[name]["rep"]
    p, q = np.random.default_rng(k % 97).standard_normal((2, 6, rep.space_dim))
    c = 2.0 ** k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = quotient_distance(rep, p, q, STACK_CONFIG)
        scaled = quotient_distance(rep, c * p, c * q, STACK_CONFIG)
    assert np.all(np.abs(scaled.value - c * base.value) <= 1e-12 * c * base.value)
    assert np.all(np.abs(scaled.point - c * base.point) <= 1e-12 * c * np.abs(q).max())


@pytest.mark.parametrize("s", [1e150, 1e200, 1e-200])
def test_concentric_sphere_distance_at_extreme_scales(bundles, s):
    # the orbits of SO(3) on R^3 are the spheres about 0: the distance from
    # (s, s, s) to s e1 is (sqrt(3) - 1) s
    rep = bundles["su2_adjoint"]["rep"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = quotient_distance(rep, np.full(3, s), s * np.eye(3)[0])
    assert abs(d.value - (np.sqrt(3.0) - 1.0) * s) <= 1e-12 * s


def test_eigenvalue_sorting_oracle_short(bundles, su3_conj_pair):
    # quotient distances between diagonal points equal the sorted-eigenvalue
    # distance of the corresponding symmetric matrices
    b = bundles["so3_sym_traceless"]
    rep = b["rep"]
    pair, pmap = b["srep"]
    alg = pair.algebra
    rng = np.random.default_rng(6)
    flat = b["flat_basis"]
    cfg = QuotientOptimizerConfig(restarts=4, evals=2500, probes=300, seed=11)
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, 2) @ flat
        y = rng.uniform(-1.5, 1.5, 2) @ flat
        ex = np.sort(np.linalg.eigvalsh((alg.realize(x @ pmap) / 1j)).real)
        ey = np.sort(np.linalg.eigvalsh((alg.realize(y @ pmap) / 1j)).real)
        oracle = np.linalg.norm(ex - ey)
        d = quotient_distance(rep, x, y, cfg)
        assert abs(d.value - oracle) < 1e-4


def test_reduction_isometry_one_sided_and_small(bundles):
    rep, section, group = weyl_for_rep(bundles, "su2_adjoint")
    report = reduction_isometry_check(rep, section, group,
                                      ReductionSampler(pairs=25, seed=12),
                                      QuotientOptimizerConfig(restarts=3,
                                                              evals=1500,
                                                              probes=100,
                                                              seed=12))
    assert report.max_relative_error < 1e-6
    assert report.max_one_sided_excess < 1e-6


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_reduction_records_count_the_quotient_search(seed):
    for entry in ("su2_adjoint", "so3_sym_traceless"):
        record, = analyze(entry, ["reduction-isometry"], seed=seed).records
        search = record.value["quotient_search"]
        assert search["starts"] == 4 * record.value["pairs"]
        assert 1 <= search["iterations"] <= 20
        assert search["starts"] <= search["evaluations"]


@pytest.mark.parametrize("p, q, match", [
    (np.ones(3) / np.sqrt(3), np.ones((2, 3)) / np.sqrt(3), "shape"),
    (np.ones(4) / 2, np.ones(4) / 2, "shape"),
    (np.ones((2, 2)), np.ones((2, 2)), "shape"),
    (np.array([np.nan, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), "finite"),
    (np.array([1.0, 0.0, 0.0]), np.array([np.inf, 0.0, 0.0]), "finite"),
], ids=["shapes-differ", "wrong-length", "stack-wrong-length", "nan-in-p", "inf-in-q"])
def test_quotient_distance_rejects_bad_pairs(bundles, p, q, match):
    with pytest.raises(WeylError, match=match):
        quotient_distance(bundles["su2_adjoint"]["rep"], p, q)


@pytest.mark.parametrize("config", [
    QuotientOptimizerConfig(probes=0), QuotientOptimizerConfig(box=float("nan")),
    QuotientOptimizerConfig(box=float("inf")), QuotientOptimizerConfig(box=0.0),
    QuotientOptimizerConfig(evals=-1),
], ids=["no-probes", "nan-box", "inf-box", "zero-box", "negative-evals"])
def test_quotient_distance_rejects_bad_configs(bundles, config):
    p = np.array([1.0, 0.0, 0.0])
    with pytest.raises(WeylError, match="probe"):
        quotient_distance(bundles["su2_adjoint"]["rep"], p, p, config)


def test_quotient_distance_counts_its_starts(bundles):
    rep = bundles["so3_sym_traceless"]["rep"]
    p, q = random_pairs(rep, 3, 2)
    assert quotient_distance(rep, p, q, STACK_CONFIG).starts == 3 * STACK_CONFIG.restarts
    clamped = QuotientOptimizerConfig(restarts=50, probes=5)
    assert quotient_distance(rep, p[0], q[0], clamped).starts == 5
