import numpy as np
import pytest

import polaris as pl
from polaris.catalog import catalog_list
from polaris.cli import _Work
from polaris.liealg import Subspace
from polaris.weyl import QuotientOptimizerConfig, ReductionSampler, \
    WeylError, _Pairing, quotient_distance, reduction_isometry_check, \
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
    from scipy.linalg import expm
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


@pytest.mark.parametrize("name", ["su2_adjoint", "so3_sym_traceless", "hopf_s1_s3"])
def test_pairing_gradient_matches_central_differences(bundles, name):
    # the distance tests converge from many starts and would not notice a
    # wrong sign or index in the prefix/suffix sweep
    rep = bundles[name]["rep"]
    rng = np.random.default_rng(13)
    for _ in range(5):
        p, q = rng.standard_normal((2, rep.space_dim))
        if rep.restrict_to_sphere:
            p, q = p / np.linalg.norm(p), q / np.linalg.norm(q)
        pairing = _Pairing(rep, p, q)
        t = rng.uniform(-np.pi, np.pi, rep.n_generators)
        _, grad = pairing(t)
        h = 1e-5
        central = np.array([(pairing(t + h * e)[0] - pairing(t - h * e)[0]) / (2 * h)
                            for e in np.eye(t.size)])
        assert np.linalg.norm(grad - central) <= 1e-6 * np.linalg.norm(grad)


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
    assert d.params.shape == (4, 0)


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
    assert stacked.params.shape == (12, rep.n_generators)
    for i in range(12):
        assert abs(quotient_distance(rep, p[i], q[i], STACK_CONFIG).value
                   - stacked.value[i]) <= 1e-9


@pytest.mark.parametrize("name", ["su2_adjoint", "so3_sym_traceless", "hopf_s1_s3",
                                  "su2_diag_double", "so2_s2"])
def test_stacked_rows_end_converged_or_at_rounding_level(bundles, name):
    # a row that stopped short of GTOL must have stalled at rounding level:
    # no steepest-descent step from it lowers f by more than that
    rep = bundles[name]["rep"]
    p, q = random_pairs(rep, 40, 23)
    params = quotient_distance(rep, p, q, STACK_CONFIG).params
    f, grad = _Pairing(rep, p, q)(params)
    steps = np.logspace(-12, -1, 45)[:, None]
    for i in np.flatnonzero(np.max(np.abs(grad), axis=1) > 1e-10):
        line = params[i] - steps * grad[i] / np.linalg.norm(grad[i])
        drop = f[i] - np.min(_Pairing(rep, p[i], q[i])(line)[0])
        assert drop <= 1e-13 * np.linalg.norm(p[i]) * np.linalg.norm(q[i])


def test_single_pair_returns_float_and_parameter_vector(bundles):
    rep = bundles["so3_sym_traceless"]["rep"]
    p, q = random_pairs(rep, 1, 5)
    d = quotient_distance(rep, p[0], q[0], STACK_CONFIG)
    assert isinstance(d.value, float)
    assert d.params.shape == (rep.n_generators,)


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
