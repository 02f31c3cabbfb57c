import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polaris as pl
from polaris import linalg
from polaris.liealg import Subspace
from polaris.symspace import BrokenGeodesicSampler, ModelManifold, \
    SymmetricSpaceError, cartan_hermann_probe, involution_from_matrix_map


# -- cartan_decompose -----------------------------------------------------------

def test_identity_involution_gives_trivial_p(su2):
    pair = pl.cartan_decompose(su2, np.eye(3))
    assert pair.k.dim == 3 and pair.p.dim == 0


def test_conjugation_eigenspace_dimensions():
    # k = so(n), dim p = (n-1)(n+2)/2
    for n in (2, 3):
        alg = pl.build_classical("special-unitary", n)
        theta = involution_from_matrix_map(alg, np.conj)
        pair = pl.cartan_decompose(alg, theta)
        assert pair.k.dim == n * (n - 1) // 2
        assert pair.p.dim == (n - 1) * (n + 2) // 2


def test_swap_involution_diagonal_and_antidiagonal(swap_pair):
    # fixed vectors (x, x), anti-fixed (x, -x)
    for row in swap_pair.k.basis:
        assert np.allclose(row[:3], row[3:], atol=1e-12)
    for row in swap_pair.p.basis:
        assert np.allclose(row[:3], -row[3:], atol=1e-12)


def test_grading_residuals(su3_conj_pair, su3_block_pair, swap_pair):
    for pair in (su3_conj_pair, su3_block_pair, swap_pair):
        assert pair.grading_residual() < 1e-10


def test_non_involution_rejected(su2):
    with pytest.raises(SymmetricSpaceError):
        pl.cartan_decompose(su2, 2.0 * np.eye(3))


def test_non_automorphism_rejected(su2):
    # a permutation of the cyclic basis that flips orientation
    theta = np.array([[0, 1.0, 0], [1.0, 0, 0], [0, 0, 1.0]])
    with pytest.raises(SymmetricSpaceError):
        pl.cartan_decompose(su2, theta)


# -- maximal abelian -------------------------------------------------------------

def test_rank_of_sphere_pair(su2):
    pair = pl.cartan_decompose(su2, np.diag([1.0, -1.0, -1.0]))
    assert pl.maximal_abelian(pair, seed=0).dim == 1


def test_rank_of_su3_so3_with_diagonal_oracle(su3_conj_pair):
    a = pl.maximal_abelian(su3_conj_pair, seed=1)
    assert a.dim == 2
    # oracle: purely imaginary diagonal traceless matrices commute pairwise
    # and are maximal abelian in p, so the rank is exactly 2
    alg = su3_conj_pair.algebra
    d1 = alg.coordinates(1j * np.diag([1.0, -1.0, 0]))
    d2 = alg.coordinates(1j * np.diag([1.0, 1.0, -2.0]))
    oracle = Subspace(alg.name, linalg.orthonormalize([d1, d2], alg.metric_root))
    assert pl.is_abelian_subspace(alg, oracle).ok
    z = pl.centralizer_in(alg, d1 + 0.37 * d2, su3_conj_pair.p)
    assert z.dim == 2


def test_rank_of_swap_pair(swap_pair):
    assert pl.maximal_abelian(swap_pair, seed=2).dim == 1


def test_maximal_abelian_reproducible_across_seeds(su3_conj_pair):
    dims = set()
    for seed in range(5):
        a = pl.maximal_abelian(su3_conj_pair, seed=seed)
        dims.add(a.dim)
        # the subspace itself depends on the draw, but the certificate
        # must hold: centralising any generic element returns it
        assert pl.is_abelian_subspace(su3_conj_pair.algebra, a).ok
    assert dims == {2}


def test_maximal_abelian_fixed_seed_reproducible(su3_conj_pair):
    a1 = pl.maximal_abelian(su3_conj_pair, seed=9)
    a2 = pl.maximal_abelian(su3_conj_pair, seed=9)
    ang = linalg.principal_angles(a1.basis, a2.basis,
                                  su3_conj_pair.algebra.metric_root)
    assert np.max(ang) < 1e-8


# -- curvature --------------------------------------------------------------------

def test_flat_section_curvature(su3_conj_pair):
    a = pl.maximal_abelian(su3_conj_pair, seed=3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x, y = (rng.standard_normal((2, a.dim)) @ a.basis)
        z = rng.standard_normal(a.dim) @ a.basis
        assert np.max(np.abs(pl.curvature_operator(su3_conj_pair, x, y, z))) < 1e-12


def test_sphere_pair_constant_positive_curvature(su2):
    pair = pl.cartan_decompose(su2, np.diag([1.0, -1.0, -1.0]))
    rng = np.random.default_rng(4)
    values = []
    for _ in range(100):
        x, y = rng.standard_normal((2, 2)) @ pair.p.basis
        gram = np.array([[x @ x, x @ y], [x @ y, y @ y]])
        if abs(np.linalg.det(gram)) < 1e-6:
            continue
        values.append(pl.sectional_curvature(pair, x, y))
    values = np.array(values)
    assert np.all(values > 0)
    assert np.max(np.abs(values - values[0])) < 1e-9


def test_curvature_antisymmetry_and_scale_invariance(su3_conj_pair):
    rng = np.random.default_rng(5)
    p = su3_conj_pair.p
    x, y, z = rng.standard_normal((3, p.dim)) @ p.basis
    r1 = pl.curvature_operator(su3_conj_pair, x, y, z)
    r2 = pl.curvature_operator(su3_conj_pair, y, x, z)
    assert np.max(np.abs(r1 + r2)) < 1e-12
    k1 = pl.sectional_curvature(su3_conj_pair, x, y)
    k2 = pl.sectional_curvature(su3_conj_pair, 2.0 * x, y)
    assert abs(k1 - k2) < 1e-10


def test_curvature_pair_symmetry_and_bianchi(su3_conj_pair):
    alg = su3_conj_pair.algebra
    p = su3_conj_pair.p
    rng = np.random.default_rng(6)
    worst_pair = worst_bianchi = 0.0
    for _ in range(50):
        x, y, z, w = rng.standard_normal((4, p.dim)) @ p.basis
        pair_sym = alg.dot(pl.curvature_operator(su3_conj_pair, x, y, z), w) \
            - alg.dot(pl.curvature_operator(su3_conj_pair, z, w, x), y)
        bianchi = pl.curvature_operator(su3_conj_pair, x, y, z) \
            + pl.curvature_operator(su3_conj_pair, y, z, x) \
            + pl.curvature_operator(su3_conj_pair, z, x, y)
        worst_pair = max(worst_pair, abs(pair_sym))
        worst_bianchi = max(worst_bianchi, float(np.max(np.abs(bianchi))))
    assert worst_pair < 1e-9
    assert worst_bianchi < 1e-9


def test_curvature_rejects_vectors_outside_p(su3_conj_pair):
    k_vec = su3_conj_pair.k.basis[0]
    with pytest.raises(SymmetricSpaceError):
        pl.curvature_operator(su3_conj_pair, k_vec, su3_conj_pair.p.basis[0],
                              su3_conj_pair.p.basis[1])


def test_sectional_curvature_rejects_dependent_plane(su3_conj_pair):
    x = su3_conj_pair.p.basis[0]
    with pytest.raises(SymmetricSpaceError):
        pl.sectional_curvature(su3_conj_pair, x, 2.0 * x)


# -- Cartan/Hermann probe ----------------------------------------------------------

def test_probe_passes_on_maximal_abelian(su3_conj_pair):
    a = pl.maximal_abelian(su3_conj_pair, seed=7)
    res = cartan_hermann_probe(su3_conj_pair, None, a,
                               BrokenGeodesicSampler(count=100, seed=1))
    assert res.ok and res.residual < 1e-8


def test_probe_agrees_with_lts_on_seeded_subspaces(su3_conj_pair, swap_pair):
    rng = np.random.default_rng(8)
    for pair in (su3_conj_pair, swap_pair):
        for i in range(50):
            dim = int(rng.integers(1, 3))
            rows = linalg.orthonormalize(
                rng.standard_normal((dim, pair.p.dim)) @ pair.p.basis,
                pair.algebra.metric_root)
            sub = Subspace(pair.algebra.name, rows)
            lts = pl.is_lie_triple_system(pair.algebra, sub)
            probe = cartan_hermann_probe(pair, None, sub,
                                         BrokenGeodesicSampler(count=3, seed=100 + i))
            assert lts.ok == probe.ok


def test_pair_probe_is_one_algebraic_evaluation(su3_conj_pair):
    # transport by the group makes every sample the same algebraic test, so
    # the report does not depend on the sample count and a failure is
    # witnessed by the first sample's legs
    alg = su3_conj_pair.algebra
    rng = np.random.default_rng(31)
    rows = linalg.orthonormalize(
        rng.standard_normal((2, su3_conj_pair.p.dim)) @ su3_conj_pair.p.basis,
        alg.metric_root)
    sub = Subspace(alg.name, rows)
    sampler = BrokenGeodesicSampler(count=100, seed=5)
    res = cartan_hermann_probe(su3_conj_pair, None, sub, sampler)
    assert not res.ok
    legs = np.random.default_rng(5).uniform(sampler.leg_min, sampler.leg_max, 2)
    assert res.witness == (0, *legs)
    assert abs(res.residual - pl.is_lie_triple_system(alg, sub).residual) < 1e-12
    assert cartan_hermann_probe(su3_conj_pair, None, sub,
                                BrokenGeodesicSampler(count=1, seed=5)) == res
    with pytest.raises(SymmetricSpaceError):
        BrokenGeodesicSampler(count=0)


def test_probe_on_model_manifolds():
    # Euclidean space is flat: every subspace passes
    euc = ModelManifold("euclidean", 4)
    s = Subspace("R4", np.eye(4)[:2])
    assert cartan_hermann_probe(euc, np.zeros(4), s,
                                BrokenGeodesicSampler(count=5, seed=0)).ok
    # on the unit sphere every tangent subspace is curvature-invariant
    sph = ModelManifold("sphere", 4)
    p = np.array([1.0, 0, 0, 0])
    s = Subspace("S3", np.eye(4)[1:3])
    assert cartan_hermann_probe(sph, p, s,
                                BrokenGeodesicSampler(count=10, seed=1)).ok
    # a plane mixing the two factors of a product is not invariant
    prod = ModelManifold("product-spheres", 6, radii=(1.0, 2.0), split=(3, 3))
    q = np.array([1.0, 0, 0, 0, 2.0, 0])
    mixed = linalg.orthonormalize(np.array([
        [0, 1.0, 0, 0, 0, 1.0],
        [0, 0, 1.0, 0, 0, 0]]))
    res = cartan_hermann_probe(prod, q, Subspace("prod", mixed),
                               BrokenGeodesicSampler(count=10, seed=2))
    assert not res.ok and res.residual > 1e-3


def test_probe_on_empty_subspace_is_totally_geodesic(su3_conj_pair):
    # a point is totally geodesic; the manifold branch has no direction to draw
    res = cartan_hermann_probe(ModelManifold("euclidean", 4), np.zeros(4),
                               Subspace("R4", np.zeros((0, 4))))
    assert res == pl.CheckResult(True, 0.0, linalg.SPAN_TOL, None)
    alg = su3_conj_pair.algebra
    res = cartan_hermann_probe(su3_conj_pair, None, Subspace(alg.name, np.zeros((0, alg.dim))))
    assert res == pl.CheckResult(True, 0.0, linalg.SPAN_TOL, None)


def test_probe_rejects_degenerate_sampler():
    with pytest.raises(SymmetricSpaceError):
        BrokenGeodesicSampler(count=5, leg_min=0.0)


# -- model manifolds ---------------------------------------------------------------

def test_sphere_geodesic_transport_isometry():
    man = ModelManifold("sphere", 5)
    rng = np.random.default_rng(9)
    p = rng.standard_normal(5)
    p /= np.linalg.norm(p)
    v = man.project_tangent(p, rng.standard_normal(5))
    v /= np.linalg.norm(v)
    x = man.project_tangent(p, rng.standard_normal(5))
    y = man.project_tangent(p, rng.standard_normal(5))
    tx = man.transport(p, v, 0.7, x)
    ty = man.transport(p, v, 0.7, y)
    assert abs(np.dot(tx, ty) - np.dot(x, y)) < 1e-12
    gam, dgam = man.geodesic(p, v, np.array([0.7]))
    assert abs(np.dot(tx, gam[0])) < 1e-12      # stays tangent


def test_product_distance_matches_factors():
    man = ModelManifold("product-spheres", 6, radii=(1.0, 2.0), split=(3, 3))
    p = np.array([1.0, 0, 0, 0, 2.0, 0])
    q = np.array([0, 1.0, 0, 2.0, 0, 0])
    expect = np.hypot(np.pi / 2, 2.0 * np.pi / 2)
    assert abs(man.distance(p, q) - expect) < 1e-12


def test_frames_are_parallel_orthonormal():
    man = ModelManifold("product-spheres", 6, radii=(1.0, 2.0 ** 0.25), split=(3, 3))
    p = np.array([1.0, 0, 0, 0, 2.0 ** 0.25, 0])
    v = np.array([0, 0.8, 0, 0.6, 0, 0])
    times = np.linspace(0, 2.0, 101)
    frames, curv = man.parallel_frames(p, v, times)
    for k in (0, 50, 100):
        f = frames[k]
        assert np.allclose(f.T @ f, np.eye(f.shape[1]), atol=1e-12)
    # frame vectors transported from 0 match the frame at t
    for col in range(frames.shape[2]):
        moved = man.transport(p, v, 2.0, frames[0][:, col])
        assert np.max(np.abs(moved - frames[100][:, col])) < 1e-10
    assert np.min(np.diag(curv)) >= 0.0


@st.composite
def manifolds(draw):
    """A model manifold of each kind, with drawn dimensions, radii and split."""
    kind = draw(st.sampled_from(("euclidean", "sphere", "product-spheres")))
    if kind != "product-spheres":
        return ModelManifold(kind, draw(st.integers(2, 5)))
    split = (draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    radii = (draw(st.floats(0.25, 4.0)), draw(st.floats(0.25, 4.0)))
    return ModelManifold(kind, sum(split), radii=radii, split=split)


def point_on(man, rng):
    p = rng.standard_normal(man.ambient_dim)
    for s, r in man.factors:
        if r:
            p[s] *= r / np.linalg.norm(p[s])
    return p


@settings(max_examples=60, deadline=None)
@given(man=manifolds(), seed=st.integers(0, 2 ** 16), a=st.integers(1, 3),
       b=st.integers(1, 3))
def test_tangent_methods_broadcast_over_stacks(man, seed, a, b):
    rng = np.random.default_rng(seed)
    d = man.ambient_dim
    p = point_on(man, rng)
    v = man.project_tangent(p, rng.standard_normal(d))
    x = rng.standard_normal((a, b, d))
    tx = man.project_tangent(p, x)
    y, z = man.project_tangent(p, rng.standard_normal((2, a, b, d)))
    moved = man.transport(p, v, 0.7, tx)
    curv = man.curvature(p, tx, y, z[:1])         # z broadcasts along the first axis
    assert tx.shape == moved.shape == curv.shape == (a, b, d)
    for i in range(a):
        for j in range(b):
            one = man.project_tangent(p, x[i, j])
            np.testing.assert_allclose(tx[i, j], one, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(moved[i, j], man.transport(p, v, 0.7, tx[i, j]),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(curv[i, j], man.curvature(p, tx[i, j], y[i, j],
                                                                 z[0, j]),
                                       rtol=1e-12, atol=1e-12)


def test_unit_product_is_the_two_spheres_joined():
    prod = ModelManifold("product-spheres", 7, radii=(1.0, 1.0), split=(3, 4))
    s1, s2 = ModelManifold("sphere", 3), ModelManifold("sphere", 4)
    rng = np.random.default_rng(4)
    p1, p2 = point_on(s1, rng), point_on(s2, rng)
    q1, q2 = point_on(s1, rng), point_on(s2, rng)
    v1, v2 = s1.project_tangent(p1, rng.standard_normal(3)), \
        s2.project_tangent(p2, rng.standard_normal(4))
    x1, x2 = (s.project_tangent(q, rng.standard_normal((3, s.ambient_dim)))
              for s, q in ((s1, p1), (s2, p2)))
    p, q, v, x = (np.concatenate(pair, axis=-1)
                  for pair in ((p1, p2), (q1, q2), (v1, v2), (x1, x2)))
    times = np.linspace(0.0, 2.0, 5)

    def same(got, want):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    assert prod.dim == s1.dim + s2.dim
    prod.validate_point(p)
    with pytest.raises(SymmetricSpaceError):
        prod.validate_point(np.concatenate([p1, 2.0 * p2]))
    same(prod.project_tangent(p, np.concatenate([q1, q2])),
         np.concatenate([s1.project_tangent(p1, q1), s2.project_tangent(p2, q2)]))
    for got, one, two in zip(prod.geodesic(p, v, times), s1.geodesic(p1, v1, times),
                             s2.geodesic(p2, v2, times)):
        same(got, np.concatenate([one, two], axis=1))
    same(prod.exp(p, v), np.concatenate([s1.exp(p1, v1), s2.exp(p2, v2)]))
    same(prod.transport(p, v, 0.8, x),
         np.concatenate([s1.transport(p1, v1, 0.8, x1), s2.transport(p2, v2, 0.8, x2)],
                        axis=-1))
    same(prod.curvature(p, x[0], x[1], x[2]),
         np.concatenate([s1.curvature(p1, *x1), s2.curvature(p2, *x2)]))
    same(prod.distance(p, q), np.hypot(s1.distance(p1, q1), s2.distance(p2, q2)))
    same(prod.log(p, q), np.concatenate([s1.log(p1, q1), s2.log(p2, q2)]))
    frames, curv = prod.parallel_frames(p, v, times)
    (f1, c1), (f2, c2) = s1.parallel_frames(p1, v1, times), s2.parallel_frames(p2, v2, times)
    same(frames[:, :3, :2], f1)
    same(frames[:, 3:, 2:], f2)
    same(frames[:, :3, 2:], 0.0)
    same(frames[:, 3:, :2], 0.0)
    same(curv, np.block([[c1, np.zeros((2, 3))], [np.zeros((3, 2)), c2]]))


@settings(max_examples=40, deadline=None)
@given(man=manifolds(), seed=st.integers(0, 2 ** 16))
def test_frame_curvature_matrix_is_the_curvature_in_frames(man, seed):
    rng = np.random.default_rng(seed)
    p = point_on(man, rng)
    v = man.project_tangent(p, rng.standard_normal(man.ambient_dim))
    times = np.linspace(0.0, 3.0, 31)
    gam, dgam = man.geodesic(p, v, times)
    frames, curv = man.parallel_frames(p, v, times)
    assert frames.shape == (31, man.ambient_dim, man.dim)
    for t in range(times.shape[0]):
        f = frames[t]
        # column a of R(f_a, gamma')gamma', in frame coordinates
        image = man.curvature(gam[t], f.T, dgam[t], dgam[t]) @ f
        np.testing.assert_allclose(image.T, curv, rtol=0, atol=1e-12 * max(1.0, np.max(curv)))


@settings(max_examples=60, deadline=None)
@given(man=manifolds(), seed=st.integers(0, 2 ** 16))
def test_log_inverts_exp(man, seed):
    rng = np.random.default_rng(seed)
    p = point_on(man, rng)
    v = man.project_tangent(p, rng.standard_normal(man.ambient_dim))
    for s, r in man.factors:
        if r:       # each sphere factor's leg shorter than half its great circle
            v[s] *= rng.uniform(0.1, 0.9) * np.pi * r / np.linalg.norm(v[s])
    np.testing.assert_allclose(man.log(p, man.exp(p, v)), v, rtol=0, atol=1e-10)
    assert abs(man.distance(p, man.exp(p, v)) - np.linalg.norm(v)) < 1e-10
