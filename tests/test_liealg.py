import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polaris as pl
from polaris import liealg, linalg
from polaris.liealg import LieAlgebra, LieAlgebraError, Subspace

from oracles import full_space

EYE3 = np.eye(3)


def commutator_oracle(alg, x, y):
    """Bracket through the matrix realization, independent of the tensor."""
    m = alg.realize(x) @ alg.realize(y) - alg.realize(y) @ alg.realize(x)
    return alg.coordinates(m)


# -- build_classical ----------------------------------------------------------

def test_torus_is_abelian():
    t2 = pl.build_classical("torus", 2)
    assert t2.dim == 2
    assert np.max(np.abs(t2.structure)) == 0.0


def test_su2_cyclic_after_normalisation(su2):
    # metric scale 2 makes the orthonormal basis bracket cyclically
    assert su2.dim == 3
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        assert np.allclose(su2.bracket(EYE3[i], EYE3[j]), EYE3[k], atol=1e-12)


def test_so3_matches_su2_structure(su2):
    from polaris.catalog import so3_cyclic
    so3 = so3_cyclic()
    assert np.allclose(so3.structure, su2.structure, atol=1e-12)


def test_default_scale_is_minus_trace():
    alg = pl.build_classical("special-unitary", 2)
    # orthonormal against -trace; brackets then carry sqrt(2)
    got = alg.bracket(EYE3[0], EYE3[1])
    assert abs(np.linalg.norm(got) - np.sqrt(2)) < 1e-12
    x = alg.realize(EYE3[0])
    assert abs(-np.trace(x @ x).real - 1.0) < 1e-12


def test_dimensions_of_families():
    assert pl.build_classical("special-unitary", 3).dim == 8
    assert pl.build_classical("special-orthogonal", 4).dim == 6
    assert pl.build_classical("unitary", 2).dim == 4


def matrix_gram_schmidt_reference(family, n, scale):
    """Basis and structure constants by Gram-Schmidt on the matrices themselves."""
    def form(a, b):
        return -scale * float(np.trace(a @ b).real)

    basis = []
    for m in liealg._raw_basis(family, n):
        w = m.astype(complex)
        for _ in range(2):
            for q in basis:
                w = w - form(w, q) * q
        nw = np.sqrt(max(form(w, w), 0.0))
        if nw > 1e-12:
            basis.append(w / nw)
    mats = np.array(basis)
    c = np.array([[[form(mi @ mj - mj @ mi, mk) for mk in mats] for mj in mats]
                  for mi in mats])
    return mats, c


# every family, size and metric scale the catalog builds
@pytest.mark.parametrize("family, n, scale", [
    ("special-unitary", 2, 2.0), ("special-orthogonal", 3, 0.5),
    ("special-unitary", 3, 1.0), ("torus", 1, 1.0), ("special-orthogonal", 2, 1.0)])
def test_build_classical_matches_matrix_gram_schmidt(family, n, scale):
    alg = pl.build_classical(family, n, metric_scale=scale)
    mats, c = matrix_gram_schmidt_reference(family, n, scale)
    assert alg.structure.shape == c.shape
    assert np.max(np.abs(alg.structure - c)) < 1e-12
    assert np.max(np.abs(np.array(alg.realization) - mats)) < 1e-12


def test_build_rejects_bad_input():
    with pytest.raises(LieAlgebraError):
        pl.build_classical("special-unitary", 1)
    with pytest.raises(LieAlgebraError):
        pl.build_classical("symplectic", 2)


def test_realization_commutators_match_tensor(su2):
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y = rng.standard_normal((2, 3))
        assert np.allclose(su2.bracket(x, y), commutator_oracle(su2, x, y),
                           atol=1e-10)


# -- bracket / killing --------------------------------------------------------

def test_bracket_antisymmetry_and_abelian(su2):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(3)
    assert np.max(np.abs(su2.bracket(x, x))) < 1e-12
    t2 = pl.build_classical("torus", 2)
    assert np.max(np.abs(t2.bracket(*rng.standard_normal((2, 2))))) == 0.0


def test_bracket_dimension_mismatch(su2):
    with pytest.raises(LieAlgebraError):
        su2.bracket(np.ones(2), np.ones(3))
    with pytest.raises(LieAlgebraError):
        su2.bracket(np.ones((4, 3)), np.ones((4, 2)))


def test_bracket_and_ad_broadcast_over_stacks(su2):
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((2, 4, 3))
    pairs = su2.bracket(x[:, None], y[None])
    assert pairs.shape == (4, 4, 3)
    for i in range(4):
        assert np.allclose(su2.ad(x)[i], su2.ad(x[i]), atol=1e-15)
        for j in range(4):
            assert np.allclose(pairs[i, j], su2.bracket(x[i], y[j]), atol=1e-15)


def test_restrict_reads_structure_and_rejects_non_closed(su3_conj_pair):
    alg = su3_conj_pair.algebra
    k = alg.restrict(su3_conj_pair.k.basis, "so3")
    k.validate()
    for a, b in ((0, 1), (1, 2), (0, 2)):
        image = k.structure[a, b] @ su3_conj_pair.k.basis
        bracket = alg.bracket(su3_conj_pair.k.basis[a], su3_conj_pair.k.basis[b])
        assert np.allclose(image, bracket, atol=1e-12)
    assert len(k.realization) == 3
    with pytest.raises(LieAlgebraError, match="not closed"):
        alg.restrict(su3_conj_pair.p.basis[:2], "p")     # [p, p] lies in k


def test_validate_jacobi_memory_is_cubic_in_dim():
    # dim 64 is MAX_MODEL_DIM; a dim^4 Jacobi tensor alone would take 128 MB
    alg = LieAlgebra("t64", np.zeros((64, 64, 64)), np.eye(64))
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        alg.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_killing_su2_cyclic_basis(su2):
    # ad e1 assembled from the cyclic constants has trace(ad^2) = -2
    assert abs(su2.killing(EYE3[0], EYE3[0]) + 2.0) < 1e-12


def test_killing_torus_vanishes():
    t2 = pl.build_classical("torus", 2)
    assert t2.killing(np.array([1.0, 2.0]), np.array([3.0, -1.0])) == 0.0


def test_killing_symmetric_and_ad_invariant_seeded():
    su3 = pl.build_classical("special-unitary", 3)
    rng = np.random.default_rng(3)
    worst_sym = worst_ad = 0.0
    for _ in range(1000):
        x, y, z = rng.standard_normal((3, 8))
        worst_sym = max(worst_sym, abs(su3.killing(x, y) - su3.killing(y, x)))
        worst_ad = max(worst_ad, abs(su3.killing(su3.bracket(x, y), z)
                                     - su3.killing(x, su3.bracket(y, z))))
    assert worst_sym < 1e-9
    assert worst_ad < 1e-9


def test_killing_definiteness_compact_families():
    for family, n, semisimple in (("special-unitary", 3, True),
                                  ("special-orthogonal", 3, True),
                                  ("unitary", 2, False),
                                  ("torus", 2, False)):
        alg = pl.build_classical(family, n)
        mat = np.array([[alg.killing(r, c) for c in np.eye(alg.dim)]
                        for r in np.eye(alg.dim)])
        evals = np.linalg.eigvalsh(mat)
        assert np.max(evals) < 1e-10          # negative semidefinite
        if semisimple:
            assert np.max(evals) < -1e-6      # strictly negative


def test_jacobi_residual_for_every_family():
    for family, n in (("special-unitary", 2), ("special-unitary", 3),
                      ("special-orthogonal", 3), ("special-orthogonal", 4),
                      ("unitary", 2), ("torus", 3)):
        alg = pl.build_classical(family, n)
        c = alg.structure
        d = np.einsum("jkm,imr->ijkr", c, c)
        jac = d + np.einsum("ijkr->jkir", d) + np.einsum("ijkr->kijr", d)
        assert np.max(np.abs(jac)) < 1e-10


# -- subspace predicates --------------------------------------------------------

def test_lts_abelian_subspace_is_lts(su2):
    m = Subspace("su2", EYE3[:1])
    assert pl.is_lie_triple_system(su2, m).ok


def test_lts_cartan_p_is_lts(su3_conj_pair):
    res = pl.is_lie_triple_system(su3_conj_pair.algebra, su3_conj_pair.p)
    assert res.ok and res.residual < 1e-10


def test_lts_random_planes_fail_generically():
    su3 = pl.build_classical("special-unitary", 3)
    rng = np.random.default_rng(7)
    for _ in range(100):
        rows = linalg.orthonormalize(rng.standard_normal((2, 8)))
        res = pl.is_lie_triple_system(su3, Subspace("su3", rows))
        assert not res.ok
        assert res.residual > 1e-6
        assert res.witness is not None


def test_abelian_subspace_one_dimensional(su2):
    assert pl.is_abelian_subspace(su2, Subspace("su2", EYE3[1:2])).ok


def test_abelian_maximal_abelian_from_pair(su3_conj_pair):
    a = pl.maximal_abelian(su3_conj_pair, seed=0)
    assert pl.is_abelian_subspace(su3_conj_pair.algebra, a).ok


def test_p_of_su2_split_not_abelian(su2):
    theta = np.diag([1.0, -1.0, -1.0])
    pair = pl.cartan_decompose(su2, theta)
    res = pl.is_abelian_subspace(su2, pair.p)
    assert not res.ok and res.witness is not None


def test_centralizer_of_zero_is_whole_space(su2):
    w = full_space(su2)
    z = pl.centralizer_in(su2, np.zeros(3), w)
    assert z.dim == 3


def test_centralizer_of_basis_vector(su2):
    z = pl.centralizer_in(su2, EYE3[0], full_space(su2))
    assert z.dim == 1
    assert abs(abs(z.basis[0] @ EYE3[0]) - 1.0) < 1e-12


def test_centralizer_torus_everything():
    t3 = pl.build_classical("torus", 3)
    z = pl.centralizer_in(t3, np.array([1.0, -2.0, 0.5]), full_space(t3))
    assert z.dim == 3


# -- invariance under change of basis ------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_predicates_invariant_under_basis_rotation(seed):
    su3 = pl.build_classical("special-unitary", 3)
    rng = np.random.default_rng(seed)
    rows = linalg.orthonormalize(rng.standard_normal((3, 8)))
    sub = Subspace("su3", rows)
    # random rotation of the basis spans the same subspace
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = Subspace("su3", q @ rows)
    a, b = pl.is_lie_triple_system(su3, sub), pl.is_lie_triple_system(su3, rotated)
    assert a.ok == b.ok
    c, d = pl.is_abelian_subspace(su3, sub), pl.is_abelian_subspace(su3, rotated)
    assert c.ok == d.ok
