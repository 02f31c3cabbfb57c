import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from polaris import linalg


def test_orthonormalize_drops_dependent_rows():
    rows = np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 3.0, 0]])
    q = linalg.orthonormalize(rows)
    assert q.shape == (2, 3)
    assert np.allclose(q @ q.T, np.eye(2), atol=1e-12)


def test_orthonormalize_respects_gram():
    gram = np.diag([4.0, 1.0])
    q = linalg.orthonormalize(np.array([[1.0, 0.0], [1.0, 1.0]]), gram)
    assert np.allclose(q @ gram @ q.T, np.eye(2), atol=1e-12)


def test_kernel_of_zero_map_is_everything():
    assert linalg.kernel(np.zeros((3, 4))).shape == (4, 4)


def test_kernel_orthogonal_to_rows():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 5))
    k = linalg.kernel(a)
    assert k.shape == (3, 5)
    assert np.max(np.abs(a @ k.T)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(0, 7),
       st.integers(0, 6), st.integers(0, 2))
def test_complement_dimensions(seed, n, k, r, zeros):
    # rank-deficient, full-rank and (0, n) rows, with zero rows mixed in
    rng = np.random.default_rng(seed)
    r = min(r, k, n)
    rows = rng.standard_normal((k, r)) @ rng.standard_normal((r, n))
    rows = np.insert(rows, rng.integers(0, k + 1, size=zeros), 0.0, axis=0)
    comp = linalg.complement(rows, n)
    assert comp.shape == (n - linalg.svd_rank(rows), n)
    assert np.allclose(comp @ comp.T, np.eye(comp.shape[0]), atol=1e-12)
    scale = max(1.0, np.max(np.abs(rows), initial=0.0))
    assert np.max(np.abs(rows @ comp.T), initial=0.0) < 1e-12 * scale


def test_principal_angles_detect_equality_and_orthogonality():
    a = np.eye(3)[:2]
    assert np.max(linalg.principal_angles(a, a)) < 1e-12
    b = np.eye(3)[2:]
    assert abs(np.max(linalg.principal_angles(a, b)) - np.pi / 2) < 1e-12


def test_principal_angles_resolve_small_angles():
    rng = np.random.default_rng(0)
    gram = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    for metric in (None, gram):
        for _ in range(100):
            # another orthonormal basis of the same plane reads as equal
            a = linalg.orthonormalize(rng.standard_normal((2, 5)), metric)
            t = rng.uniform(0.0, 2 * np.pi)
            b = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]]) @ a
            assert np.max(linalg.principal_angles(a, b, metric)) < 1e-12
            assert linalg.subspaces_equal(a, b, metric)
        # angles far below arccos resolution are kept, and orthogonal planes read pi/2
        e = linalg.orthonormalize(np.eye(5), metric)
        tilted = np.array([np.cos(1e-10) * e[0] + np.sin(1e-10) * e[2], e[1]])
        assert abs(np.max(linalg.principal_angles(e[:2], tilted, metric)) - 1e-10) < 1e-20
        assert np.allclose(linalg.principal_angles(e[:2], e[2:4], metric), np.pi / 2,
                           rtol=0.0, atol=1e-12)


def test_span_residual_inside_and_outside():
    basis = np.eye(4)[:2]
    assert linalg.span_residual(basis, np.array([1.0, -2.0, 0, 0])) < 1e-14
    assert abs(linalg.span_residual(basis, np.array([0, 0, 3.0, 4.0])) - 5.0) < 1e-12


def test_span_residual_accepts_stacks():
    rng = np.random.default_rng(4)
    gram = np.diag([1.0, 2.0, 3.0, 4.0])
    basis = linalg.orthonormalize(rng.standard_normal((2, 4)), gram)
    x = rng.standard_normal((3, 2, 4))
    res = linalg.span_residual(basis, x, gram)
    assert res.shape == (3, 2)
    for i in range(3):
        for j in range(2):
            one = linalg.span_residual(basis, x[i, j], gram)
            assert isinstance(one, float)
            assert abs(res[i, j] - one) < 1e-12


def test_robust_failure_gray_zone_raises():
    assert not linalg.robust_failure(1e-10)
    assert linalg.robust_failure(1e-3)
    with pytest.raises(linalg.IndeterminateVerdict):
        linalg.robust_failure(1e-7)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (4, 6), elements=st.floats(-10, 10)))
def test_orthonormalize_idempotent_span(rows):
    q = linalg.orthonormalize(rows)
    if q.shape[0] == 0:
        return
    assert np.allclose(q @ q.T, np.eye(q.shape[0]), atol=1e-9)
    for r in rows:
        # residual after projecting r on q is zero: q spans the rows
        assert linalg.span_residual(q, r) < 1e-7 * max(1.0, np.linalg.norm(r))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(0, 3),
       st.integers(1, 6))
def test_orthonormalize_stack_matches_gram_schmidt(seed, k, extra, n):
    # well-conditioned full-rank stacks: the sign-fixed QR and modified
    # Gram-Schmidt agree to rounding
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, k, k + extra))
    s = np.linalg.svd(a, compute_uv=False)
    assume(np.all(s[:, -1] > 1e-2 * s[:, 0]))
    q = linalg.orthonormalize_stack(a)
    for ai, qi in zip(a, q):
        assert np.max(np.abs(qi - linalg.orthonormalize(ai))) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 5))
def test_stacked_rank_and_row_space_match_scalar(seed, k, n):
    # ranks 0..k, zero rows included, decided as svd_rank decides them
    rng = np.random.default_rng(seed)
    m = k + 1
    a = np.stack([rng.standard_normal((k, r)) @ rng.standard_normal((r, m))
                  for r in rng.integers(0, k + 1, size=n)])
    ranks = linalg.svd_rank(a)
    rows = linalg.row_space_stack(a)
    for ai, ri, bi in zip(a, ranks, rows):
        assert ri == linalg.svd_rank(ai)
        assert np.allclose(bi @ bi.T, np.diag([1.0] * ri + [0.0] * (bi.shape[0] - ri)),
                           atol=1e-12)
        assert np.allclose(ai @ bi.T @ bi, ai, atol=1e-10)
