import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from polaris import linalg
from polaris.transversal import OrbitGeodesic, TransversalSystem


def gram_schmidt_reference(rows, gram=None, rtol=linalg.RANK_RTOL):
    """Modified Gram-Schmidt with a re-orthogonalisation pass, the loop that
    ``linalg.orthonormalize`` replaced, kept as its oracle.

    Returns the orthonormal rows, the length of every input row's part
    orthogonal to the rows kept before it, and the cut those lengths were
    compared with.
    """
    a = linalg.as_matrix(rows)
    if a.size == 0:
        return a.reshape(0, a.shape[1] if a.ndim == 2 else 0), np.zeros(0), 0.0

    def dot(x, y):
        return float(x @ y if gram is None else x @ gram @ y)

    a = np.ldexp(a, -np.frexp(np.max(np.abs(a)))[1])
    cut = rtol * max(np.sqrt(max(dot(v, v), 0.0)) for v in a)
    out, lengths = [], []
    for v in a:
        w = v.copy()
        for _ in range(2):
            for q in out:
                w = w - dot(w, q) * q
        nw = np.sqrt(max(dot(w, w), 0.0))
        lengths.append(nw)
        if nw > cut:
            out.append(w / nw)
    return np.array(out).reshape(-1, a.shape[1]), np.array(lengths), cut


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
        assert np.max(np.abs(qi - gram_schmidt_reference(ai)[0])) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.integers(1, 7), st.integers(0, 7),
       st.integers(0, 3), st.booleans(), st.integers(-600, 600))
def test_orthonormalize_matches_gram_schmidt(seed, k, n, rank, copies, metric, exponent):
    # rank-deficient rows with duplicated rows mixed in, at scales 2^-600..2^600
    rng = np.random.default_rng(seed)
    rank = min(rank, k, n)
    rows = rng.standard_normal((k, rank)) @ rng.standard_normal((rank, n))
    for _ in range(copies):
        rows = np.insert(rows, rng.integers(0, len(rows) + 1), rows[rng.integers(len(rows))], 0)
    rows = np.ldexp(rows, exponent)
    gram = None
    if metric:
        m = rng.standard_normal((n, n))
        gram = m @ m.T + n * np.eye(n)
    want, lengths, cut = gram_schmidt_reference(rows, gram)
    # where no residual lies near the cut, both keep the same rows, to rounding
    assume(np.all((lengths > 10 * cut) | (lengths <= cut / 10)))
    got = linalg.orthonormalize(rows, gram)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-10


@pytest.fixture
def qr_calls(monkeypatch):
    calls = []
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        calls.append(1)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


def test_orthonormalize_takes_at_most_one_qr_per_kept_row_and_one_more(qr_calls):
    rng = np.random.default_rng(3)
    e = np.eye(4)
    # every other row repeats the one before it: each QR finds a new short row
    cases = [np.repeat(e, 2, axis=0), np.zeros((3, 4)), rng.standard_normal((6, 4)),
             rng.standard_normal((7, 2)) @ rng.standard_normal((2, 5)), e[[0, 0, 0, 1, 1, 2]]]
    for rows in cases:
        qr_calls.clear()
        linalg.orthonormalize(rows)
        assert len(qr_calls) <= min(rows.shape) + 1
    # a rank-1 input drops all its later rows at once, however many there are
    for rank in (1, 64):
        qr_calls.clear()
        q = linalg.orthonormalize(rng.standard_normal((5000, rank)) @ rng.standard_normal((rank, 64)))
        assert q.shape == (rank, 64)
        assert len(qr_calls) <= 2


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


def lapack_row_space(a, rtol=linalg.RANK_RTOL):
    """Row-space rows and singular values of a stack from LAPACK's SVD."""
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    return vh * linalg._rank_mask(s, rtol)[..., None], s


def hostile_matrix(data, rng, k, n):
    """A (k, n) matrix times 1e-11..1e150: zero and duplicated rows inserted
    into a block whose singular values lie in [0.1, 1], where the rank
    counts them, and in [1e-16, 1e-12], below the rank cut."""
    zeros = data.draw(st.integers(0, k - 1))
    dups = data.draw(st.integers(0, k - 1 - zeros))
    base = k - zeros - dups
    big = data.draw(st.integers(0, min(base, n)))
    small = data.draw(st.integers(0, min(base, n) - big)) if big else 0
    s = np.concatenate([rng.uniform(0.1, 1.0, big), 10.0 ** rng.uniform(-16, -12, small)])
    u = np.linalg.qr(rng.standard_normal((base, base)))[0][:, :s.size]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :s.size]
    m = (u * s) @ v.T
    for _ in range(dups):
        m = np.insert(m, rng.integers(0, m.shape[0] + 1), m[rng.integers(0, base)], axis=0)
    m = np.insert(m, rng.integers(0, m.shape[0] + 1, size=zeros), 0.0, axis=0)
    return m * 10.0 ** data.draw(st.floats(-11, 150))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 2 ** 32 - 1), st.integers(1, 7),
       st.integers(1, linalg.JACOBI_MAX_COLS), st.integers(1, 4))
def test_jacobi_row_space_matches_lapack(data, seed, k, n, count):
    # the kernel itself, on more rows than row_space_stack ever gives it
    rng = np.random.default_rng(seed)
    a = np.stack([hostile_matrix(data, rng, k, n) for _ in range(count)])
    rows = linalg._jacobi_row_space(a, linalg.RANK_RTOL)
    want, s = lapack_row_space(a)
    assert rows.shape == want.shape == (count, min(k, n), n)
    cut = np.maximum(linalg.RANK_RTOL * s[:, :1], linalg.RANK_ATOL)
    clear = np.all((s > 10 * cut) | (s < cut / 10), axis=-1)
    for b, ref, sure in zip(rows, want, clear):
        rank = np.count_nonzero(np.any(b, axis=-1))
        assert not np.any(b[rank:])                  # nonzero rows first
        if not sure:
            continue
        assert rank == np.count_nonzero(np.any(ref, axis=-1))
        assert np.max(np.abs(b.T @ b - ref.T @ ref)) < 1e-12
        assert np.max(np.abs(b[:rank] @ b[:rank].T - np.eye(rank)), initial=0.0) < 2e-15


@pytest.mark.parametrize("shape, jacobi", [
    ((500, linalg.JACOBI_MAX_ROWS, linalg.JACOBI_MAX_COLS), True),
    ((2, 3, 1, 3), True),
    ((500, linalg.JACOBI_MAX_ROWS + 1, 4), False),
    ((500, 3, linalg.JACOBI_MAX_COLS + 1), False),
    ((64, 28, 8), False),
])
def test_row_space_stack_takes_jacobi_only_for_few_short_rows(shape, jacobi, monkeypatch):
    *stack, k, n = shape
    rng = np.random.default_rng(1)
    r = max(min(k, n) - 1, 1)
    a = rng.standard_normal((*stack, k, r)) @ rng.standard_normal((*stack, r, n))
    calls = []
    kernel = linalg._jacobi_row_space

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(linalg, "_jacobi_row_space", counted)
    rows = linalg.row_space_stack(a)
    assert bool(calls) == jacobi
    want, _ = lapack_row_space(a)
    assert rows.shape == want.shape
    proj = np.swapaxes(rows, -1, -2) @ rows - np.swapaxes(want, -1, -2) @ want
    assert np.max(np.abs(proj)) < 1e-12


def test_row_space_stack_raises_past_the_sweep_cap_and_on_nan(monkeypatch):
    a = np.random.default_rng(0).standard_normal((8, 3, 4))
    linalg.row_space_stack(a)
    monkeypatch.setattr(linalg, "JACOBI_SWEEPS", 1)
    with pytest.raises(np.linalg.LinAlgError):
        linalg.row_space_stack(a)
    monkeypatch.undo()
    with pytest.raises(np.linalg.LinAlgError):
        linalg.row_space_stack(np.where(np.eye(3, 4) > 0, np.nan, a))


def test_transversal_system_makes_no_svd_call(bundles, monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    for name in ("hopf_s1_s3", "so3_s2xs2"):
        b = bundles[name]
        geod = OrbitGeodesic(b["rep"], b["manifold"], b["basepoint"], b["direction"])
        monkeypatch.setattr(np.linalg, "svd", counted)
        system = TransversalSystem(geod)
        monkeypatch.undo()
        assert system.vanishing.size == 0
        assert calls == [], name
