"""Dense linear-algebra helpers shared across the package.

Every subspace question (membership, rank, kernel, equality) is reduced to a
singular-value decision with a relative threshold, so verdicts do not depend
on the conditioning of whatever basis the caller happens to hold.  An
orthogonal complement is a kernel: ``kernel`` reads it off one SVD, past the
rank that the module's one singular-value cut (``_rank_mask``) decides.
Ordered orthonormal rows come from one kernel, the stacked QR of
``orthonormalize_stack`` with signs fixed so that diag R > 0: row i is the
unit part of input row i orthogonal to rows 0..i-1, as in modified
Gram-Schmidt, which fixes basis conventions (the cyclic su(2) basis of
``build_classical``, say) and keeps witnesses reproducible run to run;
``orthonormalize`` whitens one matrix by its metric, runs that kernel and
drops dependent rows.  The other stacked kernels take an (..., k, n) stack
of matrices too: ``svd_rank`` and ``svd_bases`` (the rank and both null
spaces, of which ``kernel`` is the one-matrix case) from one stacked SVD;
``row_space_stack`` from one stacked SVD or, for matrices of at most three
short rows such as a geodesic grid's orbit tangent spans, where LAPACK's
per-matrix overhead dominates, from one-sided Jacobi rotations vectorised
over the stack, with the same rank cut.  ``gram_norm``, ``project_span``
and ``span_residual`` also take an (..., n) stack of vectors.  Principal
angles come from cosines and sines together, so angles below the square
root of rounding are not lost.
"""

from __future__ import annotations

import math

import numpy as np

# Relative singular-value threshold for all rank/kernel decisions.
RANK_RTOL = 1e-9
# Singular values at or below it never count toward a rank.
RANK_ATOL = 1e-12
# Residual below which a span test counts as "inside".
SPAN_TOL = 1e-8
# Residual a negative verdict must reach before it is reported as robust.
WITNESS_FLOOR = 1e-6
# Entries this close (relative) to the largest count as a maximum for witnesses.
TIE_RTOL = 1e-12
# Most sweeps of the row-space Jacobi rotations before they count as failed;
# hostile matrices (zero and duplicated rows, singular values down to 1e-16,
# scales 1e-11 to 1e150) took at most 6 on the shapes row_space_stack gives
# them, and 17 at 64 x 64.
JACOBI_SWEEPS = 30
# row_space_stack hands stacks of matrices with at most JACOBI_MAX_ROWS rows
# of length at most JACOBI_MAX_COLS to the Jacobi rotations, the rest to
# LAPACK: the rotations cost k(k - 1)/2 pair steps of a dozen numpy passes
# per sweep, so LAPACK wins on more or longer rows.  The choice depends on
# the matrices' shape only, so a stack split into blocks gives the same rows.
JACOBI_MAX_ROWS = 3
JACOBI_MAX_COLS = 16


class IndeterminateVerdict(RuntimeError):
    """A residual fell between rounding noise and a robust witness.

    The caller should re-run with adjusted tolerances instead of trusting
    either answer.
    """


def as_matrix(rows) -> np.ndarray:
    return np.atleast_2d(np.asarray(rows, dtype=float))


def gram_norm(x: np.ndarray, gram: np.ndarray | None = None):
    """Norm of one vector (a float) or of every vector of an (..., n) stack."""
    if x.ndim == 1:
        return float(np.sqrt(max(float(x @ x if gram is None else x @ gram @ x), 0.0)))
    sq = np.einsum("...i,...i->...", x if gram is None else x @ gram, x)
    return np.sqrt(np.maximum(sq, 0.0))


def orthonormalize(rows, gram: np.ndarray | None = None, rtol: float = RANK_RTOL) -> np.ndarray:
    """Modified Gram-Schmidt's rows, orthonormal in ``gram`` (default: dot).

    Row i is the unit part of input row i orthogonal to the rows kept before
    it; a row is dropped when that part is at most ``rtol`` times the longest
    row, in the metric.  The rows are whitened by an ``eigh`` square root of
    ``gram`` for ``orthonormalize_stack``, whose R_ii are those parts.  When
    a QR finds a short one at i, every later row within the cut of the span
    of rows 0..i-1 is dropped at once, so a (k, n) input takes at most
    min(k, n) + 1 QRs.
    """
    a = as_matrix(rows)
    if a.size == 0:
        return a.reshape(0, a.shape[1] if a.ndim == 2 else 0)
    # an exact rescale to a largest entry in [0.5, 1): no length over- or underflows
    a = np.ldexp(a, -np.frexp(np.max(np.abs(a)))[1])
    if gram is not None:
        lam, vec = np.linalg.eigh((gram + gram.T) / 2)
        # eigh may round a positive eigenvalue below zero: floor them at rounding
        root = np.sqrt(np.maximum(lam, np.finfo(float).eps * lam[-1]))
        a = a @ (vec * root)
    lengths = np.linalg.norm(a, axis=1)
    cut = rtol * np.max(lengths)
    a = a[lengths > cut]        # no row's orthogonal part is longer than the row
    known = 0                   # rows a[:known] are kept
    while True:
        q = orthonormalize_stack(a)
        short = np.flatnonzero(np.einsum("ij,ij->i", q, a[:q.shape[0]])[known:] <= cut)
        if not short.size:
            break
        i = known + short[0]
        q, rest = q[:i], a[i:]
        a = np.concatenate([a[:i], rest[np.linalg.norm(rest - (rest @ q.T) @ q, axis=1) > cut]])
        if a.shape[0] == i:
            break
        known = i + 1
    return q if gram is None else q @ (vec / root).T


def svd_rank(a: np.ndarray):
    """Rank of a matrix (an int), or of every matrix of an (..., k, n) stack
    (an integer array), from one stacked SVD."""
    a = as_matrix(a)
    ranks = np.count_nonzero(_rank_mask(np.linalg.svd(a, compute_uv=False)), axis=-1)
    return int(ranks) if a.ndim == 2 else ranks


def _rank_mask(s: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Singular values that count toward the rank.

    ``s`` is an (..., k) stack of descending singular values; a value counts
    when it exceeds both ``rtol`` times the largest of its row and
    ``RANK_ATOL``.  Every rank and kernel decision in this module goes
    through this cut.
    """
    return s > np.maximum(rtol * s[..., :1], RANK_ATOL)


def row_space_stack(a: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal row-space rows of every matrix of an (..., k, n) stack.

    Returns an (..., min(k, n), n) stack.  The rows past each matrix's rank
    (decided as in ``svd_rank`` at the relative threshold ``rtol``) are
    zero, so ``b.T @ b`` is the projector onto the row space, the padding
    drops out of sums, and the count of nonzero rows is the rank.  Stacks
    of matrices with at most ``JACOBI_MAX_ROWS`` rows of length at most
    ``JACOBI_MAX_COLS`` go to ``_jacobi_row_space``, the rest to one
    stacked SVD.  Raises ``np.linalg.LinAlgError`` on non-finite entries
    and when either method fails to converge.
    """
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise np.linalg.LinAlgError("row space of a matrix with non-finite entries")
    if a.shape[-2] <= JACOBI_MAX_ROWS and a.shape[-1] <= JACOBI_MAX_COLS:
        return _jacobi_row_space(a, rtol)
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    return vh * _rank_mask(s, rtol)[..., None]


def _jacobi_row_space(a: np.ndarray, rtol: float) -> np.ndarray:
    """``row_space_stack`` of a finite stack by one-sided Jacobi rotations.

    One-sided (Hestenes) Jacobi rotations of the rows, applied to every
    matrix of the stack at once (Demmel and Veselic, SIAM J. Matrix Anal.
    Appl. 13, 1992): a pair of rows is rotated until it is orthogonal to
    within sqrt(n) times rounding, and the mutually orthogonal rows left
    span the row space with the singular values as their lengths.  Each
    matrix is first scaled by a power of two so that its largest entry lies
    in [0.5, 1); the rows are then sorted longest first and cut at ``rtol``
    as ``svd_rank`` cuts singular values, on the unscaled lengths.  Raises
    ``np.linalg.LinAlgError`` when ``JACOBI_SWEEPS`` sweeps leave a pair
    unconverged.
    """
    *stack, k, n = a.shape
    r, count = min(k, n), math.prod(stack)
    # b[i] is row i of every matrix, an (n, matrices) array, so each step
    # below is a few elementwise operations on contiguous arrays
    b = np.ascontiguousarray(a.reshape(count, k * n).T)
    exp = np.frexp(np.max(np.abs(b), axis=0, initial=0.0))[1]
    b = np.ldexp(b, -exp)
    eps = np.finfo(float).eps
    # rows shorter than eps times the matrix norm, which the rotations keep,
    # are rounding noise, and rotating two of them need never converge
    floor = eps ** 2 * np.einsum("it,it->t", b, b)
    b = b.reshape(k, n, count)
    threshold = np.sqrt(n) * eps
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for _ in range(JACOBI_SWEEPS):
        rotated = False
        for i, j in pairs:
            bi, bj = b[i], b[j]
            alpha = np.einsum("nt,nt->t", bi, bi)
            beta = np.einsum("nt,nt->t", bj, bj)
            gamma = np.einsum("nt,nt->t", bi, bj)
            rotate = (np.abs(gamma) > threshold * np.sqrt(alpha * beta)) \
                & (alpha > floor) & (beta > floor)
            if not np.any(rotate):
                continue
            rotated = True
            # tan of the angle that makes the pair orthogonal, the smaller root
            # of t^2 + 2 zeta t - 1 = 0; t = 0 leaves a converged pair as it is
            zeta = (beta - alpha) / (2.0 * np.where(rotate, gamma, 1.0))
            t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta))
            t = np.where(rotate, t, 0.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            b[i], b[j] = c * bi - s * bj, s * bi + c * bj
        if not rotated:
            break
    else:
        raise np.linalg.LinAlgError(
            f"row-space Jacobi rotations did not converge in {JACOBI_SWEEPS} sweeps")
    norms = np.sqrt(np.einsum("knt,knt->kt", b, b))
    order = np.argsort(-norms, axis=0, kind="stable")[:r]
    norms = np.take_along_axis(norms, order, axis=0)
    keep = _rank_mask(np.ldexp(norms, exp).T, rtol).T
    scale = np.where(keep, 1.0 / np.where(keep, norms, 1.0), 0.0)
    rows = np.take_along_axis(b, order[:, None, :], axis=0) * scale[:, None, :]
    return np.ascontiguousarray(rows.transpose(2, 0, 1)).reshape(*stack, r, n)


def orthonormalize_stack(rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows for every full-rank (k, n) matrix of a stack, k <= n.

    One stacked QR of the transposes, with each column of Q flipped so that
    diag R > 0: row i of the result is the unit part of input row i
    orthogonal to rows 0..i-1, the row modified Gram-Schmidt gives, to
    rounding.  Rows are scaled to unit length first, which leaves that
    result unchanged and makes its error, like Gram-Schmidt's, independent
    of how unequal the row lengths are.  Nothing is dropped, so every
    matrix must have full row rank.
    """
    rows = rows / np.linalg.norm(rows, axis=-1, keepdims=True)
    q, r = np.linalg.qr(np.swapaxes(rows, -1, -2))
    q *= np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0, -1.0, 1.0)[..., None, :]
    return np.swapaxes(q, -1, -2)


def svd_bases(a: np.ndarray, rtol: float = RANK_RTOL):
    """Rank and both singular bases of every matrix of an (..., k, n) stack,
    from one stacked SVD.

    Returns ``(rank, left, right)``: ``left`` (..., k, k) and ``right``
    (..., n, n) hold the left and right singular vectors as rows, so rows
    ``rank:`` of ``left`` span the null space of the transpose and rows
    ``rank:`` of ``right`` the null space of the matrix.  A zero matrix gets
    identities and rank 0.
    """
    a = np.asarray(a, dtype=float)
    u, s, vh = np.linalg.svd(a)
    zero = ~np.any(a, axis=(-2, -1))[..., None, None]
    left = np.where(zero, np.eye(a.shape[-2]), np.swapaxes(u, -1, -2))
    right = np.where(zero, np.eye(a.shape[-1]), vh)
    return np.count_nonzero(_rank_mask(s, rtol), axis=-1), left, right


def kernel(a: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal rows spanning the null space of ``a`` (standard metric):
    the right singular vectors past the rank; a zero ``a`` gives the identity."""
    rank, _, right = svd_bases(as_matrix(a), rtol)
    return right[rank:]


def complement(rows, ambient_dim: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of ``rows`` in R^ambient_dim."""
    return kernel(np.reshape(rows, (-1, ambient_dim)))


def project_span(basis_rows: np.ndarray, x: np.ndarray,
                 gram: np.ndarray | None = None) -> np.ndarray:
    """Projection of ``x``, one vector or an (..., n) stack, onto the span of
    gram-orthonormal ``basis_rows`` (``gram`` symmetric)."""
    b = as_matrix(basis_rows)
    x = np.asarray(x, dtype=float)
    if b.shape[0] == 0:
        return np.zeros_like(x)
    return ((x if gram is None else x @ gram) @ b.T) @ b


def span_residual(basis_rows: np.ndarray, x: np.ndarray,
                  gram: np.ndarray | None = None):
    """Distance from ``x`` to the span of gram-orthonormal ``basis_rows``.

    A float for one vector; for an (..., n) stack, the array of distances.
    """
    x = np.asarray(x, float)
    return gram_norm(x - project_span(basis_rows, x, gram), gram)


def principal_angles(a_rows: np.ndarray, b_rows: np.ndarray,
                     gram: np.ndarray | None = None) -> np.ndarray:
    """Principal angles between two subspaces given by gram-orthonormal rows.

    The cosines are the singular values of the cross pairing, the sines those
    of the part of ``b`` outside span(``a``), in the metric; ``arctan2`` of
    the two keeps small angles, which ``arccos`` rounds to zero below about
    1.5e-8.  Ascending sines pair with descending cosines.
    """
    a = as_matrix(a_rows)
    b = as_matrix(b_rows)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros(0)
    m = a @ (b.T if gram is None else gram @ b.T)       # m[i, j] = <a_i, b_j>
    cos = np.linalg.svd(m, compute_uv=False)
    perp = b - m.T @ a
    if gram is not None:
        perp = perp @ np.linalg.cholesky(gram)
    sin = np.linalg.svd(perp, compute_uv=False)[::-1][:cos.shape[0]]
    return np.arctan2(sin, cos)


def subspaces_equal(a_rows: np.ndarray, b_rows: np.ndarray,
                    gram: np.ndarray | None = None, tol: float = 1e-8) -> bool:
    a = as_matrix(a_rows)
    b = as_matrix(b_rows)
    if a.shape[0] != b.shape[0]:
        return False
    if a.shape[0] == 0:
        return True
    ang = principal_angles(a, b, gram)
    return bool(np.max(ang) < tol)


def first_max(values: np.ndarray) -> tuple:
    """Index (C order) of the first entry within ``TIE_RTOL`` of the largest.

    Residuals that are equal in exact arithmetic (by the antisymmetry of a
    bracket, say) then give the same witness whatever their rounding.
    """
    top = np.max(values)
    flat = np.argmax(values >= top - TIE_RTOL * abs(top))
    return tuple(int(i) for i in np.unravel_index(flat, values.shape))


def robust_failure(residual: float, tol: float = SPAN_TOL,
                   what: str = "span test") -> bool:
    """True when ``residual`` is a robust failure, False when it passes.

    Residuals between ``tol`` and ``WITNESS_FLOOR`` are neither rounding
    noise nor a trustworthy witness; those raise IndeterminateVerdict.
    """
    if residual < tol:
        return False
    if residual >= WITNESS_FLOOR:
        return True
    raise IndeterminateVerdict(
        f"{what}: residual {residual:.3e} lies between the pass tolerance "
        f"{tol:.1e} and the witness floor {WITNESS_FLOOR:.1e}; adjust tolerances"
    )
