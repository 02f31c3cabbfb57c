"""Dense linear-algebra helpers shared across the package.

Every subspace question (membership, rank, kernel, equality) is reduced to a
singular-value decision with a relative threshold, so verdicts do not depend
on the conditioning of whatever basis the caller happens to hold.  An
orthogonal complement is a kernel: ``kernel`` reads it off one SVD, past the
rank that the module's one singular-value cut (``_rank_mask``) decides.
Gram-Schmidt remains only in ``orthonormalize``, modified Gram-Schmidt with
one re-orthogonalisation pass: its row i is the unit part of input row i
orthogonal to rows 0..i-1, which fixes basis conventions (the cyclic su(2)
basis of ``build_classical``, say) and keeps witness vectors reproducible
run to run.  The stacked kernels take an (..., k, n) stack of matrices and
answer for every matrix at once from one LAPACK call: ``svd_rank`` and
``row_space_stack`` from one stacked SVD; ``orthonormalize_stack`` from
one stacked QR whose signs are fixed so that diag R > 0, which makes its
rows the ones modified Gram-Schmidt gives for a full-rank matrix, to
rounding.  ``gram_norm``, ``project_span`` and ``span_residual`` also take
an (..., n) stack of vectors.  Principal angles come from cosines and
sines together, so angles below the square root of rounding are not lost.
"""

from __future__ import annotations

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


class IndeterminateVerdict(RuntimeError):
    """A residual fell between rounding noise and a robust witness.

    The caller should re-run with adjusted tolerances instead of trusting
    either answer.
    """


def as_matrix(rows) -> np.ndarray:
    a = np.atleast_2d(np.asarray(rows, dtype=float))
    return a


def gram_dot(x: np.ndarray, y: np.ndarray, gram: np.ndarray | None = None) -> float:
    if gram is None:
        return float(np.dot(x, y))
    return float(x @ gram @ y)


def gram_norm(x: np.ndarray, gram: np.ndarray | None = None):
    """Norm of one vector (a float) or of every vector of an (..., n) stack."""
    if x.ndim == 1:
        return float(np.sqrt(max(gram_dot(x, x, gram), 0.0)))
    sq = np.einsum("...i,...i->...", x if gram is None else x @ gram, x)
    return np.sqrt(np.maximum(sq, 0.0))


def orthonormalize(rows, gram: np.ndarray | None = None, rtol: float = RANK_RTOL) -> np.ndarray:
    """Modified Gram-Schmidt with a re-orthogonalisation pass.

    Returns a (k, n) array of rows orthonormal with respect to ``gram``
    (standard dot product when omitted); near-dependent inputs are dropped
    at the relative threshold ``rtol``.
    """
    a = as_matrix(rows)
    if a.size == 0:
        return a.reshape(0, a.shape[1] if a.ndim == 2 else 0)
    # Rescale by a power of two so the largest entry lies in [0.5, 1): the
    # squared norms below then neither underflow nor overflow, and since the
    # scaling is exact the result is bitwise the same for ordinary inputs.
    a = np.ldexp(a, -np.frexp(np.max(np.abs(a)))[1])
    scale = max(gram_norm(v, gram) for v in a)
    if scale == 0.0:
        return np.zeros((0, a.shape[1]))
    out: list[np.ndarray] = []
    for v in a:
        w = v.astype(float).copy()
        for _ in range(2):  # second pass controls cancellation drift
            for q in out:
                w = w - gram_dot(w, q, gram) * q
        nw = gram_norm(w, gram)
        if nw > rtol * scale:
            out.append(w / nw)
    if not out:
        return np.zeros((0, a.shape[1]))
    return np.array(out)


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

    Returns an (..., min(k, n), n) stack from one stacked SVD.  The rows past
    each matrix's rank (decided as in ``svd_rank`` at the relative threshold
    ``rtol``) are zero, so ``b.T @ b`` is the projector onto the row space,
    the padding drops out of sums, and the count of nonzero rows is the rank.
    """
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    return vh * _rank_mask(s, rtol)[..., None]


def orthonormalize_stack(rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows for every full-rank (k, n) matrix of a stack, k <= n.

    One stacked QR of the transposes, with each column of Q flipped so that
    diag R > 0: row i of the result is the unit part of input row i
    orthogonal to rows 0..i-1, the rows ``orthonormalize`` gives, to
    rounding.  Rows are scaled to unit length first, which leaves that
    result unchanged and makes its error, like Gram-Schmidt's, independent
    of how unequal the row lengths are.  Nothing is dropped, so every
    matrix must have full row rank.
    """
    rows = rows / np.linalg.norm(rows, axis=-1, keepdims=True)
    q, r = np.linalg.qr(np.swapaxes(rows, -1, -2))
    q *= np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0, -1.0, 1.0)[..., None, :]
    return np.swapaxes(q, -1, -2)


def kernel(a: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal rows spanning the null space of ``a`` (standard metric):
    the right singular vectors past the rank; a zero ``a`` gives the identity."""
    a = as_matrix(a)
    if not np.any(a):
        return np.eye(a.shape[1])
    _, s, vh = np.linalg.svd(a)
    return vh[np.count_nonzero(_rank_mask(s, rtol)):]


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
