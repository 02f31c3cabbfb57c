"""Finite-dimensional Lie algebra arithmetic over explicit structure constants.

A :class:`LieAlgebra` stores the bracket as a rank-3 tensor ``c`` with
``[e_i, e_j] = sum_k c[i, j, k] e_k``, an inner product on the coordinate
space, and (optionally) a faithful matrix realization used for exponentials
and for building involutions.  ``bracket`` and ``ad`` broadcast over leading
axes, so each predicate over basis pairs or triples (abelian, Lie triple
system, centralizer, restriction) is a stacked bracket and a stacked
span residual.  One commutator helper checks realizations and, through ad,
the Jacobi identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .linalg import SPAN_TOL

JACOBI_TOL = 1e-10
STRUCTURE_TOL = 1e-9        # bracket antisymmetry and inner-product symmetry residual
ORTHONORMAL_TOL = 1e-8      # Gram residual of a subspace basis
CLOSURE_TOL = 1e-7          # out-of-span bracket residual a restricted basis may have

FAMILIES = ("special-unitary", "special-orthogonal", "unitary", "torus")


class LieAlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a numeric predicate with its worst residual and witness."""

    ok: bool
    residual: float
    tolerance: float
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Subspace:
    """An ordered orthonormal basis inside a named ambient space.

    ``basis`` holds the basis vectors as rows; they are orthonormal with
    respect to the metric of the ambient space they were built in.
    """

    ambient: str
    basis: np.ndarray

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.basis, dtype=float))
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])

    def validate(self, gram: np.ndarray | None = None) -> None:
        if self.dim == 0:
            return
        g = self.basis @ (self.basis.T if gram is None else gram @ self.basis.T)
        res = float(np.max(np.abs(g - np.eye(self.dim))))
        if res > ORTHONORMAL_TOL:
            raise LieAlgebraError(f"subspace basis not orthonormal (residual {res:.2e})")


@dataclass(frozen=True)
class LieAlgebra:
    """Structure-constant tensor plus an ad-invariant inner product."""

    name: str
    structure: np.ndarray          # (n, n, n): [e_i, e_j] = structure[i, j, :] . e
    inner: np.ndarray              # (n, n) symmetric positive definite
    realization: tuple | None = None  # optional faithful matrix model

    def __post_init__(self):
        c = np.asarray(self.structure, dtype=float)
        g = np.asarray(self.inner, dtype=float)
        c.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "structure", c)
        object.__setattr__(self, "inner", g)
        if self.realization is not None:
            mats = tuple(np.asarray(m) for m in self.realization)
            for m in mats:
                m.setflags(write=False)
            object.__setattr__(self, "realization", mats)

    @property
    def dim(self) -> int:
        return int(self.structure.shape[0])

    # -- basic arithmetic ---------------------------------------------------

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """[x, y] for vectors or (..., dim) stacks that broadcast together.

        It builds ad(x) per vector of ``x``: pass the smaller stack first.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape[-1:] != (self.dim,) or y.shape[-1:] != (self.dim,):
            raise LieAlgebraError(
                f"bracket arguments must have dimension {self.dim}, "
                f"got {x.shape} and {y.shape}")
        return (self.ad(x) @ y[..., None])[..., 0]

    def ad(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ad(x) acting on coordinates: ad(x) e_j = [x, e_j].

        An (..., dim) stack of vectors gives an (..., dim, dim) stack.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise LieAlgebraError(f"ad argument must have dimension {self.dim}")
        return np.swapaxes(np.tensordot(x, self.structure, 1), -1, -2)

    def killing(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.trace(self.ad(x) @ self.ad(y)))

    def norm(self, x: np.ndarray) -> float:
        return linalg.gram_norm(np.asarray(x, dtype=float), self.inner)

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.asarray(x, float) @ self.inner @ np.asarray(y, float))

    @cached_property
    def metric_root(self):
        """(L, L^-1) with inner = L L^T, from ``linalg.metric_root`` once."""
        return linalg.metric_root(self.inner)

    def restrict(self, basis: np.ndarray, name: str) -> LieAlgebra:
        """The subalgebra spanned by inner-orthonormal ``basis`` rows, in that basis.

        Raises LieAlgebraError when a bracket leaves the span by more than
        ``CLOSURE_TOL``.  Not validated: callers pick the Jacobi tolerance.
        """
        basis = np.asarray(basis, dtype=float)
        structure, res = self.restricted_structure(basis)
        if res > CLOSURE_TOL:
            raise LieAlgebraError(f"basis not closed under the bracket (residual {res:.2e})")
        realization = None
        if self.realization is not None and len(basis):
            realization = tuple(self.realize(b) for b in basis)
        return LieAlgebra(name, structure, np.eye(len(basis)), realization)

    def restricted_structure(self, basis: np.ndarray):
        """Structure constants of span(``basis``) in that basis, and how far
        the span is from closed under the bracket.

        ``basis`` is an inner-orthonormal (m, dim) basis or an (..., m, dim)
        stack of them.  Returns the (..., m, m, m) constants, from the
        projection of every basis bracket onto the span, and the (...)
        largest distance of a basis bracket from its span.
        """
        rows = basis[..., None, :, :]
        br = self.bracket(basis[..., :, None, :], rows)
        structure = br @ self.inner @ np.swapaxes(rows, -1, -2)
        res = linalg.gram_norm(br - structure @ rows, self.inner)
        return structure, np.max(res, axis=(-2, -1), initial=0.0)

    # -- realization helpers -------------------------------------------------

    def realize(self, x: np.ndarray) -> np.ndarray:
        if self.realization is None:
            raise LieAlgebraError(f"{self.name} has no matrix realization")
        return sum(float(c) * m for c, m in zip(np.asarray(x, float), self.realization))

    def coordinates(self, matrix: np.ndarray) -> np.ndarray:
        """Coordinates of a realization matrix in the stored basis.

        Valid whenever the stored inner product is the trace form the basis
        was orthonormalised against (true for all built-in families).
        """
        if self.realization is None:
            raise LieAlgebraError(f"{self.name} has no matrix realization")
        mats = np.array([m.reshape(-1) for m in self.realization])
        coeff, *_ = np.linalg.lstsq(mats.T, np.asarray(matrix).reshape(-1), rcond=None)
        return coeff.real.astype(float)

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        c = self.structure
        n = self.dim
        if c.shape != (n, n, n):
            raise LieAlgebraError(f"structure tensor must be ({n},{n},{n}), got {c.shape}")
        anti = float(np.max(np.abs(c + np.swapaxes(c, 0, 1)))) if n else 0.0
        if anti > STRUCTURE_TOL:
            idx = np.unravel_index(np.argmax(np.abs(c + np.swapaxes(c, 0, 1))), c.shape)
            raise LieAlgebraError(f"bracket not antisymmetric at {idx}: residual {anti:.2e}")
        # Given antisymmetry, the Jacobi identity on all basis triples says
        # exactly that ad is a homomorphism: [ad e_i, ad e_j] = sum_k c_ijk ad e_k.
        worst = commutator_residual(self.ad(np.eye(n)), c)
        if worst > JACOBI_TOL:
            raise LieAlgebraError(f"Jacobi identity residual {worst:.2e} > {JACOBI_TOL:.1e}")
        g = self.inner
        if g.shape != (n, n):
            raise LieAlgebraError(f"inner product must be ({n},{n})")
        if n:
            if float(np.max(np.abs(g - g.T))) > STRUCTURE_TOL:
                raise LieAlgebraError("inner product not symmetric")
            if float(np.min(np.linalg.eigvalsh((g + g.T) / 2))) <= 0.0:
                raise LieAlgebraError("inner product not positive definite")
        if self.realization is not None:
            if len(self.realization) != n:
                raise LieAlgebraError("realization must list one matrix per basis vector")
            worst = commutator_residual(np.array(self.realization), c)
            if worst > 1e-8:
                raise LieAlgebraError(
                    f"realization commutators do not match structure constants "
                    f"(residual {worst:.2e})")


def _commutator_rows(mats: np.ndarray):
    """Yield [M_i, M_j] for every j as an (n, D, D) stack, one i at a time.

    Holding one first index at a time keeps memory at n D^2, not n^2 D^2.
    """
    for m in mats:
        yield m @ mats - mats @ m


def commutator_residual(mats: np.ndarray, structure: np.ndarray) -> float:
    """max over i, j of |[M_i, M_j] - sum_k c_ijk M_k| (0 for no matrices)."""
    return max((float(np.max(np.abs(comm - np.tensordot(c_i, mats, 1)), initial=0.0))
                for c_i, comm in zip(structure, _commutator_rows(mats))), default=0.0)


# -- constructors -------------------------------------------------------------

def _raw_basis(family: str, n: int) -> list[np.ndarray]:
    if family == "torus":
        return [np.diag([1j if k == i else 0.0 for k in range(n)]) for i in range(n)]
    if family == "special-orthogonal":
        # lower-triangular-positive convention; for n = 3 the normalised
        # basis then brackets cyclically, matching the su(2) basis
        out = []
        for i in range(n):
            for j in range(i + 1, n):
                m = np.zeros((n, n))
                m[j, i] = 1.0
                m[i, j] = -1.0
                out.append(m)
        return out
    if family in ("special-unitary", "unitary"):
        out: list[np.ndarray] = []
        for i in range(n):
            for j in range(i + 1, n):
                m = np.zeros((n, n), dtype=complex)
                m[i, j] = 1.0
                m[j, i] = -1.0
                out.append(m)
        for i in range(n):
            for j in range(i + 1, n):
                m = np.zeros((n, n), dtype=complex)
                m[i, j] = 1j
                m[j, i] = 1j
                out.append(m)
        for k in range(n - 1):
            m = np.zeros((n, n), dtype=complex)
            m[k, k] = 1j
            m[k + 1, k + 1] = -1j
            out.append(m)
        if family == "unitary":
            out.append(1j * np.eye(n))
        return out
    raise LieAlgebraError(f"unsupported family {family!r}; expected one of {FAMILIES}")


def build_classical(family: str, n: int, metric_scale: float = 1.0,
                    name: str | None = None) -> LieAlgebra:
    """Build a compact classical algebra with inner product -scale*trace(XY).

    The basis is orthonormalised against that inner product and the
    structure constants are read off from matrix commutators.  The metric
    normalisation is a free knob: with the default ``metric_scale=1.0`` the
    inner product is plain ``-trace(XY)`` on the realization; scale 2 on
    su(2) (or 1/2 on so(3)) reproduces the cyclic basis [e1,e2]=e3.
    """
    if family not in FAMILIES:
        raise LieAlgebraError(f"unsupported family {family!r}; expected one of {FAMILIES}")
    if n < 1 or (n < 2 and family in ("special-unitary", "special-orthogonal")):
        raise LieAlgebraError(f"family {family!r} needs n >= 2 (got {n})")
    if metric_scale <= 0:
        raise LieAlgebraError("metric_scale must be positive")
    raw = np.array(_raw_basis(family, n), dtype=complex)
    # Gram-Schmidt in coefficients against the trace form's Gram matrix
    gram = -metric_scale * np.einsum("iab,jba->ij", raw, raw).real
    mats = np.tensordot(linalg.orthonormalize(np.eye(len(raw)), linalg.metric_root(gram)), raw, 1)
    # c_ijk = <[b_i, b_j], b_k> = -scale Re tr([b_i, b_j] b_k)
    c = np.array([-metric_scale * np.einsum("jab,kba->jk", comm, mats).real
                  for comm in _commutator_rows(mats)])
    if family == "special-orthogonal":
        mats = mats.real
    label = name or f"{family}({n})"
    alg = LieAlgebra(label, c, np.eye(len(mats)), tuple(mats))
    alg.validate()
    return alg


def direct_sum(a: LieAlgebra, b: LieAlgebra, name: str | None = None) -> LieAlgebra:
    n, m = a.dim, b.dim
    c = np.zeros((n + m, n + m, n + m))
    c[:n, :n, :n] = a.structure
    c[n:, n:, n:] = b.structure
    g = np.zeros((n + m, n + m))
    g[:n, :n] = a.inner
    g[n:, n:] = b.inner
    real = None
    if a.realization is not None and b.realization is not None:
        da = a.realization[0].shape[0] if n else 0
        db = b.realization[0].shape[0] if m else 0
        real = np.zeros((n + m, da + db, da + db), dtype=complex)
        real[:n, :da, :da] = a.realization
        real[n:, da:, da:] = b.realization
        real = tuple(real)
    alg = LieAlgebra(name or f"{a.name}+{b.name}", c, g, real)
    alg.validate()
    return alg


# -- operations ----------------------------------------------------------------

def triple_residuals(algebra: LieAlgebra, m: Subspace) -> np.ndarray:
    """res[i, j, k]: distance of [u_i, [u_j, u_k]] from span(m), all basis triples.

    One first index at a time, so memory is dim(m)^2 n rather than dim(m)^3 n.
    """
    b = m.basis
    inner = algebra.bracket(b[:, None], b[None])                 # [u_j, u_k]
    res = [linalg.span_residual(b, algebra.bracket(u, inner), algebra.inner) for u in b]
    return np.reshape(res, (m.dim,) * 3)


def is_lie_triple_system(algebra: LieAlgebra, m: Subspace,
                         tol: float = SPAN_TOL) -> CheckResult:
    """Test [u, [v, w]] in span(m) over all basis triples; witness: the worst triple."""
    res = triple_residuals(algebra, m)
    worst = float(np.max(res, initial=0.0))
    if not linalg.robust_failure(worst, tol, "Lie triple system test"):
        return CheckResult(True, worst, tol)
    return CheckResult(False, worst, tol, linalg.first_max(res) + (worst,))


def is_abelian_subspace(algebra: LieAlgebra, m: Subspace,
                        tol: float = SPAN_TOL) -> CheckResult:
    """Test pairwise vanishing of brackets; witness is the first failing pair."""
    i, j = np.triu_indices(m.dim, 1)
    res = linalg.gram_norm(algebra.bracket(m.basis[:, None], m.basis[None])[i, j],
                           algebra.inner)
    worst = float(np.max(res, initial=0.0))
    if not linalg.robust_failure(worst, tol, "abelian subspace test"):
        return CheckResult(True, worst, tol)
    first = int(np.argmax(res > tol))
    return CheckResult(False, worst, tol, (int(i[first]), int(j[first]), float(res[first])))


def centralizer_in(algebra: LieAlgebra, x: np.ndarray, w: Subspace) -> Subspace:
    """Orthonormal basis of {Y in span(w) : [x, Y] = 0} as a numeric kernel:
    orthonormal kernel rows of orthonormal ``w.basis`` rows."""
    if w.dim == 0:
        return w
    coeffs = linalg.kernel(algebra.bracket(x, w.basis).T)    # rows: [x, w_j]
    return Subspace(w.ambient, coeffs @ w.basis)
