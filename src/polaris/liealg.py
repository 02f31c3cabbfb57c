"""Finite-dimensional Lie algebra arithmetic over explicit structure constants.

A :class:`LieAlgebra` stores the bracket as a rank-3 tensor ``c`` with
``[e_i, e_j] = sum_k c[i, j, k] e_k``, an inner product on the coordinate
space, and (optionally) a faithful matrix realization used for exponentials
and for building involutions.  All subspace predicates (abelian, Lie triple
system, centralizer) are singular-value rank tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import RANK_RTOL, SPAN_TOL, WITNESS_FLOOR

JACOBI_TOL = 1e-10

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

    @property
    def ambient_dim(self) -> int:
        return int(self.basis.shape[1])

    def validate(self, gram: np.ndarray | None = None, tol: float = 1e-8) -> None:
        if self.dim == 0:
            return
        g = self.basis @ (self.basis.T if gram is None else gram @ self.basis.T)
        res = float(np.max(np.abs(g - np.eye(self.dim))))
        if res > tol:
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
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise LieAlgebraError(
                f"bracket arguments must have dimension {self.dim}, "
                f"got {x.shape} and {y.shape}")
        return np.einsum("i,j,ijk->k", x, y, self.structure)

    def ad(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ad(x) acting on coordinates: ad(x) e_j = [x, e_j]."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise LieAlgebraError(f"ad argument must have dimension {self.dim}")
        return np.einsum("i,ijk->kj", x, self.structure)

    def killing(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.trace(self.ad(x) @ self.ad(y)))

    def norm(self, x: np.ndarray) -> float:
        return linalg.gram_norm(np.asarray(x, dtype=float), self.inner)

    def dot(self, x: np.ndarray, y: np.ndarray) -> float:
        return linalg.gram_dot(np.asarray(x, float), np.asarray(y, float), self.inner)

    def full_space(self) -> Subspace:
        return Subspace(self.name, linalg.orthonormalize(np.eye(self.dim), self.inner))

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

    def validate(self, jacobi_tol: float = JACOBI_TOL, tol: float = 1e-9) -> None:
        c = self.structure
        n = self.dim
        if c.shape != (n, n, n):
            raise LieAlgebraError(f"structure tensor must be ({n},{n},{n}), got {c.shape}")
        anti = float(np.max(np.abs(c + np.swapaxes(c, 0, 1)))) if n else 0.0
        if anti > tol:
            idx = np.unravel_index(np.argmax(np.abs(c + np.swapaxes(c, 0, 1))), c.shape)
            raise LieAlgebraError(f"bracket not antisymmetric at {idx}: residual {anti:.2e}")
        # Jacobi identity: [e_i,[e_j,e_k]] + cyclic = 0 on all basis triples.
        if n:
            d = np.einsum("jkm,imr->ijkr", c, c)
            jac = d + np.einsum("ijkr->jkir", d) + np.einsum("ijkr->kijr", d)
            worst = float(np.max(np.abs(jac)))
            if worst > jacobi_tol:
                raise LieAlgebraError(f"Jacobi identity residual {worst:.2e} > {jacobi_tol:.1e}")
        g = self.inner
        if g.shape != (n, n):
            raise LieAlgebraError(f"inner product must be ({n},{n})")
        if n:
            if float(np.max(np.abs(g - g.T))) > tol:
                raise LieAlgebraError("inner product not symmetric")
            if float(np.min(np.linalg.eigvalsh((g + g.T) / 2))) <= 0.0:
                raise LieAlgebraError("inner product not positive definite")
        if self.realization is not None:
            if len(self.realization) != n:
                raise LieAlgebraError("realization must list one matrix per basis vector")
            worst = 0.0
            for i in range(n):
                for j in range(n):
                    comm = self.realization[i] @ self.realization[j] \
                        - self.realization[j] @ self.realization[i]
                    model = sum(c[i, j, k] * self.realization[k] for k in range(n)) \
                        if n else comm * 0
                    worst = max(worst, float(np.max(np.abs(comm - model))) if n else 0.0)
            if worst > 1e-8:
                raise LieAlgebraError(
                    f"realization commutators do not match structure constants "
                    f"(residual {worst:.2e})")


# -- constructors -------------------------------------------------------------

def _re_trace(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.trace(a @ b).real)


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
    raw = _raw_basis(family, n)

    def form(a, b):
        return -metric_scale * _re_trace(a, b)

    # Gram-Schmidt on matrices against the chosen trace form.
    basis: list[np.ndarray] = []
    for m in raw:
        w = m.astype(complex)
        for _ in range(2):
            for q in basis:
                w = w - form(w, q) * q
        nw = np.sqrt(max(form(w, w), 0.0))
        if nw > 1e-12:
            basis.append(w / nw)
    dim = len(basis)
    c = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(dim):
            comm = basis[i] @ basis[j] - basis[j] @ basis[i]
            for k in range(dim):
                c[i, j, k] = form(comm, basis[k])
    if family == "special-orthogonal":
        basis = [b.real.copy() for b in basis]
    label = name or f"{family}({n})"
    alg = LieAlgebra(label, c, np.eye(dim), tuple(basis))
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
        real = []
        for i in range(n):
            blk = np.zeros((da + db, da + db), dtype=complex)
            blk[:da, :da] = a.realization[i]
            real.append(blk)
        for i in range(m):
            blk = np.zeros((da + db, da + db), dtype=complex)
            blk[da:, da:] = b.realization[i]
            real.append(blk)
        real = tuple(real)
    alg = LieAlgebra(name or f"{a.name}+{b.name}", c, g, real)
    alg.validate()
    return alg


# -- operations ----------------------------------------------------------------

def is_lie_triple_system(algebra: LieAlgebra, m: Subspace, tol: float = SPAN_TOL,
                         floor: float = WITNESS_FLOOR) -> CheckResult:
    """Test [u, [v, w]] in span(m) over all basis triples of m."""
    worst = 0.0
    witness = None
    for i, u in enumerate(m.basis):
        for j, v in enumerate(m.basis):
            for k, w in enumerate(m.basis):
                d = algebra.bracket(u, algebra.bracket(v, w))
                res = linalg.span_residual(m.basis, d, algebra.inner)
                if res > worst:
                    worst = res
                    witness = (i, j, k, res)
    failed = linalg.robust_failure(worst, tol, floor, "Lie triple system test")
    return CheckResult(not failed, worst, tol, witness if failed else None)


def is_abelian_subspace(algebra: LieAlgebra, m: Subspace, tol: float = SPAN_TOL,
                        floor: float = WITNESS_FLOOR) -> CheckResult:
    """Test pairwise vanishing of brackets; witness is the first failing pair."""
    worst = 0.0
    witness = None
    for i in range(m.dim):
        for j in range(i + 1, m.dim):
            res = algebra.norm(algebra.bracket(m.basis[i], m.basis[j]))
            if witness is None and res > tol:
                witness = (i, j, res)
            worst = max(worst, res)
    failed = linalg.robust_failure(worst, tol, floor, "abelian subspace test")
    return CheckResult(not failed, worst, tol, witness if failed else None)


def centralizer_in(algebra: LieAlgebra, x: np.ndarray, w: Subspace,
                   rtol: float = RANK_RTOL) -> Subspace:
    """Orthonormal basis of {Y in span(w) : [x, Y] = 0} as a numeric kernel."""
    if w.dim == 0:
        return w
    cols = np.array([algebra.bracket(x, b) for b in w.basis])  # rows: [x, w_j]
    coeffs = linalg.kernel(cols.T, rtol)
    vecs = coeffs @ w.basis
    return Subspace(w.ambient, linalg.orthonormalize(vecs, algebra.inner, rtol))
