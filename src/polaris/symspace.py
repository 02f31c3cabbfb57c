"""Symmetric-pair machinery and closed-form model manifolds.

Covers the Cartan split of an algebra along an involution, maximal abelian
subspaces of the -1 eigenspace with a maximality certificate, the curvature
tensor R(X,Y)Z = -[[X,Y],Z] of compact type, and a sampled totally-geodesic
probe along once-broken geodesics.  The pair's invariants (automorphism,
bracket grading) are stacked brackets over all basis pairs, and on a pair
the probe's residual is the Lie-triple-system residual of ``liealg``.  The
model manifolds (Euclidean space, the unit sphere, a product of two round
spheres) are Riemannian products of flat and round-sphere factors: each
carries closed-form geodesics, parallel transport, curvature, distance and
log, one pass over its factors, so that every downstream derivative check
has an exact cross-check path.  On a manifold the probe transports a whole
basis per leg and reads all basis triples from one stacked curvature call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .liealg import CheckResult, LieAlgebra, Subspace, centralizer_in, \
    is_abelian_subspace, triple_residuals
from .linalg import SPAN_TOL

GRADING_TOL = 1e-10
INVOLUTION_TOL = 1e-8       # involutive, orthogonal and automorphism residuals
DEGENERATE_PLANE_TOL = 1e-10  # relative Gram determinant of a degenerate plane
ABELIAN_ATTEMPTS = 16       # generic draws maximal_abelian tries
ABELIAN_CERTIFICATES = 8    # independent draws that must reproduce a candidate
ABELIAN_ANGLE_TOL = 1e-8    # principal-angle tolerance for two centralizers to agree


class SymmetricSpaceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# model manifolds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelManifold:
    """Euclidean space, the unit sphere, or a product of two round spheres.

    Each is a Riemannian product of factors, each a block of ambient
    coordinates that is flat (radius 0) or a round sphere of a positive
    radius: ``euclidean`` is one flat factor, ``sphere`` one unit sphere and
    ``product-spheres`` two spheres of ``radii`` whose ambient dimensions are
    ``split``.  Every method is one pass over the factors.  Tangent vectors
    of ``project_tangent``, ``transport`` and ``curvature`` may be (..., D)
    stacks, whose leading axes broadcast.
    """

    kind: str                       # "euclidean" | "sphere" | "product-spheres"
    ambient_dim: int
    radii: tuple = ()
    split: tuple | None = None
    factors: tuple = field(init=False, repr=False, compare=False)  # (slice, radius)

    def __post_init__(self):
        d = self.ambient_dim
        if self.kind == "euclidean":
            factors = ((slice(0, d), 0.0),)
        elif self.kind == "sphere":
            r = self.radii or (1.0,)
            if abs(r[0] - 1.0) > 1e-12:
                raise SymmetricSpaceError("sphere model is the unit sphere")
            object.__setattr__(self, "radii", (1.0,))
            factors = ((slice(0, d), 1.0),)
        elif self.kind == "product-spheres":
            if self.split is None or len(self.split) != 2:
                raise SymmetricSpaceError("product-spheres needs split=(d1, d2)")
            if sum(self.split) != d:
                raise SymmetricSpaceError("split does not sum to ambient dimension")
            if len(self.radii) != 2 or min(self.radii) <= 0:
                raise SymmetricSpaceError("product-spheres needs two positive radii")
            d1 = self.split[0]
            factors = ((slice(0, d1), float(self.radii[0])),
                       (slice(d1, d), float(self.radii[1])))
        else:
            raise SymmetricSpaceError(f"unknown manifold kind {self.kind!r}")
        object.__setattr__(self, "factors", factors)

    @property
    def dim(self) -> int:
        return sum(s.stop - s.start - (r > 0) for s, r in self.factors)

    def validate_point(self, p: np.ndarray, tol: float = 1e-9) -> None:
        p = np.asarray(p, float)
        if p.shape != (self.ambient_dim,):
            raise SymmetricSpaceError(f"point must have dimension {self.ambient_dim}")
        for s, r in self.factors:
            if r and abs(np.linalg.norm(p[s]) - r) > tol:
                raise SymmetricSpaceError(f"point not on the sphere of radius {r:g} "
                                          f"in coordinates {s.start}..{s.stop - 1}")

    def project_tangent(self, p: np.ndarray, x: np.ndarray) -> np.ndarray:
        p = np.asarray(p, float)
        x = np.asarray(x, float)
        return np.concatenate([
            x[..., s] - (x[..., s] @ p[s])[..., None] * p[s] / r**2 if r else x[..., s]
            for s, r in self.factors], axis=-1)

    # closed-form geodesics -------------------------------------------------

    def geodesic(self, p: np.ndarray, v: np.ndarray, times: np.ndarray):
        """gamma(t), gamma'(t) for the geodesic with gamma(0)=p, gamma'(0)=v."""
        times = np.asarray(times, float)
        p = np.asarray(p, float)
        v = np.asarray(v, float)
        parts = [_sphere_geodesic(p[s], v[s], r, times) if r else
                 (p[s] + times[:, None] * v[s], np.broadcast_to(v[s], times.shape + v[s].shape))
                 for s, r in self.factors]
        return (np.concatenate([g for g, _ in parts], axis=1),
                np.concatenate([dg for _, dg in parts], axis=1))

    def exp(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        gam, _ = self.geodesic(p, v, np.array([1.0]))
        return gam[0]

    def transport(self, p: np.ndarray, v: np.ndarray, t: float, x: np.ndarray) -> np.ndarray:
        """Parallel transport of tangent x along s -> exp_p(s v) from 0 to t."""
        p = np.asarray(p, float)
        v = np.asarray(v, float)
        x = np.asarray(x, float)
        return np.concatenate([
            _sphere_transport(p[s], v[s], r, t, x[..., s]) if r else x[..., s]
            for s, r in self.factors], axis=-1)

    def curvature(self, p: np.ndarray, u: np.ndarray, v: np.ndarray,
                  w: np.ndarray) -> np.ndarray:
        """R(u, v)w at p, with R(u, v)w = (<v,w>u - <u,w>v) / r^2 on a sphere
        factor of radius r and 0 on a flat one."""
        u, v, w = np.broadcast_arrays(*(np.asarray(a, float) for a in (u, v, w)))
        return np.concatenate([
            (_dot(v[..., s], w[..., s])[..., None] * u[..., s]
             - _dot(u[..., s], w[..., s])[..., None] * v[..., s]) / r**2 if r
            else np.zeros_like(u[..., s]) for s, r in self.factors], axis=-1)

    def distance(self, p: np.ndarray, q: np.ndarray) -> float:
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        # the hypot of the factor distances; one factor gives its own distance
        return float(np.hypot.reduce([
            r * np.arccos(np.clip(np.dot(p[s], q[s]) / r**2, -1.0, 1.0)) if r
            else np.linalg.norm(p[s] - q[s]) for s, r in self.factors]))

    def log(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Inverse exponential: the v with exp(p, v) = q of least length."""
        p = np.asarray(p, float)
        q = np.asarray(q, float)
        return np.concatenate([_sphere_log(p[s], q[s], r) if r else q[s] - p[s]
                               for s, r in self.factors])

    def parallel_frames(self, p: np.ndarray, v: np.ndarray, times: np.ndarray):
        """Parallel orthonormal frames F(t) of the tangent space along exp(tv).

        Returns (frames, curvature_matrix): frames has shape (n_t, D, m) and
        the matrix of R(., gamma')gamma' is constant in these frames.  Each
        factor contributes a diagonal block.
        """
        times = np.asarray(times, float)
        p = np.asarray(p, float)
        v = np.asarray(v, float)
        n_t = times.shape[0]
        frames = np.zeros((n_t, self.ambient_dim, self.dim))
        curv = []
        col = 0
        for s, r in self.factors:
            d = s.stop - s.start
            f, c = _sphere_frames(p[s], v[s], r, times) if r else (np.eye(d), np.zeros(d))
            frames[:, s, col:col + c.shape[0]] = f
            curv.append(c)
            col += c.shape[0]
        return frames, np.diag(np.concatenate(curv))


def _dot(a, b):
    """<a, b> over the last axis of broadcasting stacks; np.dot's value on vectors."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _sphere_geodesic(p, v, radius, times):
    s = np.linalg.norm(v)
    if s < 1e-15:
        gam = np.broadcast_to(p, (times.shape[0], p.shape[0])).copy()
        return gam, np.zeros_like(gam)
    ang = s * times / radius
    phat = p / radius
    vhat = v / s
    gam = radius * (np.cos(ang)[:, None] * phat[None, :]
                    + np.sin(ang)[:, None] * vhat[None, :])
    dgam = s * (-np.sin(ang)[:, None] * phat[None, :]
                + np.cos(ang)[:, None] * vhat[None, :])
    return gam, dgam


def _sphere_transport(p, v, radius, t, x):
    """Transport of a vector or an (..., d) stack x along one sphere factor."""
    s = np.linalg.norm(v)
    if s < 1e-15:
        return x
    ang = s * t / radius
    phat = p / radius
    vhat = v / s
    a = (x @ phat)[..., None]
    b = (x @ vhat)[..., None]
    rest = x - a * phat - b * vhat
    phat_t = np.cos(ang) * phat + np.sin(ang) * vhat
    vhat_t = -np.sin(ang) * phat + np.cos(ang) * vhat
    return rest + a * phat_t + b * vhat_t


def _sphere_log(p, q, radius):
    c = np.clip(np.dot(p, q) / radius**2, -1.0, 1.0)
    theta = float(np.arccos(c))
    if theta < 1e-14:
        return np.zeros_like(p)
    w = q - c * p
    return radius * theta * w / np.linalg.norm(w)


def _sphere_frames(p, v, radius, times):
    """Frame columns for one sphere factor plus their curvature eigenvalues."""
    d = p.shape[0]
    s = np.linalg.norm(v)
    n_t = times.shape[0]
    phat = p / radius
    if s < 1e-15:
        rest = linalg.kernel(phat)
        cols = np.broadcast_to(rest.T, (n_t, d, d - 1)).copy()
        return cols, np.zeros(d - 1)
    vhat = v / s
    ang = s * times / radius
    vel = (-np.sin(ang)[:, None] * phat[None, :]
           + np.cos(ang)[:, None] * vhat[None, :])     # unit, parallel
    rest = linalg.kernel(np.array([phat, vhat]))
    cols = np.zeros((n_t, d, d - 1))
    cols[:, :, 0] = vel
    cols[:, :, 1:] = rest.T
    curv = np.concatenate([[0.0], np.full(d - 2, (s / radius) ** 2)])
    return cols, curv


# ---------------------------------------------------------------------------
# symmetric pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetricPair:
    """An algebra with involution and its Cartan split g = k + p."""

    algebra: LieAlgebra
    involution: np.ndarray
    k: Subspace
    p: Subspace

    def __post_init__(self):
        theta = np.asarray(self.involution, float)
        theta.setflags(write=False)
        object.__setattr__(self, "involution", theta)

    @property
    def name(self) -> str:
        return self.algebra.name

    def validate(self) -> None:
        alg = self.algebra
        n = alg.dim
        theta = self.involution
        tol = INVOLUTION_TOL
        if theta.shape != (n, n):
            raise SymmetricSpaceError(f"involution must be {n}x{n}")
        res = float(np.max(np.abs(theta @ theta - np.eye(n))))
        if res > tol:
            raise SymmetricSpaceError(f"involution not involutive (residual {res:.2e})")
        res = float(np.max(np.abs(theta.T @ alg.inner @ theta - alg.inner)))
        if res > tol:
            raise SymmetricSpaceError(f"involution not orthogonal (residual {res:.2e})")
        t = theta.T                          # row i is theta e_i
        # theta [e_i, e_j] - [theta e_i, theta e_j] over all basis pairs
        auto = alg.structure @ t - alg.bracket(t[:, None], t[None])
        worst = float(np.max(np.abs(auto), initial=0.0))
        if worst > tol:
            raise SymmetricSpaceError(f"involution not an automorphism (residual {worst:.2e})")
        if self.k.dim + self.p.dim != n:
            raise SymmetricSpaceError("eigenspace dimensions do not add up")
        self.k.validate(alg.inner)
        self.p.validate(alg.inner)
        if self.k.dim and self.p.dim:
            ang = linalg.principal_angles(self.k.basis, self.p.basis, alg.inner)
            if ang.size and float(np.min(ang)) < np.pi / 2 - 1e-8:
                raise SymmetricSpaceError("k and p are not orthogonal")
        res = self.grading_residual()
        if res > GRADING_TOL:
            raise SymmetricSpaceError(f"bracket grading residual {res:.2e}")

    def grading_residual(self) -> float:
        """Worst residual of [k,k] in k, [k,p] in p, [p,p] in k."""
        alg = self.algebra
        worst = 0.0
        for left, right, target in ((self.k, self.k, self.k),
                                    (self.k, self.p, self.p),
                                    (self.p, self.p, self.k)):
            br = alg.bracket(left.basis[:, None], right.basis[None])
            worst = max(worst, float(np.max(
                linalg.span_residual(target.basis, br, alg.inner), initial=0.0)))
        return worst

    def project_p(self, x: np.ndarray) -> np.ndarray:
        return linalg.project_span(self.p.basis, x, self.algebra.inner)


def involution_from_matrix_map(algebra: LieAlgebra, matrix_map) -> np.ndarray:
    """Coordinate matrix of an involution given by a map on realization matrices."""
    if algebra.realization is None:
        raise SymmetricSpaceError("matrix-map involutions need a realization")
    cols = []
    eye = np.eye(algebra.dim)
    for i in range(algebra.dim):
        cols.append(algebra.coordinates(matrix_map(algebra.realize(eye[i]))))
    return np.array(cols).T


def cartan_decompose(algebra: LieAlgebra, theta: np.ndarray) -> SymmetricPair:
    """Split the algebra into +-1 eigenspaces of an involutive automorphism."""
    theta = np.asarray(theta, float)
    n = algebra.dim
    plus = linalg.orthonormalize(((np.eye(n) + theta) / 2).T, algebra.inner, 1e-6)
    minus = linalg.orthonormalize(((np.eye(n) - theta) / 2).T, algebra.inner, 1e-6)
    pair = SymmetricPair(
        algebra, theta,
        Subspace(f"{algebra.name}:k", plus),
        Subspace(f"{algebra.name}:p", minus),
    )
    pair.validate()
    return pair


def maximal_abelian(pair: SymmetricPair, seed: int = 0) -> Subspace:
    """Maximal abelian subspace of p as the centralizer of a generic element.

    A candidate a = Z_p(X) is accepted once it is abelian and eight
    independent generic Y in a reproduce it, Z_p(Y) = a; otherwise X is
    redrawn (the draw was non-generic).
    """
    alg = pair.algebra
    if pair.p.dim == 0:
        raise SymmetricSpaceError("p is trivial; no abelian subspace to extract")
    rng = np.random.default_rng(seed)
    for _ in range(ABELIAN_ATTEMPTS):
        coeff = rng.standard_normal(pair.p.dim)
        x = coeff @ pair.p.basis
        x = x / alg.norm(x)
        cand = centralizer_in(alg, x, pair.p)
        if cand.dim == 0:
            continue
        if not is_abelian_subspace(alg, cand).ok:
            continue
        certified = True
        for _ in range(ABELIAN_CERTIFICATES):
            y = rng.standard_normal(cand.dim) @ cand.basis
            y = y / alg.norm(y)
            other = centralizer_in(alg, y, pair.p)
            if other.dim != cand.dim or not linalg.subspaces_equal(
                    other.basis, cand.basis, alg.inner, ABELIAN_ANGLE_TOL):
                certified = False
                break
        if certified:
            return Subspace(f"{alg.name}:a", cand.basis)
    raise SymmetricSpaceError(
        "failed to certify a maximal abelian subspace; degenerate metric or "
        "tolerance too tight")


def curvature_operator(pair: SymmetricPair, x: np.ndarray, y: np.ndarray,
                       z: np.ndarray) -> np.ndarray:
    """R(X,Y)Z = -[[X,Y],Z] on p (compact-type sign convention)."""
    alg = pair.algebra
    for name, v in (("X", x), ("Y", y), ("Z", z)):
        res = linalg.span_residual(pair.p.basis, np.asarray(v, float), alg.inner)
        if res > SPAN_TOL * max(1.0, alg.norm(v)):
            raise SymmetricSpaceError(f"{name} not in p (projection residual {res:.2e})")
    return -alg.bracket(alg.bracket(x, y), z)


def sectional_curvature(pair: SymmetricPair, x: np.ndarray, y: np.ndarray) -> float:
    alg = pair.algebra
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    denom = alg.dot(x, x) * alg.dot(y, y) - alg.dot(x, y) ** 2
    if denom <= DEGENERATE_PLANE_TOL * max(alg.dot(x, x) * alg.dot(y, y), 1e-300):
        raise SymmetricSpaceError("plane is numerically degenerate")
    return alg.dot(curvature_operator(pair, x, y, y), x) / denom


# ---------------------------------------------------------------------------
# Cartan/Hermann probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BrokenGeodesicSampler:
    count: int = 100
    leg_min: float = 0.1
    leg_max: float = 1.5
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise SymmetricSpaceError("sampler needs at least one broken geodesic")
        if self.leg_min <= 0 or self.leg_max <= self.leg_min:
            raise SymmetricSpaceError("sampler legs must satisfy 0 < leg_min < leg_max")


def cartan_hermann_probe(space, base, s: Subspace,
                         sampler: BrokenGeodesicSampler | None = None,
                         tol: float = SPAN_TOL) -> CheckResult:
    """Sampled curvature-invariance test along once-broken geodesics.

    For each sampled broken geodesic the basis of ``s`` is parallel
    transported leg by leg (first leg direction inside s, post-break
    direction inside the transported copy) and the worst out-of-span
    residual of R(u,v)w against the transported span is reported.  On a
    symmetric pair the transport is by the group, i.e. the identity in the
    left-translated frame, so every sample gives the same purely algebraic
    residual, the Lie-triple-system residual of s (the residuals of
    -[[u, v], w] and [w, [u, v]] are the same set): it is evaluated once, and
    a failure is witnessed by the first sample's legs.
    """
    sampler = sampler or BrokenGeodesicSampler()
    rng = np.random.default_rng(sampler.seed)
    worst = 0.0
    witness = None
    if isinstance(space, SymmetricPair):
        alg = space.algebra
        outside = linalg.span_residual(space.p.basis, s.basis, alg.inner)
        if np.max(outside, initial=0.0) > 1e-8:
            raise SymmetricSpaceError("probe subspace must lie inside p")
        len1, len2 = rng.uniform(sampler.leg_min, sampler.leg_max, size=2)
        worst = float(np.max(triple_residuals(alg, s), initial=0.0))
        witness = (0, float(len1), float(len2))
    else:
        manifold: ModelManifold = space
        manifold.validate_point(base)
        off = linalg.gram_norm(s.basis - manifold.project_tangent(base, s.basis))
        if np.max(off, initial=0.0) > 1e-8:
            raise SymmetricSpaceError("probe subspace must be tangent at base")
        if s.dim == 0:
            # a point is totally geodesic, and it has no direction to draw
            return CheckResult(True, 0.0, tol, None)
        for idx in range(sampler.count):
            len1, len2 = rng.uniform(sampler.leg_min, sampler.leg_max, size=2)
            u1 = _draw_unit(rng, s.dim) @ s.basis
            rows1 = linalg.orthonormalize(manifold.transport(base, u1, len1, s.basis))
            q1 = manifold.exp(base, len1 * u1)
            u2 = _draw_unit(rng, rows1.shape[0]) @ rows1
            rows2 = linalg.orthonormalize(manifold.transport(q1, u2, len2, rows1))
            q2 = manifold.exp(q1, len2 * u2)
            # R(u_i, u_j)u_l over all basis triples, in one stacked evaluation
            curv = manifold.curvature(q2, rows2[:, None, None], rows2[None, :, None],
                                      rows2[None, None])
            res = float(np.max(linalg.span_residual(rows2, curv), initial=0.0))
            if res > worst:
                worst, witness = res, (idx, float(len1), float(len2))
    failed = linalg.robust_failure(worst, tol, "Cartan/Hermann probe")
    return CheckResult(not failed, worst, tol, witness if failed else None)


def _draw_unit(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    n = np.linalg.norm(v)
    while n < 1e-12:
        v = rng.standard_normal(dim)
        n = np.linalg.norm(v)
    return v / n
