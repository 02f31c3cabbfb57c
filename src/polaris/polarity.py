"""Polarity decisions for orthogonal representations and subgroup actions.

The representation test is exact up to rounding: a section candidate is the
normal space of a regular orbit, and orthogonality of the candidate against
every orbit it meets reduces, by bilinearity, to the finite pairing test
<A_i v, w> = 0 over basis pairs of the candidate, one stacked product over
all generators.  Subgroup actions on a symmetric pair are decided by the
Lie-triple-system condition on m = p \\cap h^perp together with
[m, m] perp h, after conjugating h into a regular position; both are stacked
bracket tests (see ``liealg``).  Every witness is the first entry, in
lexicographic order, within rounding of the largest (``linalg.first_max``).
The regular point and the regular conjugate of h are each the first of
``REGULAR_DRAWS`` seeded draws of maximal rank, all ranked by one stacked SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .liealg import CheckResult, LieAlgebra, LieAlgebraError, Subspace, \
    commutator_residual, is_abelian_subspace, is_lie_triple_system
from .linalg import SPAN_TOL
from .symspace import SymmetricPair

PAIRING_TOL = 1e-8
MODEL_TOL = 1e-8            # generator, subalgebra-closure and ad-invariance residuals
REGULAR_DRAWS = 64          # seeded draws searching for a regular point or conjugate


class PolarityError(ValueError):
    pass


@dataclass(frozen=True)
class OrthogonalRep:
    """Generator matrices of a Lie algebra acting on an inner-product space."""

    algebra: LieAlgebra
    generators: np.ndarray          # (n_gen, D, D) antisymmetric
    space_dim: int
    restrict_to_sphere: bool = False
    name: str = "rep"

    def __post_init__(self):
        g = np.asarray(self.generators, dtype=float)
        if g.ndim != 3:
            g = g.reshape((-1, self.space_dim, self.space_dim))
        g.setflags(write=False)
        object.__setattr__(self, "generators", g)

    @property
    def n_generators(self) -> int:
        return int(self.generators.shape[0])

    def validate(self) -> None:
        g = self.generators
        if g.shape != (self.algebra.dim, self.space_dim, self.space_dim):
            raise PolarityError(
                f"generators must be ({self.algebra.dim},{self.space_dim},"
                f"{self.space_dim}), got {g.shape}")
        if g.shape[0]:
            anti = float(np.max(np.abs(g + np.transpose(g, (0, 2, 1)))))
            if anti > MODEL_TOL:
                raise PolarityError(f"generators not antisymmetric (residual {anti:.2e})")
        worst = commutator_residual(g, self.algebra.structure)
        if worst > MODEL_TOL:
            raise PolarityError(
                f"generator commutators do not reproduce structure constants "
                f"(residual {worst:.2e})")

    def tangent_rows(self, v: np.ndarray) -> np.ndarray:
        """Orbit tangent spanning set {A_i v} as rows.

        A stack of points, shape (..., space_dim), gives a stack of row sets,
        shape (..., n_generators, space_dim).
        """
        v = np.asarray(v, float)
        if self.n_generators == 0:
            return np.zeros(v.shape[:-1] + (0, self.space_dim))
        return np.einsum("iab,...b->...ia", self.generators, v)

    def orbit_rank(self, v: np.ndarray) -> int:
        return linalg.svd_rank(self.tangent_rows(v))


@dataclass(frozen=True)
class PolarityVerdict:
    polar: bool
    cohomogeneity: int
    section: Subspace | None
    witness: tuple | None
    residual: float
    tolerance: float

    def __bool__(self) -> bool:
        return self.polar


def find_regular_point(rep: OrthogonalRep, seed: int = 0) -> np.ndarray:
    """Seeded point of maximal orbit-tangent rank among ``REGULAR_DRAWS`` samples.

    One stacked SVD ranks them all and the first of maximal rank wins; rank
    is scale-invariant, so a sphere action normalises only the winner.
    """
    draws = np.random.default_rng(seed).standard_normal((REGULAR_DRAWS, rep.space_dim))
    best = draws[np.argmax(linalg.svd_rank(rep.tangent_rows(draws)))]
    return best / np.linalg.norm(best) if rep.restrict_to_sphere else best


def cohomogeneity(rep: OrthogonalRep, seed: int = 0) -> int:
    p = find_regular_point(rep, seed)
    c = rep.space_dim - rep.orbit_rank(p)
    return c - 1 if rep.restrict_to_sphere else c


def is_polar_rep(rep: OrthogonalRep, seed: int = 0,
                 tol: float = PAIRING_TOL) -> PolarityVerdict:
    """Exact polarity test at a regular point.

    The candidate section is the normal space of the orbit of a regular
    point; by bilinearity it is orthogonal to every orbit it meets exactly
    when <A_i v, w> vanishes for all generators and basis pairs v, w.
    """
    section = linalg.kernel(rep.tangent_rows(find_regular_point(rep, seed)))
    pair = section @ rep.generators @ section.T          # pair[i, a, b] = <A_i v_a, v_b>
    size = np.abs(pair)
    worst = float(np.max(size, initial=0.0))
    cohom = section.shape[0] - (1 if rep.restrict_to_sphere else 0)
    if linalg.robust_failure(worst, tol, "polar pairing test"):
        i, a, b = linalg.first_max(size)
        witness = (i, section[a].copy(), section[b].copy(), float(pair[i, a, b]))
        return PolarityVerdict(False, cohom, None, witness, worst, tol)
    return PolarityVerdict(True, cohom, Subspace(f"{rep.name}:V", section),
                           None, worst, tol)


def isotropy_subalgebra(rep: OrthogonalRep, point: np.ndarray) -> np.ndarray:
    """Coordinate rows spanning {X : X . point = 0}, orthonormal in the metric."""
    rows = rep.tangent_rows(point)           # row i = A_i point
    coeffs = linalg.kernel(rows.T)           # combos annihilating the point
    return linalg.orthonormalize(coeffs, rep.algebra.inner)


def slice_rep(rep: OrthogonalRep, point: np.ndarray) -> OrthogonalRep:
    """Representation of the isotropy algebra on the normal space at ``point``.

    On sphere actions the radial line is removed from the slice.
    """
    point = np.asarray(point, float)
    if rep.restrict_to_sphere and np.linalg.norm(point) < 1e-12:
        raise PolarityError("sphere actions need a nonzero base point")
    iso = isotropy_subalgebra(rep, point)
    tangent = rep.tangent_rows(point)
    blocked = tangent
    if rep.restrict_to_sphere:
        blocked = np.vstack([tangent, point[None, :]])
    normal = linalg.kernel(blocked)
    try:
        sub = rep.algebra.restrict(iso, f"iso({rep.name})")
    except LieAlgebraError as exc:
        raise PolarityError(f"isotropy candidate: {exc}") from exc
    # A subalgebra of a valid algebra satisfies the Jacobi identity, and the
    # isotropy preserves the normal space, so neither result is validated.
    gens = normal @ np.tensordot(iso, rep.generators, 1) @ normal.T
    return OrthogonalRep(sub, gens, normal.shape[0], False, name=f"slice({rep.name})")


def orbifold_point_test(rep: OrthogonalRep, point: np.ndarray, seed: int = 0,
                        tol: float = PAIRING_TOL) -> CheckResult:
    """Orbit-space orbifold test at a point: is the slice representation polar?

    Short-circuits to true when the slice cohomogeneity is at most two.
    """
    sl = slice_rep(rep, point)
    c = cohomogeneity(sl, seed)
    if c <= 2:
        return CheckResult(True, 0.0, tol, ("slice-cohomogeneity", c))
    verdict = is_polar_rep(sl, seed, tol)
    return CheckResult(verdict.polar, verdict.residual, tol,
                       None if verdict.polar else ("slice-not-polar",) + tuple(
                           [] if verdict.witness is None else [verdict.witness[0]]))


# ---------------------------------------------------------------------------
# subgroup actions on a symmetric pair
# ---------------------------------------------------------------------------

def _check_subalgebra(alg: LieAlgebra, h: Subspace) -> None:
    """Raise for the first basis pair (i, j) whose bracket leaves span(h)."""
    res = linalg.span_residual(h.basis, alg.bracket(h.basis[:, None], h.basis[None]),
                               alg.inner)
    bad = np.argwhere(res > MODEL_TOL)
    if bad.size:
        i, j = bad[0]
        raise PolarityError(
            f"h is not a subalgebra: bracket ({i},{j}) leaves the span "
            f"(residual {res[i, j]:.2e})")


def _check_ad_invariant(alg: LieAlgebra) -> None:
    """<[x, y], z> = -<y, [x, z]>: G ad(e_i) is skew for every basis vector."""
    g_ad = alg.inner @ np.swapaxes(alg.structure, 1, 2)
    scale = max(1.0, float(np.max(np.abs(g_ad), initial=0.0)))
    res = float(np.max(np.abs(g_ad + np.swapaxes(g_ad, 1, 2)), initial=0.0)) / scale
    if res > MODEL_TOL:
        raise PolarityError(f"inner product is not ad-invariant (relative residual {res:.2e})")


def regularize_basepoint(pair: SymmetricPair, h: Subspace, seed: int = 0) -> Subspace:
    """Conjugate h so the basepoint orbit dimension is maximal over draws.

    Conjugation acts through Ad(exp Z) = exp(ad Z) for seeded random Z, so
    no matrix realization is needed.  With the ad-invariant inner product
    G = L L^T, the matrix S = L^T (ad Z) L^-T is skew, so every exp(-ad Z)
    = L^-T exp(-S) L^T comes from one stacked eigendecomposition of iS.
    One stacked SVD ranks h (draw 0) and its conjugates; Gram-Schmidt keeps
    the rank, so only the first of maximal rank is orthonormalised.
    """
    alg = pair.algebra
    rng = np.random.default_rng(seed)
    zs = []
    for _ in range(REGULAR_DRAWS):
        z = rng.standard_normal(alg.dim)
        zs.append(z / max(alg.norm(z), 1e-12) * rng.uniform(0.2, 2.5))
    _check_ad_invariant(alg)
    chol = np.linalg.cholesky(alg.inner)
    ad = alg.ad(np.array(zs))                                      # ad(z) per draw
    skew = chol.T @ np.swapaxes(np.linalg.solve(chol, np.swapaxes(ad, 1, 2)), 1, 2)
    lam, vec = np.linalg.eigh(1j * skew)
    rot = ((vec * np.exp(1j * lam)[:, None, :]) @ np.conj(np.swapaxes(vec, 1, 2))).real
    ad_inv = np.linalg.solve(chol.T, rot @ chol.T)                 # exp(-ad z)
    conj = np.concatenate([h.basis[None], h.basis @ np.swapaxes(ad_inv, 1, 2)])
    best = int(np.argmax(linalg.svd_rank(pair.project_p(conj))))
    return Subspace(h.ambient,
                    h.basis if best == 0 else linalg.orthonormalize(conj[best], alg.inner))


def is_polar_homogeneous(pair: SymmetricPair, h: Subspace, seed: int = 0,
                         tol: float = SPAN_TOL) -> PolarityVerdict:
    """Polarity of the subgroup action with Lie algebra h on the pair's space.

    After regularizing the basepoint, the action is polar iff
    m = p \\cap h^perp is a Lie triple system and [m, m] is orthogonal to h;
    the section is then Exp(m).
    """
    alg = pair.algebra
    _check_subalgebra(alg, h)
    hreg = regularize_basepoint(pair, h, seed)
    # m = p \cap h^perp, solved in p-coordinates.
    constraints = hreg.basis @ alg.inner @ pair.p.basis.T   # (dim h, dim p)
    coeffs = linalg.kernel(constraints)
    m = Subspace(f"{alg.name}:m",
                 linalg.orthonormalize(coeffs @ pair.p.basis, alg.inner))
    lts = is_lie_triple_system(alg, m, tol)
    i, j = np.triu_indices(m.dim, 1)
    br = alg.bracket(m.basis[:, None], m.basis[None])[i, j]       # [m_i, m_j], i < j
    perp = np.abs(br @ alg.inner @ hreg.basis.T)                    # perp[pair, a]
    perp_worst = float(np.max(perp, initial=0.0))
    perp_failed = linalg.robust_failure(perp_worst, tol, "[m,m] perp h test")
    polar = lts.ok and not perp_failed
    residual = max(lts.residual, perp_worst)
    witness = None
    if not lts.ok:
        witness = ("lts",) + tuple(lts.witness or ())
    elif perp_failed:
        p, a = linalg.first_max(perp)
        witness = ("bracket-pairing", int(i[p]), int(j[p]), a, perp_worst)
    return PolarityVerdict(polar, m.dim, m if polar else None, witness, residual, tol)


def is_hyperpolar_homogeneous(pair: SymmetricPair, h: Subspace, seed: int = 0,
                              tol: float = SPAN_TOL) -> CheckResult:
    """Hyperpolarity: the polar criterion plus m abelian (flat section)."""
    verdict = is_polar_homogeneous(pair, h, seed, tol)
    if not verdict.polar:
        return CheckResult(False, verdict.residual, tol, ("not-polar",))
    ab = is_abelian_subspace(pair.algebra, verdict.section, tol)
    residual = max(verdict.residual, ab.residual)
    if not ab.ok:
        return CheckResult(False, residual, tol, ("section-not-flat",) + tuple(ab.witness or ()))
    return CheckResult(True, residual, tol, None)
