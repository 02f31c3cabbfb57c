"""Restricted roots, the reflection group they generate, and quotient metrics.

Roots are extracted from the spectrum of (ad H)^2 for a seeded generic H in
a maximal abelian subspace: of ``ROOT_DRAWS`` seeded draws, diagonalised
together, the first whose narrowest gap between eigenvalue clusters is
widest is kept, and its clusters -lambda(H)^2 are matched to linear
functionals by evaluating mixed traces against a basis of a.  The
reflection group closes the root reflections under multiplication.  Orbit
space distances come from a multi-start modified Newton descent on the orbit
point itself, with the exact Hessian of the chart X -> exp(X) m re-centred
at every iterate, run in lockstep over every start of every pair of a
stacked call, and are compared with the section/Weyl distance.  Group
elements are exponentiated from eigendecompositions of Hermitian matrices,
so the module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .liealg import Subspace, is_abelian_subspace
from .polarity import OrthogonalRep
from .symspace import SymmetricPair

CLUSTER_TOL = 1e-6          # eigenvalues of (ad H)^2 closer than this share a cluster
MAX_GROUP_ORDER = 4096      # a larger reflection closure means wrong root data
GTOL = 1e-10                # max|grad| at which a quotient-distance start has converged
ARMIJO_C1 = 1e-4            # sufficient-decrease constant of the backtracking search
ROUNDING = 16 * np.finfo(float).eps   # rounding level of f, relative to |p| |q|
EIG_FLOOR = 1e-8            # least |eigenvalue| of the Newton model, relative to the largest
ROOT_DRAWS = 8              # generic elements H of a drawn by restricted_roots


class WeylError(ValueError):
    pass


@dataclass(frozen=True)
class RestrictedRootSystem:
    """Root covectors on a (coordinates in the orthonormal basis of a)."""

    a: Subspace
    roots: tuple            # ((vector, multiplicity), ...)
    g0_dim: int

    def positive(self, tol: float = 1e-10) -> list:
        """One representative per +- pair, by lexicographic sign convention."""
        out = []
        for vec, mult in self.roots:
            v = np.asarray(vec)
            lead = next((x for x in v if abs(x) > tol), 0.0)
            if lead > 0:
                out.append((v, mult))
        return out


@dataclass(frozen=True)
class ReflectionGroup:
    generators: tuple
    elements: tuple

    @property
    def order(self) -> int:
        return len(self.elements)


def _nearest_index(m: np.ndarray, mats: list, tol: float):
    for i, other in enumerate(mats):
        if float(np.max(np.abs(m - other))) < tol:
            return i
    return None


def restricted_roots(pair: SymmetricPair, a: Subspace, seed: int = 0) -> RestrictedRootSystem:
    """Diagonalise (ad H)^2 for generic H in a and cluster the spectrum.

    Requires ``a`` abelian (maximal abelian in practice); eigenvalue clusters
    -c^2 are matched to linear functionals lambda on a by evaluating
    tr(ad(a_i) ad(H)) over each eigenspace, which equals -lambda(a_i) c dim.
    """
    alg = pair.algebra
    if a.dim == 0:
        raise WeylError("a must be nonzero")
    if not is_abelian_subspace(alg, a).ok:
        raise WeylError("a is not abelian")
    h = np.random.default_rng(seed).standard_normal((ROOT_DRAWS, a.dim)) @ a.basis
    h = h / alg.norm(h)[:, None]
    ad_hs = alg.ad(h)
    gram = alg.inner
    # G-orthonormal eigendecompositions of the G-symmetric operators (ad H)^2,
    # one stacked eigh for every draw; eigenvalues come ascending.
    chol = np.linalg.cholesky(gram)
    m_sym = chol.T @ (ad_hs @ ad_hs) @ np.linalg.inv(chol.T)
    all_vals, all_vecs = np.linalg.eigh((m_sym + np.swapaxes(m_sym, 1, 2)) / 2)
    # keep the first draw whose narrowest gap between adjacent clusters is
    # widest; a draw whose spectrum is one cluster scores zero
    gaps = np.diff(all_vals, axis=-1)
    score = np.min(gaps, axis=-1, initial=np.inf, where=gaps > CLUSTER_TOL)
    best, = linalg.first_max(np.where(np.isfinite(score), score, 0.0))
    h, ad_h, eigvals = h[best], ad_hs[best], all_vals[best]
    vectors = np.linalg.solve(chol.T, all_vecs[best])   # columns, G-orthonormal
    clusters: list[list[int]] = [[0]]
    for idx in range(1, eigvals.size):
        if eigvals[idx] - eigvals[clusters[-1][-1]] > CLUSTER_TOL:
            clusters.append([idx])
        else:
            clusters[-1].append(idx)
    centers = [float(np.mean(eigvals[c])) for c in clusters]
    for i in range(len(centers) - 1):
        gap = abs(centers[i + 1] - centers[i])
        if gap < 3 * CLUSTER_TOL:
            raise WeylError(
                f"eigenvalue clustering ambiguous: centers {centers[i]:.3e} and "
                f"{centers[i + 1]:.3e} separated by {gap:.3e} (tol {CLUSTER_TOL:.1e})")
    roots = []
    g0_dim = 0
    for cluster, center in zip(clusters, centers):
        if abs(center) <= max(10 * CLUSTER_TOL, 1e-8):
            g0_dim += len(cluster)
            continue
        if center > 0:
            raise WeylError(f"(ad H)^2 has a positive eigenvalue {center:.3e}")
        d = len(cluster)
        if d % 2:
            raise WeylError(f"odd root eigenspace dimension {d}")
        c = float(np.sqrt(-center))
        vecs = vectors[:, cluster]
        lam = np.zeros(a.dim)
        for i in range(a.dim):
            t = alg.ad(a.basis[i]) @ ad_h
            tr = float(np.einsum("ic,ij,jc->", vecs, gram @ t, vecs))
            lam[i] = -tr / (d * c)
        h_coords = a.basis @ alg.inner @ h
        if float(lam @ h_coords) < 0:          # sign convention: lambda(H) = +c
            lam = -lam
        val = float(lam @ h_coords)
        if abs(val - c) > 1e-6 * max(1.0, c):
            raise WeylError(
                f"root functional inconsistent: lambda(H)={val:.6e} vs cluster "
                f"speed {c:.6e}")
        roots.append((lam.copy(), d // 2))
        roots.append(((-lam).copy(), d // 2))
    return RestrictedRootSystem(a, tuple(roots), g0_dim)


def weyl_group_closure(system: RestrictedRootSystem) -> ReflectionGroup:
    """Close the root reflections s_lam(v) = v - 2(<v,lam>/<lam,lam>)lam."""
    k = system.a.dim
    eye = np.eye(k)
    gens = []
    for vec, _ in system.positive():
        lam = np.asarray(vec, float)
        gens.append(eye - 2.0 * np.outer(lam, lam) / float(lam @ lam))
    if not gens:
        return ReflectionGroup((), (eye.copy(),))
    elements = [eye.copy()]
    frontier = [eye.copy()]
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens:
                prod = g @ el
                if _nearest_index(prod, elements, 1e-6) is None:
                    elements.append(prod)
                    nxt.append(prod)
                    if len(elements) > MAX_GROUP_ORDER:
                        raise WeylError(
                            f"reflection closure exceeded {MAX_GROUP_ORDER} elements; "
                            "root data is likely wrong")
        frontier = nxt
    return ReflectionGroup(tuple(gens), tuple(elements))


# ---------------------------------------------------------------------------
# quotient distances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientOptimizerConfig:
    restarts: int = 32
    evals: int = 500          # Newton iterations at most, shared by every start in lockstep
    probes: int = 400         # cheap global samples used to place the starts
    box: float = float(np.pi)
    seed: int = 0


@dataclass(frozen=True)
class QuotientDistance:
    value: float | np.ndarray       # (B,) for stacked pairs
    point: np.ndarray               # g q attaining ``value``: (d,), or (B, d) for stacked pairs
    starts: int                     # Newton starts, over every pair
    iterations: int                 # lockstep Newton iterations until every start retired
    evaluations: int                # start evaluations, summed over the lockstep passes


def _second_kind_elements(rep: OrthogonalRep, t: np.ndarray) -> np.ndarray:
    """g(t) = E_0(t_0) ... E_{n-1}(t_{n-1}), E_i(t) = exp(t A_i), for t of shape (..., n).

    Each E_i comes from the eigendecomposition of the Hermitian matrix i A_i.
    """
    lam, vec = np.linalg.eigh(1j * rep.generators)
    phase = np.exp(-1j * t[..., None] * lam)
    exps = ((vec * phase[..., None, :]) @ np.conj(np.swapaxes(vec, -1, -2))).real
    g = exps[..., 0, :, :]
    for i in range(1, t.shape[-1]):
        g = g @ exps[..., i, :, :]
    return g


def _chart_derivatives(gens: np.ndarray, p: np.ndarray, m: np.ndarray):
    """Gradient and Hessian of f(x) = -<p, exp(X) m>, X = sum_i x_i A_i, at x = 0.

    grad_i = (A_i p).m and H_ij = ((A_i p).(A_j m) + (A_j p).(A_i m)) / 2, for
    stacks ``p`` and ``m`` of shape (..., d).
    """
    ap = np.einsum("iab,...b->...ia", gens, p)
    hess = ap @ np.swapaxes(np.einsum("iab,...b->...ia", gens, m), -1, -2)
    return np.einsum("...ia,...a->...i", ap, m), (hess + np.swapaxes(hess, -1, -2)) / 2


def _lockstep_newton(gens: np.ndarray, p: np.ndarray, m: np.ndarray, noise: np.ndarray,
                     iterations: int):
    """Minimise f = -<p, m> over the orbit points m of k starts at once.

    Each iteration models f to second order in the chart X -> exp(X) m,
    X = sum_i x_i A_i (``_chart_derivatives``), takes the Newton direction of
    that Hessian with each |eigenvalue| floored at ``EIG_FLOOR`` times the
    largest (so it descends away from saddles instead of creeping past
    them), and backtracks from the unit step by Armijo along exp(s X) m,
    whose one eigendecomposition of i X serves every trial step.  A start
    retires when max|grad| <= GTOL or when its line search can no longer
    decrease f by more than ``noise``, its rounding level.  Nocedal and Wright, Numerical
    Optimization, section 3.4; Absil, Mahony and Sepulchre, Optimization
    Algorithms on Matrix Manifolds, chapter 6.  Returns the final points,
    the iterations run and the start evaluations summed over the passes.
    """
    m = np.array(m, float)
    active = np.ones(m.shape[0], bool)
    evaluations = 0
    for it in range(iterations):
        idx = np.flatnonzero(active)
        if not idx.size:
            return m, it, evaluations
        evaluations += idx.size
        grad, hess = _chart_derivatives(gens, p[idx], m[idx])
        searching = np.max(np.abs(grad), axis=1) > GTOL
        active[idx[~searching]] = False
        idx, grad, hess = idx[searching], grad[searching], hess[searching]
        lam, vec = np.linalg.eigh(hess)
        lam = np.abs(lam)
        floor = np.maximum(EIG_FLOOR * np.max(lam, axis=1), noise[idx])
        lam = np.maximum(lam, floor[:, None])
        along = np.einsum("kij,ki->kj", vec, grad)
        x = -np.einsum("kij,kj->ki", vec, along / lam)
        slope = -np.sum(along ** 2 / lam, axis=1)
        w, u = np.linalg.eigh(1j * np.einsum("ki,iab->kab", x, gens))
        a = np.einsum("kab,ka->kb", u, p[idx])                # conj(U^H p)
        b = np.einsum("kab,ka->kb", np.conj(u), m[idx])       # U^H m
        f0 = -np.sum(a * b, axis=1).real
        accepted = np.zeros(idx.size, bool)
        step = np.ones(idx.size)
        trial = np.flatnonzero(-slope > noise[idx])
        while trial.size:
            evaluations += trial.size
            rotated = np.exp(-1j * step[trial, None] * w[trial]) * b[trial]
            ok = -np.sum(a[trial] * rotated, axis=1).real \
                <= f0[trial] + ARMIJO_C1 * step[trial] * slope[trial]
            accepted[trial[ok]] = True
            m[idx[trial[ok]]] = np.einsum("kab,kb->ka", u[trial[ok]], rotated[ok]).real
            trial = trial[~ok]
            step[trial] *= 0.5
            trial = trial[-step[trial] * slope[trial] > noise[idx[trial]]]
        active[idx] = accepted            # the rest stalled at rounding level
    return m, iterations, evaluations


def _ambient_distance(rep: OrthogonalRep, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    chord = np.linalg.norm(p - q, axis=-1)
    if rep.restrict_to_sphere:
        return 2 * np.arcsin(np.minimum(chord / 2, 1.0))   # exact to rounding at small angles
    return chord


def quotient_distance(rep: OrthogonalRep, p: np.ndarray, q: np.ndarray,
                      config: QuotientOptimizerConfig | None = None) -> QuotientDistance:
    """Upper bound for the orbit-space distance min_g |p - g q|.

    The distance falls as <p, g q> rises (on the sphere too).  The ``probes``
    seeded samples g(t) = prod_i exp(t_i A_i) in canonical coordinates of the
    second kind are scored by that value in one batched pass, and the best
    ``restarts`` orbit points g(t) q start a modified Newton descent of
    -<p, m> over the orbit, ``evals`` iterations at most.  The least ambient
    distance at a final orbit point approximates an infimum and is an upper
    bound.  On a Euclidean model each pair is searched at the scale where
    its largest entry lies in [0.5, 1), and the result scaled back: the
    distance is homogeneous, and the search then works from 1e-300 to 1e300.

    ``p`` and ``q`` may be stacks of B pairs, shape (B, d); then ``value``
    has shape (B,) and ``point`` (B, d).  Every pair shares the one probe set
    drawn from ``config.seed``, and one lockstep Newton runs all B x
    restarts starts together.  Pairs that are not finite stacks of equal
    shape in R^space_dim, and a config without probes, with a negative
    ``evals`` or with a box that is not positive and finite, raise
    ``WeylError``.
    """
    cfg = config or QuotientOptimizerConfig()
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    if p.shape != q.shape or p.ndim not in (1, 2) or p.shape[-1] != rep.space_dim:
        raise WeylError(f"p and q must both have shape ({rep.space_dim},) or "
                        f"(B, {rep.space_dim}); got {p.shape} and {q.shape}")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise WeylError("p and q must be finite")
    if cfg.probes < 1 or cfg.evals < 0 or not (math.isfinite(cfg.box) and cfg.box > 0):
        raise WeylError(f"the search needs at least one probe, a non-negative iteration "
                        f"budget and a positive finite box; got probes={cfg.probes}, "
                        f"evals={cfg.evals}, box={cfg.box}")
    single = p.ndim == 1
    p, q = np.atleast_2d(p), np.atleast_2d(q)
    # On R^d the distance is homogeneous of degree 1, so each pair is searched
    # scaled by the power of two that brings its largest entry into [0.5, 1):
    # exact, and the same search for every scale of the pair.
    scale = np.zeros(p.shape[0], int)
    if not rep.restrict_to_sphere:
        scale = np.frexp(np.maximum(np.max(np.abs(p), axis=1), np.max(np.abs(q), axis=1)))[1]
        p, q = np.ldexp(p, -scale[:, None]), np.ldexp(q, -scale[:, None])
    n = rep.n_generators
    if n == 0:
        value, point = _ambient_distance(rep, p, q), q.copy()
        n_starts = iterations = evaluations = 0
    else:
        rng = np.random.default_rng(cfg.seed)
        samples = rng.uniform(-cfg.box, cfg.box, (cfg.probes, n))
        samples[0] = 0.0
        moved = q @ np.swapaxes(_second_kind_elements(rep, samples), 1, 2)  # (probes, B, d)
        restarts = min(max(cfg.restarts, 1), cfg.probes)
        n_starts = p.shape[0] * restarts
        order = np.argsort(-np.sum(moved * p, axis=-1), axis=0)[:restarts].T
        pick = np.arange(p.shape[0])
        starts = moved[order, pick[:, None]].reshape(-1, p.shape[1])  # (B * restarts, d)
        owner = np.repeat(pick, restarts)                              # pair of each start
        noise = ROUNDING * np.linalg.norm(p, axis=1) * np.linalg.norm(q, axis=1)
        m, iterations, evaluations = _lockstep_newton(rep.generators, p[owner], starts,
                                                      noise[owner], cfg.evals)
        dist = _ambient_distance(rep, p[owner], m).reshape(-1, restarts)
        best = np.argmin(dist, axis=1)
        value, point = dist[pick, best], m.reshape(-1, restarts, p.shape[1])[pick, best]
    value, point = np.ldexp(value, scale), np.ldexp(point, scale[:, None])
    if single:
        return QuotientDistance(float(value[0]), point[0], n_starts, iterations, evaluations)
    return QuotientDistance(value, point, n_starts, iterations, evaluations)


# ---------------------------------------------------------------------------
# the reduction isometry M/G = Sigma/W
# ---------------------------------------------------------------------------

def _weyl_images(section: Subspace, group: ReflectionGroup, p: np.ndarray) -> np.ndarray:
    """The Weyl images of p (..., d) as an (..., |W|, d) stack."""
    coords = np.asarray(p, float) @ section.basis.T
    return np.einsum("wij,...j->...wi", np.array(group.elements), coords) @ section.basis


@dataclass(frozen=True)
class ReductionSampler:
    pairs: int = 200
    box: float = 1.5
    seed: int = 0


@dataclass(frozen=True)
class ReductionReport:
    max_relative_error: float
    max_one_sided_excess: float       # max over pairs of (quotient - section/W)
    n_pairs: int
    iterations: int                   # of the one stacked quotient_distance call
    evaluations: int


def reduction_isometry_check(rep: OrthogonalRep, section: Subspace,
                             group: ReflectionGroup,
                             sampler: ReductionSampler | None = None,
                             config: QuotientOptimizerConfig | None = None) -> ReductionReport:
    """Compare orbit-space distances with section/Weyl distances on sampled pairs.

    The quotient distance can only exceed the section/W value by optimizer
    slack (it is an infimum over a larger set), so the one-sided excess is
    reported separately from the relative discrepancy.  All pairs are drawn
    first and go to one stacked ``quotient_distance`` call; without a
    ``config`` it runs ``QuotientOptimizerConfig(seed=sampler.seed + 1)``.
    """
    cfg = sampler or ReductionSampler()
    rng = np.random.default_rng(cfg.seed)
    x, y = np.moveaxis(rng.uniform(-cfg.box, cfg.box, (cfg.pairs, 2, section.dim))
                       @ section.basis, 1, 0)
    if rep.restrict_to_sphere:
        x = x / np.linalg.norm(x, axis=1, keepdims=True)
        y = y / np.linalg.norm(y, axis=1, keepdims=True)
    dw = np.min(_ambient_distance(rep, x[:, None, :], _weyl_images(section, group, y)), axis=1)
    found = quotient_distance(rep, x, y, config or QuotientOptimizerConfig(seed=cfg.seed + 1))
    rel = np.abs(found.value - dw) / np.maximum(dw, 1e-3)
    return ReductionReport(float(np.max(rel, initial=0.0)),
                           float(np.max(found.value - dw, initial=-np.inf)), cfg.pairs,
                           found.iterations, found.evaluations)
