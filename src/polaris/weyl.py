"""Restricted roots, the reflection group they generate, and quotient metrics.

Roots are extracted from the spectrum of (ad H)^2 for a seeded generic H in
a maximal abelian subspace: of ``ROOT_DRAWS`` seeded draws, diagonalised
together, the first whose narrowest gap between eigenvalue clusters is
widest is kept, and its clusters -lambda(H)^2 are matched to linear
functionals by evaluating mixed traces against a basis of a.  The
reflection group closes the root reflections under multiplication.  Orbit
space distances come from a multi-start BFGS descent with an analytic
gradient over coordinates of the group, run in lockstep over every start of
every pair of a stacked call, and are compared with the section/Weyl
distance.  Group elements are exponentiated from eigendecompositions of
Hermitian matrices, so the module needs numpy only.
"""

from __future__ import annotations

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
    evals: int = 500          # BFGS iteration cap per start; the lockstep loop keeps it
    probes: int = 400         # cheap global samples used to place the starts
    box: float = float(np.pi)
    seed: int = 0


@dataclass(frozen=True)
class QuotientDistance:
    value: float | np.ndarray       # (B,) for stacked pairs
    params: np.ndarray              # (n,), or (B, n) for stacked pairs


class _Pairing:
    """f(t) = -<p, g(t) q> for g(t) = E_0(t_0) ... E_{n-1}(t_{n-1}), E_i(t) = exp(t A_i).

    Each E_i comes from the eigendecomposition of the Hermitian matrix i A_i.
    ``t``, ``p`` and ``q`` may carry leading batch axes, which broadcast; f
    and its gradient carry the broadcast batch shape.  ``rows`` selects rows
    of a stacked ``p`` and ``q``.
    """

    def __init__(self, rep: OrthogonalRep, p: np.ndarray, q: np.ndarray):
        self.gens, self.p, self.q = rep.generators, p, q
        self._lam, self._vec = np.linalg.eigh(1j * self.gens)
        self._vec_h = np.conj(np.swapaxes(self._vec, -1, -2))

    def sweep(self, t: np.ndarray, rows=slice(None)):
        """The factors E_i(t_i) and the suffixes E_i ... E_{n-1} q, i = 0..n."""
        t = np.asarray(t, float)
        phase = np.exp(-1j * t[..., None] * self._lam)
        exps = ((self._vec * phase[..., None, :]) @ self._vec_h).real
        suffix = [self.q[rows]]
        for i in range(t.shape[-1] - 1, -1, -1):
            suffix.insert(0, (exps[..., i, :, :] @ suffix[0][..., None])[..., 0])
        return exps, suffix

    def __call__(self, t: np.ndarray, rows=slice(None)):
        """(f(t), grad f(t)) with d_i f = -<p, E_0...E_{i-1} A_i E_i...E_{n-1} q>."""
        exps, suffix = self.sweep(t, rows)
        row = self.p[rows]                 # (E_0 ... E_{i-1})^T p
        grad = np.empty(suffix[0].shape[:-1] + np.shape(t)[-1:])
        for i in range(grad.shape[-1]):
            grad[..., i] = -np.sum((row @ self.gens[i]) * suffix[i], axis=-1)
            row = (row[..., None, :] @ exps[..., i, :, :])[..., 0, :]
        return -np.sum(suffix[0] * self.p[rows], axis=-1), grad


def _lockstep_bfgs(fun, t: np.ndarray, noise: np.ndarray, iterations: int) -> np.ndarray:
    """Minimise B independent problems at once by BFGS with Armijo backtracking.

    ``fun(t, rows)`` gives the values and gradients of problems ``rows`` at
    ``t`` (k, n).  Each problem keeps its own n x n inverse-Hessian
    approximation, scaled by s^T y / y^T y before its first update, and skips
    the update when s^T y <= 0.  A problem retires when max|grad| <= GTOL or
    when its line search can no longer decrease f by more than ``noise``, its
    rounding level; every call evaluates the searching rows only.  Nocedal
    and Wright, Numerical Optimization, Algorithms 3.1 and 6.1.
    """
    t = np.array(t, float)
    f, g = fun(t, np.arange(t.shape[0]))
    eye = np.eye(t.shape[1])
    h = np.tile(eye, (t.shape[0], 1, 1))
    fresh = np.ones(t.shape[0], bool)
    active = np.max(np.abs(g), axis=1) > GTOL
    for _ in range(iterations):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        d = -(h[idx] @ g[idx, :, None])[..., 0]
        slope = np.sum(g[idx] * d, axis=1)
        step = np.ones(idx.size)
        f_new, g_new = np.empty(idx.size), np.empty((idx.size, t.shape[1]))
        accepted = np.zeros(idx.size, bool)
        trial = np.arange(idx.size)
        while trial.size:
            rows = idx[trial]
            fv, gv = fun(t[rows] + step[trial, None] * d[trial], rows)
            ok = fv <= f[rows] + ARMIJO_C1 * step[trial] * slope[trial]
            accepted[trial[ok]] = True
            f_new[trial[ok]], g_new[trial[ok]] = fv[ok], gv[ok]
            trial = trial[~ok]
            step[trial] *= 0.5
            trial = trial[-step[trial] * slope[trial] > noise[idx[trial]]]
        active[idx[~accepted]] = False          # stalled at rounding level
        idx, s = idx[accepted], (step[:, None] * d)[accepted]
        y = g_new[accepted] - g[idx]
        t[idx] += s
        f[idx], g[idx] = f_new[accepted], g_new[accepted]
        active[idx] = np.max(np.abs(g[idx]), axis=1) > GTOL
        sy = np.sum(s * y, axis=1)
        keep = sy > 0
        idx, s, y, sy = idx[keep], s[keep], y[keep], sy[keep]
        first = fresh[idx]
        h[idx[first]] = (sy[first] / np.sum(y[first] ** 2, axis=1))[:, None, None] * eye
        fresh[idx] = False
        rho = (1.0 / sy)[:, None, None]
        left = eye - rho * s[:, :, None] * y[:, None, :]
        h[idx] = left @ h[idx] @ np.swapaxes(left, 1, 2) + rho * s[:, :, None] * s[:, None, :]
    return t


def _ambient_distance(rep: OrthogonalRep, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    if rep.restrict_to_sphere:
        return np.arccos(np.clip(np.sum(p * q, axis=-1), -1.0, 1.0))
    return np.linalg.norm(p - q, axis=-1)


def quotient_distance(rep: OrthogonalRep, p: np.ndarray, q: np.ndarray,
                      config: QuotientOptimizerConfig | None = None) -> QuotientDistance:
    """Upper bound for the orbit-space distance min_g |p - g q|.

    In canonical coordinates of the second kind, g(t) = prod_i exp(t_i A_i),
    the distance falls as <p, g(t) q> rises (on the sphere too), so the
    ``probes`` seeded samples are scored in one batched pass and the best
    ``restarts`` of them start a BFGS descent of -<p, g(t) q> with its
    analytic gradient, ``evals`` iterations at most.  The least ambient
    distance at a final t approximates an infimum and is an upper bound.

    ``p`` and ``q`` may be stacks of B pairs, shape (B, d); then ``value``
    has shape (B,) and ``params`` (B, n).  Every pair shares the one probe
    set drawn from ``config.seed``, and one lockstep BFGS runs all B x
    restarts starts together.
    """
    cfg = config or QuotientOptimizerConfig()
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    single = p.ndim == 1
    p, q = np.atleast_2d(p), np.atleast_2d(q)
    n = rep.n_generators
    if n == 0:
        value, params = _ambient_distance(rep, p, q), np.zeros((p.shape[0], 0))
    else:
        rng = np.random.default_rng(cfg.seed)
        samples = rng.uniform(-cfg.box, cfg.box, (cfg.probes, n))
        samples[0] = 0.0
        pairing = _Pairing(rep, p, q)
        scores = pairing(samples[:, None, :])[0]                     # (probes, B)
        restarts = min(max(cfg.restarts, 1), cfg.probes)
        starts = samples[np.argsort(scores, axis=0)[:restarts].T]    # (B, restarts, n)
        owner = np.repeat(np.arange(p.shape[0]), restarts)           # pair of each start
        noise = ROUNDING * np.linalg.norm(p, axis=1) * np.linalg.norm(q, axis=1)
        t = _lockstep_bfgs(lambda t, rows: pairing(t, owner[rows]), starts.reshape(-1, n),
                           noise[owner], cfg.evals)
        moved = pairing.sweep(t, owner)[1][0]                        # g(t) q per start
        dist = _ambient_distance(rep, p[owner], moved).reshape(-1, restarts)
        best = np.argmin(dist, axis=1)
        pick = np.arange(p.shape[0])
        value, params = dist[pick, best], t.reshape(-1, restarts, n)[pick, best]
    if single:
        return QuotientDistance(float(value[0]), params[0])
    return QuotientDistance(value, params)


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
    dq = quotient_distance(rep, x, y,
                           config or QuotientOptimizerConfig(seed=cfg.seed + 1)).value
    rel = np.abs(dq - dw) / np.maximum(dw, 1e-3)
    return ReductionReport(float(np.max(rel, initial=0.0)),
                           float(np.max(dq - dw, initial=-np.inf)), cfg.pairs)
