"""Restricted roots, the Weyl group they generate, and quotient metrics.

Roots are extracted from the spectrum of (ad H)^2 for a seeded generic H in
a maximal abelian subspace: of ``ROOT_DRAWS`` seeded draws, diagonalised
together, the first whose narrowest gap between eigenvalue clusters is
widest is kept, and its clusters -lambda(H)^2 are matched to linear
functionals by mixed traces against a basis of a.  W is never enumerated:
it is given by its simple roots, its order comes from the root heights, and
the section/W distance of two points is that of their images folded into
one chamber.  Orbit space distances come from a multi-start modified Newton
descent on the orbit point itself, with the exact Hessian of the chart
X -> exp(X) m re-centred at every iterate, run in lockstep over every start
of every pair of a stacked call.  A start retires only at a second-order
point: where the gradient vanishes but the Hessian has negative curvature,
it steps along it.  On a polar representation the orbits are taut, so the
height function <p, .> on an orbit has no local maximum but the global one
(R. Bott and H. Samelson, Amer. J. Math. 80, 1958; R. Palais and C.-L.
Terng, LNM 1353, 1988): there, with ``polar=True``, the first start that
retires at a second-order point solves its pair and the pair's other
starts stop.  Group elements are exponentiated from eigendecompositions of
Hermitian matrices, so the module needs numpy only.
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
ROOT_TOL = 1e-6             # root sums and simple-root coefficients, relative to the longest root
GTOL = 1e-10                # max|grad| at which a quotient-distance start has converged
ARMIJO_C1 = 1e-4            # sufficient-decrease constant of the backtracking search
ROUNDING = 16 * np.finfo(float).eps   # rounding level of f, relative to |p| |q|
EIG_FLOOR = 1e-8            # least |eigenvalue| of the Newton model, relative to the largest
ROOT_DRAWS = 8              # generic elements H of a drawn by restricted_roots
SIGN_TOL = 1e-10            # least |coordinate| that fixes a root's lexicographic sign
QUOTIENT_BOX = float(np.pi)  # probes of the quotient search: coordinates in [-box, box]
REDUCTION_BOX = 1.5         # section pairs of the reduction check: coordinates in [-box, box]


class WeylError(ValueError):
    pass


@dataclass(frozen=True)
class RestrictedRootSystem:
    """Root covectors on a (coordinates in the orthonormal basis of a)."""

    a: Subspace
    roots: tuple            # ((vector, multiplicity), ...)
    g0_dim: int

    def positive(self) -> list:
        """One representative per +- pair, by lexicographic sign convention."""
        return [(np.asarray(vec), mult) for vec, mult in self.roots
                if next((x for x in np.asarray(vec) if abs(x) > SIGN_TOL), 0.0) > 0]


@dataclass(frozen=True)
class ReflectionGroup:
    """W, generated by the reflections in a base of the reduced root system."""

    simple_roots: np.ndarray        # (rank, dim a), coordinates in the orthonormal basis of a
    order: int
    reflections: int                # N: the positive roots of the reduced system


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
    # G-orthonormal eigendecompositions of the G-symmetric operators (ad H)^2:
    # with the algebra's root G = L L^T, L^T (ad H)^2 L^-T is symmetric, one
    # stacked eigh for every draw; eigenvalues come ascending.
    root, root_inv = alg.metric_root
    m_sym = root.T @ (ad_hs @ ad_hs) @ root_inv.T
    all_vals, all_vecs = np.linalg.eigh((m_sym + np.swapaxes(m_sym, 1, 2)) / 2)
    # keep the first draw whose narrowest gap between adjacent clusters is
    # widest; a draw whose spectrum is one cluster scores zero
    gaps = np.diff(all_vals, axis=-1)
    score = np.min(gaps, axis=-1, initial=np.inf, where=gaps > CLUSTER_TOL)
    best, = linalg.first_max(np.where(np.isfinite(score), score, 0.0))
    h, ad_h, eigvals = h[best], ad_hs[best], all_vals[best]
    vectors = root_inv.T @ all_vecs[best]               # columns, G-orthonormal
    cuts = np.flatnonzero(np.diff(eigvals) > CLUSTER_TOL) + 1
    clusters = np.split(np.arange(eigvals.size), cuts)
    centers = [float(np.mean(eigvals[c])) for c in clusters]
    for lo, hi in zip(centers, centers[1:]):
        if hi - lo < 3 * CLUSTER_TOL:
            raise WeylError(
                f"eigenvalue clustering ambiguous: centers {lo:.3e} and "
                f"{hi:.3e} separated by {hi - lo:.3e} (tol {CLUSTER_TOL:.1e})")
    # traces[i, c] = tr(ad(a_i) ad(H)) over the eigenspace of cluster c: the
    # diagonal of V^T G ad(a_i) ad(H) V for every a_i, summed over each
    # cluster's run of columns; G V = L U for the eigenvectors U of m_sym
    diagonal = np.einsum("jc,ijc->ic", root @ all_vecs[best], alg.ad(a.basis) @ ad_h @ vectors)
    traces = np.add.reduceat(diagonal, np.r_[0, cuts], axis=1)
    h_coords = a.basis @ alg.inner @ h
    roots = []
    g0_dim = 0
    for cluster, center, tr in zip(clusters, centers, traces.T):
        if abs(center) <= max(10 * CLUSTER_TOL, 1e-8):
            g0_dim += len(cluster)
            continue
        if center > 0:
            raise WeylError(f"(ad H)^2 has a positive eigenvalue {center:.3e}")
        d = len(cluster)
        if d % 2:
            raise WeylError(f"odd root eigenspace dimension {d}")
        c = float(np.sqrt(-center))
        lam = -tr / (d * c)
        if float(lam @ h_coords) < 0:          # sign convention: lambda(H) = +c
            lam = -lam
        val = float(lam @ h_coords)
        if abs(val - c) > 1e-6 * max(1.0, c):
            raise WeylError(
                f"root functional inconsistent: lambda(H)={val:.6e} vs cluster "
                f"speed {c:.6e}")
        roots += [(lam, d // 2), (-lam, d // 2)]
    return RestrictedRootSystem(a, tuple(roots), g0_dim)


def weyl_group_closure(system: RestrictedRootSystem) -> ReflectionGroup:
    """The simple roots and the order of W.  Nothing is closed any more; the
    name stays because the benchmark calls and traces it.

    Each ray keeps its shortest positive root (BC_q reduces to B_q).  The
    simple roots are the kept roots that are not a sum of two others; root
    data whose kept roots are not non-negative integer combinations of them,
    to ``ROOT_TOL``, raises ``WeylError``.  |W| = prod(m_i + 1) over the
    exponents m_i, the dual partition of the root counts per height (Kostant;
    Humphreys, Reflection Groups and Coxeter Groups, 3.20).
    """
    pos = np.array([vec for vec, _ in system.positive()], float).reshape(-1, system.a.dim)
    length = np.linalg.norm(pos, axis=1)
    tol = ROOT_TOL * np.max(length, initial=0.0)
    same_ray = pos @ pos.T > (1 - ROOT_TOL) * np.outer(length, length)
    pos = pos[~np.any(same_ray & (length < length[:, None] - tol), axis=1)]
    # a root is a sum of two others exactly when it minus one of them is a root
    differences = pos[:, None, None] - pos[None, :, None] - pos[None, None]
    simple = pos[~np.any(np.linalg.norm(differences, axis=-1) < tol, axis=(1, 2))]
    coeffs = np.linalg.lstsq(simple.T, pos.T, rcond=None)[0].T
    integral = np.rint(coeffs)
    if np.linalg.matrix_rank(simple, tol) < len(simple) \
            or np.max(np.abs(coeffs @ simple - pos), initial=0.0) > tol \
            or np.max(np.abs(coeffs - integral), initial=0.0) > ROOT_TOL or np.any(integral < 0):
        raise WeylError("the positive roots are not non-negative integer combinations of "
                        f"{len(simple)} independent simple roots; root data is likely wrong")
    per_height = np.bincount(integral.sum(axis=1).astype(int))[1:]
    exponents = np.sum(per_height >= np.arange(1, len(simple) + 1)[:, None], axis=1)
    return ReflectionGroup(simple, math.prod(int(m) + 1 for m in exponents), len(pos))


def _chamber(group: ReflectionGroup, coords: np.ndarray) -> np.ndarray:
    """Fold rows of a-coordinates into the closed chamber of the simple roots.

    Each pass reflects every row in the simple root it pairs most negatively
    with, which lowers by one the number of positive roots negative on it,
    so ``group.reflections`` passes suffice.  W is simply transitive on
    chambers, so min_w |x - w y| = |x+ - y+| (Humphreys, ch. 1).
    """
    simple = group.simple_roots
    coroots = 2 * simple / np.einsum("ij,ij->i", simple, simple)[:, None]
    x = np.array(coords, float)
    for _ in range(group.reflections):
        pairing = x @ simple.T
        worst = pairing.min(axis=1)
        if not (worst < 0).any():
            break
        x -= np.minimum(worst, 0.0)[:, None] * coroots[pairing.argmin(axis=1)]
    return x


# ---------------------------------------------------------------------------
# quotient distances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientOptimizerConfig:
    """The quotient search: ``probes`` seeded samples with coordinates in
    [-``QUOTIENT_BOX``, ``QUOTIENT_BOX``] place ``restarts`` Newton starts,
    which run at most ``evals`` lockstep iterations."""

    restarts: int = 32
    evals: int = 500          # Newton iterations at most, shared by every start in lockstep
    probes: int = 400         # cheap global samples used to place the starts
    seed: int = 0


@dataclass(frozen=True)
class QuotientDistance:
    value: float | np.ndarray       # (B,) for stacked pairs
    point: np.ndarray               # g q attaining ``value``: (d,), or (B, d) for stacked pairs
    starts: int                     # Newton starts, over every pair
    iterations: int                 # lockstep Newton iterations until every start retired
    evaluations: int                # start evaluations, summed over the lockstep passes
    certified: int                  # pairs solved by a second-order certificate (``polar``)


def _second_kind_elements(rep: OrthogonalRep, t: np.ndarray) -> np.ndarray:
    """g(t) = E_0(t_0) ... E_{n-1}(t_{n-1}), E_i(t) = exp(t A_i), for t of shape (..., n).

    With the eigenpairs (lam_k, v_k) of the Hermitian matrix i A_i,
    E_i(t) = sum_k exp(-i t lam_k) v_k v_k^H is real, and equals
    cos(t lam) @ Re(v v^H) + sin(t lam) @ Im(v v^H): the E_i(t) of every t
    come from two real (..., d) @ (d, d^2) products.
    """
    n, d = rep.n_generators, rep.space_dim
    lam, vec = np.linalg.eigh(1j * rep.generators)
    outer = np.einsum("iak,ibk->ikab", vec, np.conj(vec)).reshape(n, d, d * d)
    phase = t[..., None] * lam                                      # (..., n, d)
    cos, sin = np.cos(phase), np.sin(phase)
    g = None
    for i in range(n):
        e = (cos[..., i, :] @ outer[i].real + sin[..., i, :] @ outer[i].imag) \
            .reshape(t.shape[:-1] + (d, d))
        g = e if g is None else g @ e
    return g


def _chart_derivatives(gens: np.ndarray, ap: np.ndarray, m: np.ndarray):
    """Gradient and Hessian of f(x) = -<p, exp(X) m>, X = sum_i x_i A_i, at x = 0.

    grad_i = (A_i p).m and H_ij = ((A_i p).(A_j m) + (A_j p).(A_i m)) / 2, for
    a stack ``m`` of shape (..., d) and the stack ``ap`` of A_i p, shape
    (..., n, d): p is fixed along a search, so its caller forms A_i p once.
    """
    hess = ap @ np.swapaxes(np.einsum("iab,...b->...ia", gens, m), -1, -2)
    return np.einsum("...ia,...a->...i", ap, m), (hess + np.swapaxes(hess, -1, -2)) / 2


def _lockstep_newton(gens: np.ndarray, p: np.ndarray, m: np.ndarray, noise: np.ndarray,
                     owner: np.ndarray, iterations: int, polar: bool):
    """Minimise f = -<p, m> over the orbit points m of k starts at once.

    Each iteration models f to second order in the chart X -> exp(X) m,
    X = sum_i x_i A_i (``_chart_derivatives``, with A_i p formed once per
    start), takes the Newton direction of that Hessian with each
    |eigenvalue| floored at the larger of ``EIG_FLOOR`` times the largest
    and ``noise`` (so it descends away from saddles instead of creeping
    past them), and backtracks from the unit step by Armijo along
    exp(s X) m, whose one eigendecomposition of i X serves every trial
    step.  A start is at a second-order point when the Hessian's least
    eigenvalue is at least minus that floor.  A start whose max|grad| <=
    GTOL retires there if it is at a second-order point; otherwise it steps
    along the eigenvector of the least eigenvalue, downhill, with the model
    decrease grad.v + lam/2 as the Armijo slope.  A start whose line search
    can no longer decrease f by more than ``noise``, its rounding level,
    retires too.  With ``polar``, a start that retires at a second-order
    point solves its pair ``owner``, and the pair's other starts stop.
    Nocedal and Wright, Numerical Optimization, section 3.4; Absil, Mahony
    and Sepulchre, Optimization Algorithms on Matrix Manifolds, chapter 6.
    Returns the final points, the iterations run, the start evaluations
    summed over the passes and the solved pairs.
    """
    m = np.array(m, float)
    ap = np.einsum("iab,kb->kia", gens, p)
    active = np.ones(m.shape[0], bool)
    solved = np.zeros(owner.max() + 1, bool)
    evaluations = 0
    for it in range(iterations):
        idx = np.flatnonzero(active)
        if not idx.size:
            return m, it, evaluations, solved
        evaluations += idx.size
        grad, hess = _chart_derivatives(gens, ap[idx], m[idx])
        lam, vec = np.linalg.eigh(hess)
        size = np.abs(lam)
        floor = np.maximum(EIG_FLOOR * np.max(size, axis=1), noise[idx])
        second_order = lam[:, 0] >= -floor
        converged = np.max(np.abs(grad), axis=1) <= GTOL
        done = converged & second_order
        if polar:
            solved[owner[idx[done]]] = True
            done = solved[owner[idx]]
        moving = ~done
        if not moving.all():
            active[idx[done]] = False
            idx, grad, vec, size, floor, converged, second_order = (
                v[moving] for v in (idx, grad, vec, size, floor, converged, second_order))
            if not idx.size:
                continue
        along = np.einsum("kij,ki->kj", vec, grad)
        size = np.maximum(size, floor[:, None])
        x = -np.einsum("kij,kj->ki", vec, along / size)
        slope = -np.sum(along ** 2 / size, axis=1)
        saddle = np.flatnonzero(converged)          # converged, but not at a second-order point
        if saddle.size:
            downhill = -np.copysign(1.0, along[saddle, 0])
            x[saddle] = downhill[:, None] * vec[saddle, :, 0]
            slope[saddle] = downhill * along[saddle, 0] - size[saddle, 0] / 2
        w, u = np.linalg.eigh(1j * np.einsum("ki,iab->kab", x, gens))
        a = np.einsum("kab,ka->kb", u, p[idx])                # conj(U^H p)
        b = np.conj(np.einsum("kab,ka->kb", u, m[idx]))       # U^H m
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
        if polar:
            solved[owner[idx[~accepted & second_order]]] = True
            active &= ~solved[owner]
    return m, iterations, evaluations, solved


def _ambient_distance(rep: OrthogonalRep, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    chord = np.linalg.norm(p - q, axis=-1)
    if rep.restrict_to_sphere:
        return 2 * np.arcsin(np.minimum(chord / 2, 1.0))   # exact to rounding at small angles
    return chord


def quotient_distance(rep: OrthogonalRep, p: np.ndarray, q: np.ndarray,
                      config: QuotientOptimizerConfig | None = None, *,
                      polar: bool = False) -> QuotientDistance:
    """Upper bound for the orbit-space distance min_g |p - g q|.

    The distance falls as <p, g q> rises (on the sphere too).  The ``probes``
    seeded samples g(t) = prod_i exp(t_i A_i) in canonical coordinates of the
    second kind (``_second_kind_elements``) are scored by that value in one
    batched pass, and the best ``restarts`` orbit points g(t) q start a
    modified Newton descent of -<p, m> over the orbit (``_lockstep_newton``),
    ``evals`` iterations at most.  The least ambient distance at a final
    orbit point approximates an infimum and is an upper bound.

    ``polar=True`` is the caller's word that ``rep`` is polar.  Then a start
    that retires at a second-order point has reached the global maximum of
    <p, .> on the orbit of q and solves its pair: the pair's other starts
    stop, and ``certified`` counts the pairs so solved.  ``value`` is still
    the least distance over all of a pair's starts.  Without the flag every
    start runs until it retires, and ``certified`` is 0.

    On a Euclidean model each pair is searched at the scale where its
    largest entry lies in [0.5, 1), and the result scaled back: the
    distance is homogeneous, and the search then works from 1e-300 to 1e300.

    ``p`` and ``q`` may be stacks of B pairs, shape (B, d); then ``value``
    has shape (B,) and ``point`` (B, d).  Every pair shares the one probe set
    drawn from ``config.seed``, and one lockstep Newton runs all B x
    restarts starts together.  Pairs that are not finite stacks of equal
    shape in R^space_dim, and a config without probes or with a negative
    ``evals``, raise ``WeylError``.
    """
    cfg = config or QuotientOptimizerConfig()
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    if p.shape != q.shape or p.ndim not in (1, 2) or p.shape[-1] != rep.space_dim:
        raise WeylError(f"p and q must both have shape ({rep.space_dim},) or "
                        f"(B, {rep.space_dim}); got {p.shape} and {q.shape}")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise WeylError("p and q must be finite")
    if cfg.probes < 1 or cfg.evals < 0:
        raise WeylError(f"the search needs at least one probe and a non-negative iteration "
                        f"budget; got probes={cfg.probes}, evals={cfg.evals}")
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
        n_starts = iterations = evaluations = certified = 0
    else:
        rng = np.random.default_rng(cfg.seed)
        samples = rng.uniform(-QUOTIENT_BOX, QUOTIENT_BOX, (cfg.probes, n))
        samples[0] = 0.0
        moved = q @ np.swapaxes(_second_kind_elements(rep, samples), 1, 2)  # (probes, B, d)
        restarts = min(max(cfg.restarts, 1), cfg.probes)
        n_starts = p.shape[0] * restarts
        order = np.argsort(-np.einsum("tbd,bd->bt", moved, p), axis=1)[:, :restarts]
        pick = np.arange(p.shape[0])
        starts = moved[order, pick[:, None]].reshape(-1, p.shape[1])  # (B * restarts, d)
        owner = np.repeat(pick, restarts)                              # pair of each start
        noise = ROUNDING * np.linalg.norm(p, axis=1) * np.linalg.norm(q, axis=1)
        m, iterations, evaluations, solved = _lockstep_newton(
            rep.generators, p[owner], starts, noise[owner], owner, cfg.evals, polar)
        certified = int(np.count_nonzero(solved))
        dist = _ambient_distance(rep, p[owner], m).reshape(-1, restarts)
        best = np.argmin(dist, axis=1)
        value, point = dist[pick, best], m.reshape(-1, restarts, p.shape[1])[pick, best]
    value, point = np.ldexp(value, scale), np.ldexp(point, scale[:, None])
    if single:
        return QuotientDistance(float(value[0]), point[0], n_starts, iterations, evaluations,
                                certified)
    return QuotientDistance(value, point, n_starts, iterations, evaluations, certified)


# ---------------------------------------------------------------------------
# the reduction isometry M/G = Sigma/W
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionSampler:
    pairs: int = 200
    seed: int = 0


@dataclass(frozen=True)
class ReductionReport:
    max_relative_error: float
    max_one_sided_excess: float       # max over pairs of (quotient - section/W)
    n_pairs: int
    iterations: int                   # of the one stacked quotient_distance call
    evaluations: int
    certified: int                    # pairs it solved by a second-order certificate


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
    A representation with a section is polar, so the call passes
    ``polar=True``: each pair stops at its first start that retires at a
    second-order point.
    """
    cfg = sampler or ReductionSampler()
    rng = np.random.default_rng(cfg.seed)
    xy = rng.uniform(-REDUCTION_BOX, REDUCTION_BOX, (2 * cfg.pairs, section.dim)) @ section.basis
    if rep.restrict_to_sphere:
        xy = xy / np.linalg.norm(xy, axis=1, keepdims=True)
    folded = _chamber(group, xy @ section.basis.T) @ section.basis
    dw = _ambient_distance(rep, folded[0::2], folded[1::2])
    found = quotient_distance(rep, xy[0::2], xy[1::2],
                              config or QuotientOptimizerConfig(seed=cfg.seed + 1), polar=True)
    rel = np.abs(found.value - dw) / np.maximum(dw, 1e-3)
    return ReductionReport(float(np.max(rel, initial=0.0)),
                           float(np.max(found.value - dw, initial=-np.inf)), cfg.pairs,
                           found.iterations, found.evaluations, found.certified)
