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
``REGULAR_DRAWS`` seeded draws of maximal rank.  The points are ranked by
one stacked SVD; the conjugates one at a time, up to the first whose rank
no conjugate can exceed.

Each representation test is a tolerance-free pass and a cheap verdict at a
given tolerance.  The pass of ``is_polar_rep`` and ``cohomogeneity`` is the
regular-point pairing, the cohomogeneity and the section candidate with
its pairings; the pass of the slice scans gives each point of a stack the
``PolarityError`` of its slice or that candidate for the slice.  One
stacked SVD of the orbit-tangent rows gives every point's orbit rank,
isotropy and normal space; points of one orbit type (orbit rank, slice
dimension) share their shapes, so each such group is orthonormalised,
checked for closure, conjugated onto its slices and tested in stacked
calls, with one regular-point search per slice over draws shared by every
slice of that dimension.  A caller that runs several tests, as ``analyze``
does, runs each pass once; the two slice scans read one pass over the
union of their points.  ``slice_rep`` is the one-point case of the slice
construction and ``is_polar_rep`` the one-representation case of its test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .liealg import CLOSURE_TOL, CheckResult, LieAlgebra, Subspace, \
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


def _regular_draws(generators: np.ndarray, seed: int):
    """First of ``REGULAR_DRAWS`` seeded draws of maximal orbit rank, for
    every generator set of a (p, k, d, d) stack.

    The draws in R^d are the same for every set, and one stacked SVD ranks
    them all.  Returns the (p, d) winners and their (p,) ranks.
    """
    draws = np.random.default_rng(seed).standard_normal(
        (REGULAR_DRAWS, generators.shape[-1]))
    ranks = linalg.svd_rank(np.einsum("...iab,wb->...wia", generators, draws))
    best = np.argmax(ranks, axis=-1)
    return draws[best], np.take_along_axis(ranks, best[:, None], -1)[:, 0]


def find_regular_point(rep: OrthogonalRep, seed: int = 0) -> np.ndarray:
    """Seeded point of maximal orbit-tangent rank among ``REGULAR_DRAWS`` samples.

    The first of maximal rank wins; rank is scale-invariant, so a sphere
    action normalises only the winner.
    """
    best = _regular_draws(rep.generators[None], seed)[0][0]
    return best / np.linalg.norm(best) if rep.restrict_to_sphere else best


def _pairings(generators: np.ndarray, rows: np.ndarray):
    """Section candidates and their pairings for a (p, k, d, d) stack of
    generator sets, from the (p, k, d) orbit-tangent rows at a regular
    point of each.

    Returns ``(rank, basis, pair, worst)``: rows ``rank:`` of each (d, d)
    ``basis`` span the candidate, the normal space of the orbit;
    ``pair[:, i, a, b] = <A_i v_a, v_b>`` over all rows of the basis; and
    ``worst`` is the largest |pair| over pairs of candidate rows.
    """
    rank, _, basis = linalg.svd_bases(rows)
    pair = basis[:, None] @ generators @ np.swapaxes(basis, -1, -2)[:, None]
    inside = np.arange(basis.shape[-1]) >= rank[:, None]
    mask = inside[:, None, :, None] & inside[:, None, None, :]
    worst = np.max(np.abs(pair), axis=(1, 2, 3), where=mask, initial=0.0)
    return rank, basis, pair, worst


def _verdict(found, tol, sphere, name) -> PolarityVerdict:
    """The verdict at ``tol`` on a ``(c, rank, basis, pair, worst)`` candidate, or its error."""
    if isinstance(found, PolarityError):
        raise found
    _, rank, basis, pair, worst = found
    section = basis[rank:]
    cohom = section.shape[0] - (1 if sphere else 0)
    worst = float(worst)
    if linalg.robust_failure(worst, tol, "polar pairing test"):
        i, a, b = linalg.first_max(np.abs(pair[:, rank:, rank:]))
        witness = (i, section[a].copy(), section[b].copy(),
                   float(pair[i, rank + a, rank + b]))
        return PolarityVerdict(False, cohom, None, witness, worst, tol)
    return PolarityVerdict(True, cohom, Subspace(f"{name}:V", section), None, worst, tol)


def _regular_pairing(rep: OrthogonalRep, seed: int) -> tuple:
    """The tolerance-free pass of ``is_polar_rep`` and ``cohomogeneity``: the cohomogeneity
    c, off the rank that chose the regular point, and the ``_pairings`` candidate there."""
    winners, ranks = _regular_draws(rep.generators[None], seed)
    best = winners[0] / np.linalg.norm(winners[0]) if rep.restrict_to_sphere else winners[0]
    c = rep.space_dim - int(ranks[0]) - (1 if rep.restrict_to_sphere else 0)
    return (c, *(x[0] for x in _pairings(rep.generators[None], rep.tangent_rows(best)[None])))


def cohomogeneity(rep: OrthogonalRep, seed: int = 0) -> int:
    """Codimension of a regular orbit, read off the rank that chose the regular point."""
    return _regular_pairing(rep, seed)[0]


def is_polar_rep(rep: OrthogonalRep, seed: int = 0,
                 tol: float = PAIRING_TOL) -> PolarityVerdict:
    """Exact polarity test at a regular point.

    The candidate section is the normal space of the orbit of a regular
    point; by bilinearity it is orthogonal to every orbit it meets exactly
    when <A_i v, w> vanishes for all generators and basis pairs v, w.  This
    is the one-representation case of the stacked test that the slice scans
    run on every slice at once.
    """
    return _verdict(_regular_pairing(rep, seed), tol, rep.restrict_to_sphere, rep.name)


def _slices(rep: OrthogonalRep, points: np.ndarray):
    """Slice representations at every point of a (P, D) stack, by orbit type.

    One stacked SVD of the orbit-tangent rows gives every point's orbit
    rank, its isotropy coefficients (the left null rows) and, off the
    sphere, its normal space (the right null rows); on a sphere action the
    normal space comes from a second stacked SVD with the radial row added.
    Points of one (orbit rank, slice dimension) share their shapes, and
    each such group is orthonormalised, checked for closure and conjugated
    onto its normal spaces in stacked calls.

    Returns ``(errors, groups)``: ``errors[j]`` is the ``PolarityError``
    that point j raises, or None; a group is ``(index, isotropy, gens)``,
    the positions of its points in the stack, their (p, m, n) isotropy rows,
    orthonormal in the algebra's metric, and their (p, m, d, d) slice
    generators.
    """
    rows = rep.tangent_rows(points)
    rank, left, right = linalg.svd_bases(rows)
    errors = [None] * len(points)
    normal_rank = rank
    if rep.restrict_to_sphere:
        for j in np.flatnonzero(np.linalg.norm(points, axis=-1) < 1e-12):
            errors[j] = PolarityError("sphere actions need a nonzero base point")
        normal_rank, _, right = linalg.svd_bases(
            np.concatenate([rows, points[:, None]], axis=-2))
    members = {}
    for j, key in enumerate(zip(rank.tolist(), normal_rank.tolist())):
        if errors[j] is None:
            members.setdefault(key, []).append(j)
    # rows c are orthonormal in G = L L^T, L the algebra's metric root, exactly
    # when c L are orthonormal, so one stacked QR of c L orthonormalises them all
    root, root_inv = rep.algebra.metric_root
    groups = []
    for (r, s), index in members.items():
        index = np.array(index)
        iso = linalg.orthonormalize_stack(left[index, r:] @ root) @ root_inv
        _, closure = rep.algebra.restricted_structure(iso)
        for j, res in zip(index, closure):
            if res > CLOSURE_TOL:
                errors[j] = PolarityError(f"isotropy candidate: basis not closed under "
                                          f"the bracket (residual {res:.2e})")
        normal = right[index, s:]
        # A subalgebra of a valid algebra satisfies the Jacobi identity, and
        # the isotropy preserves the normal space, so neither result is validated.
        gens = normal[:, None] @ np.tensordot(iso, rep.generators, 1) \
            @ np.swapaxes(normal, -1, -2)[:, None]
        groups.append((index, iso, gens))
    return errors, groups


def slice_rep(rep: OrthogonalRep, point: np.ndarray) -> OrthogonalRep:
    """Representation of the isotropy algebra on the normal space at ``point``.

    The one-point case of the stacked slice construction of the scans.  On
    sphere actions the radial line is removed from the slice.
    """
    errors, groups = _slices(rep, np.asarray(point, float)[None])
    if errors[0] is not None:
        raise errors[0]
    (_, iso, gens), = groups
    sub = rep.algebra.restrict(iso[0], f"iso({rep.name})")
    return OrthogonalRep(sub, gens[0], gens.shape[-1], False, name=f"slice({rep.name})")


def _slice_pairings(rep: OrthogonalRep, points: np.ndarray, seed: int) -> list:
    """The tolerance-free pass of the slice scans: per point of a (P, D) stack,
    the ``PolarityError`` of its slice or the ``_regular_pairing`` candidate
    of the slice, from one search and one pairing per group of ``_slices``."""
    found, groups = _slices(rep, points)
    for index, _, gens in groups:
        winners, ranks = _regular_draws(gens, seed)
        rows = np.einsum("...iab,...b->...ia", gens, winners)
        for j, *pairing in zip(index, gens.shape[-1] - ranks, *_pairings(gens, rows)):
            if found[j] is None:
                found[j] = tuple(pairing)
    return found


def _slice_verdicts(rep: OrthogonalRep, found: list, tol: float) -> list:
    """The slice-scan verdicts at ``tol``, in stack order, on a ``_slice_pairings`` pass."""
    return [_verdict(f, tol, False, f"slice({rep.name})") for f in found]


def _orbifold_results(rep: OrthogonalRep, found: list, tol: float) -> list:
    """The orbifold-point results at ``tol``, in stack order, on a ``_slice_pairings`` pass."""
    results = []
    for f in found:
        if not isinstance(f, PolarityError) and f[0] <= 2:
            results.append(CheckResult(True, 0.0, tol, ("slice-cohomogeneity", int(f[0]))))
            continue
        v = _verdict(f, tol, False, f"slice({rep.name})")
        results.append(CheckResult(v.polar, v.residual, tol,
                                   None if v.polar else ("slice-not-polar", v.witness[0])))
    return results


def orbifold_point_test(rep: OrthogonalRep, point: np.ndarray, seed: int = 0,
                        tol: float = PAIRING_TOL):
    """Orbit-space orbifold test at a point: is the slice representation polar?

    One point gives a ``CheckResult``, a (P, D) stack a list of them from
    one stacked pass, raising at the first point that raises.  The slice
    cohomogeneity comes from the same regular point as the pairing, and a
    slice of cohomogeneity at most two passes with residual 0.
    """
    points = np.asarray(point, float)
    results = _orbifold_results(rep, _slice_pairings(rep, np.atleast_2d(points), seed), tol)
    return results[0] if points.ndim == 1 else results


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
    G = L L^T, L its ``metric_root``, the matrix S = L^T (ad Z) L^-T is
    skew, so exp(-ad Z) = L^-T exp(-S) L^T comes from an eigendecomposition
    of iS.  h (draw 0) and then its conjugates, in draw order, are ranked by
    the rank of their projection to p, one at a time.  No conjugate of h
    ranks above min(dim h, dim p), so the search stops at the first draw
    that reaches it.  Gram-Schmidt keeps the rank, so only the first of
    maximal rank is orthonormalised.
    """
    alg = pair.algebra
    rng = np.random.default_rng(seed)
    zs = []
    for _ in range(REGULAR_DRAWS):
        z = rng.standard_normal(alg.dim)
        zs.append(z / max(alg.norm(z), 1e-12) * rng.uniform(0.2, 2.5))
    _check_ad_invariant(alg)
    root, root_inv = alg.metric_root
    bound = min(h.dim, pair.p.dim)
    best, best_rank = h.basis, linalg.svd_rank(pair.project_p(h.basis))
    for ad_z in alg.ad(np.array(zs)):
        if best_rank >= bound:
            break
        lam, vec = np.linalg.eigh(1j * (root.T @ ad_z @ root_inv.T))
        rot = ((vec * np.exp(1j * lam)) @ np.conj(vec.T)).real
        conj = h.basis @ (root_inv.T @ rot @ root.T).T                # exp(-ad z) h
        rank = linalg.svd_rank(pair.project_p(conj))
        if rank > best_rank:
            best, best_rank = conj, rank
    return Subspace(h.ambient,
                    h.basis if best is h.basis else linalg.orthonormalize(best, alg.metric_root))


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
    # m = p \cap h^perp, solved in p-coordinates: orthonormal kernel rows of
    # the orthonormal p basis
    constraints = hreg.basis @ alg.inner @ pair.p.basis.T   # (dim h, dim p)
    m = Subspace(f"{alg.name}:m", linalg.kernel(constraints) @ pair.p.basis)
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
